"""Set-up shared by every workload: dataset → CSV → ingest → engine.

One :class:`World` is what a user would have after loading the LDBC-style
social dataset: a :class:`~repro.MemoryGraph` with the declared indexes
and a default-constructed :class:`~repro.CypherEngine` on top.  Each
step is timed from outside, so ``setup_s`` and the ``dataset.*`` /
``ingest.*`` layer rows come from the same spans.
"""

from __future__ import annotations

import time

from repro import CypherEngine, MemoryGraph
from repro.datasets import ldbc_social
from repro.graph.ingest import ingest_csv

#: Declared before ingest; the deferred ingest rebuilds each once.
PROPERTY_INDEXES = (
    ("Person", "id"),
    ("Post", "id"),
    ("Comment", "id"),
    ("Forum", "id"),
    ("Post", "creationDate"),
)
REACHABILITY_TYPES = ("KNOWS",)

#: The dataset's timestamps end here; the update stream stamps later
#: values, so its writes are the newest entries of ``Post(creationDate)``.
DATASET_EPOCH = 1262304000
DATASET_SPREAD = 3 * 365 * 24 * 3600

#: (Meta counter, the pattern it counts) — kept equal by every update
#: transaction, which is what makes a torn snapshot observable.  LIKES
#: and KNOWS always start at a Person; anchoring there keeps the check
#: cheap on a snapshot overlay, which has no indexes to enter through.
META_INVARIANTS = (
    ("posts", "MATCH (m:Post) RETURN count(m) AS n"),
    ("likes", "MATCH (:Person)-[r:LIKES]->() RETURN count(r) AS n"),
    ("knows", "MATCH (:Person)-[r:KNOWS]->() RETURN count(r) AS n"),
)
META_READ = (
    "MATCH (c:Meta) RETURN c.posts AS posts, c.likes AS likes, "
    "c.knows AS knows, c.txns AS txns"
)


class Handles:
    """The external ids the operation generators draw from."""

    def __init__(self, dataset):
        counts = dataset.counts
        n_posts = counts["posts"]
        self.persons = ["p%d" % i for i in range(counts["persons"])]
        self.forums = ["f%d" % i for i in range(counts["forums"])]
        self.posts = ["m%d" % i for i in range(n_posts)]
        self.comments = [
            "m%d" % (n_posts + i) for i in range(counts["comments"])
        ]
        likes = next(t for t in dataset.tables if t.name == "likes")
        #: (person, comment) pairs of the dataset's LIKES on comments:
        #: the only relationships ``unlike`` deletes, so each delete
        #: removes exactly one relationship (``new_like`` targets posts).
        self.comment_likes = [
            (row[0], row[1]) for row in likes.rows
            if int(row[1][1:]) >= n_posts
        ]


class World:
    def __init__(self, dataset, graph, engine, report, timings):
        self.dataset = dataset
        self.graph = graph
        self.engine = engine
        self.report = report
        self.timings = timings  # span name -> seconds
        self.handles = Handles(dataset)

    @property
    def setup_s(self):
        return sum(self.timings.values())


def declare_indexes(graph):
    for label, key in PROPERTY_INDEXES:
        graph.create_index(label, key)
    graph.create_reachability_index(list(REACHABILITY_TYPES))
    return graph


def render_csv(dataset):
    return [
        (table.name + ".csv", list(dataset.csv_lines(table)))
        for table in dataset.tables
    ]


def install_meta(engine):
    """The ``:Meta`` counter node, seeded from the loaded store."""
    counts = {
        key: engine.run(query).value("n") for key, query in META_INVARIANTS
    }
    engine.run(
        "CREATE (:Meta {txns: 0, posts: $posts, likes: $likes, "
        "knows: $knows})",
        counts,
    )


def build_world(scale, seed, probe=lambda: None):
    """Generate, render, ingest, construct; ``probe`` is called before
    the first stage and after each (the runner samples host speed there,
    outside every stage's clock)."""
    clock = time.perf_counter
    timings = {}
    probe()
    started = clock()
    dataset = ldbc_social(scale=scale, seed=seed)
    timings["generate"] = clock() - started
    probe()
    started = clock()
    tables = render_csv(dataset)
    timings["csv_render"] = clock() - started
    probe()
    started = clock()
    graph = declare_indexes(MemoryGraph())
    report = ingest_csv(graph, tables, batch_size=1000, defer_indexes=True)
    timings["ingest"] = clock() - started
    probe()
    started = clock()
    engine = CypherEngine(graph)
    install_meta(engine)
    timings["engine"] = clock() - started
    probe()
    return World(dataset, graph, engine, report, timings)
