"""LDBC-style social network generator for the macro-workload.

A seeded, scale-parameterised approximation of the LDBC SNB schema:
Person / Forum / Post / Comment nodes with timestamped properties, wired
by KNOWS (power-law degrees), HAS_MEMBER, CONTAINER_OF, HAS_CREATOR,
REPLY_OF and LIKES relationships.  The scale factor maps linearly to
node/edge counts (:func:`ldbc_counts`), so ``scale=0.01`` is a
ten-person smoke world and ``scale=1.0`` a thousand-person benchmark
graph.

The generator materialises one canonical row model
(:class:`LdbcDataset`): an ordered list of tables, each either a node
table or a relationship table, with neo4j-admin-style typed headers
(``:ID(ns)``, ``:LABEL``, ``:START_ID(ns)``, ``:END_ID(ns)``, ``:TYPE``,
``name:int``).  From that one model the dataset emits either

* a :class:`~repro.graph.store.MemoryGraph` directly
  (:meth:`LdbcDataset.to_graph`, with ``mode`` selecting per-row public
  mutators, per-row transactional creates, or bulk transactional
  creates — all three produce identical stores), or
* CSV streams/files (:meth:`LdbcDataset.csv_lines` /
  :meth:`LdbcDataset.write_csv`) for the bulk-ingest path in
  :mod:`repro.graph.ingest`.

Output is deterministic per ``(scale, seed)``: every random draw comes
from one ``random.Random`` stream consumed in a fixed order, and rows
round-trip losslessly through CSV (ints and strings only).
"""

from __future__ import annotations

import csv
import os
import random

from repro.graph.store import MemoryGraph

#: 2010-01-01T00:00:00Z — all creation timestamps sit in the three
#: years after this epoch, as integer seconds.
EPOCH = 1262304000
_SPREAD = 3 * 365 * 24 * 3600

_FIRST_NAMES = (
    "Ada", "Alan", "Barbara", "Edsger", "Grace", "John", "Leslie",
    "Margaret", "Maurice", "Niklaus", "Robin", "Tony",
)
_LAST_NAMES = (
    "Backus", "Dijkstra", "Hamilton", "Hoare", "Hopper", "Kay",
    "Lamport", "Liskov", "Lovelace", "Milner", "Turing", "Wilkes",
)
_BROWSERS = ("Chrome", "Firefox", "Safari", "Opera")
_WORDS = (
    "about", "maybe", "photos", "great", "thanks", "agree", "trip",
    "music", "paper", "query", "graph", "rain", "coffee", "match",
)


def ldbc_counts(scale):
    """Entity counts for one scale factor (linear in ``scale``).

    ``scale=1.0`` is the kiloperson reference point; every count floors
    at a value that keeps the tiny smoke scales structurally complete
    (at least two forums, every person reachable).
    """
    if scale <= 0:
        raise ValueError("scale factor must be positive")
    persons = max(8, round(scale * 1000))
    return {
        "persons": persons,
        "forums": max(2, persons // 5),
        "posts": persons * 4,
        "comments": persons * 8,
        "knows": persons * 3,
        "likes": persons * 8,
    }


class Table:
    """One CSV-shaped table: a typed header plus value-tuple rows."""

    __slots__ = ("name", "kind", "header", "rows")

    def __init__(self, name, kind, header, rows):
        self.name = name          # file stem, e.g. "persons"
        self.kind = kind          # "nodes" | "relationships"
        self.header = header      # tuple of column specs
        self.rows = rows          # list of value tuples

    def __repr__(self):
        return "Table(%s, %s, %d rows)" % (self.name, self.kind, len(self.rows))


def _power_law_weights(count, alpha=0.7):
    """Zipf-ish weights: the head of the id range is the heavy tail."""
    return [(index + 1) ** -alpha for index in range(count)]


def generate(scale=0.01, seed=0):
    """Build the canonical row model for ``(scale, seed)``.

    Returns an :class:`LdbcDataset`.  All structure is drawn from a
    single seeded stream in fixed order, so equal arguments give equal
    datasets, row for row.
    """
    counts = ldbc_counts(scale)
    rng = random.Random(seed)
    n_persons = counts["persons"]
    n_forums = counts["forums"]
    n_posts = counts["posts"]
    n_comments = counts["comments"]

    def stamp():
        return EPOCH + rng.randrange(_SPREAD)

    persons = [
        (
            "p%d" % index,
            rng.choice(_FIRST_NAMES),
            rng.choice(_LAST_NAMES),
            EPOCH - rng.randrange(50 * 365) * 24 * 3600,  # birthday
            stamp(),
            rng.choice(_BROWSERS),
        )
        for index in range(n_persons)
    ]
    forums = [
        (
            "f%d" % index,
            "Forum about %s" % rng.choice(_WORDS),
            stamp(),
        )
        for index in range(n_forums)
    ]

    def content():
        n_words = rng.randint(2, 6)
        text = " ".join(rng.choice(_WORDS) for _ in range(n_words))
        return text, len(text)

    # Posts and comments share the Message id namespace: REPLY_OF,
    # HAS_CREATOR and LIKES all reference messages regardless of kind.
    person_weights = _power_law_weights(n_persons)
    posts = []
    post_creator = []
    post_forum = []
    for index in range(n_posts):
        text, length = content()
        posts.append(("m%d" % index, text, length, stamp()))
        post_creator.append(
            rng.choices(range(n_persons), weights=person_weights)[0]
        )
        post_forum.append(rng.randrange(n_forums))
    comments = []
    comment_creator = []
    comment_parent = []  # index into the shared message id space
    for offset in range(n_comments):
        index = n_posts + offset
        text, length = content()
        comments.append(("m%d" % index, text, length, stamp()))
        comment_creator.append(
            rng.choices(range(n_persons), weights=person_weights)[0]
        )
        # Reply to any earlier message: a post, or a comment already
        # generated — comment threads form chains of REPLY_OF edges.
        comment_parent.append(rng.randrange(index))

    # KNOWS with power-law degrees: endpoints drawn from the zipf
    # weights, so early persons become hubs.
    knows = []
    seen_pairs = set()
    attempts = 0
    while len(knows) < counts["knows"] and attempts < counts["knows"] * 20:
        attempts += 1
        left, right = rng.choices(
            range(n_persons), weights=person_weights, k=2
        )
        if left == right:
            continue
        key = (min(left, right), max(left, right))
        if key in seen_pairs:
            continue
        seen_pairs.add(key)
        knows.append(("p%d" % left, "p%d" % right, stamp()))

    members = []
    for forum_index in range(n_forums):
        size = max(2, rng.randint(2, max(2, n_persons // n_forums * 2)))
        for person_index in rng.sample(range(n_persons), min(size, n_persons)):
            members.append(
                ("f%d" % forum_index, "p%d" % person_index, stamp())
            )

    likes = []
    seen_likes = set()
    n_messages = n_posts + n_comments
    attempts = 0
    while len(likes) < counts["likes"] and attempts < counts["likes"] * 20:
        attempts += 1
        person = rng.choices(range(n_persons), weights=person_weights)[0]
        message = rng.randrange(n_messages)
        if (person, message) in seen_likes:
            continue
        seen_likes.add((person, message))
        likes.append(("p%d" % person, "m%d" % message, stamp()))

    tables = [
        Table(
            "persons",
            "nodes",
            (
                ":ID(Person)", ":LABEL", "id", "firstName", "lastName",
                "birthday:int", "creationDate:int", "browser",
            ),
            [
                (pid, "Person", pid, first, last, birthday, created, browser)
                for pid, first, last, birthday, created, browser in persons
            ],
        ),
        Table(
            "forums",
            "nodes",
            (":ID(Forum)", ":LABEL", "id", "title", "creationDate:int"),
            [
                (fid, "Forum", fid, title, created)
                for fid, title, created in forums
            ],
        ),
        Table(
            "messages",
            "nodes",
            (
                ":ID(Message)", ":LABEL", "id", "content", "length:int",
                "creationDate:int",
            ),
            [
                (mid, "Post", mid, text, length, created)
                for mid, text, length, created in posts
            ]
            + [
                (mid, "Comment", mid, text, length, created)
                for mid, text, length, created in comments
            ],
        ),
        Table(
            "knows",
            "relationships",
            (
                ":START_ID(Person)", ":END_ID(Person)", ":TYPE",
                "creationDate:int",
            ),
            [
                (left, right, "KNOWS", created)
                for left, right, created in knows
            ],
        ),
        Table(
            "members",
            "relationships",
            (":START_ID(Forum)", ":END_ID(Person)", ":TYPE", "joinDate:int"),
            [
                (forum, person, "HAS_MEMBER", joined)
                for forum, person, joined in members
            ],
        ),
        Table(
            "containers",
            "relationships",
            (":START_ID(Forum)", ":END_ID(Message)", ":TYPE"),
            [
                ("f%d" % post_forum[index], "m%d" % index, "CONTAINER_OF")
                for index in range(n_posts)
            ],
        ),
        Table(
            "creators",
            "relationships",
            (":START_ID(Message)", ":END_ID(Person)", ":TYPE"),
            [
                ("m%d" % index, "p%d" % post_creator[index], "HAS_CREATOR")
                for index in range(n_posts)
            ]
            + [
                (
                    "m%d" % (n_posts + offset),
                    "p%d" % comment_creator[offset],
                    "HAS_CREATOR",
                )
                for offset in range(n_comments)
            ],
        ),
        Table(
            "replies",
            "relationships",
            (":START_ID(Message)", ":END_ID(Message)", ":TYPE"),
            [
                ("m%d" % (n_posts + offset), "m%d" % comment_parent[offset],
                 "REPLY_OF")
                for offset in range(n_comments)
            ],
        ),
        Table(
            "likes",
            "relationships",
            (
                ":START_ID(Person)", ":END_ID(Message)", ":TYPE",
                "creationDate:int",
            ),
            [
                (person, message, "LIKES", created)
                for person, message, created in likes
            ],
        ),
    ]
    return LdbcDataset(scale, seed, counts, tables)


def _column_value(spec, raw):
    if spec.endswith(":int"):
        return int(raw)
    return raw


class LdbcDataset:
    """The canonical row model one ``(scale, seed)`` pair generates."""

    def __init__(self, scale, seed, counts, tables):
        self.scale = scale
        self.seed = seed
        self.counts = counts
        self.tables = tables

    # -- direct graph emission ------------------------------------------

    def to_graph(self, mode="batch", graph=None):
        """Materialise into a :class:`MemoryGraph`.

        ``mode`` selects the write path — ``"interpreter"`` uses the
        public per-row mutators (one version bump each), ``"row"`` a
        store transaction with per-row creates, ``"batch"`` a store
        transaction with the bulk create paths.  All three iterate the
        same canonical table order, so the resulting stores are
        identical snapshot-for-snapshot.
        """
        if graph is None:
            graph = MemoryGraph()
        if mode == "interpreter":
            ids = {}
            for table in self.tables:
                if table.kind == "nodes":
                    for labels, properties in _node_rows(table):
                        external = properties["id"]
                        ids[external] = graph.create_node(labels, properties)
                else:
                    for src, tgt, rel_type, properties in _rel_rows(table):
                        graph.create_relationship(
                            ids[src], ids[tgt], rel_type, properties
                        )
            return graph
        if mode not in ("row", "batch"):
            raise ValueError("unknown emission mode %r" % (mode,))
        transaction = graph.write_transaction()
        try:
            ids = {}
            for table in self.tables:
                if table.kind == "nodes":
                    if mode == "batch":
                        for labels, batch in _label_batches(table):
                            properties = [props for props in batch]
                            for external, node in zip(
                                (props["id"] for props in properties),
                                transaction.create_nodes(labels, properties),
                            ):
                                ids[external] = node
                    else:
                        for labels, properties in _node_rows(table):
                            ids[properties["id"]] = transaction.create_node(
                                labels, properties
                            )
                else:
                    if mode == "batch":
                        for rel_type, batch in _type_batches(table):
                            transaction.create_relationships(
                                rel_type,
                                [
                                    (ids[src], ids[tgt], properties)
                                    for src, tgt, properties in batch
                                ],
                            )
                    else:
                        for src, tgt, rel_type, properties in _rel_rows(table):
                            transaction.create_relationship(
                                ids[src], ids[tgt], rel_type, properties
                            )
            transaction.commit()
        except BaseException:
            transaction.rollback()
            raise
        return graph

    # -- CSV emission ----------------------------------------------------

    def csv_lines(self, table):
        """The table as CSV text lines (header first), a generator."""
        yield _csv_line(table.header)
        for row in table.rows:
            yield _csv_line(row)

    def write_csv(self, directory):
        """Write one ``<name>.csv`` per table; returns the paths."""
        os.makedirs(directory, exist_ok=True)
        paths = []
        for table in self.tables:
            path = os.path.join(directory, table.name + ".csv")
            with open(path, "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(table.header)
                writer.writerows(table.rows)
            paths.append(path)
        return paths

    def __repr__(self):
        return "LdbcDataset(scale=%r, seed=%r, %d tables)" % (
            self.scale, self.seed, len(self.tables)
        )


def _csv_line(row):
    import io

    buffer = io.StringIO()
    csv.writer(buffer).writerow(row)
    return buffer.getvalue().rstrip("\r\n")


def _node_rows(table):
    """Yield ``(labels, properties)`` per row, id column included."""
    header = table.header
    label_at = header.index(":LABEL")
    for row in table.rows:
        labels = (row[label_at],)
        properties = {
            spec.split(":", 1)[0]: _column_value(spec, row[position])
            for position, spec in enumerate(header)
            if not spec.startswith(":")
        }
        yield labels, properties


def _rel_rows(table):
    """Yield ``(src_external, tgt_external, type, properties)`` per row."""
    header = table.header
    src_at = next(
        position for position, spec in enumerate(header)
        if spec.startswith(":START_ID")
    )
    tgt_at = next(
        position for position, spec in enumerate(header)
        if spec.startswith(":END_ID")
    )
    type_at = header.index(":TYPE")
    for row in table.rows:
        properties = {
            spec.split(":", 1)[0]: _column_value(spec, row[position])
            for position, spec in enumerate(header)
            if not spec.startswith(":")
        }
        yield row[src_at], row[tgt_at], row[type_at], properties


def _label_batches(table):
    """Group consecutive node rows sharing a label tuple."""
    batch_labels = None
    batch = []
    for labels, properties in _node_rows(table):
        if labels != batch_labels:
            if batch:
                yield batch_labels, batch
            batch_labels, batch = labels, []
        batch.append(properties)
    if batch:
        yield batch_labels, batch


def _type_batches(table):
    """Group consecutive relationship rows sharing a type."""
    batch_type = None
    batch = []
    for src, tgt, rel_type, properties in _rel_rows(table):
        if rel_type != batch_type:
            if batch:
                yield batch_type, batch
            batch_type, batch = rel_type, []
        batch.append((src, tgt, properties))
    if batch:
        yield batch_type, batch
