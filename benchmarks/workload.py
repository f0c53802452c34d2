"""Mixed read/write macro-workload driver over the session layer.

Drives an LDBC-style social graph with three operation classes running
in separate threads:

* **short_read** — interactive lookups (a person's friends, a person's
  message count) against a pinned snapshot;
* **update_txn** — multi-statement write transactions through
  ``engine.session()`` (new post, new like, new friendship — each also
  bumps a ``:Meta`` counter node in the same transaction, which is what
  makes torn reads observable);
* **analytic** — multi-hop and scan-heavy reads (friends-of-friends,
  bounded reply chains, forum fan-in, message scans) against the same
  snapshots.

Concurrency model: the store's read paths are cooperative — a mutation
must never land *inside* one statement's execution (see
:mod:`repro.graph.snapshot`) — so every statement and every snapshot
pin acquires one global statement lock.  Sessions, transactions and
snapshots span many lock acquisitions and interleave preemptively
across threads, which is exactly the surface under test: a snapshot
taken between two statements of an uncommitted writer transaction must
be refused, a snapshot taken after a commit must never see a later
commit, and the final store must equal a serial replay of the committed
transaction log.

Correctness is checked two ways:

* **snapshot invariant** — every reader snapshot verifies
  ``Meta.posts == count(:Post)``, ``Meta.likes == count(LIKES)`` and
  ``Meta.knows == count(KNOWS)``; each update transaction changes both
  sides in separate statements, so any non-atomic visibility shows up
  as a counter mismatch;
* **serial-replay differential** — :func:`replay` re-executes the
  committed transaction log, in commit order, on a copy of the initial
  store; the result must be byte-identical (ids included) to the live
  store after the concurrent run.  Deliberately rolled-back
  transactions never enter the log, so the differential also pins that
  aborts leave nothing behind.
"""

from __future__ import annotations

import math
import threading
import time

from repro.exceptions import TransactionError

#: The latency classes reported per run, in reporting order.
OPERATION_CLASSES = ("short_read", "update_txn", "analytic")

#: Percentile keys recorded into BENCH_pipeline.json, ascending.
PERCENTILES = (("p50_ms", 50), ("p95_ms", 95), ("p99_ms", 99))


def percentile(samples, q):
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latency_stats(samples, elapsed_s):
    """``{count, throughput_per_s, p50_ms, p95_ms, p99_ms}`` for one class."""
    stats = {
        "count": len(samples),
        "throughput_per_s": (
            len(samples) / elapsed_s if elapsed_s > 0 else 0.0
        ),
    }
    for key, q in PERCENTILES:
        stats[key] = percentile(samples, q) * 1000.0 if samples else 0.0
    return stats


class WorkloadResult:
    """Everything one driver run observed."""

    def __init__(self):
        self.latencies = {name: [] for name in OPERATION_CLASSES}
        self.committed_log = []   # list of [(query, params), ...] per txn
        self.committed = 0
        self.aborted = 0          # deliberate rollbacks (never in the log)
        self.reads = 0
        self.snapshot_retries = 0
        self.invariant_failures = []
        self.version_regressions = []
        self.errors = []
        self.elapsed_s = 0.0

    def stats(self):
        """Per-class latency/throughput stats, percentile keys ordered."""
        return {
            name: latency_stats(self.latencies[name], self.elapsed_s)
            for name in OPERATION_CLASSES
        }

    def consistent(self):
        return not (
            self.invariant_failures
            or self.version_regressions
            or self.errors
        )


#: Update transactions: each entry is a list of statement templates the
#: writer instantiates with fresh parameters.  Every transaction touches
#: its entity *and* the Meta counters in separate statements.
def _new_post(context):
    mid = "w%d" % context["next_message"]
    context["next_message"] += 1
    rng = context["rng"]
    return [
        (
            "MATCH (p:Person {id: $pid}) "
            "CREATE (m:Post {id: $mid, content: $content, length: $length, "
            "creationDate: $ts})-[:HAS_CREATOR]->(p)",
            {
                "pid": rng.choice(context["persons"]),
                "mid": mid,
                "content": "update %s" % mid,
                "length": len(mid) + 7,
                "ts": context["clock"],
            },
        ),
        (
            "MATCH (f:Forum {id: $fid}), (m:Post {id: $mid}) "
            "CREATE (f)-[:CONTAINER_OF]->(m)",
            {"fid": rng.choice(context["forums"]), "mid": mid},
        ),
        (
            "MATCH (c:Meta) SET c.txns = c.txns + 1, c.posts = c.posts + 1",
            None,
        ),
    ]


def _new_like(context):
    rng = context["rng"]
    return [
        (
            "MATCH (p:Person {id: $pid}), (m:Post {id: $mid}) "
            "CREATE (p)-[:LIKES {creationDate: $ts}]->(m)",
            {
                "pid": rng.choice(context["persons"]),
                "mid": rng.choice(context["posts"]),
                "ts": context["clock"],
            },
        ),
        (
            "MATCH (c:Meta) SET c.txns = c.txns + 1, c.likes = c.likes + 1",
            None,
        ),
    ]


def _new_friendship(context):
    rng = context["rng"]
    left = rng.choice(context["persons"])
    right = rng.choice(context["persons"])
    while right == left:
        right = rng.choice(context["persons"])
    return [
        (
            "MATCH (a:Person {id: $left}), (b:Person {id: $right}) "
            "CREATE (a)-[:KNOWS {creationDate: $ts}]->(b)",
            {"left": left, "right": right, "ts": context["clock"]},
        ),
        (
            "MATCH (c:Meta) SET c.txns = c.txns + 1, c.knows = c.knows + 1",
            None,
        ),
    ]


_UPDATE_KINDS = (_new_post, _new_like, _new_friendship)

_SHORT_READS = (
    "MATCH (p:Person {id: $pid})-[:KNOWS]-(f:Person) RETURN count(f) AS n",
    "MATCH (m)-[:HAS_CREATOR]->(p:Person {id: $pid}) RETURN count(m) AS n",
)

_ANALYTICS = (
    "MATCH (p:Person {id: $pid})-[:KNOWS]-()-[:KNOWS]-(fof:Person) "
    "RETURN count(fof) AS n",
    "MATCH (m:Comment)-[:REPLY_OF*1..3]->(root)-[:HAS_CREATOR]->"
    "(p:Person {id: $pid}) RETURN count(m) AS n",
    "MATCH (f:Forum {id: $fid})-[:CONTAINER_OF]->(m:Post)<-[:LIKES]-(p) "
    "RETURN count(p) AS n",
    # Scan-heavy aggregates.
    "MATCH (m:Comment) WHERE m.length >= $minlen RETURN count(m) AS n",
    "MATCH (m:Post) WHERE m.creationDate >= 0 "
    "RETURN count(m) AS n, sum(m.length) AS total",
)

#: The three (counter property, counted pattern) invariant pairs.
_INVARIANTS = (
    ("posts", "MATCH (m:Post) RETURN count(m) AS n"),
    ("likes", "MATCH ()-[r:LIKES]->() RETURN count(r) AS n"),
    ("knows", "MATCH ()-[r:KNOWS]->() RETURN count(r) AS n"),
)


def prepare(engine):
    """Install the driver's Meta counter node, seeded from the store.

    Runs as one auto-committed statement per counter read plus one
    CREATE, *before* the concurrent phase — callers copy the graph
    after this to get the replay baseline.
    """
    counts = {}
    for key, query in _INVARIANTS:
        counts[key] = engine.run(query).values("n")[0]
    engine.run(
        "CREATE (:Meta {txns: 0, posts: $posts, likes: $likes, "
        "knows: $knows})",
        counts,
    )


class MacroWorkload:
    """One concurrent mixed-workload run against a prepared engine.

    ``update_txns`` bounds the writer; ``readers`` reader threads run
    short reads and analytics against snapshots until the writer
    finishes (each completes its current batch before stopping).
    ``budget_s`` is a wall-clock ceiling: the writer stops issuing new
    transactions once it is exceeded, so a run always terminates even
    on a slow machine.  ``abort_every``-th transactions are executed
    and then deliberately rolled back.
    """

    def __init__(
        self,
        engine,
        persons,
        forums,
        posts,
        next_message,
        update_txns=40,
        readers=2,
        abort_every=7,
        analytic_every=3,
        budget_s=None,
        seed=0,
    ):
        import random

        self.engine = engine
        self.update_txns = update_txns
        self.readers = readers
        self.abort_every = abort_every
        self.analytic_every = analytic_every
        self.budget_s = budget_s
        self.seed = seed
        self.context = {
            "persons": list(persons),
            "forums": list(forums),
            "posts": list(posts),
            "next_message": next_message,
            "rng": random.Random(seed),
            "clock": 0,
        }
        #: One statement (or snapshot pin) at a time — the store's read
        #: paths are cooperative; see the module docstring.
        self._statement_lock = threading.Lock()
        self._stop = threading.Event()

    # -- threads ---------------------------------------------------------

    def run(self):
        """Execute the mixed workload; returns a :class:`WorkloadResult`."""
        result = WorkloadResult()
        started = time.perf_counter()
        deadline = (
            started + self.budget_s if self.budget_s is not None else None
        )
        threads = [
            threading.Thread(
                target=self._read_loop,
                args=(result, reader_index, deadline),
                name="reader-%d" % reader_index,
            )
            for reader_index in range(self.readers)
        ]
        writer = threading.Thread(
            target=self._write_loop, args=(result, deadline), name="writer"
        )
        for thread in threads:
            thread.start()
        writer.start()
        writer.join()
        self._stop.set()
        for thread in threads:
            thread.join()
        result.elapsed_s = time.perf_counter() - started
        return result

    def _write_loop(self, result, deadline):
        try:
            rng = self.context["rng"]
            with self.engine.session() as session:
                for txn_index in range(self.update_txns):
                    if deadline is not None and time.perf_counter() > deadline:
                        break
                    self.context["clock"] = txn_index
                    statements = rng.choice(_UPDATE_KINDS)(self.context)
                    abort = (
                        self.abort_every
                        and (txn_index + 1) % self.abort_every == 0
                    )
                    begun = time.perf_counter()
                    session.begin()
                    for query, parameters in statements:
                        with self._statement_lock:
                            session.run(query, parameters)
                        time.sleep(0)  # yield: let readers pin mid-txn
                    if abort:
                        with self._statement_lock:
                            session.rollback()
                        result.aborted += 1
                    else:
                        with self._statement_lock:
                            session.commit()
                        result.committed += 1
                        result.committed_log.append(statements)
                        result.latencies["update_txn"].append(
                            time.perf_counter() - begun
                        )
                    time.sleep(0)
        except BaseException as error:  # noqa: BLE001 — surfaced to caller
            result.errors.append("writer: %r" % (error,))
        finally:
            self._stop.set()

    def _read_loop(self, result, reader_index, deadline):
        import random

        rng = random.Random(self.seed * 8191 + reader_index + 1)
        last_version = -1
        iteration = 0
        try:
            while not self._stop.is_set():
                if deadline is not None and time.perf_counter() > deadline:
                    break
                iteration += 1
                with self.engine.session() as session:
                    snapshot = self._pin(session, result)
                    if snapshot is None:
                        continue
                    if snapshot.version < last_version:
                        result.version_regressions.append(
                            (reader_index, last_version, snapshot.version)
                        )
                    last_version = snapshot.version
                    pid = rng.choice(self.context["persons"])
                    fid = rng.choice(self.context["forums"])
                    self._timed_read(
                        result, "short_read", snapshot,
                        rng.choice(_SHORT_READS), {"pid": pid},
                    )
                    if iteration % self.analytic_every == 0:
                        self._timed_read(
                            result, "analytic", snapshot,
                            rng.choice(_ANALYTICS),
                            {"pid": pid, "fid": fid, "minlen": 5},
                        )
                        self._check_invariants(result, snapshot)
                time.sleep(0)
        except BaseException as error:  # noqa: BLE001
            result.errors.append("reader-%d: %r" % (reader_index, error))

    def _pin(self, session, result):
        """Pin a snapshot, retrying while the writer holds uncommitted
        changes (the store refuses to pin a non-committed version)."""
        for _attempt in range(1000):
            with self._statement_lock:
                try:
                    return session.snapshot()
                except TransactionError:
                    result.snapshot_retries += 1
            if self._stop.is_set():
                return None
            time.sleep(0.0005)
        return None

    def _timed_read(self, result, op_class, snapshot, query, parameters):
        with self._statement_lock:
            begun = time.perf_counter()
            records = snapshot.run(query, parameters).records
            elapsed = time.perf_counter() - begun
        result.latencies[op_class].append(elapsed)
        result.reads += 1
        return records

    def _check_invariants(self, result, snapshot):
        with self._statement_lock:
            meta = snapshot.run(
                "MATCH (c:Meta) RETURN c.posts AS posts, c.likes AS likes, "
                "c.knows AS knows"
            ).records
            if not meta:
                return  # prepare() not run on this engine
            counters = meta[0]
            for key, query in _INVARIANTS:
                actual = snapshot.run(query).values("n")[0]
                if actual != counters[key]:
                    result.invariant_failures.append(
                        "v%d: %s counter=%r actual=%r"
                        % (snapshot.version, key, counters[key], actual)
                    )


def replay(engine, committed_log):
    """Re-execute a committed-transaction log serially, in commit order.

    ``engine`` wraps the replay target — a copy of the store as it was
    when the concurrent run started (after :func:`prepare`).  Returns
    the engine's graph for comparison against the live store.
    """
    for statements in committed_log:
        with engine.session() as session:
            session.begin()
            for query, parameters in statements:
                session.run(query, parameters)
            session.commit()
    return engine.graph


def dataset_handles(dataset):
    """``(persons, forums, posts, next_message)`` driver inputs from an
    :class:`~repro.datasets.ldbc_social.LdbcDataset`."""
    counts = dataset.counts
    persons = ["p%d" % index for index in range(counts["persons"])]
    forums = ["f%d" % index for index in range(counts["forums"])]
    posts = ["m%d" % index for index in range(counts["posts"])]
    return persons, forums, posts, counts["posts"] + counts["comments"]
