"""P9: what do sessions, snapshots and deadlines cost when unused-in-anger?

PR 6 adds transactional sessions (undo-logged store transactions),
copy-on-write snapshot pins and cooperative cancellation.  All three are
pay-as-you-go by design:

* plain reads never see the machinery (no undo list, no pins, no
  cancellation object → one ``is None`` check per operator compile);
* a snapshot read runs on the parent engine: against the live store
  while the pin is clean, against a delta-corrected view of it once the
  store diverged — same indexes, same cached plan, plus O(|delta|);
* session writes add one undo-tuple append per mutation.

Acceptance pins, min-over-interleaved-samples vs the direct
``engine.run()`` baseline (see :func:`_paired_ratio` for why min):

* **read via clean snapshot ≤ 1.10x** — the acceptance criterion's
  "snapshot overhead ≤ 10% on reads";
* **write via session transaction ≤ 1.10x** — "transaction overhead
  ≤ 10% on writes" (undo recording + begin/commit bookkeeping);
* **deadline-armed read ≤ 1.10x** — the strided cancellation checks;
* **dirty-view indexed read ≤ 2x the clean-snapshot read** — a snapshot
  whose pin a concurrent commit made dirty still enters through the
  index and the cached plan; what it pays is the delta correction.
"""

import time

import pytest

from repro import CypherEngine
from repro.graph.store import MemoryGraph

ITEMS = 20000
NDV = 1000

READ_QUERY = (
    "MATCH (n:Item) WHERE n.v >= 100 AND n.v < 140 RETURN count(*) AS c"
)
#: Each measured write run creates this many nodes (fresh label, so the
#: graph grows identically under both variants).
WRITE_BATCH = 2000
WRITE_QUERY = "UNWIND range(1, %d) AS i CREATE (:Scratch {v: i})" % WRITE_BATCH

#: (name, floor) — medians must stay within floor x the direct baseline.
OVERHEAD_BUDGET = 1.10
#: A dirty-view read against the clean-snapshot read of the same text.
DIRTY_VIEW_BUDGET = 2.0
#: What makes the pin dirty: an indexed SET, a CREATE and a DELETE on
#: the probed label, all landing inside the probed range.
DIRTYING_WRITES = (
    "MATCH (n:Item) WHERE n.v = 100 SET n.v = 139",
    "CREATE (:Item {v: 120})",
    "MATCH (n:Item) WHERE n.v = 110 WITH n LIMIT 1 DELETE n",
)


def build_engine():
    graph = MemoryGraph()
    graph.create_index("Item", "v")
    transaction = graph.write_transaction()
    transaction.create_nodes(
        ("Item",),
        [{"v": i % NDV, "name": "item-%05d" % i} for i in range(ITEMS)],
    )
    transaction.commit()
    return CypherEngine(graph)


def _paired_ratio(variant, baseline, repeats=9, inner=1):
    """(ratio, variant seconds, baseline seconds) from interleaved runs.

    Alternating the two callables every round exposes both sides to the
    same drift — GC pauses, frequency scaling, and (for writes) the same
    graph-growth trajectory.  Each side's cost is the *minimum* over its
    samples: timing noise is one-sided (preemption only ever adds time),
    so the min is the tightest estimate of the true cost and far more
    stable than a median of sub-millisecond rounds.  ``inner`` amortises
    very short workloads over several calls per sample.
    """
    variant()
    baseline()
    variant_times, baseline_times = [], []
    for _ in range(repeats):
        started = time.perf_counter()
        for _ in range(inner):
            variant()
        middle = time.perf_counter()
        for _ in range(inner):
            baseline()
        finished = time.perf_counter()
        variant_times.append((middle - started) / inner)
        baseline_times.append((finished - middle) / inner)
    variant_seconds = min(variant_times)
    baseline_seconds = min(baseline_times)
    return (
        variant_seconds / max(baseline_seconds, 1e-9),
        variant_seconds,
        baseline_seconds,
    )


def _dirty_snapshot(engine, reader):
    """A warm snapshot of ``engine`` whose pin a writer then dirtied."""
    snapshot = reader.snapshot()
    snapshot.run(READ_QUERY)  # warm while still clean
    with engine.session() as writer:
        writer.begin()
        for statement in DIRTYING_WRITES:
            writer.run(statement)
        writer.commit()
    assert not snapshot.pin.clean
    return snapshot


def test_p9_session_overhead_within_budget(table_report, pipeline_record):
    """The pins: clean-snapshot read, session write, armed read ≤ 1.10x
    the direct run; dirty-view read ≤ 2x the clean-snapshot read."""
    rows = []
    failures = []

    def pin(name, variant_seconds, baseline_seconds, ratio,
            budget=OVERHEAD_BUDGET):
        rows.append(
            (
                name,
                "%.3f ms" % (variant_seconds * 1e3),
                "%.3f ms" % (baseline_seconds * 1e3),
                "%.3fx" % ratio,
                "%.2fx budget" % budget,
            )
        )
        if ratio > budget:
            failures.append(
                "%s at %.3fx (budget %.2fx)" % (name, ratio, budget)
            )

    # -- reads: direct vs clean snapshot vs deadline-armed ---------------
    engine = build_engine()
    direct_read_once = lambda: engine.run(READ_QUERY)  # noqa: E731
    with engine.session() as session:
        snapshot = session.snapshot()
        snapshot_ratio, snapshot_read, direct_read = _paired_ratio(
            lambda: snapshot.run(READ_QUERY), direct_read_once,
            repeats=11, inner=5,
        )
    pin("read via clean snapshot", snapshot_read, direct_read, snapshot_ratio)

    armed_ratio, armed_read, direct_read = _paired_ratio(
        lambda: engine.run(READ_QUERY, timeout=3600.0), direct_read_once,
        repeats=11, inner=5,
    )
    pin("read with deadline armed", armed_read, direct_read, armed_ratio)

    # -- writes: direct autocommit vs session transaction ----------------
    # Interleaved: both graphs grow by WRITE_BATCH per round, so each
    # per-round ratio compares like against like.
    direct_engine = build_engine()
    session_engine = build_engine()

    def transactional_write():
        with session_engine.session() as writer:
            writer.begin()
            writer.run(WRITE_QUERY)
            writer.commit()

    write_ratio, session_write, direct_write = _paired_ratio(
        transactional_write,
        lambda: direct_engine.run(WRITE_QUERY),
        repeats=9,
    )
    pin(
        "write via session transaction", session_write, direct_write,
        write_ratio,
    )

    # -- the dirty view: indexes and the cached plan survive the writer --
    # Two engines over identical stores, one snapshot each; only one pin
    # is dirtied, so the pair differs in exactly the delta correction.
    clean_engine = build_engine()
    dirty_engine = build_engine()
    with clean_engine.session() as clean_reader, \
            dirty_engine.session() as dirty_reader:
        clean = clean_reader.snapshot()
        dirty = _dirty_snapshot(dirty_engine, dirty_reader)
        entries = [
            path["entry"]
            for path in dirty.run(READ_QUERY, profile=True).access_paths
        ]
        assert entries == ["index range :Item(v)"], entries
        misses = dirty_engine.plan_cache_misses
        dirty_ratio, dirty_read, clean_read = _paired_ratio(
            lambda: dirty.run(READ_QUERY), lambda: clean.run(READ_QUERY),
            repeats=11, inner=5,
        )
        assert dirty_engine.plan_cache_misses == misses
    pin(
        "read via dirty view", dirty_read, clean_read, dirty_ratio,
        budget=DIRTY_VIEW_BUDGET,
    )
    pipeline_record(
        "transactions", "p9_dirty_view_read",
        {
            "dirty_view_s": dirty_read,
            "clean_snapshot_s": clean_read,
            "ratio": dirty_ratio,
            "budget": DIRTY_VIEW_BUDGET,
        },
    )

    table_report(
        "P9 — session/snapshot/cancellation overhead (variant vs baseline)",
        ["workload", "variant", "baseline", "ratio", "pin"],
        rows,
    )
    assert not failures, "; ".join(failures)


def test_p9_snapshot_reads_are_isolated_and_correct():
    """The fast path must still be *snapshot* reads, not stale caches."""
    engine = build_engine()
    with engine.session() as reader:
        snapshot = reader.snapshot()
        before = list(snapshot.run(READ_QUERY).table)
        with engine.session() as writer:
            writer.begin()
            writer.run("UNWIND range(100, 139) AS i CREATE (:Item {v: i})")
            writer.commit()
        after_commit = list(snapshot.run(READ_QUERY).table)
        live = list(engine.run(READ_QUERY).table)
    assert before == after_commit
    assert live != after_commit


@pytest.mark.parametrize("variant", ["direct", "snapshot", "dirty-view"])
def test_p9_read_benchmark(benchmark, variant):
    engine = build_engine()
    if variant == "direct":
        result = benchmark(engine.run, READ_QUERY)
    else:
        with engine.session() as session:
            if variant == "snapshot":
                snapshot = session.snapshot()
            else:
                snapshot = _dirty_snapshot(engine, session)
            result = benchmark(snapshot.run, READ_QUERY)
    assert list(result.table) == [{"c": 40 * (ITEMS // NDV)}]


@pytest.mark.parametrize("variant", ["direct", "session"])
def test_p9_write_benchmark(benchmark, variant):
    engine = build_engine()
    if variant == "direct":
        benchmark(engine.run, WRITE_QUERY)
        return

    def transactional_write():
        with engine.session() as writer:
            writer.begin()
            writer.run(WRITE_QUERY)
            writer.commit()

    benchmark(transactional_write)
