"""P12: LDBC-style macro-workload — bulk ingest and mixed read/write drive.

Micro-benchmarks (P1–P11) time one operator or one query shape at a
time; this suite drives the whole stack the way a deployment would hit
it.  A seeded social dataset (:mod:`repro.datasets.ldbc_social`) is
bulk-loaded through the streaming CSV ingest path, then a mixed
workload of short reads, multi-statement update transactions and
multi-hop analytics runs concurrently through the session layer, and
the suite reports throughput and p50/p95/p99 tail latency per
operation class into ``BENCH_pipeline.json`` (section ``workloads``).

Acceptance floors:

* **bulk ingest** — deferred-index batch ingest (one sorted rebuild per
  property index, one Tarjan per reachability index at the end) must be
  ≥ 3x the per-row incremental baseline (``batch_size=1``,
  ``defer_indexes=False``) on the same table set with a ``:KNOWS``
  reachability index and three property indexes declared;
* **correctness preamble** — the concurrent run must be serializable:
  zero driver errors, zero snapshot invariant failures, zero snapshot
  version regressions, and the live store after the run must be
  byte-identical (ids included) to a serial replay of the committed
  transaction log on a copy of the initial store.  Deferred and
  incremental ingest must produce byte-identical stores *and* indexes.

Latency percentiles are reported per class (short_read / update_txn /
analytic) but deliberately not pinned — wall-clock tails on shared CI
hardware are weather, the committed trajectory is the record.
"""

import time

import pytest

from repro import CypherEngine
from repro.datasets import ldbc_social
from repro.graph.ingest import ingest_csv
from repro.graph.store import MemoryGraph
from repro.selftest import graph_state

from workload import (
    MacroWorkload,
    OPERATION_CLASSES,
    PERCENTILES,
    dataset_handles,
    prepare,
    replay,
)

#: Dataset scale for the ingest pin and the driver (see ldbc_counts).
SCALE = 0.1
SEED = 7

#: Deferred bulk ingest must beat per-row incremental by this factor.
INGEST_FLOOR = 3.0

#: Driver shape: writer transactions, reader threads, wall-clock cap.
UPDATE_TXNS = 60
READERS = 2
BUDGET_S = 60.0

#: Indexes declared before ingest — the deferred path drops and
#: rebuilds these once; the incremental path maintains them per row.
#: The all-types condensation is the expensive one to maintain
#: incrementally: each added edge runs a DAG DFS, and the social graph
#: keeps its component DAG large until the cross-type cycles close.
PROPERTY_INDEXES = (("Person", "id"), ("Post", "id"), ("Forum", "id"))
REACHABILITY_INDEXES = (["KNOWS"], None)


def _dataset():
    return ldbc_social(scale=SCALE, seed=SEED)


def _tables(dataset):
    """The CSV table set, materialised once, re-iterable per run."""
    return [
        (table.name + ".csv", list(dataset.csv_lines(table)))
        for table in dataset.tables
    ]


def _indexed_graph():
    graph = MemoryGraph()
    for label, key in PROPERTY_INDEXES:
        graph.create_index(label, key)
    for types in REACHABILITY_INDEXES:
        graph.create_reachability_index(types)
    return graph


def _ingest(tables, batch_size, defer_indexes):
    graph = _indexed_graph()
    report = ingest_csv(
        graph, tables, batch_size=batch_size, defer_indexes=defer_indexes
    )
    return graph, report


def _median_time(callable_, repeats=5):
    """Median wall time after one warm-up run."""
    callable_()
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        times.append(time.perf_counter() - started)
    times.sort()
    return times[repeats // 2]


def _driven_engine():
    """An ingested engine plus the driver handles for it."""
    dataset = _dataset()
    graph, _report = _ingest(_tables(dataset), 1000, True)
    return CypherEngine(graph), dataset_handles(dataset)


# ---------------------------------------------------------------------------
# Correctness preamble — the floors below are only meaningful if these hold
# ---------------------------------------------------------------------------

def test_p12_deferred_ingest_identical_to_incremental():
    """Same store, same indexes, whichever maintenance strategy ran."""
    dataset = _dataset()
    tables = _tables(dataset)
    deferred, _ = _ingest(tables, 1000, True)
    incremental, _ = _ingest(tables, 1, False)
    assert graph_state(deferred) == graph_state(incremental)
    for label, key in PROPERTY_INDEXES:
        assert deferred.index_snapshot(label, key) == (
            incremental.index_snapshot(label, key)
        ), (label, key)
    for types in REACHABILITY_INDEXES:
        assert deferred.reachability_snapshot(types) == (
            incremental.reachability_snapshot(types)
        ), types
    # And both equal the direct (non-CSV) emission of the same dataset.
    assert graph_state(deferred) == graph_state(dataset.to_graph("batch"))


def test_p12_concurrent_run_matches_serial_replay():
    """The macro drive is serializable: replay reproduces the live store."""
    engine, (persons, forums, posts, next_message) = _driven_engine()
    prepare(engine)
    baseline = engine.graph.copy()
    driver = MacroWorkload(
        engine, persons, forums, posts, next_message,
        update_txns=UPDATE_TXNS, readers=READERS,
        budget_s=BUDGET_S, seed=SEED,
    )
    result = driver.run()
    assert result.committed > 0, "writer never committed"
    assert result.reads > 0, "readers never ran"
    assert result.consistent(), (
        result.errors, result.invariant_failures, result.version_regressions
    )
    replayed = replay(CypherEngine(baseline), result.committed_log)
    assert graph_state(replayed) == graph_state(engine.graph)


# ---------------------------------------------------------------------------
# Pinned floor — deferred bulk ingest vs per-row incremental maintenance
# ---------------------------------------------------------------------------

def test_p12_deferred_bulk_ingest_beats_per_row(table_report):
    dataset = _dataset()
    tables = _tables(dataset)
    bulk_seconds = _median_time(lambda: _ingest(tables, 1000, True))
    row_seconds = _median_time(lambda: _ingest(tables, 1, False))
    ratio = row_seconds / max(bulk_seconds, 1e-9)
    counts = dataset.counts
    table_report(
        "P12 — streaming ingest, scale %.2f (%d persons)"
        % (SCALE, counts["persons"]),
        ["variant", "median", "vs bulk"],
        [
            ("bulk + deferred indexes", "%.3f ms" % (bulk_seconds * 1e3), "1.0x"),
            ("per-row + incremental", "%.3f ms" % (row_seconds * 1e3),
             "%.1fx" % ratio),
        ],
    )
    assert ratio >= INGEST_FLOOR, (
        "deferred bulk ingest only %.2fx over per-row incremental "
        "(floor %.1fx)" % (ratio, INGEST_FLOOR)
    )


# ---------------------------------------------------------------------------
# Latency profile — throughput and tails per class, into the trajectory
# ---------------------------------------------------------------------------

def test_p12_macro_latency_profile(table_report, pipeline_record):
    engine, handles = _driven_engine()
    prepare(engine)
    driver = MacroWorkload(
        engine, *handles,
        update_txns=UPDATE_TXNS, readers=READERS,
        budget_s=BUDGET_S, seed=SEED,
    )
    result = driver.run()
    assert result.consistent(), (
        result.errors, result.invariant_failures, result.version_regressions
    )
    stats = result.stats()
    rows = []
    for name in OPERATION_CLASSES:
        entry = stats[name]
        percentiles = [entry[key] for key, _q in PERCENTILES]
        assert percentiles == sorted(percentiles), (name, entry)
        rows.append(
            (
                name,
                entry["count"],
                "%.1f/s" % entry["throughput_per_s"],
                "%.3f ms" % entry["p50_ms"],
                "%.3f ms" % entry["p95_ms"],
                "%.3f ms" % entry["p99_ms"],
            )
        )
    table_report(
        "P12 — mixed workload, %d committed / %d aborted txns, %.2fs"
        % (result.committed, result.aborted, result.elapsed_s),
        ["class", "count", "throughput", "p50", "p95", "p99"],
        rows,
    )
    assert stats["analytic"]["count"] > 0, "analytic class never ran"
    pipeline_record(
        "workloads",
        "p12_macro[scale=%s]" % SCALE,
        {
            "scale": SCALE,
            "seed": SEED,
            "update_txns": UPDATE_TXNS,
            "readers": READERS,
            "committed": result.committed,
            "aborted": result.aborted,
            "snapshot_retries": result.snapshot_retries,
            "elapsed_s": result.elapsed_s,
            "classes": stats,
        },
    )


# ---------------------------------------------------------------------------
# pytest-benchmark medians — the ingest paths in the shared trajectory
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "batch_size,defer", [(1000, True), (1, False)],
    ids=["bulk-deferred", "per-row-incremental"],
)
def test_p12_ingest_benchmark(benchmark, batch_size, defer):
    tables = _tables(_dataset())
    graph, report = benchmark(_ingest, tables, batch_size, defer)
    assert report.nodes_created == graph.node_count()
    assert report.relationships_created == graph.relationship_count()
