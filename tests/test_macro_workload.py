"""Macro-workload pieces: generator determinism, driver correctness.

Three layers under test: the seeded LDBC-style social generator (same
seed + scale → byte-identical stores across every emission and ingest
path), the mixed read/write driver (zero lost transactions, every
committed transaction visible exactly once, serial replay reproduces
the concurrent store byte-for-byte), and the latency-stat plumbing the
benchmark records (p50/p95/p99 keys present, ascending).
"""

import os
import sys

import pytest

from repro import CypherEngine
from repro.datasets import ldbc_social
from repro.datasets.ldbc_social import ldbc_counts
from repro.graph.ingest import ingest_csv
from repro.graph.store import MemoryGraph
from repro.selftest import graph_state

sys.path.insert(
    0,
    os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                 "benchmarks"),
)

from workload import (  # noqa: E402 — needs the benchmarks dir on sys.path
    MacroWorkload,
    OPERATION_CLASSES,
    PERCENTILES,
    dataset_handles,
    latency_stats,
    percentile,
    prepare,
    replay,
)

SCALE = 0.01
SEED = 5


# ---------------------------------------------------------------------------
# Generator determinism
# ---------------------------------------------------------------------------

def test_generator_is_deterministic_per_seed():
    first = ldbc_social(scale=SCALE, seed=SEED)
    second = ldbc_social(scale=SCALE, seed=SEED)
    assert [t.header for t in first.tables] == [
        t.header for t in second.tables
    ]
    assert [t.rows for t in first.tables] == [t.rows for t in second.tables]
    different = ldbc_social(scale=SCALE, seed=SEED + 1)
    assert [t.rows for t in first.tables] != [
        t.rows for t in different.tables
    ]


def test_scale_controls_counts():
    small = ldbc_counts(0.01)
    large = ldbc_counts(0.1)
    assert small["persons"] < large["persons"]
    assert set(small) == {
        "persons", "forums", "posts", "comments", "knows", "likes"
    }
    ds = ldbc_social(scale=SCALE, seed=SEED)
    graph = ds.to_graph()
    counts = ds.counts
    expected_nodes = (
        counts["persons"] + counts["forums"]
        + counts["posts"] + counts["comments"]
    )
    assert graph.node_count() == expected_nodes


@pytest.mark.smoke
def test_emission_modes_byte_identical():
    """interpreter / row / batch / CSV ingest: one store, four paths."""
    ds = ldbc_social(scale=SCALE, seed=SEED)
    reference = graph_state(ds.to_graph("interpreter"))
    assert graph_state(ds.to_graph("row")) == reference
    assert graph_state(ds.to_graph("batch")) == reference
    ingested = MemoryGraph()
    ingest_csv(
        ingested,
        [(t.name + ".csv", list(ds.csv_lines(t))) for t in ds.tables],
    )
    assert graph_state(ingested) == reference


def test_unknown_emission_mode_rejected():
    ds = ldbc_social(scale=SCALE, seed=SEED)
    with pytest.raises(ValueError, match="unknown emission mode"):
        ds.to_graph("nope")


# ---------------------------------------------------------------------------
# Latency-stat plumbing
# ---------------------------------------------------------------------------

def test_percentile_is_nearest_rank():
    samples = [0.001 * i for i in range(1, 101)]
    assert percentile(samples, 50) == 0.050
    assert percentile(samples, 95) == 0.095
    assert percentile(samples, 99) == 0.099
    assert percentile([0.5], 99) == 0.5


def test_latency_stats_keys_present_and_ordered():
    stats = latency_stats([0.004, 0.001, 0.009, 0.002], 2.0)
    assert stats["count"] == 4
    assert stats["throughput_per_s"] == 2.0
    keys = [key for key, _q in PERCENTILES]
    assert keys == ["p50_ms", "p95_ms", "p99_ms"]
    values = [stats[key] for key in keys]
    assert values == sorted(values)
    empty = latency_stats([], 1.0)
    assert empty["count"] == 0 and empty["p99_ms"] == 0.0


# ---------------------------------------------------------------------------
# Driver: zero lost transactions, serial replay identity
# ---------------------------------------------------------------------------

def driven_engine():
    ds = ldbc_social(scale=SCALE, seed=SEED)
    engine = CypherEngine(ds.to_graph())
    prepare(engine)
    return engine, dataset_handles(ds)


@pytest.mark.smoke
def test_tiny_driver_run_loses_nothing():
    engine, handles = driven_engine()
    driver = MacroWorkload(
        engine, *handles, update_txns=20, readers=2, abort_every=5,
        budget_s=30.0, seed=SEED,
    )
    result = driver.run()
    assert result.consistent(), (
        result.errors, result.invariant_failures, result.version_regressions
    )
    assert result.committed + result.aborted == 20
    assert result.aborted == 4  # every 5th of 20 deliberately rolled back
    assert len(result.committed_log) == result.committed
    assert result.reads > 0
    # Zero lost transactions: every committed transaction bumped the
    # Meta counter exactly once, aborted ones not at all.
    assert engine.run(
        "MATCH (c:Meta) RETURN c.txns AS t"
    ).values("t") == [result.committed]


@pytest.mark.smoke
def test_serial_replay_reproduces_concurrent_store():
    engine, handles = driven_engine()
    baseline = engine.graph.copy()
    driver = MacroWorkload(
        engine, *handles, update_txns=15, readers=2, budget_s=30.0,
        seed=SEED,
    )
    result = driver.run()
    assert result.consistent(), result.errors
    replayed = replay(CypherEngine(baseline), result.committed_log)
    assert graph_state(replayed) == graph_state(engine.graph)


def test_driver_stats_shape():
    engine, handles = driven_engine()
    driver = MacroWorkload(
        engine, *handles, update_txns=8, readers=1, budget_s=30.0,
        seed=SEED,
    )
    result = driver.run()
    stats = result.stats()
    assert set(stats) == set(OPERATION_CLASSES)
    for name in OPERATION_CLASSES:
        entry = stats[name]
        assert set(entry) == {
            "count", "throughput_per_s", "p50_ms", "p95_ms", "p99_ms"
        }
        ordered = [entry[key] for key, _q in PERCENTILES]
        assert ordered == sorted(ordered), name
