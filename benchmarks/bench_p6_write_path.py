"""P6: the write path — bulk CREATE, fan-out SET, MERGE upserts.

Until PR 3 every updating clause tree-walked through the reference
interpreter: per-row dict copies, per-expression AST walks and one
store-version bump (plus cache invalidation) per mutation.  The slotted
write pipeline compiles property maps and SET expressions to
slot-indexed closures, streams flat rows through Eager-fenced write
operators, and batches all mutations of a statement into one store
transaction with a single commit-time version bump.

The acceptance floor is 2x on every workload: a write-heavy statement on
the planner path must run at most half the interpreter's median.  The
no-fallback check doubles as the coverage tripwire for the write
operators (bench fails rather than silently re-routing to the walker).
"""

import time

import pytest

from repro import CypherEngine
from repro.graph.store import MemoryGraph
from repro.selftest import graph_state

#: One statement ingesting 300 nodes with computed properties (the
#: CREATE takes the store's deferred bulk path: one label-index touch).
BULK_CREATE = (
    "UNWIND range(1, 300) AS i "
    "CREATE (:Item {v: i, bucket: i % 7, double: i * 2, "
    "offset: i + 100, even: i % 2 = 0})"
)

#: Touch every hub->leaf pair: one property write per matched row.
FANOUT_SET = (
    "MATCH (h:Hub)-[:TO]->(m:Leaf) "
    "SET m.flag = h.v + m.i, m.seen = true"
)

#: Classic upsert: half the keys exist, half are created.
MERGE_UPSERT = (
    "UNWIND range(1, 120) AS k MERGE (n:K {k: k}) "
    "ON CREATE SET n.created = 1 "
    "ON MATCH SET n.hits = coalesce(n.hits, 0) + 1"
)

WRITE_WORKLOADS = [
    ("bulk create", BULK_CREATE),
    ("fan-out set", FANOUT_SET),
    ("merge upsert", MERGE_UPSERT),
]


def build_graph(hubs=6, leaves=150, existing_keys=60):
    graph = MemoryGraph()
    leaf_nodes = [
        graph.create_node(("Leaf",), {"i": index}) for index in range(leaves)
    ]
    for hub_index in range(hubs):
        hub = graph.create_node(("Hub",), {"v": hub_index})
        for leaf_index in range(hub_index, leaves, hubs):
            graph.create_relationship(hub, leaf_nodes[leaf_index], "TO")
    for key in range(1, existing_keys + 1):
        graph.create_node(("K",), {"k": key})
    return graph


def _median_time(callable_, repeats=15):
    """Median wall time after one warm-up run (plan cache, statistics)."""
    callable_()
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        times.append(time.perf_counter() - started)
    times.sort()
    return times[repeats // 2]


def test_p6_no_write_workload_falls_back():
    engine = CypherEngine(build_graph())
    for name, query in WRITE_WORKLOADS:
        result = engine.run(query)
        assert result.executed_by == "planner", (
            "write workload %r fell back to the interpreter (%s)"
            % (name, result.fallback_reason)
        )


def test_p6_same_final_state():
    """Each workload leaves byte-identical stores on both paths."""
    for _name, query in WRITE_WORKLOADS:
        interpreter_graph = build_graph()
        planner_graph = build_graph()
        interpreted = CypherEngine(interpreter_graph).run(
            query, mode="interpreter"
        )
        planned = CypherEngine(planner_graph).run(query, mode="planner")
        assert interpreted.table.same_bag(planned.table), query
        assert graph_state(interpreter_graph) == graph_state(planner_graph)


def test_p6_planner_beats_interpreter(table_report):
    """Acceptance floor: planner median >= 2x faster on every workload."""
    rows = []
    ratios = {}
    for name, query in WRITE_WORKLOADS:
        planner_engine = CypherEngine(build_graph())
        interpreter_engine = CypherEngine(build_graph())
        planner_seconds = _median_time(
            lambda: planner_engine.run(query, mode="planner")
        )
        interpreter_seconds = _median_time(
            lambda: interpreter_engine.run(query, mode="interpreter")
        )
        ratio = interpreter_seconds / max(planner_seconds, 1e-9)
        ratios[name] = ratio
        rows.append(
            (
                name,
                "%.3f ms" % (planner_seconds * 1e3),
                "%.3f ms" % (interpreter_seconds * 1e3),
                "%.1fx" % ratio,
            )
        )
    table_report(
        "P6 — slotted write pipeline vs reference interpreter",
        ["workload", "planner", "interpreter", "interp/planner"],
        rows,
    )
    for name, ratio in ratios.items():
        assert ratio >= 2.0, "write workload %r only at %.2fx" % (name, ratio)


def test_p6_write_plan_cache_hits():
    """Re-running a write statement hits the cache despite its own bump."""
    engine = CypherEngine(build_graph())
    engine.run(BULK_CREATE)
    hits_before = engine.plan_cache_hits
    engine.run(BULK_CREATE)
    engine.run(BULK_CREATE)
    assert engine.plan_cache_hits == hits_before + 2


@pytest.mark.parametrize("mode", ["planner", "interpreter"])
def test_p6_bulk_create_benchmark(benchmark, mode):
    engine = CypherEngine(build_graph())
    benchmark(engine.run, BULK_CREATE, mode=mode)
    assert engine.graph.node_count() > 300


@pytest.mark.parametrize("mode", ["planner", "interpreter"])
def test_p6_fanout_set_benchmark(benchmark, mode):
    engine = CypherEngine(build_graph())
    result = benchmark(engine.run, FANOUT_SET, mode=mode)
    assert len(result) > 0  # the driving rows flow through a SET


@pytest.mark.parametrize("mode", ["planner", "interpreter"])
def test_p6_merge_upsert_benchmark(benchmark, mode):
    engine = CypherEngine(build_graph())
    result = benchmark(engine.run, MERGE_UPSERT, mode=mode)
    assert len(result) > 0  # one row per driving key
