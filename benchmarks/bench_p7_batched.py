"""P7: vectorised batch execution vs the row-at-a-time planner.

PRs 1–3 compiled dispatch, expressions and plans; what remained was
Python's per-row toll — a generator resumption per operator per row, a
``row[:]`` copy per binding, a closure call per expression per row.  The
batch engine (:mod:`repro.planner.batch`) executes the same plans as
morsels of slot columns: scans slice chunks off cached scan lists,
Expand walks whole source columns through ``expand_batch``, filters and
projections evaluate column-compiled closures once per morsel, and
aggregation accumulates straight off argument columns.  Keys are
values: a grouping or ``DISTINCT`` column of ints, strings or ids is its
own key list, and Sort and Top order an all-int or all-str column by its
values, so none of those calls ``canonical_key`` or ``sort_key`` per row
(``test_p7_self_keyed_columns_make_no_key_calls`` counts the calls).

The acceptance floor is 2x on every *pinned* workload (scan, expand and
aggregation shapes): the batch median must be at most half the row
median on the same plans.  Top-k and DISTINCT are reported for the
trajectory without a floor — over a mixed-type column their cost is
per-row ``sort_key``/``canonical_key`` computation, which batching
cannot amortise.  The no-silent-row check doubles as the coverage
tripwire for the batch operator claim, and every workload is
cross-checked for bag equality against both the row planner and the
interpreter.
"""

import time

import pytest

from repro import CypherEngine
from repro.graph.store import MemoryGraph

#: Workloads with an asserted 2x floor: the scan / expand / aggregation
#: shapes the batch engine exists for.
PINNED_WORKLOADS = [
    (
        "scan filter count",
        "MATCH (n:Item) WHERE n.v >= 10000 RETURN count(*) AS c",
    ),
    (
        "expand count",
        "MATCH (h:Hub)-[:TO]->(l:Leaf) RETURN count(*) AS c",
    ),
    (
        "grouped count",
        "MATCH (n:Item) RETURN n.bucket AS b, count(*) AS c ORDER BY b",
    ),
    (
        "grouped sum",
        "MATCH (n:Item) RETURN n.bucket AS b, sum(n.v) AS s ORDER BY b",
    ),
]

#: Reported for the perf trajectory, no floor (per-row key computation
#: dominates; batching only removes the operator overhead around it).
REPORTED_WORKLOADS = [
    (
        "expand sum",
        "MATCH (h:Hub)-[:TO]->(l:Leaf) RETURN sum(l.i) AS s",
    ),
    (
        "distinct",
        "MATCH (n:Item) RETURN DISTINCT n.bucket AS b",
    ),
    (
        "top-k",
        "MATCH (n:Item) RETURN n.v AS v ORDER BY v DESC LIMIT 10",
    ),
]

ALL_WORKLOADS = PINNED_WORKLOADS + REPORTED_WORKLOADS


def build_graph(items=20000, hubs=40, leaves=4000):
    graph = MemoryGraph()
    for index in range(items):
        graph.create_node(("Item",), {"v": index, "bucket": index % 16})
    leaf_nodes = [
        graph.create_node(("Leaf",), {"i": index}) for index in range(leaves)
    ]
    for hub_index in range(hubs):
        hub = graph.create_node(("Hub",), {"v": hub_index})
        for leaf_index in range(hub_index, leaves, hubs):
            graph.create_relationship(hub, leaf_nodes[leaf_index], "TO")
    return graph


def _median_time(callable_, repeats=9):
    """Median wall time after one warm-up run (plan cache, scan caches)."""
    callable_()
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        callable_()
        times.append(time.perf_counter() - started)
    times.sort()
    return times[repeats // 2]


def _interleaved_min(calls, rounds=15, inner=5):
    """``{name: min seconds per call}`` over interleaved sample rounds."""
    for call in calls.values():
        call()
    samples = {name: [] for name in calls}
    for _ in range(rounds):
        for name, call in calls.items():
            started = time.perf_counter()
            for _ in range(inner):
                call()
            samples[name].append((time.perf_counter() - started) / inner)
    return {name: min(times) for name, times in samples.items()}


def test_p7_no_workload_leaves_batch_mode():
    """Every workload is a claimed plan and must actually run batched."""
    engine = CypherEngine(build_graph())
    for name, query in ALL_WORKLOADS:
        result = engine.run(query, mode="batch")
        assert result.executed_by == "planner", name
        assert result.execution_mode == "batch", (
            "workload %r silently ran row-wise" % name
        )


def test_p7_modes_agree_on_results():
    engine = CypherEngine(build_graph())
    for name, query in ALL_WORKLOADS:
        reference = engine.run(query, mode="interpreter")
        for mode in ("row", "batch"):
            result = engine.run(query, mode=mode)
            assert reference.table.same_bag(result.table), (name, mode)


def test_p7_batch_beats_row_engine(table_report):
    """Acceptance floor: batch median ≥ 2x faster on pinned workloads."""
    engine = CypherEngine(build_graph())
    rows = []
    ratios = {}
    for name, query in ALL_WORKLOADS:
        batch_seconds = _median_time(
            lambda query=query: engine.run(query, mode="batch")
        )
        row_seconds = _median_time(
            lambda query=query: engine.run(query, mode="row")
        )
        ratio = row_seconds / max(batch_seconds, 1e-9)
        ratios[name] = ratio
        rows.append(
            (
                name,
                "%.3f ms" % (batch_seconds * 1e3),
                "%.3f ms" % (row_seconds * 1e3),
                "%.1fx" % ratio,
                "2x floor" if (name, query) in PINNED_WORKLOADS else "report",
            )
        )
    table_report(
        "P7 — vectorised batch execution vs row-at-a-time planner",
        ["workload", "batch", "row", "row/batch", "pin"],
        rows,
    )
    for name, _query in PINNED_WORKLOADS:
        assert ratios[name] >= 2.0, (
            "workload %r only at %.2fx" % (name, ratios[name])
        )


POINT_READ = "MATCH (n:Item) WHERE n.v = $v RETURN n.bucket AS b"


def test_p7_parked_pipeline_against_the_setup_floor(
    table_report, pipeline_record
):
    """Warm indexed point read, with and without a parked pipeline.

    One plan runs against the store its pipeline is parked for (take →
    bind → run → park); its twin alternates between two copies of that
    store, so every take finds a pipeline compiled for another graph
    object and compiles afresh — the executor set-up every execution
    paid before pipelines were kept.  The difference is the set-up
    floor; it is recorded so that it stays a number.
    """
    from repro.parser import parse_query
    from repro.planner import execute_plan_batched, plan_query

    graph = build_graph(items=2000, hubs=1, leaves=1)
    graph.create_index("Item", "v")
    copies = (graph.copy(), graph.copy())
    warm_plan = plan_query(parse_query(POINT_READ), graph)
    fresh_plan = plan_query(parse_query(POINT_READ), graph)
    parameters = {"v": 1234}
    calls = [0]

    def warm():
        return execute_plan_batched(warm_plan, graph, parameters)

    def fresh():
        calls[0] += 1
        return execute_plan_batched(
            fresh_plan, copies[calls[0] % 2], parameters
        )

    assert warm().rows == fresh().rows == [{"b": 1234 % 16}]
    best = _interleaved_min({"warm": warm, "fresh": fresh}, inner=50)
    warm_seconds, fresh_seconds = best["warm"], best["fresh"]
    table_report(
        "P7 — indexed point read, parked pipeline vs compile per run",
        ["execution", "min of 15 x 50 runs"],
        [
            ("take, bind, run, park", "%.1f µs" % (warm_seconds * 1e6)),
            ("compile, run", "%.1f µs" % (fresh_seconds * 1e6)),
            ("set-up floor", "%.1f µs" % (
                (fresh_seconds - warm_seconds) * 1e6
            )),
        ],
    )
    pipeline_record("pipelines", "p7_parked_point_read", {
        "parked_us": round(warm_seconds * 1e6, 1),
        "compiled_us": round(fresh_seconds * 1e6, 1),
        "setup_floor_us": round((fresh_seconds - warm_seconds) * 1e6, 1),
    })
    assert warm_seconds < fresh_seconds


def test_p7_no_python_call_per_value(table_report, pipeline_record):
    """Three cheap pins on the column kernels' preconditions.

    Ids hash and compare in C (a Python ``__hash__`` on the id classes
    made an id-keyed lookup 3.7x an int-keyed one); ``count(n)`` is a
    null tally over the column, so it costs what ``count(*)`` costs; a
    grouped count under a top-k is a ``Counter`` plus one sort.
    """
    from repro.values.base import NodeId

    ids = [NodeId(value) for value in range(8000)]
    by_id = dict.fromkeys(ids, 1)
    by_int = dict.fromkeys(range(8000), 1)
    probes = [NodeId(value) for value in range(8000)]  # equal, not identical
    lookups = _interleaved_min({
        "id": lambda: list(map(by_id.__getitem__, probes)),
        "int": lambda: list(map(by_int.__getitem__, range(8000))),
    }, inner=20)

    graph = MemoryGraph()
    for index in range(5000):
        graph.create_node(("Item",), {"v": index, "g": (index * 7) % 577})
    engine = CypherEngine(graph)
    grouped = (
        "MATCH (n:Item) RETURN n.g AS g, count(n.v) AS c "
        "ORDER BY c DESC, g LIMIT 10"
    )
    assert engine.run(grouped, mode="batch").records == engine.run(
        grouped, mode="interpreter"
    ).records
    # A filtered scan, the shape that reaches an aggregate in practice:
    # over a bare cached scan list count(*) is a few len() calls.
    queries = _interleaved_min({
        "count(n)": lambda: engine.run(
            "MATCH (n:Item) WHERE n.v >= 0 RETURN count(n) AS c", mode="batch"
        ),
        "count(*)": lambda: engine.run(
            "MATCH (n:Item) WHERE n.v >= 0 RETURN count(*) AS c", mode="batch"
        ),
        "grouped batch": lambda: engine.run(grouped, mode="batch"),
        "grouped row": lambda: engine.run(grouped, mode="row"),
    })
    ratios = {
        "id_over_int_lookup": lookups["id"] / lookups["int"],
        "count_n_over_count_star": queries["count(n)"] / queries["count(*)"],
        "grouped_topk_row_over_batch": (
            queries["grouped row"] / queries["grouped batch"]
        ),
    }
    table_report(
        "P7 — no Python call per value (min of interleaved samples)",
        ["pin", "measured", "bound"],
        [
            ("8,000 lookups, NodeId key / int key",
             "%.2fx" % ratios["id_over_int_lookup"], "<= 2x"),
            ("batch count(n) / count(*), 5,000 filtered rows",
             "%.2fx" % ratios["count_n_over_count_star"], "<= 1.3x"),
            ("grouped count + top-k, row / batch",
             "%.2fx" % ratios["grouped_topk_row_over_batch"], ">= 2x"),
        ],
    )
    pipeline_record("pipelines", "p7_column_kernels", {
        name: round(value, 2) for name, value in ratios.items()
    })
    assert ratios["id_over_int_lookup"] <= 2.0
    assert ratios["count_n_over_count_star"] <= 1.3
    assert ratios["grouped_topk_row_over_batch"] >= 2.0


def test_p7_self_keyed_columns_make_no_key_calls(monkeypatch):
    """A grouped count under a top-k over an all-str or all-int key calls
    neither ``sort_key`` nor ``canonical_key``: those values are their
    own grouping keys and order by themselves.  A mixed column still
    calls both, once per value."""
    import repro.planner.batch as batch
    import repro.values.ordering as ordering

    calls = {"sort_key": 0, "canonical_key": 0}

    def counted(name, function):
        def wrapper(value):
            calls[name] += 1
            return function(value)
        return wrapper

    for module in (batch, ordering):
        for name in calls:
            monkeypatch.setattr(
                module, name, counted(name, getattr(ordering, name))
            )

    graph = MemoryGraph()
    for index in range(2000):
        graph.create_node(("Item",), {
            "i": (index * 7) % 97,
            "s": "k%d" % ((index * 7) % 97),
            "mixed": index % 5 if index % 2 else float(index % 5),
        })
    engine = CypherEngine(graph)
    made = {}
    for key in ("s", "i", "mixed"):
        query = (
            "MATCH (n:Item) RETURN n.%s AS k, count(*) AS c "
            "ORDER BY c DESC, k LIMIT 10" % key
        )
        engine.run(query, mode="batch")  # plan and compile outside the count
        calls.update(sort_key=0, canonical_key=0)
        result = engine.run(query, mode="batch")
        assert result.execution_mode == "batch"
        made[key] = dict(calls)
    assert made["s"] == made["i"] == {"sort_key": 0, "canonical_key": 0}
    assert made["mixed"]["canonical_key"] >= 2000, made
    assert made["mixed"]["sort_key"] > 0, made


def test_p7_scans_hand_out_columns(table_report, pipeline_record):
    """Two cheap pins on the per-value paths the aligned columns replaced.

    A warm whole-label scan's ``n.v >= $x`` slices the store's
    label-aligned column and compares it in C, against the same query
    with the column cache dropped before each run (a gather per run);
    a one-type, one-direction ``expand_batch`` over sources with one
    such edge each chains the segmented adjacency in C, against the
    guarded per-source loop (``types=None`` reaches the same edges).
    Bounds sit under what a shared host measured (1.53-1.61x and
    1.22-1.27x over five runs); with either fast path gone the ratio is
    1.0x and below 1.0x respectively.

    The Filter hands its selection over the scan's own columns, so
    ``sum(n.v)`` above it reads the column the Filter already sliced
    and gathers it by the selection: the same query measured warm and
    with the cache dropped (1.49-1.50x on a 2-CPU host), and — the
    exact half of the pin — not one per-node property read in the warm
    run (a Filter that copies, or an Aggregate that gathers before it
    reads, makes 32: one bulk read per morsel).
    """
    graph = MemoryGraph()
    for index in range(8000):
        graph.create_node(("L",), {"v": index % 100})
    per_node_reads = [0]
    node_property_column = graph.node_property_column

    def counted_reads(node_ids, key):
        per_node_reads[0] += 1
        return node_property_column(node_ids, key)

    graph.node_property_column = counted_reads
    engine = CypherEngine(graph)
    query = "MATCH (n:L) WHERE n.v >= $x RETURN count(n) AS c"
    summed = "MATCH (n:L) WHERE n.v >= $x RETURN sum(n.v) AS s"

    def warm(text=query):
        return engine.run(text, {"x": 50}, mode="batch")

    def cold(text=query):
        graph._column_cache.clear()
        return engine.run(text, {"x": 50}, mode="batch")

    assert warm().records == cold().records == [{"c": 4000}]
    assert warm(summed).records == cold(summed).records == [{"s": 298000}]
    per_node_reads[0] = 0
    warm(summed)
    assert per_node_reads[0] == 0, "the selection lost the aligned read"
    scans = _interleaved_min({
        "warm": warm, "cold": cold,
        "sum_warm": lambda: warm(summed), "sum_cold": lambda: cold(summed),
    })

    tree = MemoryGraph()
    sources = [tree.create_node(("S",), {}) for _ in range(1340)]
    target = tree.create_node(("T",), {})
    for source in sources:
        tree.create_relationship(source, target, "T")
    typed = ("T",)
    assert tree.expand_batch(sources, "out", typed) == tree.expand_batch(
        sources, "out", None
    )
    expands = _interleaved_min({
        "typed": lambda: tree.expand_batch(sources, "out", typed),
        "guarded": lambda: tree.expand_batch(sources, "out", None),
    }, inner=10)
    ratios = {
        "column_cache_cold_over_warm": scans["cold"] / scans["warm"],
        "sum_column_cache_cold_over_warm": (
            scans["sum_cold"] / scans["sum_warm"]
        ),
        "expand_guarded_over_typed": expands["guarded"] / expands["typed"],
    }
    table_report(
        "P7 — scans hand out columns (min of interleaved samples)",
        ["pin", "measured", "bound"],
        [
            ("8,000-node n.v >= $x count, cache dropped / warm",
             "%.2fx (%.0f / %.0f µs)" % (
                 ratios["column_cache_cold_over_warm"],
                 scans["cold"] * 1e6, scans["warm"] * 1e6,
             ), ">= 1.3x"),
            ("filtered sum(n.v) over the same scan, cache dropped / warm",
             "%.2fx (%.0f / %.0f µs)" % (
                 ratios["sum_column_cache_cold_over_warm"],
                 scans["sum_cold"] * 1e6, scans["sum_warm"] * 1e6,
             ), ">= 1.3x"),
            ("expand_batch over 1,340 one-edge sources, guarded / typed",
             "%.2fx (%.0f / %.0f µs)" % (
                 ratios["expand_guarded_over_typed"],
                 expands["guarded"] * 1e6, expands["typed"] * 1e6,
             ), ">= 1.1x"),
        ],
    )
    pipeline_record("pipelines", "p7_aligned_columns", {
        name: round(value, 2) for name, value in ratios.items()
    })
    assert ratios["column_cache_cold_over_warm"] >= 1.3
    assert ratios["sum_column_cache_cold_over_warm"] >= 1.3
    assert ratios["expand_guarded_over_typed"] >= 1.1


@pytest.mark.parametrize("mode", ["batch", "row"])
def test_p7_scan_filter_benchmark(benchmark, mode):
    engine = CypherEngine(build_graph())
    result = benchmark(
        engine.run, PINNED_WORKLOADS[0][1], mode=mode
    )
    assert result.value("c") == 10000


@pytest.mark.parametrize("mode", ["batch", "row"])
def test_p7_expand_benchmark(benchmark, mode):
    engine = CypherEngine(build_graph())
    result = benchmark(engine.run, PINNED_WORKLOADS[1][1], mode=mode)
    assert result.value("c") == 4000


@pytest.mark.parametrize("mode", ["batch", "row"])
def test_p7_grouped_aggregate_benchmark(benchmark, mode):
    engine = CypherEngine(build_graph())
    result = benchmark(engine.run, PINNED_WORKLOADS[3][1], mode=mode)
    assert len(result) == 16
