"""Property indexes: store maintenance, cost model, pushdown, profiling.

Four layers, mirroring the subsystem's vertical slice:

* **store** — `_PropertyIndex` content under every mutation path
  (creates, bulk creates, SET/REMOVE/merge/replace, label changes,
  deletes, transactions), probe semantics on the nasty values (NaN,
  int-vs-float buckets, mixed-type segments, unsupported range bounds),
  and clone behaviour;
* **statistics / cost** — NDV and entry counters flowing into
  selectivities, including the regression test for the stale-selectivity
  bug class: the chosen entry point must flip when NDV does;
* **planner** — which predicates are sargable, which WHEREs are vetoed
  by the infallibility gate, and what the residual keeps;
* **engines** — profiled access paths (estimated vs actual rows) on row
  and batch execution, plan-cache interplay with ``create_index``, and
  the ColumnCompiler's memoised property-column reads.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CypherEngine
from repro.graph.statistics import GraphStatistics
from repro.graph.store import MemoryGraph, _PropertyIndex
from repro.planner import logical as lg
from repro.planner.cost import CostModel, PROPERTY_SELECTIVITY
from repro.planner.planning import plan_depends_on_statistics
from repro.values.base import NodeId


def entry_operator(plan):
    """The scan at the bottom of the plan (child of Init/Argument)."""
    op = plan
    while True:
        children = op._children()
        if not children:
            return None
        child = children[0]
        if isinstance(child, (lg.Init, lg.Argument)):
            return op
        op = child


def plan_operators(plan):
    stack = [plan]
    while stack:
        op = stack.pop()
        yield op
        stack.extend(op._children())


def small_graph():
    graph = MemoryGraph()
    for i in range(12):
        graph.create_node(
            ("L",), {"v": i % 4, "name": "n%02d" % i}
        )
    return graph


# ---------------------------------------------------------------------------
# Store maintenance
# ---------------------------------------------------------------------------

#: Column values for the warm-memo differential: all three sorted
#: segments, int/float bucket sharing, NaN, an unsegmented list, null.
_memo_values = st.sampled_from(
    [0, 1, 1.0, 2, -3, 2.5, "a", "ab", "b", "", True, False,
     float("nan"), [1], None]
)
_memo_steps = st.tuples(
    st.sampled_from(["update", "bulk", "discard"]),
    st.builds(NodeId, st.integers(min_value=1, max_value=8)),
    st.fixed_dictionaries({"a": _memo_values, "b": _memo_values}),
)


def _assert_probes_match_rebuild(index, state):
    """Every sorted-half probe of ``index`` equals a fresh build's."""
    rebuilt = _PropertyIndex(index.label, index.keys)
    for node, properties in sorted(
        state.items(), key=lambda item: item[0].value
    ):
        rebuilt.update(node, properties)
    assert index.snapshot() == rebuilt.snapshot()
    prefixes = [()]
    if index.depth > 1:
        prefixes += [(1,), ("a",), (True,), (float("nan"),), ([1],), (9,)]
    for prefix in prefixes:
        for bounds in ((0, True, None, True), (None, True, 2, False),
                       ("a", False, None, True), (False, True, True, True)):
            assert index.range_ids(*bounds, prefix) == rebuilt.range_ids(
                *bounds, prefix
            )
        assert index.prefix_ids("a", prefix) == rebuilt.prefix_ids(
            "a", prefix
        )
        remaining = index.depth - len(prefix)
        for directions in ((True,), (False,), (True, False), (False, True)):
            if len(directions) <= remaining:
                assert list(index.ordered_ids(prefix, directions)) == list(
                    rebuilt.ordered_ids(prefix, directions)
                )
        assert list(
            index.ordered_ids(prefix, (False,), low=0, high=2)
        ) == list(rebuilt.ordered_ids(prefix, (False,), low=0, high=2))



class TestStoreMaintenance:
    def test_create_index_builds_from_existing_data(self):
        graph = small_graph()
        assert graph.create_index("L", "v") is True
        assert graph.create_index("L", "v") is False  # idempotent
        assert graph.has_index("L", "v")
        assert graph.indexes() == [("L", "v")]
        assert graph.index_statistics() == {("L", "v"): (4, 12)}

    def test_bulk_build_equals_incremental_maintenance(self):
        """create_index after the data (one-sort bulk build) must equal
        create_index before the data (per-write incremental adds)."""
        values = [3, 1, "b", "a", True, 2, 1.0, float("nan"), [1], 1]
        incremental = MemoryGraph()
        incremental.create_index("L", "v")
        bulk = MemoryGraph()
        for value in values:
            incremental.create_node(("L",), {"v": value})
            bulk.create_node(("L",), {"v": value})
        bulk.create_index("L", "v")
        assert bulk.index_snapshot("L", "v") == incremental.index_snapshot(
            "L", "v"
        )
        assert bulk.index_statistics() == incremental.index_statistics()
        probe = ("L", "v", (), 0, True, None, True)
        assert bulk.index_seek_range(*probe) == (
            incremental.index_seek_range(*probe)
        )

    def test_drop_index(self):
        graph = small_graph()
        graph.create_index("L", "v")
        version = graph.version
        assert graph.drop_index("L", "v") is True
        assert graph.drop_index("L", "v") is False
        assert not graph.has_index("L", "v")
        assert graph.version > version

    def test_bad_index_spec_rejected(self):
        graph = MemoryGraph()
        with pytest.raises(ValueError):
            graph.create_index("", "v")
        with pytest.raises(ValueError):
            graph.create_index("L", 3)

    def test_creates_update_entries(self):
        graph = MemoryGraph()
        graph.create_index("L", "v")
        node = graph.create_node(("L",), {"v": 7})
        assert graph.index_lookup("L", "v", 7) == [node]
        other = graph.create_node(("M",), {"v": 7})  # different label
        assert graph.index_lookup("L", "v", 7) == [node]
        bare = graph.create_node(("L",), {})  # no value: no entry
        assert graph.index_statistics()[("L", "v")] == (1, 1)
        assert other != bare

    def test_set_remove_and_null_set_update_entries(self):
        graph = MemoryGraph()
        graph.create_index("L", "v")
        node = graph.create_node(("L",), {"v": 1})
        graph.set_property(node, "v", 2)
        assert graph.index_lookup("L", "v", 1) == []
        assert graph.index_lookup("L", "v", 2) == [node]
        graph.set_property(node, "v", None)  # null removes
        assert graph.index_lookup("L", "v", 2) == []
        graph.set_property(node, "v", 3)
        graph.remove_property(node, "v")
        assert graph.index_statistics()[("L", "v")] == (0, 0)

    def test_replace_and_merge_properties_update_entries(self):
        graph = MemoryGraph()
        graph.create_index("L", "v")
        graph.create_index("L", "w")
        node = graph.create_node(("L",), {"v": 1, "w": 1})
        graph.replace_properties(node, {"v": 5})
        assert graph.index_lookup("L", "v", 5) == [node]
        assert graph.index_statistics()[("L", "w")] == (0, 0)
        graph.merge_properties(node, {"w": 9, "v": None})
        assert graph.index_lookup("L", "w", 9) == [node]
        assert graph.index_statistics()[("L", "v")] == (0, 0)

    def test_failed_replace_leaves_map_and_index_untouched(self):
        """A rejected SET n = {map} must not desynchronise the index:
        validation happens before the old map is cleared."""
        graph = MemoryGraph()
        graph.create_index("L", "v")
        node = graph.create_node(("L",), {"v": 1})
        with pytest.raises(ValueError):
            graph.replace_properties(node, {"v": object()})
        assert graph.properties(node) == {"v": 1}
        assert graph.index_lookup("L", "v", 1) == [node]
        assert graph.index_snapshot("L", "v") == graph.copy().index_snapshot(
            "L", "v"
        )

    def test_sorted_bucket_cache_tracks_mutations(self):
        """Repeated probes reuse the sorted bucket; writes invalidate it."""
        graph = MemoryGraph()
        graph.create_index("L", "v")
        first = graph.create_node(("L",), {"v": 1})
        assert graph.index_lookup("L", "v", 1) == [first]
        assert graph.index_lookup("L", "v", 1) is graph.index_lookup(
            "L", "v", 1
        )  # memoised between writes
        second = graph.create_node(("L",), {"v": 1})
        assert graph.index_lookup("L", "v", 1) == [first, second]
        graph.delete_node(first)
        assert graph.index_lookup("L", "v", 1) == [second]

    @settings(max_examples=60, deadline=None)
    @given(script=st.lists(_memo_steps, min_size=1, max_size=30))
    def test_warm_memos_track_every_write_like_a_rebuild(self, script):
        """Maintenance ≡ rebuild with the sorted-half memos *warm*.

        The range/prefix/ordered memos are kept in order in place, so
        after every write each probe kind must answer exactly as an
        index built from scratch over the same entries does.
        """
        single = _PropertyIndex("L", ("a",))
        composite = _PropertyIndex("L", ("a", "b"))
        state = {}
        for index in (single, composite):
            _assert_probes_match_rebuild(index, state)  # warms the memos
        for kind, node, properties in script:
            if kind == "discard":
                state.pop(node, None)
                single.discard(node)
                composite.discard(node)
            elif kind == "bulk":
                state[node] = properties
                single.update_bulk([(node, properties)])
                composite.update_bulk([(node, properties)])
            else:
                state[node] = properties
                single.update(node, properties)
                composite.update(node, properties)
            for index in (single, composite):
                _assert_probes_match_rebuild(index, state)

    def test_label_changes_move_entries(self):
        graph = MemoryGraph()
        graph.create_index("L", "v")
        node = graph.create_node(("M",), {"v": 1})
        graph.add_label(node, "L")
        assert graph.index_lookup("L", "v", 1) == [node]
        graph.add_label(node, "L")  # re-adding must not double-count
        assert graph.index_statistics()[("L", "v")] == (1, 1)
        graph.remove_label(node, "L")
        assert graph.index_lookup("L", "v", 1) == []
        graph.remove_label(node, "L")  # idempotent
        assert graph.index_statistics()[("L", "v")] == (0, 0)

    def test_delete_node_removes_entries(self):
        graph = MemoryGraph()
        graph.create_index("L", "v")
        node = graph.create_node(("L",), {"v": 1})
        keep = graph.create_node(("L",), {"v": 1})
        graph.delete_node(node)
        assert graph.index_lookup("L", "v", 1) == [keep]

    def test_transaction_bulk_create_maintains_entries(self):
        graph = MemoryGraph()
        graph.create_index("L", "v")
        transaction = graph.write_transaction()
        created = transaction.create_nodes(
            ("L",), [{"v": 1}, {"v": 2}, {"v": 1}]
        )
        # Visible inside the transaction (MERGE reads mid-statement).
        assert graph.index_lookup("L", "v", 1) == [created[0], created[2]]
        transaction.commit()
        assert graph.index_statistics()[("L", "v")] == (2, 3)

    def test_transaction_deferred_delete_updates_on_flush(self):
        graph = MemoryGraph()
        graph.create_index("L", "v")
        node = graph.create_node(("L",), {"v": 1})
        transaction = graph.write_transaction()
        transaction.delete_node(node, detach=True)
        assert graph.index_lookup("L", "v", 1) == [node]  # still buffered
        transaction.commit()
        assert graph.index_lookup("L", "v", 1) == []

    def test_adopt_node_indexes_entries(self):
        from repro.values.base import NodeId

        graph = MemoryGraph()
        graph.create_index("L", "v")
        graph.adopt_node(NodeId(41), ("L",), {"v": 6})
        assert graph.index_lookup("L", "v", 6) == [NodeId(41)]

    def test_copy_preserves_indexes(self):
        graph = small_graph()
        graph.create_index("L", "v")
        clone = graph.copy()
        assert clone.indexes() == [("L", "v")]
        assert clone.index_snapshot("L", "v") == graph.index_snapshot(
            "L", "v"
        )


class TestProbeSemantics:
    def test_lookup_null_and_nan_match_nothing(self):
        graph = MemoryGraph()
        graph.create_index("L", "v")
        graph.create_node(("L",), {"v": float("nan")})
        assert graph.index_lookup("L", "v", None) == []
        assert graph.index_lookup("L", "v", float("nan")) == []
        assert graph.index_lookup_many("L", "v", [None, float("nan")]) == []

    def test_int_and_float_share_buckets(self):
        graph = MemoryGraph()
        graph.create_index("L", "v")
        a = graph.create_node(("L",), {"v": 1})
        b = graph.create_node(("L",), {"v": 1.0})
        assert graph.index_lookup("L", "v", 1) == [a, b]
        assert graph.index_lookup("L", "v", 1.0) == [a, b]
        assert graph.index_statistics()[("L", "v")] == (1, 2)

    def test_range_segments_are_type_separated(self):
        graph = MemoryGraph()
        graph.create_index("L", "v")
        nodes = {}
        for value in (3, 7, "a", "b", True, False):
            nodes[value] = graph.create_node(("L",), {"v": value})
        assert graph.index_seek_range(
            "L", "v", (), 4, True, None, True
        ) == [nodes[7]]
        assert graph.index_seek_range(
            "L", "v", (), "a", False, None, True
        ) == [nodes["b"]]
        assert graph.index_seek_range(
            "L", "v", (), False, False, None, True
        ) == [nodes[True]]
        # bool bounds never see numbers, and vice versa
        assert nodes[3] not in graph.index_seek_range(
            "L", "v", (), False, True, None, True
        )

    def test_range_unsupported_bound_reports_none(self):
        graph = MemoryGraph()
        graph.create_index("L", "v")
        graph.create_node(("L",), {"v": [1, 2]})
        assert graph.index_seek_range(
            "L", "v", (), [1], True, None, True
        ) is None

    def test_range_nan_or_conflicting_bounds_match_nothing(self):
        graph = MemoryGraph()
        graph.create_index("L", "v")
        graph.create_node(("L",), {"v": 5})
        assert graph.index_seek_range(
            "L", "v", (), float("nan"), True, None, True
        ) == []
        assert graph.index_seek_range(
            "L", "v", (), 1, True, "z", True
        ) == []

    def test_range_is_value_then_id_ordered(self):
        graph = MemoryGraph()
        graph.create_index("L", "v")
        c = graph.create_node(("L",), {"v": 2})
        a = graph.create_node(("L",), {"v": 1})
        b = graph.create_node(("L",), {"v": 1})
        assert graph.index_seek_range(
            "L", "v", (), 0, True, None, True
        ) == [a, b, c]

    def test_prefix_probe(self):
        graph = MemoryGraph()
        graph.create_index("L", "name")
        ab = graph.create_node(("L",), {"name": "ab"})
        b = graph.create_node(("L",), {"name": "b"})
        abc = graph.create_node(("L",), {"name": "abc"})
        graph.create_node(("L",), {"name": 5})

        def starting(prefix):
            return graph.index_seek_range(
                "L", "name", (), None, True, None, True, prefix
            )

        assert starting("ab") == [ab, abc]
        # the empty prefix matches every string, never the number
        assert starting("") == [ab, abc, b]
        assert starting(7) == []


# ---------------------------------------------------------------------------
# Statistics and the cost model
# ---------------------------------------------------------------------------


class TestStatisticsAndCost:
    def test_statistics_expose_ndv_and_entries(self):
        graph = small_graph()
        graph.create_index("L", "v")
        statistics = GraphStatistics(graph)
        assert statistics.has_property_index("L", "v")
        assert statistics.property_ndv("L", "v") == 4
        assert statistics.indexed_entries("L", "v") == 12
        assert statistics.property_ndv("L", "missing") is None

    def test_equality_selectivity_uses_ndv_with_fallback(self):
        graph = small_graph()
        graph.create_index("L", "v")
        model = CostModel(graph)
        assert model.equality_selectivity(("L",), "v") == 0.25
        assert (
            model.equality_selectivity(("L",), "name")
            == PROPERTY_SELECTIVITY
        )
        assert (
            model.equality_selectivity((), "v") == PROPERTY_SELECTIVITY
        )

    def test_entry_point_flips_when_ndv_changes(self):
        """The stale-selectivity regression: same query, NDV decides.

        With a highly selective index (NDV == label count) the planner
        must enter through ``a``'s index seek; after the data degrades to
        two distinct values the index estimate exceeds |M| and the entry
        point must flip to ``b``'s label scan.
        """
        query = "MATCH (a:L)-[:T]->(b:M) WHERE a.k = 5 RETURN count(*) AS c"

        selective = MemoryGraph()
        for i in range(200):
            selective.create_node(("L",), {"k": i})
        for i in range(20):
            selective.create_node(("M",), {})
        selective.create_index("L", "k")
        entry = entry_operator(
            CypherEngine(selective).run(query, mode="row").plan
        )
        assert isinstance(entry, lg.IndexScan)
        assert entry.variable == "a"

        degraded = MemoryGraph()
        for i in range(200):
            degraded.create_node(("L",), {"k": i % 2})
        for i in range(20):
            degraded.create_node(("M",), {})
        degraded.create_index("L", "k")
        entry = entry_operator(
            CypherEngine(degraded).run(query, mode="row").plan
        )
        assert isinstance(entry, lg.NodeByLabelScan)
        assert entry.variable == "b"

    def test_empty_in_list_estimates_zero_rows(self):
        graph = small_graph()
        graph.create_index("L", "v")
        from repro.planner.access import Sargable

        model = CostModel(graph)
        empty = Sargable("n", "v", "in", size_hint=0)
        assert model.index_entry_estimate("L", "v", empty) == 0.0
        assert model.sargable_selectivity(("L",), empty) == 0.0

    def test_index_scan_estimates_recorded_on_plan(self):
        graph = small_graph()
        graph.create_index("L", "v")
        result = CypherEngine(graph).run(
            "MATCH (n:L) WHERE n.v = 1 RETURN count(*) AS c"
        )
        entry = entry_operator(result.plan)
        assert isinstance(entry, lg.IndexScan)
        assert entry.estimated_rows == pytest.approx(3.0)
        assert "est≈3" in result.plan.describe()


# ---------------------------------------------------------------------------
# Planner: what is pushed down, what is vetoed
# ---------------------------------------------------------------------------


class TestPushdownChoices:
    def run_plan(self, graph, query):
        return CypherEngine(graph).run(query, mode="row").plan

    def indexed_graph(self):
        graph = small_graph()
        graph.create_index("L", "v")
        graph.create_index("L", "name")
        return graph

    def test_equality_where_uses_index_and_keeps_filter(self):
        plan = self.run_plan(
            self.indexed_graph(),
            "MATCH (n:L) WHERE n.v = 1 RETURN count(*) AS c",
        )
        kinds = [type(op) for op in plan_operators(plan)]
        assert lg.IndexScan in kinds
        assert lg.Filter in kinds  # the residual stays

    def test_inline_property_map_uses_index_without_filter(self):
        plan = self.run_plan(
            self.indexed_graph(),
            "MATCH (n:L {v: 1}) RETURN count(*) AS c",
        )
        entry = entry_operator(plan)
        assert isinstance(entry, lg.IndexScan)
        # the node check re-verifies the map; no Filter operator exists
        assert lg.Filter not in {type(op) for op in plan_operators(plan)}

    def test_anonymous_inline_map_uses_index(self):
        plan = self.run_plan(
            self.indexed_graph(),
            "MATCH (:L {v: 2})-[:T]->(b) RETURN count(*) AS c",
        )
        assert isinstance(entry_operator(plan), lg.IndexScan)

    def test_range_conjuncts_merge_into_one_bounded_scan(self):
        plan = self.run_plan(
            self.indexed_graph(),
            "MATCH (n:L) WHERE n.v >= 1 AND n.v < 3 RETURN count(*) AS c",
        )
        entry = entry_operator(plan)
        assert isinstance(entry, lg.IndexRangeScan)
        assert entry.low is not None and entry.high is not None
        assert entry.low_inclusive and not entry.high_inclusive

    def test_prefix_predicate_uses_range_scan(self):
        plan = self.run_plan(
            self.indexed_graph(),
            "MATCH (n:L) WHERE n.name STARTS WITH 'n0' RETURN count(*) AS c",
        )
        entry = entry_operator(plan)
        assert isinstance(entry, lg.IndexRangeScan)
        assert entry.prefix is not None

    def test_in_predicate_uses_many_probe(self):
        plan = self.run_plan(
            self.indexed_graph(),
            "MATCH (n:L) WHERE n.v IN [1, 2] RETURN count(*) AS c",
        )
        entry = entry_operator(plan)
        assert isinstance(entry, lg.IndexScan)
        assert entry.many

    def test_equality_beats_range_when_both_available(self):
        plan = self.run_plan(
            self.indexed_graph(),
            "MATCH (n:L) WHERE n.v = 1 AND n.name >= 'n' "
            "RETURN count(*) AS c",
        )
        entry = entry_operator(plan)
        assert isinstance(entry, lg.IndexScan)
        assert entry.index_keys == ("v",)

    def test_no_index_means_label_scan(self):
        plan = self.run_plan(
            small_graph(), "MATCH (n:L) WHERE n.v = 1 RETURN count(*) AS c"
        )
        assert isinstance(entry_operator(plan), lg.NodeByLabelScan)

    def test_fallible_where_vetoes_pushdown(self):
        """A conjunct that can raise per row keeps the label scan: the
        index would skip rows whose evaluation the reference performs."""
        for query in [
            "MATCH (n:L) WHERE n.v = 1 AND 1 / n.v > 0 RETURN count(*) AS c",
            "MATCH (n:L) WHERE n.v = size([n.name]) RETURN count(*) AS c",
            "MATCH (n:L) WHERE n.v = toInteger('1') RETURN count(*) AS c",
        ]:
            plan = self.run_plan(self.indexed_graph(), query)
            assert isinstance(
                entry_operator(plan), lg.NodeByLabelScan
            ), query

    def test_in_over_non_literal_container_vetoes_pushdown(self):
        """``IN $p`` can raise per row (non-list container), so any WHERE
        containing it must keep the label scan — pruning rows through a
        sibling conjunct's index would suppress that error."""
        import pytest as _pytest

        from repro.exceptions import CypherTypeError

        graph = MemoryGraph()
        graph.create_index("A", "v")
        graph.create_node(("A",), {"v": 5, "w": 1})
        graph.create_node(("A",), {"w": 2})  # v missing: null = 1 is unknown
        engine = CypherEngine(graph)
        query = "MATCH (a:A) WHERE a.v = 1 AND a.w IN $p RETURN count(*) AS c"
        result = engine.run(query, parameters={"p": [1]}, mode="row")
        assert isinstance(entry_operator(result.plan), lg.NodeByLabelScan)
        for mode in ("interpreter", "row", "batch"):
            with _pytest.raises(CypherTypeError):
                engine.run(query, parameters={"p": "not-a-list"}, mode=mode)

    def test_in_over_list_literal_still_pushes_down(self):
        plan = self.run_plan(
            self.indexed_graph(),
            "MATCH (n:L) WHERE n.v = 1 AND n.v IN [1, 2] "
            "RETURN count(*) AS c",
        )
        assert isinstance(entry_operator(plan), lg.IndexScan)

    def test_probe_reading_the_scan_variable_is_rejected(self):
        plan = self.run_plan(
            self.indexed_graph(),
            "MATCH (n:L) WHERE n.v = n.v RETURN count(*) AS c",
        )
        assert isinstance(entry_operator(plan), lg.NodeByLabelScan)

    def test_outer_probe_makes_nested_loop_join(self):
        graph = self.indexed_graph()
        plan = self.run_plan(
            graph,
            "MATCH (a:L) WHERE a.v = 0 MATCH (b:L) WHERE b.name = a.name "
            "RETURN count(*) AS c",
        )
        scans = [
            op for op in plan_operators(plan) if isinstance(op, lg.IndexScan)
        ]
        assert {scan.variable for scan in scans} == {"a", "b"}

    def test_index_plans_are_statistics_sensitive(self):
        graph = self.indexed_graph()
        plan = self.run_plan(
            graph, "MATCH (n:L) WHERE n.v = 1 RETURN count(*) AS c"
        )
        assert plan_depends_on_statistics(plan)

    def test_parameter_probe_is_sargable(self):
        graph = self.indexed_graph()
        engine = CypherEngine(graph)
        result = engine.run(
            "MATCH (n:L) WHERE n.v = $x RETURN count(*) AS c",
            parameters={"x": 2},
        )
        assert isinstance(entry_operator(result.plan), lg.IndexScan)
        assert result.value("c") == 3


# ---------------------------------------------------------------------------
# Engines: profiling, plan cache, column caching
# ---------------------------------------------------------------------------


class CountingGraph(MemoryGraph):
    """MemoryGraph counting bulk property-column reads, by door.

    ``bulk_reads`` is every column the compiled reader asked the store
    for: ``gathers`` through :meth:`node_property_column` (a read per
    node) plus ``slices`` through :meth:`label_property_column` (the
    label-aligned column a whole-label scan's morsel is a slice of).
    """

    def __init__(self):
        super().__init__()
        self.gathers = 0
        self.slices = 0

    @property
    def bulk_reads(self):
        return self.gathers + self.slices

    def node_property_column(self, node_ids, key):
        self.gathers += 1
        return super().node_property_column(node_ids, key)

    def label_property_column(self, label, key, ids):
        self.slices += 1
        return super().label_property_column(label, key, ids)


class TestEngineObservability:
    def profiled(self, mode):
        graph = small_graph()
        graph.create_index("L", "v")
        engine = CypherEngine(graph)
        return engine.run(
            "MATCH (n:L) WHERE n.v = 1 RETURN count(*) AS c",
            mode=mode,
            profile=True,
        )

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_profile_reports_estimated_vs_actual(self, mode):
        result = self.profiled(mode)
        assert result.execution_mode == mode
        (record,) = result.access_paths
        assert record["operator"] == "IndexScan"
        assert record["entry"] == "index seek :L(v)"
        assert record["estimated_rows"] == pytest.approx(3.0)
        assert record["actual_rows"] == 3

    def test_unprofiled_runs_carry_no_access_paths(self):
        graph = small_graph()
        result = CypherEngine(graph).run("MATCH (n:L) RETURN count(*) AS c")
        assert result.access_paths is None

    def test_profile_covers_label_scans_too(self):
        graph = small_graph()
        result = CypherEngine(graph).run(
            "MATCH (n:L) WHERE n.v = 1 RETURN count(*) AS c", profile=True
        )
        (record,) = result.access_paths
        assert record["entry"] == "label scan :L"
        assert record["actual_rows"] == 12

    @pytest.mark.smoke
    def test_create_index_invalidates_cached_plans(self):
        graph = small_graph()
        engine = CypherEngine(graph)
        query = "MATCH (n:L) WHERE n.v = 1 RETURN count(*) AS c"
        before = engine.run(query)
        assert isinstance(entry_operator(before.plan), lg.NodeByLabelScan)
        engine.create_index("L", "v")
        after = engine.run(query)
        assert isinstance(entry_operator(after.plan), lg.IndexScan)
        assert engine.drop_index("L", "v") is True

    def test_update_plans_survive_their_commit_on_indexed_graphs(self):
        graph = small_graph()
        graph.create_index("L", "v")
        engine = CypherEngine(graph)
        update = "MATCH (n:L) WHERE n.v = 1 SET n.touched = true"
        engine.run(update)
        hits = engine.plan_cache_hits
        engine.run(update)
        assert engine.plan_cache_hits == hits + 1

    def test_index_backed_update_leaves_consistent_index(self):
        graph = small_graph()
        graph.create_index("L", "v")
        engine = CypherEngine(graph)
        engine.run("MATCH (n:L) WHERE n.v = 1 SET n.v = 100")
        assert engine.run(
            "MATCH (n:L) WHERE n.v = 100 RETURN count(*) AS c"
        ).value("c") == 3
        rebuilt = graph.copy()
        assert graph.index_snapshot("L", "v") == rebuilt.index_snapshot(
            "L", "v"
        )


class TestColumnPropertyCaching:
    def counting_engine(self, nodes=100):
        graph = CountingGraph()
        for i in range(nodes):
            graph.create_node(("L",), {"v": i})
        return graph, CypherEngine(graph)

    def test_repeated_reads_share_one_bulk_access(self):
        graph, engine = self.counting_engine()
        engine.run(
            "MATCH (n:L) WHERE n.v >= 0 "
            "RETURN n.v AS a, n.v + n.v AS b",
            mode="batch",
        )
        # filter + three projection occurrences, one store read (one
        # morsel): the memoised reader is shared structurally.  The
        # morsel is the label scan's own, so the one read is a slice.
        assert graph.bulk_reads == 1
        assert (graph.slices, graph.gathers) == (1, 0)

    def test_cache_is_per_morsel(self):
        from repro.planner.batch import DEFAULT_MORSEL_SIZE

        graph, engine = self.counting_engine(DEFAULT_MORSEL_SIZE + 10)
        engine.run(
            "MATCH (n:L) RETURN n.v AS a, n.v AS b", mode="batch"
        )
        assert graph.bulk_reads == 2  # one per morsel, not per item
        assert (graph.slices, graph.gathers) == (2, 0)

    def test_cache_never_leaks_across_filtered_columns(self):
        graph, engine = self.counting_engine(50)
        result = engine.run(
            "MATCH (n:L) WHERE n.v >= 25 RETURN n.v AS v ORDER BY v",
            mode="batch",
        )
        assert result.values("v") == list(range(25, 50))
        assert graph.bulk_reads == 2  # pre-filter column + selected column
        # ... and the selected column is a gather over its own 25 ids,
        # never a slice of (or the memo of) the scan's 50.
        assert (graph.slices, graph.gathers) == (1, 1)
