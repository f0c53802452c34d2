"""Differential harness with property indexes enabled.

The access-path contract: declaring an index may change *how* rows are
found, never *which* rows.  Every generated sargable query therefore
runs six ways — interpreter / row / batch, each over the plain fixture
graph and over the identically-populated :data:`fuzztools.INDEXED_GRAPH`
— and all six must agree as bags, with no read falling back to the
interpreter.  Updating queries run on indexed clones through all three
executors and must leave byte-identical stores *and* indexes that match
a from-scratch rebuild (the incremental-maintenance-vs-rebuild check of
Berkholz et al.'s "answering queries under updates" regime: maintenance
is only worth having if nobody can tell it from recomputation).
"""

from itertools import product

import pytest
from hypothesis import given, settings

from repro import CypherEngine
from repro.planner import logical as lg
from repro.planner.batch import plan_supports_batch
from repro.temporal.types import Date

from fuzztools import (
    COMPOSITE_INDEXED_GRAPH,
    GRAPH,
    INDEXED_GRAPH,
    assert_indexes_consistent,
    composite_indexed_fixture_graph,
    graph_state,
    indexed_fixture_graph,
    indexed_update_queries,
    match_queries,
    sargable_queries,
)


def _plan_operators(plan):
    stack = [plan]
    while stack:
        op = stack.pop()
        yield op
        stack.extend(op._children())


def _assert_read_agreement(query, graph):
    engine = CypherEngine(graph)
    interpreted = engine.run(query, mode="interpreter")
    row = engine.run(query, mode="row")
    batch = engine.run(query, mode="batch")
    assert row.executed_by == "planner", query
    assert row.execution_mode == "row", query
    assert batch.executed_by == "planner", query
    if plan_supports_batch(batch.plan):
        assert batch.execution_mode == "batch", query
    assert interpreted.table.same_bag(row.table), query
    assert interpreted.table.same_bag(batch.table), query
    return interpreted


class TestSargableReads:
    """Same bags with and without indexes, across all three executors."""

    @settings(max_examples=120, deadline=None)
    @given(query=sargable_queries())
    def test_sargable_with_and_without_indexes(self, query):
        plain = _assert_read_agreement(query, GRAPH)
        indexed = _assert_read_agreement(query, INDEXED_GRAPH)
        assert plain.table.same_bag(indexed.table), (
            "declaring an index changed the results of %r" % query
        )

    @settings(max_examples=60, deadline=None)
    @given(query=match_queries())
    def test_general_match_corpus_on_indexed_graph(self, query):
        plain = _assert_read_agreement(query, GRAPH)
        indexed = _assert_read_agreement(query, INDEXED_GRAPH)
        assert plain.table.same_bag(indexed.table), query


@pytest.mark.smoke
class TestIndexedUpdates:
    """Byte-identical stores and rebuild-identical indexes after updates."""

    @settings(max_examples=100, deadline=None)
    @given(query=indexed_update_queries())
    def test_update_differential_with_indexes(self, query):
        clones = {mode: INDEXED_GRAPH.copy() for mode in
                  ("interpreter", "row", "batch")}
        results = {
            mode: CypherEngine(graph).run(query, mode=mode)
            for mode, graph in clones.items()
        }
        assert results["row"].executed_by == "planner", query
        assert results["batch"].executed_by == "planner", query
        reference = results["interpreter"].table
        reference_state = graph_state(clones["interpreter"])
        for mode in ("row", "batch"):
            assert reference.same_bag(results[mode].table), (query, mode)
            assert reference_state == graph_state(clones[mode]), (query, mode)
        # Incremental maintenance must be indistinguishable from a
        # rebuild, and identical across executors.
        for mode, graph in clones.items():
            assert_indexes_consistent(graph)
        for label, key in clones["interpreter"].indexes():
            reference_index = clones["interpreter"].index_snapshot(label, key)
            for mode in ("row", "batch"):
                assert clones[mode].index_snapshot(label, key) == (
                    reference_index
                ), (query, mode, label, key)


#: Hand-written composite probes: full-tuple equality, prefix-only
#: equality (with and without a witness on the unprobed column),
#: prefix + range, prefix + STARTS WITH, covering projections, and
#: order-provided ORDER BY — the shapes the fuzz corpus is not
#: guaranteed to hit every run.
COMPOSITE_QUERIES = (
    "MATCH (a:A) WHERE a.v = 2 AND a.name = 'node-6' RETURN a.name AS n",
    "MATCH (a:A) WHERE a.v = 0 AND a.name STARTS WITH 'node' "
    "RETURN count(*) AS c",
    "MATCH (a:A) WHERE a.v = 2 RETURN count(*) AS c",
    "MATCH (a:A) WHERE a.v = 2 AND a.name IS NOT NULL RETURN a.name AS n",
    "MATCH (b:B) WHERE b.v = 3 AND b.name >= 'node-0' RETURN b.name AS n",
    "MATCH (c:C) WHERE c.name = 'node-5' AND c.v >= 0 RETURN c.v AS v",
    "MATCH (a:A) WHERE a.v >= 0 AND a.name IS NOT NULL "
    "RETURN a.v AS v, a.name AS n ORDER BY v, n",
    "MATCH (a:A) WHERE a.v = 2 AND a.name IS NOT NULL "
    "RETURN a.name AS n ORDER BY n DESC LIMIT 2",
    "MATCH (a:A) WHERE a.v IN [0, 2] AND a.name IS NOT NULL "
    "RETURN count(*) AS c",
)


class TestCompositeSargableReads:
    """Six-way agreement with composite indexes declared."""

    @settings(max_examples=120, deadline=None)
    @given(query=sargable_queries())
    def test_sargable_with_and_without_composite_indexes(self, query):
        plain = _assert_read_agreement(query, GRAPH)
        indexed = _assert_read_agreement(query, COMPOSITE_INDEXED_GRAPH)
        assert plain.table.same_bag(indexed.table), (
            "declaring a composite index changed the results of %r" % query
        )

    @settings(max_examples=60, deadline=None)
    @given(query=match_queries())
    def test_general_match_corpus_on_composite_indexed_graph(self, query):
        plain = _assert_read_agreement(query, GRAPH)
        indexed = _assert_read_agreement(query, COMPOSITE_INDEXED_GRAPH)
        assert plain.table.same_bag(indexed.table), query

    @pytest.mark.smoke
    def test_hand_written_composite_probes(self):
        for query in COMPOSITE_QUERIES:
            plain = _assert_read_agreement(query, GRAPH)
            indexed = _assert_read_agreement(query, COMPOSITE_INDEXED_GRAPH)
            assert plain.table.same_bag(indexed.table), query

    #: ``STARTS WITH`` operands of every kind after an equality prefix:
    #: null, NaN, a list and a number are never true.
    STARTS_WITH_OPERANDS = (None, float("nan"), [1], 1, "x1", "node-")

    def test_starts_with_operand_of_every_kind(self):
        """Every executor, and a dirty snapshot view, agrees with the
        interpreter on a composite prefix + ``STARTS WITH $p`` scan."""
        queries = [
            "MATCH (n:%s) WHERE n.v = 0 AND n.name STARTS WITH $p %s"
            % (label, tail)
            for label in ("A", "B")
            for tail in (
                "RETURN count(n) AS c",
                "RETURN n.name AS b ORDER BY n.name LIMIT 3",
            )
        ]
        pinned = CypherEngine(COMPOSITE_INDEXED_GRAPH)
        live = CypherEngine(composite_indexed_fixture_graph())
        session = live.session()
        view = session.snapshot()
        live.run("MATCH (n) WHERE n.v = 0 SET n.name = 'x1' + n.name")
        try:
            for query in queries:
                kinds = {
                    type(op) for op in _plan_operators(
                        pinned.run(query, {"p": "node-"}).plan
                    )
                }
                assert lg.IndexRangeScan in kinds, query
                for operand in self.STARTS_WITH_OPERANDS:
                    parameters = {"p": operand}
                    want = pinned.run(query, parameters, mode="interpreter")
                    now = live.run(query, parameters, mode="interpreter")
                    for mode in ("row", "batch"):
                        case = (query, operand, mode)
                        assert pinned.run(
                            query, parameters, mode=mode
                        ).records == want.records, case
                        assert view.run(
                            query, parameters, mode=mode
                        ).records == want.records, case
                        assert live.run(
                            query, parameters, mode=mode
                        ).records == now.records, case
        finally:
            session.close()


@pytest.mark.smoke
class TestCompositeIndexedUpdates:
    """Composite maintenance must equal a rebuild, across executors."""

    @settings(max_examples=100, deadline=None)
    @given(query=indexed_update_queries())
    def test_update_differential_with_composite_indexes(self, query):
        clones = {mode: COMPOSITE_INDEXED_GRAPH.copy() for mode in
                  ("interpreter", "row", "batch")}
        results = {
            mode: CypherEngine(graph).run(query, mode=mode)
            for mode, graph in clones.items()
        }
        assert results["row"].executed_by == "planner", query
        assert results["batch"].executed_by == "planner", query
        reference = results["interpreter"].table
        reference_state = graph_state(clones["interpreter"])
        for mode in ("row", "batch"):
            assert reference.same_bag(results[mode].table), (query, mode)
            assert reference_state == graph_state(clones[mode]), (query, mode)
        for mode, graph in clones.items():
            assert_indexes_consistent(graph)
        for label, key in clones["interpreter"].indexes():
            reference_index = clones["interpreter"].index_snapshot(label, key)
            for mode in ("row", "batch"):
                assert clones[mode].index_snapshot(label, key) == (
                    reference_index
                ), (query, mode, label, key)


@pytest.mark.smoke
def test_composite_point_lookup_takes_the_index():
    """Full-tuple equality plans as one composite seek, no label scan;
    once the index is dropped the same text re-plans off it."""
    engine = CypherEngine(composite_indexed_fixture_graph())
    # :B carries only the composite (v, name) index, so the plan shape
    # is unambiguous (:A also has a single-key (name) index that ties
    # on estimated rows for a full point lookup).
    result = engine.run(
        "MATCH (b:B) WHERE b.v = 3 AND b.name = 'node-7' "
        "RETURN count(*) AS c"
    )
    scans = [op for op in _plan_operators(result.plan)
             if isinstance(op, lg.IndexScan)]
    assert scans, result.plan.describe()
    assert scans[0].index_keys == ("v", "name"), result.plan.describe()
    kinds = {type(op) for op in _plan_operators(result.plan)}
    assert lg.NodeByLabelScan not in kinds
    assert result.values("c") == [1]
    assert engine.drop_index("B", "v", "name") is True
    dropped = engine.run(
        "MATCH (b:B) WHERE b.v = 3 AND b.name = 'node-7' "
        "RETURN count(*) AS c"
    )
    kinds = {type(op) for op in _plan_operators(dropped.plan)}
    assert not kinds & {lg.IndexScan, lg.IndexRangeScan, lg.IndexOrderedScan}
    assert dropped.values("c") == [1]


def test_order_provided_scan_deletes_the_sort():
    """ORDER BY matching the index order must not plan a Sort, and the
    emitted order must be exact — ties and mixed-type segments included
    — on all three executors."""
    graph = composite_indexed_fixture_graph()
    engine = CypherEngine(graph)
    query = (
        "MATCH (a:A) WHERE a.v >= 0 AND a.name IS NOT NULL "
        "RETURN a.v AS v, a.name AS n ORDER BY v, n"
    )
    result = engine.run(query)
    kinds = {type(op) for op in _plan_operators(result.plan)}
    assert lg.IndexOrderedScan in kinds, result.plan.describe()
    assert lg.Sort not in kinds, result.plan.describe()
    reference = CypherEngine(GRAPH).run(query, mode="interpreter")
    rows = [tuple(record.values()) for record in reference.records]
    for mode in ("interpreter", "row", "batch"):
        actual = [
            tuple(record.values())
            for record in engine.run(query, mode=mode).records
        ]
        assert actual == rows, (mode, actual, rows)


def test_order_provided_scan_with_ties_and_mixed_types():
    """Exact ordered agreement on data built to stress tie-breaking."""
    from repro.graph.store import MemoryGraph

    plain = MemoryGraph()
    engine = CypherEngine(plain)
    engine.run(
        "UNWIND range(0, 29) AS i "
        "CREATE (:T {g: i % 3, v: CASE i % 5 WHEN 0 THEN 'node' "
        "WHEN 1 THEN i % 2 WHEN 2 THEN 1.5 WHEN 3 THEN i % 2 = 0 "
        "ELSE 'node' END})"
    )
    indexed = plain.copy()
    indexed.create_index("T", "g", "v")
    query = (
        "MATCH (t:T) WHERE t.g = 1 AND t.v IS NOT NULL "
        "RETURN t.v AS v, id(t) AS tie ORDER BY v"
    )
    indexed_engine = CypherEngine(indexed)
    result = indexed_engine.run(query)
    kinds = {type(op) for op in _plan_operators(result.plan)}
    assert lg.IndexOrderedScan in kinds, result.plan.describe()
    assert lg.Sort not in kinds, result.plan.describe()
    reference = CypherEngine(plain).run(query, mode="interpreter")
    rows = [tuple(record.values()) for record in reference.records]
    assert rows, "tie fixture matched nothing"
    for mode in ("interpreter", "row", "batch"):
        actual = [
            tuple(record.values())
            for record in indexed_engine.run(query, mode=mode).records
        ]
        assert actual == rows, (mode, actual, rows)


@pytest.mark.smoke
def test_harness_is_not_vacuous():
    """At least the obvious point lookup must actually take the index."""
    engine = CypherEngine(indexed_fixture_graph())
    result = engine.run("MATCH (a:A) WHERE a.v = 1 RETURN count(*) AS c")
    kinds = {type(op) for op in _plan_operators(result.plan)}
    assert lg.IndexScan in kinds, result.plan.describe()
    assert lg.NodeByLabelScan not in kinds


def test_no_sargable_query_falls_back_to_interpreter():
    """Acceptance: with indexes present, reads still never fall back."""
    engine = CypherEngine(indexed_fixture_graph())
    for query in [
        "MATCH (a:A) WHERE a.v = 1 RETURN a.name AS n ORDER BY n",
        "MATCH (a:B) WHERE a.name STARTS WITH 'node' RETURN count(*) AS c",
        "MATCH (a:C) WHERE a.v >= 1 AND a.v < 3 RETURN count(*) AS c",
        "MATCH (a:A) WHERE a.v IN [0, 2] RETURN count(*) AS c",
        "MATCH (a:A) MATCH (b:B) WHERE b.v = a.v RETURN count(*) AS c",
    ]:
        result = engine.run(query)
        assert result.executed_by == "planner", (
            query, result.fallback_reason
        )
        assert result.execution_mode == "batch", query


class TestRangeExactness:
    """A single-key range scan answers its conjuncts exactly.

    The planner drops a chosen range scan's ``low``/``high`` conjuncts,
    and ``IS NOT NULL`` on its key, from the residual Filter, so the
    scan alone must return exactly the nodes ``compare`` says the range
    is true of — over every kind of stored value and every kind of
    bound, through every executor and every view of the store.
    """

    #: Stored values: numbers around the float-precision edge (2**53 and
    #: its int neighbours beside an equal float), infinities, NaN, -0.0,
    #: strings, Booleans, lists, temporals, and a missing property.
    VALUES = (
        0, 1, 1, -1, 2.5, -0.0, float("inf"), float("-inf"), float("nan"),
        2 ** 53, 2 ** 53 + 1, float(2 ** 53), 2 ** 53 - 1,
        "", "a", "ab", "b", True, False, False, None, [1], [1, 2], [],
        Date(2020, 6, 1), Date(2021, 6, 1),
    )

    #: Bounds of every kind: null and NaN (true of nothing), numbers,
    #: strings and Booleans (one segment each), a list and a temporal
    #: (outside the sorted segments: the label-scan fallback).
    BOUNDS = (
        None, float("nan"), float("-inf"), -1, 0, 1, 2.5, 2 ** 53,
        2 ** 53 + 1, float(2 ** 53), float("inf"), "", "a", "b", False,
        True, [1], Date(2020, 6, 1),
    )

    SHAPES = (
        "n.v > $lo", "n.v >= $lo", "$hi > n.v", "n.v <= $hi",
        "n.v >= $lo AND n.v < $hi", "n.v > $lo AND n.v <= $hi",
        "n.v IS NOT NULL AND n.v < $hi",
    )

    def _graph(self):
        from repro.graph.store import MemoryGraph

        graph = MemoryGraph()
        for i, value in enumerate(self.VALUES):
            properties = {"i": i}
            if value is not None:
                properties["v"] = value
            graph.create_node(("X",), properties)
        graph.create_index("X", "v")
        return graph

    @staticmethod
    def _query(shape):
        return "MATCH (n:X) WHERE %s RETURN n.i AS i" % shape

    @staticmethod
    def _ids(result):
        return sorted(record["i"] for record in result.records)

    def _parameters(self, shape):
        names = [name for name in ("lo", "hi") if "$" + name in shape]
        for values in product(self.BOUNDS, repeat=len(names)):
            yield dict(zip(names, values))

    def _assert_unfiltered_range_scan(self, result):
        kinds = {type(op) for op in _plan_operators(result.plan)}
        assert lg.IndexRangeScan in kinds, result.plan.describe()
        assert lg.Filter not in kinds, result.plan.describe()

    def test_every_value_and_bound_on_every_executor(self):
        graph = self._graph()
        engines = {
            size: CypherEngine(graph, morsel_size=size) for size in (1, 4, 256)
        }
        reference = CypherEngine(graph)
        for shape in self.SHAPES:
            query = self._query(shape)
            self._assert_unfiltered_range_scan(
                reference.run(query, {"lo": 0, "hi": 1})
            )
            for parameters in self._parameters(shape):
                want = self._ids(
                    reference.run(query, parameters, mode="interpreter")
                )
                got = self._ids(reference.run(query, parameters, mode="row"))
                assert got == want, (query, parameters, "row")
                for size, engine in engines.items():
                    result = engine.run(query, parameters, mode="batch")
                    assert result.execution_mode == "batch"
                    assert self._ids(result) == want, (
                        query, parameters, "batch", size,
                    )

    @pytest.mark.smoke
    def test_the_fallback_filters(self):
        """A bound outside the sorted segments scans the label, and the
        scan itself keeps only the nodes the range is true of — no
        Filter above it would."""
        engine = CypherEngine(self._graph())
        for shape, parameters, expected in (
            ("n.v >= $lo", {"lo": [1]}, [21, 22]),
            ("n.v > $lo AND n.v <= $hi", {"lo": [], "hi": [1, 2]}, [21, 22]),
            ("n.v < $hi", {"hi": Date(2021, 6, 1)}, [24]),
        ):
            query = self._query(shape)
            for mode in ("interpreter", "row", "batch"):
                result = engine.run(query, parameters, mode=mode)
                assert self._ids(result) == expected, (query, mode)
            self._assert_unfiltered_range_scan(result)

    def test_pinned_snapshot_after_writes_across_the_bound(self):
        graph = self._graph()
        engine = CypherEngine(graph)
        checks = [
            (self._query(shape), parameters)
            for shape, parameters in (
                ("n.v >= $lo AND n.v < $hi", {"lo": 0, "hi": 2 ** 53}),
                ("n.v > $lo", {"lo": "a"}),
                ("n.v >= $lo", {"lo": [1]}),
            )
        ]
        with engine.session() as session:
            snapshot = session.snapshot()
            want = [
                self._ids(engine.run(query, parameters, mode="interpreter"))
                for query, parameters in checks
            ]
            for write in (
                "MATCH (n:X) WHERE n.i = 1 SET n.v = 2 ^ 60",
                "MATCH (n:X) WHERE n.i = 3 SET n.v = 7",
                "MATCH (n:X) WHERE n.i = 15 SET n.v = 0",
                "MATCH (n:X) WHERE n.i = 13 SET n.v = 'c'",
                "MATCH (n:X) WHERE n.i = 16 REMOVE n.v",
                "MATCH (n:X) WHERE n.i = 22 SET n.v = [0]",
                "CREATE (:X {i: 99, v: 5})",
            ):
                engine.run(write)
            for (query, parameters), expected in zip(checks, want):
                for mode in ("row", "batch"):
                    result = snapshot.run(
                        query, parameters, mode=mode, profile=True
                    )
                    assert self._ids(result) == expected, (query, mode)
                    assert result.access_paths[0]["entry"].startswith(
                        "index range"
                    ), result.access_paths
                live = self._ids(
                    engine.run(query, parameters, mode="interpreter")
                )
                assert live != expected, "the writes crossed no bound"
                for mode in ("row", "batch"):
                    assert self._ids(
                        engine.run(query, parameters, mode=mode)
                    ) == live, (query, mode)

    def test_open_session_after_an_uncommitted_set(self):
        graph = self._graph()
        engine = CypherEngine(graph)
        query = self._query("n.v >= $lo AND n.v < $hi")
        parameters = {"lo": 1, "hi": 3}
        with engine.session() as session:
            session.begin()
            before = self._ids(session.run(query, parameters, mode="batch"))
            session.run("MATCH (n:X) WHERE n.i = 0 SET n.v = 2")
            session.run("MATCH (n:X) WHERE n.i = 4 SET n.v = 'x'")
            want = self._ids(
                session.run(query, parameters, mode="interpreter")
            )
            assert want != before
            for mode in ("row", "batch"):
                assert self._ids(
                    session.run(query, parameters, mode=mode)
                ) == want, mode
            session.rollback()
        assert self._ids(engine.run(query, parameters)) == before

    def test_literal_bound_order_by_limit(self):
        """The IndexOrderedScan built from a range scan keeps its bound,
        serves it exactly and needs neither Filter nor Sort."""
        graph = self._graph()
        engine = CypherEngine(graph)
        for query in (
            "MATCH (n:X) WHERE n.v >= 1 "
            "RETURN n.v AS v, n.i AS i ORDER BY v LIMIT 6",
            "MATCH (n:X) WHERE n.v < 9007199254740993 "
            "RETURN n.v AS v, n.i AS i ORDER BY v DESC LIMIT 5",
            "MATCH (n:X) WHERE n.v > 'a' AND n.v IS NOT NULL "
            "RETURN n.v AS v, n.i AS i ORDER BY v LIMIT 3",
            "MATCH (n:X) WHERE n.v IS NOT NULL "
            "RETURN n.i AS i ORDER BY n.v DESC LIMIT 4",
        ):
            result = engine.run(query)
            kinds = {type(op) for op in _plan_operators(result.plan)}
            assert lg.IndexOrderedScan in kinds, result.plan.describe()
            assert not kinds & {lg.Filter, lg.Sort}, result.plan.describe()
            want = [
                tuple(record.values())
                for record in engine.run(query, mode="interpreter").records
            ]
            assert want
            for mode in ("row", "batch"):
                got = [
                    tuple(record.values())
                    for record in engine.run(query, mode=mode).records
                ]
                assert got == want, (query, mode, got, want)
