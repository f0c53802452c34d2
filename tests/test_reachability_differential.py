"""Differential harness with reachability indexes enabled.

Same contract as the property-index harness: declaring a reachability
index may change *how* var-length rows are found (interval-labeled
probes with residual verification instead of blind DFS), never *which*
rows.  Every generated case runs six ways — interpreter / row / batch,
each over a plain graph and over an identically-populated twin with
reachability indexes declared — and all six must agree as bags.
Updating queries run on indexed clones through all three executors and
must leave byte-identical stores *and* condensations that match a
from-scratch rebuild (maintenance is only worth having if nobody can
tell it from recomputation).
"""

import pytest
from hypothesis import given, settings

from repro import CypherEngine
from repro.planner import logical as lg
from repro.planner.batch import plan_supports_batch

from fuzztools import (
    GRAPH,
    REACHABILITY_GRAPH,
    assert_reachability_consistent,
    build_shaped_graph,
    graph_state,
    indexed_update_queries,
    match_queries,
    named_path_queries,
    reachability_cases,
    reachability_fixture_graph,
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


class TestReachabilityReads:
    """Same bags with and without reachability indexes, all executors."""

    @settings(max_examples=100, deadline=None)
    @given(case=reachability_cases())
    def test_shaped_graphs_with_and_without_index(self, case):
        shape, count, edges, query = case
        plain = _assert_read_agreement(
            query, build_shaped_graph(count, edges)
        )
        indexed = _assert_read_agreement(
            query, build_shaped_graph(count, edges, reachability=True)
        )
        assert plain.table.same_bag(indexed.table), (
            "declaring a reachability index changed the results of %r "
            "on a %s graph" % (query, shape)
        )

    @settings(max_examples=50, deadline=None)
    @given(query=match_queries())
    def test_general_match_corpus_on_reachability_graph(self, query):
        plain = _assert_read_agreement(query, GRAPH)
        indexed = _assert_read_agreement(query, REACHABILITY_GRAPH)
        assert plain.table.same_bag(indexed.table), query

    @settings(max_examples=40, deadline=None)
    @given(query=named_path_queries())
    def test_named_path_corpus_on_reachability_graph(self, query):
        plain = _assert_read_agreement(query, GRAPH)
        indexed = _assert_read_agreement(query, REACHABILITY_GRAPH)
        assert plain.table.same_bag(indexed.table), query


@pytest.mark.smoke
class TestReachabilityUpdates:
    """Maintenance must be indistinguishable from a rebuild."""

    @settings(max_examples=80, deadline=None)
    @given(query=indexed_update_queries())
    def test_update_differential_with_reachability_indexes(self, query):
        clones = {mode: REACHABILITY_GRAPH.copy() for mode in
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
        # Incremental condensation maintenance must equal a rebuild,
        # byte-identically, and agree across executors.
        for graph in clones.values():
            assert_reachability_consistent(graph)
        for types in clones["interpreter"].reachability_indexes():
            reference_snapshot = clones[
                "interpreter"
            ].reachability_snapshot(types)
            for mode in ("row", "batch"):
                assert clones[mode].reachability_snapshot(types) == (
                    reference_snapshot
                ), (query, mode, types)


def _plan_kinds(graph, query):
    result = CypherEngine(graph).run(query)
    assert result.executed_by == "planner", (query, result.fallback_reason)
    return {type(op) for op in _plan_operators(result.plan)}, result


BOUND_PAIR = (
    "MATCH (a {name: 'node-0'}), (b {name: 'node-4'}) "
)


@pytest.mark.smoke
def test_harness_is_not_vacuous():
    """The obvious bound-pair traversal must actually take the probe."""
    graph = reachability_fixture_graph()
    kinds, result = _plan_kinds(
        graph, BOUND_PAIR + "MATCH (a)-[:R*]->(b) RETURN count(*) AS c"
    )
    assert lg.ReachabilityProbe in kinds, result.plan.describe()
    assert "ReachabilityProbe" in result.plan.describe()


def test_probe_applies_in_both_directions():
    graph = reachability_fixture_graph()
    for pattern in ["(a)-[:R*]->(b)", "(a)<-[:R*]-(b)"]:
        kinds, result = _plan_kinds(
            graph, BOUND_PAIR + "MATCH %s RETURN count(*) AS c" % pattern
        )
        assert lg.ReachabilityProbe in kinds, result.plan.describe()


def test_probe_prefers_exact_then_superset_index():
    graph = reachability_fixture_graph()
    description = _plan_kinds(
        graph, BOUND_PAIR + "MATCH (a)-[:R*]->(b) RETURN count(*) AS c"
    )[1].plan.describe()
    assert "reach(:R," in description, description
    description = _plan_kinds(
        graph, BOUND_PAIR + "MATCH (a)-[:S*]->(b) RETURN count(*) AS c"
    )[1].plan.describe()
    # No exact :S index is declared; the :R|S superset is the smallest
    # covering set, ahead of the all-types index.
    assert "reach(:R|S," in description, description


def test_planner_declines_without_a_covering_index():
    graph = fixture_graph_with_only_s_index()
    kinds, result = _plan_kinds(
        graph, BOUND_PAIR + "MATCH (a)-[:R*]->(b) RETURN count(*) AS c"
    )
    assert lg.ReachabilityProbe not in kinds, result.plan.describe()
    assert lg.VarLengthExpand in kinds


def fixture_graph_with_only_s_index():
    from fuzztools import fixture_graph

    graph = fixture_graph()
    graph.create_reachability_index(["S"])
    return graph


def test_planner_declines_undirected_tight_bound_and_unbound_endpoint():
    graph = reachability_fixture_graph()
    for query in [
        BOUND_PAIR + "MATCH (a)-[:R*]-(b) RETURN count(*) AS c",
        # The :R condensation diameter is 4; a bound at or below it
        # means the cap itself prunes, so the plain walk stays.
        BOUND_PAIR + "MATCH (a)-[:R*1..3]->(b) RETURN count(*) AS c",
        BOUND_PAIR + "MATCH (a)-[:R*1..4]->(b) RETURN count(*) AS c",
        "MATCH (a {name: 'node-0'}) "
        "MATCH (a)-[:R*]->(b) RETURN count(*) AS c",
    ]:
        kinds, result = _plan_kinds(graph, query)
        assert lg.ReachabilityProbe not in kinds, (
            query, result.plan.describe()
        )
        assert lg.VarLengthExpand in kinds, query


def test_probe_accepts_bounds_above_the_condensation_diameter():
    """*..N probes once N exceeds the covering index's diameter.

    The fixture's :R condensation diameter is 4 (asserted here so the
    boundary cases above and below stay meaningful if the fixture
    drifts); a bound of 5 clears it in either direction, and answers
    must match the index-less walk exactly.
    """
    graph = reachability_fixture_graph()
    facts = graph.reachability_statistics()[("R",)]
    assert facts["condensation_diameter"] == 4, facts
    for pattern in [
        "(a)-[:R*1..5]->(b)",
        "(a)<-[:R*1..5]-(b)",
        "(a)-[:R*..9]->(b)",
    ]:
        query = BOUND_PAIR + "MATCH %s RETURN count(*) AS c" % pattern
        kinds, result = _plan_kinds(graph, query)
        assert lg.ReachabilityProbe in kinds, (
            query, result.plan.describe()
        )
        plain = CypherEngine(fixture_graph_without_indexes())
        assert (
            CypherEngine(graph).run(query).values("c")
            == plain.run(query).values("c")
        ), query


def fixture_graph_without_indexes():
    from fuzztools import fixture_graph

    return fixture_graph()


def test_probe_accepts_lower_bounds_and_untyped_patterns():
    graph = reachability_fixture_graph()
    for query in [
        BOUND_PAIR + "MATCH (a)-[:R*2..]->(b) RETURN count(*) AS c",
        BOUND_PAIR + "MATCH (a)-[*]->(b) RETURN count(*) AS c",
    ]:
        kinds, result = _plan_kinds(graph, query)
        assert lg.ReachabilityProbe in kinds, (
            query, result.plan.describe()
        )


def test_probe_visible_in_profile_on_both_engines():
    graph = reachability_fixture_graph()
    engine = CypherEngine(graph)
    query = BOUND_PAIR + "MATCH (a)-[:R*]->(b) RETURN count(*) AS c"
    for mode in ("row", "batch"):
        result = engine.run(query, mode=mode, profile=True)
        entries = [
            record for record in result.access_paths
            if record["operator"] == "ReachabilityProbe"
        ]
        assert entries, (mode, result.access_paths)
        assert "reachability probe :R (forward)" in {
            record["entry"] for record in entries
        }, (mode, entries)


def test_pattern_comprehensions_agree_with_and_without_index():
    """A reachability index never changes a pattern comprehension's list."""
    for query in [
        BOUND_PAIR + "RETURN size([(a)-[:R*]->(b) | 1]) AS n",
        BOUND_PAIR + "RETURN [p = (a)-[:R*]->(b) | length(p)] AS lens",
        BOUND_PAIR + "RETURN [(a)<-[:R|S*]-(b) | 1] AS hits",
        "MATCH (a) RETURN a.name AS name, "
        "size([(a)-[:R*]->(c {name: 'node-4'}) | c]) AS n ORDER BY name",
    ]:
        plain = _assert_read_agreement(query, GRAPH)
        indexed = _assert_read_agreement(query, REACHABILITY_GRAPH)
        assert plain.table.same_bag(indexed.table), query


class TestShortestPathBoundPruning:
    """Bounded shortestPath gates its oracle on the condensation diameter.

    Same decline rule as the planner's var-length probes: a hop cap at
    or below the covering index's condensation diameter means the cap
    itself is the effective pruner, so ``_reachability_prune`` must
    decline (return None) and the capped BFS runs bare; above the
    diameter the oracle is consulted.  Either way the answers must be
    indistinguishable from an index-less search.
    """

    DIAMETER = 4  # the fixture's :R condensation diameter, asserted below

    @staticmethod
    def _named(graph):
        return {
            graph.node_property(node, "name"): node
            for node in graph.nodes()
        }

    def test_fixture_diameter_is_what_the_boundaries_assume(self):
        graph = reachability_fixture_graph()
        facts = graph.reachability_statistics()[("R",)]
        assert facts["condensation_diameter"] == self.DIAMETER, facts

    def test_prune_declines_at_or_below_diameter(self):
        from repro.algorithms.paths import _reachability_prune

        graph = reachability_fixture_graph()
        target = self._named(graph)["node-4"]
        for cap in (1, self.DIAMETER - 1, self.DIAMETER):
            assert _reachability_prune(
                graph, target, ["R"], True, max_length=cap
            ) is None, cap

    def test_prune_fires_above_diameter_and_when_uncapped(self):
        from repro.algorithms.paths import _reachability_prune

        graph = reachability_fixture_graph()
        ids = self._named(graph)
        for cap in (self.DIAMETER + 1, self.DIAMETER + 5, None):
            oracle = _reachability_prune(
                graph, ids["node-4"], ["R"], True, max_length=cap
            )
            assert oracle is not None, cap
            # The oracle it returns is the real one: node-0 reaches
            # node-4 through :R edges (0->1->2->4), node-3 does not
            # (its only outgoing edge is :S).
            assert oracle(ids["node-0"]) is True
            assert oracle(ids["node-3"]) is False

    def test_capped_search_agrees_with_and_without_index(self):
        from repro.algorithms.paths import shortest_path

        plain = fixture_graph_without_indexes()
        indexed = reachability_fixture_graph()
        nodes = sorted(plain.nodes())
        caps = (0, 1, self.DIAMETER, self.DIAMETER + 1, 9, None)
        for rel_types in (None, ["R"]):
            for cap in caps:
                for source in nodes:
                    for target in nodes:
                        without = shortest_path(
                            plain, source, target, rel_types,
                            max_length=cap,
                        )
                        with_index = shortest_path(
                            indexed, source, target, rel_types,
                            max_length=cap,
                        )
                        key = (source, target, rel_types, cap)
                        assert (without is None) == (
                            with_index is None
                        ), key
                        if without is not None:
                            assert len(without) == len(with_index), key
                            if cap is not None:
                                assert len(without) <= cap, key

    def test_cap_semantics_match_filtering_the_uncapped_answer(self):
        from repro.algorithms.paths import (
            shortest_path_length,
        )

        graph = fixture_graph_without_indexes()
        nodes = sorted(graph.nodes())
        for source in nodes:
            for target in nodes:
                uncapped = shortest_path_length(graph, source, target)
                for cap in range(0, 7):
                    capped = shortest_path_length(
                        graph, source, target, max_length=cap
                    )
                    expected = (
                        uncapped
                        if uncapped is not None and uncapped <= cap
                        else None
                    )
                    assert capped == expected, (source, target, cap)

    def test_cap_composes_with_undirected_and_negative_bounds(self):
        from repro.algorithms.paths import shortest_path

        graph = reachability_fixture_graph()
        ids = self._named(graph)
        # Undirected searches never consult the oracle; the cap still
        # applies.  node-4 -> node-0 needs undirected steps.
        path = shortest_path(
            graph, ids["node-4"], ids["node-0"], directed=False,
            max_length=2,
        )
        assert path is not None and len(path) <= 2
        assert shortest_path(
            graph, ids["node-4"], ids["node-0"], max_length=-1
        ) is None
        # A zero cap finds only the trivial self-path.
        assert len(shortest_path(
            graph, ids["node-2"], ids["node-2"], max_length=0
        )) == 0
        assert shortest_path(
            graph, ids["node-0"], ids["node-1"], max_length=0
        ) is None

    def test_cap_rejects_cost_weighted_search(self):
        import pytest

        from repro.algorithms.paths import shortest_path

        graph = reachability_fixture_graph()
        ids = self._named(graph)
        with pytest.raises(ValueError):
            shortest_path(
                graph, ids["node-0"], ids["node-4"],
                cost_property="w", max_length=3,
            )


def test_dropping_the_index_restores_the_plain_plan():
    graph = reachability_fixture_graph()
    query = BOUND_PAIR + "MATCH (a)-[:R*]->(b) RETURN count(*) AS c"
    engine = CypherEngine(graph)
    with_index = engine.run(query)
    assert lg.ReachabilityProbe in {
        type(op) for op in _plan_operators(with_index.plan)
    }
    for types in list(graph.reachability_indexes()):
        graph.drop_reachability_index(types)
    without = engine.run(query)
    kinds = {type(op) for op in _plan_operators(without.plan)}
    assert lg.ReachabilityProbe not in kinds, without.plan.describe()
    assert with_index.table.same_bag(without.table)
