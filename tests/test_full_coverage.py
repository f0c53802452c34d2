"""Full-coverage planner: named paths, morphisms, comprehensions, metadata.

The planner now covers the entire read language; these tests pin that
down from several angles: bag-equality between planner and interpreter
on the constructs that used to fall back (named paths, node-isomorphism
matching, comprehensions/quantifiers/reduce), the ``executed_by``
result metadata and ``repro.cli explain`` surface, and the bounded-LRU
plan cache with statistics-insensitive invalidation.
"""

import pytest

from repro import CypherEngine
from repro.exceptions import CypherSemanticError
from repro.graph.builder import GraphBuilder
from repro.graph.store import MemoryGraph
from repro.parser import parse_query
from repro.planner import plan_query
from repro.planner.planning import plan_depends_on_statistics
from repro.semantics.morphism import (
    EDGE_ISOMORPHISM,
    HOMOMORPHISM,
    NODE_ISOMORPHISM,
    Morphism,
)
from repro.values.path import Path


def rich_graph():
    """Cycles, a self-loop, parallel-ish edges and a rare label."""
    builder = GraphBuilder()
    for index in range(7):
        builder.node("n%d" % index, ["A", "B"][index % 2], v=index)
    builder.node("rare", "Rare", v=100)
    edges = [
        (0, 1, "R"), (1, 2, "R"), (2, 0, "R"), (2, 3, "S"), (3, 4, "S"),
        (4, 5, "R"), (5, 5, "R"), (1, 4, "S"), (6, 0, "R"),
    ]
    for source, target, rel_type in edges:
        builder.rel("n%d" % source, rel_type, "n%d" % target, w=source + target)
    builder.rel("n3", "R", "rare", w=50)
    builder.rel("rare", "S", "n6", w=51)
    graph, _ = builder.build()
    return graph


GRAPH = rich_graph()

NEW_CONSTRUCT_CORPUS = [
    # named paths
    "MATCH p = (a)-[:R]->(b) RETURN length(p) AS l, a.v AS av",
    "MATCH p = (a)-[:R*1..3]->(b) RETURN [x IN nodes(p) | x.v] AS vs",
    "MATCH p = (a)-[:R*0..2]-(b) RETURN length(p) AS l, b.v AS bv",
    "MATCH p = (a:A)-[:R]->(b)-[:S]->(c) RETURN length(p) AS l",
    "MATCH p = (a) RETURN size(nodes(p)) AS n, length(p) AS l",
    "MATCH p = (a)-[:R]->(b:Rare) RETURN [x IN nodes(p) | x.v] AS vs",
    "MATCH p = (a)-[:R]->(b) RETURN p",
    "MATCH p = (a)-[:R]->(b), q = (b)-[:S]->(c) "
    "RETURN length(p) + length(q) AS l",
    "MATCH (x:Rare) MATCH p = (x)-[:S]->(y) RETURN length(p) AS l, y.v AS yv",
    "MATCH (x) OPTIONAL MATCH p = (x)-[:S]->(y) RETURN x.v AS xv, p",
    # comprehensions / quantifiers / reduce
    "MATCH (a) RETURN [x IN [1, 2, 3] WHERE x > a.v | x * 10] AS xs",
    "MATCH (a) WHERE all(x IN [a.v, 1] WHERE x >= 0) RETURN a.v AS v",
    "MATCH (a) WHERE single(x IN [a.v] WHERE x = 2) RETURN a.v AS v",
    "MATCH (a) RETURN reduce(s = 0, x IN [1, 2, a.v] | s + x) AS total",
    "MATCH (a) RETURN [(a)-[r:R]->(b) WHERE r.w > 2 | b.v] AS bs",
    "MATCH (a) WHERE exists((a)-[:S]->(b) WHERE b.v > 3) RETURN a.v AS v",
    "MATCH (a) WHERE (a)-[:R]->(:B) RETURN a.v AS v",
    # interactions
    "MATCH p = (a)-[:R*1..2]->(b) "
    "WHERE all(r IN relationships(p) WHERE r.w >= 0) RETURN length(p) AS l",
    "MATCH p = (a)-[:R]->(b) RETURN reduce(s = 0, x IN nodes(p) | s + x.v) AS s",
    "MATCH (a)-[:R]->(a) RETURN count(*) AS loops",
    "MATCH (a)-[:R*1..3]->(b)-[:R]->(c) RETURN a.v AS av, c.v AS cv",
    "MATCH (a)-[r1:R*1..2]->(b)-[r2:R*1..2]->(c) "
    "RETURN size(r1) + size(r2) AS hops",
]

ALL_MORPHISMS = [
    pytest.param(EDGE_ISOMORPHISM, id="edge"),
    pytest.param(NODE_ISOMORPHISM, id="node"),
    pytest.param(HOMOMORPHISM, id="homomorphism"),
]


class TestNewConstructCrossCheck:
    """Planner ≡ interpreter on the constructs that used to fall back."""

    @pytest.mark.parametrize("query", NEW_CONSTRUCT_CORPUS)
    @pytest.mark.parametrize("morphism", ALL_MORPHISMS)
    def test_bag_equality(self, query, morphism):
        engine = CypherEngine(GRAPH, morphism=morphism)
        interpreted = engine.run(query, mode="interpreter")
        planned = engine.run(query, mode="planner")
        assert planned.executed_by == "planner", query
        assert interpreted.table.same_bag(planned.table), (
            "disagreement on %r under %s:\n%s\nvs\n%s"
            % (query, morphism.mode, interpreted.records, planned.records)
        )

    def test_node_isomorphism_forbids_revisits(self):
        engine = CypherEngine(GRAPH, morphism=NODE_ISOMORPHISM)
        loops = engine.run(
            "MATCH (a)-[:R]->(a) RETURN count(*) AS n", mode="planner"
        )
        assert loops.value() == 0  # the n5 self-loop is a revisit
        edge = CypherEngine(GRAPH, morphism=EDGE_ISOMORPHISM)
        assert edge.run(
            "MATCH (a)-[:R]->(a) RETURN count(*) AS n", mode="planner"
        ).value() == 1

    def test_max_length_tightens_explicit_bounds(self):
        """The morphism cap must clip *m..n ranges on both paths."""
        capped = Morphism("edge-isomorphism", max_length=1)
        engine = CypherEngine(GRAPH, morphism=capped)
        interpreted = engine.run(
            "MATCH (a)-[:R*1..3]->(b) RETURN count(*) AS n", mode="interpreter"
        )
        planned = engine.run(
            "MATCH (a)-[:R*1..3]->(b) RETURN count(*) AS n", mode="planner"
        )
        assert interpreted.value() == planned.value()


class TestNamedPathValues:
    def test_path_value_is_in_pattern_order(self):
        # The planner enters through :Rare (cheap end) and walks the
        # chain backwards; the path must still read left to right.
        engine = CypherEngine(GRAPH)
        planned = engine.run(
            "MATCH p = (a)-[:R]->(b:Rare) RETURN p", mode="planner"
        )
        path = planned.value()
        assert isinstance(path, Path)
        assert len(path) == 1
        assert GRAPH.labels(path.nodes[-1]) == {"Rare"}

    def test_single_node_path(self, ):
        engine = CypherEngine(GRAPH)
        result = engine.run(
            "MATCH p = (a:Rare) RETURN length(p) AS l", mode="planner"
        )
        assert result.value() == 0

    def test_var_length_path_reconstructs_intermediates(self):
        engine = CypherEngine(GRAPH)
        planned = engine.run(
            "MATCH p = (a {v: 0})-[:R*2]->(b) RETURN [x IN nodes(p) | x.v] AS vs",
            mode="planner",
        )
        interpreted = engine.run(
            "MATCH p = (a {v: 0})-[:R*2]->(b) RETURN [x IN nodes(p) | x.v] AS vs",
            mode="interpreter",
        )
        assert planned.table.same_bag(interpreted.table)
        assert all(len(record["vs"]) == 3 for record in planned.records)


class TestExecutionMetadata:
    def test_read_query_reports_planner(self):
        engine = CypherEngine(GRAPH)
        result = engine.run("MATCH (n) RETURN count(*) AS n")
        assert result.executed_by == "planner"
        assert result.fallback_reason is None

    def test_update_reports_planner(self):
        engine = CypherEngine(MemoryGraph())
        result = engine.run("CREATE (:X)")
        assert result.executed_by == "planner"
        assert result.fallback_reason is None
        assert engine.graph.node_count() == 1

    def test_graph_clause_reports_interpreter_with_reason(self):
        engine = CypherEngine(MemoryGraph())
        result = engine.run("FROM GRAPH default MATCH (a) RETURN a")
        assert result.executed_by == "interpreter"
        assert "FromGraph" in result.fallback_reason

    def test_forced_interpreter_mode_is_recorded(self):
        engine = CypherEngine(GRAPH)
        result = engine.run("MATCH (n) RETURN count(*) AS n", mode="interpreter")
        assert result.executed_by == "interpreter"
        assert result.fallback_reason == "mode=interpreter"

    def test_cached_plan_hits_report_planner(self):
        engine = CypherEngine(GRAPH)
        engine.run("MATCH (n) RETURN count(*) AS n")
        result = engine.run("MATCH (n) RETURN count(*) AS n")  # cache hit
        assert result.executed_by == "planner"

    def test_explain_info_planner_path(self):
        engine = CypherEngine(GRAPH)
        executed_by, reason, plan_text, cache_info, mode = (
            engine.explain_info("MATCH p = (a)-->(b) RETURN p")
        )
        assert executed_by == "planner"
        assert reason is None
        assert "ProjectPath" in plan_text
        assert set(cache_info) >= {"hits", "misses", "hit_rate"}
        assert mode == "row"  # named paths stay on the row engine

    def test_explain_info_update_path_renders_barriers(self):
        engine = CypherEngine(GRAPH)
        executed_by, reason, plan_text, _cache, mode = engine.explain_info(
            "MATCH (a) SET a.v = 1"
        )
        assert executed_by == "planner"
        assert reason is None
        assert "Eager" in plan_text
        assert "SetProperties" in plan_text
        assert mode == "row"  # write plans never batch

    def test_explain_info_fallback_path(self):
        engine = CypherEngine(GRAPH)
        executed_by, reason, plan_text, _cache, mode = engine.explain_info(
            "FROM GRAPH default MATCH (a) RETURN a"
        )
        assert executed_by == "interpreter"
        assert "FromGraph" in reason
        assert plan_text is None
        assert mode is None

    def test_cli_explain_subcommand(self, capsys):
        from repro.cli import main

        assert main(["explain", "MATCH (n) RETURN n"]) == 0
        out = capsys.readouterr().out
        assert "executed by: planner" in out
        assert "AllNodesScan" in out
        assert "plan cache:" in out
        assert main(["explain", "MATCH (n) CREATE (m) SET n.x = 1"]) == 0
        out = capsys.readouterr().out
        assert "executed by: planner" in out
        assert "Eager" in out
        assert "Create(m)" in out
        assert "SetProperties" in out
        assert main(["explain", "FROM GRAPH g MATCH (a) RETURN a"]) == 0
        out = capsys.readouterr().out
        assert "executed by: interpreter" in out
        assert "fallback reason" in out


class TestPlanCache:
    def test_cache_is_bounded_lru(self):
        engine = CypherEngine(GRAPH)
        limit = engine._PLAN_CACHE_LIMIT
        for index in range(limit + 20):
            engine.run("MATCH (n) RETURN %d AS x" % index)
        assert len(engine._plan_cache) == limit

    def test_recently_used_plans_survive_eviction(self):
        engine = CypherEngine(GRAPH)
        limit = engine._PLAN_CACHE_LIMIT
        hot = "MATCH (n) RETURN -1 AS x"
        engine.run(hot)
        for index in range(limit - 1):
            engine.run("MATCH (n) RETURN %d AS x" % index)
            engine.run(hot)  # keep it recent
        assert hot in engine._plan_cache
        engine.run("MATCH (n) RETURN 999999 AS x")
        assert hot in engine._plan_cache  # an older entry was evicted instead

    def test_stats_insensitive_plans_survive_mutations(self):
        engine = CypherEngine(MemoryGraph())
        engine.run("CREATE (:X {v: 1})")
        query = "MATCH (n) RETURN n.v AS v"
        engine.run(query)
        cached_before = engine._plan_cache[query][3]
        engine.run("CREATE (:Y {v: 2})")  # mutates the store
        result = engine.run(query)
        assert sorted(result.values("v")) == [1, 2]
        assert engine._plan_cache[query][3] is cached_before

    def test_stats_sensitive_plans_survive_commits_until_they_drift(self):
        """The full validity rule is pinned in tests/test_plan_cache.py."""
        engine = CypherEngine(MemoryGraph())
        engine.run("CREATE (:X {v: 1})")
        query = "MATCH (n:X) RETURN n.v AS v"
        engine.run(query)
        cached_before = engine._plan_cache[query][3]
        engine.run("CREATE (:X {v: 2})")
        assert sorted(engine.run(query).values("v")) == [1, 2]
        assert engine._plan_cache[query][3] is cached_before
        engine.run("UNWIND range(3, 9) AS i CREATE (:X {v: i})")  # >2x :X
        assert len(engine.run(query)) == 9
        assert engine._plan_cache[query][3] is not cached_before

    def test_parameterised_reruns_reuse_plans(self):
        engine = CypherEngine(MemoryGraph())
        engine.run("CREATE (:X {v: 1})")
        query = "MATCH (n) WHERE n.v = $target RETURN count(*) AS c"
        assert engine.run(query, parameters={"target": 1}).value() == 1
        cached = engine._plan_cache[query][3]
        engine.run("CREATE (:X {v: 2})")
        assert engine.run(query, parameters={"target": 2}).value() == 1
        assert engine._plan_cache[query][3] is cached

    def test_stats_sensitivity_classifier(self):
        graph = GRAPH
        insensitive = plan_query(parse_query("MATCH (n) RETURN n"), graph)
        assert not plan_depends_on_statistics(insensitive)
        no_match = plan_query(parse_query("RETURN 1 AS x"), graph)
        assert not plan_depends_on_statistics(no_match)
        labelled = plan_query(parse_query("MATCH (n:A) RETURN n"), graph)
        assert plan_depends_on_statistics(labelled)
        chained = plan_query(parse_query("MATCH (a)-->(b) RETURN a"), graph)
        assert plan_depends_on_statistics(chained)


class TestReduce:
    @pytest.mark.parametrize("mode", ["interpreter", "planner"])
    def test_reduce_folds(self, mode):
        engine = CypherEngine(MemoryGraph())
        result = engine.run(
            "RETURN reduce(s = 1, x IN [2, 3, 4] | s * x) AS product",
            mode=mode,
        )
        assert result.value() == 24

    @pytest.mark.parametrize("mode", ["interpreter", "planner"])
    def test_reduce_null_source(self, mode):
        engine = CypherEngine(MemoryGraph())
        result = engine.run(
            "WITH null AS xs RETURN reduce(s = 0, x IN xs | s + x) AS r",
            mode=mode,
        )
        assert result.value() is None

    @pytest.mark.parametrize("mode", ["interpreter", "planner"])
    def test_reduce_empty_list_returns_init(self, mode):
        engine = CypherEngine(MemoryGraph())
        result = engine.run(
            "RETURN reduce(s = 42, x IN [] | s + x) AS r", mode=mode
        )
        assert result.value() == 42

    def test_reduce_round_trips_through_printer(self):
        from repro.ast.printer import print_expression
        from repro.parser import parse_expression

        text = "reduce(s = 0, x IN [1, 2] | s + x)"
        printed = print_expression(parse_expression(text))
        assert printed == text

    def test_reduce_body_scope_is_checked(self):
        engine = CypherEngine(MemoryGraph())
        with pytest.raises(CypherSemanticError):
            engine.run("RETURN reduce(s = 0, x IN [1] | s + missing) AS r")

    def test_plain_reduce_function_call_still_parses(self):
        # reduce(...) without the accumulator shape is an ordinary call.
        from repro.ast import expressions as ex
        from repro.parser import parse_expression

        assert isinstance(parse_expression("reduce([1, 2])"), ex.FunctionCall)
