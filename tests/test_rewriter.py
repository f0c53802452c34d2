"""Unit + equivalence tests for the query rewriter.

Each rule's soundness argument lives in the rewriter module; here we
check both the syntactic effect of every rule and — more importantly —
that rewritten queries produce the same bag as the originals on real
graphs (the paper's "reason about the equivalence of queries" claim,
made executable).
"""

import pytest

from repro import parse_expression, parse_query
from repro.ast import clauses as cl
from repro.ast import expressions as ex
from repro.ast.printer import print_expression, print_query
from repro.datasets.paper import figure1_graph, figure4_graph
from repro.rewriter import rewrite_expression, rewrite_query

from fuzztools import assert_rewrite_law


class TestConstantFolding:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("1 + 2 * 3", "7"),
            ("2 ^ 3", "8.0"),
            ("1 < 2", "true"),
            ("1 = 1 AND 2 = 2", "true"),
            ("'a' + 'b'", "'ab'"),
            ("5 IN [1, 5]", "true"),
            ("[1, 2, 3][1]", "2"),
            ("null IS NULL", "true"),
            ("NOT true", "false"),
            ("-(3)", "-3"),
        ],
    )
    def test_folds(self, source, expected):
        rewritten = rewrite_expression(parse_expression(source))
        assert print_expression(rewritten) == expected

    def test_variables_block_folding(self):
        rewritten = rewrite_expression(parse_expression("x + 2 * 3"))
        assert print_expression(rewritten) == "x + 6"

    def test_erroring_expressions_are_left_alone(self):
        # 1/0 must still raise at runtime, so it must not fold (or vanish)
        rewritten = rewrite_expression(parse_expression("1 / 0"))
        assert isinstance(rewritten, ex.Arithmetic)

    def test_null_propagation_folds(self):
        rewritten = rewrite_expression(parse_expression("1 + null"))
        assert rewritten == ex.Literal(None)


class TestBooleanSimplification:
    def test_double_negation(self):
        rewritten = rewrite_expression(parse_expression("NOT NOT x"))
        assert rewritten == ex.Variable("x")

    def test_and_identity(self):
        assert rewrite_expression(parse_expression("x AND true")) == ex.Variable("x")
        assert rewrite_expression(parse_expression("true AND x")) == ex.Variable("x")

    def test_and_absorbing(self):
        # x AND false = false even when x is null (3VL)
        assert rewrite_expression(parse_expression("x AND false")) == ex.Literal(False)

    def test_or_identity_and_absorbing(self):
        assert rewrite_expression(parse_expression("x OR false")) == ex.Variable("x")
        assert rewrite_expression(parse_expression("x OR true")) == ex.Literal(True)

    def test_nested_simplification_cascades(self):
        rewritten = rewrite_expression(
            parse_expression("NOT NOT (x AND (1 < 2))")
        )
        assert rewritten == ex.Variable("x")


class TestClauseRules:
    def test_where_true_dropped(self):
        query = rewrite_query(parse_query("MATCH (a) WHERE 1 < 2 RETURN a"))
        assert query.clauses[0].where is None

    def test_where_false_kept(self):
        query = rewrite_query(parse_query("MATCH (a) WHERE 1 > 2 RETURN a"))
        assert query.clauses[0].where == ex.Literal(False)

    def test_passthrough_filter_pushdown(self):
        query = rewrite_query(
            parse_query("MATCH (a) WITH a WHERE a.v > 1 RETURN a")
        )
        match = query.clauses[0]
        with_clause = query.clauses[1]
        assert match.where is not None
        assert with_clause.where is None

    def test_pushdown_respects_existing_where(self):
        query = rewrite_query(
            parse_query("MATCH (a) WHERE a.v > 0 WITH a WHERE a.w > 1 RETURN a")
        )
        match = query.clauses[0]
        assert isinstance(match.where, ex.BinaryLogic)
        assert match.where.operator == "AND"

    def test_no_pushdown_through_aggregation(self):
        query = rewrite_query(
            parse_query("MATCH (a) WITH a, count(*) AS c WHERE c > 1 RETURN a")
        )
        assert query.clauses[0].where is None
        assert query.clauses[1].where is not None

    def test_no_pushdown_through_distinct_or_limit(self):
        for text in (
            "MATCH (a) WITH DISTINCT a WHERE a.v > 1 RETURN a",
            "MATCH (a) WITH a LIMIT 5 WHERE a.v > 1 RETURN a",
            "MATCH (a) WITH a.v AS w WHERE w > 1 RETURN w",
        ):
            query = rewrite_query(parse_query(text))
            assert query.clauses[0].where is None, text

    def test_no_pushdown_into_optional_match(self):
        query = rewrite_query(
            parse_query(
                "MATCH (x) OPTIONAL MATCH (a) WITH a WHERE a.v > 1 RETURN a"
            )
        )
        assert query.clauses[1].where is None  # optional match untouched
        assert query.clauses[2].where is not None

    def test_union_sides_rewritten(self):
        query = rewrite_query(
            parse_query("RETURN 1 + 1 AS x UNION RETURN 2 AS x")
        )
        item = query.left.clauses[0].projection.items[0]
        assert item.expression == ex.Literal(2)


EQUIVALENCE_QUERIES = [
    "MATCH (n) WHERE true RETURN n",
    "MATCH (n) WHERE 1 < 2 AND n.acmid > 200 RETURN n.acmid",
    "MATCH (a)-[:CITES]->(b) WITH a, b WHERE a.acmid > b.acmid RETURN a, b",
    "MATCH (r:Researcher) WITH r WHERE NOT NOT r.name STARTS WITH 'N' "
    "RETURN r.name",
    "MATCH (n) RETURN n.acmid + 0 * 5 AS id",
    "UNWIND [1 + 1, 2 * 2] AS x RETURN x",
    "MATCH (a) WITH a, count(*) AS c WHERE c = 1 RETURN a",
    "MATCH (x)-[:KNOWS*1..2]->(y) WITH x, y WHERE x.id < 99 RETURN x, y",
]


class TestEquivalence:
    @pytest.mark.parametrize("query_text", EQUIVALENCE_QUERIES)
    @pytest.mark.parametrize("graph_factory", [figure1_graph, figure4_graph])
    def test_rewrite_preserves_results(self, query_text, graph_factory):
        graph, _ = graph_factory()
        assert_rewrite_law(graph, query_text)

    @pytest.mark.parametrize("query_text", EQUIVALENCE_QUERIES)
    def test_rewritten_text_reparses(self, query_text):
        rewritten = rewrite_query(parse_query(query_text))
        assert parse_query(print_query(rewritten)) == rewritten

    def test_rewriting_is_idempotent(self):
        for query_text in EQUIVALENCE_QUERIES:
            once = rewrite_query(parse_query(query_text))
            twice = rewrite_query(once)
            assert once == twice
