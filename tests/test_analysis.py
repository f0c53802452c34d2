"""Unit tests for static semantic analysis (scoping, aggregate placement)."""

import pytest

from repro import parse_query
from repro.exceptions import CypherSemanticError
from repro.semantics.analysis import check_query


def ok(text):
    check_query(parse_query(text))


def bad(text):
    with pytest.raises(CypherSemanticError):
        check_query(parse_query(text))


class TestScoping:
    def test_match_binds_pattern_variables(self):
        ok("MATCH (a)-[r]->(b) RETURN a, r, b")

    def test_unknown_variable_rejected(self):
        bad("MATCH (a) RETURN b")

    def test_with_narrows_scope(self):
        # The paper's Section 3 point: s is not projected by WITH, so it
        # "may no longer be used in the remainder of the query".
        bad("MATCH (r)-->(s) WITH r, count(s) AS c RETURN s")
        ok("MATCH (r)-->(s) WITH r, count(s) AS c RETURN r, c")

    def test_alias_enters_scope(self):
        ok("MATCH (a) WITH a.v AS value RETURN value")
        bad("MATCH (a) WITH a.v AS value RETURN a")

    def test_with_star_keeps_scope(self):
        ok("MATCH (a)-->(b) WITH * RETURN a, b")

    def test_where_sees_pattern_variables(self):
        ok("MATCH (a)-[r]->(b) WHERE r.w > a.v RETURN b")

    def test_where_cannot_see_future_variables(self):
        bad("MATCH (a) WHERE b.v = 1 MATCH (b) RETURN b")

    def test_unwind_alias(self):
        ok("UNWIND [1] AS x RETURN x")
        bad("UNWIND [1] AS x UNWIND [2] AS x RETURN x")
        bad("UNWIND ys AS x RETURN x")

    def test_pattern_property_expressions_use_driving_scope(self):
        # Property maps are evaluated under u (the driving assignment),
        # so referencing a variable bound by the same pattern is an error.
        bad("MATCH (a {v: 1})-->(b {w: a.v}) RETURN b")
        ok("MATCH (a {v: 1}) MATCH (b {w: a.v}) RETURN b")

    def test_comprehension_variables_are_local(self):
        ok("RETURN [x IN [1] | x] AS l")
        bad("RETURN [x IN [1] | x] AS l, x")

    def test_quantifier_variables_are_local(self):
        ok("RETURN any(x IN [1] WHERE x > 0) AS q")
        bad("WITH any(x IN [1] WHERE x > 0) AS q RETURN x")

    def test_pattern_comprehension_locals(self):
        ok("MATCH (a) RETURN [(a)-->(b) | b.v] AS vs")
        bad("MATCH (a) RETURN [(a)-->(b) | b.v] AS vs, b")

    def test_delete_and_set_check_scope(self):
        bad("MATCH (a) DELETE ghost")
        bad("MATCH (a) SET ghost.x = 1")
        bad("MATCH (a) SET ghost:L")
        bad("MATCH (a) REMOVE ghost:L")
        ok("MATCH (a) SET a.x = 1")

    def test_merge_binds_variables(self):
        ok("MERGE (a {k: 1}) RETURN a")
        ok("MERGE (a {k: 1}) ON CREATE SET a.c = 1")

    def test_create_rel_variable_cannot_rebind(self):
        bad("MATCH ()-[r]->() CREATE ()-[r:R]->()")

    def test_order_by_sees_both_scopes(self):
        ok("MATCH (a) RETURN a.v AS v ORDER BY a.w")
        ok("MATCH (a) RETURN a.v AS v ORDER BY v")

    def test_skip_limit_must_be_closed(self):
        bad("MATCH (a) RETURN a LIMIT a.v")
        ok("MATCH (a) RETURN a LIMIT 3")


class TestAggregatePlacement:
    def test_aggregates_allowed_in_projections(self):
        ok("MATCH (a) RETURN count(a) AS c")
        ok("MATCH (a) WITH count(a) AS c RETURN c")

    def test_aggregates_rejected_in_where(self):
        bad("MATCH (a) WHERE count(a) > 1 RETURN a")

    def test_aggregates_rejected_in_unwind(self):
        bad("MATCH (a) UNWIND [count(a)] AS x RETURN x")

    def test_nested_aggregates_rejected(self):
        bad("MATCH (a) RETURN sum(count(a)) AS bad")

    def test_aggregates_rejected_in_pattern_properties(self):
        bad("MATCH (a {v: count(a)}) RETURN a")

    def test_count_star_is_aggregate(self):
        ok("MATCH (a) RETURN count(*) AS c")
        bad("MATCH (a) WHERE count(*) > 0 RETURN a")


class TestUnion:
    def test_both_sides_checked(self):
        bad("RETURN 1 AS x UNION RETURN ghost AS x")
        ok("RETURN 1 AS x UNION RETURN 2 AS x")


class TestUpdatingFlag:
    @pytest.mark.parametrize("text, updating", [
        ("MATCH (n) RETURN n", False),
        ("CREATE (n)", True),
        ("MATCH (n) SET n.x = 1 RETURN n", True),
        ("MATCH (n) DETACH DELETE n", True),
        ("RETURN 1 AS x UNION RETURN 2 AS x", False),
        ("RETURN 1 AS x UNION CREATE (n) RETURN 1 AS x", True),
    ])
    def test_the_check_says_whether_a_statement_updates(self, text, updating):
        assert check_query(parse_query(text)) is updating
