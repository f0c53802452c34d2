"""Unit tests for sargable extraction and composite/reachability matching.

:mod:`repro.planner.access` sits under the tier-1 coverage floor: it
decides every index-vs-scan access path, so each rejection branch
(unsafe probes, unwitnessed composite columns, capped reachability
probes) is pinned directly rather than via whole-plan assertions.
"""

import pytest

from repro import parse_query
from repro.ast import patterns as pt
from repro.planner import access
from repro.planner.access import (
    CompositeCandidate,
    ReachabilityCandidate,
    Sargable,
    collect_sargable,
    collect_witnesses,
    match_composite,
    reachability_candidate,
)


def where(text):
    query = "MATCH (n:L) WHERE %s RETURN n" % text
    return parse_query(query).clauses[0].where


def sargables(text, variable="n"):
    return collect_sargable(where(text)).get(variable, [])


class TestSargableDescriptions:
    def test_describe_each_kind(self):
        assert Sargable("n", "k", "eq", value=1).describe() == "n.k = …"
        assert Sargable("n", "k", "in", value=[1]).describe() == "n.k IN …"
        assert Sargable("n", "k", "prefix", value="a").describe() == (
            "n.k STARTS WITH …"
        )

    def test_describe_range_shapes(self):
        low = Sargable("n", "k", "range", low=1, low_inclusive=False)
        assert low.describe() == "… < n.k"
        high = Sargable("n", "k", "range", high=9)
        assert high.describe() == "n.k <= …"
        both = Sargable("n", "k", "range", low=1, high=9,
                        high_inclusive=False)
        assert both.describe() == "… <= n.k AND n.k < …"
        empty = Sargable("n", "k", "range")
        assert empty.describe() == "n.k range"

    def test_probe_expressions(self):
        both = Sargable("n", "k", "range", low=1, high=9)
        assert both.probe_expressions() == (1, 9)
        assert Sargable("n", "k", "eq", value=5).probe_expressions() == (5,)


class TestExtraction:
    def test_flipped_comparisons(self):
        (lower,) = sargables("2 < n.b")
        assert lower.kind == "range"
        assert lower.low is not None and not lower.low_inclusive
        (upper,) = sargables("2 >= n.b")
        assert upper.kind == "range"
        assert upper.high is not None and upper.high_inclusive

    def test_chained_comparison_is_not_sargable(self):
        assert sargables("1 < n.a < 5") == []

    def test_property_free_conjuncts_are_ignored(self):
        assert sargables("1 = 2") == []
        assert sargables("1 IN [1, 2]") == []
        assert sargables("'a' STARTS WITH 'b'") == []

    def test_in_with_parameter_container_has_no_size_hint(self):
        # ``IN $param`` fails the infallible gate at the WHERE level …
        assert collect_sargable(where("n.a IN $values")) == {}
        # … but the shape itself extracts, with an unknown plan-time size.
        extracted = access._extract_one(where("n.a IN $values"))
        assert extracted.kind == "in"
        assert extracted.size_hint is None

    def test_in_list_literal_has_size_hint(self):
        (sargable,) = sargables("n.a IN [1, 2, 3]")
        assert sargable.size_hint == 3

    def test_range_merging_in_both_orders(self):
        for text in ("n.a < 5 AND n.a > 1", "n.a > 1 AND n.a < 5"):
            (merged,) = sargables(text)
            assert merged.kind == "range"
            assert merged.low is not None and merged.high is not None

    def test_extra_bound_stays_residual(self):
        (merged,) = sargables("n.a > 1 AND n.a < 5 AND n.a < 9")
        assert merged.low is not None and merged.high is not None

    def test_mixed_kinds_pass_through_merging(self):
        found = sargables("n.a = 1 AND n.b > 2")
        assert [s.kind for s in found] == ["eq", "range"]


class TestWitnesses:
    def test_sargable_shapes_and_is_not_null_witness(self):
        witnesses = collect_witnesses(
            where("n.a = 1 AND n.b IS NOT NULL AND n.c < 3 AND n:M")
        )
        assert witnesses == {"n": {"a", "b", "c"}}

    def test_gates(self):
        assert collect_witnesses(None) == {}
        # Arithmetic can raise per row: the whole WHERE is rejected.
        assert collect_witnesses(where("n.a = 1 / 0")) == {}
        # ``IS NOT NULL`` over a non-property operand witnesses nothing.
        assert collect_witnesses(where("$p IS NOT NULL")) == {}


def _eq(key, value=1):
    return Sargable("n", key, "eq", value=value)


def _range(key):
    return Sargable("n", key, "range", low=1)


def _prefix(key):
    return Sargable("n", key, "prefix", value="x")


class TestMatchComposite:
    def test_full_equality_probe(self):
        candidate = match_composite(("a", "b"), [_eq("a"), _eq("b")], set())
        assert candidate.consumed == 2
        assert candidate.bound is None
        assert candidate.probe_expressions() == (1, 1)
        assert candidate.describe() == "n.a = … AND n.b = …"

    def test_equality_then_bound(self):
        candidate = match_composite(("a", "b"), [_eq("a"), _range("b")], set())
        assert candidate.consumed == 2
        assert candidate.bound is not None
        assert candidate.describe() == "n.a = … AND … <= n.b"
        assert len(candidate.probe_expressions()) == 2

    def test_leading_prefix_bound_with_witness(self):
        candidate = match_composite(("a", "b"), [_prefix("a")], {"b"})
        assert candidate.equalities == ()
        assert candidate.bound is not None
        assert candidate.consumed == 1

    def test_in_is_not_a_composite_probe(self):
        in_sargable = Sargable("n", "a", "in", value=[1], size_hint=1)
        assert match_composite(("a", "b"), [in_sargable], {"a", "b"}) is None

    def test_unwitnessed_deeper_column_rejects(self):
        assert match_composite(("a", "b"), [_eq("a")], set()) is None

    def test_witnessed_deeper_column_accepts_prefix_probe(self):
        candidate = match_composite(("a", "b"), [_eq("a")], {"b"})
        assert candidate.consumed == 1
        assert candidate.keys == ("a", "b")


class _ReachStats:
    def __init__(self, indexes):
        self.reachability_indexes = indexes

    def reachability_index_types(self):
        return self.reachability_indexes.keys()


class _RelPattern:
    def __init__(self, direction, types=frozenset(("R",))):
        self.direction = direction
        self.resolved_types = types


class TestReachabilityCandidate:
    def test_describe(self):
        assert ReachabilityCandidate(None, True).describe() == (
            "reach(<any>, forward)"
        )
        assert ReachabilityCandidate(("R", "S"), False).describe() == (
            "reach(:R|S, reverse)"
        )

    def test_gates_reject_unusable_patterns(self):
        stats = _ReachStats({("R",): {"condensation_diameter": 3}})
        pattern = _RelPattern(pt.LEFT_TO_RIGHT)
        assert reachability_candidate(stats, pattern, False, None) is None
        undirected = _RelPattern(pt.UNDIRECTED)
        assert reachability_candidate(stats, undirected, True, None) is None
        assert reachability_candidate(
            _ReachStats({}), pattern, True, None
        ) is None
        mismatched = _RelPattern(pt.LEFT_TO_RIGHT, types=frozenset(("T",)))
        assert reachability_candidate(stats, mismatched, True, None) is None

    def test_bounded_patterns_defer_to_the_cap_at_the_diameter(self):
        stats = _ReachStats({("R",): {"condensation_diameter": 3}})
        pattern = _RelPattern(pt.LEFT_TO_RIGHT)
        assert reachability_candidate(stats, pattern, True, 3) is None
        above = reachability_candidate(stats, pattern, True, 4)
        assert above is not None and above.forward
        unbounded = reachability_candidate(stats, pattern, True, None)
        assert unbounded is not None

    def test_unknown_diameter_keeps_the_plain_walk(self):
        stats = _ReachStats({("R",): {}})
        pattern = _RelPattern(pt.RIGHT_TO_LEFT)
        assert reachability_candidate(stats, pattern, True, 5) is None
        candidate = reachability_candidate(stats, pattern, True, None)
        assert candidate is not None and not candidate.forward


class TestInlineSargables:
    def test_probe_safe_entries_extract(self):
        query = parse_query("MATCH (n:L {a: 1, b: $p, c: 1 + 2}) RETURN n")
        node_pattern = query.clauses[0].pattern[0].elements[0]
        found = access.inline_sargables(node_pattern, "n")
        assert [s.key for s in found] == ["a", "b"]
        assert all(s.kind == "eq" for s in found)


class TestServedConjuncts:
    """What a chosen index scan answers exactly leaves the residual."""

    def test_merged_range_records_its_conjuncts(self):
        predicate = where("n.a >= 1 AND n.b = 2 AND n.a < 5 AND n.a < 9")
        first, _equality, second, third = access.conjuncts_of(predicate)
        (merged, _eq) = sorted(
            sargables("n.a >= 1 AND n.b = 2 AND n.a < 5 AND n.a < 9"),
            key=lambda s: s.kind != "range",
        )
        assert merged.conjuncts == (first, second)
        assert third not in merged.conjuncts

    def test_range_and_is_not_null_are_served(self):
        predicate = where("n.a >= 1 AND n.a < 5 AND n.a IS NOT NULL "
                          "AND n.b IS NOT NULL AND m.a IS NOT NULL")
        (merged,) = collect_sargable(predicate)["n"]
        served = access.served_conjuncts(
            predicate, "n", ("a",), merged.low, merged.high
        )
        assert len(served) == 3
        left = access.residual(predicate, served)
        assert access.conjuncts_of(left) == access.conjuncts_of(predicate)[3:]
        # A composite scan serves IS NOT NULL on every key, no range.
        composite = access.served_conjuncts(
            predicate, "n", ("a", "b"), merged.low, merged.high
        )
        assert len(composite) == 2

    def test_other_bounds_are_not_served(self):
        predicate = where("n.a >= 1 AND n.a < 5")
        (merged,) = collect_sargable(predicate)["n"]
        other = where("n.a >= 1 AND n.a < 5")
        (foreign,) = collect_sargable(other)["n"]
        # Same text, different expressions: not the chosen scan's bounds.
        assert access.served_conjuncts(
            predicate, "n", ("a",), foreign.low, foreign.high
        ) == []
        assert access.served_conjuncts(
            predicate, "n", ("a",), merged.low, None
        ) == []

    def test_fallible_where_serves_nothing(self):
        predicate = where("n.a >= 1 AND n.a IS NOT NULL AND n.b = 1 / 0")
        assert access.served_conjuncts(predicate, "n", ("a",)) == []

    def test_residual_of_nothing_served_is_the_predicate(self):
        predicate = where("n.a >= 1 AND n.b < 2")
        assert access.residual(predicate, []) is predicate
        assert access.residual(
            predicate, access.conjuncts_of(predicate)
        ) is None


def _social_engine():
    from repro import CypherEngine
    from repro.graph.store import MemoryGraph

    graph = MemoryGraph()
    people = [
        graph.create_node(("Person",), {"id": "p%d" % i}) for i in range(300)
    ]
    for i in range(60):
        post = graph.create_node(
            ("Post",), {"id": i, "creationDate": 1000 + i, "length": i % 9}
        )
        graph.create_relationship(post, people[i % 5], "HAS_CREATOR")
    graph.create_index("Post", "creationDate")
    graph.create_index("Person", "id")
    return CypherEngine(graph)


def _operators(plan):
    stack = [plan]
    while stack:
        op = stack.pop()
        yield op
        stack.extend(op._children())


def _filters(result):
    return [
        op.predicate for op in _operators(result.plan)
        if type(op).__name__ == "Filter"
    ]


class TestResidualPlans:
    WINDOW = {"lo": 1010, "hi": 1030}

    @pytest.mark.parametrize("query", [
        # posts_in_window
        "MATCH (m:Post) WHERE m.creationDate >= $lo AND "
        "m.creationDate < $hi RETURN count(m) AS n",
        # top_posters
        "MATCH (m:Post)-[:HAS_CREATOR]->(p:Person) "
        "WHERE m.creationDate >= $lo AND m.creationDate < $hi "
        "RETURN p.id AS id, count(m) AS n ORDER BY n DESC, id LIMIT 10",
        # the same window under OPTIONAL MATCH
        "OPTIONAL MATCH (m:Post) WHERE m.creationDate >= $lo AND "
        "m.creationDate < $hi RETURN count(m) AS n",
    ])
    def test_window_templates_plan_without_a_filter(self, query):
        engine = _social_engine()
        result = engine.run(query, self.WINDOW)
        kinds = {type(op).__name__ for op in _operators(result.plan)}
        assert "IndexRangeScan" in kinds, result.plan.describe()
        assert not _filters(result), result.plan.describe()
        reference = engine.run(query, self.WINDOW, mode="interpreter")
        assert reference.table.same_bag(result.table)

    def test_latest_posts_drops_is_not_null_over_the_ordered_scan(self):
        engine = _social_engine()
        result = engine.run(
            "MATCH (m:Post) WHERE m.creationDate IS NOT NULL "
            "RETURN m.id AS id, m.creationDate AS created "
            "ORDER BY created DESC LIMIT $k", {"k": 3},
        )
        kinds = {type(op).__name__ for op in _operators(result.plan)}
        assert "IndexOrderedScan" in kinds, result.plan.describe()
        assert not _filters(result), result.plan.describe()
        assert result.values("id") == [59, 58, 57]

    def test_leftover_same_side_bound_stays_residual(self):
        engine = _social_engine()
        result = engine.run(
            "MATCH (m:Post) WHERE m.creationDate >= $lo AND "
            "m.creationDate >= $hi RETURN count(m) AS n", self.WINDOW,
        )
        (predicate,) = _filters(result)
        assert predicate.operands[1].name == "hi"
        assert result.values("n") == [30]

    def test_other_conjuncts_stay_residual(self):
        engine = _social_engine()
        result = engine.run(
            "MATCH (m:Post) WHERE m.creationDate >= $lo AND "
            "m.length > 3 AND m.creationDate < $hi "
            "AND m.id IS NOT NULL RETURN count(m) AS n", self.WINDOW,
        )
        (predicate,) = _filters(result)
        assert len(access.conjuncts_of(predicate)) == 2
        assert result.values("n") == [10]

    def test_a_fallible_where_keeps_its_filter(self):
        engine = _social_engine()
        result = engine.run(
            "MATCH (m:Post) WHERE m.creationDate >= $lo AND "
            "m.creationDate < $hi AND m.length / 1 >= 0 "
            "RETURN count(m) AS n", self.WINDOW,
        )
        (predicate,) = _filters(result)
        assert len(access.conjuncts_of(predicate)) == 3
        assert result.values("n") == [20]

    def test_starts_with_and_composite_ranges_stay_residual(self):
        from repro import CypherEngine
        from repro.graph.store import MemoryGraph

        graph = MemoryGraph()
        for i in range(40):
            graph.create_node(("A",), {"s": "k%02d" % i, "g": i % 2, "v": i})
        graph.create_index("A", "s")
        graph.create_index("A", "g", "v")
        engine = CypherEngine(graph)
        prefix = engine.run(
            "MATCH (a:A) WHERE a.s STARTS WITH 'k1' RETURN count(a) AS n"
        )
        assert len(_filters(prefix)) == 1, prefix.plan.describe()
        assert prefix.values("n") == [10]
        composite = engine.run(
            "MATCH (a:A) WHERE a.g = 1 AND a.v >= 10 AND a.v < 20 "
            "RETURN count(a) AS n"
        )
        kinds = {type(op).__name__ for op in _operators(composite.plan)}
        assert "IndexRangeScan" in kinds, composite.plan.describe()
        assert len(_filters(composite)) == 1, composite.plan.describe()
        assert composite.values("n") == [5]
