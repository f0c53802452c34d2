"""Grammar-driven query fuzzing: planner ≡ interpreter on generated queries.

The corpus itself — fixture graph, read and update strategies, the
canonical store snapshot — lives in :mod:`fuzztools` so other harnesses
(notably the row/batch/interpreter differential suite in
``test_batched_differential.py``) drive the exact same generators.

Every generated read query must produce the same bag on both execution
paths over a fixed, structurally rich graph, under each of the three
morphism modes; every planned run must also *report* the planner path
(a fuzzed read query falling back to the interpreter is a coverage
regression).  The update corpus runs each generated query on two
*clones* of the fixture graph, one per execution path, and asserts both
the result table (bag equality) and the final graph state (canonical,
id-inclusive snapshot) agree; driving-row order is pinned with ORDER BY
where the mutation sequence is observable, so "agree" really means
byte-identical stores.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import CypherEngine
from repro.exceptions import CypherError

from fuzztools import (
    GRAPH,
    INDEXED_GRAPH,
    MORPHISMS,
    READ_STRATEGIES,
    UPDATE_STRATEGIES,
    comprehension_queries,
    create_update_queries,
    delete_queries,
    graph_state,
    literal_sibling,
    match_queries,
    merge_queries,
    named_path_queries,
    pipeline_queries,
    sample_corpus,
    set_remove_queries,
    two_clause_queries,
    two_hop_queries,
)


class TestFuzzedQueries:
    @settings(max_examples=120, deadline=None)
    @given(query=match_queries())
    def test_single_match_agreement(self, query):
        engine = CypherEngine(GRAPH)
        interpreted = engine.run(query, mode="interpreter")
        planned = engine.run(query, mode="planner")
        assert interpreted.table.same_bag(planned.table), query

    @settings(max_examples=60, deadline=None)
    @given(query=two_clause_queries())
    def test_optional_chain_agreement(self, query):
        engine = CypherEngine(GRAPH)
        interpreted = engine.run(query, mode="interpreter")
        planned = engine.run(query, mode="planner")
        assert interpreted.table.same_bag(planned.table), query

    @settings(max_examples=80, deadline=None)
    @given(query=two_hop_queries())
    def test_two_hop_agreement(self, query):
        engine = CypherEngine(GRAPH)
        interpreted = engine.run(query, mode="interpreter")
        planned = engine.run(query, mode="planner")
        assert interpreted.table.same_bag(planned.table), query

    @settings(max_examples=80, deadline=None)
    @given(query=pipeline_queries())
    def test_pipeline_agreement(self, query):
        engine = CypherEngine(GRAPH)
        interpreted = engine.run(query, mode="interpreter")
        planned = engine.run(query, mode="planner")
        assert interpreted.table.same_bag(planned.table), query

    @settings(max_examples=60, deadline=None)
    @given(query=match_queries())
    def test_rewriter_equivalence_on_fuzzed_queries(self, query):
        raw = CypherEngine(GRAPH, rewrite=False)
        rewriting = CypherEngine(GRAPH, rewrite=True)
        original = raw.run(query, mode="interpreter")
        rewritten = rewriting.run(query, mode="interpreter")
        assert original.table.same_bag(rewritten.table), query

    @settings(max_examples=100, deadline=None)
    @given(query=named_path_queries())
    def test_named_path_agreement(self, query):
        engine = CypherEngine(GRAPH)
        interpreted = engine.run(query, mode="interpreter")
        planned = engine.run(query, mode="planner")
        assert planned.executed_by == "planner", query
        assert interpreted.table.same_bag(planned.table), query

    @settings(max_examples=100, deadline=None)
    @given(query=comprehension_queries())
    def test_comprehension_agreement(self, query):
        engine = CypherEngine(GRAPH)
        interpreted = engine.run(query, mode="interpreter")
        planned = engine.run(query, mode="planner")
        assert planned.executed_by == "planner", query
        assert interpreted.table.same_bag(planned.table), query


def _assert_update_agreement(query):
    interpreter_graph = GRAPH.copy()
    planner_graph = GRAPH.copy()
    interpreted = CypherEngine(interpreter_graph).run(
        query, mode="interpreter"
    )
    planned = CypherEngine(planner_graph).run(query, mode="planner")
    assert planned.executed_by == "planner", query
    assert interpreted.table.same_bag(planned.table), query
    assert graph_state(interpreter_graph) == graph_state(planner_graph), (
        query
    )


class TestFuzzedUpdates:
    """Planner ≡ interpreter on updating queries, graph state included."""

    @settings(max_examples=80, deadline=None)
    @given(query=create_update_queries())
    def test_create_agreement(self, query):
        _assert_update_agreement(query)

    @settings(max_examples=80, deadline=None)
    @given(query=set_remove_queries())
    def test_set_remove_agreement(self, query):
        _assert_update_agreement(query)

    @settings(max_examples=30, deadline=None)
    @given(query=delete_queries())
    def test_delete_agreement(self, query):
        _assert_update_agreement(query)

    @settings(max_examples=80, deadline=None)
    @given(query=merge_queries())
    def test_merge_agreement(self, query):
        _assert_update_agreement(query)

    @settings(max_examples=40, deadline=None)
    @given(
        first=create_update_queries().filter(lambda q: " RETURN " not in q),
        second=set_remove_queries().filter(lambda q: " RETURN " not in q),
    )
    def test_stacked_update_statements(self, first, second):
        """Two updating statements in sequence stay in lock step."""
        interpreter_graph = GRAPH.copy()
        planner_graph = GRAPH.copy()
        interpreter_engine = CypherEngine(interpreter_graph)
        planner_engine = CypherEngine(planner_graph)
        for query in (first, second):
            interpreter_engine.run(query, mode="interpreter")
            planned = planner_engine.run(query, mode="planner")
            assert planned.executed_by == "planner", query
        assert graph_state(interpreter_graph) == graph_state(
            planner_graph
        ), (first, second)


class TestFuzzedMorphisms:
    """Planner ≡ interpreter under every Section 8 morphism mode."""

    @settings(max_examples=40, deadline=None)
    @given(
        query=match_queries(),
        morphism=st.sampled_from(sorted(MORPHISMS)),
    )
    def test_match_agreement_under_all_morphisms(self, query, morphism):
        engine = CypherEngine(GRAPH, morphism=MORPHISMS[morphism])
        interpreted = engine.run(query, mode="interpreter")
        planned = engine.run(query, mode="planner")
        assert planned.executed_by == "planner", (morphism, query)
        assert interpreted.table.same_bag(planned.table), (morphism, query)

    @settings(max_examples=40, deadline=None)
    @given(
        query=named_path_queries(),
        morphism=st.sampled_from(sorted(MORPHISMS)),
    )
    def test_named_path_agreement_under_all_morphisms(self, query, morphism):
        engine = CypherEngine(GRAPH, morphism=MORPHISMS[morphism])
        interpreted = engine.run(query, mode="interpreter")
        planned = engine.run(query, mode="planner")
        assert interpreted.table.same_bag(planned.table), (morphism, query)

    @settings(max_examples=30, deadline=None)
    @given(
        query=two_hop_queries(),
        morphism=st.sampled_from(sorted(MORPHISMS)),
    )
    def test_two_hop_agreement_under_all_morphisms(self, query, morphism):
        engine = CypherEngine(GRAPH, morphism=MORPHISMS[morphism])
        interpreted = engine.run(query, mode="interpreter")
        planned = engine.run(query, mode="planner")
        assert interpreted.table.same_bag(planned.table), (morphism, query)


# ---------------------------------------------------------------------------
# Auto-parameterisation is invisible: metamorphic checks over the corpus
# ---------------------------------------------------------------------------
#
# The engine keys an ad hoc text by its *shape* and binds its literals as
# parameters (README "Plan cache").  One engine that has seen the whole
# corpus — every text served by whichever sibling's plan got there first
# — must be indistinguishable from a fresh engine per text, which plans
# every text for exactly its own literals.


def _outcome(run):
    """``(error class, columns, result)`` of one execution."""
    try:
        result = run()
    except CypherError as error:
        return type(error), None, None
    return None, result.table.fields, result


def _with_siblings(strategies, per_strategy):
    texts = sample_corpus(strategies, per_strategy)
    return list(dict.fromkeys(
        texts + [literal_sibling(text) for text in texts]
    ))


def _twice_shuffled(texts, seed):
    rng = random.Random(seed)
    first, second = list(texts), list(texts)
    rng.shuffle(first)
    rng.shuffle(second)
    return first + second


#: Updates whose MATCH part lifts: the update strategies pin their driving
#: rows with ORDER BY and carry no comparison against a literal.
_LIFTING_UPDATES = [
    "MATCH (a:A) WHERE a.v = 1 SET a.hit = 1",
    "MATCH (a:A) WHERE a.v = 1 REMOVE a:A",
    "MATCH (a:B {v: 2}) WITH a ORDER BY a.name SET a.w = a.v + 1 "
    "RETURN count(*) AS c",
    "MATCH (a) WHERE a.v >= 2 WITH a ORDER BY a.name "
    "CREATE (a)-[:W {k: 7}]->(:New {v: a.v})",
    "MATCH (a:A) WHERE a.v > 0 WITH a ORDER BY a.name "
    "MERGE (m:K {v: a.v}) ON CREATE SET m.made = 1 ON MATCH SET m.seen = 1",
    "MATCH (a:C)-[r:S]->(b) WHERE b.v <> 1 DELETE r RETURN count(*) AS c",
    "MATCH (a:C) WHERE a.v < 3 AND a.name <> 'node-0' DETACH DELETE a",
]


def _returns_in_order(text):
    return "ORDER BY" in text.rsplit("RETURN", 1)[-1]


class TestLiftingIsInvisible:
    @pytest.mark.parametrize("mode", ["row", "batch"])
    @pytest.mark.parametrize("graph", [GRAPH, INDEXED_GRAPH],
                             ids=["plain", "indexed"])
    def test_reads_shared_engine_equals_fresh_engines(self, graph, mode):
        texts = _with_siblings(READ_STRATEGIES, 25)
        shared = CypherEngine(graph)
        for text in _twice_shuffled(texts, seed=16):
            error, columns, fresh = _outcome(
                lambda: CypherEngine(graph).run(text, mode=mode)
            )
            seen_error, seen_columns, seen = _outcome(
                lambda: shared.run(text, mode=mode)
            )
            assert seen_error is error, text
            assert seen_columns == columns, text
            if error is not None:
                continue
            assert seen.execution_mode == fresh.execution_mode, text
            assert fresh.table.same_bag(seen.table), text
            if _returns_in_order(text):
                assert seen.records == fresh.records, text
        info = shared.plan_cache_info()
        assert info["lifted_hits"] > len(texts) // 4
        assert info["misses"] < len(texts)

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_updates_shared_engine_equals_fresh_engines(self, mode):
        texts = _with_siblings(UPDATE_STRATEGIES, 20)
        for text in _LIFTING_UPDATES:
            sibling = literal_sibling(text)
            texts += [text, sibling, literal_sibling(sibling)]
        fresh_graph, shared_graph = GRAPH.copy(), GRAPH.copy()
        shared = CypherEngine(shared_graph)
        for text in _twice_shuffled(texts, seed=61):
            error, columns, fresh = _outcome(
                lambda: CypherEngine(fresh_graph).run(text, mode=mode)
            )
            seen_error, seen_columns, seen = _outcome(
                lambda: shared.run(text, mode=mode)
            )
            assert seen_error is error, text
            assert seen_columns == columns, text
            if error is None:
                assert fresh.table.same_bag(seen.table), text
        assert graph_state(fresh_graph) == graph_state(shared_graph)
        # Deletes drift the statistics and evict; most runs still hit.
        assert shared.plan_cache_info()["lifted_hits"] >= 2 * len(
            _LIFTING_UPDATES
        )

    def test_interpreter_mode_never_lifts(self):
        engine = CypherEngine(GRAPH)
        for text in sample_corpus(READ_STRATEGIES, 5):
            engine.run(text, mode="interpreter")
        info = engine.plan_cache_info()
        assert (info["shapes"], info["entries"], info["misses"]) == (0, 0, 0)
