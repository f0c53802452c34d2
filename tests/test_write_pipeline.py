"""The slotted write pipeline: Eager barriers, the store transaction,
planner ≡ interpreter on updating queries, and the plan-cache contract.

Three layers under test:

* **semantics** — read-after-write visibility: a clause's writes must
  not be visible to that clause's own reads (the Eager barrier), but
  must be visible to later clauses and, for MERGE, to later rows of the
  same clause;
* **store** — :class:`StoreTransaction`: deferred deletes in
  relationship-before-node order, the single version bump per commit,
  rollback() after errors;
* **engine** — update queries execute on the planner, and a write
  statement invalidates its own cached plan exactly once per execution
  (observable through the hit/miss counters in ``explain_info``).
"""

import pytest

from repro import CypherEngine
from repro.exceptions import (
    ConstraintViolation,
    CypherSemanticError,
    CypherTypeError,
)
from repro.graph.builder import GraphBuilder
from repro.graph.store import MemoryGraph
from repro.selftest import graph_state


def _seed_graph():
    builder = GraphBuilder()
    for index in range(3):
        builder.node("a%d" % index, "A", v=index, name="a-%d" % index)
    for index in range(2):
        builder.node("b%d" % index, "B", v=index, name="b-%d" % index)
    builder.rel("a0", "R", "a1", w=1)
    builder.rel("a1", "R", "a2", w=2)
    builder.rel("a0", "S", "b0", w=3)
    graph, _ = builder.build()
    return graph


def both_paths(queries):
    """Run the queries on two clones; returns (interp, planned, g1, g2)."""
    if isinstance(queries, str):
        queries = [queries]
    interpreter_graph = _seed_graph()
    planner_graph = _seed_graph()
    interpreter_engine = CypherEngine(interpreter_graph)
    planner_engine = CypherEngine(planner_graph)
    interpreted = planned = None
    for query in queries:
        interpreted = interpreter_engine.run(query, mode="interpreter")
        planned = planner_engine.run(query, mode="planner")
        assert planned.executed_by == "planner", query
    return interpreted, planned, interpreter_graph, planner_graph


def assert_agreement(queries):
    interpreted, planned, interpreter_graph, planner_graph = both_paths(
        queries
    )
    assert interpreted.table.same_bag(planned.table)
    assert graph_state(interpreter_graph) == graph_state(planner_graph)
    return planned


# ---------------------------------------------------------------------------
# Read-after-write visibility (the Eager barrier)
# ---------------------------------------------------------------------------

class TestSnapshotVisibility:
    def test_create_does_not_feed_its_own_scan(self):
        """MATCH (a) CREATE (:Copy): the scan must see only old nodes."""
        planned = assert_agreement("MATCH (n) CREATE (:Copy)")
        assert len(planned) == 5  # one row per pre-existing node

    def test_cross_product_create_self_interaction(self):
        """MATCH (a), (b) CREATE (a)-[:T]->(b): |A×B| edges, no feedback.

        The driving table is pinned with ORDER BY so both paths assign
        relationship ids in the same sequence; the unordered variant is
        covered by :meth:`test_unordered_create_same_edge_multiset`.
        """
        planned = assert_agreement(
            "MATCH (a:A), (b:B) WITH a, b "
            "ORDER BY a.name, b.name, id(a), id(b) "
            "CREATE (a)-[:T]->(b) RETURN count(*) AS n"
        )
        assert planned.value() == 6  # 3 × 2 pairs

    def test_unordered_create_same_edge_multiset(self):
        """Without pinned row order the ids may differ, the edges not."""
        _, _, interpreter_graph, planner_graph = both_paths(
            "MATCH (a:A), (b:B) CREATE (a)-[:T]->(b)"
        )

        def edges(graph):
            return sorted(
                (graph.src(r).value, graph.tgt(r).value, graph.rel_type(r))
                for r in graph.relationships()
            )

        assert edges(interpreter_graph) == edges(planner_graph)

    def test_set_does_not_affect_its_own_where(self):
        """The WHERE reads the pre-clause snapshot, not fresh writes."""
        assert_agreement(
            "MATCH (a:A) WHERE a.v < 2 SET a.v = a.v + 10 "
            "RETURN a.v AS v ORDER BY v"
        )

    def test_delete_then_match_in_one_query(self):
        planned = assert_agreement(
            "MATCH (a:A) DETACH DELETE a "
            "WITH count(*) AS dropped MATCH (n) "
            "RETURN dropped, count(n) AS left"
        )
        assert planned.single() == {"dropped": 3, "left": 2}

    def test_create_then_match_sees_all_new_nodes(self):
        """A later MATCH sees every row's creation, not a prefix."""
        planned = assert_agreement(
            "UNWIND [1, 2] AS i CREATE (c:C {v: i}) "
            "WITH i MATCH (c:C) RETURN i, count(c) AS n"
        )
        # both driving rows observe both created nodes
        assert sorted(
            (record["i"], record["n"]) for record in planned.records
        ) == [(1, 2), (2, 2)]

    def test_merge_sees_rows_created_by_earlier_rows(self):
        planned = assert_agreement(
            "UNWIND [1, 1, 2] AS v MERGE (n:K {v: v}) RETURN count(*) AS c"
        )
        assert planned.value() == 3

    def test_merge_on_create_on_match_sequence(self):
        assert_agreement(
            "UNWIND [1, 1, 1, 2] AS v MERGE (n:K {v: v}) "
            "ON CREATE SET n.created = 1 "
            "ON MATCH SET n.matched = coalesce(n.matched, 0) + 1 "
            "RETURN n.v AS v, n.created AS c, n.matched AS m"
        )

    def test_merge_driven_by_earlier_merge_rows(self):
        """A MERGE whose driving table an earlier MERGE produced."""
        assert_agreement(
            "UNWIND [1, 2, 1] AS v MERGE (n:K {v: v}) "
            "MERGE (n)-[:OUT]->(:Sink {v: v}) "
            "RETURN count(*) AS c"
        )

    def test_stacked_update_clauses(self):
        assert_agreement(
            "MATCH (a:A) CREATE (a)-[:C]->(c:Copy {v: a.v}) "
            "SET c.doubled = c.v * 2 "
            "REMOVE a.name "
            "RETURN count(*) AS n"
        )


# ---------------------------------------------------------------------------
# Error parity between the two paths
# ---------------------------------------------------------------------------

class TestErrorParity:
    @pytest.mark.parametrize("mode", ["interpreter", "planner"])
    def test_delete_connected_node_without_detach(self, mode):
        engine = CypherEngine(_seed_graph())
        with pytest.raises(ConstraintViolation):
            engine.run("MATCH (a:A) DELETE a", mode=mode)

    @pytest.mark.parametrize("mode", ["interpreter", "planner"])
    def test_delete_node_with_its_relationships_needs_no_detach(self, mode):
        """Deleting the rels in the same clause satisfies plain DELETE."""
        engine = CypherEngine(_seed_graph())
        engine.run(
            "MATCH (a:A {v: 2}) OPTIONAL MATCH (a)-[r]-() DELETE r, a",
            mode=mode,
        )
        assert engine.graph.node_count() == 4

    @pytest.mark.parametrize("mode", ["interpreter", "planner"])
    def test_create_through_bound_non_node(self, mode):
        engine = CypherEngine(_seed_graph())
        with pytest.raises(CypherTypeError):
            engine.run("UNWIND [1] AS a CREATE (a)-[:R]->()", mode=mode)

    @pytest.mark.parametrize("mode", ["interpreter", "planner"])
    def test_create_bound_variable_with_labels(self, mode):
        engine = CypherEngine(_seed_graph())
        with pytest.raises(CypherSemanticError):
            engine.run("MATCH (a:A) CREATE (a:Extra)", mode=mode)

    @pytest.mark.parametrize("mode", ["interpreter", "planner"])
    def test_delete_non_entity(self, mode):
        engine = CypherEngine(_seed_graph())
        with pytest.raises(CypherTypeError):
            engine.run("UNWIND [1] AS x DELETE x", mode=mode)

    @pytest.mark.parametrize("mode", ["interpreter", "planner"])
    def test_set_whole_variable_requires_map(self, mode):
        engine = CypherEngine(_seed_graph())
        with pytest.raises(CypherTypeError):
            engine.run("MATCH (a:A) SET a = 5", mode=mode)


# ---------------------------------------------------------------------------
# StoreTransaction
# ---------------------------------------------------------------------------

class TestStoreTransaction:
    def test_single_version_bump_per_commit(self):
        graph = MemoryGraph()
        before = graph.version
        transaction = graph.write_transaction()
        nodes = [transaction.create_node(("N",), {"v": i}) for i in range(10)]
        for index in range(9):
            transaction.create_relationship(
                nodes[index], nodes[index + 1], "R", None
            )
        transaction.set_property(nodes[0], "x", 1)
        assert graph.version == before  # nothing bumped yet
        transaction.commit()
        assert graph.version == before + 1
        assert graph.node_count() == 10

    def test_creations_visible_before_commit(self):
        """Creates apply immediately; only the version bump is deferred."""
        graph = MemoryGraph()
        transaction = graph.write_transaction()
        node = transaction.create_node(("N",), {"v": 1})
        assert graph.has_node(node)
        assert list(graph.nodes_with_label("N")) == [node]
        transaction.commit()

    def test_deletes_deferred_until_flush(self):
        graph = MemoryGraph()
        node = graph.create_node(("N",), None)
        transaction = graph.write_transaction()
        transaction.delete_node(node, detach=True)
        assert graph.has_node(node)  # still visible: buffered
        transaction.flush()
        assert not graph.has_node(node)
        transaction.commit()

    def test_relationships_deleted_before_nodes(self):
        """A plain DELETE of node+rels in one flush needs no DETACH."""
        graph = MemoryGraph()
        a = graph.create_node((), None)
        b = graph.create_node((), None)
        rel = graph.create_relationship(a, b, "R", None)
        transaction = graph.write_transaction()
        transaction.delete_node(a, detach=False)
        transaction.delete_relationship(rel)
        transaction.flush()  # must not raise: rel goes first
        assert not graph.has_node(a)
        assert graph.has_node(b)

    def test_non_detach_delete_of_connected_node_fails_at_flush(self):
        graph = MemoryGraph()
        a = graph.create_node((), None)
        b = graph.create_node((), None)
        graph.create_relationship(a, b, "R", None)
        transaction = graph.write_transaction()
        transaction.delete_node(a, detach=False)
        with pytest.raises(ConstraintViolation):
            transaction.flush()

    def test_double_delete_collapses(self):
        graph = MemoryGraph()
        node = graph.create_node((), None)
        transaction = graph.write_transaction()
        transaction.delete_node(node, detach=True)
        transaction.delete_node(node, detach=True)
        transaction.commit()
        assert transaction.nodes_deleted == 1

    def test_empty_transaction_commits_without_bump(self):
        graph = MemoryGraph()
        before = graph.version
        graph.write_transaction().commit()
        assert graph.version == before

    def test_rollback_discards_applied_changes_without_bump(self):
        graph = MemoryGraph()
        before = graph.version
        transaction = graph.write_transaction()
        node = transaction.create_node(("N",), None)
        transaction.delete_node(node)  # pending, dropped by rollback
        transaction.rollback()
        assert not graph.has_node(node)
        assert graph.version == before

    def test_label_scan_correct_inside_transaction(self):
        """Unversioned label changes must not serve stale scan caches."""
        graph = MemoryGraph()
        node = graph.create_node(("L",), None)
        assert list(graph.nodes_with_label("L")) == [node]  # warm the cache
        transaction = graph.write_transaction()
        transaction.remove_label(node, "L")
        assert list(graph.nodes_with_label("L")) == []
        other = transaction.create_node(("L",), None)
        assert list(graph.nodes_with_label("L")) == [other]
        transaction.commit()

    @pytest.mark.parametrize("mode", ["interpreter", "planner"])
    def test_bulk_create_partial_failure_parity(self, mode):
        """A mid-batch validation error leaves nothing, both paths.

        The statement is atomic: the created prefix rolls back with the
        failing row, and no id is burnt — the next create gets the
        first id.
        """
        engine = CypherEngine(MemoryGraph())
        with pytest.raises(ValueError):
            engine.run(
                "UNWIND $xs AS i CREATE (:N {v: i})",
                parameters={"xs": [1, object()]},
                mode=mode,
            )
        graph = engine.graph
        assert graph.node_count() == 0
        engine.run("CREATE (:After)", mode=mode)
        assert sorted(n.value for n in graph.nodes()) == [1]

    def test_delete_value_collects_paths_and_lists(self):
        engine = CypherEngine(_seed_graph())
        engine.run(
            "MATCH p = (a:A)-[:R]->() DETACH DELETE p", mode="planner"
        )
        assert engine.graph.relationship_count() == 0
        assert engine.graph.node_count() == 2  # only the untouched :B pair


# ---------------------------------------------------------------------------
# Engine: write plans across their own commits
# ---------------------------------------------------------------------------

class TestWritePlanCache:
    def test_write_query_is_cached_and_rehit(self):
        engine = CypherEngine(MemoryGraph())
        query = "CREATE (:X)"
        engine.run(query)
        hits_before = engine.plan_cache_hits
        engine.run(query)  # its own commit only moved the version: a hit
        assert engine.plan_cache_hits == hits_before + 1
        assert engine.graph.node_count() == 2

    def test_stats_sensitive_write_plan_survives_own_commit(self):
        engine = CypherEngine(MemoryGraph())
        engine.run("CREATE (:K {v: 0})")
        query = "MERGE (n:K {v: 1}) ON MATCH SET n.seen = 1"
        engine.run(query)
        cached_before = engine._plan_cache[query][3]
        hits_before = engine.plan_cache_hits
        engine.run(query)
        assert engine.plan_cache_hits == hits_before + 1
        assert engine._plan_cache[query][3] is cached_before

    def test_reshaping_write_replans_itself(self):
        """A stats-sensitive statement that blows up its own label re-plans.

        A statement's own commit is no different from a foreign one: the
        plan stays while :A is within 2x of the count it was costed
        against, and the first lookup past that re-plans on fresh
        statistics.
        """
        engine = CypherEngine(MemoryGraph())
        engine.run("CREATE (:A {v: 0})")
        query = "MATCH (a:A) CREATE (:A {v: a.v + 1})"  # doubles :A per run
        engine.run(query)  # planned against one :A
        cached_before = engine._plan_cache[query][3]
        engine.run(query)  # two :A: within 2x, a hit
        assert engine._plan_cache[query][3] is cached_before
        engine.run(query)  # four :A: drifted, evicted and re-planned
        assert engine._plan_cache[query][3] is not cached_before
        assert engine.plan_cache_info()["evicted_drift"] == 1

    def test_write_invalidates_other_plans_once_per_execution(self):
        """One statement, many mutated clauses — one version step."""
        engine = CypherEngine(MemoryGraph())
        engine.run("CREATE (:A {v: 1})")
        before = engine.graph.version
        engine.run(
            "CREATE (:B) WITH 1 AS one MATCH (b:B) "
            "SET b.v = 1 REMOVE b.v"
        )
        assert engine.graph.version == before + 1

    def test_interpreter_mode_never_counts_cache_traffic(self):
        engine = CypherEngine(MemoryGraph())
        engine.run("CREATE (:X)", mode="interpreter")
        assert engine.plan_cache_hits == 0
        assert engine.plan_cache_misses == 0

    def test_plan_cache_info_shape(self):
        engine = CypherEngine(MemoryGraph())
        engine.run("CREATE (:X)")
        engine.run("CREATE (:X)")
        info = engine.plan_cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["hit_rate"] == 0.5


# ---------------------------------------------------------------------------
# Explain output
# ---------------------------------------------------------------------------

class TestExplainWriteOperators:
    def test_all_write_operators_render(self):
        engine = CypherEngine(_seed_graph())
        plans = {
            "create": engine.explain("MATCH (a:A) CREATE (a)-[:T]->(:New)"),
            "merge": engine.explain("MERGE (n:K {v: 1}) ON CREATE SET n.c = 1"),
            "set": engine.explain("MATCH (a:A) SET a.v = 1, a:Extra"),
            "remove": engine.explain("MATCH (a:A) REMOVE a.v, a:A"),
            "delete": engine.explain("MATCH (a:A) DETACH DELETE a"),
        }
        assert "Create(" in plans["create"] and "Eager" in plans["create"]
        assert "Merge(" in plans["merge"]
        assert "SetProperties(" in plans["set"] and "Eager" in plans["set"]
        assert "RemoveItems(" in plans["remove"]
        assert "DetachDelete(" in plans["delete"] and "Eager" in plans["delete"]

    def test_merge_plan_embeds_its_match_subplan(self):
        engine = CypherEngine(_seed_graph())
        text = engine.explain("MERGE (n:A {v: 99})")
        assert "Merge(n)" in text
        assert "NodeByLabelScan(n:A)" in text or "AllNodesScan(n)" in text
        assert "Argument" in text
