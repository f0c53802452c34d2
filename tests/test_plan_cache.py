"""The plan cache's validity rule, and that stale plans stay correct.

A cached plan is evicted by exactly two things: the store's schema
epoch moving (index DDL, ``restore_from``) and a >2x drift of a label or
relationship-type count the plan was costed on.  Commits, rollbacks and
a statement's own writes only move the data version, which costs the
next lookup a re-read of the plan's O(1) footprint counters.

The second half pins that keeping plans is *safe*: a long-lived engine
and a fresh engine per statement end a seeded update stream in the same
store, a dropped index is never probed by a surviving plan, and the
probe scans' emptiness guard no longer rebuilds scan lists after a
commit.
"""

import os
import sys

import pytest

from repro import CypherEngine, CypherError
from repro.cli import _cache_line
from repro.graph.snapshot import SnapshotGraph
from repro.graph.store import MemoryGraph
from repro.planner.planning import (
    footprint_counts,
    plan_depends_on_statistics,
    plan_query,
    plan_statistics_footprint,
)
from repro.parser import parse_query
from repro.selftest import _plan_enters_index, graph_state

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks", "e2e",
    ),
)

from workloads import UpdateStream  # noqa: E402 — needs benchmarks/e2e
from world import build_world  # noqa: E402

READ = "MATCH (a:A)-[:R]->(b:B) WHERE a.v = $v RETURN count(*) AS c"
UPDATE = "MATCH (a:A) WHERE a.v = $v SET a.seen = true"
FOREIGN = "CREATE (:A {v: $v})-[:R]->(:B)"


def seeded_engine(indexed=False):
    """40 :A, 40 :B, 40 :R and 200 unrelated :Pad nodes."""
    graph = MemoryGraph()
    if indexed:
        graph.create_index("A", "v")
    engine = CypherEngine(graph)
    engine.run("UNWIND range(1, 40) AS i CREATE (:A {v: i})-[:R]->(:B)")
    engine.run("UNWIND range(1, 200) AS i CREATE (:Pad {v: i})")
    return engine


def cached_plan(engine, text):
    return engine._plan_cache[text][3]


# ---------------------------------------------------------------------------
# What does not evict
# ---------------------------------------------------------------------------

class TestPlansSurviveCommits:
    def test_read_and_update_plans_survive_foreign_commits(self):
        engine = seeded_engine()
        engine.run(READ, {"v": 1})
        engine.run(UPDATE, {"v": 1})
        read_plan = cached_plan(engine, READ)
        update_plan = cached_plan(engine, UPDATE)
        assert plan_depends_on_statistics(read_plan)
        assert plan_depends_on_statistics(update_plan)
        before = engine.plan_cache_info()
        for v in range(100, 105):
            engine.run(FOREIGN, {"v": v})       # a foreign commit
            assert engine.run(READ, {"v": v}).value("c") == 1
            engine.run(UPDATE, {"v": v})        # and the statement's own
        after = engine.plan_cache_info()
        assert after["misses"] == before["misses"] + 1  # FOREIGN, once
        assert after["hits"] == before["hits"] + 14
        assert after["revalidated"] == before["revalidated"] + 14
        assert after["evicted_drift"] == after["evicted_schema"] == 0
        assert cached_plan(engine, READ) is read_plan
        assert cached_plan(engine, UPDATE) is update_plan

    def test_plans_survive_a_rollback_and_session_commit(self):
        engine = seeded_engine()
        engine.run(READ, {"v": 1})
        engine.run(UPDATE, {"v": 1})
        read_plan = cached_plan(engine, READ)
        update_plan = cached_plan(engine, UPDATE)
        misses = engine.plan_cache_misses
        with engine.session() as session:
            session.begin()
            session.run(UPDATE, {"v": 2})
            session.run(FOREIGN, {"v": 77})
            session.rollback()
            assert session.run(READ, {"v": 77}).value("c") == 0
            session.begin()
            session.run(UPDATE, {"v": 3})
            session.commit()
            assert session.run(READ, {"v": 3}).value("c") == 1
        assert engine.plan_cache_misses == misses + 1  # FOREIGN, once
        assert cached_plan(engine, READ) is read_plan
        assert cached_plan(engine, UPDATE) is update_plan

    def test_unrelated_label_growth_does_not_evict(self):
        engine = seeded_engine()
        engine.run(READ, {"v": 1})
        plan = cached_plan(engine, READ)
        # The store more than triples, but no counter the plan names moves.
        engine.run("UNWIND range(1, 900) AS i CREATE (:Pad {v: i})")
        assert engine.run(READ, {"v": 1}).value("c") == 1
        assert cached_plan(engine, READ) is plan
        assert engine.plan_cache_info()["evicted_drift"] == 0

    def test_equal_version_hit_reads_no_counters(self, monkeypatch):
        engine = seeded_engine()
        engine.run(READ, {"v": 1})
        monkeypatch.setattr(
            MemoryGraph, "label_count",
            lambda self, label: pytest.fail("fast path read a counter"),
        )
        revalidated = engine.plan_cache_revalidated
        assert engine.run(READ, {"v": 2}).value("c") == 1
        assert engine.plan_cache_revalidated == revalidated


# ---------------------------------------------------------------------------
# What evicts
# ---------------------------------------------------------------------------

class TestEviction:
    @pytest.mark.parametrize("ddl", [
        lambda engine: engine.create_index("A", "v"),
        lambda engine: engine.drop_index("B", "w"),
        lambda engine: engine.create_reachability_index(["R"]),
        lambda engine: engine.drop_reachability_index(["S"]),
        lambda engine: engine.graph.restore_from(engine.graph.copy()),
    ], ids=[
        "create_index", "drop_index", "create_reachability_index",
        "drop_reachability_index", "restore_from",
    ])
    def test_schema_epoch_evicts_every_plan(self, ddl):
        engine = seeded_engine()
        engine.graph.create_index("B", "w")
        engine.graph.create_reachability_index(["S"])
        constant = "RETURN 1 AS one"  # no footprint at all: still evicted
        for text in (READ, UPDATE, constant):
            engine.run(text, {"v": 1})
        plans = [cached_plan(engine, t) for t in (READ, UPDATE, constant)]
        epoch = engine.graph.schema_version
        ddl(engine)
        assert engine.graph.schema_version == epoch + 1
        misses = engine.plan_cache_misses
        for text in (READ, UPDATE, constant):
            engine.run(text, {"v": 1})
        assert engine.plan_cache_misses == misses + 3
        assert engine.plan_cache_info()["evicted_schema"] == 3
        for text, old in zip((READ, UPDATE, constant), plans):
            assert cached_plan(engine, text) is not old

    def test_schema_epoch_is_not_moved_by_data(self):
        engine = seeded_engine(indexed=True)
        epoch = engine.graph.schema_version
        engine.run(FOREIGN, {"v": 1})
        with engine.session() as session:
            session.begin()
            session.run(FOREIGN, {"v": 2})
            session.rollback()
        assert engine.graph.schema_version == epoch
        assert engine.graph.copy().schema_version == epoch
        assert engine.graph.create_index("A", "v") is False  # no-op DDL
        assert engine.graph.drop_index("A", "nope") is False
        assert engine.graph.schema_version == epoch

    def test_deferred_ingest_evicts(self):
        engine = seeded_engine(indexed=True)
        engine.run(READ, {"v": 1})
        plan = cached_plan(engine, READ)
        engine.ingest(
            [("more.csv", [":ID(N),:LABEL,v:int", "x,A,500"])],
            defer_indexes=True,
        )
        assert engine.run(READ, {"v": 500}).value("c") == 0
        assert cached_plan(engine, READ) is not plan
        assert engine.plan_cache_info()["evicted_schema"] == 1

    def test_named_label_drift_evicts_though_the_graph_barely_grew(self):
        """The case the old whole-graph size rule missed."""
        engine = seeded_engine()
        size = engine.graph.node_count() + engine.graph.relationship_count()
        engine.run(READ, {"v": 1})
        plan = cached_plan(engine, READ)
        engine.run("UNWIND range(1, 45) AS i CREATE (:A {v: 1000 + i})")
        grown = engine.graph.node_count() + engine.graph.relationship_count()
        assert grown < 2 * size             # whole graph: well within 2x
        assert engine.graph.label_count("A") > 2 * 40
        engine.run(READ, {"v": 1})
        assert cached_plan(engine, READ) is not plan
        assert engine.plan_cache_info()["evicted_drift"] == 1

    def test_shrinking_below_half_evicts_too(self):
        engine = seeded_engine()
        engine.run(READ, {"v": 1})
        plan = cached_plan(engine, READ)
        engine.run("MATCH (a:A) WHERE a.v > 15 DETACH DELETE a")
        assert engine.run(READ, {"v": 1}).value("c") == 1
        assert cached_plan(engine, READ) is not plan
        assert engine.plan_cache_info()["evicted_drift"] == 1

    def test_drift_is_measured_from_planning_time(self):
        """Slow growth accumulates: re-stamping never resets the base."""
        engine = seeded_engine()
        engine.run(READ, {"v": 1})
        plan = cached_plan(engine, READ)
        for _step in range(4):  # 40 -> 72 :A nodes: still within 2x
            engine.run("UNWIND range(1, 8) AS i CREATE (:A {v: 0})")
            engine.run(READ, {"v": 1})
            assert cached_plan(engine, READ) is plan
        engine.run("UNWIND range(1, 10) AS i CREATE (:A {v: 0})")  # 82
        engine.run(READ, {"v": 1})
        assert cached_plan(engine, READ) is not plan


class TestFootprint:
    def plan(self, text, graph=None):
        return plan_query(parse_query(text), graph or MemoryGraph())

    def test_names_scan_and_expand_labels_and_types(self):
        footprint = plan_statistics_footprint(self.plan(READ))
        assert footprint == (("A", "B"), ("R",), False)

    def test_whole_graph_for_untyped_expands_and_competing_free_scans(self):
        assert plan_statistics_footprint(
            self.plan("MATCH (a:A)-->(b) RETURN a")
        ) == (("A",), (), True)
        assert plan_statistics_footprint(
            self.plan("MATCH (a), (b) RETURN a, b")
        ) == ((), (), True)
        assert plan_statistics_footprint(
            self.plan("MATCH (a)-[:R*1..2]->(b) RETURN a")
        ) == ((), ("R",), True)

    def test_empty_exactly_when_statistics_insensitive(self):
        for text in ("MATCH (n) RETURN n", "RETURN 1 AS x", "CREATE (:X)"):
            plan = self.plan(text)
            assert not any(plan_statistics_footprint(plan))
            assert not plan_depends_on_statistics(plan)

    def test_merge_and_optional_subplans_are_walked(self):
        assert plan_statistics_footprint(
            self.plan("MERGE (k:K {v: 1})")
        ) == (("K",), (), False)
        assert plan_statistics_footprint(
            self.plan("MATCH (a:A) OPTIONAL MATCH (a)-[:S]->(c:C) RETURN c")
        ) == (("A", "C"), ("S",), False)

    def test_counts_come_off_the_o1_counters(self):
        engine = seeded_engine()
        graph = engine.graph
        footprint = (("A", "Nope"), ("R",), True)
        assert footprint_counts(footprint, graph) == [
            41, 1, 41, graph.node_count() + 1,
            graph.relationship_count() + 1,
        ]
        with engine.session() as session:
            snapshot = session.snapshot()
            engine.run("MATCH (a:A) WHERE a.v > 30 DETACH DELETE a")
            view = snapshot.graph
            assert isinstance(view, SnapshotGraph)
            assert graph.label_count("A") == 30
            assert graph.type_count("R") == 30
            assert view.label_count("A") == 40  # live count ± the delta
            assert view.type_count("R") == 40
            assert view.label_count("Pad") == 200  # untouched: live count
            assert view.type_count("Nope") == 0
            # Pin-time counts on the view; drift is validated against the
            # live store, whose schema epoch the view shares.
            assert footprint_counts(footprint, view) == [
                41, 1, 41, view.node_count() + 1,
                view.relationship_count() + 1,
            ]
            assert view.schema_version == graph.schema_version
            engine.create_index("A", "v")
            assert view.schema_version == graph.schema_version


# ---------------------------------------------------------------------------
# Stale plans stay correct
# ---------------------------------------------------------------------------

class TestStalePlansStayCorrect:
    def test_dropped_index_is_never_probed_by_a_cached_plan(self):
        engine = seeded_engine(indexed=True)
        query = "MATCH (a:A) WHERE a.v = $v RETURN a.v AS v"
        before = engine.run(query, {"v": 7})
        assert _plan_enters_index(before.plan)
        assert engine.drop_index("A", "v") is True
        after = engine.run(query, {"v": 7})
        assert not _plan_enters_index(after.plan)
        assert after.table.same_bag(before.table)
        assert engine.plan_cache_info()["evicted_schema"] == 1

    def test_long_lived_engine_matches_a_fresh_engine_per_statement(self):
        """200 transactions of the benchmark's seeded update stream."""
        world = build_world(0.05, 7)
        states = []
        for fresh in (False, True):
            graph = world.graph.copy()
            engine = CypherEngine(graph)
            stream = UpdateStream(world.handles, 7)
            with engine.session() as session:
                try:
                    for transaction in stream.take(200):
                        session.begin()
                        for text, parameters in transaction.statements:
                            if fresh:  # no plan outlives its statement
                                session.engine = CypherEngine(graph)
                            session.run(text, parameters).records
                        if transaction.abort:
                            session.rollback()
                        else:
                            session.commit()
                finally:
                    session.engine = engine  # it holds the admission slot
            if not fresh:
                info = engine.plan_cache_info()
                assert info["misses"] <= 15
                assert info["revalidated"] > 200
            states.append(graph_state(graph))
        assert states[0] == states[1]

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_probe_scan_after_commit_rebuilds_no_scan_list(
        self, mode, monkeypatch
    ):
        engine = seeded_engine(indexed=True)
        probe = "MATCH (a:A) WHERE a.v = $v RETURN count(*) AS c"
        result = engine.run(probe, {"v": 3}, mode=mode)
        assert _plan_enters_index(result.plan)
        assert result.execution_mode == mode
        engine.run("CREATE (:A {v: 3})")  # a commit: scan caches dropped
        rebuilds = []
        original = MemoryGraph._cached_scan

        def counting(self, kind, name):
            rebuilds.append((kind, name))
            return original(self, kind, name)

        monkeypatch.setattr(MemoryGraph, "_cached_scan", counting)
        assert engine.run(probe, {"v": 3}, mode=mode).value("c") == 2
        assert rebuilds == []


class TestHasLabelNodes:
    """Same truth value as ``bool(label_scan_ids(label))``, everywhere."""

    def agree(self, graph, labels=("A", "B", "Gone", "Never")):
        for label in labels:
            assert graph.has_label_nodes(label) == bool(
                graph.label_scan_ids(label)
            ), label

    def test_live_store_including_in_transaction_changes(self):
        graph = MemoryGraph()
        self.agree(graph)
        transaction = graph.write_transaction(record_undo=True)
        node = transaction.create_node(["A"], {"v": 1})
        assert graph.has_label_nodes("A")  # visible before the commit
        self.agree(graph)
        transaction.add_label(node, "Gone")
        transaction.remove_label(node, "Gone")
        assert not graph.has_label_nodes("Gone")  # empty set left behind
        self.agree(graph)
        transaction.rollback()
        assert not graph.has_label_nodes("A")
        self.agree(graph)

    def test_snapshot_view_derives_membership_from_the_entity_delta(self):
        engine = CypherEngine(MemoryGraph())
        engine.run("CREATE (:A), (:Gone)")
        with engine.session() as session:
            snapshot = session.snapshot()
            engine.run("MATCH (g:Gone) DELETE g")
            engine.run("CREATE (:B)")
            view = snapshot.graph
            assert view.has_label_nodes("Gone")   # deleted after the pin
            assert not view.has_label_nodes("B")  # created after the pin
            assert view.has_label_nodes("A")      # untouched: live index
            # The untouched label hands out the live cached scan itself.
            assert view.label_scan_ids("A") is engine.graph.label_scan_ids("A")
            self.agree(view)
            self.agree(engine.graph)


# ---------------------------------------------------------------------------
# Observability, and explain ≡ run
# ---------------------------------------------------------------------------

class TestObservability:
    def test_info_shape_and_report_lines(self):
        engine = seeded_engine()
        engine.run(READ, {"v": 1})
        engine.run(FOREIGN, {"v": 9})
        engine.run(READ, {"v": 1})       # revalidated hit
        engine.create_index("A", "v")
        engine.run(READ, {"v": 1})       # schema eviction
        info = engine.plan_cache_info()
        assert set(info) == {
            "hits", "misses", "hit_rate", "entries",
            "revalidated", "evicted_schema", "evicted_drift",
        }
        assert info["revalidated"] == 1
        assert info["evicted_schema"] == 1
        assert info["evicted_drift"] == 0
        assert engine.explain_info(READ)[3] == info
        line = _cache_line(info)
        assert "1 revalidated" in line
        assert "evicted: 1 schema, 0 drift" in line

    def test_cli_explain_prints_the_new_counters(self, capsys):
        from repro.cli import main

        assert main(["explain", "MATCH (n) RETURN n"]) == 0
        out = capsys.readouterr().out
        assert "0 revalidated, evicted: 0 schema, 0 drift" in out


class TestExplainMirrorsRun:
    @pytest.mark.parametrize("query", [
        "MATCH (n) RETURN m",
        "RETURN count(count(1)) AS c",
        "MATCH (n) WHERE count(n) > 1 RETURN n",
        "MATCH (n) DELETE m",
        "MATCH (n) RETURN n.v AS a, n.w AS a",
        "MATCH (n RETURN n",
    ])
    def test_invalid_statements_fail_identically(self, query):
        engine = CypherEngine(MemoryGraph())
        raised = []
        for entry in (engine.run, engine.explain, engine.explain_info):
            with pytest.raises(CypherError) as caught:
                entry(query)
            raised.append((type(caught.value), str(caught.value)))
        assert raised[0] == raised[1] == raised[2]
        assert raised[0][0] is not CypherError  # a specific subclass

    def test_valid_statements_still_explain(self):
        engine = seeded_engine()
        assert "NodeByLabelScan" in engine.explain(READ)
        assert engine.explain_info(UPDATE)[0] == "planner"
