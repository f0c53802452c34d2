"""The plan cache's validity rule, and that stale plans stay correct.

A cached plan is evicted by exactly two things: the store's schema
epoch moving (index DDL) and a >2x drift of a label or
relationship-type count the plan was costed on.  Commits, rollbacks and
a statement's own writes only move the data version, which costs the
next lookup a re-read of the plan's O(1) footprint counters.

The second half pins that keeping plans is *safe*: a long-lived engine
and a fresh engine per statement end a seeded update stream in the same
store, a dropped index is never probed by a surviving plan, and the
probe scans' emptiness guard no longer rebuilds scan lists after a
commit.

The third part is about what a cached plan keeps *below* the logical
plan: the compiled pipeline of its last execution, parked on the plan
object.  A run that takes it must be indistinguishable from one that
compiles from scratch — same rows after a write, same errors, same
transaction — and everything that would make it stale must be seen at
the take.
"""

import bisect
import copy
import functools
import gc
import os
import re
import sys
import threading
import time
import types
import weakref

import pytest

from repro import CypherEngine, CypherError
from repro.cli import _cache_line
from repro.exceptions import (
    CypherTypeError,
    ParameterNotBound,
    QueryCancelled,
    QueryTimeout,
    TransactionError,
)
from repro.functions import default_registry
from repro.graph.snapshot import SnapshotGraph
from repro.graph.store import MemoryGraph
from repro.planner import execute_plan, execute_plan_batched
from repro.planner import logical as lg
from repro.planner.physical import PIPELINE_STATS
from repro.planner.planning import (
    footprint_counts,
    plan_depends_on_statistics,
    plan_query,
    plan_statistics_footprint,
)
from repro.parser import Parser, parse_query, tokenize
from repro.runtime.cancel import CancelToken
from repro.selftest import graph_state
from repro.semantics.table import Table
from repro.values.base import NodeId

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        "benchmarks", "e2e",
    ),
)

import fuzztools  # noqa: E402
import workloads  # noqa: E402 — needs benchmarks/e2e
from workloads import UpdateStream  # noqa: E402
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


def _plan_enters_index(plan):
    """True when the plan provably uses a property-index access path."""
    stack = [plan]
    while stack:
        op = stack.pop()
        if isinstance(
            op, (lg.IndexScan, lg.IndexRangeScan, lg.IndexOrderedScan)
        ):
            return True
        stack.extend(op._children())
    return False


# ---------------------------------------------------------------------------
# What does not evict
# ---------------------------------------------------------------------------

class TestPlansSurviveCommits:
    @pytest.mark.smoke
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
    @pytest.mark.smoke
    @pytest.mark.parametrize("ddl", [
        lambda engine: engine.create_index("A", "v"),
        lambda engine: engine.drop_index("B", "w"),
        lambda engine: engine.create_reachability_index(["R"]),
        lambda engine: engine.drop_reachability_index(["S"]),
    ], ids=[
        "create_index", "drop_index", "create_reachability_index",
        "drop_reachability_index",
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
        transaction = graph.write_transaction()
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
# The parked pipeline is indistinguishable from a fresh compile
# ---------------------------------------------------------------------------

SOLO = "MATCH (s:Solo) RETURN s.v AS v"
POINT = "MATCH (a:A) WHERE a.v = $v RETURN a.v AS v"
COVERED = (
    "MATCH (c:C) WHERE c.k = $k AND c.name IS NOT NULL RETURN c.name AS n"
)


def parked(engine, text, mode, armed=False, profiled=False, view=None):
    """The pipeline parked on ``text``'s cached plan for ``mode`` and the
    (armed, profiled) variant — on the plan, or on a snapshot ``view`` —
    or None."""
    plan = cached_plan(engine, text)
    if view is None:
        parking = getattr(plan, "_parked", None) or {}
    else:
        parking = view.parked_pipelines.get(id(plan), (plan, {}))[1]
    slot = parking.get((mode, armed, profiled))
    return slot[0] if slot else None


def stats_delta(before):
    return {
        name: PIPELINE_STATS[name] - before[name] for name in PIPELINE_STATS
    }


def reachable_from(root, stop):
    """Everything ``root`` keeps alive, not walking into ``stop`` objects.

    Functions are followed through their closure cells and defaults
    only — their globals (and so every imported module) are not state a
    pipeline holds.
    """
    seen = {id(item): item for item in stop}
    stack = [root]
    found = []
    while stack:
        item = stack.pop()
        if id(item) in seen or isinstance(item, (type, types.ModuleType)):
            continue
        seen[id(item)] = item
        found.append(item)
        if isinstance(item, types.FunctionType):
            stack.extend(
                (item.__closure__, item.__defaults__, item.__kwdefaults__)
            )
        else:
            stack.extend(gc.get_referents(item))
    return found


@pytest.mark.parametrize("mode", ["row", "batch"])
class TestParkedPipelineEqualsFreshCompile:
    @pytest.mark.smoke
    def test_second_run_takes_the_parked_pipeline(self, mode):
        engine = seeded_engine(indexed=True)
        before = dict(PIPELINE_STATS)
        assert engine.run(POINT, {"v": 3}, mode=mode).records == [{"v": 3}]
        first = parked(engine, POINT, mode)
        assert first is not None
        assert engine.run(POINT, {"v": 4}, mode=mode).records == [{"v": 4}]
        assert parked(engine, POINT, mode) is first
        assert stats_delta(before) == {
            "compiled": 1, "reused": 1, "contended": 0,
        }
        assert parked(engine, POINT, "batch" if mode == "row" else "row") is None

    @pytest.mark.smoke
    def test_a_write_between_runs_is_seen(self, mode):
        """Fails on the row engine without the memo reset: its property
        memo compares NodeId identity and the scan hands out the same
        object run after run."""
        engine = CypherEngine(MemoryGraph())
        engine.run("CREATE (:Solo {v: 1})")
        assert engine.run(SOLO, mode=mode).records == [{"v": 1}]
        engine.run("MATCH (s:Solo) SET s.v = 2")
        assert engine.run(SOLO, mode=mode).records == [{"v": 2}]
        assert parked(engine, SOLO, mode) is not None

    @pytest.mark.smoke
    def test_unbound_after_bound_raises(self, mode):
        engine = seeded_engine(indexed=True)
        assert engine.run(POINT, {"v": 3}, mode=mode).records == [{"v": 3}]
        with pytest.raises(ParameterNotBound):
            engine.run(POINT, {}, mode=mode)
        with pytest.raises(ParameterNotBound):
            engine.run(POINT, None, mode=mode)
        assert engine.run(POINT, {"v": 5}, mode=mode).records == [{"v": 5}]

    @pytest.mark.smoke
    def test_error_mid_stream_then_clean_rerun(self, mode):
        text = "UNWIND $xs AS x RETURN x * 2 AS y"
        engine = CypherEngine(MemoryGraph())
        good = {"xs": [1, 2, 3, 4]}
        want = CypherEngine(MemoryGraph()).run(text, good, mode=mode).records
        assert engine.run(text, good, mode=mode).records == want
        with pytest.raises(CypherTypeError):
            engine.run(text, {"xs": [1, 2, "three", 4]}, mode=mode)
        assert parked(engine, text, mode) is None  # a failed run keeps nothing
        assert engine.run(text, good, mode=mode).records == want
        assert engine.run(text, good, mode=mode).records == want

    def test_a_parked_pipeline_references_no_rows(self, mode):
        engine = seeded_engine()
        text = (
            "MATCH (a:A)-[:R]->(b:B) WHERE a.v >= $v "
            "RETURN a.v AS v, b AS b ORDER BY v"
        )
        result = engine.run(text, {"v": 1}, mode=mode)
        assert len(result.records) == 40
        pipeline = parked(engine, text, mode)
        kept = reachable_from(
            pipeline, stop=(engine.graph, cached_plan(engine, text))
        )
        assert not [item for item in kept if isinstance(item, Table)]
        assert not [item for item in kept if isinstance(item, NodeId)]
        assert pipeline.context.evaluator.parameters == {}

    def test_eviction_frees_the_closures_without_the_collector(self, mode):
        engine = seeded_engine()
        engine.run(READ, {"v": 1}, mode=mode)
        context = weakref.ref(parked(engine, READ, mode).context)
        gc.disable()
        try:
            engine.create_index("A", "v")   # schema epoch: the plan goes
            engine.run(READ, {"v": 1}, mode=mode)
            assert context() is None
        finally:
            gc.enable()


class TestParkedPipelineValidity:
    def test_modes_morsel_size_and_functions_never_share_closures(self):
        def registry(answer):
            functions = default_registry().copy()
            functions.register(
                "answer", lambda context: answer, min_arity=0, max_arity=0
            )
            return functions

        text = "MATCH (a:A) WHERE a.v = $v RETURN answer() AS r"
        engine = seeded_engine()
        one, two = registry(1), registry(2)
        for _round in range(3):
            for mode in ("row", "batch"):
                for functions, want in ((one, 1), (two, 2)):
                    engine.functions = functions
                    got = engine.run(text, {"v": 1}, mode=mode)
                    assert got.execution_mode == mode
                    assert got.records == [{"r": want}]
        row, batch = parked(engine, text, "row"), parked(engine, text, "batch")
        assert row is not batch and row.source is not batch.source
        before = dict(PIPELINE_STATS)
        for size in (4, 4, 7, 7, None):
            engine.morsel_size = size
            engine.run(text, {"v": 1}, mode="batch")
        # 4: new, 4: taken, 7: new, 7: taken, default: new.
        assert stats_delta(before) == {
            "compiled": 3, "reused": 2, "contended": 0,
        }

    @pytest.mark.parametrize("replace", [
        lambda engine: (
            engine.drop_index("C", "k", "name"),
            engine.create_index("C", "k", "name"),
        ),
        lambda engine: engine.ingest(
            [("more.csv", [":ID(N),:LABEL,k:int,name", "x,C,1,late"])],
            defer_indexes=True,
        ),
        lambda engine: rolled_back_write(engine),
    ], ids=["drop_create", "deferred_ingest", "rollback"])
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_a_replaced_index_object_is_never_read_again(self, replace, mode):
        """The covering scan's closures hold the index object itself."""
        graph = MemoryGraph()
        graph.create_index("C", "k", "name")
        engine = CypherEngine(graph)
        engine.run(
            "UNWIND range(1, 6) AS i "
            "CREATE (:C {k: i % 2, name: 'c' + toString(i)})"
        )
        assert "covering" in engine.explain(COVERED)
        first = engine.run(COVERED, {"k": 1}, mode=mode)
        assert sorted(first.values("n")) == ["c1", "c3", "c5"]
        old_index = graph._index("C", ("k", "name"))
        epoch = graph.schema_version
        replace(engine)
        new_index = graph._index("C", ("k", "name"))
        # Every path that replaces an index object moves the epoch; the
        # ones that keep the object (undo replay) may keep the epoch.
        assert (new_index is not old_index) == (graph.schema_version != epoch)
        engine.run("MATCH (c:C {name: 'c3'}) SET c.name = 'renamed'")
        got = engine.run(COVERED, {"k": 1}, mode=mode)
        want = CypherEngine(graph.copy()).run(COVERED, {"k": 1}, mode=mode)
        assert sorted(got.values("n")) == sorted(want.values("n"))
        assert "renamed" in got.values("n") and "c3" not in got.values("n")
        # The engine re-planned (the epoch evicts); a caller that holds
        # the plan object itself — the benchmark's hand replay — relies
        # on the take-time check alone.
        assert first.plan is not got.plan or graph.schema_version == epoch
        before = dict(PIPELINE_STATS)
        by_hand = (
            execute_plan(
                first.plan, graph, {"k": 1}, morphism=engine.morphism,
                read_only=True,
            )
            if mode == "row"
            else execute_plan_batched(
                first.plan, graph, {"k": 1}, morphism=engine.morphism
            )
        )
        assert stats_delta(before)["reused"] == (new_index is old_index)
        assert sorted(by_hand.column("n")) == sorted(want.values("n"))

    def test_reachability_ddl_moves_the_epoch_too(self):
        engine = seeded_engine()
        text = "MATCH (a:A {v: $v})-[:R*]->(b:B) RETURN count(b) AS c"
        for ddl in (
            engine.create_reachability_index,
            engine.drop_reachability_index,
        ):
            assert engine.run(text, {"v": 1}).value("c") == 1
            epoch = engine.graph.schema_version
            assert ddl(["R"]) is True
            assert engine.graph.schema_version == epoch + 1
        assert engine.run(text, {"v": 1}).value("c") == 1

    def test_updates_compile_per_execution_and_keep_their_semantics(self):
        """A write operator captures its statement's transaction, so an
        update is never parked — and counts as compiled every time."""
        engine = seeded_engine()
        graph = engine.graph
        fresh = CypherEngine(graph.copy())
        version = fresh.graph.version
        fresh.run(UPDATE, {"v": 999})
        first_run_delta = fresh.graph.version - version
        before = dict(PIPELINE_STATS)
        for _run in range(3):                        # matches nothing
            version = graph.version
            engine.run(UPDATE, {"v": 999})
            assert graph.version - version == first_run_delta
        version = graph.version
        engine.run(UPDATE, {"v": 1})                 # and one that matches
        assert graph.version == version + 1
        assert parked(engine, UPDATE, "row") is None
        assert stats_delta(before) == {
            "compiled": 4, "reused": 0, "contended": 0,
        }

    def test_second_execution_joins_the_session_transaction_too(self):
        engine = seeded_engine()
        engine.run(UPDATE, {"v": 1})
        engine.run(FOREIGN, {"v": 500})
        seen = "MATCH (a:A) WHERE a.seen RETURN count(*) AS c"
        assert engine.run(seen).value("c") == 1
        state = graph_state(engine.graph)
        with engine.session() as session:
            session.begin()
            version = engine.graph.version
            session.run(UPDATE, {"v": 2})
            session.run(UPDATE, {"v": 3})
            session.run(FOREIGN, {"v": 501})
            assert engine.graph.version == version   # nothing committed yet
            # The read's parked pipeline sees the uncommitted writes.
            assert session.run(seen).value("c") == 3
            with pytest.raises(CypherError):         # outside the session
                engine.run(UPDATE, {"v": 999})
            session.rollback()
        assert graph_state(engine.graph) == state
        assert engine.run(seen).value("c") == 1
        with engine.session() as session:
            session.begin()
            session.run(UPDATE, {"v": 2})
            session.commit()
        assert engine.run(seen).value("c") == 2
        assert parked(engine, seen, "batch") is not None


def rolled_back_write(engine):
    with engine.session() as session:
        session.begin()
        session.run("MATCH (c:C) SET c.name = 'gone', c.k = 7")
        session.run("CREATE (:C {k: 1, name: 'never'})")
        session.rollback()


class TestParkedPipelineSharing:
    def test_threads_get_their_own_rows(self):
        engine = seeded_engine(indexed=True)
        engine.run(POINT, {"v": 1})
        wrong = []

        def client(offset):
            for step in range(200):
                v = 1 + (offset * 5 + step) % 40
                records = engine.run(POINT, {"v": v}).records
                if records != [{"v": v}]:
                    wrong.append((offset, v, records))

        threads = [
            threading.Thread(target=client, args=(offset,))
            for offset in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []

    def test_a_function_may_re_enter_the_same_text(self):
        text = "RETURN again($depth) AS reached"
        functions = default_registry().copy()
        engine = CypherEngine(MemoryGraph(), functions=functions)

        def again(context, depth):
            if depth == 0:
                return 0
            return 1 + engine.run(text, {"depth": depth - 1}).value("reached")

        functions.register("again", again, min_arity=1, max_arity=1)
        assert engine.run(text, {"depth": 0}).value("reached") == 0
        before = dict(PIPELINE_STATS)
        assert engine.run(text, {"depth": 3}).value("reached") == 3
        # The outer run holds the parked pipeline; each nested one finds
        # the slot empty, compiles its own and offers it back.
        assert stats_delta(before) == {
            "compiled": 3, "reused": 1, "contended": 3,
        }
        assert engine.run(text, {"depth": 1}).value("reached") == 1

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_profiled_and_cancellable_runs_leave_it_untouched(self, mode):
        """Profiled and armed runs park their own variants and reuse
        them; the plain run's parked pipeline is never taken by them."""
        engine = seeded_engine(indexed=True)
        engine.run(POINT, {"v": 3}, mode=mode)
        kept = parked(engine, POINT, mode)
        fresh = CypherEngine(engine.graph.copy()).run(
            POINT, {"v": 3}, mode=mode, profile=True
        )
        before = dict(PIPELINE_STATS)
        for _run in range(2):
            profiled = engine.run(POINT, {"v": 3}, mode=mode, profile=True)
            assert profiled.access_paths == fresh.access_paths
            assert profiled.access_paths[0]["actual_rows"] == 1
            assert engine.run(
                POINT, {"v": 3}, mode=mode, timeout=60
            ).records == [{"v": 3}]
        assert parked(engine, POINT, mode) is kept
        assert parked(engine, POINT, mode, profiled=True) is not None
        assert parked(engine, POINT, mode, armed=True) is not None
        # Each variant's first run compiles; its second reuses.
        assert stats_delta(before) == {
            "compiled": 2, "reused": 2, "contended": 0,
        }

        token = CancelToken()
        calls = []
        functions = default_registry().copy()

        def tripwire(context, value):
            calls.append(value)
            if len(calls) == 3:
                token.cancel()
            return value

        functions.register("tripwire", tripwire, min_arity=1, max_arity=1)
        engine.functions = functions
        slow = "UNWIND range(1, 5000) AS i RETURN tripwire(i) AS i"
        assert len(engine.run(slow, mode=mode).records) == 5000
        kept = parked(engine, slow, mode)
        del calls[:]
        with pytest.raises(QueryCancelled):
            engine.run(slow, mode=mode, cancel=token)
        assert parked(engine, slow, mode) is kept
        assert parked(engine, slow, mode, armed=True) is None
        del calls[:]
        assert len(engine.run(slow, mode=mode).records) == 5000

    def test_a_dirty_snapshot_read_parks_nothing(self):
        """Nothing on the plan: a dirty view parks its pipelines on
        itself, reuses them, and leaves the live store's untouched."""
        engine = seeded_engine(indexed=True)
        engine.run(POINT, {"v": 3})
        kept = parked(engine, POINT, "batch")
        before = dict(PIPELINE_STATS)
        session = engine.session()
        snapshot = session.snapshot()
        assert snapshot.run(POINT, {"v": 3}).records == [{"v": 3}]  # clean
        assert stats_delta(before)["reused"] == 1
        engine.run("MATCH (a:A) WHERE a.v = 3 SET a.v = 300")
        view = snapshot.graph
        assert isinstance(view, SnapshotGraph)
        before = dict(PIPELINE_STATS)
        for _run in range(2):
            for mode in ("row", "batch"):
                got = snapshot.run(POINT, {"v": 3}, mode=mode)
                assert got.records == [{"v": 3}]         # pin-time answer
        assert stats_delta(before) == {
            "compiled": 2, "reused": 2, "contended": 0,
        }
        assert parked(engine, POINT, "batch") is kept
        assert parked(engine, POINT, "row") is None
        for mode in ("row", "batch"):
            assert parked(engine, POINT, mode, view=view).graph is view
        released = weakref.ref(view)
        session.close()
        assert view.parked_pipelines == {}  # no cycle left to collect
        del view, snapshot, session, got
        gc.collect()
        assert released() is None
        assert engine.run(POINT, {"v": 3}).records == []
        assert engine.run(POINT, {"v": 300}).records == [{"v": 300}]


@functools.lru_cache(maxsize=1)
def chain_graph():
    """A 300-node ``(:N {v, u})-[:R {w: 1}]->`` chain, indexed on ``v``
    and reachability-indexed on ``:R``; never written, only copied."""
    graph = MemoryGraph()
    graph.create_index("N", "v")
    engine = CypherEngine(graph)
    engine.run("UNWIND range(0, 299) AS i CREATE (:N {v: i, u: i})")
    engine.run(
        "UNWIND range(1, 299) AS i MATCH (a:N {v: i - 1}), (b:N {v: i}) "
        "CREATE (a)-[:R {w: 1}]->(b)"
    )
    engine.create_reachability_index(["R"])
    return graph


def chain_engine():
    """An engine over a copy of :func:`chain_graph`, plus the ``wire``
    its ``tripwire(x)`` reads: at call ``at`` it cancels ``token``, and
    every call sleeps ``sleep`` seconds."""
    wire = {"calls": 0, "at": 0, "token": None, "sleep": 0}

    def tripwire(context, value):
        wire["calls"] += 1
        if wire["calls"] == wire["at"]:
            wire["token"].cancel()
        if wire["sleep"]:
            time.sleep(wire["sleep"])
        return value

    functions = default_registry().copy()
    functions.register("tripwire", tripwire, min_arity=1, max_arity=1)
    return CypherEngine(chain_graph().copy(), functions=functions), wire


#: One text per cancellation site, every row or walk step paying one
#: ``tripwire`` call: the per-operator guard, and the per-step checks
#: inside the variable-length walk and the reachability-probed walk.
#: No literals, so each text is its own cache key.
ARMED_SITES = {
    "operator": (
        "MATCH (n:N) WHERE tripwire(n.u) >= $first RETURN count(n) AS c"
    ),
    "var_length": (
        "MATCH (a:N {v: $first})-[:R* {w: tripwire($one)}]->(b) "
        "RETURN count(b) AS c"
    ),
    "reachability": (
        "MATCH (a:N {v: $first}), (b:N {v: $last}) "
        "MATCH (a)-[:R* {w: tripwire($one)}]->(b) RETURN count(*) AS c"
    ),
}
ARMED = {"first": 0, "one": 1, "last": 299}

#: Profiled texts whose scan records depend on ``$low``: an index range,
#: a label scan served as column slices on the batch engine, and the two
#: probed walks.
PROFILED = [
    "MATCH (n:N) WHERE n.v >= $low RETURN count(n) AS c",
    "MATCH (n:N) WHERE n.u >= $low RETURN count(n) AS c",
    "MATCH (a:N {v: $low})-[:R*]->(b) RETURN count(b) AS c",
    "MATCH (a:N {v: $low}), (b:N {v: $last}) "
    "MATCH (a)-[:R*]->(b) RETURN count(*) AS c",
]


class WeakToken(CancelToken):
    """A token a test can hold a weak reference to."""


def armed_run(engine, text, mode, **options):
    return engine.run(text, ARMED, mode=mode, **options).records


@pytest.mark.parametrize("mode", ["row", "batch"])
class TestArmedAndProfiledRunsRebind:
    """An armed or profiled read takes its variant's parked pipeline and
    binds this run's deadline, token and fresh scan records to it."""

    @pytest.mark.parametrize("site", sorted(ARMED_SITES))
    def test_a_fired_token_is_never_checked_again(self, mode, site):
        engine, _wire = chain_engine()
        text = ARMED_SITES[site]
        want = armed_run(engine, text, mode)
        assert want and want[0]["c"] > 0
        first = CancelToken()
        assert armed_run(engine, text, mode, cancel=first) == want
        kept = parked(engine, text, mode, armed=True)
        assert kept is not None and kept.context.cancel.token is None
        first.cancel()
        before = dict(PIPELINE_STATS)
        assert armed_run(engine, text, mode, cancel=CancelToken()) == want
        assert stats_delta(before)["reused"] == 1
        assert parked(engine, text, mode, armed=True) is kept

    @pytest.mark.parametrize("site", sorted(ARMED_SITES))
    def test_a_token_fired_mid_run_cancels_a_reused_pipeline(
        self, mode, site
    ):
        engine, wire = chain_engine()
        text = ARMED_SITES[site]
        want = armed_run(engine, text, mode, cancel=CancelToken())
        wire["calls"], wire["at"], wire["token"] = 0, 150, CancelToken()
        before = dict(PIPELINE_STATS)
        with pytest.raises(QueryCancelled):
            armed_run(engine, text, mode, cancel=wire["token"])
        assert stats_delta(before)["reused"] == 1
        assert wire["calls"] < 300
        # The interrupted run kept nothing; the next armed one compiles.
        assert parked(engine, text, mode, armed=True) is None
        assert armed_run(engine, text, mode, cancel=CancelToken()) == want

    @pytest.mark.parametrize("site", sorted(ARMED_SITES))
    def test_a_deadline_expiring_mid_run_times_out_a_reused_pipeline(
        self, mode, site
    ):
        engine, wire = chain_engine()
        text = ARMED_SITES[site]
        armed_run(engine, text, mode, timeout=3600)
        wire["calls"], wire["sleep"] = 0, 0.001
        before = dict(PIPELINE_STATS)
        with pytest.raises(QueryTimeout):
            armed_run(engine, text, mode, timeout=0.03)
        assert stats_delta(before)["reused"] == 1
        assert wire["calls"] < 300

    def test_a_parked_armed_pipeline_holds_no_token(self, mode):
        engine, _wire = chain_engine()
        text = ARMED_SITES["var_length"]
        token = WeakToken()
        armed_run(engine, text, mode, cancel=token, timeout=3600)
        cancel = parked(engine, text, mode, armed=True).context.cancel
        assert cancel.token is None and cancel.deadline is None
        released = weakref.ref(token)
        del token
        assert released() is None

    @pytest.mark.parametrize("text", PROFILED)
    def test_each_profiled_run_reports_its_own_records(self, mode, text):
        engine, _wire = chain_engine()

        def profiled(engine, low):
            return engine.run(
                text, {"low": low, "last": 299}, mode=mode, profile=True
            ).access_paths

        first = profiled(engine, 100)
        reported = copy.deepcopy(first)
        before = dict(PIPELINE_STATS)
        second = profiled(engine, 250)
        assert stats_delta(before)["reused"] == 1
        assert first == reported
        for paths, low in ((first, 100), (second, 250)):
            assert all(path["actual_rows"] > 0 for path in paths)
            # A live tally (the batch label scan's column_slices) too.
            assert all(path.get("column_slices", True) for path in paths)
            assert paths == profiled(chain_engine()[0], low)


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
            "hits", "misses", "hit_rate", "entries", "shapes",
            "lifted_hits", "revalidated", "evicted_schema", "evicted_drift",
        }
        pipelines = engine.pipeline_info()
        assert pipelines == PIPELINE_STATS and pipelines is not PIPELINE_STATS
        assert set(pipelines) == {"compiled", "reused", "contended"}
        assert info["revalidated"] == 1
        assert info["evicted_schema"] == 1
        assert info["evicted_drift"] == 0
        assert engine.explain_info(READ)[3] == dict(info, lifts=False)
        line = _cache_line(info, pipelines)
        assert "1 revalidated" in line
        assert "evicted: 1 schema, 0 drift" in line
        assert line.endswith(
            "; pipelines: %d compiled, %d reused, %d contended" % (
                pipelines["compiled"], pipelines["reused"],
                pipelines["contended"],
            )
        )

    def test_cli_explain_prints_the_new_counters(self, capsys):
        from repro.cli import main

        assert main(["explain", "MATCH (n) RETURN n"]) == 0
        out = capsys.readouterr().out
        assert "0 revalidated, evicted: 0 schema, 0 drift; pipelines: " in out

    def test_repl_schema_prints_the_cache_line(self):
        import io

        from repro.cli import Shell

        out = io.StringIO()
        shell = Shell(CypherEngine(MemoryGraph()), output=out)
        shell.handle("RETURN 1 AS one")
        shell.handle("RETURN 1 AS one")
        shell.handle(":schema")
        assert "plan cache: 1 hit(s), 1 miss(es)" in out.getvalue()
        assert "contended" in out.getvalue()


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


# ---------------------------------------------------------------------------
# Shape keys: ad hoc text takes the parameterised path
# ---------------------------------------------------------------------------
#
# A statement whose literals lift is cached under its shape — the token
# texts with every literal replaced by its kind, plus the texts of the
# literals that stayed — and runs with the lifted values bound as
# parameters.  None of that may be visible except in the counters.

def _operators(plan_text):
    """The operator tree of a ``describe()`` text: names and nesting."""
    return [
        re.match(r"( *)(\w+)", line).groups()
        for line in plan_text.splitlines()
    ]


def _entries(engine):
    return engine.plan_cache_info()["entries"]


def _benchmark_texts(world):
    """The fourteen ``benchmarks/e2e`` template texts, parameters inlined."""
    rng = workloads.seeded(7, "test", "templates")
    texts = []
    for template in workloads.INTERACTIVE + workloads.ANALYTIC:
        forms = [(template.text, template.draw)]
        if template.adhoc is not None:
            forms.append(template.adhoc)
        for text, draw in forms:
            texts.append(workloads.inline(text, draw(rng, world.handles)))
    assert len(texts) == 14
    return texts


@pytest.fixture(scope="module")
def social():
    return build_world(1.0, 7)


class TestLiftedPlanIsTheLiteralPlan:
    """The invariant: same operator tree, a bound rendered differently."""

    @pytest.mark.parametrize("graph", [
        fuzztools.INDEXED_GRAPH, fuzztools.COMPOSITE_INDEXED_GRAPH,
    ], ids=["indexed", "composite"])
    def test_corpus_plans_equal_explain(self, graph):
        strategies = dict(fuzztools.READ_STRATEGIES)
        strategies.update(fuzztools.UPDATE_STRATEGIES)
        texts = fuzztools.sample_corpus(strategies, 25)
        texts += [fuzztools.literal_sibling(text) for text in texts]
        lifted = 0
        for text in dict.fromkeys(texts):
            engine = CypherEngine(graph.copy())
            result = engine.run(text)
            lifted += engine.explain_info(text)[3]["lifts"]
            (entry,) = engine._plan_cache.values()
            assert entry[3] is result.plan
            assert _operators(result.plan.describe()) == _operators(
                engine.explain(text)
            ), text
        assert lifted > 50

    def test_benchmark_templates_plan_alike(self, social):
        unlifted = []
        for text in _benchmark_texts(social):
            engine = CypherEngine(social.graph)
            plan = engine.run(text).plan
            assert _operators(plan.describe()) == _operators(
                engine.explain(text)
            ), text
            if not engine.explain_info(text)[3]["lifts"]:
                unlifted.append(text)
        # The parameterised latest_posts varies LIMIT, which stays.
        assert len(unlifted) == 1 and "LIMIT" in unlifted[0]

    def test_latest_posts_keeps_its_ordered_scan(self, social):
        engine = CypherEngine(social.graph)
        template = workloads.INTERACTIVE[5]
        assert template.name == "latest_posts"
        text, draw = template.adhoc
        rng = workloads.seeded(7, "test", "latest")
        # The direct oracle: every Post's creationDate, read off the
        # store once — the ten largest at or under a bound are a slice.
        graph = social.graph
        stamps = sorted(
            graph.node_property(node, "creationDate")
            for node in graph.label_scan_ids("Post")
        )
        seen = set()
        while len(seen) < 100:
            parameters = draw(rng, social.handles)
            query = workloads.inline(text, parameters)
            if query in seen:
                continue
            seen.add(query)
            result = engine.run(query, profile=True)
            assert "IndexOrderedScan" in result.plan.describe()
            assert "Top" not in result.plan.describe()
            (path,) = result.access_paths
            assert path["actual_rows"] <= 16
            under = bisect.bisect_right(stamps, parameters["ts"])
            assert result.values("created") == stamps[
                max(under - 10, 0):under
            ][::-1]
            if len(seen) % 20 == 0:
                # The interpreter sorts the whole label per text; a
                # sample of it keeps the direct oracle honest.
                oracle = engine.run(query, mode="interpreter")
                assert result.values("created") == oracle.values("created")
        info = engine.plan_cache_info()
        assert (info["misses"], info["lifted_hits"]) == (1, 99)

    def test_posts_in_window_is_priced_by_the_histogram(self, social):
        template = workloads.INTERACTIVE[6]
        assert template.name == "posts_in_window"
        rng = workloads.seeded(7, "test", "window")
        for _sample in range(5):
            engine = CypherEngine(social.graph)
            query = workloads.inline(
                template.text, template.draw(rng, social.handles)
            )
            (path,) = engine.run(query, profile=True).access_paths
            assert path["operator"] == "IndexRangeScan"
            estimated = path["estimated_rows"] + 1
            actual = path["actual_rows"] + 1
            assert actual / 2 <= estimated <= actual * 2, (query, path)
            # The parameterised form still gets the flat constant: user
            # parameters are never peeked at.
            lo, hi = re.findall(r"\d{6,}", query)
            (flat,) = engine.run(
                template.text, {"lo": int(lo), "hi": int(hi)}, profile=True
            ).access_paths
            assert flat["estimated_rows"] > 10 * estimated


class TestLiftPolicy:
    """What never lifts, by cache-entry count and by result."""

    @staticmethod
    def engine():
        engine = CypherEngine(MemoryGraph())
        engine.run(
            "UNWIND range(1, 6) AS i "
            "CREATE (:N {x: i, k: i % 2})-[:R]->(:N {x: i + 10, k: 2})"
        )
        assert _entries(engine) == 1
        return engine

    def both(self, first, second, entries, parameters=None):
        """Run two texts: entries they add, and their results."""
        engine = self.engine()
        oracle = CypherEngine(engine.graph, mode="interpreter")
        results = []
        for text in (first, second):
            result = engine.run(text, parameters)
            assert result.table.same_bag(oracle.run(text, parameters).table)
            results.append(result)
        assert _entries(engine) - 1 == entries, engine._plan_cache.keys()
        return results

    @pytest.mark.smoke
    def test_a_where_comparison_shares_one_entry(self):
        one, two = self.both(
            "MATCH (n:N) WHERE n.x = 1 RETURN n.x AS x",
            "MATCH (n:N) WHERE n.x = 12 RETURN n.x AS x", entries=1,
        )
        assert (one.values("x"), two.values("x")) == ([1], [12])
        assert one.plan is two.plan

    def test_a_pattern_map_value_shares_one_entry(self):
        one, two = self.both(
            "MATCH (n:N {x: 3})-[r:R]->(m {k: 2}) RETURN m.x AS x",
            "MATCH (n:N {x: 4})-[r:R]->(m {k: 2}) RETURN m.x AS x",
            entries=1,
        )
        assert (one.values("x"), two.values("x")) == ([13], [14])

    def test_projection_literals_stay(self):
        one, two = self.both("RETURN 5", "RETURN 6", entries=2)
        assert (one.table.fields, two.table.fields) == (("5",), ("6",))
        one, two = self.both(
            "MATCH (n:N) RETURN n.x = 5", "MATCH (n:N) RETURN n.x = 6",
            entries=2,
        )
        assert one.table.fields == ("n.x = 5",)
        assert two.table.fields == ("n.x = 6",)

    def test_limit_and_skip_stay(self):
        one, two = self.both(
            "MATCH (n:N) RETURN n.x AS x ORDER BY x LIMIT 3",
            "MATCH (n:N) RETURN n.x AS x ORDER BY x LIMIT 4", entries=2,
        )
        assert (len(one), len(two)) == (3, 4)
        one, two = self.both(
            "MATCH (n:N) RETURN n.x AS x ORDER BY x SKIP 10",
            "MATCH (n:N) RETURN n.x AS x ORDER BY x SKIP 11", entries=2,
        )
        assert (len(one), len(two)) == (2, 1)

    def test_hop_bounds_stay(self):
        one, two = self.both(
            "MATCH (n:N {k: 1})-[*1..1]->(m) RETURN count(*) AS c",
            "MATCH (n:N {k: 1})-[*0..1]->(m) RETURN count(*) AS c",
            entries=2,
        )
        assert (one.value(), two.value()) == (3, 6)

    def test_in_lists_stay(self):
        one, two = self.both(
            "MATCH (n:N) WHERE n.x IN [1, 2] RETURN count(*) AS c",
            "MATCH (n:N) WHERE n.x IN [1, 30] RETURN count(*) AS c",
            entries=2,
        )
        assert (one.value(), two.value()) == (2, 1)

    def test_set_values_stay(self):
        engine = self.engine()
        engine.run("MATCH (n:N) WHERE n.x = 1 SET n.y = 1")
        engine.run("MATCH (n:N) WHERE n.x = 2 SET n.y = 2")  # shape hit
        engine.run("MATCH (n:N) WHERE n.x = 3 SET n.y = 1")  # shape hit
        assert _entries(engine) - 1 == 2
        assert engine.plan_cache_info()["lifted_hits"] == 1
        assert engine.run(
            "MATCH (n:N) WHERE n.y IS NOT NULL RETURN n.x AS x, n.y AS y "
            "ORDER BY x"
        ).records == [
            {"x": 1, "y": 1}, {"x": 2, "y": 2}, {"x": 3, "y": 1},
        ]

    def test_create_and_merge_patterns_stay(self):
        engine = self.engine()
        for v in (1, 2):
            engine.run("CREATE (:C {v: %d})" % v)
            engine.run("MERGE (:M {v: %d})" % v)
        assert _entries(engine) - 1 == 4
        assert engine.plan_cache_info()["lifted_hits"] == 0
        assert "MERGE (:M {v: 2})" in engine._plan_cache

    def test_map_expressions_stay(self):
        one, two = self.both(
            "MATCH (n:N) WHERE n.x = {k: 1}.k RETURN n.x AS x",
            "MATCH (n:N) WHERE n.x = {k: 2}.k RETURN n.x AS x", entries=2,
        )
        assert (one.values("x"), two.values("x")) == ([1], [2])

    def test_a_backtracked_parse_forgets_what_it_lifted(self):
        # ``({k: 1}…`` is first tried as a node pattern, whose map value
        # lifts, then re-parsed as a parenthesised map expression.
        one, two = self.both(
            "MATCH (n:N) WHERE ({k: 1}.k = n.x) RETURN n.x AS x",
            "MATCH (n:N) WHERE ({k: 2}.k = n.x) RETURN n.x AS x", entries=2,
        )
        assert (one.values("x"), two.values("x")) == ([1], [2])
        parser = Parser(
            tokenize("MATCH (n) WHERE ({k: 1}.k = n.x) AND (n.x = 4) "
                     "AND exists((n {k: 2})) RETURN n"),
            lift=True,
        )
        parser.parse_query()
        assert parser.lift_mask == (None, "#1", "#2")

    def test_signed_and_computed_operands_never_share_a_folded_value(self):
        one, two = self.both(
            "MATCH (n:N) WHERE n.x > -5 RETURN count(*) AS c",
            "MATCH (n:N) WHERE n.x > -50 RETURN count(*) AS c", entries=2,
        )
        assert (one.value(), two.value()) == (12, 12)
        one, two = self.both(
            "MATCH (n:N) WHERE n.x = 1 + 2 RETURN n.x AS x",
            "MATCH (n:N) WHERE n.x = 1 + 3 RETURN n.x AS x", entries=2,
        )
        assert (one.values("x"), two.values("x")) == ([3], [4])

    def test_a_constant_comparison_lifts_like_any_other(self):
        one, two = self.both(
            "MATCH (n:N) WHERE 1 = 1 AND n.k = 0 RETURN count(*) AS c",
            "MATCH (n:N) WHERE 1 = 2 AND n.k = 0 RETURN count(*) AS c",
            entries=1,
        )
        assert (one.value(), two.value()) == (3, 0)
        assert one.plan is two.plan

    def test_kind_is_part_of_the_shape(self):
        engine = CypherEngine(MemoryGraph())
        engine.run("UNWIND [1, 1.0, '1', 2, 'x', null, true] AS v "
                   "CREATE (:T {x: v})")
        oracle = CypherEngine(engine.graph, mode="interpreter")
        counts = []
        for literal in ("1", "1.0", "'1'", "2", "2.0", "'x'"):
            for operator in ("=", "<", ">="):
                text = "MATCH (t:T) WHERE t.x %s %s RETURN count(*) AS c" % (
                    operator, literal,
                )
                got = engine.run(text).value()
                assert got == oracle.run(text).value(), text
                counts.append(got)
        # Three operators x three kinds; values never add an entry.
        assert _entries(engine) - 1 == 9
        assert engine.plan_cache_info()["lifted_hits"] == 9
        assert counts[0] == 2 and counts[6] == 1  # = 1, = '1'

    def test_a_reserved_user_parameter_name_runs_unlifted(self):
        engine = self.engine()
        text = "MATCH (n:N) WHERE n.x = 1 OR n.x = $`#0` RETURN count(*) AS c"
        assert engine.run(text, {"#0": 2}).value() == 2
        plain = "MATCH (n:N) WHERE n.x = 1 RETURN n.x + $p AS v"
        assert engine.run(plain, {"p": 1, "#0": 7}).value() == 2
        assert engine.plan_cache_info()["lifted_hits"] == 0
        assert plain in engine._plan_cache
        assert engine.run(plain, {"p": 1}).value() == 2    # that text: a hit
        for value in (2, 3):                               # its shape
            text = plain.replace("= 1", "= %d" % value)
            assert engine.run(text, {"p": 1}).value() == value + 1
        assert engine.plan_cache_info()["lifted_hits"] == 1

    def test_backticked_text_is_keyed_by_text(self):
        engine = self.engine()
        text = "MATCH (`n`:N) WHERE `n`.x = 1 RETURN count(*) AS c"
        assert engine.run(text).value() == 1
        assert text in engine._plan_cache
        assert not engine.explain_info(text)[3]["lifts"]

    @pytest.mark.parametrize("text", [
        "MATCH (n:N) WHERE n.x = 1 RETURN m",
        "MATCH (n:N) WHERE n.x = 1 RETURN count(count(n)) AS c",
        "MATCH (n:N) WHERE count(n) > 1 RETURN n",
        "MATCH (n:N) WHERE n.x = 1 RETURN n.x AS a, n.k AS a",
        "MATCH (n:N {x: 1}) DELETE m",
        "MATCH (n:N) WHERE n.x = 1 RETURN n UNION MATCH (n:N) RETURN n.x",
        "MATCH (n:N) WHERE n.x = 1 RETURN",
        "FROM GRAPH g MATCH (n:N) WHERE n.x = 1 RETURN GRAPH h",
    ])
    def test_errors_read_the_same_lifted_or_not(self, text):
        engine = self.engine()
        raised = []
        for entry in (engine.run, engine.explain):
            with pytest.raises(CypherError) as caught:
                entry(text) if entry == engine.explain else entry(
                    text, mode="planner"
                )
            raised.append((type(caught.value), str(caught.value)))
        assert raised[0] == raised[1]
        assert "#" not in raised[0][1]
        assert _entries(engine) == 1

    def test_runtime_errors_keep_their_class(self):
        engine = self.engine()
        engine.run("CREATE (:N {x: 'text', k: 9})")
        oracle = CypherEngine(engine.graph, mode="interpreter")
        for text in (
            "MATCH (n:N) WHERE n.k = 9 RETURN n.x + 1 AS v",
            "MATCH (n:N) WHERE n.k = 9 RETURN n.x / 0 AS v",
            "MATCH (n:N) WHERE n.x = 1 RETURN 1 / 0 AS v",
            "MATCH (n:N) WHERE n.x / 0 = 1 RETURN n",
        ):
            outcomes = []
            for run in (engine.run, engine.run, oracle.run):
                try:
                    outcomes.append(run(text).records)
                except CypherError as error:
                    outcomes.append((type(error), str(error)))
            assert outcomes[0] == outcomes[1] == outcomes[2], text


class TestShapeCacheBounds:
    @pytest.mark.smoke
    def test_many_literals_of_one_shape_occupy_one_entry(self):
        engine = TestLiftPolicy.engine()
        for value in range(300):
            got = engine.run(
                "MATCH (n:N) WHERE n.x = %d RETURN count(*) AS c" % value
            ).value()
            assert got == (1 if 1 <= value <= 6 or 11 <= value <= 16 else 0)
        info = engine.plan_cache_info()
        assert (info["entries"], info["shapes"]) == (2, 2)
        assert (info["misses"], info["lifted_hits"]) == (2, 299)

    def test_many_shapes_obey_the_one_limit(self):
        engine = TestLiftPolicy.engine()
        limit = engine._PLAN_CACHE_LIMIT
        for index in range(limit + 44):
            text = "MATCH (n:N) WHERE n.x = 1 RETURN n.x AS x, %d AS y" % index
            assert engine.run(text).records == [{"x": 1, "y": index}]
        assert len(engine._plan_cache) == limit
        assert all(
            isinstance(key, tuple) for key in list(engine._plan_cache)[1:]
        )
        # One skeleton serves them all: the projected literal is a kept
        # literal, part of the key but not of the skeleton.
        assert engine.plan_cache_info()["shapes"] == 2
        for index in range(limit + 44):
            engine.run(
                "MATCH (n:N) WHERE n.x = 1 RETURN n.x AS c%d" % index
            )
        assert len(engine._plan_cache) == limit
        assert len(engine._shapes) == limit

    def test_a_miss_is_counted_once_per_statement(self):
        engine = TestLiftPolicy.engine()
        before = engine.plan_cache_info()
        engine.run("MATCH (n:N) WHERE n.x = 1 RETURN n")      # shape miss
        engine.run("MATCH (n:N) WHERE n.x = 2 RETURN n")      # shape hit
        engine.run("MATCH (n:N) RETURN count(*) AS c")        # text miss
        engine.run("MATCH (n:N) RETURN count(*) AS c")        # text hit
        with pytest.raises(CypherError):
            engine.run("MATCH (n:N) WHERE n.x = 1 RETURN")    # no plan
        with pytest.raises(CypherError):
            engine.run("MATCH (n:N) WHERE n.x = '1 RETURN n")  # no tokens
        after = engine.plan_cache_info()
        assert after["misses"] - before["misses"] == 4
        assert after["hits"] - before["hits"] == 2
        assert after["lifted_hits"] - before["lifted_hits"] == 1
        engine.create_index("N", "x")
        engine.run("MATCH (n:N) WHERE n.x = 3 RETURN n")      # evicted
        final = engine.plan_cache_info()
        assert final["misses"] - after["misses"] == 1
        assert final["evicted_schema"] - after["evicted_schema"] == 1
        assert "IndexScan" in engine.run(
            "MATCH (n:N) WHERE n.x = 4 RETURN n"
        ).plan.describe()

    def test_observability_reaches_the_cli(self, capsys):
        import io

        from repro.cli import Shell, main

        engine = TestLiftPolicy.engine()
        out = io.StringIO()
        shell = Shell(engine, output=out)
        shell.handle("MATCH (n:N) WHERE n.x = 1 RETURN n.k AS k")
        shell.handle("MATCH (n:N) WHERE n.x = 2 RETURN n.k AS k")
        shell.handle(":schema")
        assert "1 via shape, 2 shape(s) known" in out.getvalue()
        shell.handle(":explain MATCH (n:N) WHERE n.x = 3 RETURN n.k AS k")
        shown = out.getvalue()
        assert "auto-parameterised: yes" in shown
        assert "Filter(n.x = 3)" in shown       # the user's literal
        shell.handle(":explain MATCH (n:N) RETURN n.x = 3")
        assert "auto-parameterised: no" in out.getvalue()
        assert main(["explain", "MATCH (n) WHERE n.v = 1 RETURN n"]) == 0
        printed = capsys.readouterr().out
        assert "auto-parameterised: yes" in printed
        assert "0 via shape, 0 shape(s) known" in printed


class TestShapeKeysEverywhere:
    def test_threads_get_their_own_rows(self):
        engine = CypherEngine(MemoryGraph())
        engine.run("UNWIND range(0, 1599) AS i CREATE (:P {id: i, d: i * 2})")
        engine.create_index("P", "id")
        failures = []

        def work(thread):
            for step in range(200):
                value = thread * 200 + step
                if step % 2:
                    text = "MATCH (p:P {id: %d}) RETURN p.d AS d" % value
                    want = [{"d": value * 2}]
                else:
                    text = (
                        "MATCH (p:P) WHERE p.id >= %d AND p.id < %d "
                        "RETURN count(p) AS c, min(p.id) AS low"
                        % (value, value + 3)
                    )
                    want = [{"c": min(3, 1600 - value), "low": value}]
                got = engine.run(text).records
                if got != want:
                    failures.append((text, got))

        threads = [
            threading.Thread(target=work, args=(n,)) for n in range(8)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures, failures[:3]
        info = engine.plan_cache_info()
        assert info["entries"] == info["shapes"] == 3  # CREATE + the two

    @pytest.mark.smoke
    def test_sessions_hit_the_shape_entry_inside_a_transaction(self):
        engine = TestLiftPolicy.engine()
        read = "MATCH (n:N) WHERE n.x = %d RETURN count(*) AS c"
        assert engine.run(read % 40).value() == 0
        with engine.session() as session:
            session.begin()
            session.run("CREATE (:N {x: 40, k: 0})")
            assert session.run(read % 40).value() == 1   # own write, hit
            assert session.run(read % 41).value() == 0
            session.rollback()
            session.begin()
            session.run("MATCH (n:N) WHERE n.x = 1 SET n.x = 41")
            session.run("MATCH (n:N) WHERE n.x = 2 SET n.x = 41")
            assert session.run(read % 41).value() == 2
            session.commit()
        assert engine.run(read % 40).value() == 0
        assert engine.run(read % 41).value() == 2
        info = engine.plan_cache_info()
        assert info["lifted_hits"] == 6
        assert info["entries"] == 4

    def test_snapshots_share_the_shape_entry_clean_and_dirty(self):
        engine = TestLiftPolicy.engine()
        engine.create_index("N", "x")
        read = "MATCH (n:N) WHERE n.x >= %d RETURN count(*) AS c"
        assert engine.run(read % 11).value() == 6
        with engine.session() as session:
            snapshot = session.snapshot()
            assert snapshot.run(read % 12).value() == 5          # clean
            engine.run("MATCH (n:N) WHERE n.x = 16 SET n.x = 0")
            engine.run("CREATE (:N {x: 99, k: 0})")
            result = snapshot.run(read % 13, profile=True)       # dirty
            assert result.value() == 4
            assert result.access_paths[0]["entry"].startswith("index")
            assert engine.run(read % 13).value() == 4            # 14, 15, 99
            assert snapshot.run(read % 16).value() == 1
            # Refused before planning (nothing cached), then refused off
            # the shape entry an allowed run left behind.
            write = "MATCH (n:N) WHERE n.x = %d SET n.k = 5"
            with pytest.raises(TransactionError):
                snapshot.run(write % 1)
            engine.run(write % 50)
            hits = engine.plan_cache_info()["lifted_hits"]
            with pytest.raises(TransactionError):
                snapshot.run(write % 2)
            with pytest.raises(TransactionError):
                engine.run(write % 3, read_only=True)
            assert engine.plan_cache_info()["lifted_hits"] == hits + 2
        assert engine.run(
            "MATCH (n:N) WHERE n.k = 5 RETURN count(*) AS c"
        ).value() == 0
        assert engine.snapshot_info()["dirty_reads"] >= 2
