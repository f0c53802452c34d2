"""Crash-point fault injection: every mutation site, rollback proven exact.

The harness replays a fixed transactional workload (drawn from the fuzz
update corpus's shapes: create, set, remove, merge, delete, label flips
— all against indexed labels) twice per crash point:

* **pass 1** counts the mutation sites the workload reaches (an
  unarmed :class:`FaultInjector` traces ``create_node``, ``set_property``,
  ``index_update``, ``commit_flush``, …);
* **pass 2** re-runs on a fresh clone with the injector armed at site
  *k*; the session dies at exactly that point, rolls back, and the
  store, every index (compared entry-by-entry against an untouched
  clone **and** a from-scratch rebuild), the version counter and the id
  counters must all be byte-identical to never having run.

Sweeping *k* over every site proves the undo log is correct from any
interior crash point — not just at statement boundaries.  A second
sweep runs the workload as auto-committed statements: a crash there
rolls back only the statement it hit, so the store must equal the one
the statements before it left.
"""

import pytest

from repro.graph.store import FaultInjector, InjectedFault
from repro.runtime.engine import CypherEngine

from fuzztools import (
    assert_indexes_consistent,
    graph_state,
    indexed_fixture_graph,
)

#: The crash workload: one transaction touching every mutation kind.
#: Statements target the indexed labels/keys (:A(v), :B(v), :B(name),
#: :C(v)) so index maintenance sites appear throughout the trace.
WORKLOAD = (
    # variable-only property map: takes the bulk create_nodes path
    "UNWIND range(10, 13) AS i CREATE (:A {v: i})",
    "MATCH (a:A) WITH a ORDER BY a.name LIMIT 2 "
    "CREATE (a)-[:W {src: a.v}]->(:B {v: a.v})",
    "MATCH (a:A) WHERE a.v >= 10 SET a.v = a.v + 100, a:Hot",
    "MATCH (a:B) WITH a ORDER BY a.name LIMIT 2 SET a += {v: null, z: 1}",
    "MATCH (a:B) WITH a ORDER BY a.name LIMIT 1 SET a = {name: 'reset'}",
    "UNWIND [0, 1] AS v MERGE (n:A {v: v}) "
    "ON CREATE SET n.created = 1 ON MATCH SET n.hits = 1",
    "MATCH (a:C) WITH a ORDER BY a.name LIMIT 1 REMOVE a.v, a:C",
    "MATCH ()-[r:S]->() DELETE r",
    "MATCH (a:C) DETACH DELETE a",
)


def run_workload(graph):
    """The whole workload in one session transaction, committed."""
    with CypherEngine(graph).session() as session:
        session.begin()
        for statement in WORKLOAD:
            session.run(statement)
        session.commit()


def run_autocommitted(graph, mode=None):
    """The workload as auto-committed statements; returns how many ran.

    Stops at the first statement that raises :class:`InjectedFault`.
    """
    engine = CypherEngine(graph)
    for done, statement in enumerate(WORKLOAD):
        try:
            engine.run(statement, mode=mode)
        except InjectedFault:
            return done
    return len(WORKLOAD)


def store_fingerprint(graph):
    """Everything rollback must restore: data, indexes, counters."""
    return (
        graph_state(graph),
        graph.version,
        {pair: graph.index_snapshot(*pair) for pair in graph.indexes()},
        graph.index_statistics(),
        (graph._next_node_id, graph._next_rel_id),
    )


def trace_sites(run=run_workload):
    """Pass 1: count the mutation sites the workload reaches."""
    graph = indexed_fixture_graph()
    injector = FaultInjector()
    graph.install_fault_injector(injector)
    try:
        run(graph)
    finally:
        graph.install_fault_injector(None)
    return injector


TRACE = trace_sites()

#: Sites that must appear in the trace — a workload that stops reaching
#: one of these silently weakens the whole sweep.
REQUIRED_SITES = {
    "create_node",
    "create_nodes",
    "create_relationship",
    "delete_node",
    "delete_relationship",
    "set_property",
    "remove_property",
    "replace_properties",
    "merge_properties",
    "add_label",
    "remove_label",
    "index_add",
    "index_remove",
    "index_update",
    "commit_flush",
}


class TestTrace:
    def test_workload_reaches_every_mutation_site_kind(self):
        missing = REQUIRED_SITES - set(TRACE.counts)
        assert not missing, "workload no longer reaches: %s" % sorted(missing)

    def test_workload_is_deterministic(self):
        assert trace_sites().counts == TRACE.counts


@pytest.mark.smoke
class TestCrashEverySite:
    @pytest.mark.parametrize("ordinal", range(1, TRACE.total + 1))
    def test_crash_then_rollback_is_exact(self, ordinal):
        pristine = store_fingerprint(indexed_fixture_graph())
        graph = indexed_fixture_graph()
        injector = FaultInjector(arm_at=ordinal)
        graph.install_fault_injector(injector)
        try:
            with pytest.raises(InjectedFault):
                run_workload(graph)
        finally:
            graph.install_fault_injector(None)
        assert injector.fired is not None
        site, _ = injector.fired
        assert store_fingerprint(graph) == pristine, (
            "rollback after crash at site #%d (%s) was not exact"
            % (ordinal, site)
        )
        assert_indexes_consistent(graph)

    def test_engine_usable_after_any_crash(self):
        # spot-check the extremes: first site and the commit flush
        for ordinal in (1, TRACE.total):
            graph = indexed_fixture_graph()
            injector = FaultInjector(arm_at=ordinal)
            graph.install_fault_injector(injector)
            try:
                with pytest.raises(InjectedFault):
                    run_workload(graph)
            finally:
                graph.install_fault_injector(None)
            engine = CypherEngine(graph)
            result = engine.run("MATCH (a:A) RETURN count(*) AS c")
            assert list(result.table) == [{"c": 3}]
            engine.run("CREATE (:AfterCrash)")
            assert list(
                engine.run("MATCH (n:AfterCrash) RETURN count(*) AS c").table
            ) == [{"c": 1}]


class TestInjectorMechanics:
    def test_commit_flush_is_the_final_site(self):
        graph = indexed_fixture_graph()
        injector = FaultInjector(arm_at=TRACE.total)
        graph.install_fault_injector(injector)
        try:
            with pytest.raises(InjectedFault):
                run_workload(graph)
        finally:
            graph.install_fault_injector(None)
        assert injector.fired[0] == "commit_flush"

    def test_injector_fires_exactly_once(self):
        graph = indexed_fixture_graph()
        injector = FaultInjector(arm_at=1)
        graph.install_fault_injector(injector)
        try:
            with pytest.raises(InjectedFault):
                run_workload(graph)
            # the rollback replay and later statements must not re-fire
            run_workload(graph)
        finally:
            graph.install_fault_injector(None)
        assert injector.fired == (injector.fired[0], 1)

    def test_install_returns_previous_injector(self):
        graph = indexed_fixture_graph()
        first = FaultInjector()
        assert graph.install_fault_injector(first) is None
        assert graph.install_fault_injector(None) is first


def prefix_fingerprints(mode):
    """``[k]``: the store after only the first *k* statements committed."""
    graph = indexed_fixture_graph()
    engine = CypherEngine(graph)
    prints = [store_fingerprint(graph)]
    for statement in WORKLOAD:
        engine.run(statement, mode=mode)
        prints.append(store_fingerprint(graph))
    return prints


AUTOCOMMIT_TRACE = trace_sites(run_autocommitted)
INTERPRETER_TRACE = trace_sites(
    lambda graph: run_autocommitted(graph, "interpreter")
)
PREFIXES = {mode: prefix_fingerprints(mode) for mode in (None, "interpreter")}


class TestCrashEverySiteAutocommitted:
    """Without a session, a crash unwinds exactly the statement it hit."""

    def crash(self, ordinal, mode):
        graph = indexed_fixture_graph()
        injector = FaultInjector(arm_at=ordinal)
        graph.install_fault_injector(injector)
        try:
            done = run_autocommitted(graph, mode)
        finally:
            graph.install_fault_injector(None)
        assert injector.fired is not None and done < len(WORKLOAD)
        assert store_fingerprint(graph) == PREFIXES[mode][done], (
            "crash at site #%d (%s) in statement %d was not unwound"
            % (ordinal, injector.fired[0], done)
        )
        assert_indexes_consistent(graph)

    @pytest.mark.parametrize(
        "ordinal", range(1, AUTOCOMMIT_TRACE.total + 1)
    )
    def test_crash_leaves_the_statements_before_it(self, ordinal):
        self.crash(ordinal, None)

    @pytest.mark.parametrize("ordinal", (1, INTERPRETER_TRACE.total))
    def test_interpreter_crash_leaves_the_statements_before_it(
        self, ordinal
    ):
        self.crash(ordinal, "interpreter")
