"""Transactional sessions: atomicity, rollback exactness, snapshots.

The session contract under test (PR 6):

* ``engine.session()`` groups statements into one store transaction —
  explicit ``begin()``/``commit()``/``rollback()``, auto-rollback when
  the ``with`` block exits exceptionally *or* without a commit;
* rollback restores the store **exactly** — contents, version (no
  bump), id counters, scan caches and every property index equal to a
  from-scratch rebuild;
* commit makes the whole transaction visible with a single version
  bump;
* ``session.snapshot()`` gives snapshot isolation: a reader pinned at
  ``begin()`` keeps seeing that version while others commit — on the
  row engine *and* the batch engine (the acceptance criterion);
* the admission gate bounds in-flight sessions and refuses with
  :class:`EngineOverloadedError` instead of queueing unboundedly.
"""

import pytest

from repro.exceptions import (
    CypherError,
    CypherSyntaxError,
    EngineOverloadedError,
    TransactionError,
)
from repro.runtime.engine import CypherEngine

from fuzztools import (
    READ_CORPUS,
    assert_indexes_consistent,
    fixture_graph,
    graph_state,
)


def indexed_engine():
    graph = fixture_graph()
    graph.create_index("A", "v")
    graph.create_index("B", "name")
    return CypherEngine(graph)


def count_nodes(runner, label=""):
    result = runner.run("MATCH (n%s) RETURN count(*) AS c" % label)
    return list(result.table)[0]["c"]


class TestCommit:
    def test_changes_invisible_before_commit_to_later_sessions(self):
        engine = CypherEngine(fixture_graph())
        with engine.session() as session:
            session.begin()
            session.run("CREATE (:Fresh {v: 1})")
            # the writer's own reads see the uncommitted write
            assert count_nodes(session, ":Fresh") == 1
            session.commit()
        assert count_nodes(engine, ":Fresh") == 1

    def test_single_version_bump_for_whole_transaction(self):
        engine = CypherEngine(fixture_graph())
        before = engine.graph.version
        with engine.session() as session:
            session.begin()
            session.run("CREATE (:X)")
            session.run("MATCH (x:X) SET x.v = 1")
            session.run("CREATE (:Y)")
            assert engine.graph.version == before
            session.commit()
        assert engine.graph.version == before + 1

    def test_statements_accumulate_across_commit(self):
        engine = indexed_engine()
        with engine.session() as session:
            session.begin()
            session.run("UNWIND range(10, 14) AS i CREATE (:A {v: i})")
            session.run("MATCH (a:A) WHERE a.v >= 10 SET a.touched = true")
            session.commit()
        probed = engine.run(
            "MATCH (a:A) WHERE a.v >= 10 RETURN count(*) AS c"
        )
        assert list(probed.table) == [{"c": 5}]
        assert_indexes_consistent(engine.graph)

    def test_commit_without_begin_raises(self):
        engine = CypherEngine(fixture_graph())
        with engine.session() as session:
            with pytest.raises(TransactionError):
                session.commit()

    def test_double_begin_raises(self):
        engine = CypherEngine(fixture_graph())
        with engine.session() as session:
            session.begin()
            with pytest.raises(TransactionError):
                session.begin()
            session.rollback()


class TestRollback:
    def test_rollback_restores_contents_exactly(self):
        engine = indexed_engine()
        pristine = graph_state(engine.graph)
        with engine.session() as session:
            session.begin()
            session.run("UNWIND range(20, 24) AS i CREATE (:A {v: i})")
            session.run("MATCH (a:B) SET a.v = 99, a:Extra")
            session.run("MATCH (a:C) DETACH DELETE a")
            session.rollback()
        assert graph_state(engine.graph) == pristine

    def test_rollback_keeps_version_and_statistics(self):
        engine = indexed_engine()
        before = engine.graph.version
        with engine.session() as session:
            session.begin()
            session.run("MATCH (a:A) SET a.v = a.v + 50")
            session.rollback()
        # the pre-transaction version still describes the restored
        # contents, so no bump — statistics snapshots stay correct
        assert engine.graph.version == before

    def test_rollback_restores_indexes_to_rebuild_identical(self):
        engine = indexed_engine()
        snapshots = {
            pair: engine.graph.index_snapshot(*pair)
            for pair in engine.graph.indexes()
        }
        with engine.session() as session:
            session.begin()
            session.run("UNWIND range(30, 34) AS i CREATE (:A {v: i})")
            session.run("MATCH (a:A) WHERE a.v = 1 SET a.v = 777")
            session.run("MATCH (a:B) REMOVE a.name")
            session.rollback()
        for pair, snapshot in snapshots.items():
            assert engine.graph.index_snapshot(*pair) == snapshot
        assert_indexes_consistent(engine.graph)

    def test_rollback_restores_id_counters(self):
        engine = CypherEngine(fixture_graph())
        with engine.session() as session:
            session.begin()
            session.run("CREATE (:X)")
            session.rollback()
        made = engine.run("CREATE (n:Y) RETURN n AS made")
        # the rolled-back node's id is reused, not burned
        clone = fixture_graph()
        expected = CypherEngine(clone).run("CREATE (n:Y) RETURN n AS made")
        assert list(made.table) == list(expected.table)

    def test_exception_inside_with_block_rolls_back(self):
        engine = CypherEngine(fixture_graph())
        pristine = graph_state(engine.graph)
        with pytest.raises(RuntimeError):
            with engine.session() as session:
                session.begin()
                session.run("CREATE (:Doomed)")
                raise RuntimeError("application error")
        assert graph_state(engine.graph) == pristine

    def test_exiting_without_commit_rolls_back(self):
        engine = CypherEngine(fixture_graph())
        pristine = graph_state(engine.graph)
        with engine.session() as session:
            session.begin()
            session.run("CREATE (:Forgotten)")
        assert graph_state(engine.graph) == pristine

    def test_statement_error_does_not_poison_the_transaction(self):
        engine = CypherEngine(fixture_graph())
        with engine.session() as session:
            session.begin()
            session.run("CREATE (:Kept {v: 1})")
            with pytest.raises(CypherSyntaxError):
                session.run("CREATE (")
            session.commit()
        assert count_nodes(engine, ":Kept") == 1


class TestSingleWriter:
    def test_outside_write_refused_while_transaction_open(self):
        engine = CypherEngine(fixture_graph())
        with engine.session() as session:
            session.begin()
            session.run("CREATE (:Mine)")
            with pytest.raises(TransactionError):
                engine.run("CREATE (:Interloper)")
            session.rollback()
        # released on rollback: plain writes work again
        engine.run("CREATE (:Interloper)")
        assert count_nodes(engine, ":Interloper") == 1

    def test_second_session_cannot_write_concurrently(self):
        engine = CypherEngine(fixture_graph())
        with engine.session() as first, engine.session() as second:
            first.begin()
            second.begin()
            first.run("CREATE (:First)")
            with pytest.raises(TransactionError):
                second.run("CREATE (:Second)")
            first.commit()
            second.rollback()

    def test_snapshot_refused_while_uncommitted_changes_exist(self):
        # a pin taken now would capture another session's dirty state;
        # snapshots must be taken before a transaction's first write
        engine = CypherEngine(fixture_graph())
        with engine.session() as first, engine.session() as second:
            first.begin()
            first.run("CREATE (:Dirty)")
            with pytest.raises(TransactionError):
                second.snapshot()
            first.rollback()

    def test_schema_engines_allow_explicit_transactions(self):
        from repro.schema import Schema

        engine = CypherEngine(fixture_graph(), schema=Schema())
        with engine.session() as session:
            session.begin()
            assert session.in_transaction
            session.run("CREATE (:X)")
            session.commit()
        assert engine.run("MATCH (x:X) RETURN count(*) AS c").value() == 1


class TestSnapshotIsolation:
    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_reader_pinned_before_commit_sees_old_version(self, mode):
        engine = CypherEngine(fixture_graph())
        with engine.session() as reader:
            snapshot = reader.snapshot()
            with engine.session() as writer:
                writer.begin()
                writer.run("UNWIND range(50, 59) AS i CREATE (:A {v: i})")
                writer.commit()
            live = engine.run(
                "MATCH (a:A) RETURN count(*) AS c", mode=mode
            )
            pinned = snapshot.run(
                "MATCH (a:A) RETURN count(*) AS c", mode=mode
            )
            assert list(live.table) == [{"c": 13}]
            assert list(pinned.table) == [{"c": 3}]

    @pytest.mark.parametrize("mode", ["row", "batch"])
    def test_snapshot_never_sees_own_uncommitted_writes(self, mode):
        engine = CypherEngine(fixture_graph())
        with engine.session() as session:
            session.begin()
            snapshot = session.snapshot()
            session.run("CREATE (:A {v: 100})")
            pinned = snapshot.run(
                "MATCH (a:A) RETURN count(*) AS c", mode=mode
            )
            assert list(pinned.table) == [{"c": 3}]
            session.rollback()

    def test_snapshot_survives_deletes_and_property_changes(self):
        engine = CypherEngine(fixture_graph())
        with engine.session() as reader:
            snapshot = reader.snapshot()
            with engine.session() as writer:
                writer.begin()
                writer.run("MATCH (a:C) DETACH DELETE a")
                writer.run("MATCH (a:A) SET a.v = a.v + 1000")
                writer.commit()
            pinned = snapshot.run(
                "MATCH (a:A)-->(b) RETURN a.v AS av, b.v AS bv "
                "ORDER BY av, bv"
            )
            reference = CypherEngine(fixture_graph()).run(
                "MATCH (a:A)-->(b) RETURN a.v AS av, b.v AS bv "
                "ORDER BY av, bv"
            )
            assert list(pinned.table) == list(reference.table)

    @pytest.mark.smoke
    def test_snapshot_agrees_with_frozen_clone_across_corpus(self):
        engine = CypherEngine(fixture_graph())
        frozen = CypherEngine(fixture_graph())
        with engine.session() as reader:
            snapshot = reader.snapshot()
            with engine.session() as writer:
                writer.begin()
                writer.run("MATCH (a:B) DETACH DELETE a")
                writer.run("UNWIND range(60, 64) AS i "
                           "CREATE (:B {v: i, name: 'post-' + toString(i)})")
                writer.commit()
            for query in READ_CORPUS:
                pinned = snapshot.run(query)
                reference = frozen.run(query)
                assert reference.table.same_bag(pinned.table), query

    def test_snapshot_is_read_only(self):
        engine = CypherEngine(fixture_graph())
        with engine.session() as session:
            snapshot = session.snapshot()
            with pytest.raises(TransactionError):
                snapshot.run("CREATE (:Nope)")

    def test_clean_snapshot_runs_on_live_graph(self):
        engine = CypherEngine(fixture_graph())
        with engine.session() as session:
            snapshot = session.snapshot()
            # nothing has mutated: no overlay, no copies
            assert snapshot.graph is engine.graph

    def test_snapshot_released_with_session(self):
        engine = CypherEngine(fixture_graph())
        with engine.session() as session:
            session.snapshot()
            assert engine.graph._pins
        assert not engine.graph._pins


class TestAdmission:
    def test_overload_refused_with_dedicated_error(self):
        engine = CypherEngine(fixture_graph(), max_sessions=2)
        with engine.session() as _one, engine.session() as _two:
            with pytest.raises(EngineOverloadedError):
                with engine.session() as third:
                    third.run("RETURN 1 AS x")

    def test_slot_released_on_close(self):
        engine = CypherEngine(fixture_graph(), max_sessions=1)
        with engine.session() as session:
            session.run("RETURN 1 AS x")
        with engine.session() as session:
            assert list(session.run("RETURN 2 AS x").table) == [{"x": 2}]

    def test_closed_session_refuses_statements(self):
        engine = CypherEngine(fixture_graph())
        with engine.session() as session:
            pass
        with pytest.raises(TransactionError):
            session.run("RETURN 1 AS x")


class TestSessionWithoutTransaction:
    def test_statements_autocommit(self):
        engine = CypherEngine(fixture_graph())
        before = engine.graph.version
        with engine.session() as session:
            session.run("CREATE (:Solo)")
        assert count_nodes(engine, ":Solo") == 1
        assert engine.graph.version == before + 1


#: Statements that write, then raise in a later clause.  The second
#: writes in two update clauses, so a clause-boundary commit would leave
#: the ``:A`` behind.
FAILING_STATEMENTS = (
    "CREATE (p:Person) WITH p UNWIND [1, 0] AS x RETURN 1 / x AS y",
    "CREATE (:A) WITH 1 AS one UNWIND [1, 0] AS x CREATE (:B {v: 1 / x})",
)

ATOMIC_MODES = (
    "interpreter",
    pytest.param("auto", marks=pytest.mark.smoke),
    "row",
)


def store_fingerprint(graph):
    """Contents, indexes, version, schema epoch and id counters."""
    return (
        graph_state(graph),
        {pair: graph.index_snapshot(*pair) for pair in graph.indexes()},
        graph.version,
        graph.schema_version,
        (graph._next_node_id, graph._next_rel_id),
    )


class TestStatementAtomicity:
    """A statement that raises leaves the store exactly as before it."""

    @pytest.mark.parametrize("statement", FAILING_STATEMENTS)
    @pytest.mark.parametrize("mode", ATOMIC_MODES)
    def test_failed_autocommit_statement_leaves_nothing(
        self, mode, statement
    ):
        engine = indexed_engine()
        before = store_fingerprint(engine.graph)
        with pytest.raises(CypherError):
            engine.run(statement, mode=mode)
        assert store_fingerprint(engine.graph) == before
        assert_indexes_consistent(engine.graph)

    @pytest.mark.parametrize("statement", FAILING_STATEMENTS)
    @pytest.mark.parametrize("mode", ATOMIC_MODES)
    def test_failed_statement_in_session_keeps_earlier_ones(
        self, mode, statement
    ):
        def transaction(engine, failing):
            with engine.session() as session:
                session.begin()
                session.run("CREATE (:Kept {v: 1})", mode=mode)
                if failing:
                    before = store_fingerprint(engine.graph)
                    with pytest.raises(CypherError):
                        session.run(statement, mode=mode)
                    assert store_fingerprint(engine.graph) == before
                session.run("MATCH (k:Kept) SET k.v = 2", mode=mode)
                session.commit()
            return store_fingerprint(engine.graph)

        engine = indexed_engine()
        baseline = transaction(indexed_engine(), False)
        assert transaction(engine, True) == baseline
        assert count_nodes(engine, ":Kept") == 1
        assert_indexes_consistent(engine.graph)
