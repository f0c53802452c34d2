"""Unit + integration tests for schema constraints (paper §8)."""

import pytest

from repro import CypherEngine
from repro.exceptions import ConstraintViolation, CypherError
from repro.graph.builder import GraphBuilder
from repro.graph.store import FaultInjector, InjectedFault, MemoryGraph
from repro.schema import (
    ExistenceConstraint,
    Schema,
    TypeConstraint,
    UniquenessConstraint,
)

from fuzztools import graph_state


class TestExistence:
    def test_missing_property_is_a_violation(self):
        graph, ids = (
            GraphBuilder().node("ok", "Person", name="Ann").node("bad", "Person").build()
        )
        violations = list(ExistenceConstraint("Person", "name").check(graph))
        assert len(violations) == 1
        assert violations[0].entity == ids["bad"]
        assert "name" in str(violations[0])

    def test_other_labels_unconstrained(self):
        graph, _ = GraphBuilder().node("a", "Animal").build()
        assert list(ExistenceConstraint("Person", "name").check(graph)) == []


class TestUniqueness:
    def test_duplicates_detected(self):
        graph, _ = (
            GraphBuilder()
            .node("a", "Person", ssn="1")
            .node("b", "Person", ssn="1")
            .node("c", "Person", ssn="2")
            .build()
        )
        violations = list(UniquenessConstraint("Person", "ssn").check(graph))
        assert len(violations) == 1

    def test_nulls_are_not_duplicates(self):
        graph, _ = (
            GraphBuilder().node("a", "Person").node("b", "Person").build()
        )
        assert list(UniquenessConstraint("Person", "ssn").check(graph)) == []

    def test_numeric_equality_collapses(self):
        graph, _ = (
            GraphBuilder()
            .node("a", "P", k=1)
            .node("b", "P", k=1.0)
            .build()
        )
        assert len(list(UniquenessConstraint("P", "k").check(graph))) == 1


class TestTypeConstraint:
    def test_wrong_type_detected(self):
        graph, _ = (
            GraphBuilder()
            .node("a", "Person", age=30)
            .node("b", "Person", age="thirty")
            .build()
        )
        violations = list(
            TypeConstraint("Person", "age", "Integer").check(graph)
        )
        assert len(violations) == 1
        assert "String" in str(violations[0])

    def test_absent_property_allowed(self):
        graph, _ = GraphBuilder().node("a", "Person").build()
        assert list(TypeConstraint("Person", "age", "Integer").check(graph)) == []


class TestSchema:
    def test_validate_collects_in_order(self):
        graph, _ = GraphBuilder().node("a", "Person").build()
        schema = Schema(
            [
                ExistenceConstraint("Person", "name"),
                ExistenceConstraint("Person", "ssn"),
            ]
        )
        violations = schema.validate(graph)
        assert len(violations) == 2
        assert not schema.is_valid(graph)

    def test_builder_style_add(self):
        schema = Schema().add(ExistenceConstraint("A", "x"))
        assert len(schema) == 1
        assert "EXISTS(:A.x)" in repr(schema)


class TestEngineEnforcement:
    def engine(self):
        return CypherEngine(
            MemoryGraph(),
            schema=Schema(
                [
                    ExistenceConstraint("Person", "name"),
                    UniquenessConstraint("Person", "name"),
                ]
            ),
        )

    def test_valid_updates_pass(self):
        engine = self.engine()
        engine.run("CREATE (:Person {name: 'Ann'})")
        assert engine.graph.node_count() == 1

    def test_violating_create_rolls_back(self):
        engine = self.engine()
        engine.run("CREATE (:Person {name: 'Ann'})")
        with pytest.raises(ConstraintViolation):
            engine.run("CREATE (:Person)")  # missing name
        assert engine.graph.node_count() == 1  # rolled back

    def test_violating_set_rolls_back(self):
        engine = self.engine()
        engine.run("CREATE (:Person {name: 'Ann'}), (:Person {name: 'Bob'})")
        with pytest.raises(ConstraintViolation):
            engine.run("MATCH (p:Person {name: 'Bob'}) SET p.name = 'Ann'")
        names = sorted(
            engine.run("MATCH (p:Person) RETURN p.name AS n").values("n")
        )
        assert names == ["Ann", "Bob"]

    def test_remove_that_violates_rolls_back(self):
        engine = self.engine()
        engine.run("CREATE (:Person {name: 'Ann'})")
        with pytest.raises(ConstraintViolation):
            engine.run("MATCH (p:Person) REMOVE p.name")
        assert engine.run(
            "MATCH (p:Person) RETURN p.name AS n"
        ).value() == "Ann"

    def test_read_queries_skip_validation(self):
        # an engine whose *existing* graph violates the schema can still read
        graph, _ = GraphBuilder().node("a", "Person").build()
        engine = CypherEngine(
            graph, schema=Schema([ExistenceConstraint("Person", "name")])
        )
        assert engine.run("MATCH (p:Person) RETURN count(*) AS n").value() == 1

    def test_rollback_restores_properties_deeply(self):
        engine = self.engine()
        engine.run("CREATE (:Person {name: 'Ann', tags: ['x']})")
        with pytest.raises(ConstraintViolation):
            engine.run(
                "MATCH (p:Person) SET p.tags = ['y'] REMOVE p.name"
            )
        record = engine.run(
            "MATCH (p:Person) RETURN p.name AS n, p.tags AS t"
        ).single()
        assert record == {"n": "Ann", "t": ["x"]}


class TestStatementRollback:
    """A schema-checked statement unwinds through its own undo entries.

    Whatever ends it — a violation or any other error — it leaves the
    store, its version and its schema epoch as they were, inside an
    explicit session as well as on its own.
    """

    MODES = ["auto", "interpreter", "row"]
    FAILING = "CREATE (p:Person) WITH p UNWIND [1, 0] AS x RETURN 1 / x AS y"

    def engine(self):
        engine = CypherEngine(
            MemoryGraph(), schema=Schema([ExistenceConstraint("Person", "name")])
        )
        engine.run("CREATE (:Person {name: 'Ann'})")
        return engine

    @pytest.mark.parametrize("mode", MODES)
    def test_a_failing_statement_leaves_the_store_as_it_was(self, mode):
        engine = self.engine()
        graph = engine.graph
        before = graph_state(graph)
        version, epoch = graph.version, graph.schema_version
        unchecked = CypherEngine(MemoryGraph())
        with pytest.raises(CypherError) as expected:
            unchecked.run(self.FAILING, mode=mode)
        with pytest.raises(expected.type):
            engine.run(self.FAILING, mode=mode)
        assert graph_state(graph) == before
        assert (graph.version, graph.schema_version) == (version, epoch)
        # The id counters rewound too: the next create gets the same ids
        # as on a store that never saw the failed statement.
        twin = self.engine()
        for each in (engine, twin):
            each.run("CREATE (:Person {name: 'Bob'})", mode=mode)
        assert graph_state(graph) == graph_state(twin.graph)

    @pytest.mark.parametrize("mode", MODES)
    def test_a_refused_statement_inside_a_session_unwinds_alone(self, mode):
        engine = self.engine()
        graph = engine.graph
        version = graph.version
        with engine.session() as session:
            session.begin()
            session.run("CREATE (:Person {name: 'Bob'})", mode=mode)
            with pytest.raises(ConstraintViolation):
                session.run("CREATE (:Person {age: 3})", mode=mode)
            session.run("MATCH (p:Person) SET p.seen = true", mode=mode)
            session.commit()
        assert graph.version == version + 1
        records = engine.run(
            "MATCH (p:Person) RETURN p.name AS n, p.age AS a, p.seen AS s "
            "ORDER BY n"
        ).records
        assert records == [
            {"n": "Ann", "a": None, "s": True},
            {"n": "Bob", "a": None, "s": True},
        ]

    def test_a_refusal_moves_no_epoch_and_keeps_snapshots(self):
        engine = self.engine()
        graph = engine.graph
        count = "MATCH (p:Person) RETURN count(*) AS c"
        engine.run(count)
        with engine.session() as reader:
            snapshot = reader.snapshot()
            epoch = graph.schema_version
            evicted = engine.plan_cache_info()["evicted_schema"]
            with pytest.raises(ConstraintViolation):
                engine.run("CREATE (:Person), (:Person {name: 'Cy'})")
            assert graph.schema_version == epoch
            assert engine.plan_cache_info()["evicted_schema"] == evicted
            assert snapshot.run(count).value() == 1
            engine.run("CREATE (:Person {name: 'Cy'})")
            assert snapshot.run(count).value() == 1
        assert engine.run(count).value() == 2

    @pytest.mark.parametrize("mode", MODES)
    def test_a_crash_at_any_mutation_site_unwinds_the_statement(self, mode):
        statement = (
            "MATCH (a:Person {name: 'Ann'}) SET a.age = 1 "
            "CREATE (a)-[:KNOWS]->(:Person {name: 'Bob'})"
        )
        counter = FaultInjector()
        probe = self.engine()
        probe.graph.install_fault_injector(counter)
        probe.run(statement, mode=mode)
        assert counter.counts["commit_flush"] == 1
        for arm_at in range(1, counter.total + 1):
            engine = self.engine()
            graph = engine.graph
            before = graph_state(graph)
            version = graph.version
            graph.install_fault_injector(FaultInjector(arm_at))
            with pytest.raises(InjectedFault):
                engine.run(statement, mode=mode)
            graph.install_fault_injector(None)
            assert graph_state(graph) == before, arm_at
            assert graph.version == version, arm_at
