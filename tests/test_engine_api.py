"""Integration: the public CypherEngine / QueryResult API."""

import pytest

from repro import CypherEngine, Table
from repro.exceptions import (
    CypherRuntimeError,
    CypherSyntaxError,
    QueryCancelled,
)
from repro.graph.builder import GraphBuilder
from repro.graph.store import MemoryGraph
from repro.runtime.cancel import CancelToken


@pytest.fixture
def engine():
    graph, _ = (
        GraphBuilder()
        .node("a", "Person", name="Ann", age=30)
        .node("b", "Person", name="Bob", age=40)
        .rel("a", "KNOWS", "b")
        .build()
    )
    return CypherEngine(graph)


class TestEngine:
    def test_default_graph_created(self):
        engine = CypherEngine()
        assert engine.graph.node_count() == 0

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            CypherEngine(MemoryGraph(), mode="turbo")

    @pytest.mark.parametrize("mode", ["parallel", "bogus"])
    def test_invalid_per_call_mode_rejected(self, engine, mode):
        query = "MATCH (p:Person) RETURN count(p) AS c"
        with engine.session() as session:
            snapshot = session.snapshot()
            for run in (engine.run, session.run, snapshot.run):
                with pytest.raises(ValueError, match="mode must be one of"):
                    run(query, mode=mode)
            assert snapshot.run(query, mode=None).value() == 2
        assert engine.plan_cache_info()["misses"] == 1

    def test_syntax_errors_surface(self, engine):
        with pytest.raises(CypherSyntaxError):
            engine.run("MATCH MATCH")

    def test_explain_returns_plan_text(self, engine):
        text = engine.explain("MATCH (p:Person) RETURN p.name AS name")
        assert "NodeByLabelScan" in text
        assert "Init" in text

    def test_per_call_mode_override(self, engine):
        interpreted = engine.run("MATCH (p:Person) RETURN p.name AS n",
                                 mode="interpreter")
        planned = engine.run("MATCH (p:Person) RETURN p.name AS n",
                             mode="planner")
        assert interpreted.table.same_bag(planned.table)

    def test_parameters_flow_through(self, engine):
        result = engine.run(
            "MATCH (p:Person) WHERE p.age > $min RETURN p.name AS name",
            parameters={"min": 35},
        )
        assert result.values("name") == ["Bob"]


class TestExecutionModeReporting:
    """executed_by / execution_mode across interpreter, row and batch."""

    def test_interpreter_mode_has_no_execution_mode(self, engine):
        result = engine.run(
            "MATCH (p:Person) RETURN p.name AS n", mode="interpreter"
        )
        assert result.executed_by == "interpreter"
        assert result.execution_mode is None

    def test_row_mode_pins_row_execution(self, engine):
        result = engine.run("MATCH (p:Person) RETURN p.name AS n", mode="row")
        assert result.executed_by == "planner"
        assert result.execution_mode == "row"

    def test_auto_mode_batches_claimed_read_plans(self, engine):
        for mode in ("auto", "planner", "batch"):
            result = engine.run(
                "MATCH (p:Person) RETURN p.name AS n", mode=mode
            )
            assert result.executed_by == "planner", mode
            assert result.execution_mode == "batch", mode

    def test_unclaimed_read_plans_report_row(self, engine):
        # OPTIONAL MATCH plans an OptionalApply, which stays row-wise
        # (var-length joined the batch claim with the frontier-BFS
        # implementation, so it no longer serves as the fallback case).
        result = engine.run(
            "MATCH (a:Person) OPTIONAL MATCH (a)-[:KNOWS]->(b) "
            "RETURN a.name AS n, b.name AS m",
            mode="batch",
        )
        assert result.executed_by == "planner"
        assert result.execution_mode == "row"

    def test_updates_run_row_wise_in_every_planner_mode(self, engine):
        for mode in ("auto", "planner", "row", "batch"):
            result = engine.run(
                "MATCH (p:Person) SET p.seen = true", mode=mode
            )
            assert result.executed_by == "planner", mode
            assert result.execution_mode == "row", mode

    def test_three_modes_agree_on_results(self, engine):
        query = "MATCH (p:Person) RETURN p.name AS name ORDER BY name"
        tables = [
            engine.run(query, mode=mode).table
            for mode in ("interpreter", "row", "batch")
        ]
        assert tables[0].same_bag(tables[1])
        assert tables[0].same_bag(tables[2])

    def test_batch_results_identical_across_morsel_sizes(self):
        graph, _ = (
            GraphBuilder()
            .node("a", "Person", name="Ann", age=30)
            .node("b", "Person", name="Bob", age=40)
            .rel("a", "KNOWS", "b")
            .build()
        )
        query = "MATCH (p:Person) RETURN p.name AS name ORDER BY name"
        reference = CypherEngine(graph).run(query, mode="interpreter")
        for morsel_size in (1, 2, 3, 1024):
            tiny = CypherEngine(graph, morsel_size=morsel_size)
            result = tiny.run(query, mode="batch")
            assert result.execution_mode == "batch"
            assert result.records == reference.records, morsel_size


def _p_graph_engine(n, **kwargs):
    """``n`` ``:P`` nodes (``v = i % 10``) and ``:R`` edges within the
    ``v < 2`` groups — a scan several morsels long at small sizes."""
    engine = CypherEngine(**kwargs)
    engine.run(
        "UNWIND range(0, %d) AS i "
        "CREATE (:P {v: i %% 10, name: 'p' + toString(i)})" % (n - 1)
    )
    engine.run(
        "MATCH (a:P), (b:P) WHERE a.v = b.v AND a.name < b.name AND a.v < 2 "
        "CREATE (a)-[:R]->(b)"
    )
    return engine


class TestSerialBatchPath:
    """Reads run on one serial batch path, whatever the graph's size."""

    @pytest.mark.parametrize(
        "query",
        [
            "MATCH (n:P) RETURN n.v AS v",
            "MATCH (n) RETURN count(*) AS c",
            "MATCH (a:P)-[:R]->(b) RETURN a.v AS v ORDER BY v LIMIT 3",
            "MATCH (a:P)-[:R*1..2]->(b) RETURN count(*) AS c",
        ],
    )
    def test_scan_rooted_reads_batch_and_match_the_interpreter(self, query):
        engine = _p_graph_engine(20, morsel_size=4)
        result = engine.run(query)
        assert result.execution_mode == "batch"
        assert engine.run(query, mode="interpreter").table.same_bag(
            result.table
        )

    @pytest.mark.parametrize("n", [12, 200])
    def test_auto_picks_batch_for_claimed_reads_at_any_size(self, n):
        engine = _p_graph_engine(n)
        result = engine.run("MATCH (n:P) RETURN count(*) AS c")
        assert result.execution_mode == "batch"
        assert result.value() == n

    def test_updating_statement_runs_row_wise_when_batch_is_pinned(self):
        engine = _p_graph_engine(12, morsel_size=4)
        result = engine.run("CREATE (:Q) RETURN 1 AS x", mode="batch")
        assert result.execution_mode == "row"
        assert result.records == [{"x": 1}]
        assert engine.run("MATCH (q:Q) RETURN count(*) AS c").value() == 1

    @pytest.mark.parametrize("morsel_size", [1, 4])
    def test_runtime_error_propagates_and_engine_stays_usable(
        self, morsel_size
    ):
        engine = _p_graph_engine(60, morsel_size=morsel_size)
        with pytest.raises(CypherRuntimeError):
            engine.run(
                "MATCH (n:P) RETURN n.v AS v ORDER BY n.v LIMIT -1",
                mode="batch",
            )
        assert engine.run(
            "MATCH (n:P) RETURN count(*) AS c", mode="batch"
        ).value() == 60

    def test_pre_cancelled_token_refuses_a_batch_scan(self):
        engine = _p_graph_engine(30, morsel_size=4)
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            engine.run(
                "MATCH (n:P) RETURN count(*) AS c", mode="batch", cancel=token
            )

    @pytest.mark.parametrize("morsel_size", [1, 4, 256])
    def test_profile_scan_record_sums_across_morsels(self, morsel_size):
        engine = _p_graph_engine(40, morsel_size=morsel_size)
        result = engine.run(
            "MATCH (n:P) WHERE n.v > 1 RETURN n.v AS v",
            mode="batch",
            profile=True,
        )
        assert [r["operator"] for r in result.access_paths] == [
            "NodeByLabelScan"
        ]
        assert result.access_paths[0]["actual_rows"] == 40
        assert len(result.records) == 32

    def test_explain_shows_a_serial_plan(self):
        engine = _p_graph_engine(40, morsel_size=4)
        _by, _reason, text, _cache, mode = engine.explain_info(
            "MATCH (n:P) RETURN n.v AS v, count(*) AS c"
        )
        assert mode == "batch"
        assert text.splitlines() == [
            "Aggregate(group=[v], aggregates=[c])",
            "  NodeByLabelScan(n:P)",
            "    Init",
        ]


class TestExplainInfo:
    """The 5-tuple: path, reason, plan, cache counters, execution mode."""

    def test_batchable_read_reports_batch_mode(self, engine):
        executed_by, reason, plan_text, cache_info, mode = (
            engine.explain_info("MATCH (p:Person) RETURN p.age AS age")
        )
        assert executed_by == "planner"
        assert reason is None
        assert "NodeByLabelScan" in plan_text
        assert mode == "batch"

    def test_row_only_read_reports_row_mode(self, engine):
        *_rest, mode = engine.explain_info(
            "MATCH (a:Person) OPTIONAL MATCH (a)-[:KNOWS]->(b) "
            "RETURN a.name AS n, b.name AS m"
        )
        assert mode == "row"

    def test_update_reports_row_mode(self, engine):
        executed_by, _reason, plan_text, _cache, mode = engine.explain_info(
            "MATCH (p:Person) SET p.x = 1"
        )
        assert executed_by == "planner"
        assert "Eager" in plan_text
        assert mode == "row"

    def test_explain_info_respects_pinned_engine_mode(self, engine):
        """A :mode row session must see the strategy its runs will use."""
        query = "MATCH (p:Person) RETURN p.age AS age"
        engine.mode = "row"
        assert engine.explain_info(query)[4] == "row"
        assert engine.run(query).execution_mode == "row"
        engine.mode = "batch"
        assert engine.explain_info(query)[4] == "batch"
        assert engine.run(query).execution_mode == "batch"

    def test_cache_counters_accumulate_across_modes(self, engine):
        query = "MATCH (p:Person) RETURN p.name AS n"
        engine.run(query, mode="row")          # miss: first plan
        engine.run(query, mode="batch")        # hit: same plan, other mode
        engine.run(query, mode="interpreter")  # interpreter skips the cache
        cache_info = engine.explain_info(query)[3]
        assert cache_info["hits"] == 1
        assert cache_info["misses"] == 1
        assert cache_info["hit_rate"] == 0.5
        assert cache_info["entries"] == 1

    def test_plans_survive_an_update_in_batch_mode_session(self):
        """A batch-mode engine keeps plans across an update's commit.

        The update itself runs row-wise, but the engine is in batch
        mode: its own commit must leave the cached update plan a hit
        exactly as in row mode, and the *read* plan cached before the
        update must survive too.
        """
        graph, _ = (
            GraphBuilder()
            .node("a", "Person", name="Ann", age=30)
            .build()
        )
        engine = CypherEngine(graph, mode="batch")
        update = "MATCH (p) SET p.seen = true"
        read = "MATCH (p) RETURN count(*) AS c"
        engine.run(read)    # miss
        engine.run(update)  # miss; commits, which moves the version
        hits_before = engine.plan_cache_hits
        second = engine.run(update)  # hit: revalidated across its commit
        assert engine.plan_cache_hits == hits_before + 1
        assert second.execution_mode == "row"
        third = engine.run(read)     # hit: survived the store mutation
        assert engine.plan_cache_hits == hits_before + 2
        assert third.execution_mode == "batch"


class TestQueryResult:
    def test_columns_in_projection_order(self, engine):
        result = engine.run("MATCH (p:Person) RETURN p.age AS age, p.name AS name")
        assert result.columns == ["age", "name"]

    def test_records_and_iteration(self, engine):
        result = engine.run("MATCH (p:Person) RETURN p.name AS name")
        assert sorted(r["name"] for r in result) == ["Ann", "Bob"]
        assert len(result) == 2

    def test_values_helpers(self, engine):
        result = engine.run(
            "MATCH (p:Person) RETURN p.name AS name ORDER BY name"
        )
        assert result.values() == ["Ann", "Bob"]
        assert result.values("name") == ["Ann", "Bob"]
        with pytest.raises(CypherRuntimeError):
            result.values("nope")

    def test_single_and_value(self, engine):
        result = engine.run("MATCH (p:Person {name: 'Ann'}) RETURN p.age AS age")
        assert result.single() == {"age": 30}
        assert result.value() == 30
        everyone = engine.run("MATCH (p:Person) RETURN p.age AS age")
        with pytest.raises(CypherRuntimeError):
            everyone.single()

    def test_value_needs_single_column(self, engine):
        result = engine.run(
            "MATCH (p:Person {name: 'Ann'}) RETURN p.age AS a, p.name AS n"
        )
        with pytest.raises(CypherRuntimeError):
            result.value()
        assert result.value("n") == "Ann"

    def test_graph_accessor_errors_when_empty(self, engine):
        result = engine.run("MATCH (p:Person) RETURN p")
        with pytest.raises(CypherRuntimeError):
            result.graph()

    def test_pretty_output(self, engine):
        result = engine.run(
            "MATCH (p:Person) RETURN p.name AS name ORDER BY name"
        )
        rendered = result.pretty()
        assert "name" in rendered and "Ann" in rendered

    def test_underlying_table_is_a_bag(self, engine):
        result = engine.run("MATCH (p:Person) RETURN 1 AS one")
        assert isinstance(result.table, Table)
        assert result.table.multiplicity({"one": 1}) == 2
