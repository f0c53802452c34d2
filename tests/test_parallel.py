"""Parallel morsel execution: scheduler, claim, exchange, merges.

The differential sweep in ``test_batched_differential.py`` already
holds parallel runs to record-identical output across the fuzz corpus;
this file tests the machinery itself — the scheduler contract (task
-order results and errors), the ``plan_supports_parallel`` claim and
plan split, cost-gated mode selection, cancellation fan-out, and the
observability surfaces (``QueryResult.parallelism``, the profile's
``Exchange`` record, the ``Gather``/``Exchange`` explain rendering).
"""

import threading

import pytest

from repro import CypherEngine
from repro.exceptions import CypherRuntimeError, QueryCancelled, QueryTimeout
from repro.planner import logical as lg
from repro.planner.cost import estimated_source_rows
from repro.planner.parallel import (
    DEFAULT_PARALLEL_THRESHOLD,
    _partition,
    _split,
    describe_parallel,
    plan_supports_parallel,
)
from repro.runtime.cancel import AbortToken, CancelToken
from repro.runtime.scheduler import (
    Scheduler,
    SerialScheduler,
    ThreadScheduler,
    get_scheduler,
)


def build_engine(n=120, **kwargs):
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


class TestScheduler:
    def test_serial_runs_in_task_order(self):
        order = []
        tasks = [lambda i=i: (order.append(i), i)[1] for i in range(5)]
        assert SerialScheduler().run_tasks(tasks) == [0, 1, 2, 3, 4]
        assert order == [0, 1, 2, 3, 4]

    def test_thread_results_in_task_order_not_completion_order(self):
        import time

        def make(i):
            def task():
                time.sleep(0.02 * (4 - i))  # later tasks finish first
                return i

            return task

        results = ThreadScheduler(workers=4).run_tasks(
            [make(i) for i in range(4)]
        )
        assert results == [0, 1, 2, 3]

    def test_thread_uses_worker_threads(self):
        idents = []
        tasks = [
            lambda: idents.append(threading.get_ident()) for _ in range(4)
        ]
        ThreadScheduler(workers=4).run_tasks(tasks)
        assert any(ident != threading.get_ident() for ident in idents)

    def test_single_task_runs_inline(self):
        idents = []
        ThreadScheduler(workers=4).run_tasks(
            [lambda: idents.append(threading.get_ident())]
        )
        assert idents == [threading.get_ident()]

    def test_lowest_index_error_wins_and_abort_fires(self):
        aborted = []

        def ok():
            return "fine"

        def boom_a():
            raise ValueError("a")

        def boom_b():
            raise KeyError("b")

        for scheduler in (SerialScheduler(), ThreadScheduler(workers=4)):
            with pytest.raises(ValueError):
                scheduler.run_tasks(
                    [ok, boom_a, boom_b], abort=lambda: aborted.append(1)
                )
        assert len(aborted) == 2

    def test_get_scheduler_factory(self):
        assert isinstance(get_scheduler(None, 1), SerialScheduler)
        assert isinstance(get_scheduler(None, 4), ThreadScheduler)
        assert get_scheduler(None, 4).workers == 4
        assert isinstance(get_scheduler("serial", 4), SerialScheduler)
        instance = ThreadScheduler(workers=2)
        assert get_scheduler(instance, 8) is instance
        with pytest.raises(ValueError):
            get_scheduler("fibers", 4)
        assert issubclass(ThreadScheduler, Scheduler)


class TestClaimAndSplit:
    def _plan(self, engine, query):
        plan, _updating = engine._plan_for_explain(query)
        return plan

    def test_scan_rooted_reads_are_claimed(self):
        engine = build_engine(n=20)
        for query in (
            "MATCH (n:P) RETURN n.v AS v",
            "MATCH (n) RETURN count(*) AS c",
            "MATCH (a:P)-[:R]->(b) RETURN a.v AS v ORDER BY v LIMIT 3",
            "MATCH (a:P)-[:R*1..2]->(b) RETURN count(*) AS c",
        ):
            assert plan_supports_parallel(self._plan(engine, query)), query

    def test_unclaimed_shapes(self):
        engine = build_engine(n=20)
        for query in (
            "RETURN 1 AS x",  # no source scan above Init
            "UNWIND [1, 2] AS x RETURN x",
            "MATCH (a:P) OPTIONAL MATCH (a)-[:R]->(b) RETURN a, b",
            "CREATE (:Q) RETURN 1 AS x",
        ):
            assert not plan_supports_parallel(self._plan(engine, query)), query

    def test_split_places_partial_and_tail(self):
        engine = build_engine(n=20)
        plan = self._plan(
            engine,
            "MATCH (n:P) RETURN n.v AS v ORDER BY n.v SKIP 2 LIMIT 3",
        )
        worker_ops, partial, tail_ops, source = _split(plan)
        assert isinstance(source, lg.NodeByLabelScan)
        assert isinstance(partial, lg.Top)  # Sort+Skip+Limit fuse to Top
        plain = self._plan(engine, "MATCH (n:P) WHERE n.v > 2 RETURN n.v AS v")
        worker_ops, partial, tail_ops, source = _split(plain)
        assert partial is None
        assert any(isinstance(op, lg.Filter) for op in worker_ops)

    def test_partition_contiguous_and_deterministic(self):
        items = list(range(100))
        chunks = _partition(items, workers=4, morsel_size=8)
        assert chunks == _partition(items, workers=4, morsel_size=8)
        assert [x for chunk in chunks for x in chunk] == items
        assert 1 < len(chunks) <= 8
        sizes = [len(chunk) for chunk in chunks]
        assert max(sizes) - min(sizes) <= 1
        assert _partition(items, workers=1, morsel_size=8) == [items]
        assert _partition([], workers=4, morsel_size=8) == [[]]


class TestModeSelection:
    def test_auto_stays_serial_below_threshold(self):
        engine = build_engine(n=50, workers=4)
        result = engine.run("MATCH (n:P) RETURN count(*) AS c")
        assert result.execution_mode == "batch"
        assert result.parallelism is None

    def test_auto_parallelises_above_threshold(self):
        engine = build_engine(
            n=50, workers=4, parallel_threshold=10, morsel_size=8
        )
        result = engine.run("MATCH (n:P) RETURN count(*) AS c")
        assert result.execution_mode == "parallel"
        assert result.parallelism["partitions"] > 1

    def test_single_worker_engine_never_parallelises_in_auto(self):
        engine = build_engine(n=50, parallel_threshold=10)
        result = engine.run("MATCH (n:P) RETURN count(*) AS c")
        assert result.execution_mode == "batch"

    def test_pinned_parallel_ignores_threshold(self):
        engine = build_engine(n=12, workers=2, morsel_size=4)
        result = engine.run("MATCH (n:P) RETURN count(*) AS c", mode="parallel")
        assert result.execution_mode == "parallel"

    def test_pinned_parallel_degrades_to_batch_outside_claim(self):
        engine = build_engine(n=12, workers=2)
        result = engine.run("UNWIND [1, 2] AS x RETURN x", mode="parallel")
        assert result.execution_mode == "batch"

    def test_estimated_source_rows(self):
        engine = build_engine(n=50)
        plan, _ = engine._plan_for_explain("MATCH (n:P) RETURN n.v AS v")
        assert estimated_source_rows(plan, engine.graph) == 50.0
        plan, _ = engine._plan_for_explain("MATCH (n) RETURN count(*) AS c")
        assert estimated_source_rows(plan, engine.graph) == 50.0
        assert DEFAULT_PARALLEL_THRESHOLD > 0


class TestCancellation:
    def test_pre_cancelled_token_refuses(self):
        engine = build_engine(n=30, workers=4, morsel_size=4)
        token = CancelToken()
        token.cancel()
        with pytest.raises(QueryCancelled):
            engine.run(
                "MATCH (n:P) RETURN count(*) AS c",
                mode="parallel",
                cancel=token,
            )

    def test_timeout_interrupts_all_workers(self):
        engine = build_engine(n=60, workers=4, morsel_size=4)
        with pytest.raises(QueryTimeout):
            engine.run(
                "MATCH (a:P), (b:P), (c:P), (d:P) RETURN count(*) AS c",
                mode="parallel",
                timeout=0.05,
            )

    def test_worker_error_propagates_once(self):
        engine = build_engine(n=60, workers=4, morsel_size=4)
        with pytest.raises(CypherRuntimeError):
            engine.run(
                "MATCH (n:P) RETURN n.v AS v ORDER BY n.v LIMIT -1",
                mode="parallel",
            )
        # The engine stays usable after a failed parallel run.
        assert engine.run(
            "MATCH (n:P) RETURN count(*) AS c", mode="parallel"
        ).value() == 60

    def test_abort_token_relays_inner_and_own_flag(self):
        inner = CancelToken()
        token = AbortToken(inner)
        assert not token._cancelled
        inner.cancel()
        assert token._cancelled
        own = AbortToken(None)
        own.abort()
        assert own._cancelled


class TestObservability:
    def test_parallelism_record_shape(self):
        engine = build_engine(n=40, workers=4, morsel_size=4)
        result = engine.run("MATCH (n:P) RETURN n.v AS v", mode="parallel")
        info = result.parallelism
        assert info["workers"] == 4
        assert info["scheduler"] == "thread"
        assert info["merge"] == "ordered"
        assert info["source_rows"] == 40
        assert sum(info["worker_rows"]) == 40
        assert len(info["worker_rows"]) == info["partitions"] > 1
        assert len(info["worker_threads"]) == info["partitions"]

    def test_profile_carries_exchange_record(self):
        engine = build_engine(n=40, workers=4, morsel_size=4)
        result = engine.run(
            "MATCH (n:P) WHERE n.v > 1 RETURN n.v AS v",
            mode="parallel",
            profile=True,
        )
        exchange = [
            record
            for record in result.access_paths
            if record["operator"] == "Exchange"
        ]
        assert len(exchange) == 1
        record = exchange[0]
        assert record["partitions"] > 1
        assert len(record["worker_morsels"]) == record["partitions"]
        assert sum(record["worker_rows"]) == record["actual_rows"]
        # The scan record survives, with summed actuals.
        scans = [
            r for r in result.access_paths if r["operator"] == "NodeByLabelScan"
        ]
        assert scans and scans[0]["actual_rows"] == 40

    def test_profile_matches_cli_rendering(self):
        from repro.cli import _access_path_lines

        engine = build_engine(n=40, workers=4, morsel_size=4)
        result = engine.run(
            "MATCH (n:P) RETURN n.v AS v", mode="parallel", profile=True
        )
        lines = _access_path_lines(result.access_paths)
        assert any("morsels/worker" in line for line in lines)

    def test_explain_renders_exchange_and_gather(self):
        engine = build_engine(n=40, workers=4, morsel_size=4, mode="parallel")
        _by, _reason, text, _cache, mode = engine.explain_info(
            "MATCH (n:P) RETURN n.v AS v, count(*) AS c"
        )
        assert mode == "parallel"
        assert "Exchange(workers=4" in text
        assert "Gather(merge=aggregate)" in text

    def test_describe_parallel_tail_keeps_skip_limit_outside(self):
        engine = build_engine(n=40)
        plan, _ = engine._plan_for_explain(
            "MATCH (n:P) RETURN n.v AS v SKIP 2"
        )
        shown = describe_parallel(plan, 2, graph=engine.graph)
        text = shown.describe()
        assert text.index("Skip") < text.index("Exchange")


class TestSessionIntegration:
    def test_snapshot_reads_run_on_the_engine_with_its_parallel_knobs(self):
        """True by construction: a snapshot has no engine of its own."""
        engine = build_engine(n=40, workers=4, morsel_size=4, mode="parallel")
        query = "MATCH (n:P) RETURN count(*) AS c"
        with engine.session() as session:
            snapshot = session.snapshot()
            for dirty in (False, True):
                if dirty:
                    engine.run("CREATE (:P {v: 99})")
                assert snapshot.pin.clean is not dirty
                result = snapshot.run(query)
                assert result.execution_mode == "parallel"
                assert result.parallelism["partitions"] > 1
                assert result.value() == 40
            assert engine.run(query).value() == 41
