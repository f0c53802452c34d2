"""The pipeline replayed by hand, one span per call into each layer.

``engine.run`` hides the layers behind one call, so the traced pass
walks a statement through the public functions the engine itself calls
— ``tokenize`` → ``parse_query`` → ``check_query`` → ``rewrite_query`` →
``plan_query`` → ``execute_plan_batched``/``execute_plan`` →
``QueryResult.records`` — and times each from outside.  The sum of the
layer medians is reconciled against a cold ``engine.run`` of the same
statements (``engine.pipeline_reconcile``).
"""

from __future__ import annotations

import time
from collections import defaultdict

from repro import CypherEngine, MemoryGraph, QueryResult
from repro.ast.printer import print_query
from repro.parser import parse_query, tokenize
from repro.planner import (
    execute_plan,
    execute_plan_batched,
    plan_depends_on_statistics,
    plan_query,
    plan_supports_batch,
)
from repro.rewriter import rewrite_query
from repro.semantics.analysis import check_query

from world import declare_indexes

_clock = time.perf_counter_ns


class Replay:
    """Per-layer samples (ns) and counts from one replayed sample."""

    def __init__(self):
        self.ns = defaultdict(list)
        self.by_template = defaultdict(lambda: defaultdict(list))
        self.tokens = 0
        self.statements = 0
        self.rewritten = 0
        self.stats_sensitive = 0
        self.plan_operators = []
        self.rows_out = 0
        self.scan_q_errors = []
        self.scan_rows = 0
        self.profiled_rows_out = 0


def _span(replay, spans, number, root, name, call):
    started = _clock()
    value = call()
    ended = _clock()
    spans.add(number, name, started, ended, root)
    replay.ns[name].append(ended - started)
    return value


def _front_end(replay, spans, number, root, text, graph):
    """tokenize … plan_query, as ``CypherEngine.run`` does on a miss."""
    tokens = _span(replay, spans, number, root, "tokenize",
                   lambda: tokenize(text))
    query = _span(replay, spans, number, root, "parse",
                  lambda: parse_query(text))
    _span(replay, spans, number, root, "check", lambda: check_query(query))
    rewritten = _span(replay, spans, number, root, "rewrite",
                      lambda: rewrite_query(query))
    plan = _span(replay, spans, number, root, "plan",
                 lambda: plan_query(rewritten, graph))
    replay.tokens += len(tokens)
    replay.statements += 1
    replay.rewritten += print_query(query) != print_query(rewritten)
    replay.stats_sensitive += bool(plan_depends_on_statistics(plan))
    replay.plan_operators.append(len(plan.describe().splitlines()))
    return plan


def _materialise(replay, spans, number, root, table, plan, mode):
    result = QueryResult(
        table, plan=plan, executed_by="planner", execution_mode=mode
    )
    records = _span(replay, spans, number, root, "materialise",
                    lambda: result.records)
    replay.rows_out += len(records)


def _note_access(replay, access_log, rows_out):
    for entry in access_log:
        estimated = entry.get("estimated_rows")
        actual = entry.get("actual_rows")
        if estimated is None or actual is None:
            continue
        replay.scan_rows += actual
        # Smoothed so that an empty scan the planner expected to be
        # empty is a perfect estimate, not a division by zero.
        replay.scan_q_errors.append(
            max((estimated + 1) / (actual + 1), (actual + 1) / (estimated + 1))
        )
    replay.profiled_rows_out += rows_out


def _timed(replay, name, template, call):
    started = _clock()
    value = call()
    elapsed = _clock() - started
    replay.ns[name].append(elapsed)
    if template is not None:
        replay.by_template[name][template].append(elapsed)
    return value


def replay_reads(ops, names, world, spans):
    """Each sampled read: warm and cold engine runs, the pipeline by
    hand, both executors, their set-up floors, and a profiled run."""
    replay = Replay()
    engine, graph = world.engine, world.graph
    # The same indexes, no data: executing a plan here costs closure
    # compilation plus zero rows — the executor's set-up floor.
    floor = declare_indexes(MemoryGraph())
    for number, (template, text, parameters) in enumerate(ops):
        index = names[template]
        mode = engine.run(text, parameters).execution_mode
        _timed(replay, "engine.warm_run", index,
               lambda: engine.run(text, parameters).records)
        cold = CypherEngine(graph)
        _timed(replay, "engine.cold_run", None,
               lambda: cold.run(text, parameters).records)

        root = spans.new_id()
        started = _clock()
        plan = _front_end(replay, spans, number, root, text, graph)
        batch = plan_supports_batch(plan)

        def run_batch(target=graph, log=None):
            return execute_plan_batched(
                plan, target, parameters=parameters, access_log=log
            )

        def run_row(target=graph, log=None):
            return execute_plan(
                plan, target, parameters=parameters, access_log=log,
                read_only=True,
            )

        chosen = run_batch if mode == "batch" else run_row
        # The first execution of a fresh plan also fills the plan's
        # memoised slot map: that is what a plan-cache miss pays, so it
        # is the span that reconciles with the cold run.  The executor
        # columns time the plan as a cache hit finds it.
        table = _span(replay, spans, number, root, "execute", chosen)
        _materialise(replay, spans, number, root, table, plan, mode)
        spans.add(number, "op", started, _clock(), None, root)
        _timed(replay, mode + ".execute", index, chosen)
        replay.ns["chosen.execute"].append(replay.ns[mode + ".execute"][-1])

        if mode == "batch":
            _timed(replay, "row.execute", index, run_row)
        elif batch:
            _timed(replay, "batch.execute", index, run_batch)
        if batch:
            _timed(replay, "batch.setup_floor", None, lambda: run_batch(floor))
        _timed(replay, "row.setup_floor", None, lambda: run_row(floor))

        access_log = []
        profiled = chosen(log=access_log)
        _note_access(replay, access_log, len(profiled))
    return replay


def replay_writes(statements, world, spans):
    """Write statements in stream order on two copies: one walked by
    hand (profiled: a write cannot run twice), one run by a fresh engine
    per statement, so both see the same store at every step."""
    replay = Replay()
    by_hand = world.graph.copy()
    by_engine = world.graph.copy()
    for number, (index, text, parameters) in enumerate(statements):
        _timed(replay, "engine.cold_run", None,
               lambda: CypherEngine(by_engine).run(text, parameters).records)
        root = spans.new_id()
        started = _clock()
        plan = _front_end(replay, spans, number, root, text, by_hand)
        access_log = []
        table = _span(
            replay, spans, number, root, "execute",
            lambda: execute_plan(
                plan, by_hand, parameters=parameters, access_log=access_log
            ),
        )
        _materialise(replay, spans, number, root, table, plan, "row")
        spans.add(number, "op", started, _clock(), None, root)
        replay.ns["row.execute"].append(replay.ns["execute"][-1])
        _note_access(replay, access_log, len(table))
    return replay
