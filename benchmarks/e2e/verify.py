"""The untimed ``verify`` phase: every workload against the oracle.

The reference interpreter is the paper's Section 4 semantics; the
default engine path is correct only where it agrees with it.  Reads are
compared result by result, writes by the final store.
"""

from __future__ import annotations

import time

from repro import CypherEngine
from repro.selftest import graph_state

from workloads import MixedWorkload, UpdateStream, apply_transaction
from world import META_INVARIANTS, META_READ


class Verdict:
    def __init__(self):
        self.checks = 0
        self.failures = []
        self.engine_ns = []       # per verified read, default mode
        self.interpreter_ns = []  # the same reads under the interpreter

    @property
    def ok(self):
        return not self.failures

    def merge(self, other):
        self.checks += other.checks
        self.failures += other.failures
        self.engine_ns += other.engine_ns
        self.interpreter_ns += other.interpreter_ns
        return self

    def check(self, condition, message):
        self.checks += 1
        if not condition:
            self.failures.append(message)


def _bag(records):
    return sorted(repr(sorted(record.items())) for record in records)


def _ordering(records, order_key):
    return [tuple(record[key] for key in order_key) for record in records]


def verify_reads(workload, per_template):
    """Default mode against ``mode="interpreter"`` on distinct ops."""
    verdict = Verdict()
    engine = workload.engine
    clock = time.perf_counter_ns
    for index, text, parameters in workload.verify_ops(per_template):
        template = workload.templates[index]
        started = clock()
        got = engine.run(text, parameters).records
        middle = clock()
        want = engine.run(text, parameters, mode="interpreter").records
        verdict.interpreter_ns.append(clock() - middle)
        verdict.engine_ns.append(middle - started)
        where = "%s %r" % (template.name, parameters or text)
        verdict.check(_bag(got) == _bag(want), "bag differs: " + where)
        if template.order_key:
            verdict.check(
                _ordering(got, template.order_key)
                == _ordering(want, template.order_key),
                "order differs: " + where,
            )
    return verdict


def _check_meta(verdict, run, where):
    meta = run(META_READ).single()
    for key, query in META_INVARIANTS:
        actual = run(query).value("n")
        verdict.check(
            meta[key] == actual,
            "%s: Meta.%s=%r but counted %r" % (where, key, meta[key], actual),
        )
    return meta


def verify_updates(world, seed, transactions):
    """The stream's first transactions on two copies, one per mode."""
    verdict = Verdict()
    states = []
    for mode in ("auto", "interpreter"):
        engine = CypherEngine(world.graph.copy(), mode=mode)
        stream = UpdateStream(world.handles, seed)
        committed = 0
        timings = (
            verdict.engine_ns if mode == "auto" else verdict.interpreter_ns
        )
        with engine.session() as session:
            for transaction in stream.take(transactions):
                started = time.perf_counter_ns()
                apply_transaction(session, transaction)
                timings.append(time.perf_counter_ns() - started)
                committed += not transaction.abort
        meta = _check_meta(verdict, engine.run, "update_txn/" + mode)
        verdict.check(
            meta["txns"] == committed,
            "update_txn/%s: %r transactions visible, %d committed"
            % (mode, meta["txns"], committed),
        )
        states.append(graph_state(engine.graph))
    verdict.check(
        states[0] == states[1],
        "update_txn: final store differs between auto and interpreter",
    )
    return verdict


def verify_mixed(world, seed, reads):
    """A short interleave: invariants on every snapshot, then replay."""
    verdict = Verdict()
    before = world.graph.copy()
    engine = CypherEngine(world.graph.copy())
    mixed = MixedWorkload().bind(world, seed, engine=engine)
    mixed.on_snapshot = lambda snapshot: _check_meta(
        verdict, snapshot.run, "mixed_rw v%d" % snapshot.version
    )
    try:
        out = mixed.run_pass(reads)
    finally:
        mixed.close()  # rolls the writer's open transaction back
    verdict.check(out.failed == 0, "mixed_rw: %r" % (out.first_error,))
    verdict.check(
        mixed.version_regressions == 0, "mixed_rw: a pin version decreased"
    )
    replay = CypherEngine(before)
    with replay.session() as session:
        for transaction in mixed.committed_log:
            apply_transaction(session, transaction)
    verdict.check(
        graph_state(engine.graph) == graph_state(before),
        "mixed_rw: final store differs from a serial replay of the log",
    )
    return verdict


def run_verify(workload, world, seed, sizes):
    if workload.name == "update_txn":
        return verify_updates(world, seed, sizes.verify_transactions)
    per_template = sizes.verify_per_template[workload.name]
    if workload.name == "mixed_rw":
        verdict = verify_mixed(world, seed, sizes.verify_mixed_reads)
        return verdict.merge(verify_reads(workload.reads, per_template))
    return verify_reads(workload, per_template)
