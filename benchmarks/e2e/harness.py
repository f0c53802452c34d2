"""The measuring half of the benchmark (``run.py`` is the entry point).

Everything here runs after ``run.py`` has put this checkout's ``src``
and this directory on the path: passes of calibrated slices, the
end-to-end and per-layer metrics, and the printed report.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import time
from array import array

import stats
import workloads
from census import run_census
from replay import replay_reads, replay_writes
from verify import run_verify
from world import build_world

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(
    os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json"
)

#: Re-run a timed phase once when its passes, after calibration, still
#: disagree by more than this (distance between the quartiles of the
#: per-pass throughputs over their median).
DISTURBED = 0.15

#: What one calibration kernel takes on this class of host when nothing
#: else runs.  End-to-end times are reported in *calibrated* seconds:
#: wall time divided by ``host_scale(kernel time now)``, so a run on a
#: host that is 30% slower for a while reads as it would have on a quiet
#: one.  Changing either constant rescales every end-to-end time.
REFERENCE_KERNEL_NS = 900_000

#: When the kernel takes ``f`` times its reference, the engine takes
#: about ``f ** 0.8`` times as long: the kernel allocates more per
#: bytecode than the engine does and suffers more from a busy host.
#: Fitted on the seed over 30 runs with the host between 0.9x and 2.8x
#: (README, "Calibrated time"): 0.8 minimised the run-to-run range of
#: all three timings; 0 (raw wall time) was four to five times worse.
HOST_EXPONENT = 0.8


def host_scale(kernel_ns):
    """How many times slower than the reference host the engine runs."""
    return (kernel_ns / REFERENCE_KERNEL_NS) ** HOST_EXPONENT


def kernel():
    """~1 ms of dict, list, tuple, string and sort work; returns ns.

    Deliberately the kind of Python the engine itself executes
    (allocation- and lookup-heavy), none of it the engine's own code, so
    the kernel slows down with the host and never with a change to src/.
    The collector is off inside it: a collection the kernel's own
    allocations trigger would cost whatever the workload's heap costs to
    scan, which is not the host's speed.
    """
    gc.disable()
    started = time.perf_counter_ns()
    groups = {}
    for i in range(1500):
        key = "k%d" % (i % 97)
        groups.setdefault(key, []).append({"id": key, "v": i, "w": (i, key)})
    total = 0
    for rows in groups.values():
        for row in sorted(rows, key=lambda r: r["v"], reverse=True)[:3]:
            total += row["v"] + len(row["w"])
    elapsed = time.perf_counter_ns() - started
    gc.enable()
    return elapsed


class Sizes:
    """How much work each phase does; ``--smoke`` shrinks everything."""

    scale = 1.0
    setup_repeats = 3
    warmup = 300
    #: A slice is a whole number of template cycles (update_txn: of kind
    #: x rollback cycles), so every slice runs the same mix: 40-80 ms of
    #: it on the seed, with a calibration kernel before and after.
    slice_ops = {
        "interactive_read": 280, "adhoc_compile": 35, "analytic_scan": 24,
        "update_txn": 35, "mixed_rw": 28,
    }
    #: Slices per pass (about 0.8 s).  A timed run takes as many passes
    #: as fit in ``--seconds``, a traced run ``trace_passes``.
    pass_slices = {
        "interactive_read": 20, "adhoc_compile": 20, "analytic_scan": 12,
        "update_txn": 8, "mixed_rw": 12,
    }
    trace_passes = 3
    verify_per_template = {
        "interactive_read": 8, "adhoc_compile": 8, "analytic_scan": 6,
        "mixed_rw": 2,
    }
    verify_transactions = 60
    verify_mixed_reads = 160
    replay_statements = {
        "interactive_read": 280, "adhoc_compile": 280, "analytic_scan": 120,
        "update_txn": 280, "mixed_rw": 280,
    }
    #: update_txn has no read statement: its batch-executor columns are
    #: measured on this many interactive reads.
    reference_reads = 140
    census_calls = 2000
    census_writes = 500
    census_transactions = 300
    census_mixed_reads = 400
    census_reads = 700
    census_analytic = 180


class SmokeSizes(Sizes):
    scale = 0.05
    setup_repeats = 1
    warmup = 20
    pass_slices = dict.fromkeys(Sizes.pass_slices, 6)
    pass_slices["interactive_read"] = 1
    trace_passes = 1
    verify_per_template = dict.fromkeys(Sizes.verify_per_template, 2)
    verify_transactions = 21
    verify_mixed_reads = 40
    replay_statements = dict.fromkeys(Sizes.replay_statements, 28)
    reference_reads = 14
    census_calls = 100
    census_writes = 50
    census_transactions = 35
    census_mixed_reads = 60
    census_reads = 70
    census_analytic = 30


class Attempt:
    """One timed phase: passes of calibrated slices."""

    def __init__(self, pooled):
        self.pooled = pooled      # PassOut over every slice
        self.calibrated = array("d")  # per-op latency, calibrated ns
        self.slice_rates = []     # calibrated ops/s, one per slice
        self.slice_raw = []       # (wall-clock ops/s, host scale) per slice
        self.pass_rates = []      # median calibrated ops/s, one per pass
        self.pass_p50 = []        # calibrated ns, one per pass
        self.pass_p95 = []
        self.pass_scales = []     # host slowness per pass (1 = reference)
        self.wall_ns = 0          # inside slices only
        self.cpu_ns = 0
        self.gen2 = 0
        self.cache_hits = 0
        self.cache_misses = 0

    def calibration_spread(self):
        """How far the host itself moved between passes."""
        return max(self.pass_scales) / min(self.pass_scales) - 1.0

    def as_json(self):
        return {
            "slice_rates": self.slice_rates,
            "slice_raw": self.slice_raw,
            "pass_p50_ms": [ns / 1e6 for ns in self.pass_p50],
            "pass_p95_ms": [ns / 1e6 for ns in self.pass_p95],
            "pass_rates": self.pass_rates,
            "pass_host_scale": self.pass_scales,
            "calibration_spread": self.calibration_spread(),
            "wall_s": self.wall_ns / 1e9,
            "samples": len(self.pooled.latencies),
            "failed": self.pooled.failed,
        }


def run_pass(workload, sizes, attempt, spans=None):
    """One pass: slices with a kernel between each, after one collect."""
    slice_ops = sizes.slice_ops[workload.name]
    calibrated, scales, rates = array("d"), [], []
    gc.collect()
    gen2 = gc.get_stats()[2]["collections"]
    before = kernel()
    for _ in range(sizes.pass_slices[workload.name]):
        out = workload.run_pass(slice_ops, spans)
        after = kernel()
        scale = host_scale((before + after) / 2.0)
        before = after
        scales.append(scale)
        calibrated.extend(ns / scale for ns in out.latencies)
        if out.latencies:
            rate = len(out.latencies) / out.wall_ns * 1e9
            rates.append(rate * scale)
            attempt.slice_raw.append((rate, scale))
        attempt.pooled.absorb(out)
        attempt.wall_ns += out.wall_ns
        attempt.cpu_ns += out.cpu_ns
    attempt.gen2 += gc.get_stats()[2]["collections"] - gen2
    attempt.calibrated += calibrated
    attempt.slice_rates += rates
    attempt.pass_rates.append(stats.median(rates))
    attempt.pass_p50.append(stats.percentile(calibrated, 50))
    attempt.pass_p95.append(stats.percentile(calibrated, 95))
    attempt.pass_scales.append(stats.median(scales))


def run_attempt(workload, engine, sizes, passes=None, seconds=None):
    """A fixed number of passes, or as many as it takes for the time
    spent inside slices to add up to ``seconds`` (at least three)."""
    attempt = Attempt(workloads.PassOut())
    before = engine.plan_cache_info()
    while True:
        done = len(attempt.pass_p50)
        if passes is not None and done >= passes:
            break
        if passes is None and done >= 3 and attempt.wall_ns >= seconds * 1e9:
            break
        run_pass(workload, sizes, attempt)
    after = engine.plan_cache_info()
    attempt.cache_hits = after["hits"] - before["hits"]
    attempt.cache_misses = after["misses"] - before["misses"]
    return attempt


class Metrics:
    """Named values with units, in the order they were measured."""

    def __init__(self):
        self.values = {}

    def put(self, name, value, unit):
        self.values[name] = (value, unit)

    def result(self, names):
        missing = [name for name in names if name not in self.values]
        if missing:
            raise SystemExit("metrics not measured: %s" % ", ".join(missing))
        return {
            name: {"value": self.values[name][0], "unit": self.values[name][1]}
            for name in names
        }

    def show(self, title, shares=None):
        print(title)
        for name, (value, unit) in self.values.items():
            share = ""
            if shares and name in shares:
                share = "   share of op time %.3f" % shares[name]
            print("  %-36s %16.6g  %s%s" % (name, value, unit, share))


def timed_setup(sizes, seed):
    """Build the world; returns it with its calibrated set-up seconds:
    each stage over the host scale seen just before and after it."""
    gc.collect()
    probes = []

    def probe():
        probes.append(min(kernel(), kernel(), kernel()))

    world = build_world(sizes.scale, seed, probe)
    seconds = sum(
        stage / host_scale((before + after) / 2.0)
        for stage, before, after
        in zip(world.timings.values(), probes, probes[1:])
    )
    return world, seconds


def end_to_end(attempt, setup_seconds, verdict):
    metrics = Metrics()
    median = stats.median
    metrics.put("throughput_ops_s", median(attempt.slice_rates), "ops/s")
    metrics.put("latency_p50_ms", median(attempt.pass_p50) / 1e6, "ms")
    metrics.put("latency_p95_ms", median(attempt.pass_p95) / 1e6, "ms")
    metrics.put("setup_s", median(setup_seconds), "s")
    metrics.put(
        "peak_rss_mb",
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB",
    )
    attempted = attempt.pooled.attempted + verdict.checks
    failed = attempt.pooled.failed + len(verdict.failures)
    metrics.put("failed_share", failed / attempted, "ratio")
    metrics.put("verify_ok", int(verdict.ok), "0/1")
    return metrics, attempted, failed


def driver_metrics(attempt, put):
    calibrated = attempt.calibrated
    samples = len(calibrated)
    put("driver.latency_p99_ms", stats.percentile(calibrated, 99) / 1e6, "ms")
    put("driver.latency_max_ms", max(calibrated) / 1e6, "ms")
    put("driver.samples", samples, "count")
    put("driver.raw_throughput_ops_s", samples / attempt.wall_ns * 1e9, "ops/s")
    put("driver.host_scale", stats.median(attempt.pass_scales), "ratio")
    put("driver.pass_spread", stats.spread(attempt.pass_rates), "ratio")
    put("driver.calibration_spread", attempt.calibration_spread(), "ratio")
    put("driver.cpu_over_wall", attempt.cpu_ns / attempt.wall_ns, "ratio")
    put("driver.gc_gen2_collections", attempt.gen2, "count")


def traced_pass(workload, sizes):
    """One more pass with spans on, GC pauses timed through gc.callbacks."""
    spans = workloads.Spans()
    attempt = Attempt(workloads.PassOut())
    pauses = []
    mark = [0]

    def on_gc(phase, info):
        if phase == "start":
            mark[0] = time.perf_counter_ns()
        else:
            pauses.append(time.perf_counter_ns() - mark[0])

    gc.callbacks.append(on_gc)
    try:
        run_pass(workload, sizes, attempt, spans)
    finally:
        gc.callbacks.remove(on_gc)
    # The explicit collect that opens the pass is not the workload's.
    return spans, attempt, sum(pauses[1:]) / attempt.wall_ns


def layer_metrics(workload, world, attempt, verdict, probes, sizes, seed):
    """Everything ``--trace 1`` reports, and the per-op shares."""
    metrics = Metrics()
    put = metrics.put
    median = stats.median

    def us(samples):
        return median(samples) / 1e3

    pooled = attempt.pooled
    spans, traced, gc_share = traced_pass(workload, sizes)

    replay_spans = workloads.Spans()
    statements = workload.statements(sizes.replay_statements[workload.name])
    is_update = workload.name == "update_txn"
    if is_update:
        replay = replay_writes(statements, world, replay_spans)
        reads = workloads.ReadWorkload(
            "reference", workloads.INTERACTIVE
        ).bind(world, seed)
        executors = replay_reads(
            reads.statements(sizes.reference_reads), reads.template_names,
            world, workloads.Spans(),
        )
        warm_run = spans.durations("session.run")
    else:
        replay = executors = replay_reads(
            statements, workload.template_names, world, replay_spans
        )
        warm_run = replay.ns["engine.warm_run"]
    ns = replay.ns

    put("parser.tokenize_us", us(ns["tokenize"]), "us")
    put("parser.parse_us", us(ns["parse"]), "us")
    put("parser.tokens_per_s", replay.tokens / sum(ns["tokenize"]) * 1e9, "1/s")
    put("analysis.check_us", us(ns["check"]), "us")
    put("rewriter.rewrite_us", us(ns["rewrite"]), "us")
    put("rewriter.changed_share", replay.rewritten / replay.statements, "ratio")
    put("planner.plan_us", us(ns["plan"]), "us")
    put("planner.plan_operators", median(replay.plan_operators), "count")
    put("planner.stats_sensitive_share",
        replay.stats_sensitive / replay.statements, "ratio")
    q_errors = replay.scan_q_errors or [1.0]
    put("planner.scan_q_error_p50", stats.percentile(q_errors, 50), "ratio")
    put("planner.scan_q_error_p95", stats.percentile(q_errors, 95), "ratio")
    put("exec.rows_examined_per_row_out",
        replay.scan_rows / max(replay.profiled_rows_out, 1), "ratio")

    batch_ns = executors.ns["batch.execute"]
    row_ns = executors.ns["row.execute"]
    put("batch.execute_us", us(batch_ns), "us")
    put("batch.setup_floor_us", us(executors.ns["batch.setup_floor"]), "us")
    put("row.execute_us", us(ns["row.execute"]), "us")
    put("row.setup_floor_us", us(executors.ns["row.setup_floor"]), "us")
    put("exec.row_over_batch", median(row_ns) / median(batch_ns), "ratio")
    executed = max(pooled.batch + pooled.row + pooled.interpreter, 1)
    put("exec.batch_share", pooled.batch / executed, "ratio")
    put("exec.row_share", pooled.row / executed, "ratio")
    put("exec.interpreter_share", pooled.interpreter / executed, "ratio")
    put("exec.rows_out", pooled.rows_out / max(len(pooled.latencies), 1), "count")
    put("result.materialise_us", us(ns["materialise"]), "us")

    put("interpreter.run_us", us(verdict.interpreter_ns), "us")
    put("interpreter.over_engine",
        median(verdict.interpreter_ns) / median(verdict.engine_ns), "ratio")

    layers = ("parse", "check", "rewrite", "plan", "execute", "materialise")
    cold = ns["engine.cold_run"]
    put("engine.warm_run_us", us(warm_run), "us")
    put("engine.cold_run_us", us(cold), "us")
    if is_update:
        overhead = median(warm_run) - median(ns["execute"]) - median(
            ns["materialise"])
    else:
        # Per op, against the executor the engine chose, plan warm.
        overhead = median([
            warm - execute - materialise for warm, execute, materialise
            in zip(warm_run, ns["chosen.execute"], ns["materialise"])
        ])
    put("engine.dispatch_overhead_us", overhead / 1e3, "us")
    total = attempt.cache_hits + attempt.cache_misses
    put("engine.plan_cache_hit_rate", attempt.cache_hits / max(total, 1), "ratio")
    put("engine.plan_cache_misses", attempt.cache_misses, "count")
    # Per statement: the layers walked by hand over one cold engine run.
    put("engine.pipeline_reconcile", median([
        sum(ns[layer][i] for layer in layers) / cold[i]
        for i in range(len(cold))
    ]), "ratio")

    metrics.values.update(probes.values)
    driver_metrics(attempt, put)
    put("driver.gc_time_share", gc_share, "ratio")
    put("driver.tracing_overhead",
        median(attempt.slice_rates) / median(traced.slice_rates) - 1.0, "ratio")
    put("driver.result_digest", spans.digest_number(), "count")

    # Share of an op's time: mean time per call x calls per op / mean op
    # time.  The front end runs once per plan-cache miss, the executor
    # and the result once per statement.
    ops = max(len(pooled.latencies), 1)
    op_ns = attempt.wall_ns / ops
    misses_per_op = attempt.cache_misses / ops
    statements_per_op = executed / ops

    def share(samples, calls_per_op):
        return sum(samples) / len(samples) * calls_per_op / op_ns

    shares = {
        "parser.parse_us": share(ns["parse"], misses_per_op),
        "analysis.check_us": share(ns["check"], misses_per_op),
        "rewriter.rewrite_us": share(ns["rewrite"], misses_per_op),
        "planner.plan_us": share(ns["plan"], misses_per_op),
        "result.materialise_us": share(ns["materialise"], statements_per_op),
    }
    if is_update:
        shares["row.execute_us"] = share(ns["row.execute"], statements_per_op)
    else:
        batch_per_op = pooled.batch / ops
        shares["batch.execute_us"] = share(batch_ns, batch_per_op)
        shares["batch.setup_floor_us"] = share(
            executors.ns["batch.setup_floor"], batch_per_op
        )
    return metrics, shares, [spans, replay_spans], executors


def show_executors(executors):
    """Row against batch, template by template, plan warm."""
    print("row over batch, per template (median us)")
    rows = executors.by_template["row.execute"]
    batches = executors.by_template["batch.execute"]
    for name in sorted(set(rows) & set(batches)):
        row, batch = stats.median(rows[name]), stats.median(batches[name])
        print("  %-36s row %10.1f  batch %10.1f  row/batch %.2f"
              % (name, row / 1e3, batch / 1e3, row / batch))


def run_workload(name, args, sizes):
    setup_seconds = []
    world = None
    for _ in range(1 if args.trace else sizes.setup_repeats):
        world = None  # free the previous build before the next is timed
        world, seconds = timed_setup(sizes, args.seed)
        setup_seconds.append(seconds)
    workload = workloads.build(name).bind(world, args.seed)
    raw = {"setup_s": setup_seconds, "attempts": []}
    try:
        started = time.perf_counter()
        verdict = run_verify(workload, world, args.seed, sizes)
        raw["verify_s"] = time.perf_counter() - started
        probes = Metrics()
        if args.trace:
            run_census(world, args.seed, sizes, probes.put)
        workload.run_pass(sizes.warmup)

        def attempt_once():
            if args.trace:
                return run_attempt(
                    workload, world.engine, sizes,
                    passes=sizes.trace_passes,
                )
            return run_attempt(
                workload, world.engine, sizes, seconds=args.seconds
            )

        attempt = attempt_once()
        raw["attempts"].append(attempt.as_json())
        if not args.trace and stats.spread(attempt.pass_rates) > DISTURBED:
            attempt = attempt_once()
            raw["attempts"].append(attempt.as_json())
        # Three fixed passes are too few to call a traced run disturbed.
        disturbed = (
            not args.trace and stats.spread(attempt.pass_rates) > DISTURBED
        )
        e2e, attempted, failed = end_to_end(attempt, setup_seconds, verdict)
        layers = shares = executors = None
        span_logs = []
        if args.trace:
            layers, shares, span_logs, executors = layer_metrics(
                workload, world, attempt, verdict, probes, sizes, args.seed
            )
    finally:
        workload.close()

    print("== %s  seed %d  scale %g ==" % (name, args.seed, sizes.scale))
    e2e.show(
        "end-to-end (untraced, calibrated time; %d samples, %d passes, "
        "%d slices)" % (
            len(attempt.calibrated), len(attempt.pass_p50),
            len(attempt.slice_rates),
        )
    )
    if layers is not None:
        layers.show("per-layer (traced pass, pipeline replay, census)", shares)
        show_executors(executors)
    else:
        partial = Metrics()
        driver_metrics(attempt, partial.put)
        partial.show("driver")
    print("  disturbed: %s" % ("true" if disturbed else "false"))
    for failure in verdict.failures[:10]:
        print("  VERIFY FAILED: %s" % failure)
    if attempt.pooled.first_error:
        print("  FIRST FAILED OP: %s" % attempt.pooled.first_error)

    correct = verdict.ok and failed == 0
    raw.update(
        end_to_end={k: v[0] for k, v in e2e.values.items()},
        per_layer=(
            {k: v[0] for k, v in layers.values.items()} if layers else None
        ),
        shares=shares, disturbed=disturbed, correct=correct,
        samples=len(attempt.calibrated),
        verify_failures=verdict.failures,
    )
    wanted = manifest_names("per_layer" if args.trace else "end_to_end")
    chosen = layers if args.trace else e2e
    line = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": chosen.result(wanted or list(chosen.values)),
    }
    return line, raw, span_logs


def manifest_names(section):
    """The metric names BENCHMARK.json lists, or None without the file."""
    try:
        with open(MANIFEST) as handle:
            return [entry["name"] for entry in json.load(handle)[section]]
    except OSError:
        return None


def run(args):
    """Run the chosen workloads; returns the process's exit status."""
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    sizes = SmokeSizes if args.smoke else Sizes
    document = {
        "meta": {
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "seed": args.seed, "scale": sizes.scale, "smoke": args.smoke,
            "trace": args.trace, "seconds": args.seconds,
            "reference_kernel_ns": REFERENCE_KERNEL_NS,
            "host_exponent": HOST_EXPONENT,
        },
        "workloads": {},
    }
    all_correct = True
    span_rows = []
    for name in names:
        line, raw, span_logs = run_workload(name, args, sizes)
        document["workloads"][name] = raw
        all_correct = all_correct and line["correct"]
        for log, spans in zip(("traced_pass", "replay"), span_logs):
            for row in spans.as_dicts():
                span_rows.append(dict(row, workload=name, log=log))
        print(json.dumps(line), flush=True)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
        if span_rows:
            with open(args.json + ".spans.jsonl", "w") as handle:
                for row in span_rows:
                    handle.write(json.dumps(row) + "\n")
    return 0 if all_correct else 1
