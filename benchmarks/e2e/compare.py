"""Compare two sets of benchmark runs, metric by metric.

    python3 benchmarks/e2e/compare.py A B

``A`` and ``B`` are each a ``run.py --json`` file or a directory of
them (a result *set*: several runs of the same code).  For every
(workload, end-to-end metric) pair the table shows both medians and
quartiles, the bound from ``BENCHMARK.json``, and a verdict for B
against A:

* ``worse`` — B's median is worse than A's by more than the bound;
* ``better`` — B's median is better by more than either side's own
  spread (distance between quartiles over the median) and the two
  quartile ranges do not overlap;
* ``unchanged`` — neither;
* ``unresolved`` — a side's own spread is wider than the bound, or a
  side has fewer than 2,000 timed samples, so the data cannot say.

Exit status 1 on any ``worse``, any failed operation that A did not
have, or a run whose outputs did not verify.
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from stats import quartiles, spread  # noqa: E402

MANIFEST = os.path.join(os.path.dirname(os.path.dirname(HERE)), "BENCHMARK.json")

#: Below this many timed samples a run's p95 has too few samples beyond
#: it to be compared (the benchmark's own floor per workload).
MIN_SAMPLES = 2000


def load_set(path):
    """``{workload: [raw run, ...]}`` from a file or a directory."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(path, name) for name in os.listdir(path)
            if name.endswith(".json")
        )
    else:
        files = [path]
    if not files:
        raise SystemExit("no run JSON under %s" % path)
    runs = {}
    for name in files:
        with open(name) as handle:
            document = json.load(handle)
        for workload, raw in document["workloads"].items():
            runs.setdefault(workload, []).append(raw)
    return runs


def judge(values_a, values_b, bound, better, enough_samples):
    """``(verdict, relative change)``; a positive change is a worsening."""
    q1_a, median_a, q3_a = quartiles(values_a)
    q1_b, median_b, q3_b = quartiles(values_b)
    change = (median_b - median_a) / median_a if median_a else 0.0
    apart = q3_b < q1_a  # B's whole quartile range below A's
    if better == "higher":
        change = -change
        apart = q1_b > q3_a
    if not enough_samples:
        return "unresolved", change
    noise = max(spread(values_a), spread(values_b))
    if noise > bound:
        return "unresolved", change
    if change > bound:
        return "worse", change
    if min(len(values_a), len(values_b)) == 1:
        noise = bound  # one run has no spread of its own
    if change < -noise and apart:
        return "better", change
    return "unchanged", change


def compare(set_a, set_b, manifest, out=print):
    """Print the table; returns the exit status."""
    status = 0
    row = "%-17s %-17s %12s %24s %12s %24s %6s %+8.1f%%  %s"
    out("%-17s %-17s %12s %24s %12s %24s %6s %9s  %s" % (
        "workload", "metric", "A median", "A quartiles", "B median",
        "B quartiles", "bound", "change", "verdict",
    ))
    for workload in [w["name"] for w in manifest["workloads"]]:
        runs_a, runs_b = set_a.get(workload), set_b.get(workload)
        if not runs_a or not runs_b:
            continue
        enough = all(
            run["samples"] >= MIN_SAMPLES for run in runs_a + runs_b
        )
        for metric in manifest["end_to_end"]:
            name = metric["name"]
            values_a = [run["end_to_end"][name] for run in runs_a]
            values_b = [run["end_to_end"][name] for run in runs_b]
            verdict, change = judge(
                values_a, values_b, metric["bound"], metric["better"], enough
            )
            if verdict == "worse":
                status = 1
            q1a, q2a, q3a = quartiles(values_a)
            q1b, q2b, q3b = quartiles(values_b)
            out(row % (
                workload, name, "%.6g" % q2a, "[%.6g, %.6g]" % (q1a, q3a),
                "%.6g" % q2b, "[%.6g, %.6g]" % (q1b, q3b),
                "%g" % metric["bound"], change * 100.0, verdict,
            ))
        failed_a = max(run["end_to_end"]["failed_share"] for run in runs_a)
        failed_b = max(run["end_to_end"]["failed_share"] for run in runs_b)
        verified = all(run["end_to_end"]["verify_ok"] for run in runs_a + runs_b)
        if failed_b > failed_a or not verified:
            status = 1
        out("%-17s failed_share A %g B %g (%s); verify_ok %d" % (
            workload, failed_a, failed_b,
            "worse" if failed_b > failed_a else "unchanged", verified,
        ))
    return status


def main(argv):
    if len(argv) != 2:
        raise SystemExit(__doc__)
    with open(MANIFEST) as handle:
        manifest = json.load(handle)
    return compare(load_set(argv[0]), load_set(argv[1]), manifest)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
