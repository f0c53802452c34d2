"""The repo's benchmark: five LDBC-social workloads, measured outside-in.

    python3 benchmarks/e2e/run.py --workload interactive_read --seed 7 \\
        --seconds 10 --trace 0

One run is one workload: ``setup`` (timed) → ``verify`` against the
interpreter oracle (untimed) → warm-up → timed passes.  ``--trace 0``
measures for ``--seconds`` seconds with nothing recorded but per-op
latency and reports the end-to-end metrics; ``--trace 1`` runs a fixed
number of passes (so its counts repeat exactly), a traced pass, the
pipeline replay and the layer census, and reports the per-layer metrics.
Every metric is printed by name with its unit, and the last line of
standard output is the result object the driver reads.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one of the five names; default: all, in order")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="how long the timed passes of --trace 0 measure")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="scale 0.05, one short pass, for the smoke test")
    parser.add_argument("--json", default=None, metavar="PATH",
                        help="also write the raw numbers (and PATH.spans.jsonl)")
    args = parser.parse_args(argv)

    if not os.environ.get("PYTHONHASHSEED"):
        # Set and dict iteration order must not change plans between runs.
        environment = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable] + sys.argv, environment)

    # The engine under test is this checkout's, never an installed one.
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        raise SystemExit("no src/repro beside %s: nothing to measure" % HERE)
    sys.path[:0] = [HERE, source]
    import harness

    return harness.run(args)


if __name__ == "__main__":
    sys.exit(main())
