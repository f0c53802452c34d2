"""Smoke test of the benchmark harness (collected by the tier-1 run).

Two ``run.py --smoke --trace 1`` runs with the same seed: every metric
``BENCHMARK.json`` names is printed with its unit on every workload,
every exact count repeats, the span logs are well-formed, and
``compare.py`` accepts the pair.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))

#: Per-layer values that must not differ between two runs of one seed.
EXACT = (
    "driver.result_digest", "driver.samples", "dataset.nodes",
    "dataset.relationships", "engine.plan_cache_misses",
    "engine.plan_cache_hit_rate", "exec.rows_out", "exec.batch_share",
    "exec.interpreter_share", "session.pin_attempts", "session.pin_refused",
    "session.pin_refused_share", "snapshot.overlay_read_share",
    "planner.plan_operators", "planner.stats_sensitive_share",
    "rewriter.changed_share",
)


def _smoke_runs(tmp_path):
    """Both runs side by side (the host has two cores)."""
    paths = [str(tmp_path / name) for name in ("a.json", "b.json")]
    processes = [
        subprocess.Popen(
            [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
             "--trace", "1", "--seed", "7", "--json", path],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True,
        )
        for path in paths
    ]
    outputs = []
    for process in processes:
        out, err = process.communicate(timeout=120)
        assert process.returncode == 0, err[-2000:]
        outputs.append(out)
    return paths, outputs


def test_smoke_run_prints_every_metric_and_repeats(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    paths, outputs = _smoke_runs(tmp_path)

    # One block per workload; every named metric on a line with its unit.
    blocks = re.split(r"^== (\S+)  seed", outputs[0], flags=re.M)[1:]
    printed = dict(zip(blocks[0::2], blocks[1::2]))
    assert list(printed) == [w["name"] for w in manifest["workloads"]]
    for block in printed.values():
        for metric in manifest["end_to_end"] + manifest["per_layer"]:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
            assert re.search(
                r"^  %s\s+\S+\s+%s\b" % (
                    re.escape(metric["name"]), re.escape(metric["unit"])
                ),
                block, flags=re.M,
            ), metric["name"]
        assert re.search(r"^  engine\.pipeline_reconcile\s", block, flags=re.M)
        # The driver reads the last line of a single-workload run.
        line = json.loads(block.strip().splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0
        assert list(line["metrics"]) == [
            m["name"] for m in manifest["per_layer"]
        ]

    # Counts and the result digest are a function of the seed alone.
    documents = []
    for path in paths:
        with open(path) as handle:
            documents.append(json.load(handle))
    for name, first in documents[0]["workloads"].items():
        second = documents[1]["workloads"][name]
        for key in EXACT:
            assert first["per_layer"][key] == second["per_layer"][key], (
                name, key,
            )

    # Spans: a parent in the same log, and children inside parents.
    spans = {}
    with open(paths[0] + ".spans.jsonl") as handle:
        for text in handle:
            span = json.loads(text)
            spans[(span["workload"], span["log"], span["id"])] = span
    assert spans
    for (workload, log, _), span in spans.items():
        assert span["end_ns"] >= span["start_ns"]
        if span["parent"] is not None:
            parent = spans[(workload, log, span["parent"])]
            assert parent["start_ns"] <= span["start_ns"]
            assert span["end_ns"] <= parent["end_ns"]

    compared = subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py")] + paths,
        cwd=ROOT, capture_output=True, text=True, timeout=60,
    )
    assert compared.returncode == 0, compared.stdout[-2000:]
