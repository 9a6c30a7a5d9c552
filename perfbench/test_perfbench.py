"""The benchmark's own test: toy-size runs of every workload.

    python3 -m pytest perfbench

Each workload in BENCHMARK.json runs at toy size with tracing off and on;
every metric BENCHMARK.json names must be present with its unit, and no
operation may fail.
"""

import json
import math
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def toy_run(workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--size", "toy"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    return proc, json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_reported_and_no_operation_fails(workload, trace):
    proc, result = toy_run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0  # error_rate 0
    named = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert math.isfinite(reported["value"])


def test_threaded_sweep_matches_serial_cells():
    """noise_sweep on nproc threads must give the serial cells' accuracies."""
    proc, result = toy_run("noise_sweep_threads", 1)
    assert result["correct"] is True, proc.stdout


def test_refuses_to_run_without_the_package(tmp_path):
    """Outside a checkout with src/, the benchmark prints no result and fails."""
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            (bench / name).write_bytes(open(os.path.join(HERE, name), "rb").read())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "text_ragged", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
