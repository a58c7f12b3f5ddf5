"""Smoke test of the benchmark: every workload at toy size, in seconds.

Run with `python -m pytest perfbench/test_smoke.py`.  It runs the
benchmark in a child process (the benchmark pins BLAS threads and patches
scaffold_sim lookup sites, which must not leak into the test process).
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def _run(*args):
    done = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          capture_output=True, text=True, timeout=300, cwd=ROOT)
    lines = [json.loads(line) for line in done.stdout.splitlines()
             if line.startswith("{")]
    return done.returncode, lines, done.stderr


def test_smoke_runs_every_workload_traced_and_untraced():
    code, lines, stderr = _run("--smoke")
    assert code == 0, stderr
    runs = [line for line in lines if "trace" in line]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {w["name"] for w in spec["workloads"]}
    assert {(r["workload"], r["trace"]) for r in runs} == {
        (n, t) for n in names for t in (0, 1)}
    assert all(r["correct"] and not r["problems"] for r in runs)
    gate = [line for line in lines if "gate_rejects_wrong_digest" in line]
    assert {g["workload"] for g in gate} == names
    assert all(g["gate_rejects_wrong_digest"] for g in gate)
    assert lines[-1]["correct"] and lines[-1]["failed"] == 0


def test_result_line_lists_exactly_the_declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, stderr = _run("--workload", "speedup-narrow", "--seed", "0",
                                   "--seconds", "0", "--trace", str(trace))
        assert code == 0, stderr
        result = lines[-1]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert [(k, v["unit"]) for k, v in result["metrics"].items()] == [
            (m["name"], m["unit"]) for m in spec[key]]


def test_unknown_workload_exits_nonzero_without_a_result():
    code, lines, _ = _run("--workload", "nope", "--seed", "0", "--seconds", "1",
                          "--trace", "0")
    assert code != 0
    assert not any("correct" in line for line in lines)
