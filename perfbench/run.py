#!/usr/bin/env python3
"""Benchmark for scaffold-sim: CLI tasks end to end, and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload figure1-wide --seed 0 --seconds 35 --trace 0
    python3 perfbench/run.py --smoke              # every workload at toy size
    python3 perfbench/run.py --capture-digests    # re-record perfbench/digests.json

Each workload calls `scaffold_sim.cli.main([...])` in this process, at
`--threads 1` with BLAS/OpenMP threads pinned to 1, repeating the task
until `--seconds` have passed.  Every repetition is one operation: it
fails on an exception, a nonzero exit code (a `DivergenceError` exits 2),
output that fails the workload's check, or output bytes that differ from
the digests recorded for the seed or from the run's first repetition.

With `--trace 0` the last stdout line holds the end-to-end metrics; with
`--trace 1` it holds the per-layer metrics of BENCHMARK.json, measured by
wrapping the package's lookup sites (see spans.py).  A report with the
environment, every repetition and the extra figures goes to
`.perfbench_out/` in the repository root; the traced run also writes the
spans of its last task there.  METRICS.md maps each layer metric to the
end-to-end metric it should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
DIGESTS = BENCH_DIR / "digests.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Floors on repetitions per run: medians need a few samples, and the
# exact-count check needs two traced tasks.
MIN_UNTRACED = 3
MIN_TRACED = 2


class SetupError(RuntimeError):
    """The benchmark cannot run here (no program source, bad arguments)."""


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import scaffold_sim from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "scaffold_sim" / "__init__.py").is_file():
        raise SetupError(f"no program source at {src}")
    sys.path.insert(0, str(src))
    import scaffold_sim
    from scaffold_sim import cli, harness  # noqa: F401  (lookup sites)

    if Path(scaffold_sim.__file__).resolve().parent != (src / "scaffold_sim").resolve():
        raise SetupError(f"imported scaffold_sim from {scaffold_sim.__file__}")
    return scaffold_sim


def _git(*args):
    try:
        done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment():
    import numpy as np

    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    status = _git("status", "--porcelain", "--untracked-files=no") if in_repo else None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "commit": _git("rev-parse", "HEAD") if in_repo else None,
        "dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    """Runs one workload's task repeatedly and checks every repetition."""

    def __init__(self, program, workload, seed, smoke, workdir, expected):
        from spans import FULL_SITES, LIGHT_SITES, Tracer

        self.cli = program.cli
        self.workload = workload
        self.config_path = workdir / "workload.cfg"
        self.config_path.write_text(workload.make_config(seed, smoke))
        self.config = program.harness.parse_config(self.config_path)
        self.outputs = [workdir / name for name in workload.output_names()]
        self.expected = expected
        self.first_digests = None
        self.checked = set()
        self.light = Tracer(program, LIGHT_SITES)
        self.full = Tracer(program, FULL_SITES)
        self.records = []

    def _check(self, digests):
        """None if the outputs are right, else the reason they are not."""
        if self.expected is not None and digests != self.expected:
            return "output digest differs from the recorded digest for this seed"
        if self.first_digests is not None and digests != self.first_digests:
            return "output digest differs from the run's first repetition"
        if digests not in self.checked:
            texts = [p.read_text() for p in self.outputs]
            try:
                self.workload.check(texts, self.config)
            except (ValueError, KeyError, IndexError) as exc:  # OutputError is a ValueError
                return f"output check failed: {exc}"
            self.checked.add(digests)
        return None

    def once(self, tracer):
        """One repetition of the task under `tracer`; returns its record."""
        from spans import SpanTable

        for path in self.outputs:
            path.unlink(missing_ok=True)
        argv = [self.workload.task, "--config", str(self.config_path),
                "--out", str(self.outputs[0]), "--threads", "1"]
        tracer.new_task(len(self.records) + 1)
        captured = io.StringIO()
        error = None
        with tracer.installed(), contextlib.redirect_stderr(captured):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception as exc:  # any escape is one failed operation
                code, error = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        stderr = captured.getvalue()
        if stderr:
            sys.stderr.write(stderr)
        if error is None and code != 0:
            error = f"exit code {code}: {stderr.strip().splitlines()[-1:]}"
        digests = None
        if error is None:
            digests = tuple(_sha256(p) for p in self.outputs)
            error = self._check(digests)
            if error is None and self.first_digests is None:
                self.first_digests = digests
        table = SpanTable(tracer.spans)
        record = {
            "task": tracer.task,
            "traced": tracer is self.full,
            "wall_s": wall,
            "setup_s": table.setup_s(),
            "client_steps": table.client_steps() if error is None else 0,
            "error": error,
            "digests": digests,
            "output_bytes": sum(p.stat().st_size for p in self.outputs)
            if error is None else 0,
        }
        self.records.append(record)
        return record, table

    def untraced(self, seconds):
        """Timed repetitions, each bracketed by the calibration kernel."""
        from calibrate import Calibration

        calibrate = Calibration()
        self.once(self.light)  # warm-up, checked like any repetition
        start = time.perf_counter()
        timed = []
        before = calibrate()
        while len(timed) < MIN_UNTRACED or time.perf_counter() - start < seconds:
            record = self.once(self.light)[0]
            after = calibrate()
            record["ref_s"] = 0.5 * (before + after)
            before = after
            timed.append(record)
        return timed

    def traced(self, seconds):
        """Alternate traced and untraced tasks; untraced ones give the overhead.

        Returns the untraced records, one (record, layer metrics, round
        durations, client steps seen by run/estimate spans) per traced task,
        and the span table of the last traced task that succeeded.
        """
        from spans import layer_metrics

        self.once(self.light)
        start = time.perf_counter()
        plain, traced, last = [], [], None
        while (len(traced) < MIN_TRACED
               or time.perf_counter() - start < seconds):
            record, table = self.once(self.full)
            if record["error"] is None:
                metrics, round_us = layer_metrics(table)
                traced.append((record, metrics, round_us, table.client_steps()))
                last = table
            else:
                traced.append((record, None, None, None))
            plain.append(self.once(self.light)[0])
        return plain, traced, last


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(timed):
    """Medians over the timed repetitions; `*_rel` divide by the calibration time."""
    ok = [r for r in timed if r["error"] is None]
    post = [r["wall_s"] - r["setup_s"] for r in ok]
    steps = [r["client_steps"] / p for r, p in zip(ok, post) if p > 0]
    metrics = {
        "wall_rel": _median([r["wall_s"] / r["ref_s"] for r in ok]),
        "post_setup_rel": _median([p / r["ref_s"] for r, p in zip(ok, post)]),
        "setup_s": _median([r["setup_s"] for r in ok]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "repetitions": len(ok),
        "wall_s": _median([r["wall_s"] for r in ok]),
        "wall_s.p90": float(statistics.quantiles([r["wall_s"] for r in ok], n=10)[-1])
        if len(ok) >= 2 else None,
        "post_setup_s": _median(post),
        "calibration_s": _median([r["ref_s"] for r in ok]),
        "sim_client_steps_per_s": _median(steps) if any(r["client_steps"] for r in ok)
        else None,
        "setup_rel": _median([r["setup_s"] / r["ref_s"] for r in ok]),
    }
    return metrics, extra


def per_layer(plain, traced, workload_name):
    """Median of each layer metric over the traced tasks, plus the overhead."""
    from spans import ABSENCE_PROBES, EXACT_COUNTS, percentile

    good = [t for t in traced if t[1] is not None]
    problems = []
    if len(good) < MIN_TRACED:
        problems.append(f"only {len(good)} traced tasks succeeded")
    for record, metrics, _, run_steps in good:
        mismatched = [k for k in EXACT_COUNTS if metrics[k] != good[0][1][k]]
        if mismatched:
            problems.append(f"task {record['task']}: exact counts differ: {mismatched}")
        if metrics["algorithms.client_steps"] != run_steps:
            problems.append(f"task {record['task']}: round spans and run/estimate "
                            "spans disagree on client steps")
    if not good:
        return {}, {}, problems
    # counts are exact (checked above); times and ratios take the median
    metrics = {k: v if isinstance(v, int) else _median([t[1][k] for t in good])
               for k, v in good[0][1].items()}
    round_us = [us for t in good for us in t[2]]
    metrics["algorithms.round_us.p50"] = percentile(round_us, 50)
    metrics["algorithms.round_us.p99"] = percentile(round_us, 99)
    metrics["algorithms.round_us.samples"] = len(round_us)
    metrics["harness.output_bytes"] = good[0][0]["output_bytes"]
    plain_ok = [r["wall_s"] for r in plain if r["error"] is None]
    traced_wall = _median([t[0]["wall_s"] for t in good])
    metrics["trace.overhead_s"] = traced_wall - _median(plain_ok)
    metrics["trace.overhead_share"] = metrics["trace.overhead_s"] / _median(plain_ok)
    absent = {layer: f"{workload_name} never calls {layer}; its metrics read 0"
              for layer, probe in ABSENCE_PROBES.items() if metrics[probe] == 0}
    return metrics, absent, problems


def _spans_dump(table, path):
    t0 = table.spans[0][2] if table.spans else 0.0
    rows = [[s[0], s[1], s[2] - t0, s[3] - t0, s[4], s[5]] for s in table.spans]
    with gzip.open(path, "wt") as fh:
        json.dump({"fields": ["id", "name", "start_s", "end_s", "parent", "task"],
                   "spans": rows}, fh)


def _declared(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _result_line(records, metrics, units, problems):
    failed = sum(r["error"] is not None for r in records)
    missing = [k for k in units if k not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": metrics.get(k, 0.0), "unit": u} for k, u in units.items()},
    }


def load_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def expected_digests(digests, kind, workload, seed):
    entry = digests.get(kind, {}).get(workload, {}).get(str(seed))
    return tuple(entry) if entry is not None else None


def run_workload(program, name, seed, seconds, trace, smoke=False, digests=None):
    """Measure one workload; returns (result line, report)."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    kind = "smoke" if smoke else "full"
    expected = expected_digests(digests or {}, kind, name, seed)
    workdir = OUT_DIR / f"work-{os.getpid()}-{name}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(program, workload, seed, smoke, workdir, expected)
        report = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
                  "smoke": smoke, "digest_gate": expected is not None}
        if trace:
            plain, traced, last = runner.traced(seconds)
            metrics, absent, problems = per_layer(plain, traced, name)
            report.update(absent=absent, problems=problems)
            if last is not None:
                spans_path = OUT_DIR / f"{name}-seed{seed}-{kind}.spans.json.gz"
                _spans_dump(last, spans_path)
                report["spans_file"] = spans_path.name
        else:
            metrics, extra = end_to_end(runner.untraced(seconds))
            problems = []
            report["extra"] = extra
        records = runner.records
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result = _result_line(records, metrics, _declared(trace), problems)
    report.update(metrics=metrics, problems=problems,
                  error_rate=result["failed"] / result["attempted"],
                  records=[{k: v for k, v in r.items() if k != "digests"} for r in records])
    return result, report


def smoke(program):
    """Every workload at toy size: gate, untraced and traced runs."""
    from workloads import WORKLOADS

    digests = load_digests()
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in sorted(WORKLOADS):
        for trace in (0, 1):
            result, report = run_workload(program, name, 0, 0.0, trace, smoke=True,
                                          digests=digests)
            if not report["digest_gate"]:
                report["problems"].append("no smoke digest recorded")
                result["correct"] = False
            print(json.dumps({"workload": name, "trace": trace,
                              "correct": result["correct"],
                              "problems": report["problems"]}))
            total["correct"] &= result["correct"]
            total["attempted"] += result["attempted"]
            total["failed"] += result["failed"]
    # The gate must bite: a wrong recorded digest fails every repetition.
    wrong = {"smoke": {name: {"0": ["0" * 64] * len(WORKLOADS[name].output_names())}
                       for name in WORKLOADS}}
    for name in sorted(WORKLOADS):
        result, _ = run_workload(program, name, 0, 0.0, 0, smoke=True, digests=wrong)
        bites = not result["correct"] and result["failed"] == result["attempted"]
        print(json.dumps({"workload": name, "gate_rejects_wrong_digest": bites}))
        total["correct"] &= bites
    return total


def capture_digests(program):
    """Record output digests for the gated seeds (and seed 0 of the smoke configs)."""
    from workloads import DEFAULT_SEED, DIGEST_SEEDS, WORKLOADS

    out = {"commit": environment()["commit"], "full": {}, "smoke": {}}
    plan = [("full", s) for s in DIGEST_SEEDS] + [("smoke", DEFAULT_SEED)]
    for name in sorted(WORKLOADS):
        for kind, seed in plan:
            workdir = OUT_DIR / f"capture-{os.getpid()}"
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                runner = Runner(program, WORKLOADS[name], seed, kind == "smoke",
                                workdir, None)
                record, _ = runner.once(runner.light)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            if record["error"] is not None:
                raise SetupError(f"{name} seed {seed}: {record['error']}")
            out[kind].setdefault(name, {})[str(seed)] = list(record["digests"])
            print(f"{kind} {name} seed {seed}: {record['wall_s']:.2f} s", file=sys.stderr)
    DIGESTS.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--capture-digests", action="store_true")
    args = parser.parse_args(argv)

    pin_threads()
    sys.path.insert(0, str(BENCH_DIR))
    try:
        program = import_program()
        if args.capture_digests:
            capture_digests(program)
            return 0
        if args.smoke:
            result = smoke(program)
            print(json.dumps(result))
            return 0 if result["correct"] else 1
        from workloads import WORKLOADS
        if args.workload not in WORKLOADS:
            raise SetupError(f"--workload must be one of {sorted(WORKLOADS)}")
        if args.seed < 0:
            raise SetupError("--seed must be >= 0")
        env = environment()
        result, report = run_workload(program, args.workload, args.seed, args.seconds,
                                      args.trace, digests=load_digests())
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report["environment"] = env
    OUT_DIR.mkdir(exist_ok=True)
    report_path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n")
    print("environment: " + json.dumps(env))
    for key in ("extra", "absent", "problems"):
        if report.get(key):
            print(f"{key}: " + json.dumps(report[key]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
