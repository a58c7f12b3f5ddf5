"""Pinned workload configs, their seeded inputs, and output checks.

Each workload is one `scaffold-sim` task on a pinned config.  The
benchmark seed enters only through the config (chain seeds, or the data
generator seeds for the task that runs no chain), so the same seed gives
the same inputs and, at fixed code, the same output bytes.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

import numpy as np


class OutputError(ValueError):
    """A task's output file does not have the expected content."""


def _figure1_config(seed, smoke):
    # Default figure1 problem (logistic, d=20, H=100, b=10, N in {10, 100},
    # scaffold and fedavg); 10 rounds instead of 100 so that one run of the
    # benchmark repeats the task often enough for a stable median.
    seeds = ",".join(str(3 * seed + k) for k in range(3))
    if smoke:
        return ("[experiment]\ntask = figure1\n\n[problem]\nn_features = 5\n"
                "records_per_client = 20\ninformative = 2,3\n\n[run]\n"
                f"local_steps = 5\nrounds = 3\nn_clients = 2,4\nseeds = {seeds}\n")
    return f"[experiment]\ntask = figure1\n\n[run]\nrounds = 10\nseeds = {seeds}\n"


def _speedup_config(seed, smoke):
    # Same chain as the linear-speedup acceptance check (quadratic loss,
    # gamma = L/8, H = 10, b = 10, N in {2, 8, 32}), with fewer samples.
    if smoke:
        return ("[experiment]\ntask = speedup\n\n[problem]\nloss = quadratic\n"
                "n_features = 5\nrecords_per_client = 20\ninformative = 2,3\n\n"
                "[run]\ngamma_over_L = 0.125\nlocal_steps = 5\nbatch_size = 5\n"
                f"n_clients = 2,4\nseeds = {seed}\nburn_in = 10\nn_samples = 100\n")
    return ("[experiment]\ntask = speedup\n\n[problem]\nloss = quadratic\n\n"
            "[run]\ngamma_over_L = 0.125\nlocal_steps = 10\nbatch_size = 10\n"
            f"n_clients = 2,8,32\nseeds = {seed}\nn_samples = 400\n")


def _predict_config(seed, smoke):
    # predict runs no chain, so the seed moves the data generators instead.
    gen = f"{123 + seed},{456 + seed}"
    if smoke:
        return ("[experiment]\ntask = predict\n\n[problem]\nn_features = 5\n"
                f"records_per_client = 20\ninformative = 2,3\ngenerator_seeds = {gen}\n"
                "\n[run]\nn_clients = 4\n")
    return (f"[experiment]\ntask = predict\n\n[problem]\ngenerator_seeds = {gen}\n\n"
            "[run]\nn_clients = 200\n")


def _rows(text, header):
    lines = text.splitlines()
    if not lines or lines[0] != header:
        raise OutputError(f"expected header {header!r}, got {lines[:1]!r}")
    return [line.split(",") for line in lines[1:]]


def _finite(values, what):
    arr = np.asarray(values, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise OutputError(f"{what}: non-finite entries")
    return arr


def _check_figure1(texts, config):
    """Row grid complete and finite; the aggregate file is recomputed exactly."""
    main, agg = texts
    rows = _rows(main, "algorithm,N,seed,t,mse")
    cells = [(a, n, s) for a in sorted(config.algorithms)
             for n in sorted(set(config.n_clients)) for s in sorted(config.seeds)]
    expected = [(a, n, s, t) for a, n, s in cells for t in range(config.rounds + 1)]
    got = [(r[0], int(r[1]), int(r[2]), int(r[3])) for r in rows]
    if got != expected:
        raise OutputError("figure1 rows do not cover the (algorithm, N, seed, t) grid")
    mse = _finite([float(r[4]) for r in rows], "mse")
    if np.any(mse < 0):
        raise OutputError("negative mse")
    curves = {cell: mse[i * (config.rounds + 1):(i + 1) * (config.rounds + 1)]
              for i, cell in enumerate(cells)}
    lines = ["algorithm,N,t,mean_mse,std_mse"]
    for algo in sorted(set(config.algorithms)):
        for n in sorted(set(config.n_clients)):
            stack = np.stack([curves[(algo, n, s)] for s in config.seeds])
            mean, std = stack.mean(axis=0), stack.std(axis=0)
            lines += [f"{algo},{n},{t},{mean[t]:.17g},{std[t]:.17g}"
                      for t in range(stack.shape[1])]
    if "\n".join(lines) + "\n" != agg:
        raise OutputError("aggregate file does not match the per-seed rows")


def _check_speedup(texts, config):
    """One finite row per N; estimate within a factor 2 of the prediction."""
    rows = _rows(texts[0], "N,trace_cov_theta,predicted_trace")
    if [int(r[0]) for r in rows] != sorted(set(config.n_clients)):
        raise OutputError("speedup rows do not list the configured client counts")
    values = _finite([[float(r[1]), float(r[2])] for r in rows], "traces")
    ratio = values[:, 0] / values[:, 1]
    if np.any(values <= 0) or np.any(ratio < 0.5) or np.any(ratio > 2.0):
        raise OutputError(f"estimated/predicted trace ratios {ratio} outside [0.5, 2]")


def _check_predict(texts, config):
    """Header, 2 + 2N finite blocks of the right shapes, symmetric covariance."""
    lines = texts[0].splitlines()
    n = min(config.n_clients)
    header = dict(line.split(" = ") for line in lines[:4])
    if int(header["n_clients"]) != n:
        raise OutputError("predict header names the wrong client count")
    blocks = {}
    name = None
    for line in lines[4:]:
        if line.startswith("# "):
            name = line[2:]
            if name in blocks:
                raise OutputError(f"duplicate block {name}")
            blocks[name] = []
        else:
            blocks[name].append([float(v) for v in line.split(",")])
    d = config.n_features
    names = (["bias_pred", "cov_theta_pred"]
             + [f"cov_theta_xi_pred_{c}" for c in range(n)]
             + [f"cov_xi_pred_{c}_{c}" for c in range(n)])
    if list(blocks) != names:
        raise OutputError(f"expected {len(names)} blocks, got {len(blocks)}")
    for key, rows in blocks.items():
        shape = (1, d) if key == "bias_pred" else (d, d)
        if _finite(rows, key).shape != shape:
            raise OutputError(f"block {key} has the wrong shape")
    cov = np.asarray(blocks["cov_theta_pred"])
    if not np.array_equal(cov, cov.T) or np.any(np.diag(cov) <= 0):
        raise OutputError("cov_theta_pred is not symmetric with a positive diagonal")
    norm = float(np.linalg.norm(blocks["bias_pred"][0]))
    if not math.isclose(norm, float(header["bias_pred_norm"]), rel_tol=1e-12):
        raise OutputError("bias_pred_norm does not match the bias_pred block")


class Workload(NamedTuple):
    name: str
    task: str
    make_config: Callable  # (seed, smoke) -> config file text
    check: Callable  # (output texts, parsed config) -> None, or OutputError

    def output_names(self):
        return ("out.csv", "out.agg.csv") if self.task == "figure1" else ("out.csv",)


WORKLOADS = {
    w.name: w for w in (
        Workload("figure1-wide", "figure1", _figure1_config, _check_figure1),
        Workload("speedup-narrow", "speedup", _speedup_config, _check_speedup),
        Workload("predict-n200", "predict", _predict_config, _check_predict),
    )
}

DEFAULT_SEED = 0
# Not used while the benchmark was tuned; its digests guard against a gate
# that only holds on the seeds it was developed on.
HELD_OUT_SEED = 7919
# Seeds whose output digests are recorded; other seeds are checked by
# content and run-to-run identity only.
DIGEST_SEEDS = tuple(range(32)) + (HELD_OUT_SEED,)
