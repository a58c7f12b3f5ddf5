"""Round operators for Scaffold and FedAvg, and the trajectory runners.

One round sends the global parameter to every client, runs H corrected
local SGD steps per client, averages the endpoints, and (for Scaffold)
updates the control variates from the endpoint spread.  One round kernel
advances a block of chains, K algorithms x S seeds, vectorized across
chains and clients.  Randomness comes from the per (seed, round, client,
step) counter streams, so the chains of one seed see the same minibatches
and results do not depend on scheduling or on which chains share a block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import ChainState, RunConfig, batch_uniform_indices, lambda_norm_sq
from .objectives import Problem, stacked_minibatch_gradient

__all__ = [
    "Trajectory",
    "DivergenceError",
    "scaffold_round",
    "fedavg_round",
    "run",
    "run_sweep",
    "coupled_run",
]


class DivergenceError(RuntimeError):
    """The chain produced a non-finite entry; the step size is too large."""

    def __init__(self, round_index):
        super().__init__(
            f"non-finite state at round {round_index}; "
            "step size too large for this problem"
        )
        self.round_index = round_index


@dataclass
class Trajectory:
    """Per-round distances to the optimum."""

    rounds: np.ndarray
    mse: np.ndarray
    lambda_dist: np.ndarray | None = None

    def to_csv(self, path=None):
        """Serialize as `t,mse[,lambda_dist]` with 17 significant digits."""
        with_dist = self.lambda_dist is not None
        lines = ["t,mse,lambda_dist" if with_dist else "t,mse"]
        for i, t in enumerate(self.rounds):
            row = f"{t},{self.mse[i]:.17g}"
            if with_dist:
                row += f",{self.lambda_dist[i]:.17g}"
            lines.append(row)
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w") as fh:
                fh.write(text)
        return text


def _stacked(problem: Problem):
    """Per-client data stacked as (N, n, d) / (N, n); cached on the problem.

    Returns None when clients have unequal record counts; callers then fall
    back to a per-client loop.
    """
    cache = problem.__dict__.get("_stacked_cache")
    if cache is not None:
        return cache
    sizes = {c.n_records for c in problem.clients}
    if len(sizes) != 1:
        problem.__dict__["_stacked_cache"] = None
        return None
    features = np.stack([c.features for c in problem.clients])
    targets = np.stack([c.targets for c in problem.clients])
    ids = np.asarray([c.client_id for c in problem.clients], dtype=np.uint64)
    cache = (features, targets, ids)
    problem.__dict__["_stacked_cache"] = cache
    return cache


def _local_endpoints(problem, theta, corrections, round_index, config, seeds=None):
    """Run H local steps on every client of every chain; returns the endpoints.

    One chain is theta (d,) with corrections (N, d).  A block of chains is
    theta (K, S, d) with corrections (K, S, N, d): chain (k, s) draws its
    minibatches from seeds[s] (default config.seed), so the K chains of one
    seed share each draw and each gathered batch.  The endpoints have the
    shape of `corrections`.
    """
    if config.n_clients != problem.n_clients:
        raise ValueError(
            f"RunConfig n_clients={config.n_clients} does not match the "
            f"problem's {problem.n_clients} clients"
        )
    if config.batch_size is not None and config.batch_size != problem.batch_size:
        raise ValueError(
            f"RunConfig batch_size={config.batch_size} does not match the "
            f"problem's batch_size={problem.batch_size}"
        )
    n_clients, d = problem.n_clients, problem.d
    gamma, local_steps = config.gamma, config.local_steps
    seeds = np.asarray(config.seed if seeds is None else seeds, dtype=np.uint64).reshape(-1)
    n_seeds = seeds.shape[0]
    out_shape = corrections.shape
    corrections = corrections.reshape(-1, n_seeds, n_clients, d)
    thetas = theta.reshape(-1, n_seeds, 1, d).repeat(n_clients, axis=2)
    stack = _stacked(problem)

    if stack is None:
        out = np.empty_like(thetas)
        for k, s in np.ndindex(thetas.shape[:2]):
            out[k, s] = _local_endpoints_ragged(
                problem, thetas[k, s], corrections[k, s], round_index, config, int(seeds[s])
            )
        return out.reshape(out_shape)

    features, targets, ids = stack
    if config.deterministic:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(local_steps):
                grads = stacked_minibatch_gradient(
                    features, targets, thetas, problem.loss, problem.l2_weight
                )
                thetas = thetas - gamma * (grads + corrections)
        return thetas.reshape(out_shape)

    # row of (client i, record r) in the flattened (N*n, d) data: i*n + r,
    # so each step gathers its (S*N, b) batch, shared by all K chains, with
    # a single take
    n_records = features.shape[1]
    first_rows = np.arange(n_clients) * n_records
    if n_seeds == 1:
        root_seed = seeds[0]  # a scalar seed mixes its key once, not per client
    else:
        # the S seeds' clients are S blocks of N virtual clients, drawn in one call
        root_seed = seeds.repeat(n_clients)
        ids = np.tile(ids, n_seeds)
        first_rows = np.tile(first_rows, n_seeds)
    idx = batch_uniform_indices(root_seed, round_index, ids, local_steps, n_records,
                                problem.batch_size)
    idx += first_rows[:, None]
    flat_x = features.reshape(-1, d)
    flat_y = targets.reshape(-1)
    # the K chains share each gathered batch; a single chain stays 2-D,
    # which skips broadcasting over a leading axis of one at every step
    rows = (n_seeds * n_clients, d)
    thetas = thetas.reshape(rows if thetas.shape[0] == 1 else (-1,) + rows)
    corrections = corrections.reshape(thetas.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for h in range(local_steps):
            grads = stacked_minibatch_gradient(
                flat_x.take(idx[h], axis=0), flat_y.take(idx[h]), thetas,
                problem.loss, problem.l2_weight,
            )
            thetas = thetas - gamma * (grads + corrections)
    return thetas.reshape(out_shape)


def _local_endpoints_ragged(problem, thetas, corrections, round_index, config, seed):
    # slow path for clients with unequal record counts; one chain
    from .core import derive_stream
    from .objectives import full_gradient, stochastic_gradient

    gamma = config.gamma
    out = np.empty_like(thetas)
    for i, ds in enumerate(problem.clients):
        theta = thetas[i].copy()
        for h in range(config.local_steps):
            if config.deterministic:
                grad = full_gradient(problem, i, theta)
            else:
                stream = derive_stream(seed, round_index, ds.client_id, h)
                grad = stochastic_gradient(problem, i, theta, stream)
            theta = theta - gamma * (grad + corrections[i])
        out[i] = theta
    return out


def _round(problem, config, n_scaffold, seeds, thetas, xis, round_index):
    """Advance a block of K x S chains one round; returns (thetas, xis).

    thetas (K, S, d) and xis (K, S, N, d); chain (k, s) uses seeds[s].  Rows
    k < n_scaffold run Scaffold, the rest FedAvg.  FedAvg rows keep all-zero
    control variates, which still enter every local step as in a separate
    FedAvg round (the add turns -0.0 gradients into +0.0).

    The control variates move by (endpoint - average) / (gamma * H) and are
    re-centered so their sum stays exactly on the zero subspace.  Raises
    DivergenceError if any entry of the new block is not finite; an
    overflow anywhere in the round leaves one, so this single check covers
    the round.
    """
    endpoints = _local_endpoints(problem, thetas, xis, round_index, config, seeds)
    with np.errstate(over="ignore", invalid="ignore"):
        thetas_next = endpoints.mean(axis=2)
        spread = endpoints - thetas_next[:, :, None, :]
        xis_next = xis + spread / (config.gamma * config.local_steps)
        xis_next -= xis_next.mean(axis=2, keepdims=True)
    xis_next[n_scaffold:] = 0.0
    if not (np.isfinite(thetas_next).all() and np.isfinite(xis_next).all()):
        raise DivergenceError(round_index)
    return thetas_next, xis_next


def scaffold_round(state: ChainState, problem: Problem, config: RunConfig,
                   round_index: int) -> ChainState:
    """One Scaffold round: corrected local steps, average, control update.

    The control variates move by (endpoint - average) / (gamma * H) and are
    re-centered so their sum stays exactly on the zero subspace.  Raises
    DivergenceError if any entry of the new state is not finite.
    """
    thetas, xis = _round(problem, config, 1, config.seed,
                         state.theta[None, None], state.xis[None, None], round_index)
    return ChainState.unchecked(thetas[0, 0], xis[0, 0])


def fedavg_round(theta, problem: Problem, config: RunConfig, round_index: int):
    """One FedAvg round: plain local steps, then average the endpoints.

    Raises DivergenceError if the average is not finite.
    """
    theta = np.asarray(theta, dtype=np.float64)
    corrections = np.zeros((1, 1, problem.n_clients, theta.shape[0]))
    thetas, _ = _round(problem, config, 0, config.seed,
                       theta[None, None], corrections, round_index)
    return thetas[0, 0]


def run_sweep(problem: Problem, certificate, config: RunConfig, algorithms, seeds,
              theta0=None, xis0=None):
    """Run every (algorithm, seed) chain for config.rounds rounds as one block.

    Each chain takes its algorithm and seed from `algorithms` and `seeds`;
    `config` supplies the rest.  All chains start from theta0 (default
    zero), Scaffold chains with control variates xis0 (default zero), and
    advance through one round kernel, so the chains of one seed share every
    minibatch draw and gather.  Each trajectory equals that of a separate
    `run` bit for bit.  Returns {(algorithm, seed): Trajectory}.
    """
    for algorithm in algorithms:
        for seed in seeds:
            replace(config, algorithm=algorithm, seed=seed)  # validates the chain's config
    # Scaffold rows first: the round kernel takes their count
    algorithms = sorted(algorithms, key=lambda a: a != "scaffold")
    n_scaffold = algorithms.count("scaffold")
    d = problem.d
    n = problem.n_clients
    theta_star = certificate.theta_star
    theta = np.zeros(d) if theta0 is None else np.asarray(theta0, dtype=np.float64)
    thetas = np.tile(theta, (len(algorithms), len(seeds), 1))
    xis = np.zeros(thetas.shape[:2] + (n, d))
    if n_scaffold:
        start = ChainState(theta, np.zeros((n, d)) if xis0 is None else xis0)
        xis[:n_scaffold] = start.xis
    target = ChainState(theta_star, certificate.xi_star)
    cells = [(k, s) for k in range(n_scaffold) for s in range(len(seeds))]

    mse = np.empty((config.rounds + 1,) + thetas.shape[:2])
    lam_dist = np.empty_like(mse)
    for t in range(config.rounds + 1):
        if t > 0:
            thetas, xis = _round(problem, config, n_scaffold, seeds, thetas, xis, t - 1)
        with np.errstate(over="ignore"):
            mse[t] = np.sum((thetas - theta_star) ** 2, axis=-1)
        for k, s in cells:
            lam_dist[t, k, s] = lambda_norm_sq(
                ChainState.unchecked(thetas[k, s], xis[k, s]), target,
                config.gamma, config.local_steps,
            )

    rounds = np.arange(config.rounds + 1)
    return {
        (algorithm, seed): Trajectory(
            rounds, mse[:, k, s].copy(),
            lam_dist[:, k, s].copy() if k < n_scaffold else None,
        )
        for k, algorithm in enumerate(algorithms)
        for s, seed in enumerate(seeds)
    }


def run(problem: Problem, certificate, config: RunConfig,
        theta0=None, xis0=None) -> Trajectory:
    """Run T rounds from theta0 (default zero) with zero control variates.

    Records the squared distance to the optimum after every round; for
    Scaffold also the squared weighted distance of the full state to the
    fixed point (theta_star, xi_star).
    """
    sweep = run_sweep(problem, certificate, config, [config.algorithm],
                      [config.seed], theta0, xis0)
    return sweep[config.algorithm, config.seed]


def coupled_run(problem: Problem, config: RunConfig,
                state_a: ChainState, state_b: ChainState):
    """Drive two Scaffold chains with the SAME noise streams.

    Returns the squared weighted distance between the chains after every
    round, length T+1.  Because streams are a pure function of
    (seed, round, client, step), advancing both chains as one block with
    one seed realizes the synchronous coupling: each round draws and
    gathers one minibatch per client and step for both.
    """
    gamma, local_steps = config.gamma, config.local_steps
    dist = np.empty(config.rounds + 1)
    dist[0] = lambda_norm_sq(state_a, state_b, gamma, local_steps)
    thetas = np.stack([state_a.theta, state_b.theta])[:, None]
    xis = np.stack([state_a.xis, state_b.xis])[:, None]
    for t in range(config.rounds):
        thetas, xis = _round(problem, config, 2, config.seed, thetas, xis, t)
        a = ChainState.unchecked(thetas[0, 0], xis[0, 0])
        b = ChainState.unchecked(thetas[1, 0], xis[1, 0])
        dist[t + 1] = lambda_norm_sq(a, b, gamma, local_steps)
    return dist
