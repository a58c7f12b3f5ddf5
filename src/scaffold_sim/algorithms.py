"""Round operators for Scaffold and FedAvg, and the trajectory runners.

One round sends the global parameter to every client, runs H corrected
local SGD steps per client, averages the endpoints, and (for Scaffold)
updates the control variates from the endpoint spread.  The per-client
work is vectorized across clients; randomness comes from the per
(seed, round, client, step) counter streams, so results do not depend on
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ChainState, RunConfig, batch_uniform_indices, lambda_norm_sq
from .objectives import Problem, stacked_minibatch_gradient

__all__ = [
    "Trajectory",
    "DivergenceError",
    "scaffold_round",
    "fedavg_round",
    "run",
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


def _local_endpoints(problem, theta, corrections, round_index, config):
    """Run H local steps on every client; returns the (N, d) endpoints."""
    n_clients = problem.n_clients
    gamma, local_steps = config.gamma, config.local_steps
    thetas = np.tile(theta, (n_clients, 1))
    stack = _stacked(problem)

    if stack is None:
        return _local_endpoints_ragged(problem, thetas, corrections, round_index, config)

    features, targets, ids = stack
    if config.deterministic:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(local_steps):
                grads = stacked_minibatch_gradient(
                    features, targets, thetas, problem.loss, problem.l2_weight
                )
                thetas = thetas - gamma * (grads + corrections)
        return thetas

    n_records = features.shape[1]
    idx = batch_uniform_indices(
        config.seed, round_index, ids, local_steps, n_records, problem.batch_size
    )
    # row of (client i, record r) in the flattened (N*n, d) data: i*n + r,
    # so each step gathers its (N, b) batch with a single take
    idx += (np.arange(n_clients) * n_records)[:, None]
    flat_x = features.reshape(-1, features.shape[2])
    flat_y = targets.reshape(-1)
    with np.errstate(over="ignore", invalid="ignore"):
        for h in range(local_steps):
            grads = stacked_minibatch_gradient(
                flat_x.take(idx[h], axis=0), flat_y.take(idx[h]), thetas,
                problem.loss, problem.l2_weight,
            )
            thetas = thetas - gamma * (grads + corrections)
    return thetas


def _local_endpoints_ragged(problem, thetas, corrections, round_index, config):
    # slow path for clients with unequal record counts
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
                stream = derive_stream(config.seed, round_index, ds.client_id, h)
                grad = stochastic_gradient(problem, i, theta, stream)
            theta = theta - gamma * (grad + corrections[i])
        out[i] = theta
    return out


def scaffold_round(state: ChainState, problem: Problem, config: RunConfig,
                   round_index: int) -> ChainState:
    """One Scaffold round: corrected local steps, average, control update.

    The control variates move by (endpoint - average) / (gamma * H) and are
    re-centered so their sum stays exactly on the zero subspace.  Raises
    DivergenceError if any entry of the new state is not finite; an overflow
    anywhere in the round leaves one, so this single check covers the round.
    """
    endpoints = _local_endpoints(problem, state.theta, state.xis, round_index, config)
    with np.errstate(over="ignore", invalid="ignore"):
        theta_next = endpoints.mean(axis=0)
        xis_next = state.xis + (endpoints - theta_next) / (config.gamma * config.local_steps)
        new_state = ChainState.unchecked(theta_next, xis_next)
        new_state.recenter()
    if not (np.isfinite(theta_next).all() and np.isfinite(new_state.xis).all()):
        raise DivergenceError(round_index)
    return new_state


def fedavg_round(theta, problem: Problem, config: RunConfig, round_index: int):
    """One FedAvg round: plain local steps, then average the endpoints."""
    corrections = np.zeros((problem.n_clients, theta.shape[0]))
    endpoints = _local_endpoints(problem, theta, corrections, round_index, config)
    return endpoints.mean(axis=0)


def run(problem: Problem, certificate, config: RunConfig,
        theta0=None, xis0=None) -> Trajectory:
    """Run T rounds from theta0 (default zero) with zero control variates.

    Records the squared distance to the optimum after every round; for
    Scaffold also the squared weighted distance of the full state to the
    fixed point (theta_star, xi_star).
    """
    d = problem.d
    n = problem.n_clients
    theta_star = certificate.theta_star
    theta = np.zeros(d) if theta0 is None else np.asarray(theta0, dtype=np.float64).copy()

    rounds = np.arange(config.rounds + 1)
    mse = np.empty(config.rounds + 1)

    if config.algorithm == "fedavg":
        mse[0] = np.sum((theta - theta_star) ** 2)
        for t in range(config.rounds):
            theta = fedavg_round(theta, problem, config, t)
            if not np.all(np.isfinite(theta)):
                raise DivergenceError(t)
            mse[t + 1] = np.sum((theta - theta_star) ** 2)
        return Trajectory(rounds, mse)

    xis = np.zeros((n, d)) if xis0 is None else np.asarray(xis0, dtype=np.float64).copy()
    state = ChainState(theta, xis)
    target = ChainState(theta_star, certificate.xi_star)
    lam_dist = np.empty(config.rounds + 1)
    mse[0] = np.sum((state.theta - theta_star) ** 2)
    lam_dist[0] = lambda_norm_sq(state, target, config.gamma, config.local_steps)
    for t in range(config.rounds):
        state = scaffold_round(state, problem, config, t)
        with np.errstate(over="ignore"):
            mse[t + 1] = np.sum((state.theta - theta_star) ** 2)
        lam_dist[t + 1] = lambda_norm_sq(state, target, config.gamma, config.local_steps)
    return Trajectory(rounds, mse, lam_dist)


def coupled_run(problem: Problem, config: RunConfig,
                state_a: ChainState, state_b: ChainState):
    """Drive two Scaffold chains with the SAME noise streams.

    Returns the squared weighted distance between the chains after every
    round, length T+1.  Because streams are a pure function of
    (seed, round, client, step), running the two chains in lockstep with
    the same config realizes the synchronous coupling.
    """
    dist = np.empty(config.rounds + 1)
    dist[0] = lambda_norm_sq(state_a, state_b, config.gamma, config.local_steps)
    a, b = state_a.copy(), state_b.copy()
    for t in range(config.rounds):
        a = scaffold_round(a, problem, config, t)
        b = scaffold_round(b, problem, config, t)
        dist[t + 1] = lambda_norm_sq(a, b, config.gamma, config.local_steps)
    return dist
