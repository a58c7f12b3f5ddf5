"""Round operators for Scaffold and FedAvg, and the trajectory runners.

One round sends the global parameter to every client, runs H corrected
local SGD steps per client, averages the endpoints, and (for Scaffold)
updates the control variates from the endpoint spread.  One round kernel,
`block_rounds`, advances a block of chains laid out as a flat client table
(`ChainBlock`) through a sequence of rounds, vectorized across chains and
clients, with one RNG call for the minibatches of many rounds; the chains
may differ in problem, client count, step size, seed and round index.
Randomness comes from the per (seed, round, client, step) counter
streams, so chains with the same key see the same minibatches, and
results do not depend on scheduling or on which chains share a block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, islice

import numpy as np

from .core import ChainState, RunConfig, batch_uniform_indices, lambda_norm_sq
from .objectives import Problem, record_groups, stacked_minibatch_gradient

__all__ = [
    "Trajectory",
    "DivergenceError",
    "scaffold_round",
    "fedavg_round",
    "run",
    "run_sweep",
    "coupled_run",
    "ChainBlock",
    "block_round",
    "block_rounds",
]

# Words of one RNG call in `block_rounds`: 512 KB of minibatch indices.
_CHUNK_WORDS = 2 ** 16


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


def _block_keys(problem, config):
    # what every chain of one block must share
    return {
        "loss": problem.loss,
        "l2_weight": problem.l2_weight,
        "local_steps": config.local_steps,
        "batch_size": None if config.deterministic else problem.batch_size,
        "d": problem.d,
    }


def _check_algorithm(config, algorithm, caller):
    if config.algorithm != algorithm:
        raise ValueError(
            f"algorithm must be {algorithm} for {caller}, got {config.algorithm!r}")


def _flat_data(problems):
    """The distinct record tables of `problems`, concatenated, with row offsets.

    Returns (features (rows, d), targets (rows,), {id(problem): (first
    rows, record counts, client ids)}).  Problems that share a table (the
    re-splits of one pool) share its rows, and each table's first rows are
    offset by the rows of the distinct tables before it.  One distinct
    table is used as it is, without a copy.
    """
    tables = {}
    for p in problems:
        tables.setdefault((id(p.features), id(p.targets)), p)
    owners = list(tables.values())
    offsets = dict(zip(tables, np.cumsum([0] + [len(p.targets) for p in owners[:-1]]).tolist()))
    clients = {id(p): (p.first_rows + offsets[id(p.features), id(p.targets)],
                       p.record_counts, p.client_ids) for p in problems}
    if len(owners) == 1:
        return owners[0].features, owners[0].targets, clients
    features = np.concatenate([p.features for p in owners])
    targets = np.concatenate([p.targets for p in owners])
    return features, targets, clients


def _uniform(values):
    """The common value of `values`, or None if they differ."""
    return values[0] if all(v == values[0] for v in values) else None


class ChainBlock:
    """Flat client table of a block of chains, built once per block.

    `chains` is a list of (problem, config) pairs.  Row r of the table is
    one client of one chain, and chain g owns the rows `slices[g]`.  Every
    row carries its client's first row in the block's data (the distinct
    record tables of the block's problems, each held once however many
    problems share it, see `_flat_data`), its record count, client id and
    seed, and its chain's step size, so chains with different problems,
    client counts, step sizes and round indices share each draw and one
    gather per local step.  A part that is the same on every row stays a
    scalar, which mixes its RNG key once instead of per row.  For exact
    gradients the block holds every record of every row in `groups` of
    rows with equal record count (`record_groups`): views of the table
    when the rows are one problem's equal-size clients in order, else
    gathered once per block.

    The chains must share the loss, l2 weight, local steps, dimension and
    batch width (or all use exact gradients); a mismatch raises a
    ValueError naming the key.
    """

    def __init__(self, chains, data=None):
        problem, config = chains[0]
        shared = _block_keys(problem, config)
        for p, c in chains:
            for key, value in _block_keys(p, c).items():
                if value != shared[key]:
                    raise ValueError(
                        f"chains in one block must share {key}: "
                        f"got {shared[key]!r} and {value!r}"
                    )
        self.chains = chains
        self.loss, self.l2_weight = problem.loss, problem.l2_weight
        self.local_steps, self.batch, self.d = (
            config.local_steps, shared["batch_size"], problem.d)
        sizes = [p.n_clients for p, _ in chains]
        stops = np.cumsum(sizes).tolist()
        self.slices = [slice(stop - n, stop) for n, stop in zip(sizes, stops)]
        self.n_rows = stops[-1]
        self.counts = sizes[0] if _uniform(sizes) is not None else np.array(sizes)
        gammas = [c.gamma for _, c in chains]
        self.gamma = _uniform(gammas)
        if self.gamma is None:
            self.gamma = np.repeat(gammas, sizes)[:, None]
        self.gamma_h = [c.gamma * c.local_steps for _, c in chains]
        self._data = data or _flat_data(list({id(p): p for p, _ in chains}.values()))
        self.flat_x, self.flat_y, clients = self._data
        rows = [clients[id(p)] for p, _ in chains]
        first, n_records, self.ids = (
            np.concatenate(part) if len(rows) > 1 else part[0] for part in zip(*rows))
        if self.batch is None:
            # every record of every row, in groups of rows with equal record
            # count: one gradient call per group
            self.groups = record_groups(self.flat_x, self.flat_y, first, n_records)
            return

        self.first_rows = first[:, None]
        self.n_records = _uniform(n_records.tolist())
        if self.n_records is None:
            self.n_records = n_records
        seeds = [c.seed for _, c in chains]
        self.seed = _uniform(seeds)
        if self.seed is None:
            self.seed = np.repeat(np.array(seeds, dtype=np.uint64), sizes)

    def prefix(self, n_chains):
        """The block of the first `n_chains` chains, on the same data."""
        return ChainBlock(self.chains[:n_chains], self._data)


def _endpoints(block, thetas, corrections, idx):
    """H local steps on every row of the block; returns the endpoints.

    thetas (..., G, d) holds one parameter per chain and corrections
    (..., R, d) one control variate per row.  A leading axis holds chains
    that share the block's rows, and with them each gathered batch.  `idx`
    (H, R, b) holds the round's minibatch rows in the block's data, or is
    None for exact gradients.  The endpoints have the shape of
    `corrections`.
    """
    thetas = np.repeat(thetas, block.counts, axis=-2)
    gamma, loss, l2_weight = block.gamma, block.loss, block.l2_weight
    if block.batch is None:
        with np.errstate(over="ignore", invalid="ignore"):
            for _ in range(block.local_steps):
                grads = np.empty_like(thetas)
                for rows, features, targets in block.groups:
                    grads[..., rows, :] = stacked_minibatch_gradient(
                        features, targets, thetas[..., rows, :], loss, l2_weight)
                thetas = thetas - gamma * (grads + corrections)
        return thetas

    # each step gathers its (R, b) batch, shared by every chain of a
    # leading axis, with a single take from the flat (rows, d) data
    flat_x, flat_y = block.flat_x, block.flat_y
    with np.errstate(over="ignore", invalid="ignore"):
        for h in range(block.local_steps):
            grads = stacked_minibatch_gradient(
                flat_x.take(idx[h], axis=0), flat_y.take(idx[h]), thetas,
                loss, l2_weight,
            )
            thetas = thetas - gamma * (grads + corrections)
    return thetas


def _draw(block, rounds):
    """Minibatch rows (C, H, R, b) in the block's data for C rounds.

    `rounds` holds C round indices, each one for all rows or one per row;
    one RNG call draws them all.
    """
    rounds = np.array(rounds, dtype=np.uint64)
    idx = batch_uniform_indices(block.seed, rounds.reshape(len(rounds), 1, -1), block.ids,
                                block.local_steps, block.n_records, block.batch)
    idx += block.first_rows
    return idx


def _advance(block, n_scaffold, thetas, xis, idx, round_index):
    # one round of `block_rounds` on the drawn rows idx (H, R, b), or None;
    # the fresh endpoint array becomes the new control variates in place;
    # spread / (gamma * H) + xi is the same IEEE sum as xi + spread / (gamma * H)
    xis_next = _endpoints(block, thetas, xis, idx)
    thetas_next = np.empty_like(thetas)
    with np.errstate(over="ignore", invalid="ignore"):
        for g, (rows, gamma_h) in enumerate(zip(block.slices, block.gamma_h)):
            # add.reduce / n is numpy's mean without its Python layer
            n = rows.stop - rows.start
            xi = xis_next[..., rows, :]
            mean = np.add.reduce(xi, axis=-2) / n
            thetas_next[..., g, :] = mean
            xi -= mean[..., None, :]
            xi /= gamma_h
            xi += xis[..., rows, :]
            xi -= np.add.reduce(xi, axis=-2, keepdims=True) / n
    xis_next.reshape(-1, block.n_rows, block.d)[n_scaffold:] = 0.0
    if not (np.isfinite(thetas_next).all() and np.isfinite(xis_next).all()):
        first_row = next(
            rows.start for g, rows in enumerate(block.slices)
            if not (np.isfinite(thetas_next[..., g, :]).all()
                    and np.isfinite(xis_next[..., rows, :]).all())
        )
        raise DivergenceError(int(round_index if np.ndim(round_index) == 0
                                  else round_index[first_row]))
    return thetas_next, xis_next


def block_rounds(block, n_scaffold, thetas, xis, rounds):
    """Advance every chain of a ChainBlock through `rounds`; yields (thetas, xis).

    thetas (..., G, d) and xis (..., R, d) as in `_endpoints`.  Along a
    leading axis the first n_scaffold chains run Scaffold and the rest
    FedAvg; without one, n_scaffold is 1 (Scaffold) or 0 (FedAvg).  FedAvg
    chains keep all-zero control variates, which still enter every local
    step as in a separate FedAvg round (the add turns -0.0 gradients into
    +0.0).  `rounds` is an iterable of round indices, each one for all
    rows or one per row; the new state is yielded after each round.

    Each chain averages its own endpoints.  Its control variates move by
    (endpoint - average) / (gamma * H) and are re-centered so their sum
    stays exactly on the zero subspace.  Raises DivergenceError, with the
    round index of the first chain hit, if any entry of the new block is
    not finite; an overflow anywhere in the round leaves one, so this
    single check covers the round.

    The minibatches of consecutive rounds are drawn by one RNG call, in
    chunks of at most _CHUNK_WORDS words; a larger round is drawn alone.
    """
    rounds = iter(rounds)
    if block.batch is None:
        for r in rounds:
            thetas, xis = _advance(block, n_scaffold, thetas, xis, None, r)
            yield thetas, xis
        return
    chunk = max(1, _CHUNK_WORDS // (block.local_steps * block.n_rows * block.batch))
    while part := list(islice(rounds, chunk)):
        idx = _draw(block, part)
        for r, drawn in zip(part, idx):
            thetas, xis = _advance(block, n_scaffold, thetas, xis, drawn, r)
            yield thetas, xis
        # the next chunk is drawn only after this one is released
        del idx, drawn


def block_round(block, n_scaffold, thetas, xis, rounds):
    """Advance every chain of a ChainBlock one round; returns (thetas, xis).

    The one-round case of `block_rounds`; `rounds` is the round index, one
    for all rows or one per row.
    """
    (state,) = block_rounds(block, n_scaffold, thetas, xis, [rounds])
    return state


def scaffold_round(state: ChainState, problem: Problem, config: RunConfig,
                   round_index: int) -> ChainState:
    """One Scaffold round: corrected local steps, average, control update.

    The control variates move by (endpoint - average) / (gamma * H) and are
    re-centered so their sum stays exactly on the zero subspace.  Raises
    DivergenceError if any entry of the new state is not finite, and a
    ValueError if the config's algorithm is not Scaffold.
    """
    _check_algorithm(config, "scaffold", "scaffold_round")
    thetas, xis = block_round(ChainBlock([(problem, config)]), 1, state.theta[None],
                              state.xis, round_index)
    return ChainState.unchecked(thetas[0], xis)


def fedavg_round(theta, problem: Problem, config: RunConfig, round_index: int):
    """One FedAvg round: plain local steps, then average the endpoints.

    Raises DivergenceError if the average is not finite, and a ValueError
    if the config's algorithm is not FedAvg.
    """
    _check_algorithm(config, "fedavg", "fedavg_round")
    theta = np.asarray(theta, dtype=np.float64)
    corrections = np.zeros((problem.n_clients, theta.shape[0]))
    thetas, _ = block_round(ChainBlock([(problem, config)]), 0, theta[None],
                            corrections, round_index)
    return thetas[0]


def run_sweep(problem: Problem, certificate, config: RunConfig, algorithms, seeds,
              theta0=None):
    """Run every (algorithm, seed) chain for config.rounds rounds as one block.

    Each chain takes its algorithm and seed from `algorithms` and `seeds`;
    `config` supplies the rest.  All chains start from theta0 (default
    zero) with zero control variates, and advance through one round
    kernel, so the chains of one seed share every minibatch draw and
    gather.  Each trajectory equals that of a separate `run` bit for bit.
    Returns {(algorithm, seed): Trajectory}.
    """
    for algorithm in algorithms:
        for seed in seeds:
            replace(config, algorithm=algorithm, seed=seed)  # validates the chain's config
    # Scaffold rows first: the round kernel takes their count
    algorithms = sorted(algorithms, key=lambda a: a != "scaffold")
    n_scaffold = algorithms.count("scaffold")
    block = ChainBlock([(problem, replace(config, seed=seed)) for seed in seeds])
    n_algos, n_seeds = len(algorithms), len(seeds)
    d = problem.d
    n = problem.n_clients
    theta_star = certificate.theta_star
    # ChainState checks that theta0 is a finite length-d vector
    theta = ChainState(np.zeros(d) if theta0 is None else theta0, np.zeros((n, d))).theta
    # one algorithm keeps no leading axis of one
    lead = (n_algos,) if n_algos > 1 else ()
    thetas = np.tile(theta, lead + (n_seeds, 1))
    xis = np.zeros(lead + (n_seeds * n, d))
    target = ChainState(theta_star, certificate.xi_star)
    cells = [(k, s) for k in range(n_scaffold) for s in range(n_seeds)]

    mse = np.empty((config.rounds + 1, n_algos, n_seeds))
    lam_dist = np.empty_like(mse)
    states = chain([(thetas, xis)],
                   block_rounds(block, n_scaffold, thetas, xis, range(config.rounds)))
    for t, (thetas, xis) in enumerate(states):
        cell_thetas = thetas.reshape(n_algos, n_seeds, d)
        cell_xis = xis.reshape(n_algos, n_seeds, n, d)
        with np.errstate(over="ignore"):
            mse[t] = np.sum((cell_thetas - theta_star) ** 2, axis=-1)
        for k, s in cells:
            lam_dist[t, k, s] = lambda_norm_sq(
                ChainState.unchecked(cell_thetas[k, s], cell_xis[k, s]), target,
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


def run(problem: Problem, certificate, config: RunConfig, theta0=None) -> Trajectory:
    """Run T rounds from theta0 (default zero) with zero control variates.

    Records the squared distance to the optimum after every round; for
    Scaffold also the squared weighted distance of the full state to the
    fixed point (theta_star, xi_star).
    """
    sweep = run_sweep(problem, certificate, config, [config.algorithm],
                      [config.seed], theta0)
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
    _check_algorithm(config, "scaffold", "coupled_run")
    gamma, local_steps = config.gamma, config.local_steps
    block = ChainBlock([(problem, config)])
    dist = np.empty(config.rounds + 1)
    dist[0] = lambda_norm_sq(state_a, state_b, gamma, local_steps)
    thetas = np.stack([state_a.theta, state_b.theta])[:, None]
    xis = np.stack([state_a.xis, state_b.xis])
    states = block_rounds(block, 2, thetas, xis, range(config.rounds))
    for t, (thetas, xis) in enumerate(states, 1):
        a = ChainState.unchecked(thetas[0, 0], xis[0])
        b = ChainState.unchecked(thetas[1, 0], xis[1])
        dist[t] = lambda_norm_sq(a, b, gamma, local_steps)
    return dist
