"""Round operators for Scaffold and FedAvg, and the trajectory runners.

One round sends the global parameter to every client, runs H corrected
local SGD steps per client, averages the endpoints, and (for Scaffold)
updates the control variates from the endpoint spread.  One round kernel,
`block_rounds`, advances a block of chains laid out as a flat client table
(`ChainBlock`) through a sequence of rounds, vectorized across chains and
clients, with one RNG call for the minibatches of many rounds; the chains
read one record table, and may differ in its partition into clients,
client count, step size, seed and round index.
Randomness comes from the per (seed, round, client, step) counter
streams, so chains with the same key see the same minibatches, and
results do not depend on scheduling or on which chains share a block.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import chain, islice

import numpy as np

from .core import ChainState, RunConfig, batch_uniform_indices, lambda_norm_sq
from .objectives import Problem, record_groups, stacked_minibatch_gradient

__all__ = [
    "ALGORITHMS",
    "DivergenceError",
    "scaffold_round",
    "fedavg_round",
    "run",
    "run_sweep",
    "coupled_run",
    "ChainBlock",
    "block_rounds",
]

# The algorithms `run_sweep` runs, and the config's `algorithms` key accepts.
ALGORITHMS = ("scaffold", "fedavg")

# Words of one RNG call in `block_rounds`: 512 KB of minibatch indices held
# at once; a larger round is one call of its own.
_CHUNK_WORDS = 2 ** 16


class DivergenceError(RuntimeError):
    """The chain produced a non-finite entry; the step size is too large."""

    def __init__(self, round_index):
        super().__init__(
            f"non-finite state at round {round_index}; "
            "step size too large for this problem"
        )
        self.round_index = round_index


def _block_keys(problem, config):
    # what every chain of one block must share
    return {
        "loss": problem.loss,
        "l2_weight": problem.l2_weight,
        "local_steps": config.local_steps,
        "batch_size": None if config.deterministic else problem.batch_size,
        "d": problem.d,
    }


class ChainBlock:
    """Flat client table of a block of chains, built once per block.

    `chains` is a list of (problem, config) pairs.  Row r of the table is
    one client of one chain, and chain g owns the rows `slices[g]`.  Every
    row carries its client's first row in the block's record table, its
    record count, client id and seed, and its chain's step size, so chains
    with different partitions, client counts, step sizes and round indices
    share each draw and one gather per local step.  Only a step size that
    every chain shares stays a scalar: as a per-row column it measured
    slower on the narrow rounds of the `speedup` task.  For exact
    gradients the block holds every record of every row in `groups` of
    rows with equal record count (`record_groups`), each with the index
    array of its rows: views of the table when the rows are one problem's
    equal-size clients in order, else gathered once per block.  For
    minibatches, local steps gather from `step_table`: the record table
    for a quadratic loss, and for a logistic loss the label-signed
    features `flat_x * flat_y[:, None]` with None for the labels (see
    `stacked_minibatch_gradient`), so a step gathers and multiplies no labels.

    The chains must share the loss, l2 weight, local steps, dimension and
    batch width (or all use exact gradients); a mismatch raises a
    ValueError naming the key.  Their problems must read one record table,
    `features` and `targets`: one problem, or re-splits of one pool
    (`harness.build_problem(config, n, pool=pool)`); a second table raises
    a ValueError, and so does an empty `chains`.
    """

    def __init__(self, chains):
        if not chains:
            raise ValueError("need at least one chain")
        problem, config = chains[0]
        shared = _block_keys(problem, config)
        for p, c in chains:
            for key, value in _block_keys(p, c).items():
                if value != shared[key]:
                    raise ValueError(
                        f"chains in one block must share {key}: "
                        f"got {shared[key]!r} and {value!r}"
                    )
        self.flat_x, self.flat_y = problem.features, problem.targets
        if any(p.features is not self.flat_x or p.targets is not self.flat_y for p, _ in chains):
            raise ValueError(
                "chains in one block must read one record table: use one problem, "
                "or re-splits of one pool (harness.build_problem(..., pool=pool))"
            )
        self.loss, self.l2_weight = problem.loss, problem.l2_weight
        self.local_steps, self.batch, self.d = (
            config.local_steps, shared["batch_size"], problem.d)
        sizes = [p.n_clients for p, _ in chains]
        stops = np.cumsum(sizes).tolist()
        self.slices = [slice(stop - n, stop) for n, stop in zip(sizes, stops)]
        self.n_rows = stops[-1]
        self.counts = np.array(sizes)
        gammas = [c.gamma for _, c in chains]
        # one shared step size stays a scalar: a per-row column read 6.33 -> 6.49 on speedup-narrow
        self.gamma = (gammas[0] if len(set(gammas)) == 1
                      else np.repeat(gammas, sizes)[:, None])
        self.gamma_h = [c.gamma * c.local_steps for _, c in chains]
        first, self.n_records, self.ids = (
            np.concatenate(part) for part in
            zip(*[(p.first_rows, p.record_counts, p.client_ids) for p, _ in chains]))
        if self.batch is None:
            # every record of every row, in groups of rows with equal record
            # count: one gradient call per group
            self.groups = record_groups(self.flat_x, self.flat_y, first, self.n_records)
            return

        self.step_table = ((self.flat_x, self.flat_y) if self.loss == "quadratic"
                           else (self.flat_x * self.flat_y[:, None], None))
        self.first_rows = first[:, None]
        self.seed = np.repeat(np.array([c.seed for _, c in chains], dtype=np.uint64), sizes)


def _endpoints(block, thetas, corrections, idx):
    """H local steps on every row of the block; returns the endpoints.

    thetas (..., G, d) holds one parameter per chain and corrections
    (..., R, d) one control variate per row.  A leading axis holds chains
    that share the block's rows, and with them each gathered batch.  `idx`
    (H, R, b) holds the round's minibatch rows in the block's record
    table, or is None for exact gradients, which run on the block's
    `groups`.  The endpoints have the shape of `corrections`.  Each step
    updates the round's own copy of the rows' parameters in place, with
    the IEEE operations of `thetas - gamma * (grads + corrections)`; the
    given arrays are not written.
    """
    thetas = np.repeat(thetas, block.counts, axis=-2)
    gamma, loss, l2_weight = block.gamma, block.loss, block.l2_weight
    with np.errstate(over="ignore", invalid="ignore"):
        for h in range(block.local_steps):
            if idx is None:
                grads = np.empty_like(thetas)
                for rows, features, targets in block.groups:
                    grads[..., rows, :] = stacked_minibatch_gradient(
                        features, targets, thetas.take(rows, axis=-2), loss, l2_weight)
            else:
                # each step gathers its (R, b) batch, shared by every chain
                # of a leading axis, with a single take from the step table
                x, y = block.step_table
                grads = stacked_minibatch_gradient(
                    x.take(idx[h], axis=0), None if y is None else y.take(idx[h]), thetas,
                    loss, l2_weight,
                )
            grads += corrections
            grads *= gamma
            thetas -= grads
    return thetas


def _draw(block, rounds):
    """Minibatch rows (C, H, R, b) in the block's record table for C rounds.

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
    chunks of at most _CHUNK_WORDS words; a larger round is one call of its
    own, which generates its words in cache-sized blocks.
    Exact-gradient rounds draw nothing and take None rows.
    """
    rounds = iter(rounds)
    chunk = max(1, _CHUNK_WORDS // (block.local_steps * block.n_rows * (block.batch or 1)))
    while part := list(islice(rounds, chunk)):
        idx = [None] * len(part) if block.batch is None else _draw(block, part)
        for r, drawn in zip(part, idx):
            thetas, xis = _advance(block, n_scaffold, thetas, xis, drawn, r)
            yield thetas, xis
        # the next chunk is drawn only after this one is released
        del idx, drawn


def scaffold_round(state: ChainState, problem: Problem, config: RunConfig,
                   round_index: int) -> ChainState:
    """One Scaffold round: corrected local steps, average, control update.

    The control variates move by (endpoint - average) / (gamma * H) and are
    re-centered so their sum stays exactly on the zero subspace.  Raises
    DivergenceError if any entry of the new state is not finite.
    """
    [(thetas, xis)] = block_rounds(ChainBlock([(problem, config)]), 1, state.theta[None],
                                   state.xis, [round_index])
    return ChainState(thetas[0], xis)


def fedavg_round(theta, problem: Problem, config: RunConfig, round_index: int):
    """One FedAvg round: plain local steps, then average the endpoints.

    Raises DivergenceError if the average is not finite.
    """
    theta = np.asarray(theta, dtype=np.float64)
    corrections = np.zeros((problem.n_clients, theta.shape[0]))
    [(thetas, _)] = block_rounds(ChainBlock([(problem, config)]), 0, theta[None],
                                 corrections, [round_index])
    return thetas[0]


def run_sweep(problem: Problem, theta_star, config: RunConfig, algorithms, seeds):
    """Run every (algorithm, seed) chain for config.rounds rounds as one block.

    Each chain takes its algorithm (a name in ALGORITHMS) and seed from
    `algorithms` and `seeds`; `config` supplies the rest.  All chains start
    from zero, and advance through one round kernel, so the chains of one
    seed share every minibatch draw and gather.  Each result equals that of
    a separate `run` bit for bit.  Returns {(algorithm, seed): mse}, where
    mse[t] is the squared distance of theta to `theta_star` after round t,
    length T+1.  Raises ValueError for an empty `algorithms` or `seeds`, or
    for a repeated entry in either, whose chains would share one key.
    """
    if not algorithms:
        raise ValueError("need at least one algorithm")
    for name, entries in (("algorithms", algorithms), ("seeds", seeds)):
        for k, entry in enumerate(entries):
            if entry in entries[:k]:
                raise ValueError(f"repeated {name} entry {entry!r}")
    for algorithm in algorithms:
        if algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {algorithm!r}, expected one of {ALGORITHMS}")
    # Scaffold rows first: the round kernel takes their count
    algorithms = sorted(algorithms, key=lambda a: a != "scaffold")
    n_scaffold = algorithms.count("scaffold")
    block = ChainBlock([(problem, replace(config, seed=seed)) for seed in seeds])
    n_algos, n_seeds, d = len(algorithms), len(seeds), problem.d
    thetas = np.zeros((n_algos, n_seeds, d))
    xis = np.zeros((n_algos, n_seeds * problem.n_clients, d))

    mse = np.empty((config.rounds + 1, n_algos, n_seeds))
    states = chain([(thetas, xis)],
                   block_rounds(block, n_scaffold, thetas, xis, range(config.rounds)))
    for t, (thetas, _) in enumerate(states):
        with np.errstate(over="ignore"):
            mse[t] = np.sum((thetas - theta_star) ** 2, axis=-1)
    return {
        (algorithm, seed): mse[:, k, s].copy()
        for k, algorithm in enumerate(algorithms)
        for s, seed in enumerate(seeds)
    }


def run(problem: Problem, theta_star, config: RunConfig, algorithm="scaffold"):
    """Run one `algorithm` chain for T rounds from zero, as `run_sweep`.

    Returns the squared distance of theta to `theta_star` after every round,
    length T+1.
    """
    sweep = run_sweep(problem, theta_star, config, [algorithm], [config.seed])
    return sweep[algorithm, config.seed]


def coupled_run(problem: Problem, config: RunConfig, seeds, starts):
    """Drive one pair of Scaffold chains per seed, each pair on the SAME noise streams.

    starts[k] = (state_a, state_b) starts the pair of seeds[k].  All pairs
    run as one block, each as two adjacent chains of one seed and round
    index; streams are a pure function of (seed, round, client, step), so
    both draw the same minibatches at every client and step (synchronous
    coupling).  Returns dist (len(seeds), T+1), each pair's squared weighted
    distance after every round; row k equals a one-seed call bit for bit.
    Raises ValueError unless each seed has one start pair, of shapes (d,) and (N, d).
    """
    n, d = problem.n_clients, problem.d
    if len(starts) != len(seeds):
        raise ValueError(f"need one start pair per seed: got {len(starts)} for {len(seeds)}")
    initial = [state for a, b in starts for state in (a, b)]
    if any(s.theta.shape != (d,) or s.xis.shape != (n, d) for s in initial):
        raise ValueError(f"start states must have shapes ({d},) and ({n}, {d})")
    block = ChainBlock([(problem, replace(config, seed=seed)) for seed in seeds for _ in range(2)])
    thetas = np.stack([s.theta for s in initial])
    xis = np.concatenate([s.xis for s in initial])
    dist = np.empty((len(seeds), config.rounds + 1))
    states = chain([(thetas, xis)], block_rounds(block, 1, thetas, xis, range(config.rounds)))
    for t, (thetas, xis) in enumerate(states):
        for k, pair in enumerate(zip(thetas.reshape(-1, 2, d), xis.reshape(-1, 2, n, d))):
            a, b = map(ChainState, *pair)
            dist[k, t] = lambda_norm_sq(a, b, config.gamma, config.local_steps)
    return dist
