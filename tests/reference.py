"""Scalar and one-client references that tests compare the simulator against.

The simulator computes these in vectorized form: the counter-based stream
of one (seed, round, client, step) tuple and its words, one client's
minibatch gradient, loss and per-record gradients, and the sum-zero check
of a chain state.  `broadcast_minibatch_gradient` is the gradient kernel's
earlier form over a leading chain axis.  `sigmoid`, `loss_weights`,
`minibatch_gradient`, `local_step` and `endpoints` are the local step as
allocating expressions, which the simulator computes in place with the same
IEEE operations.  Tests import this module the way they import `conftest`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from scaffold_sim.core import _GAMMA64, _U64, SUM_ZERO_TOL, _finalize, _mix_key
from scaffold_sim.objectives import _record_gradient_stack, stacked_minibatch_gradient


@dataclass(frozen=True)
class RngStream:
    """Pure random stream identified by (root_seed, round, client, step).

    The same tuple always yields the same draws, on any machine and under
    any thread count.
    """

    root_seed: int
    round: int
    client: int
    step: int
    _key: np.uint64 = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_key", _mix_key(self.root_seed, self.round, self.client, self.step)
        )

    def raw(self, count, offset=0):
        """First `count` 64-bit words of the stream (after `offset` words)."""
        return raw_words(self._key, count, offset)

    def uniform_indices(self, n, count):
        """`count` i.i.d. uniform draws from {0, ..., n-1}."""
        if n <= 0:
            raise ValueError(f"need n >= 1, got {n}")
        words = raw_words(self._key, count)
        # modulo map; bias is ~n/2^64, negligible for in-memory datasets
        words %= _U64(n)
        return words.view(np.int64)


def raw_words(key, count, offset=0):
    """`count` uint64 words of the stream of each key, after `offset` words.

    `batch_uniform_indices` generates the same words in place, in blocks.
    """
    key = np.asarray(key, dtype=_U64)
    ctr = np.arange(offset + 1, offset + count + 1, dtype=_U64)
    with np.errstate(over="ignore"):
        ctr *= _GAMMA64
        return _finalize(key[..., None] + ctr)


def derive_stream(root_seed, round_idx, client, step):
    """Stream for one (seed, round, client, step) tuple; a pure function."""
    return RngStream(root_seed, round_idx, client, step)


def loss_value(problem, client, theta):
    """Client loss f_c(theta), averaged over the client's records."""
    ds = problem.clients[client]
    theta = np.asarray(theta, dtype=np.float64)
    margin = ds.features @ theta
    if problem.loss == "quadratic":
        data_term = 0.5 * np.mean((margin - ds.targets) ** 2)
    else:
        z = -ds.targets * margin
        # log(1 + e^z), stable for large |z|
        data_term = np.mean(np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z))))
    return float(data_term + 0.5 * problem.l2_weight * theta @ theta)


def stochastic_gradient(problem, client, theta, stream: RngStream):
    """Minibatch gradient: b records drawn i.i.d. uniformly with replacement.

    Unbiased for `full_gradient`; identical streams give identical output.
    One client's case of the round simulator's kernel,
    `stacked_minibatch_gradient`, so a one-client simulation reproduces
    plain SGD bit for bit.
    """
    ds = problem.clients[client]
    theta = np.asarray(theta, dtype=np.float64)
    idx = stream.uniform_indices(ds.n_records, problem.batch_size)
    return stacked_minibatch_gradient(
        ds.features[idx][None], ds.targets[idx][None], theta[None],
        problem.loss, problem.l2_weight,
    )[0]


def broadcast_minibatch_gradient(features, targets, thetas, loss, l2_weight):
    """`stacked_minibatch_gradient` as one einsum broadcast over leading axes.

    The kernel's earlier form; the per-chain 2-D einsums that replaced it
    must give the same bits.
    """
    margin = np.einsum("nmd,...nd->...nm", features, thetas)
    weights = loss_weights(margin, targets, loss)
    grads = np.einsum("...nm,nmd->...nd", weights, features) / features.shape[1]
    return grads + l2_weight * thetas


def sigmoid(z):
    """The logistic sigmoid as three arrays: exp(-|z|), its sum with 1, a select."""
    ez = np.exp(-np.abs(z))
    den = 1.0 + ez
    return np.where(z >= 0, 1.0 / den, ez / den)


def loss_weights(margin, targets, loss):
    """Per-record derivative of the data loss with respect to the margin."""
    if loss == "quadratic":
        return margin - targets
    return -targets * (1.0 - sigmoid(targets * margin))


def minibatch_gradient(features, targets, thetas, loss, l2_weight):
    """`stacked_minibatch_gradient` with the allocating loss weights and tail.

    Each chain of a leading axis runs the kernel's two 2-D einsums; the
    loss weights and the tail are each one expression over the whole stack,
    as in the kernel: where both operands of a sum are NaN, numpy's loops
    pick the result's sign by the element's place in the array.
    """
    chains = thetas.reshape(-1, *thetas.shape[-2:])
    margin = np.stack([np.einsum("nmd,nd->nm", features, theta) for theta in chains])
    weights = loss_weights(margin, targets, loss)
    sums = np.stack([np.einsum("nm,nmd->nd", w, features) for w in weights])
    return sums.reshape(thetas.shape) / features.shape[1] + l2_weight * thetas


def local_step(thetas, grads, corrections, gamma):
    """One corrected local step of every row."""
    return thetas - gamma * (grads + corrections)


def endpoints(block, thetas, corrections, idx):
    """`algorithms._endpoints` with `minibatch_gradient` and `local_step`."""
    thetas = np.repeat(thetas, block.counts, axis=-2)
    with np.errstate(over="ignore", invalid="ignore"):
        for h in range(block.local_steps):
            if idx is None:
                grads = np.empty_like(thetas)
                for rows, features, targets in block.groups:
                    grads[..., rows, :] = minibatch_gradient(
                        features, targets, thetas.take(rows, axis=-2), block.loss,
                        block.l2_weight)
            else:
                grads = minibatch_gradient(
                    block.flat_x.take(idx[h], axis=0), block.flat_y.take(idx[h]), thetas,
                    block.loss, block.l2_weight)
            thetas = local_step(thetas, grads, corrections, block.gamma)
    return thetas


def per_record_gradients(problem, client, theta):
    """All per-record gradients at theta, shape (n, d), including l2."""
    ds = problem.clients[client]
    theta = np.asarray(theta, dtype=np.float64)
    return _record_gradient_stack(ds.features[None], ds.targets[None], theta,
                                  problem.loss, problem.l2_weight)[0]


def sum_zero_violation(theta, xis):
    """Max-abs entry of sum_c xi_c, the distance from the state space."""
    return float(np.max(np.abs(xis.sum(axis=0))))


def on_state_space(theta, xis, tol=SUM_ZERO_TOL):
    scale = 1.0 + float(np.max(np.abs(xis))) if xis.size else 1.0
    return sum_zero_violation(theta, xis) <= tol * scale
