"""Loss families with analytic derivatives and exact minibatch-noise covariance.

Two per-sample losses are supported, both with an l2 penalty:

  quadratic:  l(theta; x, y) = (x'theta - y)^2 / 2 + (lam/2) ||theta||^2
  logistic:   l(theta; x, y) = log(1 + exp(-y x'theta)) + (lam/2) ||theta||^2
              with labels y in {-1, +1}

A client loss is the average of its per-record losses.  Minibatches are
sampled uniformly WITH replacement, which gives the exact closed-form 1/b
scaling of the gradient-noise covariance.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from .core import check_int, check_real
from .datagen import ClientDataset

__all__ = [
    "Problem",
    "full_gradient",
    "stacked_minibatch_gradient",
    "hessian",
    "third_derivative_apply",
    "noise_covariance_at",
    "client_gradients",
    "client_hessians",
    "client_third_derivatives",
    "client_noise_covariances",
]

_LOSSES = ("quadratic", "logistic")

# Records per derivative-kernel call: the kernels' per-record temporaries
# (weighted features, per-record gradients) stay near 1 MB at d = 20.
_CHUNK_RECORDS = 8192


@dataclass
class Problem:
    """A federated problem: per-client datasets, loss family, l2 weight.

    Every client's records are concatenated once into one read-only record
    table, `features` (rows, d) and `targets` (rows,), and client c owns
    the rows `first_rows[c]` to `first_rows[c] + record_counts[c]`;
    `client_ids` holds its id as uint64.  `clients` holds copies of the
    given datasets whose arrays are views of their rows, so the records are
    held once.  Clients that are consecutive row blocks exactly covering
    one read-only array (a re-split, see `harness.build_problem`) keep that
    array as their table, uncopied; a writable array is always copied, so
    no array a caller may still write to is aliased.
    """

    clients: list[ClientDataset]
    loss: str = "quadratic"
    l2_weight: float = 0.1
    batch_size: int = 1
    features: np.ndarray = field(init=False, repr=False, compare=False)
    targets: np.ndarray = field(init=False, repr=False, compare=False)
    first_rows: np.ndarray = field(init=False, repr=False, compare=False)
    record_counts: np.ndarray = field(init=False, repr=False, compare=False)
    client_ids: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.loss not in _LOSSES:
            raise ValueError(f"loss must be one of {_LOSSES}, got {self.loss!r}")
        check_real("l2_weight", self.l2_weight)
        if self.l2_weight < 0:
            raise ValueError(f"l2_weight must be >= 0, got {self.l2_weight}")
        check_int("batch_size", self.batch_size, 1)
        if not self.clients:
            raise ValueError("need at least one client")
        d = self.clients[0].d
        if any(c.d != d for c in self.clients):
            raise ValueError("all clients must share the feature dimension d")
        self.record_counts = np.array([c.n_records for c in self.clients])
        self.first_rows = np.cumsum(self.record_counts) - self.record_counts
        self.client_ids = np.array([c.client_id for c in self.clients], dtype=np.uint64)
        self.features = _table([c.features for c in self.clients], self.first_rows)
        self.targets = _table([c.targets for c in self.clients], self.first_rows)
        if self.loss == "logistic":
            bad = ~np.isin(self.targets, (-1.0, 1.0))
            if bad.any():
                c = self.clients[np.searchsorted(self.first_rows, bad.argmax(), "right") - 1]
                raise ValueError(
                    f"client {c.client_id}: logistic targets must be in {{-1, +1}}"
                )
        ids, repeats = np.unique(self.client_ids, return_counts=True)
        if repeats.max() > 1:
            raise ValueError(f"client id {ids[repeats.argmax()]} is repeated: clients "
                             "with one id draw the same minibatch rows")
        # shallow copies, so the caller's datasets keep their arrays; their
        # records were validated when they were made
        self.clients = [copy.copy(c) for c in self.clients]
        starts = self.first_rows[1:]
        for c, x, y in zip(self.clients, np.split(self.features, starts),
                           np.split(self.targets, starts)):
            c.features, c.targets = x, y

    @property
    def d(self):
        return self.features.shape[1]

    @property
    def n_clients(self):
        return len(self.clients)


def _table(parts, first_rows):
    """`parts`, which start at `first_rows`, as one read-only record table.

    Parts that are C-contiguous views of consecutive row blocks exactly
    covering one read-only, C-contiguous array are read in place: that
    array is the table.  Otherwise the table is their concatenation.
    """
    base = parts[0].base
    if (isinstance(base, np.ndarray) and not base.flags.writeable
            and base.flags.c_contiguous and base.dtype == parts[0].dtype
            and base.shape == (int(first_rows[-1]) + len(parts[-1]),) + parts[0].shape[1:]
            and all(p.base is base and p.flags.c_contiguous
                    and p.ctypes.data == base.ctypes.data + f * base.strides[0]
                    for p, f in zip(parts, first_rows.tolist()))):
        return base
    table = np.concatenate(parts)
    table.flags.writeable = False
    return table


def _sigmoid(z):
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) elsewhere, so each branch
    # sees the same IEEE operations as a masked evaluation, and never overflows
    ez = np.exp(-np.abs(z))
    den = 1.0 + ez
    return np.where(z >= 0, 1.0 / den, ez / den)


def _loss_weights(margin, targets, loss):
    """Per-record derivative of the data loss with respect to the margin."""
    if loss == "quadratic":
        return margin - targets
    return -targets * (1.0 - _sigmoid(targets * margin))


def stacked_minibatch_gradient(features, targets, thetas, loss, l2_weight):
    """Average per-record gradient for a stack of (client, batch) slices.

    features: (N, m, d), targets: (N, m), thetas: (..., N, d); returns
    (..., N, d).  Leading axes of `thetas` are chains that share the
    gathered stack; each of their rows equals the one-chain result bit for
    bit.  The two contractions run as one 2-D einsum per chain, which sums
    each entry as the one-chain call does and skips numpy's slow broadcast
    over a leading axis; the loss weights and the tail are one pass over
    the whole stack.  A 2-D `thetas` (the estimator's rounds) is one call
    each without the loop: folded into it, the `speedup` task's narrow
    rounds measured slower in every pair.  The round simulator and the
    exact client gradients share this kernel; `stochastic_gradient` in
    tests/reference.py is its one-client minibatch case, which a
    one-client simulation reproduces bit for bit.
    """
    if thetas.ndim == 2:
        margin = np.einsum("nmd,nd->nm", features, thetas)
        grads = np.einsum("nm,nmd->nd", _loss_weights(margin, targets, loss), features)
    else:
        chains = thetas.reshape(-1, *thetas.shape[-2:])
        margin = np.empty(chains.shape[:-1] + targets.shape[-1:])
        for theta, out in zip(chains, margin):
            np.einsum("nmd,nd->nm", features, theta, out=out)
        weights = _loss_weights(margin, targets, loss)
        grads = np.empty(chains.shape)
        for w, out in zip(weights, grads):
            np.einsum("nm,nmd->nd", w, features, out=out)
        grads = grads.reshape(thetas.shape)
    return grads / features.shape[1] + l2_weight * thetas


def record_groups(features, targets, first_rows, record_counts):
    """Clients grouped by record count, as stacks of their records.

    Client c owns the rows `first_rows[c]` to `first_rows[c] +
    record_counts[c]` of the (rows, d) `features` and (rows,) `targets`.
    Returns one (clients, features (G, n, d), targets (G, n)) per distinct
    record count n, in increasing n, where `clients` is the index array of
    the group's G clients.  Clients of equal size that own every row in
    order are one group of reshape views of the table; otherwise each group
    gathers its clients' records.
    """
    n, n_clients = int(record_counts[0]), len(record_counts)
    if (n_clients * n == len(targets) and (record_counts == n).all()
            and np.array_equal(first_rows, n * np.arange(n_clients))):
        return [(np.arange(n_clients), features.reshape(n_clients, n, -1),
                 targets.reshape(n_clients, n))]
    groups = []
    for n in np.unique(record_counts).tolist():
        clients = np.flatnonzero(record_counts == n)
        idx = first_rows[clients, None] + np.arange(n)
        groups.append((clients, features[idx], targets[idx]))
    return groups


def per_client(problem, kernel, *args):
    """`kernel(features, targets, *args)` on every client, as one (N, ...) stack.

    The kernel maps stacks of equal-size clients, features (G, n, d) and
    targets (G, n), to a (G, ...) result.  It runs on each record-count
    group of `record_groups` in chunks of whole clients of at most
    `_CHUNK_RECORDS` records, which caps the kernel's record-sized
    temporaries, and each chunk's result is written to its clients' rows;
    each client's result does not depend on the chunking.
    """
    out = None
    for clients, x, y in record_groups(problem.features, problem.targets,
                                       problem.first_rows, problem.record_counts):
        step = max(1, _CHUNK_RECORDS // x.shape[1])
        for i in range(0, len(x), step):
            part = kernel(x[i:i + step], y[i:i + step], *args)
            if out is None:
                out = np.empty((problem.n_clients,) + part.shape[1:])
            out[clients[i:i + step]] = part
    return out


def _margins(features, theta):
    """features @ theta for a (G, n, d) stack, one product per client.

    One product over all G * n rows rounds some rows differently from the
    client's own product (BLAS blocks the rows), so a client's margins
    would depend on which clients share its stack.
    """
    return np.matmul(features, theta)


def _gradient_stack(features, targets, theta, loss, l2_weight):
    thetas = np.repeat(theta[None], len(features), axis=0)
    return stacked_minibatch_gradient(features, targets, thetas, loss, l2_weight)


def _hessian_stack(features, targets, theta, loss, l2_weight):
    n, d = features.shape[1:]
    if loss == "quadratic":
        weighted = features
    else:
        s = _sigmoid(targets * _margins(features, theta))
        weighted = features * (s * (1.0 - s))[..., None]
    h = np.matmul(weighted.transpose(0, 2, 1), features)
    h /= n
    h += l2_weight * np.eye(d)
    return h


def _third_stack(features, targets, theta, matrix, loss):
    n, d = features.shape[1:]
    if loss == "quadratic":
        return np.zeros((len(features), d))
    s = _sigmoid(targets * _margins(features, theta))
    # one contraction per client: at d = 2 a row's value depends on the
    # rows that share the call
    quad = np.stack([np.einsum("mi,ij,mj->m", x, matrix, x) for x in features])
    weights = s * (1.0 - s) * (1.0 - 2.0 * s) * targets * quad
    return np.matmul(features.transpose(0, 2, 1), weights[..., None])[..., 0] / n


def _record_gradient_stack(features, targets, theta, loss, l2_weight):
    grads = features * _loss_weights(_margins(features, theta), targets, loss)[..., None]
    grads += l2_weight * theta
    return grads


def _noise_stack(features, targets, theta, loss, l2_weight, batch_size):
    grads = _record_gradient_stack(features, targets, theta, loss, l2_weight)
    mean = grads.mean(axis=1)
    second = np.matmul(grads.transpose(0, 2, 1), grads)
    second /= grads.shape[1]
    cov = (second - mean[:, :, None] * mean[:, None, :]) / batch_size
    return 0.5 * (cov + cov.transpose(0, 2, 1))


def _check_symmetric(matrix):
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"M must be square, got shape {matrix.shape}")
    if not np.allclose(matrix, matrix.T, rtol=1e-10, atol=1e-12 * (1 + np.abs(matrix).max())):
        raise ValueError("M must be symmetric")
    return matrix


def client_gradients(problem, theta):
    """Exact gradient of every client loss, including the l2 term; (N, d)."""
    theta = np.asarray(theta, dtype=np.float64)
    return per_client(problem, _gradient_stack, theta, problem.loss, problem.l2_weight)


def client_hessians(problem, theta):
    """Exact Hessian of every client loss; (N, d, d)."""
    theta = np.asarray(theta, dtype=np.float64)
    return per_client(problem, _hessian_stack, theta, problem.loss, problem.l2_weight)


def client_third_derivatives(problem, theta, matrix):
    """Third derivative of every client loss contracted with M; (N, d).

    Row c has entries sum_{j,k} d^3 f_c / dtheta_i dtheta_j dtheta_k *
    M_{jk}; zero for the quadratic loss.  M must be symmetric.
    """
    matrix = _check_symmetric(matrix)
    theta = np.asarray(theta, dtype=np.float64)
    return per_client(problem, _third_stack, theta, matrix, problem.loss)


def client_noise_covariances(problem, theta):
    """Exact minibatch gradient-noise covariance of every client; (N, d, d).

    With-replacement sampling gives (1/b) [ (1/n) sum_i g_i g_i' - g g' ],
    where g_i are per-record gradients and g their mean.
    """
    theta = np.asarray(theta, dtype=np.float64)
    return per_client(problem, _noise_stack, theta, problem.loss,
                      problem.l2_weight, problem.batch_size)


def full_gradient(problem, client, theta):
    """Exact gradient of one client loss: its row of `client_gradients`."""
    return client_gradients(problem, theta)[client]


def hessian(problem, client, theta):
    """Exact Hessian of one client loss: its row of `client_hessians`."""
    return client_hessians(problem, theta)[client]


def third_derivative_apply(problem, client, theta, matrix):
    """One client's row of `client_third_derivatives`."""
    return client_third_derivatives(problem, theta, matrix)[client]


def noise_covariance_at(problem, client, theta):
    """One client's row of `client_noise_covariances`."""
    return client_noise_covariances(problem, theta)[client]
