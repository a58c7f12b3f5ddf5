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

from dataclasses import dataclass

import numpy as np

from .core import RngStream
from .datagen import ClientDataset

__all__ = [
    "Problem",
    "loss_value",
    "full_gradient",
    "stochastic_gradient",
    "stacked_minibatch_gradient",
    "hessian",
    "third_derivative_apply",
    "noise_covariance_at",
]

_LOSSES = ("quadratic", "logistic")


@dataclass
class Problem:
    """A federated problem: per-client datasets, loss family, l2 weight."""

    clients: list[ClientDataset]
    loss: str = "quadratic"
    l2_weight: float = 0.1
    batch_size: int = 1

    def __post_init__(self):
        if self.loss not in _LOSSES:
            raise ValueError(f"loss must be one of {_LOSSES}, got {self.loss!r}")
        if self.l2_weight < 0:
            raise ValueError(f"l2_weight must be >= 0, got {self.l2_weight}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.clients:
            raise ValueError("need at least one client")
        d = self.clients[0].d
        if any(c.d != d for c in self.clients):
            raise ValueError("all clients must share the feature dimension d")
        if self.loss == "logistic":
            for c in self.clients:
                if not np.all(np.isin(c.targets, (-1.0, 1.0))):
                    raise ValueError(
                        f"client {c.client_id}: logistic targets must be in {{-1, +1}}"
                    )

    @property
    def d(self):
        return self.clients[0].d

    @property
    def n_clients(self):
        return len(self.clients)


def _sigmoid(z):
    # exp(-|z|) is exp(-z) where z >= 0 and exp(z) elsewhere, so each branch
    # sees the same IEEE operations as a masked evaluation, and never overflows
    ez = np.exp(-np.abs(z))
    den = 1.0 + ez
    return np.where(z >= 0, 1.0 / den, ez / den)


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


def stacked_minibatch_gradient(features, targets, thetas, loss, l2_weight):
    """Average per-record gradient for a stack of (client, batch) slices.

    features: (N, m, d), targets: (N, m), thetas: (..., N, d); returns
    (..., N, d).  Leading axes of `thetas` are chains that share the
    gathered stack; each of their rows equals the one-chain result bit for
    bit.  This kernel is the single arithmetic path used by both the
    per-client `stochastic_gradient` and the round simulator, so that a
    one-client simulation reproduces plain SGD bit for bit.
    """
    margin = np.einsum("nmd,...nd->...nm", features, thetas)
    if loss == "quadratic":
        weights = margin - targets
    else:
        weights = -targets * (1.0 - _sigmoid(targets * margin))
    grads = np.einsum("...nm,nmd->...nd", weights, features) / features.shape[1]
    return grads + l2_weight * thetas


def full_gradient(problem, client, theta):
    """Exact gradient of the client loss, including the l2 term."""
    ds = problem.clients[client]
    theta = np.asarray(theta, dtype=np.float64)
    return stacked_minibatch_gradient(
        ds.features[None], ds.targets[None], theta[None],
        problem.loss, problem.l2_weight,
    )[0]


def stochastic_gradient(problem, client, theta, stream: RngStream):
    """Minibatch gradient: b records drawn i.i.d. uniformly with replacement.

    Unbiased for `full_gradient`; identical streams give identical output.
    """
    ds = problem.clients[client]
    theta = np.asarray(theta, dtype=np.float64)
    idx = stream.uniform_indices(ds.n_records, problem.batch_size)
    return stacked_minibatch_gradient(
        ds.features[idx][None], ds.targets[idx][None], theta[None],
        problem.loss, problem.l2_weight,
    )[0]


def hessian(problem, client, theta):
    """Exact Hessian of the client loss."""
    ds = problem.clients[client]
    theta = np.asarray(theta, dtype=np.float64)
    n, d = ds.features.shape
    if problem.loss == "quadratic":
        h = ds.features.T @ ds.features / n
    else:
        s = _sigmoid(ds.targets * (ds.features @ theta))
        h = (ds.features * (s * (1.0 - s))[:, None]).T @ ds.features / n
    return h + problem.l2_weight * np.eye(d)


def third_derivative_apply(problem, client, theta, matrix):
    """Contraction of the third derivative with a symmetric matrix M.

    Returns the vector with entries sum_{j,k} d^3 f / dtheta_i dtheta_j
    dtheta_k * M_{jk}.  Zero for the quadratic loss.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"M must be square, got shape {matrix.shape}")
    if not np.allclose(matrix, matrix.T, rtol=1e-10, atol=1e-12 * (1 + np.abs(matrix).max())):
        raise ValueError("M must be symmetric")
    ds = problem.clients[client]
    theta = np.asarray(theta, dtype=np.float64)
    if problem.loss == "quadratic":
        return np.zeros(ds.d)
    s = _sigmoid(ds.targets * (ds.features @ theta))
    quad = np.einsum("mi,ij,mj->m", ds.features, matrix, ds.features)
    weights = s * (1.0 - s) * (1.0 - 2.0 * s) * ds.targets * quad
    return ds.features.T @ weights / ds.n_records


def per_record_gradients(problem, client, theta):
    """All per-record gradients at theta, shape (n, d), including l2."""
    ds = problem.clients[client]
    theta = np.asarray(theta, dtype=np.float64)
    margin = ds.features @ theta
    if problem.loss == "quadratic":
        weights = margin - ds.targets
    else:
        weights = -ds.targets * (1.0 - _sigmoid(ds.targets * margin))
    return ds.features * weights[:, None] + problem.l2_weight * theta


def noise_covariance_at(problem, client, theta):
    """Exact covariance of the minibatch gradient noise at theta.

    With-replacement sampling gives (1/b) [ (1/n) sum_i g_i g_i' - g g' ],
    where g_i are per-record gradients and g their mean.
    """
    grads = per_record_gradients(problem, client, theta)
    n = grads.shape[0]
    mean = grads.mean(axis=0)
    second = grads.T @ grads / n
    cov = (second - np.outer(mean, mean)) / problem.batch_size
    return 0.5 * (cov + cov.T)
