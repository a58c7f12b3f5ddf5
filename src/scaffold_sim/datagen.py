"""Synthetic heterogeneous federated datasets.

Two generator calls with different seeds and informative-feature counts
produce two data sources; each source is split evenly over half of the
clients.  This is the standard way to induce controlled heterogeneity in
desk-scale federated experiments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ClientDataset",
    "make_regression",
    "make_classification",
    "split_two_blocks",
]


@dataclass
class ClientDataset:
    """One client's records: features (n, d) and targets (n,)."""

    features: np.ndarray
    targets: np.ndarray
    client_id: int = 0

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.targets = np.asarray(self.targets, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must have shape (n, d) with n >= 1")
        if self.targets.shape != (self.features.shape[0],):
            raise ValueError("targets must have shape (n,)")
        if not (np.all(np.isfinite(self.features)) and np.all(np.isfinite(self.targets))):
            raise ValueError("dataset entries must be finite")

    @property
    def n_records(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]


def _check_counts(n_samples, n_features, n_informative):
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")
    if not (1 <= n_informative <= n_features):
        raise ValueError(
            f"need 1 <= n_informative <= n_features, got "
            f"n_informative={n_informative}, n_features={n_features}"
        )


def make_regression(n_samples, n_features, n_informative, noise_std=10.0, seed=0):
    """Linear-model data with a sparse coefficient vector.

    Features are i.i.d. standard normal; the true coefficient has exactly
    `n_informative` nonzero entries drawn uniformly on [0, 100] at uniformly
    chosen coordinates; targets are the linear response plus Gaussian noise.

    Returns (features, targets, true_coef).
    """
    _check_counts(n_samples, n_features, n_informative)
    if noise_std < 0:
        raise ValueError(f"noise_std must be >= 0, got {noise_std}")
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n_samples, n_features))
    support = rng.choice(n_features, size=n_informative, replace=False)
    coef = np.zeros(n_features)
    coef[support] = rng.uniform(0.0, 100.0, size=n_informative)
    targets = features @ coef + noise_std * rng.standard_normal(n_samples)
    return features, targets, coef


def make_classification(n_samples, n_features, n_informative, class_sep=1.0, seed=0):
    """Two balanced Gaussian blobs with labels in {-1, +1}.

    Class centers sit at +/- class_sep on `n_informative` uniformly chosen
    coordinates and at zero elsewhere; features are center plus standard
    normal noise.

    Returns (features, targets).
    """
    _check_counts(n_samples, n_features, n_informative)
    if class_sep < 0:
        raise ValueError(f"class_sep must be >= 0, got {class_sep}")
    rng = np.random.default_rng(seed)
    support = rng.choice(n_features, size=n_informative, replace=False)
    n_pos = n_samples // 2 + n_samples % 2
    labels = np.concatenate([np.ones(n_pos), -np.ones(n_samples - n_pos)])
    labels = labels[rng.permutation(n_samples)]
    centers = np.zeros((n_samples, n_features))
    centers[:, support] = class_sep * labels[:, None]
    features = centers + rng.standard_normal((n_samples, n_features))
    return features, labels


def split_two_blocks(dataset_a, dataset_b, n_clients):
    """Split two (features, targets) sources over the two halves of clients.

    The first N/2 clients receive contiguous equal shards of source a, the
    remaining N/2 receive shards of source b.  Client ids are 0..N-1.
    """
    if n_clients < 2 or n_clients % 2 != 0:
        raise ValueError(f"n_clients must be even and >= 2, got {n_clients}")
    half = n_clients // 2
    clients = []
    for block, (features, targets) in enumerate([dataset_a, dataset_b]):
        features = np.asarray(features, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        n = features.shape[0]
        if n % half != 0:
            raise ValueError(
                f"source {block} has {n} records, not divisible by "
                f"n_clients/2 = {half}"
            )
        shard = n // half
        for i in range(half):
            sl = slice(i * shard, (i + 1) * shard)
            clients.append(
                ClientDataset(features[sl], targets[sl], client_id=block * half + i)
            )
    return clients

