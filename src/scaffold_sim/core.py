"""Chain state, the weighted state-space norm, and counter-based randomness.

The joint state of one simulated run is the global parameter together with
one control variate per client.  The control variates always sum to zero;
every round re-centers them to kill floating-point drift.

Randomness is derived from a (root_seed, round, client, step) counter so that
two runs with the same seed produce identical draws regardless of how the
per-client work is scheduled.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChainState",
    "RunConfig",
    "batch_uniform_indices",
    "check_int",
    "check_real",
    "lambda_norm_sq",
]

SUM_ZERO_TOL = 1e-8

_U64 = np.uint64
_GAMMA64 = _U64(0x9E3779B97F4A7C15)
# distinct position salts so (round, client, step) enter the mix asymmetrically
_SALT_ROUND = _U64(0xD1B54A32D192ED03)
_SALT_CLIENT = _U64(0xAEF17502108EF2D9)
_SALT_STEP = _U64(0x94D049BB133111EB)

# Words per in-place pass of `batch_uniform_indices`: a 256 KB block and the
# finalizer's temporaries stay in cache.
_BLOCK_WORDS = 2 ** 15


def _finalize(z):
    """splitmix64 finalizer, vectorized over uint64 arrays.

    Updates `z` in place and returns it, so callers pass only arrays they
    made for this call, never one of their inputs.  A numpy scalar is
    immutable and simply rebinds.
    """
    z ^= z >> _U64(30)
    z *= _U64(0xBF58476D1CE4E5B9)
    z ^= z >> _U64(27)
    z *= _U64(0x94D049BB133111EB)
    z ^= z >> _U64(31)
    return z


def _mix_key(root_seed, round_idx, client, step):
    """Collision-resistant 64-bit key for one (seed, round, client, step) tuple.

    Accepts scalars or broadcastable uint64 arrays.
    """
    with np.errstate(over="ignore"):
        k = _finalize(_U64(root_seed) + _GAMMA64)
        k = _finalize(k ^ (np.asarray(round_idx, dtype=_U64) + _SALT_ROUND))
        k = _finalize(k ^ (np.asarray(client, dtype=_U64) + _SALT_CLIENT))
        k = _finalize(k ^ (np.asarray(step, dtype=_U64) + _SALT_STEP))
    return k


def batch_uniform_indices(root_seed, round_idx, client_ids, n_steps, n_records, batch):
    """Minibatch indices for a whole round, shape (n_steps, n_clients, batch).

    Entry [h, i, :] is the first `batch` words of the (root_seed,
    round_idx, client_ids[i], h) stream modulo n_records; `derive_stream`
    in tests/reference.py draws one such entry.  `root_seed`, `round_idx`
    and `n_records` are each a scalar or, like `client_ids`, one value per
    column, so clients of several chains (seeds, rounds, data sizes) are
    drawn in one call.  A `round_idx` of shape (B, 1, 1) or (B, 1,
    n_clients) draws B rounds at once, shape (B, n_steps, n_clients,
    batch), each equal to its own call.  The keys are mixed in one pass;
    the words are generated and reduced in place, in blocks of whole steps
    of about _BLOCK_WORDS words, so each pass stays in cache.  A record
    count that every column shares, as a scalar or an array, reduces the
    words as one scalar divisor; mixed counts take the per-column
    remainder; both give the same words.  `raw_words` in
    tests/reference.py generates one key's words in one piece.
    """
    client_ids = np.asarray(client_ids, dtype=_U64)
    steps = np.arange(n_steps, dtype=_U64)
    keys = _mix_key(root_seed, round_idx, client_ids[None, :], steps[:, None])
    words = np.empty(keys.shape + (batch,), dtype=_U64)
    n_cols = keys.shape[-1]
    keys, blocks = keys.reshape(-1, n_cols, 1), words.reshape(-1, n_cols, batch)
    divisor = np.asarray(n_records, dtype=_U64)
    shared = divisor.size and (divisor == divisor.flat[0]).all()
    divisor = divisor.flat[0] if shared else divisor[..., None]
    step = max(1, _BLOCK_WORDS // (n_cols * batch))
    quotient = np.empty_like(blocks[:step]) if shared else None
    # word j of a stream is finalize(key + (j + 1) * gamma)
    ctr = np.arange(1, batch + 1, dtype=_U64)
    with np.errstate(over="ignore"):
        ctr *= _GAMMA64
        for lo in range(0, len(keys), step):
            block = _finalize(np.add(keys[lo:lo + step], ctr, out=blocks[lo:lo + step]))
            # every value ends below n_records, so the int64 view is exact
            if shared:
                # word - (word // n) * n: numpy's floor_divide by one scalar
                # n multiplies (libdivide), where `%` divides every word
                q = np.floor_divide(block, divisor, out=quotient[:len(block)])
                q *= divisor
                block -= q
            else:
                block %= divisor
    return words.view(np.int64)


def check_int(name, value, low):
    """Raise a ValueError naming `name` unless `value` is an integer >= low.

    Python and numpy integers pass; a bool or a float fails, even a whole one.
    """
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")


def check_real(name, value, positive=False):
    """Raise a ValueError naming `name` unless `value` is a finite real number.

    Python and numpy integers and floats pass; a bool, NaN or an infinity
    fails, and with `positive` so does a number <= 0.
    """
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if positive and value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")


@dataclass
class ChainState:
    """State of the coupled chain: global parameter plus N control variates.

    The control variates live on the sum-zero subspace; the round operator
    re-centers them onto it (analytically a no-op).
    """

    theta: np.ndarray
    xis: np.ndarray  # shape (N, d)

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=np.float64)
        self.xis = np.asarray(self.xis, dtype=np.float64)
        if self.theta.ndim != 1 or self.theta.size < 1:
            raise ValueError("theta must be a vector with d >= 1")
        if self.xis.ndim != 2 or self.xis.shape[0] < 1:
            raise ValueError("xis must have shape (N, d) with N >= 1")
        if self.xis.shape[1] != self.theta.shape[0]:
            raise ValueError(
                f"dimension mismatch: theta has d={self.theta.shape[0]}, "
                f"xis have d={self.xis.shape[1]}"
            )
        if not (np.all(np.isfinite(self.theta)) and np.all(np.isfinite(self.xis))):
            raise ValueError("state entries must be finite")

    @property
    def d(self):
        return self.theta.shape[0]

    @property
    def n_clients(self):
        return self.xis.shape[0]

    @classmethod
    def zeros(cls, d, n_clients):
        return cls(np.zeros(d), np.zeros((n_clients, d)))


def lambda_norm_sq(a: ChainState, b: ChainState, gamma: float, local_steps: int) -> float:
    """Squared distance in the weighted chain norm.

    ||theta_a - theta_b||^2 + (gamma^2 H^2 / N) * sum_c ||xi_a,c - xi_b,c||^2.
    This is the metric in which one round of the algorithm contracts.
    """
    if a.theta.shape != b.theta.shape or a.xis.shape != b.xis.shape:
        raise ValueError(
            f"shape mismatch: {a.theta.shape}/{a.xis.shape} vs "
            f"{b.theta.shape}/{b.xis.shape}"
        )
    n = a.n_clients
    dtheta = a.theta - b.theta
    dxi = a.xis - b.xis
    weight = (gamma * local_steps) ** 2 / n
    with np.errstate(over="ignore"):
        return float(dtheta @ dtheta + weight * np.sum(dxi * dxi))


@dataclass
class RunConfig:
    """Hyper-parameters of one simulated chain; the caller picks the algorithm."""

    gamma: float
    local_steps: int
    rounds: int
    deterministic: bool = False  # exact gradients instead of the problem's minibatches
    seed: int = 0

    def __post_init__(self):
        check_real("gamma", self.gamma, positive=True)
        check_int("local_steps", self.local_steps, 1)
        check_int("rounds", self.rounds, 0)
        check_int("seed", self.seed, 0)
        if self.seed >= 2 ** 64:
            raise ValueError("seed must fit in 64 unsigned bits")

    def stepsize_diagnostics(self, mu, big_l):
        """Check the contraction-regime conditions against (mu, L).

        Returns a dict with the two flags; a violation is reported as a
        warning, never an error.
        """
        cond_gamma = self.gamma <= 1.0 / (2.0 * big_l)
        cond_horizon = self.gamma * self.local_steps * (big_l + mu) <= 1.0
        if not (cond_gamma and cond_horizon):
            warnings.warn(
                "step-size conditions violated: "
                f"gamma <= 1/(2L) is {cond_gamma}, "
                f"gamma*H*(L+mu) <= 1 is {cond_horizon}; "
                "contraction guarantees do not apply",
                RuntimeWarning,
                stacklevel=2,
            )
        return {"gamma_le_inv_2L": cond_gamma, "gammaH_le_inv_Lmu": cond_horizon}
