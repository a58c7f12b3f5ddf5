"""Chain state, the weighted state-space norm, and counter-based randomness.

The joint state of one simulated run is the global parameter together with
one control variate per client.  The control variates always sum to zero;
every round re-centers them to kill floating-point drift.

Randomness is derived from a (root_seed, round, client, step) counter so that
two runs with the same seed produce identical draws regardless of how the
per-client work is scheduled.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ChainState",
    "RunConfig",
    "RngStream",
    "derive_stream",
    "batch_uniform_indices",
    "lambda_norm_sq",
]

SUM_ZERO_TOL = 1e-8

_U64 = np.uint64
_GAMMA64 = _U64(0x9E3779B97F4A7C15)
# distinct position salts so (round, client, step) enter the mix asymmetrically
_SALT_ROUND = _U64(0xD1B54A32D192ED03)
_SALT_CLIENT = _U64(0xAEF17502108EF2D9)
_SALT_STEP = _U64(0x94D049BB133111EB)


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


def _raw_words(key, count, offset=0):
    """Draws `count` uint64 words from the stream with the given key."""
    key = np.asarray(key, dtype=_U64)
    ctr = np.arange(offset + 1, offset + count + 1, dtype=_U64)
    with np.errstate(over="ignore"):
        ctr *= _GAMMA64
        return _finalize(key[..., None] + ctr)


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
        return _raw_words(self._key, count, offset)

    def uniform_indices(self, n, count):
        """`count` i.i.d. uniform draws from {0, ..., n-1}."""
        if n <= 0:
            raise ValueError(f"need n >= 1, got {n}")
        words = _raw_words(self._key, count)
        # modulo map; bias is ~n/2^64, negligible for in-memory datasets
        words %= _U64(n)
        return words.view(np.int64)

    def uniforms(self, count):
        """`count` i.i.d. uniform draws from [0, 1)."""
        words = _raw_words(self._key, count)
        return (words >> _U64(11)).astype(np.float64) * (2.0 ** -53)


def derive_stream(root_seed, round_idx, client, step):
    """Stream for one (seed, round, client, step) tuple; a pure function."""
    return RngStream(root_seed, round_idx, client, step)


def batch_uniform_indices(root_seed, round_idx, client_ids, n_steps, n_records, batch):
    """Minibatch indices for a whole round, shape (n_steps, n_clients, batch).

    Entry [h, i, :] equals derive_stream(root_seed, round_idx,
    client_ids[i], h).uniform_indices(n_records, batch), computed in one
    vectorized pass.  `root_seed`, `round_idx` and `n_records` are each a
    scalar or, like `client_ids`, one value per column, so clients of
    several chains (seeds, rounds, data sizes) are drawn in one call.  A
    `round_idx` of shape (B, 1, 1) or (B, 1, n_clients) draws B rounds at
    once, shape (B, n_steps, n_clients, batch), each equal to its own call.
    """
    client_ids = np.asarray(client_ids, dtype=_U64)
    steps = np.arange(n_steps, dtype=_U64)
    keys = _mix_key(root_seed, round_idx, client_ids[None, :], steps[:, None])
    words = _raw_words(keys, batch)
    # every value ends below n_records, so the int64 view is exact
    words %= np.asarray(n_records, dtype=_U64)[..., None]
    return words.view(np.int64)


@dataclass
class ChainState:
    """State of the coupled chain: global parameter plus N control variates.

    The control variates live on the sum-zero subspace; `recenter` projects
    back onto it (the projection is analytically a no-op).
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

    def sum_zero_violation(self):
        """Max-abs entry of sum_c xi_c, the distance from the state space."""
        return float(np.max(np.abs(self.xis.sum(axis=0))))

    def on_state_space(self, tol=SUM_ZERO_TOL):
        scale = 1.0 + float(np.max(np.abs(self.xis))) if self.xis.size else 1.0
        return self.sum_zero_violation() <= tol * scale

    def recenter(self):
        """Project the control variates back onto the sum-zero subspace."""
        self.xis -= self.xis.mean(axis=0, keepdims=True)

    def copy(self):
        return ChainState(self.theta.copy(), self.xis.copy())

    @classmethod
    def unchecked(cls, theta, xis):
        """Wrap float64 arrays of shapes (d,) and (N, d) without validation.

        For the round operator, which builds states from arrays of known
        shape and checks their finiteness itself once per round.
        """
        state = object.__new__(cls)
        state.theta = theta
        state.xis = xis
        return state

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


_ALGORITHMS = ("scaffold", "fedavg")


@dataclass
class RunConfig:
    """Hyper-parameters of one simulated run."""

    gamma: float
    local_steps: int
    rounds: int
    deterministic: bool = False  # exact gradients instead of the problem's minibatches
    seed: int = 0
    algorithm: str = "scaffold"

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError(f"gamma must be positive, got {self.gamma}")
        if self.local_steps < 1:
            raise ValueError(f"local_steps must be >= 1, got {self.local_steps}")
        if self.rounds < 0:
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ValueError("seed must fit in 64 unsigned bits")
        if self.algorithm not in _ALGORITHMS:
            raise ValueError(
                f"algorithm must be one of {_ALGORITHMS}, got {self.algorithm!r}"
            )

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
