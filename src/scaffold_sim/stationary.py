"""Stationary-distribution estimators and first-order theory predictors.

The empirical side runs the chain past burn-in and accumulates moments of
(theta - theta_star) and (xi_c - xi_star_c).  The theory side evaluates the
leading-order covariance and bias formulas, which hinge on the resolvent
A : M -> X solving  Hf X + X Hf = M  at the optimum's average Hessian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import objectives
# `scaffold_round` stays importable here: perfbench/spans.py wraps it
from .algorithms import ChainBlock, DivergenceError, block_rounds, scaffold_round  # noqa: F401
from .core import RunConfig, check_int, check_real
from .optimum import OptimumCertificate

__all__ = [
    "StationaryEstimate",
    "FirstOrderPrediction",
    "ComplexityRecipe",
    "default_burn_in",
    "estimate_stationary",
    "estimate_stationary_sweep",
    "sylvester_solve",
    "predict_first_order",
    "complexity_recipe",
    "estimate_report",
    "prediction_report",
]

N_SE_BATCHES = 20
MAX_XI_PAIRS = 64


def sylvester_solve(hessian_star, rhs):
    """Solve H X + X H = rhs for symmetric positive definite H.

    Computed in the eigenbasis of H: X_ij = R_ij / (l_i + l_j).  The
    residual is checked to 1e-10 relative in Frobenius norm.
    """
    hessian_star = np.asarray(hessian_star, dtype=np.float64)
    rhs = np.asarray(rhs, dtype=np.float64)
    eigvals, eigvecs = np.linalg.eigh(0.5 * (hessian_star + hessian_star.T))
    if eigvals[0] <= 0:
        raise ValueError(
            f"hessian_star must be positive definite (min eigenvalue {eigvals[0]:g})"
        )
    rhs_tilde = eigvecs.T @ rhs @ eigvecs
    x_tilde = rhs_tilde / (eigvals[:, None] + eigvals[None, :])
    x = eigvecs @ x_tilde @ eigvecs.T
    x = 0.5 * (x + x.T)
    residual = np.linalg.norm(hessian_star @ x + x @ hessian_star - rhs)
    rhs_norm = np.linalg.norm(rhs)
    if rhs_norm > 0 and residual > 1e-10 * rhs_norm:
        raise ValueError(
            f"resolvent residual {residual:g} exceeds 1e-10 * ||rhs|| = {1e-10 * rhs_norm:g}"
        )
    return x


def _check_mu(mu, remedy):
    # mu = 0 when a client Hessian is singular and there is no l2 weight
    if not mu > 0:
        raise ValueError(f"mu must be positive, got {mu}: a client loss is not strongly "
                         f"convex at theta_star; {remedy}")


def default_burn_in(gamma, mu, local_steps):
    """Four 1/e-times of the geometric rate (1 - gamma*mu/4)^H, in rounds.

    A step size that is not a positive finite number, or a local step count
    that is not an integer >= 1, raises a ValueError naming it.
    """
    check_real("gamma", gamma, positive=True)
    check_int("local_steps", local_steps, 1)
    _check_mu(mu, "set l2_weight > 0, or give burn_in to the estimator")
    return math.ceil(16.0 / (gamma * mu * local_steps))


@dataclass
class StationaryEstimate:
    """Empirical stationary moments with batch-means standard errors.

    All second moments are taken about the optimum (theta_star, xi_star),
    matching the stationary covariance definitions, not about the sample
    mean.  The xi fields are None on a theta-only estimate
    (`estimate_stationary_sweep(..., xi_moments=False)`).
    """

    burn_in_rounds: int
    n_samples: int
    thinning: int
    bias_theta: np.ndarray
    cov_theta: np.ndarray
    cov_theta_xi: np.ndarray | None  # (N, d, d)
    cov_xi: dict | None  # (c, c') -> (d, d)
    se_bias: np.ndarray


def _xi_pair_subset(n_clients):
    """All diagonal pairs plus a fixed shuffle of off-diagonal pairs."""
    pairs = [(c, c) for c in range(n_clients)]
    off = [(c, cp) for c in range(n_clients) for cp in range(c + 1, n_clients)]
    rng = np.random.default_rng(0)
    rng.shuffle(off)
    return pairs + off[:MAX_XI_PAIRS]


def estimate_stationary(problem, certificate: OptimumCertificate, config: RunConfig,
                        burn_in=None, n_samples=1000, thinning=1) -> StationaryEstimate:
    """Time-average moments of the chain after burn-in.

    Collects `n_samples` states spaced by `thinning` rounds.  Standard
    errors of the bias come from batch means over 20 batches, which absorb
    the chain's autocorrelation.  This is the one-chain case of
    `estimate_stationary_sweep`.
    """
    return estimate_stationary_sweep([(problem, certificate, config)], burn_in,
                                     n_samples, thinning)[0]


def estimate_stationary_sweep(chains, burn_in=None, n_samples=1000, thinning=1, *,
                              xi_moments=True):
    """`estimate_stationary` for every (problem, certificate, config) chain.

    The chains advance in lockstep as one block through one round kernel:
    each local step makes one gather for all of them, and one draw covers
    the minibatches of many rounds.  Chain g (burn-in b_g, default from its
    own step size and certificate) runs its round 0 at iteration
    max(b) - b_g, and until then replays its round 0 from zero, so every
    chain samples at the same iterations, and each moment sum is one array
    for all chains.  Each estimate equals a separate `estimate_stationary`
    call bit for bit, and a DivergenceError carries the round index that
    the diverged chain's separate call reports.  Every chain runs
    Scaffold; the chains must share the loss, l2 weight, local steps and
    batch width, and read one record table (one problem, or re-splits of
    one pool, as `ChainBlock`).  Returns one StationaryEstimate per chain,
    in order.  With `xi_moments=False` only the theta moments are
    accumulated: `cov_theta_xi` and `cov_xi` are None, every other field
    is unchanged, and only a non-finite theta sum raises DivergenceError.

    Unlike `predict_first_order`, each chain names its problem apart from
    its certificate: the chain runs on the problem, and its moments are
    taken about the certificate's optimum, which may belong to another
    problem of the same shape (the quadratic twin of a logistic chain runs
    with the logistic certificate).  A certificate whose (clients, d)
    differs from its problem's raises a ValueError naming the chain.
    `perfbench/spans.py` reads `estimate_stationary`'s arguments by
    position, so their order stays.
    """
    if not chains:
        raise ValueError("need at least one chain")
    check_int("n_samples", n_samples, 100)
    if burn_in is not None:
        check_int("burn_in", burn_in, 0)
    check_int("thinning", thinning, 1)
    burn_ins = []
    for g, (problem, certificate, config) in enumerate(chains):
        if certificate.xi_star.shape != (problem.n_clients, problem.d):
            raise ValueError(f"chain {g}: a certificate of shape (clients, d) = "
                             f"{certificate.xi_star.shape} does not fit its problem's "
                             f"{(problem.n_clients, problem.d)}")
        burn_ins.append(default_burn_in(config.gamma, certificate.mu, config.local_steps)
                        if burn_in is None else burn_in)
        config.stepsize_diagnostics(certificate.mu, certificate.big_l)

    sampling = max(burn_ins)
    starts = np.array([sampling - b for b in burn_ins])
    block = ChainBlock([(p, c) for p, _, c in chains])
    sizes = block.counts.tolist()
    row_starts = np.repeat(starts, sizes)  # iteration of each row's round 0
    d = block.d
    theta_star = np.stack([certificate.theta_star for _, certificate, _ in chains])
    xi_star = np.concatenate([certificate.xi_star for _, certificate, _ in chains])

    # one (P, d, d) accumulator over the pairs of all chains: chain g owns
    # the entries pair_rows[g], and its pair (c, c') is a pair of block rows;
    # without xi moments the xi accumulators are empty and pass the check below
    pairs = [_xi_pair_subset(n) if xi_moments else [] for n in sizes]
    pair_c, pair_cp, pair_rows = [], [], []
    for rows, chain_pairs in zip(block.slices, pairs):
        pair_rows.append(slice(len(pair_c), len(pair_c) + len(chain_pairs)))
        pair_c += [rows.start + c for c, _ in chain_pairs]
        pair_cp += [rows.start + cp for _, cp in chain_pairs]
    pair_c, pair_cp = np.array(pair_c), np.array(pair_cp)
    sum_dtheta = np.zeros((len(chains), d))
    sum_outer_theta = np.zeros((len(chains), d, d))
    sum_theta_xi = np.zeros((block.n_rows if xi_moments else 0, d, d))
    sum_xi = np.zeros((len(pair_c), d, d))
    batch_size = n_samples // N_SE_BATCHES
    batch_means = np.zeros((len(chains), N_SE_BATCHES, d))

    thetas = np.zeros((len(chains), d))
    xis = np.zeros((block.n_rows, d))
    rounds = (np.maximum(it - row_starts, 0) for it in range(sampling + n_samples * thinning))
    # a finite but huge state overflows the sums before the chain itself
    # diverges; that is reported once, below, not as numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for it, (thetas, xis) in enumerate(block_rounds(block, 1, thetas, xis, rounds)):
            if it < sampling:
                # a chain not started yet replays its round 0 from zero: the
                # kernel starts the next round from these arrays
                thetas[starts > it] = 0.0
                xis[row_starts > it] = 0.0
                continue
            if (it - sampling + 1) % thinning:
                continue
            k = (it - sampling) // thinning
            dtheta = thetas - theta_star
            sum_dtheta += dtheta
            sum_outer_theta += dtheta[:, :, None] * dtheta[:, None, :]
            if xi_moments:
                dxi = xis - xi_star
                sum_theta_xi += (np.repeat(dtheta, block.counts, axis=0)[:, :, None]
                                 * dxi[:, None, :])
                sum_xi += dxi[pair_c][:, :, None] * dxi[pair_cp][:, None, :]
            batch_means[:, min(k // batch_size, N_SE_BATCHES - 1)] += dtheta

    # trailing samples beyond 20*batch_size fold into the last batch
    counts = np.full(N_SE_BATCHES, batch_size, dtype=float)
    counts[-1] += n_samples - N_SE_BATCHES * batch_size
    estimates = []
    for g, rows in enumerate(block.slices):  # the first diverged chain raises
        sums = (sum_dtheta[g], sum_outer_theta[g], sum_theta_xi[rows], sum_xi[pair_rows[g]],
                batch_means[g])
        if not all(np.isfinite(x).all() for x in sums):
            raise DivergenceError(burn_ins[g] + n_samples * thinning - 1)
        means = batch_means[g] / counts[:, None]
        cov_theta = sum_outer_theta[g] / n_samples
        cov_theta = 0.5 * (cov_theta + cov_theta.T)
        estimates.append(StationaryEstimate(
            burn_in_rounds=burn_ins[g],
            n_samples=n_samples,
            thinning=thinning,
            bias_theta=sum_dtheta[g] / n_samples,
            cov_theta=cov_theta,
            cov_theta_xi=sum_theta_xi[rows] / n_samples if xi_moments else None,
            cov_xi=dict(zip(pairs[g], sum_xi[pair_rows[g]] / n_samples)) if xi_moments else None,
            se_bias=means.std(axis=0, ddof=1) / np.sqrt(N_SE_BATCHES),
        ))
    return estimates


@dataclass
class FirstOrderPrediction:
    """Leading-order stationary covariances and bias.

    The client count and the noise covariances that `cov_xi` reads come
    from `certificate`, the one the prediction was made from.
    """

    gamma: float
    local_steps: int
    cov_theta: np.ndarray
    cov_theta_xi: np.ndarray  # (N, d, d)
    bias_theta: np.ndarray
    certificate: OptimumCertificate = field(repr=False, compare=False)

    @property
    def n_clients(self):
        return self.certificate.n_clients

    def cov_xi(self, c, cp):
        """Leading-order control-variate covariance for the pair (c, c'), integers in [0, N)."""
        n, h, cert = self.n_clients, self.local_steps, self.certificate
        for name, index in (("c", c), ("cp", cp)):
            check_int(name, index, 0)
            if index >= n:
                raise ValueError(f"{name} must be < n_clients = {n}, got {index}")
        sigma_eps, sigma_avg = cert.sigma_eps_per_client, cert.sigma_eps_avg
        if c == cp:
            return (1.0 - 2.0 / n) / h * sigma_eps[c] + sigma_avg / (n * h)
        return (sigma_avg - sigma_eps[c] - sigma_eps[cp]) / (n * h)


def predict_first_order(certificate: OptimumCertificate, gamma,
                        local_steps) -> FirstOrderPrediction:
    """Evaluate the first-order stationary covariance and bias formulas.

    All O(.) remainders are dropped; predictions are leading terms in the
    step size only.  The bias reads the third derivatives of
    `certificate.problem`.  A step size that is not a positive finite
    number, or a local step count that is not an integer >= 1, raises a
    ValueError naming it.
    """
    check_real("gamma", gamma, positive=True)
    check_int("local_steps", local_steps, 1)
    n = certificate.n_clients
    hess_star = certificate.hessian_star
    sigma_eps = certificate.sigma_eps_per_client
    sigma_avg = certificate.sigma_eps_avg

    a_sigma = sylvester_solve(hess_star, sigma_avg)
    cov_theta = gamma / n * a_sigma

    cov_theta_xi = gamma / n * (
        a_sigma @ (certificate.hessians - hess_star) + (sigma_eps - sigma_avg)
    )

    third = objectives.client_third_derivatives(
        certificate.problem, certificate.theta_star, a_sigma).mean(axis=0)
    bias = -gamma / (2.0 * n) * np.linalg.solve(hess_star, third)

    return FirstOrderPrediction(
        gamma=gamma,
        local_steps=local_steps,
        cov_theta=cov_theta,
        cov_theta_xi=cov_theta_xi,
        bias_theta=bias,
        certificate=certificate,
    )


@dataclass
class ComplexityRecipe:
    """Parameter recipe for a target accuracy, with unit constants."""

    epsilon: float
    gamma: float
    local_steps: float
    rounds: float
    grads_per_client: float
    n_max: float
    n_clients_ok: bool


def complexity_recipe(certificate: OptimumCertificate, epsilon, n_clients) -> ComplexityRecipe:
    """Step size, horizon, and round count reaching mean squared error eps^2.

    Evaluates the speed-up recipe with unit proportionality constants:
    gamma ~ N mu eps^2 / sigma*^2, H ~ sigma*^2 min(1, mu/zeta2) /
    (N L mu eps^2) clamped to >= 1, T ~ (L/mu) max(1, zeta2/mu)
    max(0, log(psi0/eps^2)), and the client-count ceiling from the
    third-derivative bound (infinite for quadratic problems).  With
    eps^2 >= psi0 the bound holds at round 0, so T is 0.  An epsilon that
    is not a positive finite number, or a client count that is not an
    integer >= 1, raises a ValueError naming it.
    """
    check_real("epsilon", epsilon, positive=True)
    check_int("n_clients", n_clients, 1)
    mu, big_l = certificate.mu, certificate.big_l
    _check_mu(mu, "set l2_weight > 0")
    zeta1, zeta2 = certificate.zeta1, certificate.zeta2
    sigma_sq = certificate.sigma_star_sq
    q = certificate.third_deriv_bound

    init_sq = float(np.sum(certificate.theta_star ** 2))  # from theta0 = 0
    psi0 = init_sq + zeta1 ** 2 / big_l ** 2 + sigma_sq / (big_l * mu)

    gamma = n_clients * mu * epsilon ** 2 / sigma_sq
    heter_clamp = 1.0 if zeta2 == 0 else min(1.0, mu / zeta2)
    local_steps = max(
        1.0, sigma_sq * heter_clamp / (n_clients * big_l * mu * epsilon ** 2)
    )
    rounds = big_l / mu * max(1.0, zeta2 / mu) * max(0.0, math.log(psi0 / epsilon ** 2))

    if q == 0:
        n_max = math.inf
    else:
        n_max = min(
            mu ** (2.0 / 3.0) / (q ** (2.0 / 3.0) * epsilon ** (2.0 / 3.0)),
            math.sqrt(big_l * mu) / (q * epsilon),
        )

    return ComplexityRecipe(
        epsilon=epsilon,
        gamma=gamma,
        local_steps=local_steps,
        rounds=rounds,
        grads_per_client=local_steps * rounds,
        n_max=n_max,
        n_clients_ok=n_clients <= n_max,
    )


def _write_matrix_block(lines, name, matrix):
    lines.append(f"# {name}")
    matrix = np.atleast_2d(matrix)
    n = matrix.shape[1]
    # "%.17g" gives a float the same bytes as f"{np.float64:.17g}"; one
    # template per row replaces a format call per entry
    if matrix.shape[0] == n and matrix.tobytes() == matrix.T.tobytes():
        # bitwise symmetric (np.array_equal takes -0.0 for 0.0, which prints
        # differently): row i's tail from the diagonal is formatted once and
        # gives column i of the rows below
        tails = [(",".join(["%.17g"] * (n - i)) % tuple(row[i:])).split(",")
                 for i, row in enumerate(matrix.tolist())]
        lines.extend(",".join([tails[j][i - j] for j in range(i)] + tails[i])
                     for i in range(n))
        return
    row_format = ",".join(["%.17g"] * n)
    lines.extend(row_format % tuple(row) for row in matrix.tolist())


def estimate_report(est: StationaryEstimate) -> str:
    """Report: key-value scalars, then matrices in row-major CSV blocks."""
    if est.cov_theta_xi is None or est.cov_xi is None:
        raise ValueError("the report needs xi moments; this estimate was made "
                         "with xi_moments=False")
    lines = [
        f"burn_in_rounds = {est.burn_in_rounds}",
        f"n_samples = {est.n_samples}",
        f"thinning = {est.thinning}",
        f"bias_norm = {float(np.linalg.norm(est.bias_theta)):.17g}",
        f"se_bias_norm = {float(np.linalg.norm(est.se_bias)):.17g}",
        f"trace_cov_theta = {float(np.trace(est.cov_theta)):.17g}",
    ]
    _write_matrix_block(lines, "bias_theta", est.bias_theta)
    _write_matrix_block(lines, "se_bias", est.se_bias)
    _write_matrix_block(lines, "cov_theta", est.cov_theta)
    for c in range(est.cov_theta_xi.shape[0]):
        _write_matrix_block(lines, f"cov_theta_xi_{c}", est.cov_theta_xi[c])
    for (c, cp), m in sorted(est.cov_xi.items()):
        _write_matrix_block(lines, f"cov_xi_{c}_{cp}", m)
    return "\n".join(lines) + "\n"


def prediction_report(pred: FirstOrderPrediction) -> str:
    """Report: key-value scalars, then matrices in row-major CSV blocks."""
    lines = [
        f"gamma = {pred.gamma:.17g}",
        f"local_steps = {pred.local_steps}",
        f"n_clients = {pred.n_clients}",
        f"bias_pred_norm = {float(np.linalg.norm(pred.bias_theta)):.17g}",
    ]
    _write_matrix_block(lines, "bias_pred", pred.bias_theta)
    _write_matrix_block(lines, "cov_theta_pred", pred.cov_theta)
    for c in range(pred.n_clients):
        _write_matrix_block(lines, f"cov_theta_xi_pred_{c}", pred.cov_theta_xi[c])
    for c in range(pred.n_clients):
        _write_matrix_block(lines, f"cov_xi_pred_{c}_{c}", pred.cov_xi(c, c))
    return "\n".join(lines) + "\n"
