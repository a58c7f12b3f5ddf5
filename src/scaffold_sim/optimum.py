"""Global optimum solver and the certificate of problem constants.

The certificate collects everything the theory predictors need at the
optimum: strong-convexity and smoothness constants, heterogeneity
dispersions of client gradients and Hessians, the third-derivative bound,
and exact per-client gradient-noise covariances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import objectives
from .core import SUM_ZERO_TOL
from .objectives import Problem

__all__ = [
    "OptimumCertificate",
    "SolverError",
    "solve_optimum",
    "build_certificate",
    "certificate_report",
]

class SolverError(RuntimeError):
    """Newton iteration failed to reach the requested gradient norm."""

    def __init__(self, message, grad_norm):
        super().__init__(message)
        self.grad_norm = grad_norm


def _average_gradient(problem, theta):
    grads = [objectives.full_gradient(problem, c, theta) for c in range(problem.n_clients)]
    return np.mean(grads, axis=0)


def _average_hessian(problem, theta):
    hs = [objectives.hessian(problem, c, theta) for c in range(problem.n_clients)]
    return np.mean(hs, axis=0)


def solve_optimum(problem, tolerance=1e-12, max_iter=200):
    """Newton iteration on the global average loss down to ||grad|| <= tol.

    Uses step halving on the gradient norm for robustness on logistic
    problems; quadratic problems converge in one step.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    theta = np.zeros(problem.d)
    grad = _average_gradient(problem, theta)
    gnorm = float(np.linalg.norm(grad))
    for _ in range(max_iter):
        if gnorm <= tolerance:
            return theta
        step = np.linalg.solve(_average_hessian(problem, theta), grad)
        scale = 1.0
        for _ in range(60):
            cand = theta - scale * step
            cand_grad = _average_gradient(problem, cand)
            cand_norm = float(np.linalg.norm(cand_grad))
            if cand_norm < gnorm:
                theta, grad, gnorm = cand, cand_grad, cand_norm
                break
            scale *= 0.5
        else:
            break
    if gnorm <= tolerance:
        return theta
    raise SolverError(
        f"Newton did not reach tolerance {tolerance:g} within {max_iter} "
        f"iterations (last gradient norm {gnorm:g})",
        grad_norm=gnorm,
    )


@dataclass
class OptimumCertificate:
    """Problem constants evaluated at the solution theta_star.

    `mu_is_local_estimate` flags that for the logistic loss the strong
    convexity constant is measured at theta_star only; the l2 weight is the
    certified global lower bound.  `beta_is_estimate` flags that the noise
    growth coefficient is a regression proxy, not a closed form; it is
    evaluated from `problem` on each read, since only reports use it.
    """

    theta_star: np.ndarray
    grad_norm_at_star: float
    xi_star: np.ndarray  # (N, d), ideal control variates -grad f_c(theta_star)
    mu: float
    big_l: float
    third_deriv_bound: float  # Q
    zeta1: float
    zeta2: float
    sigma_star_sq: float
    sigma_eps_per_client: np.ndarray  # (N, d, d)
    sigma_eps_avg: np.ndarray  # (d, d)
    hessian_star: np.ndarray  # (d, d), average Hessian at theta_star
    problem: Problem = field(repr=False, compare=False)
    mu_is_local_estimate: bool = False
    beta_is_estimate: bool = True
    l2_weight: float = field(default=0.0)

    @property
    def n_clients(self):
        return self.xi_star.shape[0]

    @property
    def d(self):
        return self.theta_star.shape[0]

    @property
    def beta_proxy(self):
        return _beta_proxy(self.problem, self.theta_star)


def _operator_norm(matrix):
    return float(np.linalg.norm(matrix, ord=2))


def _beta_proxy(problem, theta_star, n_probe=20, radius=1.0, seed=1234):
    """Regression slope of noise variance growth against squared distance.

    Samples theta around theta_star, evaluates the worst-client noise trace,
    and fits trace(theta) - trace(theta_star) ~ beta * ||theta - theta_star||^2
    through the origin.  An estimate, not a certified bound.
    """
    rng = np.random.default_rng(seed)
    base = max(
        float(np.trace(objectives.noise_covariance_at(problem, c, theta_star)))
        for c in range(problem.n_clients)
    )
    xs, ys = [], []
    for _ in range(n_probe):
        direction = rng.standard_normal(problem.d)
        direction /= np.linalg.norm(direction)
        theta = theta_star + radius * rng.uniform(0.1, 1.0) * direction
        val = max(
            float(np.trace(objectives.noise_covariance_at(problem, c, theta)))
            for c in range(problem.n_clients)
        )
        xs.append(float(np.sum((theta - theta_star) ** 2)))
        ys.append(val - base)
    xs = np.asarray(xs)
    ys = np.asarray(ys)
    slope = float(xs @ ys / (xs @ xs))
    return max(slope, 0.0)


def build_certificate(problem: Problem, theta_star) -> OptimumCertificate:
    """Evaluate all problem constants at the solved optimum."""
    theta_star = np.asarray(theta_star, dtype=np.float64)
    n = problem.n_clients
    lam = problem.l2_weight

    grads = np.stack(
        [objectives.full_gradient(problem, c, theta_star) for c in range(n)]
    )
    hessians = np.stack(
        [objectives.hessian(problem, c, theta_star) for c in range(n)]
    )
    grad_avg = grads.mean(axis=0)
    hess_avg = hessians.mean(axis=0)

    xi_star = -grads
    xi_star_centered_norm = float(np.max(np.abs(xi_star.sum(axis=0))))
    if xi_star_centered_norm > SUM_ZERO_TOL * (1.0 + np.max(np.abs(xi_star))):
        raise ValueError(
            "ideal control variates do not sum to zero; theta_star is not "
            f"an optimum (violation {xi_star_centered_norm:g})"
        )

    mu = min(float(np.linalg.eigvalsh(h)[0]) for h in hessians)
    mu = max(mu, lam)

    if problem.loss == "quadratic":
        big_l = max(
            float(np.linalg.eigvalsh(
                ds.features.T @ ds.features / ds.n_records
            )[-1]) + lam
            for ds in problem.clients
        )
        q_bound = 0.0
    else:
        big_l = max(
            float(np.linalg.eigvalsh(
                ds.features.T @ ds.features / (4.0 * ds.n_records)
            )[-1]) + lam
            for ds in problem.clients
        )
        # |sigma''| <= 1/(6 sqrt(3)); averaged cubed feature norms bound Q
        q_bound = max(
            float(np.sum(np.linalg.norm(ds.features, axis=1) ** 3))
            / (6.0 * np.sqrt(3.0) * ds.n_records)
            for ds in problem.clients
        )

    zeta1 = float(np.sqrt(np.mean(np.sum((grads - grad_avg) ** 2, axis=1))))
    zeta2 = float(np.sqrt(np.mean([
        _operator_norm(h - hess_avg) ** 2 for h in hessians
    ])))

    sigma_eps = np.stack(
        [objectives.noise_covariance_at(problem, c, theta_star) for c in range(n)]
    )
    sigma_eps_avg = sigma_eps.mean(axis=0)
    sigma_star_sq = max(float(np.trace(m)) for m in sigma_eps)

    return OptimumCertificate(
        theta_star=theta_star,
        grad_norm_at_star=float(np.linalg.norm(grad_avg)),
        xi_star=xi_star,
        mu=mu,
        big_l=big_l,
        third_deriv_bound=q_bound,
        zeta1=zeta1,
        zeta2=zeta2,
        sigma_star_sq=sigma_star_sq,
        sigma_eps_per_client=sigma_eps,
        sigma_eps_avg=sigma_eps_avg,
        hessian_star=hess_avg,
        problem=problem,
        mu_is_local_estimate=(problem.loss == "logistic"),
        beta_is_estimate=True,
        l2_weight=lam,
    )


def certificate_report(cert: OptimumCertificate) -> str:
    """Flat key-value text report of the scalar certificate constants."""
    lines = [
        f"mu = {cert.mu:.17g}",
        f"L = {cert.big_l:.17g}",
        f"Q = {cert.third_deriv_bound:.17g}",
        f"zeta1 = {cert.zeta1:.17g}",
        f"zeta2 = {cert.zeta2:.17g}",
        f"sigma_star_sq = {cert.sigma_star_sq:.17g}",
        f"grad_norm_at_star = {cert.grad_norm_at_star:.17g}",
        f"beta_proxy = {cert.beta_proxy:.17g}",
        f"mu_is_local_estimate = {str(cert.mu_is_local_estimate).lower()}",
        f"beta_is_estimate = {str(cert.beta_is_estimate).lower()}",
    ]
    return "\n".join(lines) + "\n"
