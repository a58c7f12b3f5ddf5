"""Global optimum solver and the certificate of problem constants.

The certificate collects everything the theory predictors need at the
optimum: strong-convexity and smoothness constants, heterogeneity
dispersions of client gradients and Hessians, the third-derivative bound,
and exact per-client gradient-noise covariances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import objectives
from .core import SUM_ZERO_TOL
from .objectives import Problem

__all__ = [
    "OptimumCertificate",
    "SolverError",
    "solve_optimum",
    "build_certificate",
]

class SolverError(RuntimeError):
    """Newton iteration failed to reach the requested gradient norm."""

    def __init__(self, message, grad_norm):
        super().__init__(message)
        self.grad_norm = grad_norm


def _average_gradient(problem, theta):
    return objectives.client_gradients(problem, theta).mean(axis=0)


def _average_hessian(problem, theta):
    return objectives.client_hessians(problem, theta).mean(axis=0)


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
    certified global lower bound.
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
    hessians: np.ndarray  # (N, d, d), client Hessians at theta_star
    sigma_eps_avg: np.ndarray  # (d, d)
    hessian_star: np.ndarray  # (d, d), average Hessian at theta_star
    mu_is_local_estimate: bool = False

    @property
    def n_clients(self):
        return self.xi_star.shape[0]


def build_certificate(problem: Problem, theta_star) -> OptimumCertificate:
    """Evaluate all problem constants at the solved optimum."""
    theta_star = np.asarray(theta_star, dtype=np.float64)
    lam = problem.l2_weight

    grads = objectives.client_gradients(problem, theta_star)
    hessians = objectives.client_hessians(problem, theta_star)
    grad_avg = grads.mean(axis=0)
    hess_avg = hessians.mean(axis=0)

    xi_star = -grads
    xi_star_centered_norm = float(np.max(np.abs(xi_star.sum(axis=0))))
    if xi_star_centered_norm > SUM_ZERO_TOL * (1.0 + np.max(np.abs(xi_star))):
        raise ValueError(
            "ideal control variates do not sum to zero; theta_star is not "
            f"an optimum (violation {xi_star_centered_norm:g})"
        )

    mu = max(float(np.linalg.eigvalsh(hessians)[:, 0].min()), lam)

    grams = objectives.per_client(
        problem, lambda x, y: np.matmul(x.transpose(0, 2, 1), x))
    counts = problem.record_counts[:, None, None]
    if problem.loss == "quadratic":
        grams /= counts
        q_bound = 0.0
    else:
        grams /= 4.0 * counts
        # |sigma''| <= 1/(6 sqrt(3)); averaged cubed feature norms bound Q
        cubes = objectives.per_client(
            problem, lambda x, y: np.sum(np.linalg.norm(x, axis=2) ** 3, axis=1))
        q_bound = float(np.max(cubes / (6.0 * np.sqrt(3.0) * problem.record_counts)))
    big_l = float(np.max(np.linalg.eigvalsh(grams)[:, -1] + lam))

    zeta1 = float(np.sqrt(np.mean(np.sum((grads - grad_avg) ** 2, axis=1))))
    zeta2 = float(np.sqrt(np.mean(
        np.linalg.norm(hessians - hess_avg, ord=2, axis=(1, 2)) ** 2)))

    sigma_eps = objectives.client_noise_covariances(problem, theta_star)
    sigma_eps_avg = sigma_eps.mean(axis=0)
    sigma_star_sq = float(np.trace(sigma_eps, axis1=1, axis2=2).max())

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
        hessians=hessians,
        sigma_eps_avg=sigma_eps_avg,
        hessian_star=hess_avg,
        mu_is_local_estimate=(problem.loss == "logistic"),
    )

