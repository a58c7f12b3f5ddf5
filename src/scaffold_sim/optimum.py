"""Global optimum solver and the certificate of problem constants.

The certificate collects everything the theory predictors need at the
optimum: exact per-client gradients, Hessians and gradient-noise
covariances, and, on first read, the strong-convexity and smoothness
constants, heterogeneity dispersions of client gradients and Hessians and
the third-derivative bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

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

    `build_certificate` computes the arrays.  The scalar constants, which
    only the step-size conditions and the complexity recipe read, are
    computed from them and the problem's read-only record table on first
    read, and kept.  `mu`, the strong convexity constant, is the smallest
    client-Hessian eigenvalue at theta_star or the l2 weight, whichever is
    larger.  For the logistic loss it is measured at theta_star only; the
    l2 weight is the certified global lower bound.
    """

    theta_star: np.ndarray
    xi_star: np.ndarray  # (N, d), ideal control variates -grad f_c(theta_star)
    sigma_eps_per_client: np.ndarray  # (N, d, d)
    hessians: np.ndarray  # (N, d, d), client Hessians at theta_star
    sigma_eps_avg: np.ndarray  # (d, d)
    hessian_star: np.ndarray  # (d, d), average Hessian at theta_star
    problem: Problem = field(repr=False, compare=False)

    @property
    def n_clients(self):
        return self.xi_star.shape[0]

    @cached_property
    def mu(self):
        return max(float(np.linalg.eigvalsh(self.hessians)[:, 0].min()),
                   self.problem.l2_weight)

    @cached_property
    def big_l(self):
        problem = self.problem
        grams = objectives.per_client(
            problem, lambda x, y: np.matmul(x.transpose(0, 2, 1), x))
        grams /= (1.0 if problem.loss == "quadratic" else 4.0) \
            * problem.record_counts[:, None, None]
        return float(np.max(np.linalg.eigvalsh(grams)[:, -1] + problem.l2_weight))

    @cached_property
    def third_deriv_bound(self):  # Q
        problem = self.problem
        if problem.loss == "quadratic":
            return 0.0
        # |sigma''| <= 1/(6 sqrt(3)); averaged cubed feature norms bound Q
        cubes = objectives.per_client(
            problem, lambda x, y: np.sum(np.linalg.norm(x, axis=2) ** 3, axis=1))
        return float(np.max(cubes / (6.0 * np.sqrt(3.0) * problem.record_counts)))

    @cached_property
    def zeta1(self):
        grads = -self.xi_star
        return float(np.sqrt(np.mean(np.sum((grads - grads.mean(axis=0)) ** 2, axis=1))))

    @cached_property
    def zeta2(self):
        return float(np.sqrt(np.mean(
            np.linalg.norm(self.hessians - self.hessian_star, ord=2, axis=(1, 2)) ** 2)))

    @cached_property
    def sigma_star_sq(self):
        return float(np.trace(self.sigma_eps_per_client, axis1=1, axis2=2).max())


def build_certificate(problem: Problem, theta_star) -> OptimumCertificate:
    """The certificate's arrays at the solved optimum; its constants come on first read."""
    theta_star = np.asarray(theta_star, dtype=np.float64)
    xi_star = -objectives.client_gradients(problem, theta_star)
    xi_star_centered_norm = float(np.max(np.abs(xi_star.sum(axis=0))))
    if xi_star_centered_norm > SUM_ZERO_TOL * (1.0 + np.max(np.abs(xi_star))):
        raise ValueError(
            "ideal control variates do not sum to zero; theta_star is not "
            f"an optimum (violation {xi_star_centered_norm:g})"
        )
    hessians = objectives.client_hessians(problem, theta_star)
    sigma_eps = objectives.client_noise_covariances(problem, theta_star)
    return OptimumCertificate(
        theta_star=theta_star,
        xi_star=xi_star,
        sigma_eps_per_client=sigma_eps,
        hessians=hessians,
        sigma_eps_avg=sigma_eps.mean(axis=0),
        hessian_star=hessians.mean(axis=0),
        problem=problem,
    )
