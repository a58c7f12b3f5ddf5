import numpy as np
import pytest

from scaffold_sim import datagen, objectives, optimum

from conftest import random_problem
from test_objectives import (
    _reference_gradient,
    _reference_hessian,
    _reference_noise_covariance,
    ragged_problem,
)


class TestSolveOptimum:
    def test_two_client_example(self, two_client_1d):
        theta = optimum.solve_optimum(two_client_1d)
        assert theta.shape == (1,)
        assert abs(theta[0]) <= 1e-12

    def test_quadratic_normal_equations(self, quad_problem):
        theta = optimum.solve_optimum(quad_problem)
        # the optimum of the averaged quadratic is a ridge solution
        x = np.vstack([c.features for c in quad_problem.clients])
        y = np.concatenate([c.targets for c in quad_problem.clients])
        n_per = quad_problem.clients[0].n_records
        lhs = x.T @ x / (n_per * quad_problem.n_clients) + quad_problem.l2_weight * np.eye(quad_problem.d)
        rhs = x.T @ y / (n_per * quad_problem.n_clients)
        assert np.allclose(theta, np.linalg.solve(lhs, rhs), atol=1e-10)

    def test_logistic_gradient_small_at_solution(self, logistic_problem):
        theta = optimum.solve_optimum(logistic_problem, tolerance=1e-12)
        grads = [objectives.full_gradient(logistic_problem, c, theta)
                 for c in range(logistic_problem.n_clients)]
        assert np.linalg.norm(np.mean(grads, axis=0)) <= 1e-12

    def test_unreachable_tolerance_raises(self, logistic_problem):
        with pytest.raises(optimum.SolverError) as info:
            optimum.solve_optimum(logistic_problem, tolerance=1e-30, max_iter=3)
        assert info.value.grad_norm > 0.0

    def test_bad_tolerance(self, quad_problem):
        with pytest.raises(ValueError):
            optimum.solve_optimum(quad_problem, tolerance=0.0)


class TestBuildCertificate:
    def test_two_client_example_constants(self, two_client_1d):
        theta = optimum.solve_optimum(two_client_1d)
        cert = optimum.build_certificate(two_client_1d, theta)
        assert cert.mu == pytest.approx(1.0)
        assert cert.big_l == pytest.approx(1.0)
        assert np.allclose(cert.xi_star, [[1.0], [-1.0]])
        # client gradients at 0 are (-1, +1): mean squared deviation is 1
        assert cert.zeta1 == pytest.approx(1.0)
        assert cert.zeta2 == pytest.approx(0.0)
        assert cert.third_deriv_bound == 0.0
        assert cert.sigma_star_sq == pytest.approx(0.0)

    def test_xi_star_sums_to_zero(self, logistic_problem):
        theta = optimum.solve_optimum(logistic_problem)
        cert = optimum.build_certificate(logistic_problem, theta)
        assert np.max(np.abs(cert.xi_star.sum(axis=0))) <= 1e-10

    def test_rejects_non_optimum(self, logistic_problem):
        with pytest.raises(ValueError, match="not.*optimum"):
            optimum.build_certificate(logistic_problem,
                                      np.ones(logistic_problem.d))

    def test_identical_clients_have_no_heterogeneity(self):
        rng = np.random.default_rng(21)
        x = rng.standard_normal((40, 3))
        y = x @ np.array([1.0, -2.0, 0.5]) + rng.standard_normal(40)
        clients = [datagen.ClientDataset(x.copy(), y.copy(), client_id=c)
                   for c in range(4)]
        problem = objectives.Problem(clients, "quadratic", 0.1, batch_size=5)
        theta = optimum.solve_optimum(problem)
        cert = optimum.build_certificate(problem, theta)
        assert cert.zeta1 == pytest.approx(0.0, abs=1e-10)
        assert cert.zeta2 == pytest.approx(0.0, abs=1e-10)

    def test_quadratic_third_derivative_is_zero(self, quad_problem):
        theta = optimum.solve_optimum(quad_problem)
        cert = optimum.build_certificate(quad_problem, theta)
        assert cert.third_deriv_bound == 0.0

    def test_logistic_flags_and_q(self, logistic_problem):
        theta = optimum.solve_optimum(logistic_problem)
        cert = optimum.build_certificate(logistic_problem, theta)
        assert cert.third_deriv_bound > 0.0

    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_mu_and_l_bracket_hessian_spectra(self, loss):
        problem = random_problem(loss, seed=8)
        theta_star = optimum.solve_optimum(problem)
        cert = optimum.build_certificate(problem, theta_star)
        rng = np.random.default_rng(77)
        for _ in range(20):
            theta = theta_star + 0.5 * rng.standard_normal(problem.d)
            for c in range(problem.n_clients):
                eigs = np.linalg.eigvalsh(objectives.hessian(problem, c, theta))
                assert eigs[-1] <= cert.big_l + 1e-10
                if loss == "quadratic":
                    assert eigs[0] >= cert.mu - 1e-10

    def test_sigma_star_sq_is_worst_client_trace(self, quad_problem):
        theta = optimum.solve_optimum(quad_problem)
        cert = optimum.build_certificate(quad_problem, theta)
        traces = [np.trace(m) for m in cert.sigma_eps_per_client]
        assert cert.sigma_star_sq == pytest.approx(max(traces))
        assert np.allclose(cert.sigma_eps_avg,
                           cert.sigma_eps_per_client.mean(axis=0))

    def test_one_noise_covariance_pass(self, logistic_problem, monkeypatch):
        calls = []
        original = objectives.client_noise_covariances

        def counting(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(objectives, "client_noise_covariances", counting)
        optimum.build_certificate(logistic_problem, optimum.solve_optimum(logistic_problem))
        # one table-wide noise covariance pass at theta_star
        assert len(calls) == 1


def _count_table_passes(monkeypatch):
    """The kernel name of every `objectives.per_client` pass from now on."""
    kernels = []
    original = objectives.per_client

    def counting(problem, kernel, *args):
        kernels.append(kernel.__name__)
        return original(problem, kernel, *args)

    monkeypatch.setattr(objectives, "per_client", counting)
    return kernels


class TestConstantsOnFirstRead:
    def test_build_makes_three_table_passes(self, logistic_problem, monkeypatch):
        theta_star = optimum.solve_optimum(logistic_problem)
        kernels = _count_table_passes(monkeypatch)
        optimum.build_certificate(logistic_problem, theta_star)
        assert kernels == ["_gradient_stack", "_hessian_stack", "_noise_stack"]

    @pytest.mark.parametrize("loss, q_passes", [("quadratic", 0), ("logistic", 1)])
    def test_each_constant_is_computed_once(self, loss, q_passes, monkeypatch):
        problem = random_problem(loss, seed=4)
        cert = optimum.build_certificate(problem, optimum.solve_optimum(problem))
        kernels = _count_table_passes(monkeypatch)
        first = cert.big_l
        assert len(kernels) == 1  # the Gram pass
        q_bound = cert.third_deriv_bound
        assert len(kernels) == 1 + q_passes  # the cubed-norm pass, logistic only
        others = [cert.mu, cert.zeta1, cert.zeta2, cert.sigma_star_sq]
        assert len(kernels) == 1 + q_passes
        assert cert.big_l is first and cert.third_deriv_bound is q_bound
        assert [cert.mu, cert.zeta1, cert.zeta2, cert.sigma_star_sq] == others
        assert len(kernels) == 1 + q_passes


# Reference: the certificate constants as the per-client loops computed them.
def _reference_certificate(problem, theta_star):
    n, lam = problem.n_clients, problem.l2_weight
    grads = np.stack([_reference_gradient(problem, c, theta_star) for c in range(n)])
    hessians = np.stack([_reference_hessian(problem, c, theta_star) for c in range(n)])
    hess_avg = hessians.mean(axis=0)
    mu = max(min(float(np.linalg.eigvalsh(h)[0]) for h in hessians), lam)
    scale = 1.0 if problem.loss == "quadratic" else 4.0
    big_l = max(float(np.linalg.eigvalsh(
        ds.features.T @ ds.features / (scale * ds.n_records))[-1]) + lam
        for ds in problem.clients)
    q_bound = 0.0 if problem.loss == "quadratic" else max(
        float(np.sum(np.linalg.norm(ds.features, axis=1) ** 3))
        / (6.0 * np.sqrt(3.0) * ds.n_records) for ds in problem.clients)
    zeta2 = float(np.sqrt(np.mean([
        float(np.linalg.norm(h - hess_avg, ord=2)) ** 2 for h in hessians])))
    sigma_eps = np.stack([_reference_noise_covariance(problem, c, theta_star)
                          for c in range(n)])
    return {
        "xi_star": -grads, "hessian_star": hess_avg, "mu": mu, "big_l": big_l,
        "third_deriv_bound": q_bound, "zeta2": zeta2, "sigma_eps_per_client": sigma_eps,
        "sigma_eps_avg": sigma_eps.mean(axis=0),
        "sigma_star_sq": max(float(np.trace(m)) for m in sigma_eps),
    }


class TestTableWideCertificate:
    @pytest.mark.parametrize("counts", [[25] * 5, [9, 25, 4, 9, 31]])
    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_equals_per_client_loops(self, loss, counts):
        problem = ragged_problem(loss, counts, d=5, seed=sum(counts))
        theta_star = optimum.solve_optimum(problem)
        cert = optimum.build_certificate(problem, theta_star)
        for key, expected in _reference_certificate(problem, theta_star).items():
            got = getattr(cert, key)
            assert np.array_equal(got, expected), key

    @pytest.mark.parametrize("counts", [[25] * 5, [9, 25, 4, 9, 31]])
    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_keeps_the_client_hessians(self, loss, counts):
        problem = ragged_problem(loss, counts, d=5, seed=sum(counts))
        theta_star = optimum.solve_optimum(problem)
        cert = optimum.build_certificate(problem, theta_star)
        assert np.array_equal(cert.hessians, np.stack(
            [_reference_hessian(problem, c, theta_star) for c in range(len(counts))]))
        assert np.array_equal(cert.hessian_star, cert.hessians.mean(axis=0))

    @pytest.mark.parametrize("counts", [[25] * 5, [9, 25, 4, 9, 31]])
    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_newton_averages_equal_per_client_loops(self, loss, counts):
        problem = ragged_problem(loss, counts, d=5, seed=1)
        rng = np.random.default_rng(2)
        for _ in range(3):
            theta = rng.standard_normal(problem.d)
            grads = [_reference_gradient(problem, c, theta) for c in range(len(counts))]
            hessians = [_reference_hessian(problem, c, theta) for c in range(len(counts))]
            assert np.array_equal(optimum._average_gradient(problem, theta),
                                  np.mean(grads, axis=0))
            assert np.array_equal(optimum._average_hessian(problem, theta),
                                  np.mean(hessians, axis=0))
