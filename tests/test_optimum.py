import numpy as np
import pytest

from scaffold_sim import datagen, objectives, optimum

from conftest import random_problem


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
        assert not cert.mu_is_local_estimate

    def test_logistic_flags_and_q(self, logistic_problem):
        theta = optimum.solve_optimum(logistic_problem)
        cert = optimum.build_certificate(logistic_problem, theta)
        assert cert.mu_is_local_estimate
        assert cert.third_deriv_bound > 0.0
        assert cert.beta_is_estimate

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

    def test_beta_proxy_nonnegative(self, logistic_problem):
        theta = optimum.solve_optimum(logistic_problem)
        cert = optimum.build_certificate(logistic_problem, theta)
        assert cert.beta_proxy >= 0.0


class TestCertificateReport:
    def test_report_keys_and_roundtrip(self, quad_problem):
        theta = optimum.solve_optimum(quad_problem)
        cert = optimum.build_certificate(quad_problem, theta)
        report = optimum.certificate_report(cert)
        values = dict(line.split(" = ") for line in report.strip().splitlines())
        for key in ("mu", "L", "Q", "zeta1", "zeta2", "sigma_star_sq",
                    "grad_norm_at_star", "beta_proxy",
                    "mu_is_local_estimate", "beta_is_estimate"):
            assert key in values
        assert float(values["mu"]) == cert.mu
        assert float(values["sigma_star_sq"]) == cert.sigma_star_sq
        assert values["mu_is_local_estimate"] == "false"


class TestLazyBetaProxy:
    def test_certificate_skips_probe_until_read(self, logistic_problem, monkeypatch):
        calls = []
        original = objectives.noise_covariance_at

        def counting(*args):
            calls.append(args[1])
            return original(*args)

        monkeypatch.setattr(objectives, "noise_covariance_at", counting)
        cert = optimum.build_certificate(logistic_problem,
                                         optimum.solve_optimum(logistic_problem))
        # one noise covariance per client at theta_star, none for the probe
        assert len(calls) == logistic_problem.n_clients
        first = cert.beta_proxy
        assert len(calls) > logistic_problem.n_clients
        assert cert.beta_proxy == first
        assert "problem" not in repr(cert)
