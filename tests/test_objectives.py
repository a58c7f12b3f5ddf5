import numpy as np
import pytest

from scaffold_sim import datagen, objectives
from scaffold_sim.core import batch_uniform_indices, derive_stream

from conftest import random_problem


def fd_gradient(problem, client, theta, eps=1e-6):
    """Central finite differences of the client loss."""
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (objectives.loss_value(problem, client, up)
                   - objectives.loss_value(problem, client, down)) / (2 * eps)
    return grad


def fd_hessian(problem, client, theta, eps=1e-5):
    """Central finite differences of the analytic gradient."""
    d = theta.size
    hess = np.zeros((d, d))
    for i in range(d):
        up, down = theta.copy(), theta.copy()
        up[i] += eps
        down[i] -= eps
        hess[:, i] = (objectives.full_gradient(problem, client, up)
                      - objectives.full_gradient(problem, client, down)) / (2 * eps)
    return 0.5 * (hess + hess.T)


def fd_third_apply(problem, client, theta, matrix, eps=1e-5):
    """Contract the finite-difference third derivative with M.

    Decomposes M in its eigenbasis; for each eigenvector v, the directional
    Hessian difference gives the slice T[., ., v], and T[M] = sum over
    eigenpairs of lambda * T[., ., v] v.
    """
    eigvals, eigvecs = np.linalg.eigh(matrix)
    out = np.zeros_like(theta)
    for lam, v in zip(eigvals, eigvecs.T):
        slice_ = (objectives.hessian(problem, client, theta + eps * v)
                  - objectives.hessian(problem, client, theta - eps * v)) / (2 * eps)
        out += lam * slice_ @ v
    return out


class TestFullGradient:
    def test_single_record_quadratic(self):
        client = datagen.ClientDataset(np.array([[1.0, 0.0]]), np.array([0.0]))
        problem = objectives.Problem([client], "quadratic", 0.0, 1)
        grad = objectives.full_gradient(problem, 0, np.array([1.0, 0.0]))
        assert np.allclose(grad, [1.0, 0.0])

    def test_logistic_symmetry_at_zero(self):
        x = np.array([[1.0, 2.0], [-1.0, -2.0]])
        client = datagen.ClientDataset(x, np.array([1.0, 1.0]))
        problem = objectives.Problem([client], "logistic", 0.3, 1)
        grad = objectives.full_gradient(problem, 0, np.zeros(2))
        assert np.allclose(grad, 0.0, atol=1e-15)

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_matches_finite_differences(self, loss, seed):
        problem = random_problem(loss, seed=seed)
        rng = np.random.default_rng(100 + seed)
        theta = rng.standard_normal(problem.d)
        grad = objectives.full_gradient(problem, 0, theta)
        approx = fd_gradient(problem, 0, theta)
        assert np.linalg.norm(grad - approx) < 1e-6 * max(1.0, np.linalg.norm(grad))


class TestStochasticGradient:
    def test_single_atom_client_equals_full(self):
        client = datagen.ClientDataset(np.array([[2.0, 1.0]]), np.array([1.0]))
        problem = objectives.Problem([client], "quadratic", 0.1, batch_size=4)
        theta = np.array([0.3, -0.2])
        stream = derive_stream(0, 0, 0, 0)
        assert np.allclose(
            objectives.stochastic_gradient(problem, 0, theta, stream),
            objectives.full_gradient(problem, 0, theta),
        )

    def test_deterministic_given_stream(self):
        problem = random_problem("logistic", seed=3)
        theta = np.ones(problem.d)
        stream = derive_stream(9, 2, 1, 4)
        a = objectives.stochastic_gradient(problem, 1, theta, stream)
        b = objectives.stochastic_gradient(problem, 1, theta, stream)
        assert np.array_equal(a, b)

    def test_monte_carlo_unbiased(self):
        # 1e5 independent streams; mean within 3 standard errors of the truth
        problem = random_problem("quadratic", seed=4)
        theta = np.full(problem.d, 0.5)
        n_draws = 100_000
        ds = problem.clients[0]
        idx = batch_uniform_indices(123, 0, np.array([0], dtype=np.uint64),
                                    n_draws, ds.n_records, problem.batch_size)[:, 0, :]
        grads = objectives.per_record_gradients(problem, 0, theta)
        draws = grads[idx].mean(axis=1)
        mean = draws.mean(axis=0)
        se = draws.std(axis=0, ddof=1) / np.sqrt(n_draws)
        truth = objectives.full_gradient(problem, 0, theta)
        assert np.all(np.abs(mean - truth) <= 3.0 * se + 1e-12)


class TestHessian:
    def test_quadratic_theta_independent(self, quad_problem):
        h0 = objectives.hessian(quad_problem, 0, np.zeros(quad_problem.d))
        h1 = objectives.hessian(quad_problem, 0, np.ones(quad_problem.d))
        assert np.array_equal(h0, h1)

    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_eigenvalues_at_least_l2_weight(self, loss):
        problem = random_problem(loss, seed=5)
        rng = np.random.default_rng(11)
        for _ in range(5):
            theta = rng.standard_normal(problem.d)
            eigs = np.linalg.eigvalsh(objectives.hessian(problem, 1, theta))
            assert eigs[0] >= problem.l2_weight - 1e-12

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_matches_finite_differences(self, loss, seed):
        problem = random_problem(loss, seed=seed)
        rng = np.random.default_rng(200 + seed)
        theta = rng.standard_normal(problem.d)
        hess = objectives.hessian(problem, 0, theta)
        approx = fd_hessian(problem, 0, theta)
        assert np.linalg.norm(hess - approx) < 1e-5 * max(1.0, np.linalg.norm(hess))


class TestThirdDerivative:
    def test_quadratic_vanishes(self, quad_problem):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((quad_problem.d, quad_problem.d))
        m = m + m.T
        out = objectives.third_derivative_apply(
            quad_problem, 0, np.ones(quad_problem.d), m
        )
        assert np.array_equal(out, np.zeros(quad_problem.d))

    def test_zero_matrix(self, logistic_problem):
        out = objectives.third_derivative_apply(
            logistic_problem, 0, np.ones(logistic_problem.d),
            np.zeros((logistic_problem.d, logistic_problem.d)),
        )
        assert np.allclose(out, 0.0)

    def test_non_symmetric_rejected(self, logistic_problem):
        m = np.zeros((logistic_problem.d, logistic_problem.d))
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            objectives.third_derivative_apply(
                logistic_problem, 0, np.zeros(logistic_problem.d), m
            )

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_difference_hessian(self, seed):
        problem = random_problem("logistic", seed=300 + seed)
        rng = np.random.default_rng(400 + seed)
        theta = 0.5 * rng.standard_normal(problem.d)
        m = rng.standard_normal((problem.d, problem.d))
        m = 0.5 * (m + m.T)
        exact = objectives.third_derivative_apply(problem, 0, theta, m)
        approx = fd_third_apply(problem, 0, theta, m)
        scale = max(1.0, np.linalg.norm(exact))
        assert np.linalg.norm(exact - approx) < 1e-4 * scale


class TestNoiseCovariance:
    def test_identical_records_zero(self):
        features = np.tile([[1.0, -2.0]], (6, 1))
        client = datagen.ClientDataset(features, np.full(6, 3.0))
        problem = objectives.Problem([client], "quadratic", 0.1, batch_size=2)
        cov = objectives.noise_covariance_at(problem, 0, np.array([0.4, 0.1]))
        assert np.allclose(cov, 0.0, atol=1e-14)

    def test_inverse_batch_scaling(self, quad_problem):
        theta = np.ones(quad_problem.d)
        cov_b = objectives.noise_covariance_at(quad_problem, 0, theta)
        doubled = objectives.Problem(
            quad_problem.clients, quad_problem.loss, quad_problem.l2_weight,
            batch_size=2 * quad_problem.batch_size,
        )
        cov_2b = objectives.noise_covariance_at(doubled, 0, theta)
        assert np.allclose(cov_2b, 0.5 * cov_b)

    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_matches_empirical_covariance(self, loss):
        # 1e5 minibatch draws; 5% agreement in Frobenius norm
        problem = random_problem(loss, seed=6)
        theta = 0.3 * np.ones(problem.d)
        exact = objectives.noise_covariance_at(problem, 2, theta)
        ds = problem.clients[2]
        n_draws = 100_000
        idx = batch_uniform_indices(55, 0, np.array([2], dtype=np.uint64),
                                    n_draws, ds.n_records, problem.batch_size)[:, 0, :]
        grads = objectives.per_record_gradients(problem, 2, theta)
        draws = grads[idx].mean(axis=1)
        centered = draws - objectives.full_gradient(problem, 2, theta)
        empirical = centered.T @ centered / n_draws
        rel = np.linalg.norm(empirical - exact) / np.linalg.norm(exact)
        assert rel < 0.05

    def test_positive_semidefinite(self, logistic_problem):
        cov = objectives.noise_covariance_at(
            logistic_problem, 0, np.zeros(logistic_problem.d)
        )
        assert np.linalg.eigvalsh(cov)[0] >= -1e-12


class TestProblemValidation:
    def test_logistic_labels_checked(self):
        client = datagen.ClientDataset(np.ones((2, 2)), np.array([0.5, 1.0]))
        with pytest.raises(ValueError, match=r"\{-1, \+1\}"):
            objectives.Problem([client], "logistic", 0.1, 1)

    def test_mismatched_dimensions(self):
        a = datagen.ClientDataset(np.ones((2, 2)), np.ones(2))
        b = datagen.ClientDataset(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError, match="dimension"):
            objectives.Problem([a, b], "quadratic", 0.1, 1)

    def test_unknown_loss(self):
        a = datagen.ClientDataset(np.ones((2, 2)), np.ones(2))
        with pytest.raises(ValueError, match="loss"):
            objectives.Problem([a], "huber", 0.1, 1)


def _masked_sigmoid(z):
    # reference: evaluate each sign branch on its own masked subset
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    def test_bitwise_equal_to_masked_reference(self):
        rng = np.random.default_rng(5)
        z = np.concatenate([
            [0.0, -0.0, np.inf, -np.inf, 750.0, -750.0, 36.7, -36.7, 5e-324, -5e-324],
            rng.standard_normal(500) * 10.0,
        ])
        new, ref = objectives._sigmoid(z), _masked_sigmoid(z)
        assert np.array_equal(new, ref)
        assert np.array_equal(np.signbit(new), np.signbit(ref))

    def test_nan_propagates(self):
        z = np.array([np.nan, 1.0, -np.nan])
        new, ref = objectives._sigmoid(z), _masked_sigmoid(z)
        assert np.array_equal(new, ref, equal_nan=True)
        assert np.isnan(new[0]) and np.isnan(new[2])
