import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaffold_sim import datagen, objectives
from scaffold_sim.core import batch_uniform_indices

from conftest import random_problem
from reference import (
    broadcast_minibatch_gradient,
    derive_stream,
    loss_value,
    per_record_gradients,
    stochastic_gradient,
)


def fd_gradient(problem, client, theta, eps=1e-6):
    """Central finite differences of the client loss."""
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += eps
        down[i] -= eps
        grad[i] = (loss_value(problem, client, up)
                   - loss_value(problem, client, down)) / (2 * eps)
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
            stochastic_gradient(problem, 0, theta, stream),
            objectives.full_gradient(problem, 0, theta),
        )

    def test_deterministic_given_stream(self):
        problem = random_problem("logistic", seed=3)
        theta = np.ones(problem.d)
        stream = derive_stream(9, 2, 1, 4)
        a = stochastic_gradient(problem, 1, theta, stream)
        b = stochastic_gradient(problem, 1, theta, stream)
        assert np.array_equal(a, b)

    def test_monte_carlo_unbiased(self):
        # 1e5 independent streams; mean within 3 standard errors of the truth
        problem = random_problem("quadratic", seed=4)
        theta = np.full(problem.d, 0.5)
        n_draws = 100_000
        ds = problem.clients[0]
        idx = batch_uniform_indices(123, 0, np.array([0], dtype=np.uint64),
                                    n_draws, ds.n_records, problem.batch_size)[:, 0, :]
        grads = per_record_gradients(problem, 0, theta)
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
        grads = per_record_gradients(problem, 2, theta)
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
        good = datagen.ClientDataset(np.ones((3, 2)), np.array([1.0, -1.0, 1.0]))
        bad = datagen.ClientDataset(np.ones((2, 2)), np.array([1.0, 0.0]), client_id=5)
        with pytest.raises(ValueError, match="client 5"):
            objectives.Problem([good, bad, good], "logistic", 0.1, 1)

    def test_mismatched_dimensions(self):
        a = datagen.ClientDataset(np.ones((2, 2)), np.ones(2))
        b = datagen.ClientDataset(np.ones((2, 3)), np.ones(2))
        with pytest.raises(ValueError, match="dimension"):
            objectives.Problem([a, b], "quadratic", 0.1, 1)

    def test_repeated_client_id_rejected(self):
        # minibatch streams are keyed on the id: both clients drew the same rows
        a = datagen.ClientDataset(np.ones((10, 2)), np.ones(10), client_id=3)
        b = datagen.ClientDataset(np.zeros((10, 2)), np.ones(10), client_id=3)
        with pytest.raises(ValueError, match="client id 3 is repeated"):
            objectives.Problem([a, b], "quadratic", 0.1, 2)

    def test_unknown_loss(self):
        a = datagen.ClientDataset(np.ones((2, 2)), np.ones(2))
        with pytest.raises(ValueError, match="loss"):
            objectives.Problem([a], "huber", 0.1, 1)


class TestRecordTable:
    def test_clients_are_views_of_their_rows(self):
        rng = np.random.default_rng(4)
        inputs = [datagen.ClientDataset(rng.standard_normal((n, 3)), rng.standard_normal(n),
                                        client_id=2 * i + 7)
                  for i, n in enumerate([5, 1, 12, 5])]
        problem = objectives.Problem(inputs, "quadratic", 0.1, 2)
        assert problem.features.shape == (23, 3) and problem.targets.shape == (23,)
        assert problem.record_counts.tolist() == [5, 1, 12, 5]
        assert problem.first_rows.tolist() == [0, 5, 6, 18]
        assert problem.client_ids.dtype == np.uint64
        assert problem.client_ids.tolist() == [7, 9, 11, 13]
        for c, given, first, n in zip(problem.clients, inputs, problem.first_rows,
                                      problem.record_counts):
            rows = slice(first, first + n)
            assert np.array_equal(problem.features[rows], given.features)
            assert np.array_equal(problem.targets[rows], given.targets)
            assert np.array_equal(c.features, given.features)
            assert np.array_equal(c.targets, given.targets)
            assert c.client_id == given.client_id
            assert np.shares_memory(c.features, problem.features)
            assert np.shares_memory(c.targets, problem.targets)
            # the caller's datasets keep their own arrays
            assert not np.shares_memory(given.features, problem.features)
        # a problem built from another's clients owns its own table
        other = objectives.Problem(problem.clients[::-1], "quadratic", 0.1, 2)
        assert np.array_equal(other.features[:5], problem.features[-5:])
        assert all(np.shares_memory(c.features, problem.features) for c in problem.clients)
        assert not np.shares_memory(other.features, problem.features)

    @staticmethod
    def _read_only_base(rows=12, d=3, seed=6):
        rng = np.random.default_rng(seed)
        x, y = rng.standard_normal((rows, d)), rng.standard_normal(rows)
        x.flags.writeable = y.flags.writeable = False
        return x, y

    @staticmethod
    def _problem(x, y, blocks):
        return objectives.Problem([datagen.ClientDataset(x[rows], y[rows], client_id=i)
                                   for i, rows in enumerate(blocks)])

    def test_consecutive_blocks_of_a_read_only_array_are_adopted(self):
        x, y = self._read_only_base()
        problem = self._problem(x, y, [slice(0, 5), slice(5, 6), slice(6, 12)])
        assert problem.features is x and problem.targets is y
        assert problem.first_rows.tolist() == [0, 5, 6]
        for c, rows in zip(problem.clients, [slice(0, 5), slice(5, 6), slice(6, 12)]):
            assert np.array_equal(c.features, x[rows]) and np.array_equal(c.targets, y[rows])
        # a problem re-split from another's table shares it too
        again = self._problem(problem.features, problem.targets, [slice(0, 6), slice(6, 12)])
        assert again.features is x and again.targets is y

    @pytest.mark.parametrize("layout", ["writable", "reversed", "gap", "strided", "partial"])
    def test_other_layouts_are_copied(self, layout):
        x, y = self._read_only_base()
        blocks = [slice(0, 6), slice(6, 12)]
        if layout == "writable":
            x, y = x.copy(), y.copy()
        elif layout == "reversed":
            blocks = blocks[::-1]
        elif layout == "gap":
            blocks = [slice(0, 5), slice(6, 12)]
        elif layout == "strided":
            blocks = [slice(0, 12, 2), slice(1, 12, 2)]
        elif layout == "partial":
            blocks = [slice(0, 6), slice(6, 10)]
        problem = self._problem(x, y, blocks)
        assert not np.shares_memory(problem.features, x)
        assert not np.shares_memory(problem.targets, y)
        assert np.array_equal(problem.features, np.concatenate([x[b] for b in blocks]))
        assert np.array_equal(problem.targets, np.concatenate([y[b] for b in blocks]))

    def test_table_is_read_only(self, quad_problem):
        for table in (quad_problem.features, quad_problem.targets,
                      quad_problem.clients[0].features, quad_problem.clients[0].targets):
            with pytest.raises(ValueError):
                table[0] = 1.0

    def test_table_fields_are_derived(self, quad_problem):
        table = {"features", "targets", "first_rows", "record_counts", "client_ids"}
        for f in dataclasses.fields(objectives.Problem):
            if f.name in table:
                assert not (f.init or f.repr or f.compare), f.name
        with pytest.raises(TypeError):
            objectives.Problem(quad_problem.clients, features=quad_problem.features)


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


# Reference: the per-client derivative functions that the table kernels
# replaced, each computed on one client's records.
def _reference_gradient(problem, client, theta):
    ds = problem.clients[client]
    return objectives.stacked_minibatch_gradient(
        ds.features[None], ds.targets[None], theta[None],
        problem.loss, problem.l2_weight)[0]


def _reference_hessian(problem, client, theta):
    ds = problem.clients[client]
    n, d = ds.features.shape
    if problem.loss == "quadratic":
        h = ds.features.T @ ds.features / n
    else:
        s = objectives._sigmoid(ds.targets * (ds.features @ theta))
        h = (ds.features * (s * (1.0 - s))[:, None]).T @ ds.features / n
    return h + problem.l2_weight * np.eye(d)


def _reference_third(problem, client, theta, matrix):
    ds = problem.clients[client]
    if problem.loss == "quadratic":
        return np.zeros(ds.d)
    s = objectives._sigmoid(ds.targets * (ds.features @ theta))
    quad = np.einsum("mi,ij,mj->m", ds.features, matrix, ds.features)
    weights = s * (1.0 - s) * (1.0 - 2.0 * s) * ds.targets * quad
    return ds.features.T @ weights / ds.n_records


def _reference_noise_covariance(problem, client, theta):
    ds = problem.clients[client]
    weights = objectives._loss_weights(ds.features @ theta, ds.targets, problem.loss)
    grads = ds.features * weights[:, None] + problem.l2_weight * theta
    n = grads.shape[0]
    mean = grads.mean(axis=0)
    second = grads.T @ grads / n
    cov = (second - np.outer(mean, mean)) / problem.batch_size
    return 0.5 * (cov + cov.T)


def ragged_problem(loss, counts, d=4, l2_weight=0.1, batch_size=3, seed=0):
    """A problem whose clients hold `counts` records each."""
    rng = np.random.default_rng(seed)
    clients = []
    for c, n in enumerate(counts):
        features = rng.standard_normal((n, d))
        if loss == "quadratic":
            targets = features @ rng.standard_normal(d) + rng.standard_normal(n)
        else:
            targets = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        clients.append(datagen.ClientDataset(features, targets, client_id=3 * c + 1))
    return objectives.Problem(clients, loss=loss, l2_weight=l2_weight,
                              batch_size=batch_size)


def _assert_kernels_equal_loops(problem, theta, matrix):
    n = problem.n_clients
    pairs = [
        (objectives.client_gradients(problem, theta),
         [_reference_gradient(problem, c, theta) for c in range(n)]),
        (objectives.client_hessians(problem, theta),
         [_reference_hessian(problem, c, theta) for c in range(n)]),
        (objectives.client_third_derivatives(problem, theta, matrix),
         [_reference_third(problem, c, theta, matrix) for c in range(n)]),
        (objectives.client_noise_covariances(problem, theta),
         [_reference_noise_covariance(problem, c, theta) for c in range(n)]),
    ]
    for table, loop in pairs:
        assert table.shape == (n,) + loop[0].shape
        assert np.array_equal(table, np.stack(loop))
        assert np.array_equal(np.signbit(table), np.signbit(np.stack(loop)))


_SHAPES = {"equal": [40] * 6, "ragged": [7, 30, 7, 12, 30, 1, 12]}


class TestTableKernels:
    @pytest.mark.parametrize("shape", sorted(_SHAPES))
    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_equal_per_client_loops(self, loss, shape):
        problem = ragged_problem(loss, _SHAPES[shape], d=6, seed=len(shape))
        rng = np.random.default_rng(1)
        theta = 0.5 * rng.standard_normal(problem.d)
        m = rng.standard_normal((problem.d, problem.d))
        _assert_kernels_equal_loops(problem, theta, m + m.T)

    def test_equal_loops_on_a_large_table(self):
        # 200 clients of 200 records, d = 20: the size of the benchmark's predict task
        problem = ragged_problem("logistic", [200] * 200, d=20, seed=9)
        theta = np.linspace(-0.3, 0.3, 20)
        m = np.outer(theta, theta) + np.eye(20)
        _assert_kernels_equal_loops(problem, theta, m)

    @pytest.mark.parametrize("chunk", [1, 10, 31])
    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_chunked_groups_equal_per_client_loops(self, loss, chunk, monkeypatch):
        # chunks of whole clients: one client per call, or a few per group
        monkeypatch.setattr(objectives, "_CHUNK_RECORDS", chunk)
        problem = ragged_problem(loss, _SHAPES["ragged"] + [7, 7, 2], seed=4)
        theta = np.linspace(-1.0, 1.0, problem.d)
        _assert_kernels_equal_loops(problem, theta, np.eye(problem.d) - 0.2)

    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_per_client_functions_are_the_one_client_case(self, loss):
        problem = ragged_problem(loss, _SHAPES["ragged"], seed=3)
        theta = np.full(problem.d, 0.2)
        m = np.eye(problem.d) + 0.5
        for c in range(problem.n_clients):
            assert np.array_equal(objectives.full_gradient(problem, c, theta),
                                  _reference_gradient(problem, c, theta))
            assert np.array_equal(objectives.hessian(problem, c, theta),
                                  _reference_hessian(problem, c, theta))
            assert np.array_equal(objectives.third_derivative_apply(problem, c, theta, m),
                                  _reference_third(problem, c, theta, m))
            assert np.array_equal(objectives.noise_covariance_at(problem, c, theta),
                                  _reference_noise_covariance(problem, c, theta))

    @settings(max_examples=40, deadline=None)
    @given(counts=st.lists(st.integers(1, 9), min_size=1, max_size=7),
           d=st.integers(1, 5), loss=st.sampled_from(["quadratic", "logistic"]),
           batch=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
           scale=st.sampled_from([0.0, 0.3, 5.0]))
    def test_property_random_problems(self, counts, d, loss, batch, seed, scale):
        problem = ragged_problem(loss, counts, d=d, batch_size=batch, seed=seed)
        rng = np.random.default_rng(seed)
        theta = scale * rng.standard_normal(d)
        m = rng.standard_normal((d, d))
        _assert_kernels_equal_loops(problem, theta, m + m.T)

    @pytest.mark.parametrize("counts, d, loss, seed, scale", [
        ([1, 1], 4, "logistic", 0, 5.0),
        ([1, 1, 2, 1], 2, "logistic", 0, 0.3),
        ([9, 9, 1], 16, "quadratic", 3469623439, 5.0),
        ([7, 30, 7, 12, 30, 1, 12, 1], 20, "logistic", 5, 0.5),
    ])
    def test_equal_loops_whatever_rows_share_a_product(self, counts, d, loss, seed, scale):
        # one BLAS product over several clients' rows, or one contraction
        # over them at d = 2, rounds some rows differently from each
        # client's own product
        problem = ragged_problem(loss, counts, d=d, batch_size=2, seed=seed)
        rng = np.random.default_rng(seed)
        theta = scale * rng.standard_normal(d)
        m = rng.standard_normal((d, d))
        _assert_kernels_equal_loops(problem, theta, m + m.T)

    def test_non_symmetric_matrix_rejected_once(self, logistic_problem):
        m = np.zeros((logistic_problem.d, logistic_problem.d))
        m[0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            objectives.client_third_derivatives(logistic_problem, np.zeros(logistic_problem.d), m)
        with pytest.raises(ValueError, match="square"):
            objectives.client_third_derivatives(logistic_problem, np.zeros(logistic_problem.d),
                                                np.zeros((2, 3)))


def _stack(loss, rows, batch, d, seed):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((rows, batch, d))
    if loss == "quadratic":
        targets = rng.standard_normal((rows, batch))
    else:
        targets = np.where(rng.random((rows, batch)) < 0.5, 1.0, -1.0)
    return features, targets


class TestStackedGradient:
    # figure1's stacks: K algorithms over R = N x seeds rows, b = 10, d = 20
    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    @pytest.mark.parametrize("rows", [30, 300])
    @pytest.mark.parametrize("chains", [1, 2, 3])
    def test_leading_axis_equals_one_chain_calls_and_broadcast_form(self, loss, rows, chains):
        features, targets = _stack(loss, rows, 10, 20, seed=rows + chains)
        thetas = 3.0 * np.random.default_rng(chains).standard_normal((chains, rows, 20))
        got = objectives.stacked_minibatch_gradient(features, targets, thetas, loss, 0.1)
        assert got.shape == thetas.shape
        alone = np.stack([objectives.stacked_minibatch_gradient(features, targets, theta,
                                                                loss, 0.1)
                          for theta in thetas])
        assert np.array_equal(got, alone)
        assert np.array_equal(got, broadcast_minibatch_gradient(features, targets, thetas,
                                                                loss, 0.1))
        assert np.array_equal(alone[0], broadcast_minibatch_gradient(features, targets,
                                                                     thetas[0], loss, 0.1))

    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_several_leading_axes_and_strided_thetas(self, loss):
        features, targets = _stack(loss, 30, 10, 20, seed=4)
        base = np.random.default_rng(5).standard_normal((30, 2, 3, 20))
        thetas = base.transpose(1, 2, 0, 3)  # (2, 3, R, d), not contiguous
        got = objectives.stacked_minibatch_gradient(features, targets, thetas, loss, 0.1)
        assert got.shape == (2, 3, 30, 20)
        assert np.array_equal(got, broadcast_minibatch_gradient(features, targets, thetas,
                                                                loss, 0.1))
        assert np.array_equal(got[1, 2], objectives.stacked_minibatch_gradient(
            features, targets, np.ascontiguousarray(thetas[1, 2]), loss, 0.1))


class TestRecordGroups:
    def test_equal_size_clients_are_reshape_views(self, quad_problem):
        (clients, x, y), = objectives.record_groups(
            quad_problem.features, quad_problem.targets,
            quad_problem.first_rows, quad_problem.record_counts)
        assert np.array_equal(clients, np.arange(3))
        assert x.shape == (3, 30, 4) and y.shape == (3, 30)
        assert np.shares_memory(x, quad_problem.features)
        assert np.shares_memory(y, quad_problem.targets)
        for c, ds in enumerate(quad_problem.clients):
            assert np.array_equal(x[c], ds.features) and np.array_equal(y[c], ds.targets)

    def test_ragged_clients_group_by_record_count(self):
        problem = ragged_problem("logistic", _SHAPES["ragged"])
        groups = objectives.record_groups(problem.features, problem.targets,
                                          problem.first_rows, problem.record_counts)
        assert [x.shape[1] for _, x, _ in groups] == [1, 7, 12, 30]
        assert [c.tolist() for c, _, _ in groups] == [[5], [0, 2], [3, 6], [1, 4]]
        for clients, x, y in groups:
            for c, xc, yc in zip(clients, x, y):
                assert np.array_equal(xc, problem.clients[c].features)
                assert np.array_equal(yc, problem.clients[c].targets)

    def test_rows_out_of_order_are_gathered(self, quad_problem):
        # the same clients twice, as in a block of two chains of one problem
        first = np.tile(quad_problem.first_rows, 2)
        counts = np.tile(quad_problem.record_counts, 2)
        (clients, x, _), = objectives.record_groups(
            quad_problem.features, quad_problem.targets, first, counts)
        assert np.array_equal(clients, np.arange(6)) and x.shape == (6, 30, 4)
        assert not np.shares_memory(x, quad_problem.features)
        assert np.array_equal(x[3:], x[:3])
        assert np.array_equal(x[:3].reshape(-1, 4), quad_problem.features)
