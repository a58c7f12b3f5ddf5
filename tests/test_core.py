from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from scaffold_sim.core import (
    ChainState,
    RunConfig,
    batch_uniform_indices,
    derive_stream,
    lambda_norm_sq,
)


def state(theta, xis):
    return ChainState(np.asarray(theta, float), np.asarray(xis, float))


class TestLambdaNorm:
    def test_identity_is_zero(self):
        a = state([1.0, 2.0], [[0.5, -1.0], [-0.5, 1.0]])
        assert lambda_norm_sq(a, a.copy(), gamma=0.1, local_steps=5) == 0.0

    def test_theta_term_only(self):
        a = state([1.0, 0.0], [[1.0, 2.0], [-1.0, -2.0]])
        b = state([0.0, 0.0], [[1.0, 2.0], [-1.0, -2.0]])
        assert lambda_norm_sq(a, b, 0.1, 5) == pytest.approx(1.0)

    def test_xi_term_only(self):
        # (0.01 * 25 / 2) * (4 + 4) = 1
        a = state([0.0, 0.0], [[2.0, 0.0], [-2.0, 0.0]])
        b = state([0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]])
        assert lambda_norm_sq(a, b, 0.1, 5) == pytest.approx(1.0)

    def test_symmetric_and_quadratic_scaling(self):
        rng = np.random.default_rng(0)
        a = state(rng.standard_normal(3), _centered(rng, 4, 3))
        b = state(rng.standard_normal(3), _centered(rng, 4, 3))
        d_ab = lambda_norm_sq(a, b, 0.2, 3)
        assert d_ab == pytest.approx(lambda_norm_sq(b, a, 0.2, 3))
        scaled = state(b.theta + 2.0 * (a.theta - b.theta),
                       b.xis + 2.0 * (a.xis - b.xis))
        assert lambda_norm_sq(scaled, b, 0.2, 3) == pytest.approx(4.0 * d_ab)
        assert d_ab > 0.0

    def test_shape_mismatch(self):
        a = state([0.0, 0.0], [[0.0, 0.0], [0.0, 0.0]])
        b = state([0.0], [[0.0], [0.0]])
        with pytest.raises(ValueError, match="shape"):
            lambda_norm_sq(a, b, 0.1, 5)


def _centered(rng, n, d):
    xis = rng.standard_normal((n, d))
    return xis - xis.mean(axis=0)


class TestDeriveStream:
    def test_same_tuple_identical_draws(self):
        a = derive_stream(42, 3, 1, 7).raw(100)
        b = derive_stream(42, 3, 1, 7).raw(100)
        assert np.array_equal(a, b)

    def test_adjacent_step_differs(self):
        a = derive_stream(42, 3, 1, 7).raw(1)
        b = derive_stream(42, 3, 1, 8).raw(1)
        assert a[0] != b[0]

    def test_collision_free_prefixes(self):
        # 10^6 distinct tuples, no identical 128-bit stream prefixes
        n = 1_000_000
        rng = np.random.default_rng(9)
        seeds = rng.integers(0, 2 ** 63, size=n, dtype=np.uint64)
        rounds = rng.integers(0, 2 ** 20, size=n, dtype=np.uint64)
        clients = rng.integers(0, 2 ** 16, size=n, dtype=np.uint64)
        steps = rng.integers(0, 2 ** 16, size=n, dtype=np.uint64)
        tuples = np.unique(np.stack([seeds, rounds, clients, steps], axis=1), axis=0)
        from scaffold_sim.core import _mix_key, _raw_words

        keys = _mix_key(tuples[:, 0], tuples[:, 1], tuples[:, 2], tuples[:, 3])
        prefixes = _raw_words(keys, 2)
        assert len(np.unique(prefixes, axis=0)) == len(tuples)

    def test_thread_count_invariance(self):
        def draws(_):
            return derive_stream(5, 1, 2, 3).uniform_indices(100, 50)

        serial = draws(None)
        for workers in (2, 8):
            with ThreadPoolExecutor(max_workers=workers) as pool:
                for result in pool.map(draws, range(workers)):
                    assert np.array_equal(result, serial)

    def test_batch_indices_match_per_tuple_streams(self):
        ids = np.array([4, 0, 9], dtype=np.uint64)
        batch = batch_uniform_indices(77, 12, ids, n_steps=5, n_records=37, batch=8)
        assert batch.shape == (5, 3, 8)
        for h in range(5):
            for i, c in enumerate(ids):
                expected = derive_stream(77, 12, int(c), h).uniform_indices(37, 8)
                assert np.array_equal(batch[h, i], expected)

    def test_batch_indices_with_seed_per_column_match_per_seed_calls(self):
        ids = np.array([4, 0, 9], dtype=np.uint64)
        seeds = [77, 2 ** 64 - 1, 0]
        batch = batch_uniform_indices(np.repeat(np.array(seeds, dtype=np.uint64), 3), 12,
                                      np.tile(ids, 3), n_steps=5, n_records=37, batch=8)
        assert batch.shape == (5, 9, 8)
        for s, seed in enumerate(seeds):
            alone = batch_uniform_indices(seed, 12, ids, n_steps=5, n_records=37, batch=8)
            assert np.array_equal(batch[:, 3 * s:3 * s + 3], alone)

    def test_uniforms_in_unit_interval(self):
        u = derive_stream(1, 0, 0, 0).uniforms(1000)
        assert np.all((0.0 <= u) & (u < 1.0))
        assert abs(u.mean() - 0.5) < 0.05


class TestChainState:
    def test_recenter_restores_sum_zero(self):
        st = state([0.0], [[1.0], [2.0], [3.0]])
        assert not st.on_state_space()
        st.recenter()
        assert st.on_state_space()
        assert st.sum_zero_violation() <= 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            ChainState(np.array([1.0, np.nan]), np.zeros((2, 2)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            ChainState(np.zeros(3), np.zeros((2, 2)))
        with pytest.raises(ValueError):
            ChainState(np.zeros(0), np.zeros((1, 0)))


class TestRunConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="gamma"):
            RunConfig(gamma=-0.1, local_steps=1, n_clients=1, rounds=1)
        with pytest.raises(ValueError, match="local_steps"):
            RunConfig(gamma=0.1, local_steps=0, n_clients=1, rounds=1)
        with pytest.raises(ValueError, match="algorithm"):
            RunConfig(gamma=0.1, local_steps=1, n_clients=1, rounds=1,
                      algorithm="sgd")

    def test_stepsize_diagnostics_warns_not_raises(self):
        cfg = RunConfig(gamma=1.0, local_steps=10, n_clients=2, rounds=1)
        with pytest.warns(RuntimeWarning, match="step-size conditions"):
            flags = cfg.stepsize_diagnostics(mu=1.0, big_l=10.0)
        assert not flags["gamma_le_inv_2L"]
        assert not flags["gammaH_le_inv_Lmu"]

        cfg2 = RunConfig(gamma=0.01, local_steps=5, n_clients=2, rounds=1)
        flags = cfg2.stepsize_diagnostics(mu=1.0, big_l=10.0)
        assert flags["gamma_le_inv_2L"] and flags["gammaH_le_inv_Lmu"]
