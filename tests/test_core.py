import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from scaffold_sim import core
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

    def test_batch_indices_with_round_and_size_per_column(self):
        ids = np.array([4, 0, 9, 4], dtype=np.uint64)
        rounds = np.array([12, 12, 3, 2 ** 40])
        sizes = np.array([37, 37, 5, 3200])
        batch = batch_uniform_indices(77, rounds, ids, n_steps=5, n_records=sizes, batch=8)
        for i in range(4):
            alone = batch_uniform_indices(77, int(rounds[i]), ids[i:i + 1], n_steps=5,
                                          n_records=int(sizes[i]), batch=8)
            assert np.array_equal(batch[:, i:i + 1], alone)
            assert batch[:, i].max() < sizes[i]

    @pytest.mark.parametrize("seed, round_idx, n_clients, n_steps, n_records, batch", [
        (5, 7, 2, 10, 3200, 10),
        (np.repeat(np.array([9, 10, 11], dtype=np.uint64), 100), 0, 300, 100, 200, 10),
        (2 ** 64 - 1, 2 ** 63, 3, 1, 1, 1),
    ])
    def test_in_place_words_equal_allocating_reference(self, seed, round_idx, n_clients,
                                                       n_steps, n_records, batch):
        ids = np.arange(n_clients, dtype=np.uint64)
        seed_before, ids_before = np.copy(seed), ids.copy()
        got = batch_uniform_indices(seed, round_idx, ids, n_steps, n_records, batch)
        expected = _reference_batch_indices(seed, round_idx, ids, n_steps, n_records, batch)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert np.array_equal(got, expected)
        # the in-place finalizer never touches the caller's arrays
        assert np.array_equal(seed, seed_before) and np.array_equal(ids, ids_before)

    @pytest.mark.parametrize("parts", [
        (0, 0, 0, 0),
        (2 ** 64 - 1, 2 ** 64 - 1, 2 ** 64 - 1, 2 ** 64 - 1),
        (np.uint64(9), np.int64(4), 3, np.array(2, dtype=np.uint64)),
        (77, 12, np.arange(5, dtype=np.uint64)[None, :], np.arange(3, dtype=np.uint64)[:, None]),
        (np.array([3, 2 ** 64 - 1, 0], dtype=np.uint64), 5,
         np.arange(3, dtype=np.uint64)[None, :], np.arange(4, dtype=np.uint64)[:, None]),
        (77, np.array([12, 0, 2 ** 40], dtype=np.uint64), np.arange(3, dtype=np.uint64)[None, :],
         np.arange(2, dtype=np.uint64)[:, None]),
        (np.array([1, 2], dtype=np.uint64), np.array([5, 6], dtype=np.uint64), 7, 8),
    ])
    def test_key_words_equal_numpy_scalar_reference(self, parts):
        # scalar and array parts, mixed and broadcast, give the reference words
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = core._mix_key(*parts)
        expected = _reference_mix_key(*parts)
        assert type(got) is type(expected) and np.asarray(got).dtype == np.uint64
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("bad", [-1, 2 ** 64])
    def test_key_part_out_of_uint64_range_rejected(self, bad):
        with pytest.raises(OverflowError):
            core._mix_key(bad, 0, 0, 0)
        with pytest.raises(OverflowError):
            core._mix_key(0, bad, np.arange(2, dtype=np.uint64), 0)

    def test_stream_words_equal_allocating_reference(self):
        stream = derive_stream(3, 1, 4, 1)
        key = _reference_mix_key(3, 1, 4, 1)
        assert stream.raw(50, offset=7).tolist() == _reference_raw_words(key, 50, 7).tolist()
        expected = (_reference_raw_words(key, 50) % np.uint64(13)).astype(np.int64)
        assert np.array_equal(stream.uniform_indices(13, 50), expected)

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


# Reference for the counter-based RNG: the allocate-per-operation functions
# the in-place ones replaced.
_U64 = np.uint64


def _reference_finalize(z):
    z = (z ^ (z >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> _U64(27))) * _U64(0x94D049BB133111EB)
    return z ^ (z >> _U64(31))


def _reference_mix_key(root_seed, round_idx, client, step):
    with np.errstate(over="ignore"):
        k = _reference_finalize(_U64(root_seed) + _U64(0x9E3779B97F4A7C15))
        k = _reference_finalize(k ^ (np.asarray(round_idx, dtype=_U64) + _U64(0xD1B54A32D192ED03)))
        k = _reference_finalize(k ^ (np.asarray(client, dtype=_U64) + _U64(0xAEF17502108EF2D9)))
        k = _reference_finalize(k ^ (np.asarray(step, dtype=_U64) + _U64(0x94D049BB133111EB)))
    return k


def _reference_raw_words(key, count, offset=0):
    key = np.asarray(key, dtype=_U64)
    ctr = np.arange(offset, offset + count, dtype=_U64) + _U64(1)
    with np.errstate(over="ignore"):
        return _reference_finalize(key[..., None] + ctr * _U64(0x9E3779B97F4A7C15))


def _reference_batch_indices(root_seed, round_idx, client_ids, n_steps, n_records, batch):
    client_ids = np.asarray(client_ids, dtype=_U64)
    steps = np.arange(n_steps, dtype=_U64)
    keys = _reference_mix_key(root_seed, round_idx, client_ids[None, :], steps[:, None])
    return (_reference_raw_words(keys, batch) % _U64(n_records)).astype(np.int64)
