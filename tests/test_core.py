import math
import re
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaffold_sim import core, datagen, objectives
from scaffold_sim.core import (
    ChainState,
    RunConfig,
    batch_uniform_indices,
    lambda_norm_sq,
)

from reference import derive_stream, raw_words


def state(theta, xis):
    return ChainState(np.asarray(theta, float), np.asarray(xis, float))


class TestLambdaNorm:
    def test_identity_is_zero(self):
        a = state([1.0, 2.0], [[0.5, -1.0], [-0.5, 1.0]])
        b = ChainState(a.theta.copy(), a.xis.copy())
        assert lambda_norm_sq(a, b, gamma=0.1, local_steps=5) == 0.0

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


_U64_VALUES = st.integers(0, 2 ** 64 - 1)


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
        from scaffold_sim.core import _mix_key

        keys = _mix_key(tuples[:, 0], tuples[:, 1], tuples[:, 2], tuples[:, 3])
        prefixes = raw_words(keys, 2)
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
        (np.arange(7, dtype=np.uint64), 3, 7, 1300, 97, 9),  # ends inside an RNG block
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

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_cols=st.integers(1, 6), n_steps=st.integers(1, 4),
           batch=st.integers(1, 5))
    def test_batch_columns_equal_scalar_calls_property(self, data, n_cols, n_steps, batch):
        def column(values):
            return np.array(data.draw(st.lists(values, min_size=n_cols, max_size=n_cols)),
                            dtype=np.uint64)

        seeds, rounds, ids = (column(_U64_VALUES) for _ in range(3))
        sizes = column(st.integers(1, 2 ** 32))
        before = [a.copy() for a in (seeds, rounds, ids, sizes)]
        got = batch_uniform_indices(seeds, rounds, ids, n_steps, sizes, batch)
        assert got.shape == (n_steps, n_cols, batch)
        for i in range(n_cols):
            alone = batch_uniform_indices(int(seeds[i]), int(rounds[i]), ids[i:i + 1],
                                          n_steps, int(sizes[i]), batch)
            assert np.array_equal(got[:, i:i + 1], alone)
        h, i = data.draw(st.integers(0, n_steps - 1)), data.draw(st.integers(0, n_cols - 1))
        stream = derive_stream(int(seeds[i]), int(rounds[i]), int(ids[i]), h)
        assert np.array_equal(got[h, i], stream.uniform_indices(int(sizes[i]), batch))
        # pure: the inputs are untouched and a second call repeats the draws
        for after, kept in zip((seeds, rounds, ids, sizes), before):
            assert np.array_equal(after, kept)
        assert np.array_equal(batch_uniform_indices(seeds, rounds, ids, n_steps, sizes, batch),
                              got)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n_rounds=st.integers(1, 4), n_cols=st.integers(1, 5),
           n_steps=st.integers(1, 3), batch=st.integers(1, 4), per_row=st.booleans())
    def test_leading_rounds_axis_equals_per_round_calls_property(self, data, n_rounds, n_cols,
                                                                 n_steps, batch, per_row):
        # round_idx (B, 1, 1) or (B, 1, R) draws B rounds in one call
        def values(strategy, size):
            return data.draw(st.lists(strategy, min_size=size, max_size=size))

        seeds, ids = (np.array(values(_U64_VALUES, n_cols), dtype=np.uint64) for _ in range(2))
        sizes = np.array(values(st.integers(1, 2 ** 32), n_cols), dtype=np.uint64)
        rounds = np.array([values(_U64_VALUES, n_cols if per_row else 1)
                           for _ in range(n_rounds)], dtype=np.uint64)
        got = batch_uniform_indices(seeds, rounds[:, None, :], ids, n_steps, sizes, batch)
        assert got.shape == (n_rounds, n_steps, n_cols, batch)
        for t in range(n_rounds):
            round_idx = rounds[t] if per_row else int(rounds[t, 0])
            alone = batch_uniform_indices(seeds, round_idx, ids, n_steps, sizes, batch)
            assert np.array_equal(got[t], alone)
            expected = _reference_batch_indices(seeds, round_idx, ids, n_steps, sizes[:, None],
                                                batch)
            assert np.array_equal(got[t], expected)

    @settings(max_examples=60, deadline=None)
    @given(tuples=st.sets(st.tuples(*[st.integers(0, 3) | _U64_VALUES] * 4),
                          min_size=2, max_size=40))
    def test_distinct_tuples_have_distinct_prefixes_property(self, tuples):
        prefixes = {tuple(derive_stream(*t).raw(2).tolist()) for t in tuples}
        assert len(prefixes) == len(tuples)


class TestBlockedDraws:
    # batch_uniform_indices passes over its words in blocks of whole steps
    # of about core._BLOCK_WORDS words; these draws end inside a block
    @pytest.mark.parametrize("n_cols, batch, n_steps, rounds_shape", [
        (7, 9, 1300, (7,)),
        (7, 9, 400, (3, 1, 1)),
        (7, 9, 400, (3, 1, 7)),
        (3000, 11, 3, (3000,)),  # a step longer than a block is a block of its own
    ])
    def test_per_column_parts_across_blocks_equal_reference(self, n_cols, batch, n_steps,
                                                            rounds_shape):
        step_words = n_cols * batch
        block = max(1, core._BLOCK_WORDS // step_words) * step_words
        total = n_steps * step_words * (rounds_shape[0] if len(rounds_shape) == 3 else 1)
        assert total > 2 * block and (total % block != 0 or block == step_words)
        rng = np.random.default_rng(n_steps)
        seeds, ids = (rng.integers(0, 2 ** 64 - 1, n_cols, dtype=np.uint64, endpoint=True)
                      for _ in range(2))
        rounds = rng.integers(0, 2 ** 64 - 1, rounds_shape, dtype=np.uint64, endpoint=True)
        sizes = rng.integers(1, 2 ** 32, n_cols, dtype=np.uint64)
        before = [a.copy() for a in (seeds, rounds, ids, sizes)]
        got = batch_uniform_indices(seeds, rounds, ids, n_steps, sizes, batch)
        assert got.dtype == np.int64 and got.flags.c_contiguous
        assert got.shape == rounds_shape[:-2] + (n_steps, n_cols, batch)
        expected = _reference_batch_indices(seeds, rounds, ids, n_steps, sizes[:, None], batch)
        assert np.array_equal(got, expected)
        for after, kept in zip((seeds, rounds, ids, sizes), before):
            assert np.array_equal(after, kept)


class TestChainState:
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
            RunConfig(gamma=-0.1, local_steps=1, rounds=1)
        with pytest.raises(ValueError, match="gamma"):
            RunConfig(gamma=float("nan"), local_steps=1, rounds=1)
        with pytest.raises(ValueError, match="local_steps"):
            RunConfig(gamma=0.1, local_steps=0, rounds=1)

    def test_stepsize_diagnostics_warns_not_raises(self):
        cfg = RunConfig(gamma=1.0, local_steps=10, rounds=1)
        with pytest.warns(RuntimeWarning, match="step-size conditions"):
            flags = cfg.stepsize_diagnostics(mu=1.0, big_l=10.0)
        assert not flags["gamma_le_inv_2L"]
        assert not flags["gammaH_le_inv_Lmu"]

        cfg2 = RunConfig(gamma=0.01, local_steps=5, rounds=1)
        flags = cfg2.stepsize_diagnostics(mu=1.0, big_l=10.0)
        assert flags["gamma_le_inv_2L"] and flags["gammaH_le_inv_Lmu"]


class TestArgumentsFailWhereTheyEnter:
    # each was accepted: gamma=True ran at step size 1, gamma=inf failed
    # only at round 0, and batch_size=2.5 entered the first-order prediction
    @pytest.mark.parametrize("name, value", [
        ("gamma", True), ("gamma", math.inf), ("batch_size", 2.5), ("batch_size", True),
        ("l2_weight", True), ("l2_weight", math.nan), ("l2_weight", math.inf),
    ])
    def test_argument_rejected_naming_it(self, name, value):
        kind = "an integer" if name == "batch_size" else "a finite number"
        with pytest.raises(ValueError, match=re.escape(f"{name} must be {kind}, got {value!r}")):
            if name == "gamma":
                RunConfig(gamma=value, local_steps=1, rounds=1)
            else:
                client = datagen.ClientDataset(np.ones((4, 2)), np.ones(4))
                objectives.Problem([client], "quadratic", **{name: value})


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
