import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaffold_sim import algorithms, datagen, objectives, stationary
from scaffold_sim.core import ChainState, RunConfig, lambda_norm_sq

from conftest import certificate_for, random_problem
from reference import (
    broadcast_minibatch_gradient,
    derive_stream,
    endpoints,
    minibatch_gradient,
    on_state_space,
    stochastic_gradient,
)


def make_config(problem, **kwargs):
    defaults = dict(gamma=0.05, local_steps=5, rounds=10, seed=0)
    defaults.update(kwargs)
    return RunConfig(**defaults)


def _cells_round(problem, config, n_scaffold, seeds, thetas, xis, round_index):
    # K algorithms x S seeds of one problem as one block: thetas (K, S, d),
    # xis (K, S, N, d); a single algorithm keeps no leading axis of one
    block = algorithms.ChainBlock([(problem, replace(config, seed=seed)) for seed in seeds])
    n_algos, n_seeds, n, d = xis.shape
    lead = (n_algos,) if n_algos > 1 else ()
    thetas, xis = next(algorithms.block_rounds(
        block, n_scaffold, thetas.reshape(lead + (n_seeds, d)),
        xis.reshape(lead + (n_seeds * n, d)), [round_index]))
    return thetas.reshape(n_algos, n_seeds, d), xis.reshape(n_algos, n_seeds, n, d)


class TestScaffoldRound:
    def test_hand_computed_two_client_round(self, two_client_1d):
        # H=2, gamma=0.1, deterministic gradients from theta=1, xi=0:
        # client 1 (optimum 1): stays at 1; client 2 (optimum -1):
        #   step 1: 1 - 0.1*(1+1) = 0.8; step 2: 0.8 - 0.1*1.8 = 0.62
        # average 0.81; xi moves by (endpoint - avg)/(0.1*2) = +-0.95
        config = make_config(two_client_1d, gamma=0.1, local_steps=2,
                             deterministic=True)
        state = ChainState(np.array([1.0]), np.zeros((2, 1)))
        out = algorithms.scaffold_round(state, two_client_1d, config, 0)
        assert out.theta[0] == pytest.approx(0.81, abs=1e-12)
        assert out.xis[0, 0] == pytest.approx(0.95, abs=1e-12)
        assert out.xis[1, 0] == pytest.approx(-0.95, abs=1e-12)

    def test_matches_straight_line_oracle(self, quad_problem):
        # independent re-derivation: explicit per-client python loop
        config = make_config(quad_problem, gamma=0.02, local_steps=4, seed=9)
        rng = np.random.default_rng(5)
        xis = rng.standard_normal((quad_problem.n_clients, quad_problem.d))
        xis -= xis.mean(axis=0)
        state = ChainState(rng.standard_normal(quad_problem.d), xis)

        endpoints = []
        for c, ds in enumerate(quad_problem.clients):
            theta = state.theta.copy()
            for h in range(config.local_steps):
                stream = derive_stream(config.seed, 0, ds.client_id, h)
                grad = stochastic_gradient(quad_problem, c, theta, stream)
                theta = theta - config.gamma * (grad + state.xis[c])
            endpoints.append(theta)
        endpoints = np.stack(endpoints)
        theta_next = endpoints.mean(axis=0)
        xis_next = state.xis + (endpoints - theta_next) / (config.gamma * config.local_steps)
        xis_next -= xis_next.mean(axis=0)

        out = algorithms.scaffold_round(state, quad_problem, config, 0)
        assert np.allclose(out.theta, theta_next, atol=1e-12)
        assert np.allclose(out.xis, xis_next, atol=1e-12)

    def test_fixed_point_is_stationary_without_noise(self, two_client_1d):
        cert = certificate_for(two_client_1d)
        config = make_config(two_client_1d, gamma=0.1, local_steps=7,
                             deterministic=True)
        state = ChainState(cert.theta_star.copy(), cert.xi_star.copy())
        out = algorithms.scaffold_round(state, two_client_1d, config, 0)
        assert np.allclose(out.theta, cert.theta_star, atol=1e-14)
        assert np.allclose(out.xis, cert.xi_star, atol=1e-14)

    def test_sum_zero_preserved(self, logistic_problem):
        config = make_config(logistic_problem, seed=2)
        state = ChainState.zeros(logistic_problem.d, logistic_problem.n_clients)
        for t in range(8):
            state = algorithms.scaffold_round(state, logistic_problem, config, t)
            assert on_state_space(state.theta, state.xis, tol=1e-12)

    def test_single_client_controls_stay_zero(self):
        problem = random_problem("quadratic", n_clients=1, seed=12)
        config = make_config(problem, seed=4)
        state = ChainState.zeros(problem.d, 1)
        for t in range(5):
            state = algorithms.scaffold_round(state, problem, config, t)
        assert np.array_equal(state.xis, np.zeros((1, problem.d)))

    def test_single_client_bitwise_equals_sgd(self):
        # with one client the round is H plain SGD steps, bit for bit
        problem = random_problem("logistic", n_clients=1, seed=13)
        config = make_config(problem, gamma=0.07, local_steps=6, seed=21)
        state = ChainState.zeros(problem.d, 1)
        theta = np.zeros(problem.d)
        for t in range(3):
            state = algorithms.scaffold_round(state, problem, config, t)
            for h in range(config.local_steps):
                stream = derive_stream(config.seed, t, problem.clients[0].client_id, h)
                grad = stochastic_gradient(problem, 0, theta, stream)
                theta = theta - config.gamma * grad
        assert np.array_equal(state.theta, theta)

    def test_permutation_equivariance(self):
        # reordering the client list must not change the round output
        problem = random_problem("quadratic", n_clients=4, seed=14)
        perm = [2, 0, 3, 1]
        shuffled = objectives.Problem(
            [problem.clients[i] for i in perm], problem.loss,
            problem.l2_weight, problem.batch_size,
        )
        config = make_config(problem, seed=6)
        rng = np.random.default_rng(7)
        xis = rng.standard_normal((4, problem.d))
        xis -= xis.mean(axis=0)
        state = ChainState(rng.standard_normal(problem.d), xis)
        state_p = ChainState(state.theta.copy(), state.xis[perm].copy())
        out = algorithms.scaffold_round(state, problem, config, 0)
        out_p = algorithms.scaffold_round(state_p, shuffled, config, 0)
        assert np.allclose(out.theta, out_p.theta, atol=1e-12)
        assert np.allclose(out.xis[perm], out_p.xis, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), counts=st.lists(st.integers(1, 12), min_size=1, max_size=6),
           d=st.integers(1, 4), loss=st.sampled_from(["quadratic", "logistic"]),
           batch=st.sampled_from([2, 5, None]), seed=st.integers(0, 2 ** 64 - 1),
           round_index=st.integers(0, 2 ** 20), state_seed=st.integers(0, 2 ** 32))
    def test_permutation_equivariance_property(self, data, counts, d, loss, batch, seed,
                                               round_index, state_seed):
        # clients of any sizes, listed in any order, with their ids: the
        # round's average and each client's control variate do not change
        perm = data.draw(st.permutations(range(len(counts))))
        rng = np.random.default_rng(state_seed)
        clients = [datagen.ClientDataset(rng.standard_normal((n, d)),
                                         np.sign(rng.standard_normal(n)),
                                         client_id=int(rng.integers(2 ** 32)) + c)
                   for c, n in enumerate(counts)]
        problem = objectives.Problem(clients, loss, 0.1, batch_size=batch or 3)
        shuffled = objectives.Problem([clients[i] for i in perm], loss, 0.1,
                                      batch_size=batch or 3)
        config = make_config(problem, gamma=0.05, local_steps=3, deterministic=batch is None,
                             seed=seed)
        xis = rng.standard_normal((len(counts), d))
        xis -= xis.mean(axis=0)
        state = ChainState(rng.standard_normal(d), xis)
        out = algorithms.scaffold_round(state, problem, config, round_index)
        out_p = algorithms.scaffold_round(ChainState(state.theta, state.xis[perm]),
                                          shuffled, config, round_index)
        assert np.allclose(out.theta, out_p.theta, rtol=0.0, atol=1e-12)
        assert np.allclose(out.xis[perm], out_p.xis, rtol=0.0, atol=1e-12)


class TestFedavgRound:
    def test_single_local_step_is_average_minibatch_step(self, quad_problem):
        config = make_config(quad_problem, gamma=0.03, local_steps=1, seed=8)
        theta = np.full(quad_problem.d, 0.2)
        grads = [
            stochastic_gradient(quad_problem, c, theta,
                                derive_stream(8, 0, quad_problem.clients[c].client_id, 0))
            for c in range(quad_problem.n_clients)
        ]
        expected = theta - config.gamma * np.mean(grads, axis=0)
        out = algorithms.fedavg_round(theta, quad_problem, config, 0)
        assert np.allclose(out, expected, atol=1e-15)

    def test_symmetric_two_client_average_stays_put(self, two_client_1d):
        config = make_config(two_client_1d, gamma=0.1, local_steps=3, deterministic=True)
        out = algorithms.fedavg_round(np.array([0.0]), two_client_1d, config, 0)
        assert out[0] == pytest.approx(0.0, abs=1e-15)

    def test_asymmetric_hand_value(self, two_client_1d):
        # H=2, gamma=0.1 from theta=1: endpoints 1.0 and 0.62, average 0.81
        config = make_config(two_client_1d, gamma=0.1, local_steps=2, deterministic=True)
        out = algorithms.fedavg_round(np.array([1.0]), two_client_1d, config, 0)
        assert out[0] == pytest.approx(0.81, abs=1e-12)


class TestRun:
    def test_zero_rounds_records_initial_point(self, quad_problem):
        cert = certificate_for(quad_problem)
        config = make_config(quad_problem, rounds=0)
        mse = algorithms.run(quad_problem, cert.theta_star, config)
        assert mse.shape == (1,)
        assert mse[0] == pytest.approx(np.sum(cert.theta_star ** 2))

    @pytest.mark.parametrize("algorithm", ["scaffold", "fedavg"])
    def test_deterministic_runs_decrease_monotonically(self, quad_problem, algorithm):
        cert = certificate_for(quad_problem)
        config = make_config(quad_problem, gamma=0.02, local_steps=3,
                             rounds=150, deterministic=True)
        mse = algorithms.run(quad_problem, cert.theta_star, config, algorithm)
        assert np.all(np.diff(mse) <= 1e-15)
        assert mse[-1] < 1e-3 * mse[0]
        if algorithm == "scaffold":
            # the weighted distance of the full state to (theta*, xi*)
            target = ChainState(cert.theta_star, cert.xi_star)
            state = ChainState.zeros(quad_problem.d, quad_problem.n_clients)
            lam = [lambda_norm_sq(state, target, config.gamma, config.local_steps)]
            for t in range(config.rounds):
                state = algorithms.scaffold_round(state, quad_problem, config, t)
                lam.append(lambda_norm_sq(state, target, config.gamma, config.local_steps))
            assert np.all(np.diff(lam) <= 1e-15)

    def test_divergence_raises(self, quad_problem):
        cert = certificate_for(quad_problem)
        config = make_config(quad_problem, gamma=50.0, local_steps=20, rounds=200)
        with pytest.raises(algorithms.DivergenceError) as info:
            algorithms.run(quad_problem, cert.theta_star, config)
        assert info.value.round_index >= 0

    def test_seed_reproducibility(self, logistic_problem):
        cert = certificate_for(logistic_problem)
        config = make_config(logistic_problem, rounds=5, seed=33)
        a = algorithms.run(logistic_problem, cert.theta_star, config)
        b = algorithms.run(logistic_problem, cert.theta_star, config)
        assert np.array_equal(a, b)
        other = algorithms.run(logistic_problem, cert.theta_star,
                               make_config(logistic_problem, rounds=5, seed=34))
        assert not np.array_equal(a, other)

    def test_sweep_without_seeds_raises(self, quad_problem):
        with pytest.raises(ValueError, match="need at least one chain"):
            algorithms.run_sweep(quad_problem, np.zeros(quad_problem.d),
                                 make_config(quad_problem), ["scaffold"], [])

    def test_sweep_without_algorithms_raises(self, quad_problem):
        with pytest.raises(ValueError, match="need at least one algorithm"):
            algorithms.run_sweep(quad_problem, np.zeros(quad_problem.d),
                                 make_config(quad_problem), [], [0])

    @pytest.mark.parametrize("algos, seeds, message", [
        (["scaffold", "fedavg", "scaffold"], [0], "repeated algorithms entry 'scaffold'"),
        (["scaffold"], [3, 0, 3], "repeated seeds entry 3"),
    ], ids=["algorithms", "seeds"])
    def test_sweep_with_repeated_entry_raises(self, quad_problem, algos, seeds, message):
        # two chains under one (algorithm, seed) key would leave one unreported
        with pytest.raises(ValueError, match=message):
            algorithms.run_sweep(quad_problem, np.zeros(quad_problem.d),
                                 make_config(quad_problem), algos, seeds)


class TestCoupledRun:
    def test_identical_chains_stay_identical(self, quad_problem):
        config = make_config(quad_problem, rounds=6, seed=17)
        state = ChainState.zeros(quad_problem.d, quad_problem.n_clients)
        [dist] = algorithms.coupled_run(quad_problem, config, [config.seed],
                                        [(state, ChainState(state.theta.copy(), state.xis.copy()))])
        assert dist.shape == (7,)
        assert np.all(dist == 0.0)

    def test_distance_decays_and_stays_positive(self, quad_problem):
        config = make_config(quad_problem, gamma=0.02, local_steps=5,
                             rounds=150, seed=18)
        rng = np.random.default_rng(19)
        a = ChainState.zeros(quad_problem.d, quad_problem.n_clients)
        b = ChainState(rng.standard_normal(quad_problem.d),
                       np.zeros((quad_problem.n_clients, quad_problem.d)))
        [dist] = algorithms.coupled_run(quad_problem, config, [config.seed], [(a, b)])
        assert np.all(dist > 0.0)
        assert dist[-1] < 1e-6 * dist[0]

    def test_inputs_not_mutated(self, quad_problem):
        config = make_config(quad_problem, rounds=3)
        a = ChainState.zeros(quad_problem.d, quad_problem.n_clients)
        b = ChainState(np.ones(quad_problem.d),
                       np.zeros((quad_problem.n_clients, quad_problem.d)))
        theta_before = b.theta.copy()
        algorithms.coupled_run(quad_problem, config, [config.seed], [(a, b)])
        assert np.array_equal(b.theta, theta_before)

    def test_one_start_pair_per_seed(self, quad_problem):
        config = make_config(quad_problem, rounds=2)
        a = ChainState.zeros(quad_problem.d, quad_problem.n_clients)
        with pytest.raises(ValueError, match="one start pair per seed"):
            algorithms.coupled_run(quad_problem, config, [0, 1], [(a, a)])

    @pytest.mark.parametrize("extra_d, extra_n", [(1, 0), (0, 1)])
    def test_start_states_take_the_problem_shapes(self, quad_problem, extra_d, extra_n):
        config = make_config(quad_problem, rounds=2)
        d, n = quad_problem.d, quad_problem.n_clients
        a = ChainState.zeros(d, n)
        bad = ChainState.zeros(d + extra_d, n + extra_n)
        for pair in ((a, bad), (bad, a)):
            with pytest.raises(ValueError, match=rf"shapes \({d},\) and \({n}, {d}\)"):
                algorithms.coupled_run(quad_problem, config, [0, 1], [(a, a), pair])

    def test_no_seeds_raises(self, quad_problem):
        with pytest.raises(ValueError, match="need at least one chain"):
            algorithms.coupled_run(quad_problem, make_config(quad_problem), [], [])


class TestRaggedClients:
    def test_uneven_record_counts_match_slow_path_semantics(self):
        # clients with different record counts use the per-client loop;
        # the round must still agree with a direct re-derivation
        rng = np.random.default_rng(23)
        clients = [
            datagen.ClientDataset(rng.standard_normal((n, 3)),
                                  rng.standard_normal(n), client_id=i)
            for i, n in enumerate([10, 25])
        ]
        problem = objectives.Problem(clients, "quadratic", 0.1, batch_size=4)
        config = make_config(problem, gamma=0.05, local_steps=3, seed=41)
        state = ChainState.zeros(3, 2)
        out = algorithms.scaffold_round(state, problem, config, 0)

        endpoints = []
        for c, ds in enumerate(clients):
            theta = state.theta.copy()
            for h in range(3):
                stream = derive_stream(41, 0, ds.client_id, h)
                grad = stochastic_gradient(problem, c, theta, stream)
                theta = theta - 0.05 * grad
            endpoints.append(theta)
        endpoints = np.stack(endpoints)
        assert np.allclose(out.theta, endpoints.mean(axis=0), atol=1e-15)


class TestFlatGather:
    def test_round_matches_fancy_index_loop(self, logistic_problem):
        # reference: the two-array fancy-index gather the flat take replaced
        config = make_config(logistic_problem, local_steps=4, seed=11)
        rng = np.random.default_rng(8)
        theta = rng.standard_normal(logistic_problem.d)
        corrections = rng.standard_normal((logistic_problem.n_clients, logistic_problem.d))
        n, d = logistic_problem.n_clients, logistic_problem.d
        features, targets, ids = (logistic_problem.features.reshape(n, -1, d),
                                  logistic_problem.targets.reshape(n, -1),
                                  logistic_problem.client_ids)
        idx = algorithms.batch_uniform_indices(
            config.seed, 2, ids, config.local_steps, features.shape[1],
            logistic_problem.batch_size)
        rows = np.arange(logistic_problem.n_clients)[:, None]
        thetas = np.tile(theta, (logistic_problem.n_clients, 1))
        for h in range(config.local_steps):
            grads = objectives.stacked_minibatch_gradient(
                features[rows, idx[h]], targets[rows, idx[h]], thetas,
                logistic_problem.loss, logistic_problem.l2_weight)
            thetas = thetas - config.gamma * (grads + corrections)
        block = algorithms.ChainBlock([(logistic_problem, config)])
        got = algorithms._endpoints(block, theta[None], corrections,
                                    algorithms._draw(block, [2])[0])
        assert np.array_equal(got, thetas)


class TestDivergenceCheck:
    def test_round_raises_with_its_index(self, quad_problem):
        config = make_config(quad_problem, gamma=1e200, local_steps=3)
        state = ChainState(np.ones(quad_problem.d), np.zeros((quad_problem.n_clients,
                                                              quad_problem.d)))
        with pytest.raises(algorithms.DivergenceError) as info:
            algorithms.scaffold_round(state, quad_problem, config, 17)
        assert info.value.round_index == 17

    def test_coupled_run_raises(self, quad_problem):
        config = make_config(quad_problem, gamma=50.0, local_steps=20, rounds=200)
        a = ChainState.zeros(quad_problem.d, quad_problem.n_clients)
        b = ChainState(np.ones(quad_problem.d), np.zeros((quad_problem.n_clients,
                                                          quad_problem.d)))
        with pytest.raises(algorithms.DivergenceError):
            algorithms.coupled_run(quad_problem, config, [config.seed], [(a, b)])

    def test_coupled_run_raises_at_the_earliest_seed_round(self, quad_problem):
        # the pair from the larger start overflows first; the block reports
        # the earliest round of the one-seed calls
        config = make_config(quad_problem, gamma=50.0, local_steps=20, rounds=200)
        d, n = quad_problem.d, quad_problem.n_clients
        starts = [(ChainState.zeros(d, n), ChainState(scale * np.ones(d), np.zeros((n, d))))
                  for scale in (1.0, 1e100)]
        rounds = []
        for seed, pair in zip([3, 4], starts):
            with pytest.raises(algorithms.DivergenceError) as alone:
                algorithms.coupled_run(quad_problem, config, [seed], [pair])
            rounds.append(alone.value.round_index)
        assert rounds[1] < rounds[0]
        with pytest.raises(algorithms.DivergenceError) as info:
            algorithms.coupled_run(quad_problem, config, [3, 4], starts)
        assert info.value.round_index == rounds[1]


def _coupled_starts(rng, problem, n_pairs):
    # per pair: zero, and a random theta with random sum-zero control variates
    starts = []
    for _ in range(n_pairs):
        xis = rng.standard_normal((problem.n_clients, problem.d))
        starts.append((ChainState.zeros(problem.d, problem.n_clients),
                       ChainState(rng.standard_normal(problem.d), xis - xis.mean(axis=0))))
    return starts


def _coupled_scaffold_rounds(problem, config, a, b):
    # the coupled distance from two separate scaffold_round chains of one seed
    expected = [lambda_norm_sq(a, b, config.gamma, config.local_steps)]
    for t in range(config.rounds):
        a = algorithms.scaffold_round(a, problem, config, t)
        b = algorithms.scaffold_round(b, problem, config, t)
        expected.append(lambda_norm_sq(a, b, config.gamma, config.local_steps))
    return expected


# Reference for the block round kernel: the per-chain loop it replaced, with
# the one-chain gradient einsums, so each chain is drawn and gathered alone.
def _reference_endpoints(problem, theta, corrections, round_index, config):
    features = np.stack([c.features for c in problem.clients])
    targets = np.stack([c.targets for c in problem.clients])
    ids = [c.client_id for c in problem.clients]
    idx = algorithms.batch_uniform_indices(
        config.seed, round_index, ids, config.local_steps, features.shape[1],
        problem.batch_size)
    rows = np.arange(problem.n_clients)[:, None]
    thetas = np.tile(theta, (problem.n_clients, 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for h in range(config.local_steps):
            grads = minibatch_gradient(features[rows, idx[h]], targets[rows, idx[h]],
                                       thetas, problem.loss, problem.l2_weight)
            thetas = thetas - config.gamma * (grads + corrections)
    return thetas


def _reference_scaffold_round(theta, xis, problem, config, t):
    endpoints = _reference_endpoints(problem, theta, xis, t, config)
    with np.errstate(over="ignore", invalid="ignore"):
        theta_next = endpoints.mean(axis=0)
        xis_next = xis + (endpoints - theta_next) / (config.gamma * config.local_steps)
        xis_next -= xis_next.mean(axis=0, keepdims=True)
    if not (np.isfinite(theta_next).all() and np.isfinite(xis_next).all()):
        raise algorithms.DivergenceError(t)
    return theta_next, xis_next


def _reference_run(problem, cert, config, algorithm):
    """Per-round MSE of one chain, round by round; raises DivergenceError."""
    d, n = problem.d, problem.n_clients
    theta, xis = np.zeros(d), np.zeros((n, d))
    mse = []
    for t in range(config.rounds + 1):
        if t > 0:
            if algorithm == "scaffold":
                theta, xis = _reference_scaffold_round(theta, xis, problem, config, t - 1)
            else:
                theta = _reference_endpoints(problem, theta, np.zeros((n, d)), t - 1,
                                             config).mean(axis=0)
                if not np.isfinite(theta).all():
                    raise algorithms.DivergenceError(t - 1)
        with np.errstate(over="ignore"):
            mse.append(np.sum((theta - cert.theta_star) ** 2))
    return np.array(mse)


def _sweep_matches_reference(problem, cert, config, algos, seeds):
    sweep = algorithms.run_sweep(problem, cert.theta_star, config, algos, seeds)
    assert set(sweep) == {(a, s) for a in algos for s in seeds}
    for (algo, seed), mse in sweep.items():
        assert mse.shape == (config.rounds + 1,)
        assert np.array_equal(mse, _reference_run(problem, cert, replace(config, seed=seed),
                                                  algo))


class TestRoundKernel:
    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_sweep_cells_equal_separate_runs(self, loss):
        problem = random_problem(loss, n_clients=4, seed=31)
        cert = certificate_for(problem)
        config = make_config(problem, gamma=0.05, local_steps=6, rounds=12)
        _sweep_matches_reference(problem, cert, config, ["scaffold", "fedavg"], [0, 1, 7])

    def test_run_is_the_one_chain_sweep(self, logistic_problem):
        cert = certificate_for(logistic_problem)
        config = make_config(logistic_problem, rounds=6, seed=5)
        for algo in ("scaffold", "fedavg"):
            assert np.array_equal(algorithms.run(logistic_problem, cert.theta_star, config, algo),
                                  _reference_run(logistic_problem, cert, config, algo))

    def test_deterministic_sweep_equals_separate_runs(self, quad_problem):
        cert = certificate_for(quad_problem)
        config = make_config(quad_problem, local_steps=3, rounds=5, deterministic=True)
        sweep = algorithms.run_sweep(quad_problem, cert.theta_star, config,
                                     ["fedavg", "scaffold"], [0, 3])
        for (algo, seed), mse in sweep.items():
            alone = algorithms.run(quad_problem, cert.theta_star, replace(config, seed=seed), algo)
            assert np.array_equal(mse, alone)

    def test_ragged_sweep_equals_separate_rounds(self):
        rng = np.random.default_rng(29)
        clients = [datagen.ClientDataset(rng.standard_normal((n, 3)),
                                         rng.standard_normal(n), client_id=i)
                   for i, n in enumerate([7, 12])]
        problem = objectives.Problem(clients, "quadratic", 0.1, batch_size=3)
        cert = certificate_for(problem)
        config = make_config(problem, local_steps=3, rounds=4)
        sweep = algorithms.run_sweep(problem, cert.theta_star, config,
                                     ["scaffold", "fedavg"], [2, 9])
        for (algo, seed), mse in sweep.items():
            alone = algorithms.run(problem, cert.theta_star, replace(config, seed=seed), algo)
            assert np.array_equal(mse, alone)

    def test_coupled_run_equals_two_scaffold_rounds(self, logistic_problem):
        # three seeds, each pair from its own start, as one block
        config = make_config(logistic_problem, rounds=8)
        rng = np.random.default_rng(4)
        seeds = [12, 5, 30]
        starts = _coupled_starts(rng, logistic_problem, len(seeds))
        dist = algorithms.coupled_run(logistic_problem, config, seeds, starts)
        assert dist.shape == (3, config.rounds + 1)
        for seed, (a, b), row in zip(seeds, starts, dist):
            expected = _coupled_scaffold_rounds(logistic_problem, replace(config, seed=seed), a, b)
            assert np.array_equal(row, expected)

    def test_exact_coupled_run_over_ragged_clients_equals_two_scaffold_rounds(self):
        # exact gradients over clients of 7, 12 and 3 records: the block of
        # three pairs fills its gradients group by group
        rng = np.random.default_rng(6)
        clients = [datagen.ClientDataset(rng.standard_normal((n, 3)),
                                         rng.standard_normal(n), client_id=i)
                   for i, n in enumerate([7, 12, 3])]
        problem = objectives.Problem(clients, "quadratic", 0.1, batch_size=3)
        config = make_config(problem, gamma=0.05, local_steps=3, rounds=6,
                             deterministic=True)
        seeds = [0, 1, 2]
        starts = _coupled_starts(rng, problem, len(seeds))
        dist = algorithms.coupled_run(problem, config, seeds, starts)
        for seed, (a, b), row in zip(seeds, starts, dist):
            expected = _coupled_scaffold_rounds(problem, replace(config, seed=seed), a, b)
            assert np.array_equal(row, expected)
        assert np.all(np.diff(dist, axis=1) < 0.0)

    def test_one_diverging_chain_raises_at_its_round(self, quad_problem):
        cert = certificate_for(quad_problem)
        config = make_config(quad_problem, gamma=2.0, local_steps=5, rounds=300)
        algos, seeds = ["scaffold", "fedavg"], [0, 1, 2]
        rounds = {}
        for algo in algos:
            for seed in seeds:
                with pytest.raises(algorithms.DivergenceError) as info:
                    _reference_run(quad_problem, cert, replace(config, seed=seed), algo)
                rounds[algo, seed] = info.value.round_index
        first, second = sorted(rounds.values())[:2]
        assert first < second
        # stop before the second chain diverges: exactly one chain does
        with pytest.raises(algorithms.DivergenceError) as info:
            algorithms.run_sweep(quad_problem, cert.theta_star, replace(config, rounds=second),
                                 algos, seeds)
        assert info.value.round_index == first

    def test_inputs_not_mutated(self, quad_problem):
        config = make_config(quad_problem, seed=3)
        rng = np.random.default_rng(2)
        theta = rng.standard_normal((2, 3, quad_problem.d))
        xis = rng.standard_normal((2, 3, quad_problem.n_clients, quad_problem.d))
        before = theta.copy(), xis.copy()
        _cells_round(quad_problem, config, 1, [0, 1, 2], theta, xis, 0)
        assert np.array_equal(theta, before[0]) and np.array_equal(xis, before[1])

    @settings(max_examples=25, deadline=None)
    @given(n_algos=st.integers(1, 3), n_clients=st.integers(1, 5),
           seeds=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=3, unique=True),
           loss=st.sampled_from(["quadratic", "logistic"]),
           batch=st.integers(1, 7), round_index=st.integers(0, 2 ** 20))
    def test_block_round_equals_per_chain_rounds(self, n_algos, n_clients, seeds, loss,
                                                 batch, round_index):
        problem = random_problem(loss, n_clients=n_clients, n_records=9, d=3,
                                 batch_size=batch, seed=n_clients)
        config = make_config(problem, gamma=0.1, local_steps=3)
        n_scaffold = round_index % (n_algos + 1)
        rng = np.random.default_rng(round_index)
        thetas = rng.standard_normal((n_algos, len(seeds), problem.d))
        xis = rng.standard_normal(thetas.shape[:2] + (n_clients, problem.d))
        xis -= xis.mean(axis=2, keepdims=True)
        xis[n_scaffold:] = 0.0
        got_theta, got_xis = _cells_round(problem, config, n_scaffold, seeds,
                                          thetas, xis, round_index)
        for k in range(n_algos):
            for s, seed in enumerate(seeds):
                chain = replace(config, seed=seed)
                if k < n_scaffold:
                    theta, xi = _reference_scaffold_round(thetas[k, s], xis[k, s], problem,
                                                          chain, round_index)
                    assert np.array_equal(got_xis[k, s], xi)
                else:
                    theta = _reference_endpoints(problem, thetas[k, s], xis[k, s],
                                                 round_index, chain).mean(axis=0)
                    assert np.array_equal(got_xis[k, s], np.zeros_like(xis[k, s]))
                assert np.array_equal(got_theta[k, s], theta)


def _reference_ragged_endpoints(problem, theta, corrections, round_index, config):
    # the per-client loop ragged clients used before they became table rows
    out = np.empty((problem.n_clients, problem.d))
    for i, ds in enumerate(problem.clients):
        x = theta.copy()
        for h in range(config.local_steps):
            if config.deterministic:
                grad = objectives.full_gradient(problem, i, x)
            else:
                grad = stochastic_gradient(problem, i, x,
                                           derive_stream(config.seed, round_index,
                                                         ds.client_id, h))
            x = x - config.gamma * (grad + corrections[i])
        out[i] = x
    return out


class TestRaggedTable:
    @pytest.mark.parametrize("batch_size", [3, None])
    def test_block_round_equals_per_client_loop(self, batch_size):
        rng = np.random.default_rng(37)
        clients = [datagen.ClientDataset(rng.standard_normal((n, 3)),
                                         np.sign(rng.standard_normal(n)), client_id=5 * i + 1)
                   for i, n in enumerate([7, 12, 1, 30])]
        problem = objectives.Problem(clients, "logistic" if batch_size else "quadratic",
                                     0.1, batch_size=3)
        config = make_config(problem, gamma=0.2, local_steps=4, deterministic=batch_size is None)
        seeds = [2, 9]
        thetas = rng.standard_normal((2, 2, 3))
        xis = rng.standard_normal((2, 2, 4, 3))
        xis -= xis.mean(axis=2, keepdims=True)
        xis[1] = 0.0
        got_theta, got_xis = _cells_round(problem, config, 1, seeds, thetas, xis, 6)
        for k in range(2):
            for s, seed in enumerate(seeds):
                chain = replace(config, seed=seed)
                ends = _reference_ragged_endpoints(problem, thetas[k, s], xis[k, s], 6, chain)
                theta = ends.mean(axis=0)
                assert np.array_equal(got_theta[k, s], theta)
                if k == 0:
                    xi = xis[k, s] + (ends - theta) / (config.gamma * config.local_steps)
                    assert np.array_equal(got_xis[k, s], xi - xi.mean(axis=0, keepdims=True))
                else:
                    assert np.array_equal(got_xis[k, s], np.zeros((4, 3)))

    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_exact_groups_with_a_leading_axis(self, loss, monkeypatch):
        # exact gradients of ragged clients: each record-count group is one
        # kernel call over the K chains of a leading axis, which must give
        # the bits of K one-chain rounds and of the broadcast kernel
        rng = np.random.default_rng(41)
        clients = [datagen.ClientDataset(rng.standard_normal((n, 20)),
                                         np.sign(rng.standard_normal(n)), client_id=i)
                   for i, n in enumerate([7, 12, 7, 30, 12])]
        problem = objectives.Problem(clients, loss, 0.1, batch_size=3)
        config = make_config(problem, gamma=0.05, local_steps=4, deterministic=True)
        block = algorithms.ChainBlock([(problem, config), (problem, replace(config, seed=3))])
        assert len(block.groups) == 3
        thetas = rng.standard_normal((3, 2, 20))
        xis = rng.standard_normal((3, block.n_rows, 20))
        xis[2] = 0.0
        got = next(algorithms.block_rounds(block, 2, thetas, xis, [0]))
        for k in range(3):
            theta, xi = next(algorithms.block_rounds(block, int(k < 2), thetas[k], xis[k], [0]))
            assert np.array_equal(got[0][k], theta) and np.array_equal(got[1][k], xi)
        monkeypatch.setattr(algorithms, "stacked_minibatch_gradient",
                            broadcast_minibatch_gradient)
        broadcast = next(algorithms.block_rounds(block, 2, thetas, xis, [0]))
        assert np.array_equal(got[0], broadcast[0]) and np.array_equal(got[1], broadcast[1])


class TestChainBlock:
    @pytest.mark.parametrize("batch_size", [4, None])
    def test_chains_of_different_problems_equal_separate_rounds(self, batch_size):
        # a block of four partitions of one table, one of them ragged, with
        # different client counts, record counts, step sizes, seeds and
        # round indices
        pool = random_problem("logistic", n_clients=1, n_records=40, d=3, batch_size=4, seed=3)
        problems = [_resplit(pool, n) for n in (2, 5, 1)]
        problems.append(_resplit(pool, [8, 30, 2], client_ids=[0, 3, 6]))
        rng = np.random.default_rng(3)
        configs = [make_config(p, gamma=g, local_steps=3, seed=s,
                               deterministic=batch_size is None)
                   for p, g, s in zip(problems, (0.1, 0.05, 0.2, 0.07), (4, 4, 2 ** 64 - 1, 9))]
        block = algorithms.ChainBlock(list(zip(problems, configs)))
        thetas = rng.standard_normal((4, 3))
        xis = rng.standard_normal((block.n_rows, 3))
        rounds = np.repeat([7, 0, 123, 5], [2, 5, 1, 3])
        got_theta, got_xis = next(algorithms.block_rounds(block, 1, thetas, xis, [rounds]))
        for g, (problem, config) in enumerate(zip(problems, configs)):
            rows = block.slices[g]
            ends = _reference_ragged_endpoints(problem, thetas[g], xis[rows],
                                               int(rounds[rows.start]), config)
            theta = ends.mean(axis=0)
            xi = xis[rows] + (ends - theta) / (config.gamma * config.local_steps)
            assert np.array_equal(got_theta[g], theta)
            assert np.array_equal(got_xis[rows], xi - xi.mean(axis=0, keepdims=True))

    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_one_problem_exact_block_views_the_table(self, loss):
        problem = random_problem(loss, n_clients=4, n_records=12, d=3, batch_size=2)
        config = make_config(problem, deterministic=True, local_steps=2)
        (rows, features, targets), = algorithms.ChainBlock([(problem, config)]).groups
        assert np.array_equal(rows, np.arange(4)) and features.shape == (4, 12, 3)
        assert np.shares_memory(features, problem.features)
        assert np.shares_memory(targets, problem.targets)
        # two chains of one problem repeat its rows: those are gathered
        two = algorithms.ChainBlock([(problem, config), (problem, replace(config, seed=5))])
        (_, features, _), = two.groups
        assert features.shape == (8, 12, 3)
        assert not np.shares_memory(features, problem.features)
        assert np.array_equal(features.reshape(2, -1, 3), np.stack([problem.features] * 2))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n_chains=st.integers(1, 4), n_algos=st.integers(1, 3),
           loss=st.sampled_from(["quadratic", "logistic"]), batch=st.sampled_from([3, None]),
           state_seed=st.integers(0, 2 ** 32))
    def test_scaffold_chains_stay_on_state_space(self, data, n_chains, n_algos, loss, batch,
                                                 state_seed):
        # the sum-zero invariant after one round of a random block, from
        # control variates that start anywhere
        rng = np.random.default_rng(state_seed)
        pool = random_problem(loss, n_clients=1, n_records=data.draw(st.integers(1, 40)), d=3,
                              batch_size=3, seed=state_seed)
        rows = len(pool.targets)
        chains = []
        for _ in range(n_chains):
            # a partition of the table into 1 to 6 clients
            cuts = sorted(data.draw(st.sets(st.integers(1, max(1, rows - 1)),
                                            max_size=min(5, rows - 1))))
            problem = _resplit(pool, np.diff([0, *cuts, rows]).tolist())
            chains.append((problem, make_config(
                problem, gamma=float(rng.uniform(0.01, 0.2)), local_steps=3,
                deterministic=batch is None, seed=data.draw(st.integers(0, 2 ** 64 - 1)))))
        block = algorithms.ChainBlock(chains)
        lead = (n_algos,) if n_algos > 1 else ()
        n_scaffold = data.draw(st.integers(0, n_algos))
        thetas = rng.standard_normal(lead + (n_chains, 3))
        xis = 10.0 * rng.standard_normal(lead + (block.n_rows, 3))
        rounds = np.repeat(rng.integers(0, 2 ** 20, n_chains), [p.n_clients for p, _ in chains])
        got_theta, got_xis = next(algorithms.block_rounds(block, n_scaffold, thetas, xis,
                                                          [rounds]))
        got_theta = got_theta.reshape(-1, n_chains, 3)
        got_xis = got_xis.reshape(-1, block.n_rows, 3)
        for k in range(n_scaffold):
            for g, rows in enumerate(block.slices):
                state = ChainState(got_theta[k, g], got_xis[k, rows])
                assert on_state_space(state.theta, state.xis)
        assert not got_xis[n_scaffold:].any()

    def test_divergence_reports_the_chain_round(self, quad_problem):
        configs = [make_config(quad_problem, gamma=g) for g in (0.05, 1e200, 0.05)]
        block = algorithms.ChainBlock([(quad_problem, c) for c in configs])
        thetas = np.ones((3, quad_problem.d))
        xis = np.zeros((block.n_rows, quad_problem.d))
        rounds = np.repeat([40, 17, 3], quad_problem.n_clients)
        with pytest.raises(algorithms.DivergenceError) as info:
            next(algorithms.block_rounds(block, 1, thetas, xis, [rounds]))
        assert info.value.round_index == 17


def _resplit(pool, record_counts, client_ids=None):
    # `pool`'s table as consecutive row blocks of `record_counts` rows (an
    # int: that many equal blocks), as the speedup task re-splits its
    # largest problem; they cover the read-only table exactly, so the new
    # problem reads it uncopied.  Client ids default to 0..N-1.
    rows = len(pool.targets)
    if isinstance(record_counts, int):
        record_counts = [rows // record_counts] * record_counts
    assert sum(record_counts) == rows
    stops = np.cumsum(record_counts)
    if client_ids is None:
        client_ids = range(len(record_counts))
    clients = [datagen.ClientDataset(pool.features[stop - n:stop], pool.targets[stop - n:stop],
                                     client_id=c)
               for n, stop, c in zip(record_counts, stops, client_ids)]
    problem = objectives.Problem(clients, pool.loss, pool.l2_weight, pool.batch_size)
    assert problem.features is pool.features and problem.targets is pool.targets
    return problem


class TestSharedTable:
    def test_second_record_table_raises(self):
        # two separately built problems read two tables: the block and the
        # estimator reject them instead of concatenating the tables
        pool = random_problem("quadratic", n_clients=4, n_records=6, d=3, batch_size=2)
        other = random_problem("quadratic", n_clients=3, n_records=5, d=3, batch_size=2,
                               seed=1)
        config = make_config(pool, local_steps=2)
        for problems in ([pool, other], [_resplit(pool, 2), pool, other]):
            with pytest.raises(ValueError, match="record table"):
                algorithms.ChainBlock([(p, config) for p in problems])
        chains = [(p, certificate_for(p), config) for p in (pool, other)]
        with pytest.raises(ValueError, match="record table"):
            stationary.estimate_stationary_sweep(chains, n_samples=100)

    def test_block_rounds_over_resplits_equal_separate_rounds(self):
        pool = random_problem("quadratic", n_clients=8, n_records=6, d=3, batch_size=3)
        problems = [_resplit(pool, 2), _resplit(pool, 4), pool]
        configs = [make_config(p, gamma=g, local_steps=4, seed=s)
                   for p, g, s in zip(problems, (0.05, 0.02, 0.01), (3, 3, 8))]
        block = algorithms.ChainBlock(list(zip(problems, configs)))
        assert block.flat_x is pool.features
        rng = np.random.default_rng(9)
        thetas = rng.standard_normal((2, 3, 3))
        xis = rng.standard_normal((2, block.n_rows, 3))
        xis[1] = 0.0
        got = list(algorithms.block_rounds(block, 1, thetas, xis, range(5)))
        for g, (problem, config) in enumerate(zip(problems, configs)):
            rows = block.slices[g]
            alone = algorithms.ChainBlock([(problem, config)])
            expected = algorithms.block_rounds(alone, 1, thetas[:, g:g + 1], xis[:, rows],
                                               range(5))
            for (got_theta, got_xis), (theta, xi) in zip(got, expected, strict=True):
                assert np.array_equal(got_theta[:, g:g + 1], theta)
                assert np.array_equal(got_xis[:, rows], xi)


def _chunk(block):
    # rounds drawn by one RNG call of `block_rounds`
    return algorithms._CHUNK_WORDS // (block.local_steps * block.n_rows * block.batch)


def _one_round_calls(block, n_scaffold, thetas, xis, rounds):
    states = []
    for r in rounds:
        thetas, xis = next(algorithms.block_rounds(block, n_scaffold, thetas, xis, [r]))
        states.append((thetas, xis))
    return states


class TestBlockRounds:
    def _assert_equals_one_round_calls(self, block, n_scaffold, thetas, xis, rounds):
        before = thetas.copy(), xis.copy()
        got = list(algorithms.block_rounds(block, n_scaffold, thetas, xis, iter(rounds)))
        expected = _one_round_calls(block, n_scaffold, thetas, xis, rounds)
        assert len(got) == len(expected) == len(rounds)
        for (got_theta, got_xis), (theta, xi) in zip(got, expected):
            assert np.array_equal(got_theta, theta) and np.array_equal(got_xis, xi)
        assert np.array_equal(thetas, before[0]) and np.array_equal(xis, before[1])

    def test_scaffold_and_fedavg_axis_over_chunks(self):
        problem = random_problem("logistic", n_clients=3, n_records=9, d=3, batch_size=500)
        config = make_config(problem, gamma=0.05, local_steps=4)
        block = algorithms.ChainBlock([(problem, replace(config, seed=s)) for s in (0, 5)])
        chunk = _chunk(block)
        assert chunk == 5
        rng = np.random.default_rng(1)
        thetas = rng.standard_normal((2, 2, 3))
        xis = rng.standard_normal((2, block.n_rows, 3))
        xis[1] = 0.0
        # two whole chunks and a partial last one
        self._assert_equals_one_round_calls(block, 1, thetas, xis,
                                            list(range(7, 7 + 2 * chunk + 2)))

    def test_ragged_chains_with_rounds_per_row_over_chunks(self):
        rng = np.random.default_rng(5)
        pool = random_problem("quadratic", n_clients=2, n_records=8, d=3, batch_size=500)
        problems = [pool, _resplit(pool, [4, 11, 1], client_ids=[1, 3, 5])]
        configs = [make_config(p, gamma=g, local_steps=4, seed=s)
                   for p, g, s in zip(problems, (0.05, 0.02), (3, 2 ** 64 - 1))]
        block = algorithms.ChainBlock(list(zip(problems, configs)))
        chunk = _chunk(block)
        assert chunk == 6
        thetas = rng.standard_normal((2, 3))
        xis = rng.standard_normal((block.n_rows, 3))
        rounds = [np.repeat([40 + t, t], [2, 3]) for t in range(2 * chunk + 1)]
        self._assert_equals_one_round_calls(block, 1, thetas, xis, rounds)

    def test_exact_gradients(self, quad_problem):
        configs = [make_config(quad_problem, gamma=g, local_steps=3, deterministic=True)
                   for g in (0.05, 0.1)]
        block = algorithms.ChainBlock([(quad_problem, c) for c in configs])
        rng = np.random.default_rng(2)
        thetas = rng.standard_normal((2, quad_problem.d))
        xis = rng.standard_normal((block.n_rows, quad_problem.d))
        self._assert_equals_one_round_calls(block, 1, thetas, xis, list(range(6)))

    def test_one_rng_call_per_chunk(self, monkeypatch):
        # a speedup-like block: N = 2, 8, 32 in lockstep, H = 10, b = 10
        pool = random_problem("quadratic", n_clients=32, n_records=20, d=5, batch_size=10)
        problems = [_resplit(pool, n) for n in (2, 8, 32)]
        block = algorithms.ChainBlock([(p, make_config(p, gamma=0.01, local_steps=10))
                                       for p in problems])
        calls = []
        draw = algorithms.batch_uniform_indices

        def counted(*args):
            calls.append(np.shape(args[1]))
            return draw(*args)

        monkeypatch.setattr(algorithms, "batch_uniform_indices", counted)
        n_rounds = 40
        for _ in algorithms.block_rounds(block, 1, np.zeros((3, 5)), np.zeros((42, 5)),
                                         range(n_rounds)):
            pass
        chunk = _chunk(block)
        assert chunk == 15
        assert len(calls) == math.ceil(n_rounds / chunk)
        assert calls == [(15, 1, 1), (15, 1, 1), (10, 1, 1)]

    def test_rounds_call_the_traced_lookup_sites(self, monkeypatch, logistic_problem):
        # perfbench/spans.py times the RNG and gradient layers by wrapping
        # these module globals; a kernel that bypassed them would blind it
        called = []
        for name in ("batch_uniform_indices", "stacked_minibatch_gradient"):
            def wrapped(*args, _name=name, _fn=getattr(algorithms, name)):
                called.append(_name)
                return _fn(*args)
            monkeypatch.setattr(algorithms, name, wrapped)
        block = algorithms.ChainBlock([(logistic_problem, make_config(logistic_problem))])
        d, n = logistic_problem.d, logistic_problem.n_clients
        list(algorithms.block_rounds(block, 1, np.zeros((1, d)), np.zeros((n, d)), range(2)))
        assert called.count("batch_uniform_indices") == 1
        assert called.count("stacked_minibatch_gradient") == 2 * block.local_steps

    def test_sweep_divergence_inside_a_chunk_reports_its_round(self):
        problem = random_problem("quadratic", n_clients=3, seed=1, batch_size=100)
        cert = certificate_for(problem)
        config = make_config(problem, gamma=2.0, local_steps=5, rounds=300)
        algos, seeds = ["scaffold", "fedavg"], [0, 1, 2]
        rounds = []
        for algo in algos:
            for seed in seeds:
                with pytest.raises(algorithms.DivergenceError) as info:
                    _reference_run(problem, cert, replace(config, seed=seed), algo)
                rounds.append(info.value.round_index)
        first, second = sorted(rounds)[:2]
        chunk = algorithms._CHUNK_WORDS // (5 * len(seeds) * problem.n_clients * 100)
        assert first < second and first > chunk and first % chunk
        with pytest.raises(algorithms.DivergenceError) as info:
            algorithms.run_sweep(problem, cert.theta_star, replace(config, rounds=second),
                                 algos, seeds)
        assert info.value.round_index == first

    @pytest.mark.filterwarnings("ignore:step-size conditions")
    def test_estimator_divergence_inside_a_chunk_reports_its_round(self):
        # the diverging chain starts later than the stable one, so it runs
        # in a segment with one round index per row
        problem = random_problem("quadratic", n_clients=3, seed=1, batch_size=100)
        cert = certificate_for(problem)
        stable, unstable = (make_config(problem, gamma=g, local_steps=5, rounds=400)
                            for g in (0.3, 2.0))
        with pytest.raises(algorithms.DivergenceError) as info:
            _reference_run(problem, cert, unstable, "scaffold")
        expected = info.value.round_index
        burn_ins = [stationary.default_burn_in(c.gamma, cert.mu, 5) for c in (stable, unstable)]
        assert burn_ins[0] > burn_ins[1]
        chunk = algorithms._CHUNK_WORDS // (5 * 2 * problem.n_clients * 100)
        assert expected > chunk and expected % chunk
        with pytest.raises(algorithms.DivergenceError) as info:
            stationary.estimate_stationary_sweep([(problem, cert, stable),
                                                  (problem, cert, unstable)], n_samples=300)
        assert info.value.round_index == expected


class TestConfigOwnership:
    def test_deterministic_means_exact_gradients(self, quad_problem):
        config = make_config(quad_problem, deterministic=True, local_steps=1)
        theta = np.full(quad_problem.d, 0.3)
        exact = np.mean([objectives.full_gradient(quad_problem, c, theta)
                         for c in range(quad_problem.n_clients)], axis=0)
        out = algorithms.fedavg_round(theta, quad_problem, config, 0)
        assert np.allclose(out, theta - config.gamma * exact, atol=1e-15)


def _step_block(loss, batch_size, gammas, counts=(6, 11, 6, 3), records=None):
    # two chains of one problem of clients with `counts` records, at step
    # sizes `gammas`; the clients split `records` (x, y) in order, or draw
    # random ones; batch_size None gives exact gradients over record-count
    # groups
    rng = np.random.default_rng(43)
    if records is None:
        parts = [(rng.standard_normal((n, 4)), np.sign(rng.standard_normal(n)))
                 for n in counts]
    else:
        assert len(records[1]) == sum(counts)
        parts = zip(*(np.split(a, np.cumsum(counts)[:-1]) for a in records))
    clients = [datagen.ClientDataset(x, y, client_id=2 * i + 1)
               for i, (x, y) in enumerate(parts)]
    problem = objectives.Problem(clients, loss, 0.1, batch_size=batch_size or 3)
    config = make_config(problem, local_steps=4, deterministic=batch_size is None)
    return algorithms.ChainBlock([(problem, replace(config, seed=s, gamma=g))
                                  for s, g in zip((0, 9), gammas)])


# Records at the logistic weight's edges, each under both labels: signed
# zeros, subnormal features, and rows whose margins at _EDGE_THETAS reach
# 740 (exp(-|z|) subnormal) and +-900 (exp(-|z|) is 0); at the first
# chain the last client's three records all saturate, so every product of
# its gradient sums is a zero
_EDGE_ROWS = np.array([[0.0, -0.0, 5e-324, -5e-324], [-0.0, 0.0, -0.0, 0.0],
                       [1e-310, -1e-310, 0.0, 30.0], [24.0, 0.0, 25.0, 25.0],
                       [-30.0, -0.0, -30.0, -30.0], [30.0, -30.0, 30.0, 1e-310]])
_EDGE_THETAS = np.array([[10.0, -0.0, 10.0, 10.0], [-10.0, 10.0, -0.0, -10.0]])


def _edge_block(loss, batch_size, gammas):
    # `_step_block` on a table of `_EDGE_ROWS`
    records = (np.concatenate([np.tile(_EDGE_ROWS, (4, 1))[:23], np.full((3, 4), 30.0)]),
               np.append(np.repeat([1.0, -1.0], 12)[:23], np.ones(3)))
    return _step_block(loss, batch_size, gammas, records=records)


class TestInPlaceLocalStep:
    # the local step updates its own copy of the parameters in place, and a
    # logistic minibatch step gathers label-signed records;
    # reference.endpoints is the allocating form on the record table,
    # compared byte for byte
    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    @pytest.mark.parametrize("lead", [(), (3,)])
    @pytest.mark.parametrize("gammas", [(0.3, 0.3), (0.3, 0.1)], ids=["scalar", "per-row"])
    @pytest.mark.parametrize("batch_size", [4, None], ids=["minibatch", "exact"])
    def test_endpoints_equal_allocating_form(self, loss, lead, gammas, batch_size):
        rng = np.random.default_rng(len(lead))
        # random records and parameters, then the edge table; along a
        # leading axis the chains alternate in sign, and the last is FedAvg
        signs = (-1.0) ** np.arange(lead[0])[:, None, None] if lead else 1.0
        for make_block, start in ((_step_block, None), (_edge_block, _EDGE_THETAS * signs)):
            block = make_block(loss, batch_size, gammas)
            assert np.ndim(block.gamma) == (0 if gammas[0] == gammas[1] else 2)
            if batch_size is None:
                assert not hasattr(block, "step_table")
            elif loss == "quadratic":
                # no second table: the steps gather from the record table
                assert block.step_table[0] is block.flat_x
                assert block.step_table[1] is block.flat_y
            else:
                assert block.step_table[1] is None
                assert np.array_equal(block.step_table[0], block.flat_x * block.flat_y[:, None])
            if start is None:
                thetas = 3.0 * rng.standard_normal(lead + (2, block.d))
                thetas[..., 0, 0] = -0.0
            else:
                thetas = start.copy()
            corrections = rng.standard_normal(lead + (block.n_rows, block.d))
            if lead:
                corrections[-1] = 0.0  # FedAvg chains add all-zero corrections
            idx = None if batch_size is None else algorithms._draw(block, [5])[0]
            before = thetas.copy(), corrections.copy()
            for a in (thetas, corrections):
                a.flags.writeable = False
            got = algorithms._endpoints(block, thetas, corrections, idx)
            assert got.tobytes() == endpoints(block, thetas, corrections, idx).tobytes()
            assert thetas.tobytes() == before[0].tobytes()
            assert corrections.tobytes() == before[1].tobytes()

    @pytest.mark.parametrize("batch_size", [4, None], ids=["minibatch", "exact"])
    @pytest.mark.parametrize("lead", [(), (2,)])
    @pytest.mark.parametrize("counts", [(6, 11, 6, 3), (6,)], ids=["ragged", "one-client"])
    def test_rounds_write_no_given_or_yielded_state(self, batch_size, lead, counts):
        # read-only start arrays raise if a round writes them, and each
        # yielded state keeps its bytes while the later rounds run; with one
        # client per chain the rows' parameters are the chains' own
        block = _step_block("logistic", batch_size, (0.3, 0.1), counts)
        rng = np.random.default_rng(7)
        thetas = rng.standard_normal(lead + (2, block.d))
        xis = rng.standard_normal(lead + (block.n_rows, block.d))
        xis[1:] = 0.0  # a FedAvg chain behind the Scaffold one
        for a in (thetas, xis):
            a.flags.writeable = False
        states, copies = [], []
        for state in algorithms.block_rounds(block, 1, thetas, xis, range(4)):
            states.append(state)
            copies.append(tuple(a.tobytes() for a in state))
        for state, saved in zip(states, copies):
            assert tuple(a.tobytes() for a in state) == saved

    def test_rows_zeroed_in_a_yielded_state_start_the_next_round(self):
        # the estimator zeroes, in place, the rows of a chain that has not
        # started yet; the next round starts from the zeroed state
        block = _step_block("logistic", 4, (0.3, 0.1))
        rng = np.random.default_rng(11)
        thetas = rng.standard_normal((2, block.d))
        xis = rng.standard_normal((block.n_rows, block.d))
        rounds = algorithms.block_rounds(block, 1, thetas, xis, [3, 4])
        first_theta, first_xis = next(rounds)
        first_theta[1] = 0.0
        first_xis[block.slices[1]] = 0.0
        restart = next(algorithms.block_rounds(block, 1, first_theta.copy(),
                                               first_xis.copy(), [4]))
        for got, expected in zip(next(rounds), restart):
            assert got.tobytes() == expected.tobytes()
