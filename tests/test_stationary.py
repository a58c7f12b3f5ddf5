import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scaffold_sim import datagen, harness, objectives, optimum, stationary
from scaffold_sim.algorithms import DivergenceError, scaffold_round
from scaffold_sim.core import ChainState, RunConfig

from conftest import certificate_for, random_problem
from test_algorithms import _resplit
from test_objectives import _reference_hessian, _reference_third, ragged_problem


class TestSylvesterSolve:
    def test_scaled_identity(self):
        x = stationary.sylvester_solve(2.0 * np.eye(3), np.eye(3))
        assert np.allclose(x, np.eye(3) / 4.0)

    def test_diagonal_case(self):
        h = np.diag([1.0, 3.0])
        # X_11 = 1/(1+1), X_22 = 1/(3+3)
        x = stationary.sylvester_solve(h, np.eye(2))
        assert np.allclose(x, np.diag([0.5, 1.0 / 6.0]))

    def test_random_spd_residual(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        h = a @ a.T + 0.5 * np.eye(6)
        rhs = rng.standard_normal((6, 6))
        rhs = 0.5 * (rhs + rhs.T)
        x = stationary.sylvester_solve(h, rhs)
        assert np.allclose(h @ x + x @ h, rhs, atol=1e-10)
        assert np.allclose(x, x.T)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="positive definite"):
            stationary.sylvester_solve(np.diag([1.0, -1.0]), np.eye(2))


class TestDefaultBurnIn:
    def test_scaling(self):
        assert stationary.default_burn_in(0.1, 1.0, 16) == 10
        assert stationary.default_burn_in(0.05, 1.0, 16) == 20
        # ceiling, never zero
        assert stationary.default_burn_in(10.0, 10.0, 100) == 1

    @pytest.mark.parametrize("gamma, local_steps, name", [
        (-1.0, 16, "gamma"),
        (float("inf"), 16, "gamma"),
        (0.0, 16, "gamma"),
        (float("nan"), 16, "gamma"),
        (True, 16, "gamma"),
        (0.1, 0, "local_steps"),
        (0.1, 2.0, "local_steps"),
        (0.1, True, "local_steps"),
    ])
    def test_bad_gamma_or_local_steps_named(self, gamma, local_steps, name):
        with pytest.raises(ValueError, match=name):
            stationary.default_burn_in(gamma, 1.0, local_steps)


class TestEstimateStationary:
    def test_noise_free_chain_has_vanishing_moments(self, quad_problem):
        cert = certificate_for(quad_problem)
        config = RunConfig(gamma=0.02, local_steps=5, rounds=1, deterministic=True, seed=0)
        est = stationary.estimate_stationary(quad_problem, cert, config,
                                             burn_in=400, n_samples=100)
        assert np.linalg.norm(est.bias_theta) < 1e-10
        assert np.linalg.norm(est.cov_theta) < 1e-20
        assert np.linalg.norm(est.se_bias) < 1e-10

    def test_sample_count_validation(self, quad_problem):
        cert = certificate_for(quad_problem)
        config = RunConfig(gamma=0.02, local_steps=5, rounds=1)
        with pytest.raises(ValueError, match="n_samples"):
            stationary.estimate_stationary(quad_problem, cert, config,
                                           n_samples=50)
        with pytest.raises(ValueError, match="thinning"):
            stationary.estimate_stationary(quad_problem, cert, config,
                                           n_samples=100, thinning=0)

    def test_negative_burn_in_rejected(self, quad_problem):
        # a negative burn-in used to run burn_in + n_samples rounds and
        # divide the sums by n_samples
        cert = certificate_for(quad_problem)
        config = RunConfig(gamma=0.02, local_steps=5, rounds=1)
        with pytest.raises(ValueError, match="burn_in"):
            stationary.estimate_stationary(quad_problem, cert, config,
                                           burn_in=-5, n_samples=100)
        est = stationary.estimate_stationary(quad_problem, cert, config,
                                             burn_in=0, n_samples=100)
        assert est.burn_in_rounds == 0

    def test_default_burn_in_used(self, quad_problem):
        cert = certificate_for(quad_problem)
        config = RunConfig(gamma=0.05, local_steps=10, rounds=1, deterministic=True)
        # this gamma*H violates the contraction horizon on purpose: the
        # estimator must warn but still run
        with pytest.warns(RuntimeWarning, match="step-size conditions"):
            est = stationary.estimate_stationary(quad_problem, cert, config,
                                                 n_samples=100)
        assert est.burn_in_rounds == stationary.default_burn_in(
            0.05, cert.mu, 10)

    def test_xi_pair_subset_covers_diagonal(self):
        pairs = stationary._xi_pair_subset(5)
        for c in range(5):
            assert (c, c) in pairs
        assert len(pairs) == 5 + 10  # all off-diagonal pairs fit under the cap

    def test_cov_theta_close_to_prediction(self):
        # moderate-noise quadratic: empirical and first-order covariance agree
        problem = random_problem("quadratic", n_clients=4, n_records=40,
                                 d=3, batch_size=2, seed=30)
        cert = certificate_for(problem)
        gamma = 1.0 / (16.0 * cert.big_l)
        config = RunConfig(gamma=gamma, local_steps=10, rounds=1, seed=5)
        est = stationary.estimate_stationary(problem, cert, config,
                                             n_samples=4000)
        pred = stationary.predict_first_order(cert, gamma, 10)
        rel = np.linalg.norm(est.cov_theta - pred.cov_theta) / np.linalg.norm(pred.cov_theta)
        assert rel < 0.25


def _estimate(problem, **values):
    # an estimate whose RunConfig and estimator integers default to small ones
    run = {key: values.pop(key, default)
           for key, default in (("local_steps", 2), ("rounds", 1), ("seed", 0))}
    config = RunConfig(gamma=0.02, **run)
    values = {"burn_in": 0, "n_samples": 100, "thinning": 1, **values}
    return stationary.estimate_stationary(problem, certificate_for(problem), config, **values)


class TestIntegerArguments:
    # a float or a bool used to run as its integer part, or to fail inside
    # range or islice with an error that did not name the argument
    @pytest.mark.parametrize("value", [1.5, True])
    @pytest.mark.parametrize("name", ["seed", "local_steps", "rounds",
                                      "n_samples", "burn_in", "thinning"])
    def test_float_or_bool_rejected_naming_the_argument(self, quad_problem, name, value):
        with pytest.raises(ValueError, match=f"{name} must be an integer, got {value!r}"):
            _estimate(quad_problem, **{name: value})

    def test_numpy_integers_and_the_largest_seed_accepted(self, quad_problem):
        plain = _estimate(quad_problem, seed=3, burn_in=4, thinning=2)
        typed = _estimate(quad_problem, **{
            key: np.int64(value) for key, value in
            (("seed", 3), ("local_steps", 2), ("rounds", 1),
             ("n_samples", 100), ("burn_in", 4), ("thinning", 2))})
        for field in ("bias_theta", "cov_theta", "cov_theta_xi", "se_bias"):
            assert np.array_equal(getattr(plain, field), getattr(typed, field))
        assert _estimate(quad_problem, seed=2 ** 64 - 1).n_samples == 100


class TestPredictFirstOrder:
    def test_quadratic_bias_is_zero(self, quad_problem):
        cert = certificate_for(quad_problem)
        pred = stationary.predict_first_order(cert, 0.05, 10)
        assert np.array_equal(pred.bias_theta, np.zeros(quad_problem.d))

    def test_cov_theta_is_scaled_resolvent(self, quad_problem):
        cert = certificate_for(quad_problem)
        pred = stationary.predict_first_order(cert, 0.04, 10)
        a_sigma = stationary.sylvester_solve(cert.hessian_star,
                                             cert.sigma_eps_avg)
        n = quad_problem.n_clients
        assert np.allclose(pred.cov_theta, 0.04 / n * a_sigma)
        # doubling gamma doubles the parameter covariance
        pred2 = stationary.predict_first_order(cert, 0.08, 10)
        assert np.allclose(pred2.cov_theta, 2.0 * pred.cov_theta)

    def test_homogeneous_clients_decouple(self):
        # identical clients: theta-xi cross covariance vanishes and the
        # off-diagonal xi covariance is -sigma/(N*H)
        rng = np.random.default_rng(31)
        x = rng.standard_normal((30, 3))
        y = x @ np.array([2.0, -1.0, 0.3]) + rng.standard_normal(30)
        clients = [datagen.ClientDataset(x.copy(), y.copy(), client_id=c)
                   for c in range(4)]
        problem = objectives.Problem(clients, "quadratic", 0.1, batch_size=3)
        cert = certificate_for(problem)
        pred = stationary.predict_first_order(cert, 0.05, 8)
        assert np.allclose(pred.cov_theta_xi, 0.0, atol=1e-12)
        sigma = cert.sigma_eps_per_client[0]
        assert np.allclose(pred.cov_xi(0, 1), -sigma / (4 * 8), atol=1e-12)
        expected_diag = (1.0 - 2.0 / 4) / 8 * sigma + sigma / (4 * 8)
        assert np.allclose(pred.cov_xi(2, 2), expected_diag, atol=1e-12)

    def test_doubling_clients_halves_cov_theta(self, quad_problem):
        # duplicating every client leaves the average noise and Hessian
        # unchanged, so the prediction scales as 1/N exactly
        cert = certificate_for(quad_problem)
        doubled = objectives.Problem(
            [datagen.ClientDataset(c.features.copy(), c.targets.copy(),
                                   client_id=i)
             for i, c in enumerate(quad_problem.clients * 2)],
            quad_problem.loss, quad_problem.l2_weight, quad_problem.batch_size,
        )
        cert2 = certificate_for(doubled)
        pred = stationary.predict_first_order(cert, 0.05, 10)
        pred2 = stationary.predict_first_order(cert2, 0.05, 10)
        assert np.allclose(pred2.cov_theta, 0.5 * pred.cov_theta, atol=1e-12)

    def test_logistic_bias_nonzero(self, logistic_problem):
        cert = certificate_for(logistic_problem)
        pred = stationary.predict_first_order(cert, 0.05, 10)
        assert np.linalg.norm(pred.bias_theta) > 0.0
        # bias is linear in gamma at leading order
        pred2 = stationary.predict_first_order(cert, 0.1, 10)
        assert np.allclose(pred2.bias_theta, 2.0 * pred.bias_theta)

    # at N = 4, (-1, -1) used to return client 3's block, (True, True) an
    # array of shape (1, 4, d, d), and (0, 7) an IndexError from numpy
    @pytest.mark.parametrize("c, cp, message", [
        (-1, -1, "c must be >= 0, got -1"),
        (True, True, "c must be an integer, got True"),
        (0, 7, "cp must be < n_clients = 4, got 7"),
    ])
    def test_cov_xi_rejects_a_client_index_outside_the_range(self, c, cp, message):
        cert = certificate_for(random_problem("quadratic", n_clients=4))
        pred = stationary.predict_first_order(cert, 0.05, 10)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            pred.cov_xi(c, cp)
        assert np.array_equal(pred.cov_xi(np.int64(3), 0), pred.cov_xi(3, 0))


class TestComplexityRecipe:
    def test_quadratic_has_no_client_ceiling(self, quad_problem):
        cert = certificate_for(quad_problem)
        recipe = stationary.complexity_recipe(cert, 0.1, 10)
        assert recipe.n_max == np.inf
        assert recipe.n_clients_ok

    def test_epsilon_halving_scalings(self, logistic_problem):
        cert = certificate_for(logistic_problem)
        a = stationary.complexity_recipe(cert, 0.01, 10)
        b = stationary.complexity_recipe(cert, 0.005, 10)
        assert b.gamma == pytest.approx(a.gamma / 4.0)
        if a.local_steps > 1.0:
            assert b.local_steps == pytest.approx(4.0 * a.local_steps)
        # rounds grow by an additive log(4) factor
        factor = cert.big_l / cert.mu * max(1.0, cert.zeta2 / cert.mu)
        assert b.rounds - a.rounds == pytest.approx(factor * np.log(4.0))

    def test_local_steps_clamped_to_one(self, quad_problem):
        cert = certificate_for(quad_problem)
        recipe = stationary.complexity_recipe(cert, 10.0, 1000)
        assert recipe.local_steps == 1.0

    def test_n_clients_flag(self, logistic_problem):
        cert = certificate_for(logistic_problem)
        recipe = stationary.complexity_recipe(cert, 1e-4, 10)
        assert np.isfinite(recipe.n_max)
        assert recipe.n_clients_ok == (10 <= recipe.n_max)

    def test_invalid_epsilon(self, quad_problem):
        cert = certificate_for(quad_problem)
        with pytest.raises(ValueError):
            stationary.complexity_recipe(cert, 0.0, 10)


_VALID_THEORY_ARGS = {"predict_first_order": {"gamma": 0.05, "local_steps": 10},
                      "complexity_recipe": {"epsilon": 0.1, "n_clients": 4}}


class TestTheoryArguments:
    # each of these used to run: a negative or NaN step size gave a
    # negative or NaN covariance, n_clients = 0 raised ZeroDivisionError
    # and a NaN epsilon passed `epsilon <= 0` and gave a NaN step size
    @pytest.mark.parametrize("func, name, value", [
        ("predict_first_order", "gamma", -0.1),
        ("predict_first_order", "gamma", 0.0),
        ("predict_first_order", "gamma", float("nan")),
        ("predict_first_order", "gamma", float("inf")),
        ("predict_first_order", "gamma", True),
        ("predict_first_order", "local_steps", 0),
        ("predict_first_order", "local_steps", 2.5),
        ("predict_first_order", "local_steps", True),
        ("complexity_recipe", "epsilon", float("nan")),
        ("complexity_recipe", "epsilon", float("inf")),
        ("complexity_recipe", "epsilon", True),
        ("complexity_recipe", "n_clients", 0),
        ("complexity_recipe", "n_clients", -3),
        ("complexity_recipe", "n_clients", 2.5),
        ("complexity_recipe", "n_clients", True),
    ])
    def test_rejected_naming_the_argument(self, quad_problem, func, name, value):
        kwargs = {**_VALID_THEORY_ARGS[func], name: value}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            getattr(stationary, func)(certificate_for(quad_problem), **kwargs)


class TestCertificateFit:
    def test_certificate_of_another_shape_names_the_chain(self, quad_problem):
        # used to fail inside numpy: shapes (3,4) (5,4) could not be broadcast
        other = certificate_for(random_problem("quadratic", n_clients=5, seed=4))
        config = RunConfig(gamma=0.02, local_steps=2, rounds=1, seed=0)
        chains = [(quad_problem, certificate_for(quad_problem), config),
                  (quad_problem, other, config)]
        with pytest.raises(ValueError, match=r"^chain 1: .*\(5, 4\).*\(3, 4\)$"):
            stationary.estimate_stationary_sweep(chains, burn_in=0, n_samples=100)

    def test_same_shaped_certificate_of_another_problem_runs(self, quad_problem,
                                                              logistic_problem):
        # a quadratic twin runs with its logistic chain's certificate: the
        # chain is the problem's, the moments are about the certificate's optimum
        own, other = certificate_for(quad_problem), certificate_for(logistic_problem)
        config = RunConfig(gamma=0.02, local_steps=2, rounds=1, seed=0)
        est_own, est_other = (stationary.estimate_stationary(quad_problem, cert, config,
                                                             burn_in=0, n_samples=100)
                              for cert in (own, other))
        assert np.allclose(est_other.bias_theta,
                           est_own.bias_theta + own.theta_star - other.theta_star)
        assert np.isfinite(est_other.cov_theta_xi).all()


class TestEstimateReport:
    def test_report_structure(self, quad_problem):
        cert = certificate_for(quad_problem)
        config = RunConfig(gamma=0.02, local_steps=5, rounds=1, deterministic=True)
        est = stationary.estimate_stationary(quad_problem, cert, config,
                                             burn_in=10, n_samples=100)
        report = stationary.estimate_report(est)
        lines = report.splitlines()
        assert lines[0] == "burn_in_rounds = 10"
        assert "# cov_theta" in lines
        assert "# cov_xi_0_0" in lines
        block = lines.index("# cov_theta")
        matrix = np.array([
            [float(v) for v in row.split(",")]
            for row in lines[block + 1:block + 1 + quad_problem.d]
        ])
        assert np.allclose(matrix, est.cov_theta)


class TestXiPairAccumulator:
    def test_matches_per_pair_outer_loop(self):
        # reference: the chain re-run with one np.outer accumulation per pair
        from scaffold_sim.algorithms import scaffold_round
        from scaffold_sim.core import ChainState

        problem = random_problem("logistic", n_clients=13, n_records=12, d=3,
                                 batch_size=2, seed=9)
        cert = certificate_for(problem)
        rc = RunConfig(gamma=0.05, local_steps=2, rounds=1, seed=4)
        burn_in, n_samples, thinning = 3, 100, 2
        est = stationary.estimate_stationary(problem, cert, rc, burn_in=burn_in,
                                             n_samples=n_samples, thinning=thinning)

        pairs = stationary._xi_pair_subset(13)
        assert len(pairs) == 13 + stationary.MAX_XI_PAIRS
        sums = {p: np.zeros((3, 3)) for p in pairs}
        state = ChainState.zeros(3, 13)
        for t in range(burn_in + n_samples * thinning):
            state = scaffold_round(state, problem, rc, t)
            if t >= burn_in and (t - burn_in + 1) % thinning == 0:
                dxi = state.xis - cert.xi_star
                for c, cp in pairs:
                    sums[(c, cp)] += np.outer(dxi[c], dxi[cp])
        assert list(est.cov_xi) == pairs
        for p in pairs:
            assert np.array_equal(est.cov_xi[p], sums[p] / n_samples)

    def test_divergence_raises_with_round_index(self, quad_problem):
        from scaffold_sim.algorithms import DivergenceError

        cert = certificate_for(quad_problem)
        rc = RunConfig(gamma=50.0, local_steps=20, rounds=1, seed=0)
        with pytest.warns(RuntimeWarning) as record:
            with pytest.raises(DivergenceError) as info:
                stationary.estimate_stationary(quad_problem, cert, rc, burn_in=0,
                                               n_samples=100)
        assert info.value.round_index >= 0
        # the step-size warning only: no overflow warnings from the moment sums
        assert len(record) == 1
        assert "step-size conditions" in str(record[0].message)


    def test_overflowing_sums_raise_without_warnings(self, quad_problem):
        # gamma*L ~ 10 with H=1: the chain grows ~10x per round but stays
        # finite for 400 rounds, while its moment sums overflow after ~200
        from scaffold_sim.algorithms import DivergenceError

        cert = certificate_for(quad_problem)
        rc = RunConfig(gamma=6.0, local_steps=1, rounds=1, seed=0)
        with pytest.warns(RuntimeWarning) as record:
            with pytest.raises(DivergenceError) as info:
                stationary.estimate_stationary(quad_problem, cert, rc, burn_in=0,
                                               n_samples=300)
        assert info.value.round_index == 299
        assert len(record) == 1
        assert "step-size conditions" in str(record[0].message)


def _speedup_chains(n_list=(2, 8, 32), seed=1, **run):
    # the speedup task's set-up at toy size: every N re-splits one data
    # pool, and the step size comes from the largest N's certificate
    config = harness.ExperimentConfig(task="speedup", loss="quadratic", l2_weight=0.5,
                                      n_features=3, records_per_client=4,
                                      informative=[2, 3], noise_std=2.0, batch_size=2)
    pool = harness.build_problem(config, max(n_list))
    setups = []
    for n in n_list:
        problem = harness.build_problem(config, n, pool=pool)
        setups.append((problem, certificate_for(problem)))
    gamma = 0.125 / setups[-1][1].big_l
    defaults = dict(gamma=gamma, local_steps=3, rounds=1, seed=seed)
    defaults.update(run)
    return [(problem, cert, RunConfig(**defaults)) for problem, cert in setups]


def _assert_estimates_equal(got, expected):
    assert got.burn_in_rounds == expected.burn_in_rounds
    assert (got.n_samples, got.thinning) == (expected.n_samples, expected.thinning)
    for name in ("bias_theta", "cov_theta", "cov_theta_xi", "se_bias"):
        assert np.array_equal(getattr(got, name), getattr(expected, name)), name
    assert list(got.cov_xi) == list(expected.cov_xi)
    for pair, matrix in expected.cov_xi.items():
        assert np.array_equal(got.cov_xi[pair], matrix), pair


def _sweep_matches_separate_calls(chains, **kwargs):
    estimates = stationary.estimate_stationary_sweep(chains, **kwargs)
    assert len(estimates) == len(chains)
    for chain, est in zip(chains, estimates):
        _assert_estimates_equal(est, stationary.estimate_stationary(*chain, **kwargs))
    return estimates


def _reference_estimate(problem, cert, config, burn_in, n_samples, thinning=1):
    # the one-chain estimator loop over scaffold_round that the sweep replaced
    pairs = stationary._xi_pair_subset(problem.n_clients)
    state = ChainState.zeros(problem.d, problem.n_clients)
    t = 0
    for _ in range(burn_in):
        state = scaffold_round(state, problem, config, t)
        t += 1
    d = problem.d
    sum_dtheta, sum_outer = np.zeros(d), np.zeros((d, d))
    sum_theta_xi = np.zeros((problem.n_clients, d, d))
    sum_xi = {p: np.zeros((d, d)) for p in pairs}
    batch_size = n_samples // stationary.N_SE_BATCHES
    batch_means = np.zeros((stationary.N_SE_BATCHES, d))
    for k in range(n_samples):
        for _ in range(thinning):
            state = scaffold_round(state, problem, config, t)
            t += 1
        dtheta = state.theta - cert.theta_star
        dxi = state.xis - cert.xi_star
        sum_dtheta += dtheta
        sum_outer += np.outer(dtheta, dtheta)
        sum_theta_xi += dtheta[None, :, None] * dxi[:, None, :]
        for c, cp in pairs:
            sum_xi[(c, cp)] += np.outer(dxi[c], dxi[cp])
        batch_means[min(k // batch_size, stationary.N_SE_BATCHES - 1)] += dtheta
    counts = np.full(stationary.N_SE_BATCHES, batch_size, dtype=float)
    counts[-1] += n_samples - stationary.N_SE_BATCHES * batch_size
    batch_means /= counts[:, None]
    cov_theta = sum_outer / n_samples
    return stationary.StationaryEstimate(
        burn_in_rounds=burn_in, n_samples=n_samples, thinning=thinning,
        bias_theta=sum_dtheta / n_samples, cov_theta=0.5 * (cov_theta + cov_theta.T),
        cov_theta_xi=sum_theta_xi / n_samples,
        cov_xi={p: m / n_samples for p, m in sum_xi.items()},
        se_bias=batch_means.std(axis=0, ddof=1) / np.sqrt(stationary.N_SE_BATCHES),
    )


@pytest.mark.filterwarnings("ignore:step-size conditions")
class TestEstimateStationarySweep:
    def test_speedup_set_up_with_staggered_burn_ins(self):
        chains = _speedup_chains()
        estimates = _sweep_matches_separate_calls(chains, n_samples=100)
        burn_ins = [est.burn_in_rounds for est in estimates]
        assert len(set(burn_ins)) == 3  # every chain starts at its own iteration
        for chain, est in zip(chains, estimates):
            _assert_estimates_equal(est, _reference_estimate(*chain, est.burn_in_rounds, 100))

    def test_one_block_per_estimate(self, monkeypatch):
        # late chains join the one block at iteration 0; one chain is one block
        built = []

        class CountingBlock(stationary.ChainBlock):
            def __init__(self, chains):
                built.append(len(chains))
                super().__init__(chains)

        monkeypatch.setattr(stationary, "ChainBlock", CountingBlock)
        chains = _speedup_chains()
        estimates = stationary.estimate_stationary_sweep(chains, n_samples=100)
        assert len({est.burn_in_rounds for est in estimates}) == 3
        assert built == [3]
        built.clear()
        stationary.estimate_stationary(*chains[0], n_samples=100)
        assert built == [1]

    def test_late_chain_overflowing_at_its_round_0(self):
        # the shortest burn-in (1 round): the chain replays its round 0 from
        # iteration 0 on, and that round overflows
        chains = _speedup_chains(n_list=(2, 4, 8))
        problem, cert, config = chains[2]
        chains[2] = (problem, cert, replace(config, gamma=1e200 * config.gamma))
        with pytest.raises(DivergenceError) as alone:
            stationary.estimate_stationary(*chains[2], n_samples=100)
        with pytest.raises(DivergenceError) as info:
            stationary.estimate_stationary_sweep(chains, n_samples=100)
        assert alone.value.round_index == info.value.round_index == 0

    def test_explicit_burn_in(self):
        _sweep_matches_separate_calls(_speedup_chains(seed=4), burn_in=5, n_samples=110)

    def test_thinning(self):
        chains = _speedup_chains(n_list=(2, 4, 8), seed=7)
        estimates = _sweep_matches_separate_calls(chains, n_samples=105, thinning=3)
        _assert_estimates_equal(estimates[1], _reference_estimate(
            *chains[1], estimates[1].burn_in_rounds, 105, thinning=3))

    def test_two_step_sizes_on_one_problem(self, logistic_problem):
        # the bias check's shape: one problem at gamma and gamma/2
        cert = certificate_for(logistic_problem)
        gamma = 1.0 / (16.0 * cert.big_l)
        chains = [(logistic_problem, cert,
                   RunConfig(gamma=g, local_steps=5, rounds=1, seed=3))
                  for g in (gamma, gamma / 2.0)]
        estimates = _sweep_matches_separate_calls(chains, n_samples=100)
        assert estimates[1].burn_in_rounds > estimates[0].burn_in_rounds

    def test_staggered_logistic_chains_equal_the_round_loop(self, logistic_problem):
        # the chain with the shorter burn-in replays its round 0 from rows
        # the estimator zeroes in place in a yielded state; each estimate
        # equals the one-chain loop over scaffold_round bit for bit
        cert = certificate_for(logistic_problem)
        gamma = 1.0 / (16.0 * cert.big_l)
        chains = [(logistic_problem, cert, RunConfig(gamma=g, local_steps=5, rounds=1, seed=s))
                  for g, s in ((gamma, 3), (gamma / 2.0, 4))]
        estimates = _sweep_matches_separate_calls(chains, n_samples=100, thinning=2)
        assert estimates[1].burn_in_rounds > estimates[0].burn_in_rounds
        for chain, est in zip(chains, estimates):
            _assert_estimates_equal(est, _reference_estimate(*chain, est.burn_in_rounds, 100,
                                                             thinning=2))

    def test_exact_gradients(self):
        chains = _speedup_chains(n_list=(2, 4, 8), deterministic=True)
        chains.append((chains[0][0], chains[0][1], replace(chains[0][2], gamma=0.5 * chains[0][2].gamma)))
        _sweep_matches_separate_calls(chains, n_samples=100)

    # x300: the chain's state overflows at its round 85; x80: only its
    # moment sums do, which is reported after its last round, 102
    @pytest.mark.parametrize("factor", [300.0, 80.0])
    def test_one_diverging_chain_raises_at_its_own_round(self, factor):
        chains = _speedup_chains(n_list=(2, 4, 8))
        problem, cert, config = chains[1]
        chains[1] = (problem, cert, replace(config, gamma=factor * config.gamma))
        with pytest.raises(DivergenceError) as alone:
            stationary.estimate_stationary(*chains[1], n_samples=100)
        assert alone.value.round_index == {300.0: 85, 80.0: 102}[factor]
        for other in (chains[0], chains[2]):
            stationary.estimate_stationary(*other, n_samples=100)
        with pytest.raises(DivergenceError) as info:
            stationary.estimate_stationary_sweep(chains, n_samples=100)
        assert info.value.round_index == alone.value.round_index

    @pytest.mark.parametrize("key, change", [
        ("local_steps", lambda p, c: (p, replace(c, local_steps=c.local_steps + 1))),
        ("loss", lambda p, c: (objectives.Problem(
            [datagen.ClientDataset(x.features, np.sign(x.targets), x.client_id)
             for x in p.clients], "logistic", p.l2_weight, p.batch_size), c)),
        ("batch_size", lambda p, c: (objectives.Problem(p.clients, p.loss, p.l2_weight, 1), c)),
        ("batch_size", lambda p, c: (p, replace(c, deterministic=True))),
        ("l2_weight", lambda p, c: (objectives.Problem(p.clients, p.loss, 0.25, p.batch_size),
                                    c)),
    ])
    def test_mismatched_chains_raise_naming_the_key(self, key, change):
        chains = _speedup_chains(n_list=(2, 4))
        problem, cert, config = chains[1]
        problem, config = change(problem, config)
        chains[1] = (problem, cert, config)
        with pytest.raises(ValueError, match=f"share {key}"):
            stationary.estimate_stationary_sweep(chains, n_samples=100)

    def test_argument_validation(self):
        chains = _speedup_chains(n_list=(2, 4))
        with pytest.raises(ValueError, match="at least one chain"):
            stationary.estimate_stationary_sweep([], n_samples=100)
        with pytest.raises(ValueError, match="n_samples"):
            stationary.estimate_stationary_sweep(chains, n_samples=99)
        with pytest.raises(ValueError, match="thinning"):
            stationary.estimate_stationary_sweep(chains, n_samples=100, thinning=0)

    def test_step_size_diagnostics_for_every_chain(self):
        chains = _speedup_chains(n_list=(2, 4), gamma=10.0)
        with pytest.warns(RuntimeWarning, match="step-size conditions") as record:
            with pytest.raises(DivergenceError):
                stationary.estimate_stationary_sweep(chains, n_samples=100)
        assert len(record) == 2

    @settings(max_examples=15, deadline=None)
    @given(chain_specs=st.lists(
               st.tuples(st.integers(1, 4), st.floats(0.02, 0.2), st.integers(0, 3)),
               min_size=1, max_size=4),
           loss=st.sampled_from(["quadratic", "logistic"]),
           burn_in=st.one_of(st.none(), st.integers(0, 12)),
           thinning=st.integers(1, 2), shared_problem=st.booleans())
    def test_sweep_equals_separate_calls(self, chain_specs, loss, burn_in, thinning,
                                         shared_problem):
        # partitions of one table: 12 rows split over 1 to 4 clients
        pool = random_problem(loss, n_clients=1, n_records=12, d=2, batch_size=3)
        chains = []
        for n_clients, gamma, seed in chain_specs:
            problem = _resplit(pool, n_clients)
            if shared_problem and chains:
                problem = chains[0][0]
            chains.append((problem, certificate_for(problem),
                           RunConfig(gamma=gamma, local_steps=2, rounds=1, seed=seed)))
        kwargs = dict(burn_in=burn_in, n_samples=100, thinning=thinning)
        if burn_in is None:
            kwargs.pop("burn_in")
        _sweep_matches_separate_calls(chains, **kwargs)


@pytest.mark.filterwarnings("ignore:step-size conditions")
class TestThetaOnlySweep:
    @pytest.mark.parametrize("thinning", [1, 2])
    def test_theta_fields_equal_the_default_call(self, thinning):
        chains = _speedup_chains()
        full = stationary.estimate_stationary_sweep(chains, n_samples=100, thinning=thinning)
        theta_only = stationary.estimate_stationary_sweep(chains, n_samples=100,
                                                          thinning=thinning, xi_moments=False)
        assert len({est.burn_in_rounds for est in full}) == 3
        for got, expected in zip(theta_only, full):
            assert got.burn_in_rounds == expected.burn_in_rounds
            assert (got.n_samples, got.thinning) == (expected.n_samples, expected.thinning)
            for name in ("bias_theta", "cov_theta", "se_bias"):
                assert np.array_equal(getattr(got, name), getattr(expected, name)), name
            assert got.cov_theta_xi is None and got.cov_xi is None

    def test_report_needs_xi_moments(self):
        est = stationary.estimate_stationary_sweep(_speedup_chains(n_list=(2,)), n_samples=100,
                                                   xi_moments=False)[0]
        with pytest.raises(ValueError, match="xi_moments"):
            stationary.estimate_report(est)

    # the state overflows (x300) or only the moment sums, theta's among
    # them, do (x80), as in test_one_diverging_chain_raises_at_its_own_round
    @pytest.mark.parametrize("factor", [300.0, 80.0])
    def test_divergence_raises_at_the_default_round(self, factor):
        chains = _speedup_chains(n_list=(2, 4, 8))
        problem, cert, config = chains[1]
        chains[1] = (problem, cert, replace(config, gamma=factor * config.gamma))
        with pytest.raises(DivergenceError) as full:
            stationary.estimate_stationary_sweep(chains, n_samples=100)
        with pytest.raises(DivergenceError) as theta_only:
            stationary.estimate_stationary_sweep(chains, n_samples=100, xi_moments=False)
        assert theta_only.value.round_index == full.value.round_index

    def test_speedup_task_asks_for_theta_only(self, monkeypatch):
        config = harness.ExperimentConfig(
            task="speedup", loss="quadratic", l2_weight=0.5, n_features=3,
            records_per_client=4, informative=[2, 3], noise_std=2.0, batch_size=2,
            n_clients=[2, 4], gamma=None, gamma_over_l=0.125, local_steps=3, seeds=[0],
            n_samples=100)
        sweep = stationary.estimate_stationary_sweep
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return sweep(*args, **kwargs)

        monkeypatch.setattr(stationary, "estimate_stationary_sweep", spy)
        harness.run_speedup(config)
        assert [call.get("xi_moments") for call in calls] == [False]


class TestPredictionReport:
    def test_report_structure(self, logistic_problem):
        cert = certificate_for(logistic_problem)
        pred = stationary.predict_first_order(cert, 0.03, 5)
        lines = stationary.prediction_report(pred).splitlines()
        n, d = logistic_problem.n_clients, logistic_problem.d
        assert lines[:3] == ["gamma = 0.029999999999999999", "local_steps = 5",
                             f"n_clients = {n}"]
        headers = [line for line in lines if line.startswith("# ")]
        assert headers == (["# bias_pred", "# cov_theta_pred"]
                           + [f"# cov_theta_xi_pred_{c}" for c in range(n)]
                           + [f"# cov_xi_pred_{c}_{c}" for c in range(n)])
        block = lines.index("# cov_theta_pred")
        matrix = np.array([[float(v) for v in row.split(",")]
                           for row in lines[block + 1:block + 1 + d]])
        assert np.array_equal(matrix, pred.cov_theta)


class TestMatrixBlock:
    def test_bytes_match_numpy_scalar_formatting(self):
        rng = np.random.default_rng(2)
        m = np.concatenate([rng.standard_normal((3, 4)) * 10.0 ** rng.integers(-300, 300, (3, 4)),
                            [[0.0, -0.0, np.inf, np.nan]]])
        lines = []
        stationary._write_matrix_block(lines, "m", m)
        ref = ["# m"] + [",".join(f"{v:.17g}" for v in row) for row in m]
        assert lines == ref

    @staticmethod
    def _lines(matrix):
        lines = []
        stationary._write_matrix_block(lines, "m", matrix)
        return lines

    @staticmethod
    def _plain(matrix):
        return ["# m"] + [",".join("%.17g" % v for v in row)
                          for row in np.atleast_2d(matrix).tolist()]

    def test_signed_zero_pair_is_not_mirrored(self):
        m = np.array([[1.0, 0.0], [-0.0, 2.0]])
        assert np.array_equal(m, m.T)  # equal as numbers, not as bits
        assert self._lines(m) == ["# m", "1,0", "-0,2"]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 7))
    def test_symmetric_blocks_match_row_formatting(self, data, n):
        values = st.one_of(st.floats(), st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf]))
        m = np.array(data.draw(st.lists(values, min_size=n * n, max_size=n * n))).reshape(n, n)
        lower = np.tril_indices(n, -1)
        m[lower] = m.T[lower]
        if n > 1 and data.draw(st.booleans()):
            i, j = sorted(data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                                             unique=True)))
            m[i, j], m[j, i] = 0.0, -0.0
        assert self._lines(m) == self._plain(m)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), shape=st.one_of(
        st.tuples(st.integers(1, 6)),  # a vector, as `bias`, written 1 x d
        st.tuples(st.integers(1, 6), st.integers(1, 6))))
    def test_other_blocks_match_row_formatting(self, data, shape):
        size = int(np.prod(shape))
        m = np.array(data.draw(st.lists(st.floats(), min_size=size, max_size=size)))
        m = m.reshape(shape)
        assert self._lines(m) == self._plain(m)


class TestTableWidePrediction:
    @pytest.mark.parametrize("counts", [[20] * 4, [6, 20, 3, 20]])
    @pytest.mark.parametrize("loss", ["quadratic", "logistic"])
    def test_equals_per_client_loops(self, loss, counts):
        # the per-client loops the table kernels replaced, as reference
        problem = ragged_problem(loss, counts, d=4, seed=len(counts) + counts[0])
        cert = optimum.build_certificate(problem, optimum.solve_optimum(problem))
        gamma, n = 0.03, problem.n_clients
        pred = stationary.predict_first_order(cert, gamma, 5)
        a_sigma = stationary.sylvester_solve(cert.hessian_star, cert.sigma_eps_avg)
        cov_theta_xi = np.empty((n, problem.d, problem.d))
        for c in range(n):
            cov_theta_xi[c] = gamma / n * (
                a_sigma @ (_reference_hessian(problem, c, cert.theta_star) - cert.hessian_star)
                + (cert.sigma_eps_per_client[c] - cert.sigma_eps_avg))
        third = np.mean([_reference_third(problem, c, cert.theta_star, a_sigma)
                         for c in range(n)], axis=0)
        bias = -gamma / (2.0 * n) * np.linalg.solve(cert.hessian_star, third)
        assert np.array_equal(pred.cov_theta_xi, cov_theta_xi)
        assert np.array_equal(pred.bias_theta, bias)
        assert np.array_equal(np.signbit(pred.bias_theta), np.signbit(bias))

    def test_reads_the_certificate_hessians(self, logistic_problem, monkeypatch):
        # the client Hessians at theta_star come from the certificate, not
        # from a second pass over the table
        cert = certificate_for(logistic_problem)
        calls = []
        original = objectives.client_hessians

        def counting(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(objectives, "client_hessians", counting)
        stationary.predict_first_order(cert, 0.03, 5)
        assert calls == []
