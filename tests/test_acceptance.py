"""End-to-end acceptance suite.

One test per advertised property of the simulator; each prints a single
PASS/FAIL line (bypassing capture) so the suite doubles as a report:

1. contraction          coupled chains shrink at the geometric rate
   contraction-in-regime  the same inside gamma*H*(L+mu) <= 1
2. invariants           fixed point is stationary; controls stay sum-zero
3. variance-bound       stationary parameter variance under the crude bound
4. linear-speedup       N * variance constant across client counts
5. covariance-formula   first-order covariance matches the empirical one
6. bias-formula         first-order bias: scaling, direction, quadratic null
7. figure1-orderings    Scaffold beats FedAvg; more clients, lower plateau
8. oracle-equivalence   solvers and analytic derivatives vs independent oracles
9. reproducibility      byte-identical CLI output across repeats and threads

The slow chains run once per module via shared fixtures.
"""

import dataclasses
import filecmp

import numpy as np
import pytest

from scaffold_sim import algorithms, datagen, objectives, stationary
from scaffold_sim.cli import main as cli_main
from scaffold_sim.core import ChainState, RunConfig
from scaffold_sim.harness import ExperimentConfig, build_problem, run_speedup

from conftest import certificate_for
from reference import derive_stream, per_record_gradients, stochastic_gradient, sum_zero_violation
from test_objectives import fd_third_apply

# marks the checks whose estimator chains run where gamma*H*(L+mu) <= 1
# fails, so the step-size warning fires; elsewhere it fails the suite,
# like any other warning
outside_regime = pytest.mark.filterwarnings("ignore:step-size conditions")


@pytest.fixture
def report(capfd):
    """Print a line to the real terminal, bypassing pytest capture."""
    def _report(name, ok, detail):
        with capfd.disabled():
            print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return _report


def quad_desk_config():
    return ExperimentConfig(
        task="stationary", loss="quadratic", l2_weight=0.1, n_features=20,
        records_per_client=200, informative=[2, 10], generator_seeds=[123, 456],
        noise_std=10.0, batch_size=10,
    )


@pytest.fixture(scope="module")
def n8_setup():
    """N=8 quadratic desk problem with a 2e4-sample stationary estimate."""
    problem = build_problem(quad_desk_config(), 8)
    cert = certificate_for(problem)
    gamma = 1.0 / (8.0 * cert.big_l)
    config = RunConfig(gamma=gamma, local_steps=10, rounds=1, seed=0)
    est = stationary.estimate_stationary(problem, cert, config, n_samples=20000)
    pred = stationary.predict_first_order(cert, gamma, 10)
    return problem, cert, gamma, est, pred


def coupled_contraction(local_steps):
    """Twenty coupled chain pairs on the anisotropic N=4, d=10 quadratic problem.

    The feature scales and l2 weight make the condition number 10; gamma is
    1/(4L) and the chains run 200 rounds.  Returns the certificate, the run
    config, whether the mean distance kept under the envelope, and the detail
    line of the report.
    """
    d, n_clients, n_records = 10, 4, 50
    scales = np.geomspace(1.0, 0.22, d)
    clients = []
    for c in range(n_clients):
        rng = np.random.default_rng(11 * (c + 1))
        x = rng.standard_normal((n_records, d)) * scales
        y = x @ rng.standard_normal(d) + rng.standard_normal(n_records)
        clients.append(datagen.ClientDataset(x, y, client_id=c))
    grams = [c.features.T @ c.features / n_records for c in clients]
    gmin = min(np.linalg.eigvalsh(g)[0] for g in grams)
    gmax = max(np.linalg.eigvalsh(g)[-1] for g in grams)
    lam = max((0.1 * gmax - gmin) / 0.9, 1e-4)
    problem = objectives.Problem(clients, "quadratic", lam, batch_size=10)
    cert = certificate_for(problem)

    gamma, rounds = 1.0 / (4.0 * cert.big_l), 200
    config = RunConfig(gamma=gamma, local_steps=local_steps, rounds=rounds)
    starts = [(ChainState.zeros(d, n_clients),
               ChainState(np.random.default_rng(1000 + seed).standard_normal(d),
                          np.zeros((n_clients, d))))
              for seed in range(20)]
    mean_d = np.mean(algorithms.coupled_run(problem, config, range(20), starts), axis=0)
    rate = (1.0 - gamma * cert.mu / 4.0) ** local_steps
    bound = mean_d[0] * rate ** np.arange(rounds + 1)
    # the ratio is 1 at t = 0 by construction, so the margin is over t >= 1;
    # the empirical per-round rate is the least-squares slope of log D
    max_ratio = float(np.max(mean_d[1:] / bound[1:]))
    fitted_rate = float(np.exp(np.polyfit(np.arange(rounds + 1), np.log(mean_d), 1)[0]))
    ok = bool(np.all(mean_d <= bound * (1.0 + 1e-12)))
    return cert, config, ok, (f"max D/bound ratio over t >= 1 {max_ratio:.4f}, "
                              f"fitted rate per round {fitted_rate:.4f} vs bound {rate:.4f}")


def test_contraction(report):
    cert, _, ok, detail = coupled_contraction(local_steps=10)
    assert cert.mu / cert.big_l == pytest.approx(0.1, rel=1e-6)
    report("contraction", ok, detail)
    assert ok


def test_contraction_in_regime(report):
    # test_contraction at H = 3, where gamma*H*(L+mu) = 0.825: inside the
    # regime in which the contraction guarantee holds, which the step-size
    # check confirms
    cert, config, ok, detail = coupled_contraction(local_steps=3)
    assert all(config.stepsize_diagnostics(cert.mu, cert.big_l).values())
    report("contraction-in-regime", ok, detail)
    assert ok


@outside_regime
def test_invariants(report, n8_setup):
    problem, cert, gamma, _, _ = n8_setup
    config = RunConfig(gamma=gamma, local_steps=10, rounds=1, deterministic=True, seed=0)
    state = ChainState(cert.theta_star.copy(), cert.xi_star.copy())
    target = ChainState(cert.theta_star, cert.xi_star)
    max_dist, max_violation = 0.0, 0.0
    from scaffold_sim.core import lambda_norm_sq
    for t in range(100):
        state = algorithms.scaffold_round(state, problem, config, t)
        dist = np.sqrt(lambda_norm_sq(state, target, gamma, 10))
        max_dist = max(max_dist, dist)
        max_violation = max(max_violation, sum_zero_violation(state.theta, state.xis))
    ok = max_dist <= 1e-10 and max_violation <= 1e-8
    report("invariants", ok,
           f"max fixed-point drift {max_dist:.3g}, max sum-zero "
           f"violation {max_violation:.3g}")
    assert ok


@outside_regime
def test_variance_bound(report, n8_setup):
    _, cert, gamma, est, _ = n8_setup
    trace = float(np.trace(est.cov_theta))
    bound = 8.0 * gamma * cert.sigma_star_sq / cert.mu
    ok = trace <= bound
    report("variance-bound", ok, f"trace {trace:.3g} <= bound {bound:.3g}")
    assert ok


@outside_regime
def test_linear_speedup(report):
    # the shipped speedup task: all client counts re-split one pool sized
    # for N=32 and share the step size 1/(8L) of the N=32 certificate, so
    # the only varying knob is N itself
    config = dataclasses.replace(
        quad_desk_config(), task="speedup", n_clients=[2, 8, 32], gamma=None,
        gamma_over_l=0.125, local_steps=10, seeds=[0], n_samples=20000,
    )
    rows = [row.split(",") for row in run_speedup(config).splitlines()[1:]]
    scaled = [int(n) * float(trace) for n, trace, _ in rows]
    spread = (max(scaled) - min(scaled)) / min(scaled)
    ok = spread <= 0.25
    report("linear-speedup", ok,
           f"N*trace spread {spread:.3%} over N in (2, 8, 32)")
    assert ok


@outside_regime
def test_covariance_formula(report, n8_setup):
    _, _, _, est, pred = n8_setup
    rel = float(np.linalg.norm(est.cov_theta - pred.cov_theta)
                / np.linalg.norm(pred.cov_theta))
    ok = rel <= 0.2
    report("covariance-formula", ok, f"relative Frobenius error {rel:.3f}")
    assert ok


@outside_regime
def test_bias_formula(report):
    # heterogeneous logistic problem in d=5 with N=4 clients, single-record
    # batches for a strong noise signal; 1e5 post-burn-in samples
    def run_config(gamma):
        return RunConfig(gamma=gamma, local_steps=5, rounds=1, seed=3)

    log_cfg = ExperimentConfig(
        task="stationary", loss="logistic", l2_weight=0.02, n_features=5,
        records_per_client=200, informative=[2, 5], generator_seeds=[31, 41],
        class_sep=0.5, batch_size=1,
    )
    problem = build_problem(log_cfg, 4)
    cert = certificate_for(problem)
    gamma0 = 1.0 / (16.0 * cert.big_l)
    gammas = (gamma0, gamma0 / 2.0)

    # both step sizes run as one block of chains
    est = dict(zip(gammas, stationary.estimate_stationary_sweep(
        [(problem, cert, run_config(g)) for g in gammas], n_samples=100000)))
    pred = {g: stationary.predict_first_order(cert, g, 5) for g in gammas}

    ratio = (np.linalg.norm(est[gamma0].bias_theta)
             / np.linalg.norm(est[gamma0 / 2.0].bias_theta))
    ok_ratio = 1.4 <= ratio <= 2.6

    # direction check gated on signal strength: only demanded when the
    # predicted bias rises 5 standard errors above the estimation noise
    cosines = []
    ok_cosine = True
    for g in gammas:
        b, bp = est[g].bias_theta, pred[g].bias_theta
        cos = float(b @ bp / (np.linalg.norm(b) * np.linalg.norm(bp)))
        cosines.append(cos)
        if np.linalg.norm(bp) >= 5.0 * np.linalg.norm(est[g].se_bias):
            ok_cosine &= cos >= 0.8

    # control: the same protocol on a quadratic problem has no first-order
    # bias, so the measured bias must sit inside the noise floor
    quad_cfg = ExperimentConfig(
        task="stationary", loss="quadratic", l2_weight=0.02, n_features=5,
        records_per_client=200, informative=[2, 5], generator_seeds=[31, 41],
        noise_std=10.0, batch_size=1,
    )
    qproblem = build_problem(quad_cfg, 4)
    qcert = certificate_for(qproblem)
    # a separate block: the chains of one block must share the loss
    qest = stationary.estimate_stationary(qproblem, qcert, run_config(gamma0),
                                          n_samples=100000)
    null_ratio = (np.linalg.norm(qest.bias_theta)
                  / np.linalg.norm(qest.se_bias))
    ok_null = null_ratio <= 3.0

    ok = ok_ratio and ok_cosine and ok_null
    report("bias-formula", ok,
           f"gamma-halving ratio {ratio:.2f}, cosines "
           f"{cosines[0]:.3f}/{cosines[1]:.3f}, quadratic null "
           f"{null_ratio:.2f} se")
    assert ok


@pytest.fixture(scope="module")
def figure1_runs(tmp_path_factory):
    """Directory of three default figure1 CLI runs, a and b at 1 thread, c at 8."""
    tmp_path = tmp_path_factory.mktemp("figure1")
    config_path = tmp_path / "fig.txt"
    config_path.write_text("[experiment]\ntask = figure1\n")
    for label, threads in (("a", 1), ("b", 1), ("c", 8)):
        code = cli_main(["figure1", "--config", str(config_path),
                         "--out", str(tmp_path / f"{label}.csv"), "--threads", str(threads)])
        assert code == 0
    return tmp_path


def test_figure1_orderings(report, figure1_runs):
    # run a's aggregate: its bytes are the same at any thread count
    agg = (figure1_runs / "a.agg.csv").read_text()
    series = {}
    for row in agg.strip().splitlines()[1:]:
        algo, n, _, mean, _ = row.split(",")
        series.setdefault((algo, int(n)), []).append(float(mean))
    plateau = {k: float(np.mean(v[-20:])) for k, v in series.items()}

    ok = (plateau[("scaffold", 10)] < plateau[("fedavg", 10)]
          and plateau[("scaffold", 100)] < plateau[("fedavg", 100)]
          and plateau[("scaffold", 100)] < plateau[("scaffold", 10)])
    report("figure1-orderings", ok,
           "plateau mse scaffold/fedavg "
           f"N=10: {plateau[('scaffold', 10)]:.2e}/{plateau[('fedavg', 10)]:.2e}, "
           f"N=100: {plateau[('scaffold', 100)]:.2e}/{plateau[('fedavg', 100)]:.2e}")
    assert ok


def test_oracle_equivalence(report, two_client_1d):
    details = []

    # resolvent solver against its defining equation on random SPD inputs
    rng = np.random.default_rng(8)
    max_res = 0.0
    for _ in range(20):
        d = int(rng.integers(2, 13))
        a = rng.standard_normal((d, d))
        h = a @ a.T + 0.1 * np.eye(d)
        rhs = rng.standard_normal((d, d))
        rhs = 0.5 * (rhs + rhs.T)
        x = stationary.sylvester_solve(h, rhs)
        res = np.linalg.norm(h @ x + x @ h - rhs) / np.linalg.norm(rhs)
        max_res = max(max_res, res)
    ok_sylvester = max_res <= 1e-10
    details.append(f"resolvent residual {max_res:.2g}")

    # analytic third derivative against finite-difference Hessians
    max_rel = 0.0
    for seed in range(5):
        rng = np.random.default_rng(500 + seed)
        x = rng.standard_normal((25, 4))
        y = np.where(rng.random(25) < 0.5, 1.0, -1.0)
        client = datagen.ClientDataset(x, y)
        problem = objectives.Problem([client], "logistic", 0.1, 1)
        theta = 0.5 * rng.standard_normal(4)
        m = rng.standard_normal((4, 4))
        m = 0.5 * (m + m.T)
        exact = objectives.third_derivative_apply(problem, 0, theta, m)
        approx = fd_third_apply(problem, 0, theta, m)
        rel = np.linalg.norm(exact - approx) / max(1.0, np.linalg.norm(exact))
        max_rel = max(max_rel, rel)
    ok_third = max_rel <= 1e-4
    details.append(f"third-derivative error {max_rel:.2g}")

    # analytic noise covariance against a 1e5-draw empirical covariance
    rng = np.random.default_rng(9)
    x = rng.standard_normal((60, 4))
    y = x @ rng.standard_normal(4) + rng.standard_normal(60)
    problem = objectives.Problem([datagen.ClientDataset(x, y, client_id=0)],
                                 "quadratic", 0.1, batch_size=5)
    theta = 0.4 * np.ones(4)
    exact = objectives.noise_covariance_at(problem, 0, theta)
    from scaffold_sim.core import batch_uniform_indices
    idx = batch_uniform_indices(7, 0, np.array([0], dtype=np.uint64),
                                100000, 60, 5)[:, 0, :]
    grads = per_record_gradients(problem, 0, theta)
    draws = grads[idx].mean(axis=1)
    centered = draws - objectives.full_gradient(problem, 0, theta)
    empirical = centered.T @ centered / len(draws)
    cov_rel = float(np.linalg.norm(empirical - exact) / np.linalg.norm(exact))
    ok_cov = cov_rel <= 0.05
    details.append(f"noise-covariance error {cov_rel:.2g}")

    # with one client the round operator is plain SGD, bit for bit
    sgd_problem = objectives.Problem(
        [datagen.ClientDataset(x, y, client_id=0)], "quadratic", 0.1, 5
    )
    config = RunConfig(gamma=0.01, local_steps=7, rounds=1, seed=13)
    state = ChainState.zeros(4, 1)
    theta_sgd = np.zeros(4)
    for t in range(4):
        state = algorithms.scaffold_round(state, sgd_problem, config, t)
        for h in range(7):
            stream = derive_stream(13, t, 0, h)
            grad = stochastic_gradient(sgd_problem, 0, theta_sgd, stream)
            theta_sgd = theta_sgd - 0.01 * grad
    ok_sgd = bool(np.array_equal(state.theta, theta_sgd))
    details.append(f"single-client sgd bitwise {ok_sgd}")

    # hand-computed two-client deterministic round
    hand = RunConfig(gamma=0.1, local_steps=2, rounds=1, deterministic=True)
    out = algorithms.scaffold_round(
        ChainState(np.array([1.0]), np.zeros((2, 1))), two_client_1d, hand, 0
    )
    hand_err = max(abs(out.theta[0] - 0.81), abs(out.xis[0, 0] - 0.95),
                   abs(out.xis[1, 0] + 0.95))
    ok_hand = hand_err <= 1e-12
    details.append(f"hand-round error {hand_err:.2g}")

    ok = ok_sylvester and ok_third and ok_cov and ok_sgd and ok_hand
    report("oracle-equivalence", ok, "; ".join(details))
    assert ok


def test_reproducibility(report, figure1_runs):
    tmp_path = figure1_runs
    outs = {label: tmp_path / f"{label}.csv" for label in "abc"}
    same_repeat = filecmp.cmp(outs["a"], outs["b"], shallow=False)
    same_threads = filecmp.cmp(outs["a"], outs["c"], shallow=False)
    agg_repeat = filecmp.cmp(tmp_path / "a.agg.csv", tmp_path / "b.agg.csv",
                             shallow=False)
    agg_threads = filecmp.cmp(tmp_path / "a.agg.csv", tmp_path / "c.agg.csv",
                              shallow=False)
    ok = same_repeat and same_threads and agg_repeat and agg_threads
    report("reproducibility", ok,
           f"repeat identical {same_repeat}, 1-vs-8 threads identical "
           f"{same_threads}")
    assert ok
