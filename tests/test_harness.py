import numpy as np
import pytest

from scaffold_sim import harness
from scaffold_sim.cli import main as cli_main
from scaffold_sim.harness import ConfigError, ExperimentConfig, format_config, parse_config


SMALL_PROBLEM = """\
[problem]
loss = quadratic
l2_weight = 0.5
n_features = 5
records_per_client = 20
informative = 2,4
noise_std = 2
"""

SMALL_RUN = """\
[run]
gamma = 0.02
local_steps = 5
rounds = 20
batch_size = 4
n_clients = 4
seeds = 0,1
"""


def write_config(tmp_path, task, extra_run="", body=None):
    text = f"[experiment]\ntask = {task}\n" + (body or SMALL_PROBLEM) \
        + SMALL_RUN + extra_run
    path = tmp_path / "config.txt"
    path.write_text(text)
    return path


class TestParseConfig:
    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.txt")

    def test_missing_task(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[run]\ngamma = 0.1\n")
        with pytest.raises(ConfigError, match="task"):
            parse_config(path)

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[wat]\n")
        with pytest.raises(ConfigError, match="unknown section `wat`"):
            parse_config(path)

    def test_unknown_key_names_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = figure1\nbogus = 1\n")
        with pytest.raises(ConfigError, match="line 3: unknown key `bogus`"):
            parse_config(path)

    def test_type_mismatch(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = figure1\n[run]\nrounds = soon\n")
        with pytest.raises(ConfigError, match="expected integer"):
            parse_config(path)

    def test_key_outside_section(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("task = figure1\n")
        with pytest.raises(ConfigError, match="outside any"):
            parse_config(path)

    def test_negative_gamma_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = figure1\n[run]\ngamma = -1\n")
        with pytest.raises(ConfigError, match="gamma"):
            parse_config(path)

    def test_odd_client_count_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = figure1\n[run]\nn_clients = 3\n")
        with pytest.raises(ConfigError, match="even"):
            parse_config(path)

    @pytest.mark.parametrize("informative", ["2,21", "0,10", "-1,3"])
    def test_informative_outside_feature_range_rejected(self, tmp_path, informative):
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = figure1\n[problem]\nn_features = 20\n"
                        f"informative = {informative}\n")
        with pytest.raises(ConfigError, match="informative"):
            parse_config(path)

    def test_informative_equal_to_n_features_accepted(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = figure1\n[problem]\nn_features = 5\n"
                        "informative = 1,5\n")
        assert parse_config(path).informative == [1, 5]

    def test_speedup_pool_not_divisible_rejected(self, tmp_path):
        # 20 * 8 / 2 = 80 records per source do not split over 6 / 2 = 3 clients
        body = "[problem]\nrecords_per_client = 20\n[run]\nn_clients = {}\n"
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = speedup\n" + body.format("6,8"))
        with pytest.raises(ConfigError, match="n_clients"):
            parse_config(path)
        path.write_text("[experiment]\ntask = speedup\n" + body.format("2,8"))
        assert parse_config(path).n_clients == [2, 8]
        # other tasks give each N its own pool, which always splits
        path.write_text("[experiment]\ntask = figure1\n" + body.format("6,8"))
        assert parse_config(path).n_clients == [6, 8]

    def test_complexity_requires_epsilon(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = complexity\n")
        with pytest.raises(ConfigError, match="epsilon"):
            parse_config(path)

    def test_gamma_over_l_replaces_default_gamma(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = figure1\n[run]\ngamma_over_L = 0.125\n")
        config = parse_config(path)
        assert config.gamma is None
        assert config.gamma_over_l == 0.125

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("# top comment\n\n[experiment]\ntask = predict\n")
        assert parse_config(path).task == "predict"

    def test_defaults(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = figure1\n")
        config = parse_config(path)
        assert config.gamma == 0.05
        assert config.local_steps == 100
        assert config.rounds == 100
        assert config.batch_size == 10
        assert config.n_clients == [10, 100]
        assert config.loss == "logistic"

    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path, "stationary", extra_run="n_samples = 200\n")
        config = parse_config(path)
        path2 = tmp_path / "formatted.txt"
        path2.write_text(format_config(config))
        assert parse_config(path2) == config


class TestBuildProblem:
    def test_shapes_and_heterogeneity(self):
        config = ExperimentConfig(task="figure1", loss="quadratic",
                                  n_features=6, records_per_client=10,
                                  informative=[2, 4], batch_size=2)
        problem = harness.build_problem(config, 4)
        assert problem.n_clients == 4
        assert all(c.n_records == 10 for c in problem.clients)
        assert problem.d == 6
        # the two halves come from different generators
        assert not np.array_equal(problem.clients[0].features,
                                  problem.clients[2].features)

    def test_source_records_override(self):
        config = ExperimentConfig(task="figure1", loss="quadratic",
                                  n_features=4, records_per_client=10,
                                  informative=[2, 4])
        problem = harness.build_problem(config, 2, source_records=30)
        assert all(c.n_records == 30 for c in problem.clients)


def small_config(**kwargs):
    defaults = dict(task="figure1", loss="quadratic", l2_weight=0.5,
                    n_features=5, records_per_client=20, informative=[2, 4],
                    noise_std=2.0, gamma=0.02, local_steps=5, rounds=10,
                    batch_size=4, n_clients=[4], seeds=[0, 1],
                    algorithms=["scaffold", "fedavg"], n_samples=100,
                    burn_in=20)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults).validate()


class TestRunners:
    def test_figure1_aggregate_consistent(self):
        config = small_config()
        per_seed, agg = harness.run_figure1(config)
        lines = per_seed.strip().splitlines()
        assert lines[0] == "algorithm,N,seed,t,mse"
        # 2 algorithms x 1 N x 2 seeds x 11 rounds
        assert len(lines) == 1 + 2 * 2 * 11

        data = {}
        for line in lines[1:]:
            algo, n, seed, t, mse = line.split(",")
            data.setdefault((algo, int(t)), []).append(float(mse))
        agg_lines = agg.strip().splitlines()
        assert agg_lines[0] == "algorithm,N,t,mean_mse,std_mse"
        for line in agg_lines[1:]:
            algo, n, t, mean, std = line.split(",")
            vals = np.array(data[(algo, int(t))])
            assert float(mean) == pytest.approx(vals.mean(), rel=1e-12)
            assert float(std) == pytest.approx(vals.std(), rel=1e-12, abs=1e-15)

    def test_figure1_thread_count_invariance(self):
        config = small_config(seeds=[0, 1, 2])
        assert harness.run_figure1(config, threads=1) == \
            harness.run_figure1(config, threads=4)

    def test_coupling_bound_anchored_at_start(self):
        config = small_config(task="coupling", rounds=15)
        out = harness.run_coupling(config)
        lines = out.strip().splitlines()
        assert lines[0] == "t,mean_D,bound_D"
        t0, mean0, bound0 = lines[1].split(",")
        assert t0 == "0"
        assert float(mean0) == pytest.approx(float(bound0))
        # bound decays geometrically
        bounds = [float(l.split(",")[2]) for l in lines[1:]]
        ratios = np.diff(np.log(bounds))
        assert np.allclose(ratios, ratios[0])

    def test_speedup_rows(self):
        config = small_config(task="speedup", n_clients=[2, 4], n_samples=100)
        out = harness.run_speedup(config)
        lines = out.strip().splitlines()
        assert lines[0] == "N,trace_cov_theta,predicted_trace"
        assert [l.split(",")[0] for l in lines[1:]] == ["2", "4"]
        for line in lines[1:]:
            _, emp, pred = line.split(",")
            assert float(emp) > 0 and float(pred) > 0

    def test_stationary_report(self):
        config = small_config(task="stationary", n_samples=100)
        out = harness.run_stationary(config)
        assert out.startswith("gamma = 0.02")
        assert "trace_cov_theta = " in out

    def test_predict_report(self):
        config = small_config(task="predict")
        out = harness.run_predict(config)
        assert "bias_pred_norm = 0\n" in out  # quadratic loss: zero bias
        assert "# cov_theta_pred" in out

    def test_complexity_rows(self):
        config = small_config(task="complexity", epsilon=0.1, n_clients=[2, 4])
        out = harness.run_complexity(config)
        lines = out.strip().splitlines()
        assert lines[0] == "N,gamma,local_steps,rounds,grads_per_client,n_max,n_clients_ok"
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[5] == "inf"  # quadratic: no client ceiling
            assert fields[6] == "true"

    def test_run_task_writes_files(self, tmp_path):
        out = tmp_path / "fig.csv"
        config = small_config(rounds=3, seeds=[0])
        text = harness.run_task(config, out_path=str(out))
        assert out.read_text() == text
        agg = tmp_path / "fig.agg.csv"
        assert agg.exists()

    def test_aggregate_path(self):
        assert harness.aggregate_path("a/b.csv") == "a/b.agg.csv"
        assert harness.aggregate_path("plain") == "plain.agg"


class TestCli:
    def test_print_config_round_trip(self, tmp_path, capsys):
        path = write_config(tmp_path, "figure1")
        assert cli_main(["print-config", "--config", str(path)]) == 0
        printed = capsys.readouterr().out
        path2 = tmp_path / "echo.txt"
        path2.write_text(printed)
        assert parse_config(path2) == parse_config(path)

    def test_missing_config_exits_nonzero(self, tmp_path, capsys):
        code = cli_main(["figure1", "--config", str(tmp_path / "nope.txt")])
        assert code == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_task_mismatch(self, tmp_path, capsys):
        path = write_config(tmp_path, "figure1")
        assert cli_main(["coupling", "--config", str(path)]) == 2
        assert "ConfigError" in capsys.readouterr().err

    def test_seed_override(self, tmp_path, capsys):
        path = write_config(tmp_path, "figure1")
        assert cli_main(["print-config", "--config", str(path),
                         "--seed-override", "7"]) == 0
        assert "seeds = 7\n" in capsys.readouterr().out

    def test_figure1_writes_output(self, tmp_path):
        path = write_config(tmp_path, "figure1",
                            extra_run="rounds = 2\nseeds = 0\n")
        out = tmp_path / "out.csv"
        assert cli_main(["figure1", "--config", str(path),
                         "--out", str(out)]) == 0
        assert out.read_text().startswith("algorithm,N,seed,t,mse")
        assert (tmp_path / "out.agg.csv").exists()

    def test_stdout_when_no_output_path(self, tmp_path, capsys):
        path = write_config(tmp_path, "complexity",
                            extra_run="epsilon = 0.1\n")
        assert cli_main(["complexity", "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith("N,gamma")
