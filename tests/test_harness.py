import ast
import collections
import dataclasses
import importlib
import importlib.util
import math
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import CONFIGS, FIGURE1_GAMMA_OVER_L
from test_optimum import _count_table_passes

import scaffold_sim
from scaffold_sim import algorithms, cli, harness, stationary
from scaffold_sim.cli import main as cli_main
from scaffold_sim.core import ChainState, RunConfig
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
    # the [run] lines that `task` reads: a key it ignores is rejected
    run = "".join(line for line in (SMALL_RUN + extra_run).splitlines(keepends=True)
                  if line.partition(" =")[0] not in _unread_keys(task))
    text = f"[experiment]\ntask = {task}\n" + (body or SMALL_PROBLEM) + run
    path = tmp_path / "config.txt"
    path.write_text(text)
    return path


@st.composite
def _valid_configs(draw):
    """Random configs that pass every rule, built valid rather than filtered."""
    task = draw(st.sampled_from(harness.TASKS))
    n_features = draw(st.integers(1, 50))
    n_clients = draw(st.lists(st.integers(1, 100).map(lambda k: 2 * k), min_size=1, max_size=5,
                              unique=True))
    records = draw(st.integers(1, 500))
    if task == "speedup":
        # the pool of records_per_client * max(N) / 2 must split over every N / 2
        records *= 2 * math.lcm(*(n // 2 for n in n_clients))
    gamma = draw(st.none() | st.floats(1e-300, 1e3))
    gamma_over_l = draw(st.floats(1e-300, 1e3)) if gamma is None else None
    positive = st.floats(1e-300, 1e3)
    config = ExperimentConfig(
        task=task,
        loss=draw(st.sampled_from(["quadratic", "logistic"])),
        l2_weight=draw(st.floats(0.0, 1e3)),
        n_features=n_features,
        records_per_client=records,
        informative=draw(st.lists(st.integers(1, n_features), min_size=2, max_size=2)),
        generator_seeds=draw(st.lists(st.integers(0, 2 ** 32), min_size=2, max_size=2)),
        noise_std=draw(st.floats(0.0, allow_infinity=False)),
        class_sep=draw(st.floats(0.0, 1e6)),
        gamma=gamma,
        gamma_over_l=gamma_over_l,
        local_steps=draw(st.integers(1, 10 ** 6)),
        rounds=draw(st.integers(0, 10 ** 6)),
        batch_size=draw(st.integers(1, 1000)),
        n_clients=n_clients,
        seeds=draw(st.lists(st.integers(0, 2 ** 63), min_size=1, max_size=5, unique=True)),
        algorithms=draw(st.lists(st.sampled_from(["scaffold", "fedavg"]),
                                 min_size=1, max_size=2, unique=True)),
        burn_in=draw(st.none() | st.integers(0, 10 ** 6)),
        n_samples=draw(st.integers(100, 10 ** 6)),
        thinning=draw(st.integers(1, 100)),
        epsilon=draw(positive if task == "complexity" else st.none() | positive),
    )
    # a key the task or loss does not read keeps its default: no file can set it
    default = ExperimentConfig(task="figure1")
    return dataclasses.replace(config, **{f.name: getattr(default, f.name)
                                          for key, f in harness._FIELDS.items()
                                          if harness._unread(key, config)})


def _reference_format_config(config):
    # the hand-written writer that the loop over the fields replaced, writing
    # the keys that the task and loss read
    def join(xs):
        return ",".join(str(x) for x in xs)

    task = config.task
    lines = [
        "[experiment]",
        f"task = {config.task}",
        "",
        "[problem]",
        f"loss = {config.loss}",
        f"l2_weight = {config.l2_weight:.17g}",
        f"n_features = {config.n_features}",
        f"records_per_client = {config.records_per_client}",
        f"informative = {join(config.informative)}",
        f"generator_seeds = {join(config.generator_seeds)}",
        f"noise_std = {config.noise_std:.17g}" if config.loss == "quadratic"
        else f"class_sep = {config.class_sep:.17g}",
        "",
        "[run]",
    ]
    if task != "complexity":
        if config.gamma is not None:
            lines.append(f"gamma = {config.gamma:.17g}")
        if config.gamma_over_l is not None:
            lines.append(f"gamma_over_L = {config.gamma_over_l:.17g}")
        lines.append(f"local_steps = {config.local_steps}")
    if task in ("figure1", "coupling"):
        lines.append(f"rounds = {config.rounds}")
    lines += [
        f"batch_size = {config.batch_size}",
        f"n_clients = {join(config.n_clients)}",
    ]
    if task in ("figure1", "coupling", "speedup", "stationary"):
        lines.append(f"seeds = {join(config.seeds)}")
    if task == "figure1":
        lines.append(f"algorithms = {join(config.algorithms)}")
    if task in ("speedup", "stationary"):
        if config.burn_in is not None:
            lines.append(f"burn_in = {config.burn_in}")
        lines += [
            f"n_samples = {config.n_samples}",
            f"thinning = {config.thinning}",
        ]
    if task == "complexity":
        lines.append(f"epsilon = {config.epsilon:.17g}")
    return "\n".join(lines) + "\n"


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

    def test_line_without_equals_names_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = figure1\n[run]\nrounds 5\n")
        with pytest.raises(ConfigError, match="line 4: expected `key = value`"):
            parse_config(path)

    def test_empty_value_names_key(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = figure1\n[run]\nrounds =\n")
        with pytest.raises(ConfigError, match="line 4: empty value for key `rounds`"):
            parse_config(path)

    def test_output_key_rejected(self, tmp_path):
        # --out is the one owner of the output path
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = figure1\noutput = x.csv\n")
        with pytest.raises(ConfigError, match="line 3: unknown key `output`"):
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
        assert parse_config(path).informative == (1, 5)

    def test_speedup_pool_not_divisible_rejected(self, tmp_path):
        # 20 * 8 / 2 = 80 records per source do not split over 6 / 2 = 3 clients
        body = "[problem]\nrecords_per_client = 20\n[run]\nn_clients = {}\n"
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = speedup\n" + body.format("6,8"))
        with pytest.raises(ConfigError, match="n_clients"):
            parse_config(path)
        path.write_text("[experiment]\ntask = speedup\n" + body.format("2,8"))
        assert parse_config(path).n_clients == (2, 8)
        # other tasks give each N its own pool, which always splits
        path.write_text("[experiment]\ntask = figure1\n" + body.format("6,8"))
        assert parse_config(path).n_clients == (6, 8)

    def test_empty_algorithm_list_rejected(self, tmp_path):
        # `format_config` would write it as `algorithms = `, which cannot be parsed
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = figure1\n[run]\nalgorithms = ,\n")
        with pytest.raises(ConfigError, match="algorithms"):
            parse_config(path)

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

    def test_gamma_and_gamma_over_l_together_rejected(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = predict\n[run]\ngamma = 0.05\n"
                        "gamma_over_L = 0.5\n")
        with pytest.raises(ConfigError, match=r"`gamma` or `gamma_over_L`"):
            parse_config(path)
        assert cli_main(["print-config", "--config", str(path)]) == 2
        with pytest.raises(ConfigError, match=r"`gamma` or `gamma_over_L`"):
            ExperimentConfig(task="predict", gamma_over_l=0.5)

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
        assert config.n_clients == (10, 100)
        assert config.loss == "logistic"

    def test_round_trip(self, tmp_path):
        path = write_config(tmp_path, "stationary", extra_run="n_samples = 200\n")
        config = parse_config(path)
        path2 = tmp_path / "formatted.txt"
        path2.write_text(format_config(config))
        assert parse_config(path2) == config

    @settings(max_examples=60, deadline=None)
    @given(config=_valid_configs())
    def test_round_trip_property(self, config):
        # gamma_over_L without gamma, optional burn_in / epsilon,
        # list-valued keys and 17-digit floats all survive the round trip
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.txt"
            path.write_text(format_config(config))
            assert parse_config(path) == config


    @settings(max_examples=200, deadline=None)
    @given(config=_valid_configs())
    def test_format_config_equals_reference_writer(self, config):
        assert format_config(config) == _reference_format_config(config)


class TestConfigRanges:
    @pytest.mark.parametrize("section, line, key", [
        ("problem", "records_per_client = 0", "records_per_client"),
        ("problem", "l2_weight = -1", "l2_weight"),
        ("problem", "l2_weight = nan", "l2_weight"),
        ("problem", "generator_seeds = -1,4", "generator_seeds"),
        ("run", "thinning = 0", "thinning"),
        ("run", "seeds = -3", "seeds"),
        ("run", f"seeds = 0,{2 ** 64}", "seeds"),
        ("run", "burn_in = -5", "burn_in"),
        ("experiment", "task = train", "task"),
        ("problem", "loss = hinge", "loss"),
        ("problem", "noise_std = loud", "noise_std"),
        ("problem", "noise_std = nan", "noise_std"),
        ("problem", "noise_std = -1", "noise_std"),
        ("problem", "class_sep = -2", "class_sep"),
        ("problem", "class_sep = inf", "class_sep"),
        ("problem", "informative = 2", "informative"),
        ("problem", "generator_seeds = 1,2,3", "generator_seeds"),
        ("run", "gamma_over_L = 0", "gamma_over_L"),
        ("run", "local_steps = 0", "local_steps"),
        ("run", "rounds = -1", "rounds"),
        ("run", "batch_size = 0", "batch_size"),
        ("run", "n_clients = ,", "n_clients"),
        ("run", "seeds = ,", "seeds"),
        ("run", "algorithms = sgd", "algorithms"),
        ("run", "n_samples = 99", "n_samples"),
        ("run", "epsilon = 0", "epsilon"),
        ("run", "gamma = nan", "gamma"),
        ("run", "gamma_over_L = inf", "gamma_over_L"),
        ("run", "epsilon = nan", "epsilon"),
        ("problem", "l2_weight = inf", "l2_weight"),
        ("problem", "n_features = 0", "n_features"),
        ("problem", "n_features = -3", "n_features"),
        ("run", "gamma = -1", "gamma"),
        ("run", "n_clients = 2,,4", "n_clients"),
        ("run", "seeds = 0,1,", "seeds"),
        ("problem", "informative = 2,,4", "informative"),
        ("run", "algorithms = scaffold,,fedavg", "algorithms"),
    ])
    def test_out_of_range_value_names_the_key(self, tmp_path, section, line, key):
        path = tmp_path / "c.txt"
        path.write_text(f"[experiment]\ntask = stationary\n[{section}]\n{line}\n")
        with pytest.raises(ConfigError, match=f"key `{key}`"):
            parse_config(path)

    @pytest.mark.parametrize("section, line, message", [
        ("problem", "l2_weight = -1", "key `l2_weight`: must be >= 0, got -1.0"),
        ("problem", "n_features = 0", "key `n_features`: must be >= 1, got 0"),
        ("problem", "class_sep = inf", "key `class_sep`: must be finite, got inf"),
        ("run", "n_samples = 99", "key `n_samples`: must be >= 100, got 99"),
        ("run", "gamma_over_L = 0", "key `gamma_over_L`: must be positive, got 0.0"),
        ("run", "seeds = 0, ,1", "key `seeds`: empty list entry in '0, ,1'"),
        ("run", "n_clients = ,4", "key `n_clients`: empty list entry in ',4'"),
    ])
    def test_message(self, tmp_path, section, line, message):
        # the single-key bounds are read from the fields, in one format
        path = tmp_path / "c.txt"
        path.write_text(f"[experiment]\ntask = stationary\n[{section}]\n{line}\n")
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value) == message

    def test_bounds_checked_on_a_built_config(self):
        with pytest.raises(ConfigError, match="key `n_features`: must be >= 1, got 0"):
            ExperimentConfig(task="stationary", n_features=0)
        with pytest.raises(ConfigError, match="key `burn_in`: must be >= 0, got -1"):
            ExperimentConfig(task="stationary", burn_in=-1)

    @pytest.mark.parametrize("kwargs, message", [
        (dict(n_clients=[2, 2]), "key `n_clients`: repeated entry"),
        (dict(informative=[2, 4, 6]), "key `informative`: need exactly 2 entries"),
        (dict(generator_seeds=[1]), "key `generator_seeds`: need exactly 2 entries"),
        (dict(gamma_over_l=0.5), "exactly one of `gamma` or `gamma_over_L`"),
        (dict(gamma=None), "exactly one of `gamma` or `gamma_over_L`"),
        (dict(task="complexity"), "key `epsilon`: required for the complexity task"),
        (dict(task="figure2"), "key `task`: must be one of"),
    ], ids=["repeated-n_clients", "three-informative", "one-generator-seed", "both-steps",
            "no-step", "complexity-without-epsilon", "unknown-task"])
    def test_every_rule_checked_when_built(self, kwargs, message):
        # a config built in code meets the rules a parsed one does
        with pytest.raises(ConfigError, match=re.escape(message)):
            ExperimentConfig(**{"task": "figure1", **kwargs})

    def test_replace_rechecks_and_assignment_fails(self):
        config = ExperimentConfig(task="figure1")
        with pytest.raises(ConfigError, match="key `n_clients`: repeated entry"):
            dataclasses.replace(config, n_clients=[4, 4])
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.n_clients = [4, 4]

    def test_list_keys_are_tuples_that_cannot_be_changed(self, tmp_path):
        # a list given to the config is stored as a tuple, so neither the
        # config nor the list the caller keeps can change the other
        counts = [2, 8, 32]
        config = dataclasses.replace(ExperimentConfig(task="figure1"), n_clients=counts)
        counts.append(64)
        assert config.n_clients == (2, 8, 32)
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = figure1\n[run]\nseeds = 3,1\n")
        parsed = parse_config(path)
        for c in (config, parsed, ExperimentConfig(task="figure1")):
            for name in ("informative", "generator_seeds", "n_clients", "seeds", "algorithms"):
                value = getattr(c, name)
                assert isinstance(value, tuple), name
                with pytest.raises(AttributeError):
                    value.append(value[0])
        assert parsed.seeds == (3, 1)
        assert parse_config(path) == parsed and hash(parse_config(path)) == hash(parsed)
        # the messages show a list as the file's entries, in brackets
        with pytest.raises(ConfigError, match=r"need exactly 2 entries, got \[2, 4, 6\]$"):
            ExperimentConfig(task="figure1", informative=(2, 4, 6))

    @pytest.mark.parametrize("text, key, lines", [
        ("[run]\nrounds = 2\nrounds = 3\n", "rounds", "4 and 5"),
        # a second header of the same section opens no new scope
        ("[run]\nrounds = 2\n[problem]\nloss = quadratic\n[run]\nrounds = 2\n", "rounds",
         "4 and 8"),
        ("task = predict\n", "task", "2 and 3"),
    ], ids=["same-header", "second-header", "experiment"])
    def test_repeated_key_rejected(self, tmp_path, capsys, text, key, lines):
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = stationary\n" + text)
        message = f"key `{key}`: given twice, on lines {lines}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)
        assert cli_main(["print-config", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"ConfigError: {message}\n"

    @pytest.mark.parametrize("key, value", [("seeds", [0, 0, 1]), ("n_clients", [4, 2, 4]),
                                            ("algorithms", ["fedavg", "scaffold", "fedavg"])])
    def test_repeated_grid_entry_rejected(self, key, value):
        # a repeated seed, client count or algorithm is an error, not one
        # chain that the runners would silently count once
        message = f"key `{key}`: repeated entry in {value}"
        with pytest.raises(ConfigError, match=re.escape(message)):
            small_config(**{key: value})

    def test_boundary_values_accepted(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = stationary\n"
                        "[problem]\nrecords_per_client = 1\nl2_weight = 0\n"
                        "generator_seeds = 0,0\n"
                        f"[run]\nthinning = 1\nseeds = 0,{2 ** 64 - 1}\nburn_in = 0\n")
        config = parse_config(path)
        assert (config.records_per_client, config.l2_weight, config.thinning,
                config.burn_in) == (1, 0.0, 1, 0)
        assert config.seeds == (0, 2 ** 64 - 1) and config.generator_seeds == (0, 0)

    def test_zero_noise_and_separation_accepted(self, tmp_path):
        # each under the loss that reads it
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = stationary\n"
                        "[problem]\nloss = quadratic\nnoise_std = 0\n")
        assert parse_config(path).noise_std == 0.0
        path.write_text("[experiment]\ntask = stationary\n"
                        "[problem]\nloss = logistic\nclass_sep = 0\n")
        assert parse_config(path).class_sep == 0.0

    @pytest.mark.parametrize("loss, line", [("logistic", "noise_std = 3"),
                                            ("quadratic", "class_sep = 2")])
    def test_key_the_loss_does_not_read_rejected(self, tmp_path, loss, line):
        path = tmp_path / "c.txt"
        path.write_text(f"[experiment]\ntask = predict\n[problem]\nloss = {loss}\n{line}\n")
        key = line.partition(" =")[0]
        message = f"key `{key}`: given on line 5, but the {loss} loss does not read it"
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config(path)


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

    def test_pool_resplit(self, monkeypatch):
        config = ExperimentConfig(task="figure1", loss="quadratic",
                                  n_features=4, records_per_client=10,
                                  informative=[2, 4])
        pool = harness.build_problem(config, 6)
        monkeypatch.delattr(harness.datagen, "make_regression")
        problem = harness.build_problem(config, 2, pool=pool)
        assert all(c.n_records == 30 for c in problem.clients)
        # source a's rows, then source b's, read in place
        assert problem.features is pool.features and problem.targets is pool.targets
        assert problem.first_rows.tolist() == [0, 30]


def small_config(**kwargs):
    defaults = dict(task="figure1", loss="quadratic", l2_weight=0.5,
                    n_features=5, records_per_client=20, informative=[2, 4],
                    noise_std=2.0, gamma=0.02, local_steps=5, rounds=10,
                    batch_size=4, n_clients=[4], seeds=[0, 1],
                    algorithms=["scaffold", "fedavg"], n_samples=100,
                    burn_in=20)
    defaults.update(kwargs)
    return ExperimentConfig(**defaults)


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

    def test_speedup_generates_one_pool(self, monkeypatch):
        # the sources are generated once; every problem is built through the
        # module attribute `build_problem` (set-up timers wrap it) and reads
        # the largest N's table
        generated, built, swept = [], [], []
        make_regression, build_problem = harness.datagen.make_regression, harness.build_problem
        sweep = harness.stationary.estimate_stationary_sweep

        def counted_make_regression(*args):
            generated.append(args[0])
            return make_regression(*args)

        def counted_build_problem(*args, **kwargs):
            built.append(build_problem(*args, **kwargs))
            return built[-1]

        def recorded_sweep(chains, **kwargs):
            swept.extend(problem for problem, _, _ in chains)
            return sweep(chains, **kwargs)

        monkeypatch.setattr(harness.datagen, "make_regression", counted_make_regression)
        monkeypatch.setattr(harness, "build_problem", counted_build_problem)
        monkeypatch.setattr(harness.stationary, "estimate_stationary_sweep", recorded_sweep)
        config = small_config(task="speedup", n_clients=[2, 8, 4], n_samples=100)
        harness.run_speedup(config)
        assert generated == [20 * 8 // 2] * 2
        assert sorted(p.n_clients for p in built) == [2, 4, 8]
        largest = max(built, key=lambda p: p.n_clients)
        assert [p.n_clients for p in swept] == [2, 4, 8]
        assert all(any(p is b for b in built) for p in swept)
        assert all(p.features is largest.features and p.targets is largest.targets
                   for p in swept)

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

    def test_fixed_gamma_predict_computes_no_scalar_constant(self, monkeypatch):
        kernels = _count_table_passes(monkeypatch)
        harness.run_predict(small_config(task="predict", loss="logistic"))
        # Newton, the certificate's arrays and the bias; no Gram or cubed-norm pass
        assert set(kernels) == {"_gradient_stack", "_hessian_stack", "_noise_stack",
                                "_third_stack"}

    def test_complexity_rows(self):
        config = small_config(task="complexity", epsilon=0.1, n_clients=[2, 4])
        out = harness.run_complexity(config)
        lines = out.strip().splitlines()
        assert lines[0] == "N,gamma,local_steps,rounds,grads_per_client,n_max,n_clients_ok"
        for line in lines[1:]:
            fields = line.split(",")
            assert fields[5] == "inf"  # quadratic: no client ceiling
            assert fields[6] == "true"

    @pytest.mark.parametrize("logistic, epsilon", [(True, 100.0), (False, 1000.0)])
    def test_complexity_rounds_never_negative(self, logistic, epsilon):
        # with eps^2 >= psi0 the accuracy holds at round 0: the recipe asks
        # for no rounds, not for a negative count from log(psi0 / eps^2) < 0
        config = (ExperimentConfig(task="complexity", epsilon=epsilon) if logistic
                  else small_config(task="complexity", epsilon=epsilon))
        lines = harness.run_complexity(config).splitlines()[1:]
        assert len(lines) == len(config.n_clients)
        for line in lines:
            fields = line.split(",")
            assert fields[3] == fields[4] == "0", line

    @pytest.mark.parametrize("name", algorithms.ALGORITHMS + ("sgd",))
    def test_algorithm_names_have_one_owner(self, name):
        # the config key and the trajectory runner accept exactly ALGORITHMS
        problem, cert = harness._setup(small_config(), 4)
        config = RunConfig(gamma=0.02, local_steps=5, rounds=2)
        if name in algorithms.ALGORITHMS:
            assert small_config(algorithms=[name]).algorithms == (name,)
            mse = algorithms.run_sweep(problem, cert.theta_star, config, [name], [0])[name, 0]
            assert mse.shape == (3,)
            return
        with pytest.raises(ConfigError, match=f"key `algorithms`.*{name}"):
            small_config(algorithms=["scaffold", name])
        with pytest.raises(ValueError, match=name):
            algorithms.run_sweep(problem, cert.theta_star, config, ["scaffold", name], [0])

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


def _more_seeds(config):
    return [*config.seeds, max(config.seeds) + 1]


def _larger_count(config):
    return [*config.n_clients, max(config.n_clients) + 2]


_ESTIMATOR_KEYS = {"burn_in": 7, "n_samples": 150, "thinning": 3}
_UNUSED_RUN_KEYS = {"rounds": 9, "algorithms": ["fedavg"]}

# For each task, every key it ignores on its golden config, with a changed
# value: the whole keys that the `_key` declarations say the task or the
# golden config's loss does not read (`test_declarations_name_the_ignored_keys`
# holds the two lists equal), plus the seeds after the first and the client
# counts above the smallest where only the first seed or the smallest count
# is read.  A callable maps the golden config to the value.
IGNORED_KEYS = {
    "figure1": {"noise_std": 3.0, "epsilon": 0.01, **_ESTIMATOR_KEYS},
    "speedup": {"class_sep": 2.0, "epsilon": 0.01, **_UNUSED_RUN_KEYS, "seeds": _more_seeds},
    "coupling": {"noise_std": 3.0, "epsilon": 0.01, **_ESTIMATOR_KEYS,
                 "algorithms": ["fedavg"], "n_clients": _larger_count},
    "stationary": {"noise_std": 3.0, "epsilon": 0.01, **_UNUSED_RUN_KEYS,
                   "seeds": _more_seeds, "n_clients": _larger_count},
    "predict": {"noise_std": 3.0, "epsilon": 0.01, **_ESTIMATOR_KEYS, **_UNUSED_RUN_KEYS,
                "seeds": [7, 8], "n_clients": _larger_count},
    "complexity": {"noise_std": 3.0, **_ESTIMATOR_KEYS, **_UNUSED_RUN_KEYS,
                   "seeds": [7, 8], "gamma": 0.07, "gamma_over_l": 0.3, "local_steps": 9},
}


def _unread_keys(task):
    """The whole keys `task` ignores on its golden config, by attribute name."""
    return {key for key, value in IGNORED_KEYS[task].items() if not callable(value)}


# One key per task that it reads, with a changed value; for the tasks that
# read part of a list, the part they read.
READ_KEYS = {
    "figure1": ("rounds", 7),
    "speedup": ("seeds", [4]),
    "coupling": ("n_clients", [6]),
    "stationary": ("seeds", [6]),
    "predict": ("n_clients", [8]),
    "complexity": ("epsilon", 0.01),
}


def _golden_config(tmp_path, task):
    path = tmp_path / "golden.txt"
    path.write_text(f"[experiment]\ntask = {task}\n" + CONFIGS[task])
    return parse_config(path)


class TestKeyReads:
    @pytest.mark.parametrize("task", sorted(IGNORED_KEYS))
    def test_ignored_keys_keep_the_bytes(self, tmp_path, task):
        config = _golden_config(tmp_path, task)
        text = harness.run_task(config)
        for key, value in IGNORED_KEYS[task].items():
            value = value(config) if callable(value) else value
            # gamma_over_L sets the step size in place of gamma
            step = {"gamma": None} if key == "gamma_over_l" else {}
            changed = dataclasses.replace(config, **step, **{key: value})
            assert harness.run_task(changed) == text, (key, value)

    @pytest.mark.parametrize("task", sorted(IGNORED_KEYS))
    def test_declarations_name_the_ignored_keys(self, tmp_path, task):
        # a declaration that claims a read the bytes do not show, or misses
        # one they do, fails here or in the test above
        config = _golden_config(tmp_path, task)
        declared = {f.name for f in dataclasses.fields(ExperimentConfig)
                    if task not in f.metadata["tasks"]
                    or f.metadata["loss"] not in (None, config.loss)}
        assert _unread_keys(task) == declared

    @pytest.mark.parametrize("task", sorted(CONFIGS))
    def test_print_config_reparses_the_golden(self, tmp_path, task):
        config = _golden_config(tmp_path, task)
        path = tmp_path / "printed.txt"
        path.write_text(format_config(config))
        assert parse_config(path) == config

    @pytest.mark.parametrize("task", sorted(READ_KEYS))
    def test_read_key_changes_the_bytes(self, tmp_path, task):
        config = _golden_config(tmp_path, task)
        key, value = READ_KEYS[task]
        changed = dataclasses.replace(config, **{key: value})
        assert harness.run_task(changed) != harness.run_task(config)


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

    def test_removed_seed_flag_exits_2(self, tmp_path, capsys):
        # the config's `seeds` is the one owner of the seed list
        path = write_config(tmp_path, "figure1")
        with pytest.raises(SystemExit) as info:
            cli_main(["print-config", "--config", str(path), "--seed-override", "7"])
        assert info.value.code == 2
        assert "--seed-override" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["0", "-5"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        path = write_config(tmp_path, "figure1")
        assert cli_main(["figure1", "--config", str(path), "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ValueError: --threads must be >= 1")

    @pytest.mark.parametrize("command", ["speedup", "predict", "print-config"])
    def test_threads_above_one_only_for_figure1(self, tmp_path, capsys, command):
        # nothing but figure1 runs in parallel: a count above 1 is an error
        path = write_config(tmp_path, "predict" if command == "print-config" else command,
                            extra_run="n_samples = 100\n")
        assert cli_main([command, "--config", str(path), "--threads", "2"]) == 2
        assert capsys.readouterr().err.startswith("ValueError: --threads 2")
        assert cli_main([command, "--config", str(path), "--threads", "1"]) == 0

    def test_print_config_out_writes_file(self, tmp_path, capsys):
        path = write_config(tmp_path, "figure1")
        out = tmp_path / "echo.txt"
        assert cli_main(["print-config", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == format_config(parse_config(path))

    def test_figure1_writes_output(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("[experiment]\ntask = figure1\n" + SMALL_PROBLEM
                        + SMALL_RUN.replace("rounds = 20", "rounds = 2")
                        .replace("seeds = 0,1", "seeds = 0"))
        out = tmp_path / "out.csv"
        assert cli_main(["figure1", "--config", str(path),
                         "--out", str(out)]) == 0
        assert out.read_text().startswith("algorithm,N,seed,t,mse")
        assert (tmp_path / "out.agg.csv").exists()

    def test_negative_burn_in_exits_nonzero(self, tmp_path, capsys):
        path = write_config(tmp_path, "stationary", extra_run="burn_in = -5\n")
        assert cli_main(["stationary", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("ConfigError: key `burn_in`")

    def test_help_and_schema_name_the_same_keys(self):
        # every `key =` line of `scaffold-sim --help` is a config key, and
        # every config key is shown, with its default where it has one;
        # the field loop below covers every `_FIELDS` key
        epilog = cli._build_parser().epilog
        keys = set(harness._FIELDS)
        assert keys == {f.metadata["key"] or f.name for f in dataclasses.fields(ExperimentConfig)}
        for line in epilog.splitlines():
            entry = re.match(r"  (\w+) =", line)
            assert entry is None or entry[1] in keys, line
        for f in dataclasses.fields(ExperimentConfig):
            default = (",".join(str(x) for x in f.default) if isinstance(f.default, tuple)
                       else f.default)
            if default in (None, dataclasses.MISSING):
                shown = ""
            else:
                shown = " " + re.escape(f"{default:g}" if isinstance(default, float)
                                        else str(default)) + r"\s"
            key = f.metadata["key"] or f.name
            assert re.search(rf"\b{key} ={shown}", epilog), key

    def test_epilog_defaults_parse_to_config_defaults(self):
        # `key = value` under a [section] the epilog marks "defaults shown";
        # an empty value stands for a default of None
        defaults = {f.name: f.default if f.default_factory is dataclasses.MISSING
                    else f.default_factory() for f in dataclasses.fields(ExperimentConfig)}
        shown, section = set(), None
        for line in cli._EPILOG.splitlines():
            header = re.match(r"  \[(\w+)\]\s+(.*)", line)
            if header:
                section = header[1] if "defaults shown" in header[2] else None
                continue
            entry = re.match(r"  (\w+) = ?(\S*)", line)
            if section is None or entry is None:
                continue
            key, value = entry.groups()
            f = harness._FIELDS[key]
            assert f.metadata["section"] == section, key
            attr, conv = f.name, f.metadata["parse"]
            parsed = None if value == "" else value if conv is str else conv(key, value)
            assert parsed == defaults[attr], key
            shown.add(key)
        assert shown == {key for key, f in harness._FIELDS.items()
                         if f.metadata["section"] in ("problem", "run")} - {"gamma_over_L"}

    @pytest.mark.parametrize("task, line", [
        ("figure1", "thinning = 2"), ("speedup", "algorithms = fedavg"),
        ("coupling", "burn_in = 5"), ("stationary", "rounds = 5"),
        ("predict", "seeds = 7"), ("complexity", "local_steps = 9"),
    ])
    def test_key_the_task_does_not_read_exits_2(self, tmp_path, capsys, task, line):
        # the task alone parses (complexity needs its epsilon); one key it
        # ignores fails, naming the key and the task
        head = f"[experiment]\ntask = {task}\n[run]\n"
        head += "epsilon = 0.1\n" if task == "complexity" else ""
        path = tmp_path / "c.txt"
        path.write_text(head)
        assert cli_main(["print-config", "--config", str(path)]) == 0
        capsys.readouterr()
        path.write_text(head + line + "\n")
        assert cli_main([task, "--config", str(path)]) == 2
        key = line.partition(" =")[0]
        lineno = head.count("\n") + 1
        assert capsys.readouterr().err == (f"ConfigError: key `{key}`: given on line {lineno}, "
                                           f"but the {task} task does not read it\n")

    # every client Hessian is singular (10 records, 20 features) and there
    # is no l2 weight, so mu is 0; the default burn-in and the complexity
    # recipe divide by it
    _MU_ZERO = ("[problem]\nloss = quadratic\nl2_weight = 0\nn_features = 20\n"
                "records_per_client = 10\n[run]\n")

    @pytest.mark.filterwarnings("ignore:step-size conditions")
    @pytest.mark.parametrize("task", ["stationary", "speedup", "complexity"])
    def test_mu_zero_exits_2_naming_mu(self, tmp_path, capsys, task):
        run = {"stationary": "n_samples = 100\n", "speedup": "n_clients = 2,4\nn_samples = 100\n",
               "complexity": "epsilon = 0.1\n"}[task]
        path = tmp_path / "c.txt"
        path.write_text(f"[experiment]\ntask = {task}\n" + self._MU_ZERO + run)
        assert cli_main([task, "--config", str(path)]) == 2
        [line] = capsys.readouterr().err.splitlines()
        assert line.startswith("ValueError: mu must be positive, got 0.0: a client loss is "
                               "not strongly convex at theta_star; set l2_weight > 0")

    @pytest.mark.filterwarnings("ignore:step-size conditions")
    def test_mu_zero_runs_with_an_explicit_burn_in(self, tmp_path, capsys):
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = stationary\n" + self._MU_ZERO
                        + "local_steps = 2\nburn_in = 5\nn_samples = 100\n")
        assert cli_main(["stationary", "--config", str(path)]) == 0
        assert "burn_in_rounds = 5\n" in capsys.readouterr().out

    def _warning_config(self, tmp_path):
        # the golden speedup config at H = 10: gamma*H*(L+mu) = 1.25(1 + mu/L) > 1
        path = tmp_path / "c.txt"
        path.write_text("[experiment]\ntask = speedup\n"
                        + CONFIGS["speedup"].replace("local_steps = 4", "local_steps = 10"))
        return path

    def test_warning_prints_as_one_line(self, tmp_path, capsys):
        argv = ["speedup", "--config", str(self._warning_config(tmp_path))]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert cli_main(argv) == 0
        quiet = capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            assert cli_main(argv) == 0
        shown = capsys.readouterr()
        assert shown.out == quiet.out and quiet.err == ""
        lines = shown.err.splitlines()
        assert lines
        assert all(line.startswith("RuntimeWarning: step-size conditions violated")
                   for line in lines), lines

    def test_warning_still_raises_under_the_suites_error_filter(self, tmp_path):
        # `filterwarnings = ["error"]` makes the warning an exception; the
        # one-line printer must not swallow it
        with pytest.raises(RuntimeWarning, match="step-size conditions violated"):
            cli_main(["speedup", "--config", str(self._warning_config(tmp_path))])

    def test_stdout_without_out(self, tmp_path, capsys):
        path = write_config(tmp_path, "complexity",
                            extra_run="epsilon = 0.1\n")
        assert cli_main(["complexity", "--config", str(path)]) == 0
        assert capsys.readouterr().out.startswith("N,gamma")


def _benchmark_spans():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_lookup_sites_resolve():
    # perfbench/spans.py wraps these attributes by name; one that is gone
    # would crash every traced benchmark run
    spans = _benchmark_spans()
    for module, attr, _, _ in spans.FULL_SITES:
        assert callable(getattr(getattr(scaffold_sim, module), attr)), f"{module}.{attr}"


def test_benchmark_work_functions_read_the_calls():
    # the benchmark's work functions read the wrapped calls' arguments and
    # results by position; a signature change would skew the counts or
    # crash a traced run
    spans = _benchmark_spans()
    problem, cert = harness._setup(small_config(), 4)
    config = RunConfig(gamma=0.02, local_steps=5, rounds=3, seed=1)
    steps = problem.n_clients * config.local_steps
    tracer = spans.Tracer(scaffold_sim, spans.FULL_SITES)
    with tracer.installed():
        harness.run(problem, cert.theta_star, config)
        harness.run(problem, cert.theta_star, config, "fedavg")
        algorithms.scaffold_round(ChainState.zeros(problem.d, problem.n_clients), problem,
                                  config, 0)
        algorithms.fedavg_round(np.zeros(problem.d), problem, config, 0)
        stationary.estimate_stationary(problem, cert, config, burn_in=7, n_samples=100,
                                       thinning=2)
    work = {}
    for span in tracer.spans:
        work.setdefault(span[1], []).append(span[6])
    assert work["algorithms.run"] == [(config.rounds * steps,)] * 2
    assert work["algorithms.round"] == [(steps,)] * 2
    assert work["stationary.estimate"] == [(100, 7, 7 + 100 * 2, (7 + 100 * 2) * steps)]


@pytest.mark.parametrize("body, certificates", [(CONFIGS["figure1"], 0),
                                                (FIGURE1_GAMMA_OVER_L, 2)],
                         ids=["gamma", "gamma_over_L"])
def test_figure1_setup_runs_through_the_benchmark_spans(tmp_path, body, certificates):
    # figure1 reads theta* alone, so it builds a certificate only when gamma
    # comes from L; its set-up calls must stay inside the spans that the
    # benchmark's setup_s sums
    spans = _benchmark_spans()
    path = tmp_path / "figure1.txt"
    path.write_text("[experiment]\ntask = figure1\n" + body)
    config = parse_config(path)
    assert config.n_clients == (2, 6)
    tracer = spans.Tracer(scaffold_sim, spans.LIGHT_SITES)
    with tracer.installed():
        harness.run_figure1(config)
    counts = collections.Counter(span[1] for span in tracer.spans)
    assert counts["datagen.build_problem"] == counts["optimum.solve"] == 2
    assert counts["optimum.certificate"] == certificates


def test_exports_resolve():
    # a trimmed module must not leave a stale name in an `__all__`
    package = Path(scaffold_sim.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        module = importlib.import_module(f"scaffold_sim.{path.stem}".removesuffix(".__init__"))
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{path.name}: {name}"
    tree = ast.parse((package / "__init__.py").read_text())
    imported = [alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
                for alias in node.names]
    assert sorted(scaffold_sim.__all__) == sorted(imported)


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def test_modules_read_no_private_names_of_siblings():
    # a private name has one owner, its module: a sibling that reads it
    # (`stationary._name`, `from .stationary import _name`) is a second one
    package = Path(scaffold_sim.__file__).resolve().parent
    siblings = {path.stem for path in package.glob("*.py")}
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {alias.asname or alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
                   for alias in node.names if alias.name in siblings}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level >= 1:
                found += [f"{path.name}:{node.lineno}: from .{node.module or ''} import {a.name}"
                          for a in node.names if _is_private(a.name)]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _is_private(node.attr)):
                found.append(f"{path.name}:{node.lineno}: {node.value.id}.{node.attr}")
    assert found == []
