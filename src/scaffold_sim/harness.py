"""Config-driven experiment runner.

Configs are line-oriented ``key = value`` files with ``[section]`` headers
(sections: experiment, problem, run).  Parsing is strict: unknown sections
or keys, bad types, and invalid values are each rejected with a distinct
error naming the offender.  All outputs are CSV with 17-significant-digit
floats and deterministically ordered rows, so identical configs produce
byte-identical files at any thread count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import datagen, stationary
# `run` stays importable here: perfbench/spans.py wraps `harness.run`
from .algorithms import coupled_run, run, run_sweep  # noqa: F401
from .core import ChainState, RunConfig
from .objectives import Problem
from .optimum import build_certificate, solve_optimum

__all__ = [
    "ConfigError",
    "ExperimentConfig",
    "parse_config",
    "format_config",
    "run_figure1",
    "run_speedup",
    "run_coupling",
    "run_stationary",
    "run_predict",
    "run_complexity",
    "run_task",
    "aggregate_path",
]

TASKS = ("figure1", "speedup", "coupling", "stationary", "predict", "complexity")


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _parse_int(key, value):
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"key `{key}`: expected integer, got {value!r}") from None


def _parse_float(key, value):
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"key `{key}`: expected number, got {value!r}") from None


def _parse_int_list(key, value):
    return [_parse_int(key, v) for v in value.split(",") if v.strip() != ""]


def _parse_str_list(key, value):
    return [v.strip() for v in value.split(",") if v.strip() != ""]


@dataclass
class ExperimentConfig:
    """Validated experiment description (one task plus its parameters)."""

    task: str
    output_path: str | None = None
    # problem block
    loss: str = "logistic"
    l2_weight: float = 0.1
    n_features: int = 20
    records_per_client: int = 200
    informative: list = field(default_factory=lambda: [2, 10])
    generator_seeds: list = field(default_factory=lambda: [123, 456])
    noise_std: float = 10.0
    class_sep: float = 1.0
    # run block
    gamma: float | None = 0.05
    gamma_over_l: float | None = None
    local_steps: int = 100
    rounds: int = 100
    batch_size: int = 10
    n_clients: list = field(default_factory=lambda: [10, 100])
    seeds: list = field(default_factory=lambda: [0, 1, 2])
    algorithms: list = field(default_factory=lambda: ["scaffold", "fedavg"])
    burn_in: int | None = None
    n_samples: int = 1000
    thinning: int = 1
    epsilon: float | None = None

    def validate(self):
        if self.task not in TASKS:
            raise ConfigError(f"key `task`: must be one of {TASKS}, got {self.task!r}")
        if self.loss not in ("quadratic", "logistic"):
            raise ConfigError(f"key `loss`: must be quadratic or logistic, got {self.loss!r}")
        for section in _SCHEMA.values():
            for key, (attr, conv) in section.items():
                value = getattr(self, attr)
                if conv is _parse_float and value is not None and not np.isfinite(value):
                    raise ConfigError(f"key `{key}`: must be finite, got {value}")
        for key in ("l2_weight", "noise_std", "class_sep"):
            if getattr(self, key) < 0:
                raise ConfigError(f"key `{key}`: must be >= 0, got {getattr(self, key)}")
        if self.records_per_client < 1:
            raise ConfigError(
                f"key `records_per_client`: must be >= 1, got {self.records_per_client}")
        if self.gamma is not None and self.gamma <= 0:
            raise ConfigError(f"key `gamma`: must be positive, got {self.gamma}")
        if self.gamma_over_l is not None and self.gamma_over_l <= 0:
            raise ConfigError(f"key `gamma_over_L`: must be positive, got {self.gamma_over_l}")
        if (self.gamma is None) == (self.gamma_over_l is None):
            raise ConfigError("exactly one of `gamma` or `gamma_over_L` is required, got "
                              f"gamma = {self.gamma}, gamma_over_L = {self.gamma_over_l}")
        if self.local_steps < 1:
            raise ConfigError(f"key `local_steps`: must be >= 1, got {self.local_steps}")
        if self.rounds < 0:
            raise ConfigError(f"key `rounds`: must be >= 0, got {self.rounds}")
        if self.batch_size < 1:
            raise ConfigError(f"key `batch_size`: must be >= 1, got {self.batch_size}")
        if not self.n_clients:
            raise ConfigError("key `n_clients`: list must be nonempty")
        if any(n < 2 or n % 2 for n in self.n_clients):
            raise ConfigError(f"key `n_clients`: entries must be even and >= 2, got {self.n_clients}")
        if self.task == "speedup":
            # every N re-splits one pool of records_per_client * max(N) / 2
            # records per source into N/2 equal shards
            pool = self.records_per_client * max(self.n_clients) // 2
            uneven = [n for n in self.n_clients if pool % (n // 2)]
            if uneven:
                raise ConfigError(
                    f"key `n_clients`: speedup splits {pool} records per source "
                    f"(records_per_client * max(n_clients) / 2) over n/2 clients, "
                    f"which is not even for n in {uneven}"
                )
        if not self.seeds:
            raise ConfigError("key `seeds`: list must be nonempty")
        if any(not 0 <= s < 2 ** 64 for s in self.seeds):
            raise ConfigError(f"key `seeds`: seeds must be in [0, 2**64), got {self.seeds}")
        if not self.algorithms:
            raise ConfigError("key `algorithms`: list must be nonempty")
        for a in self.algorithms:
            if a not in ("scaffold", "fedavg"):
                raise ConfigError(f"key `algorithms`: unknown algorithm {a!r}")
        if len(self.informative) != 2:
            raise ConfigError(f"key `informative`: need exactly 2 counts, got {self.informative}")
        if any(not 1 <= k <= self.n_features for k in self.informative):
            raise ConfigError(
                f"key `informative`: counts must be in [1, n_features={self.n_features}], "
                f"got {self.informative}"
            )
        if len(self.generator_seeds) != 2:
            raise ConfigError(f"key `generator_seeds`: need exactly 2 seeds, got {self.generator_seeds}")
        if any(s < 0 for s in self.generator_seeds):
            raise ConfigError(
                f"key `generator_seeds`: seeds must be >= 0, got {self.generator_seeds}")
        if self.burn_in is not None and self.burn_in < 0:
            raise ConfigError(f"key `burn_in`: must be >= 0, got {self.burn_in}")
        if self.n_samples < 100:
            raise ConfigError(f"key `n_samples`: must be >= 100, got {self.n_samples}")
        if self.thinning < 1:
            raise ConfigError(f"key `thinning`: must be >= 1, got {self.thinning}")
        if self.task == "complexity" and self.epsilon is None:
            raise ConfigError("key `epsilon`: required for the complexity task")
        if self.epsilon is not None and self.epsilon <= 0:
            raise ConfigError(f"key `epsilon`: must be positive, got {self.epsilon}")
        return self


_SCHEMA = {
    "experiment": {
        "task": ("task", str),
        "output": ("output_path", str),
    },
    "problem": {
        "loss": ("loss", str),
        "l2_weight": ("l2_weight", _parse_float),
        "n_features": ("n_features", _parse_int),
        "records_per_client": ("records_per_client", _parse_int),
        "informative": ("informative", _parse_int_list),
        "generator_seeds": ("generator_seeds", _parse_int_list),
        "noise_std": ("noise_std", _parse_float),
        "class_sep": ("class_sep", _parse_float),
    },
    "run": {
        "gamma": ("gamma", _parse_float),
        "gamma_over_L": ("gamma_over_l", _parse_float),
        "local_steps": ("local_steps", _parse_int),
        "rounds": ("rounds", _parse_int),
        "batch_size": ("batch_size", _parse_int),
        "n_clients": ("n_clients", _parse_int_list),
        "seeds": ("seeds", _parse_int_list),
        "algorithms": ("algorithms", _parse_str_list),
        "burn_in": ("burn_in", _parse_int),
        "n_samples": ("n_samples", _parse_int),
        "thinning": ("thinning", _parse_int),
        "epsilon": ("epsilon", _parse_float),
    },
}


def parse_config(path) -> ExperimentConfig:
    """Strictly parse a `key = value` config file with [section] headers."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None

    values = {}
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section `{section}`")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SCHEMA[section]:
            raise ConfigError(f"line {lineno}: unknown key `{key}` in section [{section}]")
        if value == "":
            raise ConfigError(f"line {lineno}: empty value for key `{key}`")
        attr, conv = _SCHEMA[section][key]
        values[attr] = value if conv is str else conv(key, value)

    if "task" not in values:
        raise ConfigError("missing required key `task` in section [experiment]")
    if values.get("gamma_over_l") is not None and "gamma" not in values:
        values["gamma"] = None
    return ExperimentConfig(**values).validate()


def format_config(config: ExperimentConfig) -> str:
    """Emit the normalized config; `parse_config(format_config(c)) == c`.

    Writes every `_SCHEMA` key whose value is not None, in schema order:
    floats with 17 significant digits, lists joined by commas.
    """
    sections = []
    for section, keys in _SCHEMA.items():
        lines = [f"[{section}]"]
        for key, (attr, conv) in keys.items():
            value = getattr(config, attr)
            if value is None:
                continue
            if conv is _parse_float:
                value = f"{value:.17g}"
            elif conv in (_parse_int_list, _parse_str_list):
                value = ",".join(str(x) for x in value)
            lines.append(f"{key} = {value}")
        sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"


def build_problem(config: ExperimentConfig, n_clients, pool=None) -> Problem:
    """Two-source heterogeneous problem for `n_clients` clients.

    Each source holds `records_per_client * n_clients / 2` records.  With
    `pool`, a problem built here, no records are generated: the pool's table
    is re-split over `n_clients` (its first half of rows is source a, the
    rest source b), and the new problem reads that table in place.
    """
    if pool is not None:
        x, y, half = pool.features, pool.targets, len(pool.targets) // 2
        sources = [(x[:half], y[:half]), (x[half:], y[half:])]
    else:
        size = config.records_per_client * n_clients // 2
        sources = []
        for informative, seed in zip(config.informative, config.generator_seeds):
            if config.loss == "quadratic":
                x, y, _ = datagen.make_regression(
                    size, config.n_features, informative, config.noise_std, seed
                )
            else:
                x, y = datagen.make_classification(
                    size, config.n_features, informative, config.class_sep, seed
                )
            sources.append((x, y))
    clients = datagen.split_two_blocks(sources[0], sources[1], n_clients)
    return Problem(clients, config.loss, config.l2_weight, config.batch_size)


def _setup(config: ExperimentConfig, n_clients, pool=None):
    """(problem, certificate) for `n_clients` clients, as `build_problem`.

    Every task builds its problems here, through the module attribute
    `build_problem`, so wrapping it times all data set-up.
    """
    problem = build_problem(config, n_clients, pool)
    return problem, build_certificate(problem, solve_optimum(problem))


def _resolve_gamma(config: ExperimentConfig, certificate):
    if config.gamma is not None:
        return config.gamma
    return config.gamma_over_l / certificate.big_l


def _first_setup(config: ExperimentConfig):
    """(problem, certificate, gamma) for the smallest client count."""
    problem, cert = _setup(config, min(config.n_clients))
    return problem, cert, _resolve_gamma(config, cert)


def _run_config(config: ExperimentConfig, gamma, seed, rounds=1):
    return RunConfig(gamma=gamma, local_steps=config.local_steps, rounds=rounds, seed=seed)


def run_figure1(config: ExperimentConfig, threads=1):
    """Trajectory sweep over (algorithm, N, seed) cells.

    Returns (per_seed_csv, aggregate_csv).  All cells of one client count
    run as one block of chains; client counts run in parallel.  Rows are
    sorted before writing, so the bytes do not depend on the thread count.
    """
    n_list = sorted(set(config.n_clients))
    algorithms = list(dict.fromkeys(config.algorithms))
    seeds = list(dict.fromkeys(config.seeds))

    def run_group(n):
        problem, cert = _setup(config, n)
        rc = _run_config(config, _resolve_gamma(config, cert), seeds[0], config.rounds)
        sweep = run_sweep(problem, cert, rc, algorithms, seeds)
        return {(algo, n, seed): traj for (algo, seed), traj in sweep.items()}

    results = {}
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for group in pool.map(run_group, n_list):
                results.update(group)
    else:
        for n in n_list:
            results.update(run_group(n))

    rows = ["algorithm,N,seed,t,mse"]
    for algo, n, seed in sorted(results):
        traj = results[(algo, n, seed)]
        for t, mse in zip(traj.rounds, traj.mse):
            rows.append(f"{algo},{n},{seed},{t},{mse:.17g}")

    agg = ["algorithm,N,t,mean_mse,std_mse"]
    for algo in sorted(algorithms):
        for n in n_list:
            stack = np.stack([results[(algo, n, s)].mse for s in seeds])
            mean = stack.mean(axis=0)
            std = stack.std(axis=0)
            for t in range(stack.shape[1]):
                agg.append(f"{algo},{n},{t},{mean[t]:.17g},{std[t]:.17g}")
    return "\n".join(rows) + "\n", "\n".join(agg) + "\n"


def run_speedup(config: ExperimentConfig):
    """Stationary parameter variance against the client count.

    All client counts share one data pool, so that the average noise level
    is common across rows: the largest N's problem is generated as usual,
    and every other N re-splits its record table, which all problems and
    the block then read in place.  The step size comes from the largest-N
    certificate and is shared too.  The chains of all client counts run in
    lockstep as one block.
    """
    n_list = sorted(set(config.n_clients))
    n_max = n_list[-1]
    setups = {n_max: _setup(config, n_max)}
    for n in n_list[:-1]:
        setups[n] = _setup(config, n, pool=setups[n_max][0])
    gamma = _resolve_gamma(config, setups[n_max][1])

    chains = [setups[n] + (_run_config(config, gamma, config.seeds[0]),)
              for n in n_list]
    estimates = stationary.estimate_stationary_sweep(
        chains, burn_in=config.burn_in, n_samples=config.n_samples,
        thinning=config.thinning, xi_moments=False,
    )

    rows = ["N,trace_cov_theta,predicted_trace"]
    for n, est in zip(n_list, estimates):
        problem, cert = setups[n]
        pred = stationary.predict_first_order(problem, cert, gamma, config.local_steps)
        rows.append(
            f"{n},{float(np.trace(est.cov_theta)):.17g},"
            f"{float(np.trace(pred.cov_theta)):.17g}"
        )
    return "\n".join(rows) + "\n"


def run_coupling(config: ExperimentConfig):
    """Mean coupled squared distance per round against the geometric bound.

    The mean is over the distinct seeds, each counted once.
    """
    problem, cert, gamma = _first_setup(config)
    n, d = problem.n_clients, problem.d

    dists = []
    for seed in dict.fromkeys(config.seeds):
        rc = _run_config(config, gamma, seed, config.rounds)
        rng = np.random.default_rng(1_000_000 + seed)
        state_a = ChainState.zeros(d, n)
        state_b = ChainState(rng.standard_normal(d), np.zeros((n, d)))
        dists.append(coupled_run(problem, rc, state_a, state_b))
    mean_d = np.mean(dists, axis=0)
    rate = (1.0 - gamma * cert.mu / 4.0) ** config.local_steps
    bound = mean_d[0] * rate ** np.arange(config.rounds + 1)

    rows = ["t,mean_D,bound_D"]
    for t in range(config.rounds + 1):
        rows.append(f"{t},{mean_d[t]:.17g},{bound[t]:.17g}")
    return "\n".join(rows) + "\n"


def run_stationary(config: ExperimentConfig):
    """Full stationary-moment report for the first client count."""
    problem, cert, gamma = _first_setup(config)
    rc = _run_config(config, gamma, config.seeds[0])
    est = stationary.estimate_stationary(
        problem, cert, rc, burn_in=config.burn_in,
        n_samples=config.n_samples, thinning=config.thinning,
    )
    header = f"gamma = {gamma:.17g}\nlocal_steps = {config.local_steps}\n"
    return header + stationary.estimate_report(est)


def run_predict(config: ExperimentConfig):
    """First-order predicted covariances and bias for the first client count."""
    problem, cert, gamma = _first_setup(config)
    pred = stationary.predict_first_order(problem, cert, gamma, config.local_steps)
    return stationary.prediction_report(pred)


def run_complexity(config: ExperimentConfig):
    """Parameter recipe rows for each requested client count."""
    _, cert, _ = _first_setup(config)

    rows = ["N,gamma,local_steps,rounds,grads_per_client,n_max,n_clients_ok"]
    for n in sorted(set(config.n_clients)):
        recipe = stationary.complexity_recipe(cert, config.epsilon, n)
        rows.append(
            f"{n},{recipe.gamma:.17g},{recipe.local_steps:.17g},"
            f"{recipe.rounds:.17g},{recipe.grads_per_client:.17g},"
            f"{recipe.n_max:.17g},{str(recipe.n_clients_ok).lower()}"
        )
    return "\n".join(rows) + "\n"


def aggregate_path(path):
    """Sibling path for figure1 aggregate rows: x.csv -> x.agg.csv."""
    path = str(path)
    if path.endswith(".csv"):
        return path[:-4] + ".agg.csv"
    return path + ".agg"


_RUNNERS = {
    "speedup": run_speedup,
    "coupling": run_coupling,
    "stationary": run_stationary,
    "predict": run_predict,
    "complexity": run_complexity,
}


def run_task(config: ExperimentConfig, out_path=None, threads=1):
    """Run the configured task and write its output file(s).

    Returns the main output text.  figure1 additionally writes the
    aggregate CSV next to the main file.
    """
    if config.task == "figure1":
        text, agg = run_figure1(config, threads=threads)
    else:
        text, agg = _RUNNERS[config.task](config), None
    out = out_path or config.output_path
    if out is not None:
        for path, content in ((out, text), (aggregate_path(out), agg)):
            if content is not None:
                with open(path, "w") as fh:
                    fh.write(content)
    return text
