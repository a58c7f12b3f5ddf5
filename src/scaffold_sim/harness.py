"""Config-driven experiment runner.

Configs are line-oriented ``key = value`` files with ``[section]`` headers
(sections: experiment, problem, run).  Parsing is strict: unknown sections
or keys, repeated keys, bad types, empty list entries, repeated grid
entries, invalid values and a key that the task or loss does not read are
each rejected with a distinct error naming the offender.  All outputs are
CSV with 17-significant-digit floats and deterministically ordered rows,
so identical configs produce byte-identical files at any thread count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import datagen, stationary
# `run` stays importable here: perfbench/spans.py wraps `harness.run`
from .algorithms import ALGORITHMS, coupled_run, run, run_sweep  # noqa: F401
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
# complexity derives its own step size and local steps
_STEP_TASKS = tuple(task for task in TASKS if task != "complexity")
_ESTIMATOR_TASKS = ("speedup", "stationary")


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


def _entries(key, value):
    entries = value.split(",")
    if any(v.strip() == "" for v in entries):
        raise ConfigError(f"key `{key}`: empty list entry in {value!r}")
    return entries


def _parse_int_list(key, value):
    return tuple(_parse_int(key, v) for v in _entries(key, value))


def _parse_str_list(key, value):
    return tuple(v.strip() for v in _entries(key, value))


def _key(section, default, parse, key=None, low=None, below=None, positive=False,
         choices=None, length=None, distinct=False, tasks=TASKS, loss=None, help=None):
    """A field that owns its config key: [section], parser, default and rules.

    `key` is the key in the file where it differs from the attribute.  The
    rules hold for a scalar or for every entry of a list (a tuple):
    `value >= low`, `value < below`, `value > 0` with `positive`, `value in
    choices`, and a float is finite.  A list is nonempty, has `length`
    entries if given and, with `distinct`, no repeated entry.  None values
    (an unset optional key) are not checked.  Only the `tasks` read the key
    (under `loss` alone, if given); a file that gives it otherwise is
    rejected.
    `help` is a `--help` note for what the rules cannot say.
    """
    metadata = {name: value for name, value in locals().items() if name != "default"}
    return field(default=default, metadata=metadata)


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description (one task plus its parameters).

    Each field owns one config key (`_key`), read by the parser and `--help`.
    Building a config, also through `dataclasses.replace`, checks every rule;
    a built config is frozen, and holds each list key as a tuple (a list
    given for one is stored as a tuple), so no entry can be changed either.
    """

    task: str = _key("experiment", MISSING, str, choices=TASKS)
    loss: str = _key("problem", "logistic", str, choices=("quadratic", "logistic"))
    l2_weight: float = _key("problem", 0.1, _parse_float, low=0)
    n_features: int = _key("problem", 20, _parse_int, low=1)
    records_per_client: int = _key("problem", 200, _parse_int, low=1)
    informative: tuple = _key("problem", (2, 10), _parse_int_list, low=1, length=2,
                             help="informative-feature counts of the two sources")
    generator_seeds: tuple = _key("problem", (123, 456), _parse_int_list, low=0, length=2,
                                 help="seeds of the two sources")
    noise_std: float = _key("problem", 10.0, _parse_float, low=0, loss="quadratic")
    class_sep: float = _key("problem", 1.0, _parse_float, low=0, loss="logistic")
    gamma: float | None = _key("run", 0.05, _parse_float, positive=True, tasks=_STEP_TASKS,
                               help="or gamma_over_L = <x> to set gamma = x / L (not both)")
    gamma_over_l: float | None = _key("run", None, _parse_float, key="gamma_over_L",
                                      positive=True, tasks=_STEP_TASKS)
    local_steps: int = _key("run", 100, _parse_int, low=1, tasks=_STEP_TASKS)
    rounds: int = _key("run", 100, _parse_int, low=0, tasks=("figure1", "coupling"))
    batch_size: int = _key("run", 10, _parse_int, low=1)
    n_clients: tuple = _key("run", (10, 100), _parse_int_list, low=2, distinct=True,
                           help="coupling, stationary, predict: the smallest only")
    seeds: tuple = _key("run", (0, 1, 2), _parse_int_list, low=0, below=2 ** 64,
                       distinct=True, tasks=("figure1", "coupling") + _ESTIMATOR_TASKS,
                       help="speedup, stationary: the first only")
    algorithms: tuple = _key("run", ("scaffold", "fedavg"), _parse_str_list,
                            choices=ALGORITHMS, distinct=True, tasks=("figure1",))
    burn_in: int | None = _key("run", None, _parse_int, low=0, tasks=_ESTIMATOR_TASKS,
                               help="default ceil(16/(gamma*mu*H))")
    n_samples: int = _key("run", 1000, _parse_int, low=100, tasks=_ESTIMATOR_TASKS)
    thinning: int = _key("run", 1, _parse_int, low=1, tasks=_ESTIMATOR_TASKS)
    epsilon: float | None = _key("run", None, _parse_float, positive=True,
                                 tasks=("complexity",), help="required")

    def __post_init__(self):
        for f in fields(self):
            value, meta = getattr(self, f.name), f.metadata
            if value is None:
                continue
            key, length = meta["key"] or f.name, meta["length"]
            if isinstance(value, list):
                value = tuple(value)
                object.__setattr__(self, f.name, value)
            entries = value if isinstance(value, tuple) else (value,)
            if not entries:
                raise ConfigError(f"key `{key}`: list must be nonempty")
            # messages print a list key in brackets
            if length is not None and len(entries) != length:
                raise ConfigError(f"key `{key}`: need exactly {length} entries, "
                                  f"got {list(value)}")
            if meta["distinct"] and len(set(entries)) < len(entries):
                raise ConfigError(f"key `{key}`: repeated entry in {list(value)}")
            for v in entries:
                if meta["parse"] is _parse_float and not math.isfinite(v):
                    raise ConfigError(f"key `{key}`: must be finite, got {v}")
                if meta["low"] is not None and v < meta["low"]:
                    raise ConfigError(f"key `{key}`: must be >= {meta['low']}, got {v}")
                if meta["below"] is not None and v >= meta["below"]:
                    raise ConfigError(f"key `{key}`: must be < {meta['below']}, got {v}")
                if meta["positive"] and v <= 0:
                    raise ConfigError(f"key `{key}`: must be positive, got {v}")
                if meta["choices"] is not None and v not in meta["choices"]:
                    raise ConfigError(f"key `{key}`: must be one of {meta['choices']}, got {v!r}")
        if (self.gamma is None) == (self.gamma_over_l is None):
            raise ConfigError("exactly one of `gamma` or `gamma_over_L` is required, got "
                              f"gamma = {self.gamma}, gamma_over_L = {self.gamma_over_l}")
        if any(n % 2 for n in self.n_clients):
            raise ConfigError(f"key `n_clients`: entries must be even, "
                              f"got {list(self.n_clients)}")
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
        if max(self.informative) > self.n_features:
            raise ConfigError(
                f"key `informative`: counts must be <= n_features={self.n_features}, "
                f"got {list(self.informative)}"
            )
        if self.task == "complexity" and self.epsilon is None:
            raise ConfigError("key `epsilon`: required for the complexity task")


_FIELDS = {f.metadata["key"] or f.name: f for f in fields(ExperimentConfig)}


def _unread(key, config):
    """Why `config`'s task or loss does not read `key`, or None if it does."""
    meta = _FIELDS[key].metadata
    if config.task not in meta["tasks"]:
        return f"the {config.task} task does not read it"
    if meta["loss"] not in (None, config.loss):
        return f"the {config.loss} loss does not read it"


def parse_config(path) -> ExperimentConfig:
    """Strictly parse a `key = value` config file with [section] headers."""
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None

    values, lines_of = {}, {}
    section = None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if all(f.metadata["section"] != section for f in _FIELDS.values()):
                raise ConfigError(f"line {lineno}: unknown section `{section}`")
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected `key = value`, got {line!r}")
        if section is None:
            raise ConfigError(f"line {lineno}: key outside any [section]")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        f = _FIELDS.get(key)
        if f is None or f.metadata["section"] != section:
            raise ConfigError(f"line {lineno}: unknown key `{key}` in section [{section}]")
        if value == "":
            raise ConfigError(f"line {lineno}: empty value for key `{key}`")
        if key in lines_of:
            raise ConfigError(f"key `{key}`: given twice, on lines {lines_of[key]} and {lineno}")
        lines_of[key] = lineno
        conv = f.metadata["parse"]
        values[f.name] = value if conv is str else conv(key, value)

    if "task" not in values:
        raise ConfigError("missing required key `task` in section [experiment]")
    if values.get("gamma_over_l") is not None and "gamma" not in values:
        values["gamma"] = None
    config = ExperimentConfig(**values)
    for key, lineno in lines_of.items():
        why = _unread(key, config)
        if why:
            raise ConfigError(f"key `{key}`: given on line {lineno}, but {why}")
    return config


def format_config(config: ExperimentConfig) -> str:
    """Emit the normalized config; `parse_config(format_config(c)) == c`.

    Holds for every config `parse_config` returns.  Writes each key that the
    task and loss read and whose value is not None, under its section, in
    field order: floats with 17 significant digits, lists joined by commas.
    """
    sections = {}
    for key, f in _FIELDS.items():
        section = f.metadata["section"]
        lines = sections.setdefault(section, [f"[{section}]"])
        value, conv = getattr(config, f.name), f.metadata["parse"]
        if value is None or _unread(key, config):
            continue
        if conv is _parse_float:
            value = f"{value:.17g}"
        elif conv in (_parse_int_list, _parse_str_list):
            value = ",".join(str(x) for x in value)
        lines.append(f"{key} = {value}")
    return "\n\n".join("\n".join(lines) for lines in sections.values()) + "\n"


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

    Every task but `figure1` (which needs only theta*) sets up here; all go
    through the module attributes, so wrapping them times all set-up but
    the certificate's scalar constants, computed where they are first read.
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


def _run_config(config: ExperimentConfig, gamma, rounds=1, seed=RunConfig.seed):
    return RunConfig(gamma=gamma, local_steps=config.local_steps, rounds=rounds, seed=seed)


def run_figure1(config: ExperimentConfig, threads=1):
    """Trajectory sweep over (algorithm, N, seed) cells.

    Returns (per_seed_csv, aggregate_csv).  All cells of one client count
    run as one block of chains; client counts run in parallel.  Rows are
    sorted before writing, so the bytes do not depend on the thread count.
    """
    n_list = sorted(config.n_clients)

    def run_group(n):
        problem = build_problem(config, n)
        # only theta* is read; Newton's exit test implies the sum-zero check on xi*
        theta_star = solve_optimum(problem)
        gamma = config.gamma
        if gamma is None:
            gamma = _resolve_gamma(config, build_certificate(problem, theta_star))
        rc = _run_config(config, gamma, config.rounds)
        sweep = run_sweep(problem, theta_star, rc, config.algorithms, config.seeds)
        return {(algo, n, seed): mse for (algo, seed), mse in sweep.items()}

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
        for t, mse in enumerate(results[(algo, n, seed)]):
            rows.append(f"{algo},{n},{seed},{t},{mse:.17g}")

    agg = ["algorithm,N,t,mean_mse,std_mse"]
    for algo in sorted(config.algorithms):
        for n in n_list:
            stack = np.stack([results[(algo, n, s)] for s in config.seeds])
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
    n_list = sorted(config.n_clients)
    n_max = n_list[-1]
    setups = {n_max: _setup(config, n_max)}
    for n in n_list[:-1]:
        setups[n] = _setup(config, n, pool=setups[n_max][0])
    gamma = _resolve_gamma(config, setups[n_max][1])

    chains = [setups[n] + (_run_config(config, gamma, seed=config.seeds[0]),)
              for n in n_list]
    estimates = stationary.estimate_stationary_sweep(
        chains, burn_in=config.burn_in, n_samples=config.n_samples,
        thinning=config.thinning, xi_moments=False,
    )

    rows = ["N,trace_cov_theta,predicted_trace"]
    for n, est in zip(n_list, estimates):
        pred = stationary.predict_first_order(setups[n][1], gamma, config.local_steps)
        rows.append(
            f"{n},{float(np.trace(est.cov_theta)):.17g},"
            f"{float(np.trace(pred.cov_theta)):.17g}"
        )
    return "\n".join(rows) + "\n"


def run_coupling(config: ExperimentConfig):
    """Mean coupled squared distance per round (over the seeds) against the bound."""
    problem, cert, gamma = _first_setup(config)
    zero = ChainState.zeros(problem.d, problem.n_clients)
    rngs = [np.random.default_rng(1_000_000 + seed) for seed in config.seeds]
    starts = [(zero, ChainState(rng.standard_normal(problem.d), zero.xis)) for rng in rngs]
    rc = _run_config(config, gamma, config.rounds)
    mean_d = np.mean(coupled_run(problem, rc, config.seeds, starts), axis=0)
    rate = (1.0 - gamma * cert.mu / 4.0) ** config.local_steps
    bound = mean_d[0] * rate ** np.arange(config.rounds + 1)

    rows = ["t,mean_D,bound_D"]
    for t in range(config.rounds + 1):
        rows.append(f"{t},{mean_d[t]:.17g},{bound[t]:.17g}")
    return "\n".join(rows) + "\n"


def run_stationary(config: ExperimentConfig):
    """Full stationary-moment report for the first client count."""
    problem, cert, gamma = _first_setup(config)
    rc = _run_config(config, gamma, seed=config.seeds[0])
    est = stationary.estimate_stationary(
        problem, cert, rc, burn_in=config.burn_in,
        n_samples=config.n_samples, thinning=config.thinning,
    )
    header = f"gamma = {gamma:.17g}\nlocal_steps = {config.local_steps}\n"
    return header + stationary.estimate_report(est)


def run_predict(config: ExperimentConfig):
    """First-order predicted covariances and bias for the first client count."""
    _, cert, gamma = _first_setup(config)
    pred = stationary.predict_first_order(cert, gamma, config.local_steps)
    return stationary.prediction_report(pred)


def run_complexity(config: ExperimentConfig):
    """Parameter recipe rows for each requested client count."""
    _, cert, _ = _first_setup(config)

    rows = ["N,gamma,local_steps,rounds,grads_per_client,n_max,n_clients_ok"]
    for n in sorted(config.n_clients):
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
    """Run the configured task and, given `out_path`, write its output file(s).

    Returns the main output text.  figure1 additionally writes the
    aggregate CSV next to the main file.
    """
    if config.task == "figure1":
        text, agg = run_figure1(config, threads=threads)
    else:
        text, agg = _RUNNERS[config.task](config), None
    if out_path:
        for path, content in ((out_path, text), (aggregate_path(out_path), agg)):
            if content is not None:
                with open(path, "w") as fh:
                    fh.write(content)
    return text
