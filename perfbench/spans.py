"""In-memory spans around the calls into each scaffold_sim layer.

Modules import their collaborators by name (`from .core import
batch_uniform_indices`), so a function is wrapped where it is looked up:
the attribute of the module that calls it, not the module that defines it.
Nothing in the package changes; `Tracer.installed()` patches the lookup
sites and restores them on exit.

A span is (id, name, start, end, parent, task, work).  `work` is a tuple
of counts taken from the call's arguments or result (rows, words, ...).
Self time is a span's duration minus the time its direct children cover;
the program runs single-threaded, so children never overlap.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np

# Bytes per float64 / int64 element, for computed traffic.
_WORD = 8


def _rng_work(args, kwargs, result):
    # batch_uniform_indices(root_seed, round_idx, client_ids, n_steps, n_records, batch)
    _, _, client_ids, n_steps, _, batch = args
    return (int(n_steps) * len(client_ids) * int(batch),)


def _grad_work(args, kwargs, result):
    # stacked_minibatch_gradient(features, targets, thetas, loss, l2_weight)
    features, _, _, loss, _ = args
    n, m, d = features.shape
    rows = n * m
    # Computed from shapes: two einsums (2 flops per multiply-add each),
    # the per-row loss weight, the 1/m scale and the l2 term.
    per_row = 1 if loss == "quadratic" else 8
    flops = 4 * rows * d + per_row * rows + 3 * n * d
    traffic = _WORD * (rows * d + rows + 2 * n * d)
    return (rows, flops, traffic)


def _round_work(args, kwargs, result):
    # scaffold_round(state, problem, config, t) / fedavg_round(theta, problem, config, t)
    _, problem, config, _ = args
    return (problem.n_clients * config.local_steps,)


def _run_work(args, kwargs, result):
    # run(problem, certificate, config, ...): client steps of the whole trajectory
    problem, _, config = args[:3]
    return (config.rounds * problem.n_clients * config.local_steps,)


def _estimate_work(args, kwargs, result):
    # estimate_stationary(problem, certificate, config, ...) -> StationaryEstimate
    problem, _, config = args[:3]
    rounds = result.burn_in_rounds + result.n_samples * result.thinning
    steps = rounds * problem.n_clients * config.local_steps
    return (result.n_samples, result.burn_in_rounds, rounds, steps)


def _problem_clients(args, kwargs, result):
    return (args[0].n_clients,)


# (module, attribute, span name, work function).  The first group is the
# light set: few calls per task, used by the untraced run to time set-up
# and count client steps without any per-round hook.
LIGHT_SITES = (
    ("cli", "parse_config", "harness.parse", None),
    ("cli", "run_task", "harness.task", None),
    ("harness", "build_problem", "datagen.build_problem", None),
    ("harness", "solve_optimum", "optimum.solve", _problem_clients),
    ("harness", "build_certificate", "optimum.certificate", None),
    ("harness", "run", "algorithms.run", _run_work),
    ("stationary", "estimate_stationary", "stationary.estimate", _estimate_work),
)
FULL_SITES = LIGHT_SITES + (
    ("stationary", "predict_first_order", "stationary.predict", None),
    ("stationary", "sylvester_solve", "stationary.sylvester", None),
    ("stationary", "scaffold_round", "algorithms.round", _round_work),
    ("algorithms", "scaffold_round", "algorithms.round", _round_work),
    ("algorithms", "fedavg_round", "algorithms.round", _round_work),
    ("algorithms", "batch_uniform_indices", "core.rng", _rng_work),
    ("algorithms", "stacked_minibatch_gradient", "objectives.grad", _grad_work),
    ("objectives", "full_gradient", "objectives.full_gradient", None),
    ("objectives", "hessian", "objectives.hessian", None),
    ("objectives", "noise_covariance_at", "objectives.noise_cov", None),
    ("objectives", "third_derivative_apply", "objectives.third", None),
)

SETUP_SPANS = ("harness.parse", "datagen.build_problem", "optimum.solve",
               "optimum.certificate")


class Tracer:
    """Records spans for the calls made through the patched lookup sites."""

    def __init__(self, package, sites):
        self._modules = {
            name: getattr(package, name)
            for name in {site[0] for site in sites}
        }
        self._sites = sites
        self._stack = []
        self.spans = []
        self.task = None

    def new_task(self, task_id):
        """Tag later spans with `task_id`; drops the previous task's spans."""
        self.task = task_id
        self.spans = []

    def _wrap(self, fn, name, work_fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            spans = self.spans
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = clock()
                stack.pop()
                spans[sid] = (sid, name, start, end, parent, self.task, ())
                raise
            end = clock()
            stack.pop()
            work = work_fn(args, kwargs, result) if work_fn is not None else ()
            spans[sid] = (sid, name, start, end, parent, self.task, work)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every lookup site for the duration of the block."""
        saved = []
        try:
            for module_name, attr, name, work_fn in self._sites:
                module = self._modules[module_name]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, work_fn))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


class SpanTable:
    """Totals, self times and counts of one task's spans."""

    def __init__(self, spans):
        self.spans = spans
        child_time = [0.0] * len(spans)
        by_name = {}
        for span in spans:
            if span[4] >= 0:
                child_time[span[4]] += span[3] - span[2]
            by_name.setdefault(span[1], []).append(span)
        self.child_time = child_time
        self._by_name = by_name

    def of(self, name):
        return self._by_name.get(name, [])

    def calls(self, name):
        return len(self.of(name))

    def total(self, name):
        return sum(s[3] - s[2] for s in self.of(name))

    def self_time(self, name):
        return sum(s[3] - s[2] - self.child_time[s[0]] for s in self.of(name))

    def child_total(self, name):
        return sum(self.child_time[s[0]] for s in self.of(name))

    def work(self, name, index):
        return sum(s[6][index] for s in self.of(name))

    def children(self, span, name):
        return [s for s in self.of(name) if s[4] == span[0]]

    def within(self, ancestor_name, name):
        """Total time of `name` spans that have an `ancestor_name` ancestor."""
        by_id = self.spans
        total = 0.0
        for s in self.of(name):
            parent = s[4]
            while parent >= 0:
                if by_id[parent][1] == ancestor_name:
                    total += s[3] - s[2]
                    break
                parent = by_id[parent][4]
        return total

    def setup_s(self):
        return sum(self.total(name) for name in SETUP_SPANS)

    def client_steps(self):
        return self.work("algorithms.run", 0) + self.work("stationary.estimate", 3)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(table):
    """Per-layer metrics of one traced task (see METRICS.md)."""
    t = table
    m = {}

    m["core.rng.calls"] = t.calls("core.rng")
    m["core.rng.self_s"] = t.self_time("core.rng")
    m["core.rng.words"] = t.work("core.rng", 0)
    m["core.rng.words_per_s"] = _ratio(m["core.rng.words"], m["core.rng.self_s"])

    m["objectives.grad.calls"] = t.calls("objectives.grad")
    m["objectives.grad.self_s"] = t.self_time("objectives.grad")
    m["objectives.grad.rows"] = t.work("objectives.grad", 0)
    m["objectives.grad.rows_per_call"] = _ratio(m["objectives.grad.rows"],
                                                m["objectives.grad.calls"])
    m["objectives.grad.rows_per_s"] = _ratio(m["objectives.grad.rows"],
                                             m["objectives.grad.self_s"])
    m["objectives.grad.flops_computed"] = t.work("objectives.grad", 1)
    m["objectives.grad.bytes_computed"] = t.work("objectives.grad", 2)
    for layer, span in (("hessian", "objectives.hessian"),
                        ("noise_cov", "objectives.noise_cov"),
                        ("third", "objectives.third")):
        m[f"objectives.{layer}.calls"] = t.calls(span)
        m[f"objectives.{layer}.self_s"] = t.self_time(span)

    rounds = t.of("algorithms.round")
    round_total = t.total("algorithms.round")
    m["algorithms.round.calls"] = len(rounds)
    m["algorithms.round.self_s"] = t.self_time("algorithms.round")
    m["algorithms.round.kernel_share"] = _ratio(t.child_total("algorithms.round"),
                                                round_total)
    m["algorithms.run.self_s"] = t.self_time("algorithms.run")
    m["algorithms.client_steps"] = t.work("algorithms.round", 0)

    samples = t.work("stationary.estimate", 0)
    m["stationary.samples"] = samples
    m["stationary.accumulate_us_per_sample"] = 1e6 * _ratio(
        t.self_time("stationary.estimate"), samples)
    m["stationary.burn_in_share"] = _ratio(t.work("stationary.estimate", 1),
                                           t.work("stationary.estimate", 2))
    m["stationary.predict.self_s"] = t.self_time("stationary.predict")
    m["stationary.sylvester.calls"] = t.calls("stationary.sylvester")

    iters = 0.0
    line_search = 0.0
    for solve in t.of("optimum.solve"):
        n_clients = solve[6][0]
        iters += len(t.children(solve, "objectives.hessian")) / n_clients
        # the first gradient evaluation is the start point, not a trial step
        line_search += len(t.children(solve, "objectives.full_gradient")) / n_clients - 1
    m["optimum.solve.self_s"] = t.self_time("optimum.solve")
    m["optimum.newton.iters"] = iters
    m["optimum.newton.accept_ratio"] = _ratio(iters, line_search)
    m["optimum.certificate.self_s"] = t.self_time("optimum.certificate")
    m["optimum.certificate.noise_cov_share"] = _ratio(
        t.within("optimum.certificate", "objectives.noise_cov"),
        t.total("optimum.certificate"))

    m["datagen.generate_s"] = t.total("datagen.build_problem")
    m["harness.parse_s"] = t.total("harness.parse")
    m["harness.task.self_s"] = t.self_time("harness.task")
    m["trace.spans"] = len(t.spans)
    return m, [1e6 * (s[3] - s[2]) for s in rounds]


# Counts that are a pure function of the config; two traced tasks of one
# run must agree on them exactly.
EXACT_COUNTS = (
    "core.rng.words",
    "objectives.grad.calls",
    "objectives.grad.rows",
    "objectives.grad.flops_computed",
    "algorithms.round.calls",
    "optimum.newton.iters",
    "objectives.noise_cov.calls",
)

# Layers a task may legitimately never call, keyed by the metric that
# shows the layer ran; used to explain zeros in the report.
ABSENCE_PROBES = {
    "core.rng": "core.rng.calls",
    "objectives.grad": "objectives.grad.calls",
    "objectives.third": "objectives.third.calls",
    "algorithms.round": "algorithms.round.calls",
    "algorithms.run": "algorithms.run.self_s",
    "stationary.estimate": "stationary.samples",
    "stationary.predict": "stationary.predict.self_s",
    "stationary.sylvester": "stationary.sylvester.calls",
}


def percentile(values, q):
    return float(np.percentile(values, q)) if len(values) else 0.0
