"""Command-line entry point.

Subcommands mirror the experiment tasks (figure1, speedup, coupling,
stationary, predict, complexity) plus print-config.  All state flows
through the config file and flags; environment variables are ignored.
Exit code 0 on success; on failure, one machine-parsable line
`<ErrorClass>: <message>` goes to stderr and the exit code is nonzero.
"""

from __future__ import annotations

import argparse
import sys

from .algorithms import DivergenceError
from .harness import TASKS, ConfigError, format_config, parse_config, run_task
from .optimum import SolverError

_EPILOG = """\
config file format (strict `key = value` lines under [section] headers):

  [experiment]
  task = figure1            one of: figure1 speedup coupling stationary
                            predict complexity
  output = out.csv          optional; --out overrides

  [problem]                 all optional, defaults shown
  loss = logistic           quadratic | logistic
  l2_weight = 0.1
  n_features = 20
  records_per_client = 200
  informative = 2,10        informative-feature counts of the two sources
  generator_seeds = 123,456 seeds of the two sources
  noise_std = 10            regression target noise
  class_sep = 1             classification center separation

  [run]                     all optional, defaults shown
  gamma = 0.05              or gamma_over_L = <x> to set gamma = x / L
  local_steps = 100
  rounds = 100
  batch_size = 10
  n_clients = 10,100
  seeds = 0,1,2
  algorithms = scaffold,fedavg
  burn_in =                 stationary tasks; default ceil(16/(gamma*mu*H))
  n_samples = 1000          stationary tasks
  thinning = 1              stationary tasks
  epsilon =                 required for the complexity task
"""


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="scaffold-sim",
        description="Federated-learning chain simulator and theory checker",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for task in TASKS + ("print-config",):
        p = sub.add_parser(task)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", default=None, help="output file (overrides config)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (figure1: one client count each)")
        p.add_argument("--seed-override", type=int, default=None,
                       help="replace the config's seed list with one seed")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        config = parse_config(args.config)
        if args.seed_override is not None:
            config.seeds = [args.seed_override]
            config.validate()

        if args.command == "print-config":
            text = format_config(config)
            if args.out:
                with open(args.out, "w") as fh:
                    fh.write(text)
            else:
                sys.stdout.write(text)
            return 0

        if args.command != config.task:
            raise ConfigError(
                f"key `task`: config says {config.task!r} but the "
                f"`{args.command}` subcommand was invoked"
            )
        text = run_task(config, out_path=args.out, threads=max(1, args.threads))
        if args.out is None and config.output_path is None:
            sys.stdout.write(text)
        return 0
    except (ConfigError, SolverError, DivergenceError, OSError, ValueError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
