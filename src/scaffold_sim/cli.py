"""Command-line entry point.

Subcommands mirror the experiment tasks (figure1, speedup, coupling,
stationary, predict, complexity) plus print-config.  All state flows
through the config file and flags; environment variables are ignored.
Exit code 0 on success; on failure, one machine-parsable line
`<ErrorClass>: <message>` goes to stderr and the exit code is nonzero;
a warning prints as one `<WarningClass>: <message>` line and the run goes on.
"""

from __future__ import annotations

import argparse
import sys
import textwrap
import warnings
from dataclasses import MISSING, fields

from .algorithms import DivergenceError
from .harness import TASKS, ConfigError, ExperimentConfig, format_config, parse_config, run_task
from .optimum import SolverError


def _entry(f):
    """One key of `--help`: `  key = default`, then its declared notes from column 28."""
    meta, default = f.metadata, f.default
    if isinstance(default, tuple):
        default = ",".join(str(x) for x in default)
    unread = [task for task in TASKS if task not in meta["tasks"]]
    notes = [default is MISSING and "required",
             meta["choices"] and "one of: " + " | ".join(meta["choices"]),
             unread and (f"all but {', '.join(unread)}" if len(unread) < len(meta["tasks"])
                         else f"{', '.join(meta['tasks'])} only"),
             meta["loss"] and f"{meta['loss']} loss only", meta["help"]]
    text = textwrap.fill("; ".join(note for note in notes if note), 79,
                         initial_indent=" " * 28, subsequent_indent=" " * 28)
    if isinstance(default, float):
        default = f"{default:g}"
    head = f"  {meta['key'] or f.name} = {'' if default in (None, MISSING) else default}"
    return f"{head:27} {text[28:]}".rstrip()


def _epilog():
    """The config grammar of `--help`, generated from the `ExperimentConfig` fields.

    A key with neither a default nor a note is named in another key's note.
    """
    lines = ["config file format: strict `key = value` lines under [section] headers;",
             "a key that the task (or the loss) does not read is an error"]
    for section in dict.fromkeys(f.metadata["section"] for f in fields(ExperimentConfig)):
        keys = [f for f in fields(ExperimentConfig) if f.metadata["section"] == section]
        optional = all(f.default is not MISSING for f in keys)
        header = f"  [{section}]"
        lines += ["", f"{header:28}all optional, defaults shown" if optional else header]
        lines += [_entry(f) for f in keys if f.default is not None or f.metadata["help"]]
    return "\n".join(lines) + "\n"


_EPILOG = _epilog()


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
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--threads", type=int, default=1,
                       help="worker threads (figure1 only: one client count each)")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    with warnings.catch_warnings():
        # one line per warning; the caller's filters still decide what is shown
        warnings.showwarning = lambda message, category, *_: print(
            f"{category.__name__}: {message}", file=sys.stderr)
        try:
            if args.threads < 1:
                raise ValueError(f"--threads must be >= 1, got {args.threads}")
            if args.threads > 1 and args.command != "figure1":
                raise ValueError(f"--threads {args.threads}: only figure1 runs in parallel")
            config = parse_config(args.config)
            if args.command == "print-config":
                text = format_config(config)
                if args.out:
                    with open(args.out, "w") as fh:
                        fh.write(text)
            elif args.command != config.task:
                raise ConfigError(
                    f"key `task`: config says {config.task!r} but the "
                    f"`{args.command}` subcommand was invoked"
                )
            else:
                text = run_task(config, out_path=args.out, threads=args.threads)
            if not args.out:
                sys.stdout.write(text)
            return 0
        except (ConfigError, SolverError, DivergenceError, OSError, ValueError) as exc:
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
