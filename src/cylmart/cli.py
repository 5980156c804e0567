"""Command-line entry point.

Usage::

    cylmart <experiment> [--config file.json] [--seed N] [--paths N]
            [--grid K] [--out DIR] [--force]
    cylmart replay <report.json or run directory>
    cylmart plotdata <report.json> [--out DIR]

Exit code 0 means every criterion of the run passed; a bad flag, or a config
file or report that cannot be read or is not valid, exits 2 with a message.
When standard output is closed early (``cylmart replay run | head -1``) the
rest of the output is dropped and the exit code is 141, the status a shell
gives a process stopped by SIGPIPE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from ._util import int_at_least
from .experiments import EXPERIMENTS, PARAMS
from .harness import (
    ConfigError,
    ReplayMismatch,
    emit_plotdata,
    load_report,
    replay,
    run,
    validate_config,
)

# the status a shell reports for a process stopped by SIGPIPE (128 + 13)
EXIT_BROKEN_PIPE = 141


def _int_type(least: int, what: str):
    """argparse type for integers: a usage error, not a traceback, on bad input."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if not int_at_least(value, least):
            raise argparse.ArgumentTypeError(f"{value} is not a {what} integer")
        return value

    return parse


_positive_int = _int_type(1, "positive")
_seed_int = _int_type(0, "non-negative")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylmart", description="stochastic-calculus verification experiments"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in sorted(EXPERIMENTS):
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", type=Path, help="JSON config file to merge")
        p.add_argument("--seed", type=_seed_int, default=None)
        p.add_argument("--paths", type=_positive_int, default=None)
        p.add_argument("--grid", type=_positive_int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--force", action="store_true", help="reuse an existing run dir")

    pr = sub.add_parser("replay", help="re-run a stored report and compare bit-exactly")
    pr.add_argument("report", type=Path)

    pp = sub.add_parser("plotdata", help="emit CSV series from a stored report")
    pp.add_argument("report", type=Path)
    pp.add_argument("--out", type=str, default=".")
    return parser


def _assemble_config(args) -> dict:
    # validate_config fills in the schema version and the default seed; the
    # run directory's parent is --out, else the config file's out, else runs
    cfg = {"experiment": args.command, "out": "runs"}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError(f"config file {args.config} does not hold a JSON object")
        if loaded.get("experiment", args.command) != args.command:
            raise ConfigError(
                f"config file is for {loaded['experiment']!r}, not {args.command!r}"
            )
        cfg.update(loaded)
    if args.seed is not None:
        cfg["seed"] = args.seed
    flags = {s: getattr(args, s) for s in ("paths", "grid") if getattr(args, s) is not None}
    for short in flags:
        if short not in PARAMS[args.command]:
            raise ConfigError(f"experiment {args.command!r} takes no --{short}")
    params = cfg.get("params", {})
    if flags and isinstance(params, dict):  # validate_config names any other params
        cfg["params"] = {**params, **flags}
    if args.out is not None:
        cfg["out"] = args.out
    return validate_config(cfg)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code = _dispatch(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:
        # the reader went away: send what is still buffered, and the
        # interpreter's last flush, to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


def _dispatch(args) -> int:
    try:
        if args.command == "replay":
            report = replay(args.report)
            print(f"replay of {args.report}: metrics identical")
            for line in report.summary_lines():
                print(line)
            return 0 if report.passed else 1
        if args.command == "plotdata":
            paths = emit_plotdata(load_report(args.report), args.out)
            for p in paths:
                print(p)
            return 0
        cfg = _assemble_config(args)
        report = run(cfg, force=args.force)
        for line in report.summary_lines():
            print(line)
        if report.run_dir:
            print(f"report written to {report.run_dir}")
        return 0 if report.passed else 1
    except (ConfigError, ReplayMismatch, FileExistsError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
