"""Command line front end for the experiment runner.

Exit codes: 0 success, 2 configuration problem (a config too big for
the memory available included), 3 a certified invariant failed on
concrete data, 4 filesystem trouble.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

from . import __version__
from .experiments import (
    _MAX_WORKERS,
    ConfigError,
    InvariantViolation,
    list_experiments,
    parse_config,
    run,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="subweibull",
        description="run reproducible concentration-of-measure experiments",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="execute a key=value config file")
    run_parser.add_argument("config", help="path to the config file")
    run_parser.add_argument("--out", metavar="DIR",
                            help="output directory (overrides the config)")
    run_parser.add_argument("--workers", type=int, metavar="N",
                            help=f"concurrent tasks, at most {_MAX_WORKERS} "
                                 "(overrides the config)")
    run_parser.add_argument("--seed", type=int, metavar="S",
                            help="base seed (overrides the config)")

    sub.add_parser("list", help="list registered experiments")
    return parser


def _fail(code: int, message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list":
        for name, description in list_experiments():
            print(f"{name:<12}{description}")
        return 0

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        return _fail(4, f"cannot read config: {exc}")

    try:
        config = parse_config(text)
        if args.out is not None:
            config = dataclasses.replace(config, output_dir=args.out)
        if args.workers is not None:
            if not 1 <= args.workers <= _MAX_WORKERS:
                raise ConfigError(
                    f"--workers must lie in [1, {_MAX_WORKERS}]")
            config = dataclasses.replace(config, workers=args.workers)
        if args.seed is not None:
            if not 0 <= args.seed < 2**63:
                raise ConfigError("--seed must lie in [0, 2**63)")
            config = dataclasses.replace(config, seed=args.seed)
    except ConfigError as exc:
        return _fail(2, str(exc))

    try:
        manifest = run(config)
    except ConfigError as exc:
        return _fail(2, str(exc))
    except MemoryError as exc:
        return _fail(2, f"config needs more memory than is available: {exc}")
    except InvariantViolation as exc:
        return _fail(3, f"invariant violation: {exc}")
    except OSError as exc:
        return _fail(4, f"i/o failure: {exc}")

    for note in manifest.notes:
        print(f"warning: {note}", file=sys.stderr)
    print(manifest.output_dir)
    for entry in manifest.files:
        print(f"  {entry['name']}  sha256={entry['sha256'][:12]}  "
              f"{entry['bytes']} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
