"""Command line front end for the experiment runner.

``subweibull run`` executes a config file; ``subweibull show RUN_DIR``
checks a run directory against its manifest and prints the run's
header and both tables, each cell as the CSV stores it.

Exit codes: 0 success, 2 configuration problem (a config too big for
the memory available included; for ``show``, a manifest that is not a
run manifest or a file that differs from it), 3 a certified invariant
failed on concrete data, 4 filesystem trouble.  A reader that closes
standard output early (``subweibull show RUN | head``) ends the output
quietly: the rest is dropped and the exit code is the command's own.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import itertools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .experiments import (
    _MAX_WORKERS,
    ConfigError,
    InvariantViolation,
    _digest,
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

    show_parser = sub.add_parser(
        "show", help="check a run directory and print its tables")
    show_parser.add_argument("run_dir", help="directory written by run")
    return parser


def _fail(code: int, message: str):
    print(f"error: {message}", file=sys.stderr)
    return code, []


def _is_run_manifest(manifest) -> bool:
    """Whether the JSON holds every field show reads, listing both tables."""
    return (isinstance(manifest, dict)
            and {"experiment", "schema", "seed", "workers"} <= manifest.keys()
            and isinstance(manifest.get("config_echo"), dict)
            and "reps" in manifest["config_echo"]
            and isinstance(manifest.get("notes"), list)
            and isinstance(manifest.get("files"), list)
            and all(isinstance(entry, dict) and isinstance(entry.get("name"), str)
                    for entry in manifest["files"])
            and {"summary.csv", "results.csv"}
            <= {entry["name"] for entry in manifest["files"]})


def _show(args):
    """Check every file the manifest lists against its recorded size and
    SHA-256, then give the run's header and both tables."""
    run_dir = Path(args.run_dir)
    try:
        manifest = json.loads((run_dir / "manifest.json").read_text())
        if not _is_run_manifest(manifest):
            raise ValueError("manifest.json is not a run manifest")
        for entry in manifest["files"]:
            if _digest(run_dir / entry["name"]) != entry:
                raise ValueError(f"{entry['name']} differs from its size or "
                                 "SHA-256 in manifest.json")
        tables = []
        for name in ("summary.csv", "results.csv"):
            with open(run_dir / name, newline="") as handle:
                tables.append((name, list(csv.reader(handle))))
    except OSError as exc:
        return _fail(4, f"cannot read run: {exc}")
    except (ValueError, csv.Error) as exc:
        return _fail(2, f"{run_dir}: {exc}")
    header = [(key, manifest[key]) for key in ("experiment", "schema", "seed")]
    header += [("reps", manifest["config_echo"]["reps"]),
               ("workers", manifest["workers"])]
    header += [("note", note) for note in manifest["notes"]]
    lines = [f"{key:<12}{value}" for key, value in header]
    for name, rows in tables:
        widths = [max(map(len, column))
                  for column in itertools.zip_longest(*rows, fillvalue="")]
        lines += ["", name]
        lines += ["  ".join(map(str.ljust, row, widths)).rstrip()
                  for row in rows]
    return 0, lines


def _list(args):
    return 0, [f"{name:<12}{description}"
               for name, description in list_experiments()]


def _run(args):
    """Run a config file; its output directory and files, each with its digest."""
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        return _fail(4, f"cannot read config: {exc}")

    try:
        config = parse_config(text)
        if args.out is not None:
            if not args.out:
                raise ConfigError("output_dir must not be empty")
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
    return 0, [str(manifest.output_dir)] + [
        f"  {entry['name']}  sha256={entry['sha256'][:12]}  "
        f"{entry['bytes']} bytes" for entry in manifest.files]


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"list": _list, "show": _show, "run": _run}[args.command]
    # the command's status is settled, and its files written, before any
    # line is printed
    status, lines = command(args)
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed the pipe (``| head``); stdout goes to the null
        # device so that the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return status


if __name__ == "__main__":
    sys.exit(main())
