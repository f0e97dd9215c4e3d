"""Child process of the benchmark: imports the library and runs batches.

    python3 bench/worker.py --workload W --seed S --seconds T --trace 0|1 \\
        --out DIR

The worker imports ``subweibull``, parses the workload's configs and
prints ``ready``; the parent times that line as the set-up.  It then runs
whole rounds of the workload's batches (one round runs every config once)
until the next round would overrun ``--seconds``, checks each batch's
artifacts, and prints one JSON line.  With ``--trace 1`` rounds alternate
between untraced and traced, so the tracing overhead is measured in one
process.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import check_batch  # noqa: E402
from tracing import Tracer, layer_metrics, median_metrics, patched, write_spans  # noqa: E402
from workloads import WORKLOADS, config_texts  # noqa: E402

# Artifacts that must come out byte-identical on every round of a seed.
_DETERMINISTIC = ("results.csv", "summary.csv")


def load_batches(workload: str, seed: int, out_root: Path):
    """Parse the workload's configs; each batch writes to out_root/label."""
    from subweibull.experiments import parse_config

    batches = []
    for label, text in config_texts(workload, seed):
        config = dataclasses.replace(parse_config(text),
                                     output_dir=str(out_root / label))
        batches.append((label, config))
    return batches


def _cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _exit_code(exc: Exception) -> int:
    """The code ``subweibull run`` would exit with on this exception."""
    from subweibull.experiments import ConfigError, InvariantViolation

    if isinstance(exc, ConfigError):
        return 2
    if isinstance(exc, InvariantViolation):
        return 3
    if isinstance(exc, OSError):
        return 4
    return 1


def run_round(batches) -> tuple:
    """Run every batch once; returns (wall s, cpu s, {label: error})."""
    from subweibull import experiments

    errors = {}
    wall = time.perf_counter()
    cpu = _cpu_s()
    for label, config in batches:
        try:
            experiments.run(config)
        except Exception as exc:  # a batch that fails is counted, not fatal
            errors[label] = f"exit {_exit_code(exc)}: {type(exc).__name__}: {exc}"
    return time.perf_counter() - wall, _cpu_s() - cpu, errors


def check_round(batches, errors, first_digests) -> dict:
    """Problems per label with the artifacts of one finished round."""
    problems = {}
    for label, config in batches:
        if label in errors:
            continue
        found, digests = check_batch(config, config.output_dir)
        expected = first_digests.setdefault(label, digests)
        for name in _DETERMINISTIC:
            if digests.get(name) != expected.get(name):
                found.append(f"{name} differs from the first round's")
        if found:
            problems[label] = found
    return problems


def measure(batches, seconds: float, trace: bool, out_root: Path) -> dict:
    """Run and check whole rounds for about ``seconds``; returns the figures."""
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    first_digests = {}
    plain, traced, layers, spans = [], [], [], []
    attempted = failed = check_failed = 0
    problems = []
    begin = time.perf_counter()
    while True:
        start = time.perf_counter()
        if trace and len(plain) > len(traced):
            tracer = Tracer()
            with patched(tracer):
                wall, cpu, errors = run_round(batches)
            traced.append(wall)
            layers.append(layer_metrics(tracer.spans))
            spans.append(tracer.spans)
        else:
            wall, cpu, errors = run_round(batches)
            plain.append((wall, cpu))
        bad = check_round(batches, errors, first_digests)
        attempted += len(batches)
        failed += len(errors) + len(bad)
        check_failed += len(bad)
        problems.extend(f"{label}: {msg}" for label, msg in errors.items())
        problems.extend(f"{label}: {msg}" for label, msgs in bad.items()
                        for msg in msgs)
        now = time.perf_counter()
        if (traced or not trace) and (now - begin) + (now - start) > seconds:
            break

    result = {
        "rounds": len(plain) + len(traced),
        "attempted": attempted,
        "failed": failed,
        "check_failed": check_failed,
        "problems": problems[:20],
        "batch_s": [w for w, _ in plain],
        "cpu_s": [c for _, c in plain],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        metrics = median_metrics(layers)
        metrics["trace.batch_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = (metrics["trace.batch_s"]
                                       - statistics.median(result["batch_s"]))
        result["layers"] = metrics
        write_spans(out_root / "spans.csv", spans)
        (out_root / "layers.json").write_text(
            json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    batches = load_batches(args.workload, args.seed, args.out)
    print("ready", flush=True)
    print(json.dumps(measure(batches, args.seconds, bool(args.trace), args.out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
