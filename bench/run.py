"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 bench/run.py --workload mc-draws --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ``src/`` in
fresh child processes whose BLAS is pinned to one thread, so the
experiments' ``workers`` setting is the only parallelism.

With ``--trace 0`` the run is split over several children, one after the
other; each times its own set-up and rounds, and the result reports
medians over all of them.  With ``--trace 1`` one child alternates
untraced and traced rounds and the result carries the per-layer metrics.
The last line of standard output is the JSON result; artifacts, spans and
layer figures go to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS  # noqa: E402

# Fresh processes per untraced run: process-level state (allocator arenas,
# thread placement) moves round times by several percent, so medians are
# taken over rounds from several processes.
CHILDREN = 5
READY_TIMEOUT_S = 30
# A run must end within 180 s; children get their share of --seconds plus
# this margin for start-up, checks and one overrunning round.
CHILD_MARGIN_S = 20
_BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                     "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
                     "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in _BLAS_THREAD_VARS})
    return env


def run_child(workload: str, seed: int, seconds: float, trace: int):
    """One worker process; returns (set-up seconds, its JSON result)."""
    out = ROOT / ".bench_out" / workload
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
         "--out", str(out)],
        cwd=ROOT, env=child_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        readable, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT_S)
        ready = proc.stdout.readline() if readable else ""
        setup_s = time.perf_counter() - start
        stdout, stderr = proc.communicate(timeout=seconds + CHILD_MARGIN_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{stderr.strip()}")
    return setup_s, json.loads(stdout.strip().splitlines()[-1])


def _metric(value, unit):
    return {"value": value, "unit": unit}


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """Run one workload; returns the result object of the output contract."""
    children = 1 if trace else CHILDREN
    setups, results = [], []
    for _ in range(children):
        setup_s, result = run_child(workload, seed, seconds / children, trace)
        setups.append(setup_s)
        results.append(result)

    rounds = [w for r in results for w in r["batch_s"]]
    for problem in (p for r in results for p in r["problems"]):
        print(f"FAIL {problem}", file=sys.stderr)
    if trace:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
        units = {m["name"]: m["unit"] for m in declared}
        metrics = {name: _metric(value, units[name])
                   for name, value in sorted(results[0]["layers"].items())}
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "batch_s": _metric(statistics.median(rounds), "s"),
            "cpu_s": _metric(
                statistics.median(c for r in results for c in r["cpu_s"]), "s"),
            "peak_rss_mb": _metric(
                statistics.median(r["peak_rss_mb"] for r in results), "MB"),
        }
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(f"{workload} seed {seed} trace {trace}: {len(results)} processes, "
          f"{sum(r['rounds'] for r in results)} rounds, {attempted} batches, "
          f"{failed} failed; untraced rounds "
          + " ".join(f"{w:.3f}" for w in rounds), file=sys.stderr)
    return {
        "correct": all(r["check_failed"] == 0 for r in results),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py")
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"],
                        help="'all' runs every workload untraced and traced, "
                             "one JSON line each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "subweibull" / "__init__.py").is_file():
        print(f"error: no library source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**63:
        print("error: --seed must lie in [0, 2**63)", file=sys.stderr)
        return 2
    if args.workload == "all":
        runs = [(name, trace) for name in WORKLOADS for trace in (0, 1)]
    else:
        runs = [(args.workload, args.trace)]
    try:
        for name, trace in runs:
            result = bench(name, args.seed, args.seconds, trace)
            if args.workload == "all":
                result = {"workload": name, "trace": trace, **result}
            print(json.dumps(result), flush=True)
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
