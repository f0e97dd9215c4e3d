"""Smoke tests of the benchmark harness at tiny scale.

    python3 -m pytest bench/test_harness.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import worker  # noqa: E402  (puts src/ on sys.path)
from checks import check_batch  # noqa: E402
from tracing import Tracer, layer_metrics, patched  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from subweibull import experiments, samplers  # noqa: E402
from subweibull.experiments import parse_config  # noqa: E402

TINY = {
    "workers": 2,
    "configs": [
        ("tailcheck", "experiment = tailcheck\nalpha = 1\nn = 20\nq = 4\nreps = 50\n"),
        ("covariance", "experiment = covariance\np = 4\nn = 30\nreps = 40\n"),
        ("clt", "experiment = clt\nq = 5\nn = 50\nstat_reps = 20\nreps = 2\n"),
    ],
}


def _tiny_tailcheck(tmp_path, seed):
    text = TINY["configs"][0][1] + f"seed = {seed}\n"
    return dataclasses.replace(parse_config(text),
                               output_dir=str(tmp_path / "tailcheck"))


def _benchmark_json():
    return json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def test_workloads_parse_and_carry_the_seed(tmp_path):
    for name in WORKLOADS:
        for seed in (1, 2**40 + 3):
            batches = worker.load_batches(name, seed, tmp_path)
            assert batches
            for _, config in batches:
                assert config.seed == seed
                assert config.workers == WORKLOADS[name]["workers"]
    names = {w["name"] for w in _benchmark_json()["workloads"]}
    assert names == set(WORKLOADS)


def test_patched_records_nested_spans_and_restores(tmp_path):
    originals = (experiments.run, experiments.gram,
                 samplers.RngStream.generator, samplers.SymmetricWeibull.sample,
                 experiments.REGISTRY["tailcheck"])
    config = _tiny_tailcheck(tmp_path, 3)
    tracer = Tracer()
    with patched(tracer):
        experiments.run(config)
    assert (experiments.run, experiments.gram, samplers.RngStream.generator,
            samplers.SymmetricWeibull.sample,
            experiments.REGISTRY["tailcheck"]) == originals

    ids = {span[0] for span in tracer.spans}
    assert all(parent == 0 or parent in ids for _, parent, *_ in tracer.spans)
    metrics = layer_metrics(tracer.spans)
    reps = config.reps
    assert metrics["experiments.tasks"] == reps
    assert metrics["samplers.generators"] == reps
    assert metrics["samplers.values"] == reps * 20 * 4
    assert metrics["experiments.artifact_bytes"] > 0
    assert metrics["samplers.sample_s"] > 0.0
    assert 0.0 < metrics["experiments.pool_busy"] <= 1.0
    for name, value in metrics.items():
        assert value >= 0, name


def test_checks_pass_then_catch_a_tampered_artifact(tmp_path):
    config = _tiny_tailcheck(tmp_path, 5)
    experiments.run(config)
    problems, digests = check_batch(config, config.output_dir)
    assert problems == []
    assert set(digests) >= {"results.csv", "summary.csv"}
    results = Path(config.output_dir) / "results.csv"
    lines = results.read_text().splitlines()
    results.write_text("\n".join(lines[:-1]) + "\n")
    problems, _ = check_batch(config, config.output_dir)
    assert any("digest" in p for p in problems)
    assert any("rows" in p for p in problems)


def test_measure_reports_every_declared_layer(tmp_path, monkeypatch):
    monkeypatch.setitem(WORKLOADS, "tiny", TINY)
    batches = worker.load_batches("tiny", 7, tmp_path / "out")
    result = worker.measure(batches, 0.0, True, tmp_path / "out")
    assert result["rounds"] == 2
    assert result["attempted"] == 2 * len(TINY["configs"])
    assert result["failed"] == 0 and result["check_failed"] == 0
    declared = {m["name"] for m in _benchmark_json()["per_layer"]}
    assert set(result["layers"]) == declared
    assert (tmp_path / "out" / "spans.csv").is_file()
    assert len(result["batch_s"]) == len(result["cpu_s"]) == 1
    assert result["layers"]["trace.batch_s"] > 0.0


def test_run_refuses_without_library_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "certify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
