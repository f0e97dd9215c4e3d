"""Command line tests: subcommands, overrides, exit codes, show."""

from __future__ import annotations

import ast
import csv
import dataclasses
import importlib
import os
import resource
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

from subweibull import cli
from subweibull import experiments as ex


def _write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


NORMS_SMALL = "experiment = norms\nalpha = 1\nn = 100, 200\nreps = 2\n"


def test_list_prints_registry(capsys):
    assert cli.main(["list"]) == 0
    out = capsys.readouterr().out
    for name, _ in ex.list_experiments():
        assert name in out


def test_run_success_prints_artifacts(tmp_path, capsys):
    cfg = _write_config(tmp_path, NORMS_SMALL)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "results.csv" in out
    assert "sha256=" in out
    assert (tmp_path / "out" / "manifest.json").exists()


def test_run_reports_nonconverged_fits(tmp_path, capsys, monkeypatch):
    # A fit that stops short of its KKT tolerance leaves the exit code at
    # 0 but is named once on stderr.
    solve = ex.solve

    def stalled_solve(x, y, lam, sigma=None):
        return dataclasses.replace(solve(x, y, lam, sigma=sigma),
                                   converged=False)

    monkeypatch.setattr(ex, "solve", stalled_solve)
    cfg = _write_config(
        tmp_path, "experiment = lasso\np = 12\nk = 2\nn = 150\nreps = 2\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    err = capsys.readouterr().err.splitlines()
    assert err == ["warning: 2 of 2 fits did not converge "
                   "(column nonconverged of summary.csv)"]
    with open(tmp_path / "out" / "summary.csv", newline="") as handle:
        assert [row["nonconverged"] for row in csv.DictReader(handle)] == ["2"]
    # show prints the note the manifest keeps
    assert cli.main(["show", str(tmp_path / "out")]) == 0
    assert ("note        2 of 2 fits did not converge "
            "(column nonconverged of summary.csv)") in capsys.readouterr().out


def test_run_nonconverged_fit_is_not_certified(tmp_path, capsys):
    # At beta_scale = 1e20 rounding keeps the KKT residual far above its
    # tolerance, so the fit stops at max_iter away from the minimiser.
    # The cone and error certificates speak of the minimiser and are not
    # checked; the fit is counted and named on stderr instead.
    cfg = _write_config(
        tmp_path, "experiment = lasso\nbeta_scale = 1e20\np = 10\nk = 2\n"
        "n = 50\nreps = 1\nseed = 1\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().err.splitlines() == [
        "warning: 1 of 1 fits did not converge "
        "(column nonconverged of summary.csv)"]
    with open(tmp_path / "out" / "results.csv", newline="") as handle:
        (row,) = csv.DictReader(handle)
    assert row["converged"] == "0" and row["applicable"] == "1"
    assert row["error_limit"] == "nan"


def test_run_bad_config_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "experiment = norms\nzap = 1\n")
    assert cli.main(["run", cfg]) == 2
    assert "unknown key" in capsys.readouterr().err


def test_run_missing_file_exits_4(tmp_path, capsys):
    assert cli.main(["run", str(tmp_path / "absent.cfg")]) == 4
    assert "cannot read config" in capsys.readouterr().err


def test_run_re_cone_overflow_exits_2(tmp_path, capsys):
    # cone_delta passes the parse-time bound on theta'theta, but some
    # sample's gram matrix pushes theta' Sigma theta past inf; five reps
    # give several chances, and seeds 1-3 each overflow within them
    cfg = _write_config(
        tmp_path, "experiment = re\ncone_delta = 6e153\np = 3\nk = 2\n"
        "n = 5\nreps = 5\nseed = 3\n"
    )
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "cone quotient overflowed" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _exits_2_before_tasks(tmp_path, capsys, text, fragment):
    cfg = _write_config(tmp_path, text)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_run_clt_zero_l_nq_exits_2(tmp_path, capsys):
    # l_nq = 0 passes the option's minimum, but the bound needs l_nq > 0
    _exits_2_before_tasks(
        tmp_path, capsys, "experiment = clt\nl_nq = 0\nq = 5\nn = 20, 40\n"
        "stat_reps = 20\nreps = 1\n", "must be positive")


def test_run_clt_tiny_beta_exits_2(tmp_path, capsys):
    # 2^(1/beta - 1) overflows a float at beta = 1e-6
    _exits_2_before_tasks(
        tmp_path, capsys, "experiment = clt\nbeta = 1e-6\nq = 5\nn = 20, 40\n"
        "stat_reps = 20\nreps = 1\n", "no bound at q=5, n=20")


def test_run_re_theory_xi_alpha_above_2_exits_2(tmp_path, capsys):
    # the theory xi is defined for alpha in (0, 2] only
    _exits_2_before_tasks(
        tmp_path, capsys, "experiment = re\nxi_source = theory\nalpha = 7\n"
        "n = 100\nreps = 1\n", "alpha must lie in (0, 2]")


def test_run_lasso_zero_headline_writes_manifest(tmp_path, capsys):
    # beta_scale = 0 fits beta = 0 exactly, so median_l2_error is 0 in
    # every cell; log axes cannot show it, and the run still finishes
    cfg = _write_config(
        tmp_path, "experiment = lasso\nbeta_scale = 0\np = 10\nk = 2\n"
        "n = 50, 100\nreps = 1\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    with open(tmp_path / "out" / "summary.csv", newline="") as handle:
        errors = [row["median_l2_error"] for row in csv.DictReader(handle)]
    assert errors == ["0", "0"]
    assert (tmp_path / "out" / "manifest.json").exists()
    assert not (tmp_path / "out" / "median_l2_error_vs_n.svg").exists()


@pytest.mark.parametrize("text", [
    "experiment = covariance\nalpha = 0.05, 0.5\np = 3, 1\nreps = 2\nseed = 85\n",
    "experiment = rip\nalpha = 0.05\np = 2, 6\nn = 50, 3\nreps = 2\nseed = 72\n",
])
def test_run_equal_huge_headlines_write_manifest(tmp_path, text):
    # at alpha = 0.05 every cell's headline sits near 8.16e47, where the
    # +-0.5 widening of an all-equal axis rounds away
    cfg = _write_config(tmp_path, text)
    assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "manifest.json").exists()


def test_run_covariance_bound_overflow_exits_2(tmp_path, capsys):
    # u^(2/alpha) overflows a float at t_ref = 1e300, alpha = 0.05
    _exits_2_before_tasks(
        tmp_path, capsys, "experiment = covariance\nt_ref = 1e300\n"
        "alpha = 0.05\np = 3, 1\nn = 50\nreps = 1\nseed = 86\n",
        "no bound at alpha=0.05")


def test_run_tailcheck_threshold_overflow_exits_2(tmp_path, capsys):
    # u^(1/alpha*) overflows a float at t = 1e300, alpha = 0.5
    _exits_2_before_tasks(
        tmp_path, capsys, "experiment = tailcheck\nalpha = 0.5, 1\nn = 20\n"
        "q = 2\nt = 1e300\nreps = 1\nseed = 77\n",
        "no threshold at alpha=0.5, n=20, q=2, t=1e+300:")


def test_run_lasso_response_overflow_exits_2(tmp_path, capsys):
    # beta_scale passes the parser, but X beta0 + eps overflows to inf
    cfg = _write_config(
        tmp_path, "experiment = lasso\np = 6\nk = 2\nn = 50\nreps = 1\n"
        "seed = 1\nbeta_scale = 1e308\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert cli.main(["run", cfg, "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "response X beta0 + eps overflowed" in err
    assert "(alpha=1.0, k=2, n=50, rep=0)" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_run_invariant_violation_exits_3(tmp_path, capsys):
    spec = ex.REGISTRY["norms"]

    def boom(config, point, rep, stream):
        raise ex.InvariantViolation("forced for the test")

    ex.REGISTRY["boom"] = dataclasses.replace(
        spec, name="boom", task=ex._each_rep(boom))
    try:
        cfg = _write_config(tmp_path, "experiment = boom\nn = 100\nreps = 1\n")
        assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 3
        assert "invariant violation" in capsys.readouterr().err
    finally:
        del ex.REGISTRY["boom"]


def test_run_flag_overrides(tmp_path):
    cfg = _write_config(tmp_path, NORMS_SMALL + "seed = 1\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "a"),
                     "--seed", "2", "--workers", "2"]) == 0
    assert cli.main(["run", cfg, "--out", str(tmp_path / "b"),
                     "--seed", "2"]) == 0
    assert cli.main(["run", cfg, "--out", str(tmp_path / "c")]) == 0
    bytes_a = (tmp_path / "a" / "results.csv").read_bytes()
    assert bytes_a == (tmp_path / "b" / "results.csv").read_bytes()
    assert bytes_a != (tmp_path / "c" / "results.csv").read_bytes()


def test_run_rejects_bad_flag_values(tmp_path, capsys, monkeypatch):
    cfg = _write_config(tmp_path, NORMS_SMALL)
    assert cli.main(["run", cfg, "--workers", "0"]) == 2
    assert cli.main(["run", cfg, "--seed", "-1"]) == 2
    err = capsys.readouterr().err
    assert "--workers" in err and "--seed" in err
    # an empty --out is refused as an empty output_dir is, not taken as
    # "no override" with the runs/ default
    monkeypatch.chdir(tmp_path)
    assert cli.main(["run", cfg, "--out", ""]) == 2
    assert "output_dir must not be empty" in capsys.readouterr().err
    assert not (tmp_path / "runs").exists()
    # above the ceiling: refused before any thread starts
    for workers in ("65", "1000000000"):
        assert cli.main(["run", cfg, "--workers", workers]) == 2
        assert "--workers must lie in [1, 64]" in capsys.readouterr().err
    cfg = _write_config(tmp_path, NORMS_SMALL + "workers = 100000\n")
    assert cli.main(["run", cfg, "--out", str(tmp_path / "o")]) == 2
    assert "workers must be at most 64" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def _shown_run(tmp_path, capsys):
    """A tiny run written by ``subweibull run``; its directory."""
    cfg = _write_config(tmp_path, NORMS_SMALL + "seed = 5\n")
    out = tmp_path / "out"
    assert cli.main(["run", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    return out


def test_show_prints_header_and_every_cell(tmp_path, capsys):
    out = _shown_run(tmp_path, capsys)
    assert cli.main(["show", str(out)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    for field in (["experiment", "norms"], ["schema", "norms.v3"],
                  ["seed", "5"], ["reps", "2"], ["workers", "1"]):
        assert field in lines
    for name in ("summary.csv", "results.csv"):
        with open(out / name, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) > 1
        # each row's cells, as the CSV stores them, on one line in order
        start = lines.index([name])
        assert lines[start + 1:start + 1 + len(rows)] == rows


@pytest.mark.parametrize("name, text, fragment", [
    ("results.csv", None, "results.csv differs"),
    ("manifest.json", "{not json", ""),
    ("manifest.json", "[]", "not a run manifest"),
    ("manifest.json", '{"experiment": "norms"}', "not a run manifest"),
], ids=["edited-results", "not-json", "not-object", "missing-fields"])
def test_show_rejects_edited_run(tmp_path, capsys, name, text, fragment):
    out = _shown_run(tmp_path, capsys)
    path = out / name
    if text is None:  # same size, other bytes
        text = path.read_text().replace("\n1,", "\n2,", 1)
    path.write_text(text)
    assert cli.main(["show", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and fragment in captured.err
    assert captured.out == ""


def test_show_missing_directory_exits_4(tmp_path, capsys):
    assert cli.main(["show", str(tmp_path / "absent")]) == 4
    assert "cannot read run" in capsys.readouterr().err


def _run_capped(cfg, out, cap_bytes):
    """Run a config in a subprocess whose address space is capped, so an
    oversized allocation fails fast with MemoryError instead of drawing
    the kernel's out-of-memory killer."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return subprocess.run(
        [sys.executable, "-m", "subweibull.cli", "run", cfg, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300,
        preexec_fn=lambda: resource.setrlimit(
            resource.RLIMIT_AS, (cap_bytes, cap_bytes)),
    )


def test_run_rip_large_p_fits_in_memory(tmp_path):
    # a dense net for this config would take 63 GiB
    cfg = _write_config(
        tmp_path, "experiment = rip\np = 100\nk = 3\nn = 400\nreps = 1\n"
    )
    done = _run_capped(cfg, tmp_path / "out", 3 << 30)
    assert done.returncode == 0, done.stderr


def test_run_re_many_cone_trials_fits_in_memory(tmp_path):
    # one (trials, p) draw would hold several 300 MB arrays; the cone
    # search draws blocks of about 2^20 floats instead
    cfg = _write_config(
        tmp_path, "experiment = re\np = 200\nk = 3\nn = 400\nreps = 1\n"
        "cone_trials = 200000\n"
    )
    done = _run_capped(cfg, tmp_path / "out", 1 << 30)
    assert done.returncode == 0, done.stderr
    with open(tmp_path / "out" / "results.csv", newline="") as handle:
        (row,) = csv.DictReader(handle)
    # the verdict holds, so the cone search ran
    assert row["satisfied"] == "1" and float(row["margin"]) >= 0.0


def test_run_clt_large_n_fits_in_memory(tmp_path):
    # exponential coordinates draw their column sums directly; 200
    # replications of 1e8 rows of 50 would take 37 GiB as rows
    cfg = _write_config(
        tmp_path, "experiment = clt\nlaw = exponential\nq = 50\n"
        "n = 100000000\nstat_reps = 200\nreps = 1\n"
    )
    done = _run_capped(cfg, tmp_path / "out", 1 << 30)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("body", [
    "experiment = clt\nlaw = weibull\nalpha = 0.5\nq = 50\nn = 100000000\n"
    "stat_reps = 200\nreps = 1\n",
    "experiment = tailcheck\nalpha = 0.5\nq = 50\nn = 100000000\nt = 1\n"
    "reps = 1\n",
], ids=["clt", "tailcheck"])
def test_run_too_big_for_memory_exits_2(tmp_path, body):
    # alpha = 0.5 has no closed-form column sums, so each task asks for
    # 1e8 rows of 50 at once: 37 GiB
    cfg = _write_config(tmp_path, body)
    done = _run_capped(cfg, tmp_path / "out", 1 << 30)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert "more memory" in done.stderr


def _run_python(code):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_import_loads_no_scipy():
    # scipy takes most of a run's start-up time; no module needs it
    done = _run_python(
        "import subweibull, subweibull.cli, sys; "
        "loaded = [m for m in sys.modules "
        "          if m == 'scipy' or m.startswith('scipy.')]; "
        "assert not loaded, loaded")
    assert done.returncode == 0, done.stderr


def test_registry_runs_without_scipy(tmp_path):
    # every experiment at its default config, with scipy made unimportable
    done = _run_python(textwrap.dedent(f"""
        import dataclasses, sys
        sys.modules["scipy"] = None
        from subweibull import experiments as ex
        for name in sorted(ex.REGISTRY):
            config = ex.parse_config(f"experiment = {{name}}\\n")
            out = {str(tmp_path)!r} + "/" + name
            ex.run(dataclasses.replace(config, output_dir=out))
            print(name)
    """))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == sorted(ex.REGISTRY)


def test_public_names_are_exported():
    # every __all__ entry resolves, and the package re-exports only
    # names that its modules list in __all__
    init = Path(cli.__file__).with_name("__init__.py")
    imports = [node for node in ast.parse(init.read_text()).body
               if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        module = importlib.import_module(f"subweibull.{node.module}")
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (node.module, missing)
        unlisted = [a.name for a in node.names if a.name not in module.__all__]
        assert not unlisted, (node.module, unlisted)


def test_version_flag():
    with pytest.raises(SystemExit) as exit_info:
        cli.main(["--version"])
    assert exit_info.value.code == 0
