"""Experiment layer tests: config parsing, the driver, CSV/SVG artifacts."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import subweibull
from subweibull import covariance as cv
from subweibull import experiments as ex
from subweibull import samplers as sp


def _parse(text):
    return ex.parse_config(text)


def _read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------------------
# fit_loglog


def test_fit_loglog_hand_values():
    # lx = (0, 1, 2), ly = (1, 2, 4): slope 3/2, RSS 1/6, se 1/(2 sqrt 3)
    xs = (1.0, math.e, math.e**2)
    ys = (math.e, math.e**2, math.e**4)
    slope, se = ex.fit_loglog(xs, ys)
    assert abs(slope - 1.5) < 1e-12
    assert abs(se - 1.0 / (2.0 * math.sqrt(3.0))) < 1e-12


def test_fit_loglog_two_points_exact():
    slope, se = ex.fit_loglog([10.0, 1000.0], [5.0, 0.05])
    assert abs(slope - (-1.0)) < 1e-12
    assert se == 0.0


def test_fit_loglog_validation():
    with pytest.raises(ValueError):
        ex.fit_loglog([1.0, 2.0], [0.0, 1.0])
    with pytest.raises(ValueError):
        ex.fit_loglog([-1.0, 2.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        ex.fit_loglog([1.0], [1.0])
    with pytest.raises(ValueError):
        ex.fit_loglog([1.0, 2.0, 3.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        ex.fit_loglog([2.0, 2.0], [1.0, 3.0])


# ---------------------------------------------------------------------------
# config parsing


TAILCHECK_TEXT = """
# threshold sweep
experiment = tailcheck
alpha = 0.5, 1, 2
n = 100, 1000
q = 10
t = 1, 2, 4
reps = 2000
"""


def test_parse_config_full_example():
    config = _parse(TAILCHECK_TEXT)
    assert config.experiment == "tailcheck"
    assert config.grids["alpha"] == (0.5, 1.0, 2.0)
    assert config.grids["n"] == (100, 1000)
    assert config.grids["q"] == (10,)
    assert config.grids["t"] == (1.0, 2.0, 4.0)
    assert config.reps == 2000
    assert config.seed == 0
    assert config.workers == 1
    assert config.output_dir is None


def test_parse_config_compact_form():
    # same grammar without spaces around = or after commas
    config = _parse("experiment=tailcheck\nseed=7\nalpha=0.5,1,2\nn=100,1000\nreps=2000")
    assert config.experiment == "tailcheck"
    assert config.seed == 7
    assert config.grids["alpha"] == (0.5, 1.0, 2.0)
    assert config.grids["n"] == (100, 1000)
    assert config.reps == 2000


def test_parse_config_defaults_fill_in():
    config = _parse("experiment = norms\n")
    assert config.grids["alpha"] == (0.5, 1.0, 2.0)
    assert config.grids["n"] == (400, 1600, 6400)
    assert config.reps == 30


def test_parse_config_constants_override():
    config = _parse("experiment = norms\nc_gamma_lasso = 2.5\nk1_clt = 0.5\n")
    assert config.constants.c_gamma_lasso == 2.5
    assert config.constants.k1_clt == 0.5
    assert config.constants.c_alpha_thm34 == 1.0


def test_parse_config_driver_keys():
    config = _parse(
        "experiment = norms\nseed = 11\nworkers = 3\noutput_dir = some/dir\n"
    )
    assert config.seed == 11
    assert config.workers == 3
    assert config.output_dir == "some/dir"


def test_parse_config_option_types():
    config = _parse(
        "experiment = lasso\nnoise = pareto\npareto_shape = 5\n"
        "lambda_rule = theory_poly\np = 40\n"
    )
    assert config.options["noise"] == "pareto"
    assert config.options["p"] == 40
    config = _parse("experiment = covariance\ncentered = 1\n")
    assert config.options["centered"] is True


@pytest.mark.parametrize("text, fragment", [
    ("", "missing required key 'experiment'"),
    ("experiment = nope\n", "unknown experiment"),
    ("experiment = norms\nexperiment = norms\n", "duplicate key"),
    ("experiment = norms\nn = 100\nn = 200\n", "duplicate key"),
    ("experiment = norms\njust a line\n", "expected key=value"),
    ("experiment = norms\n= 3\n", "missing key"),
    ("experiment = norms\nn = ten\n", "not a number"),
    ("experiment = norms\nn = 100.5\n", "positive integers"),
    ("experiment = norms\nn = 1e20\n", "positive integers"),
    ("experiment = norms\nn = inf\n", "positive integers"),
    ("experiment = norms\nn = 0\n", "positive integers"),
    ("experiment = norms\nalpha = -1\n", "positive values"),
    ("experiment = norms\nalpha = 1,,2\n", "empty entry"),
    ("experiment = norms\nbogus = 1\n", "unknown key 'bogus'"),
    ("experiment = norms\nreps = 0\n", "at least 1"),
    ("experiment = norms\nreps = 2000000\n", "stay below"),
    ("experiment = norms\nworkers = 0\n", "at least 1"),
    ("experiment = norms\nworkers = 65\n", "at most 64"),
    ("experiment = norms\nworkers = 1000000000\n", "at most 64"),
    ("experiment = norms\nseed = -1\n", "at least 0"),
    ("experiment = norms\nseed = 100.5\n", "must be an integer"),
    ("experiment = norms\nseed = 1e20\n", "must be an integer"),
    ("experiment = norms\nseed = ten\n", "not a number"),
    ("experiment = norms\nseed = 9223372036854775808\n", "below 2\\*\\*63"),
    ("experiment = re\ncone_trials = 1e3\n", "must be an integer"),
    ("experiment = rip\nnet = 1\n", "unknown key 'net'"),
    ("experiment = rip\nnet_cap = 100\n", "unknown key 'net_cap'"),
    ("experiment = clt\nbig_b = 1\n", "unknown key 'big_b'"),
    ("experiment = norms\nc_gamma_lasso = -0.5\n", "nonnegative"),
    ("experiment = covariance\ncentered = yes\n", "must be 0 or 1"),
    ("experiment = lasso\nnoise = cauchy\n", "must be one of"),
    ("experiment = norms\noutput_dir =\n", "must not be empty"),
    ("experiment = clt\nlaw = weibull\nalpha = nan\n", "must be finite"),
    ("experiment = lasso\nbeta_scale = inf\n", "must be finite"),
    ("experiment = covariance\nc_alpha_thm34 = nan\n", "must be finite"),
    ("experiment = norms\nalpha = inf\n", "must be finite"),
])
def test_parse_config_rejects(text, fragment):
    with pytest.raises(ex.ConfigError, match=fragment):
        _parse(text)


def test_parse_config_workers_ceiling_is_inclusive():
    assert _parse("experiment = norms\nworkers = 64\n").workers == ex._MAX_WORKERS == 64


def test_parse_config_integers_are_exact():
    assert _parse("experiment = norms\nseed = 9007199254740993\n").seed == 2**53 + 1
    assert _parse("experiment = norms\nseed = 9007199254740992\n").seed == 2**53
    assert _parse("experiment = norms\nseed = 9223372036854775807\n").seed == 2**63 - 1
    config = _parse("experiment = norms\nn = 9007199254740993\n")
    assert config.grids["n"] == (2**53 + 1,)


def test_parse_config_hash_inside_value_is_kept():
    config = _parse(
        "# leading comment\nexperiment = norms # trailing comment\n"
        "output_dir = /tmp/a#b\n\tseed = 4\t# tab before the hash\n"
    )
    assert config.output_dir == "/tmp/a#b"
    assert config.seed == 4


def test_parse_config_reports_line_numbers():
    with pytest.raises(ex.ConfigError, match="line 3"):
        _parse("experiment = norms\n# comment\nn = ten\n")


@pytest.mark.parametrize("text, fragment", [
    ("experiment = covariance\nalpha = 3\n", "alpha <= 2"),
    ("experiment = covariance\ncentered = 1\nn = 1\n", "n >= 2"),
    ("experiment = covariance\ncentered = 1\nn = 50, 1\n", "n >= 2"),
    ("experiment = rip\np = 4\nk = 5\n", "exceeds p"),
    ("experiment = rip\np = 60\nk = 6\n", "too many to enumerate"),
    ("experiment = re\np = 4\nk = 5\n", "exceeds p"),
    ("experiment = re\ncone_delta = 1e300\np = 3\nk = 2\nn = 5\n",
     "cone_delta=1e\\+300 can overflow .* at most"),
    ("experiment = lasso\np = 4\nk = 5\n", "exceeds p"),
    ("experiment = lasso\nnoise = pareto\npareto_shape = 1.5\n",
     "must exceed 2"),
    ("experiment = lasso\nnoise = pareto\npareto_shape = 3\nr = 3.5\n"
     "lambda_rule = theory_poly\n", "below pareto_shape"),
    ("experiment = lasso\nnoise = pareto\nlambda_rule = theory_subweibull\n",
     "no stretched-exponential norm"),
    ("experiment = lasso\nlambda_rule = theory_poly\n",
     "expects the pareto noise"),
    ("experiment = bootstrap\nn = 1\n", "n >= 2"),
    ("experiment = bootstrap\nnominal = 1.5\n", "nominal must lie in"),
    ("experiment = bootstrap\nnominal = 0\n", "nominal must lie in"),
    ("experiment = bootstrap\ndraws = 0\n", "'draws' must be at least 1"),
    ("experiment = clt\nrho_grid = 1\n", "rho_grid must be 0"),
    ("experiment = clt\nk2_clt = 0\n", "k2_clt must be positive"),
    ("experiment = lasso\nsigma = 0\n", "needs sigma > 0"),
    ("experiment = tailcheck\nalpha = 0.01\n", "at least 0.05"),
    ("experiment = covariance\nalpha = 1, 0.01\n", "at least 0.05"),
    ("experiment = re\nalpha = 0.049\n", "at least 0.05"),
    ("experiment = lasso\nalpha = 0.01\n", "at least 0.05"),
    # the theory penalties' own domain, checked at every (alpha, n) cell
    ("experiment = lasso\nlambda_rule = theory_subweibull\np = 5\nk = 1\nn = 1\n",
     "n must be at least 2"),
    ("experiment = lasso\nlambda_rule = theory_poly\nnoise = pareto\np = 5\n"
     "k = 1\nn = 1\n", "n must be at least 2"),
    ("experiment = lasso\nlambda_rule = theory_poly\nnoise = pareto\n"
     "pareto_shape = 3\nr = 1.5\n", "'r' must be at least 2"),
    ("experiment = lasso\nlambda_rule = theory_poly\nnoise = pareto\n"
     "big_l = 0.5\n", "'big_l' must be at least 1"),
    ("experiment = lasso\nlambda_rule = theory_subweibull\nsigma = 1e-300\n"
     "p = 5\nk = 1\nn = 50\n", "degenerate penalty"),
    ("experiment = lasso\nlambda_rule = theory_subweibull\ngamma = 0.001\n",
     "out of range"),
])
def test_parse_config_experiment_constraints(text, fragment):
    with pytest.raises(ex.ConfigError, match=fragment):
        _parse(text)


# ---------------------------------------------------------------------------
# CSV formatting


def _per_cell_csv(table):
    """What write_csv must write: each cell through _format_cell."""
    lines = [",".join(table.header)]
    lines.extend(",".join(map(ex._format_cell, row)) for row in table.rows)
    return "\n".join(lines) + "\n"


def test_write_csv_formats(tmp_path):
    table = ex.CsvTable(
        ("name", "count", "value", "flag"),
        (("a", 3, 0.1, True), ("b", -2, float("nan"), False)),
    )
    path = tmp_path / "t.csv"
    ex.write_csv(path, table)
    text = path.read_text()
    lines = text.splitlines()
    assert lines[0] == "name,count,value,flag"
    assert lines[1] == "a,3,0.10000000000000001,1"
    assert lines[2] == "b,-2,nan,0"
    assert text.endswith("\n")
    assert "\r" not in text
    assert text == _per_cell_csv(table)


_FLOATS = (0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 0.1)


def _many_rows(count):
    """Rows whose columns repeat values that compare equal but print
    apart, columns of one value, and mixed columns."""
    rows = []
    for i in range(count):
        rows.append((
            _FLOATS[i % len(_FLOATS)],
            # as rip's certified column: True, 1, 1.0 and nan
            (True, 1, 1.0, float("nan"))[i % 4],
            (0.0, -0.0)[i % 2],
            -0.0,
            0.0,
            float("nan"),
            0.1,
            True,
            False,
            1,
            (1, 1.0)[i % 2],
            2**53 - 2 + i,
            2**64 + i,
            -(2**53) - i,
            np.float64(_FLOATS[i % len(_FLOATS)]),
            np.int64(2**53 + i),
            np.bool_(i % 3 == 0),
            "cell",
        ))
    return rows


def test_write_csv_columns_match_the_per_cell_reference(tmp_path):
    rows = _many_rows(300)
    table = ex.CsvTable(tuple(f"c{j}" for j in range(len(rows[0]))), tuple(rows))
    path = tmp_path / "t.csv"
    ex.write_csv(path, table)
    text = path.read_text()
    assert text == _per_cell_csv(table)
    lines = text.splitlines()
    assert [line.split(",")[2] for line in lines[1:5]] == ["0", "-0", "0", "-0"]
    assert {line.split(",")[3] for line in lines[1:]} == {"-0"}
    assert [line.split(",")[1] for line in lines[1:5]] == ["1", "1", "1", "nan"]
    # one row, no rows, and a table of repeated values only
    for sub in ((rows[0],), (), ((0.5, 7),) * 3):
        header = table.header[:len(sub[0])] if sub else table.header
        ex.write_csv(path, ex.CsvTable(header, sub))
        assert path.read_text() == _per_cell_csv(ex.CsvTable(header, sub))


def test_write_csv_numpy_scalars_format_like_python(tmp_path):
    python_row = (0.1, -0.0, 5e-324, float("inf"), float("nan"), 7, -3,
                  2**63 - 1, True, False)
    numpy_row = (np.float64(0.1), np.float64(-0.0), np.float64(5e-324),
                 np.float64(np.inf), np.float64(np.nan), np.int64(7),
                 np.int64(-3), np.int64(2**63 - 1), np.bool_(True),
                 np.bool_(False))
    header = tuple(f"c{i}" for i in range(len(python_row)))
    for count in (1, 200):
        python = ex.CsvTable(header, (python_row,) * count)
        numpy = ex.CsvTable(header, (numpy_row,) * count)
        ex.write_csv(tmp_path / "python.csv", python)
        ex.write_csv(tmp_path / "numpy.csv", numpy)
        text = (tmp_path / "python.csv").read_text()
        assert text == (tmp_path / "numpy.csv").read_text()
        assert text == _per_cell_csv(python) == _per_cell_csv(numpy)
        assert text.splitlines()[1:] == [
            "0.10000000000000001,-0,4.9406564584124654e-324,inf,nan,7,-3,"
            "9223372036854775807,1,0"] * count


@pytest.mark.parametrize("nested", [
    [[{"a": 1.0}, {"b": 1.0}]],
    [[{"a": 1.0, "b": 2.0}, {"b": 2.0, "a": 1.0}]],
    [[{"a": 1.0}, {"a": 1.0, "b": 2.0}]],
    [[{"a": 1.0}, {"a": 1.0}], [{"b": 1.0}, {"b": 1.0}]],
], ids=["key", "order", "extra", "cells"])
def test_task_table_rejects_rows_that_disagree(nested):
    points = [{"n": 10 * (cell + 1)} for cell in range(len(nested))]
    with pytest.raises(ValueError, match="rows disagree on columns"):
        ex._task_table(points, nested)


def test_task_table_lays_out_point_rep_stream_then_task_columns():
    with pytest.raises(ValueError, match="repeat a grid, rep or stream"):
        ex._task_table([{"n": 10}], [[{"rep": 1.0}]])
    table = ex._task_table([{"n": 10}, {"n": 20}], [[{"a": 0.5}], [{"a": -0.0}]])
    assert table == ex.CsvTable(("n", "rep", "stream", "a"), (
        (10, 0, 0, 0.5), (20, 0, ex._GRID_STRIDE * ex._BLOCK, -0.0)))


def test_write_csv_rejects_commas_in_cells(tmp_path):
    table = ex.CsvTable(("a",), (("x,y",),))
    with pytest.raises(ValueError, match="quoting"):
        ex.write_csv(tmp_path / "t.csv", table)


def test_csv_float_cells_roundtrip(tmp_path):
    values = (math.pi, 1.0 / 3.0, 6.02e23, 5e-324)
    table = ex.CsvTable(("v",), tuple((v,) for v in values))
    path = tmp_path / "t.csv"
    ex.write_csv(path, table)
    back = [float(row["v"]) for row in _read_rows(path)]
    assert back == list(values)


# ---------------------------------------------------------------------------
# SVG emission


def _two_point_table():
    return ex.CsvTable(("n", "err"), ((100, 0.5), (400, 0.25)))


def test_emit_plot_circle_per_point(tmp_path):
    path = tmp_path / "p.svg"
    ex.emit_plot(_two_point_table(), "n", "err", loglog=True, path=path)
    text = path.read_text()
    assert text.count("<circle") == 2
    assert "<svg" in text and "</svg>" in text


def test_emit_plot_slope_annotation_matches_fit(tmp_path):
    path = tmp_path / "p.svg"
    ex.emit_plot(_two_point_table(), "n", "err", loglog=True, path=path)
    slope, se = ex.fit_loglog([100.0, 400.0], [0.5, 0.25])
    assert f"slope {slope:.4f} (se {se:.4f})" in path.read_text()


def test_emit_plot_rejects_nonpositive_under_loglog(tmp_path):
    table = ex.CsvTable(("n", "err"), ((100, 0.0), (400, 0.25)))
    with pytest.raises(ValueError, match="positive"):
        ex.emit_plot(table, "n", "err", loglog=True, path=tmp_path / "p.svg")
    # the linear scale accepts the same data
    ex.emit_plot(table, "n", "err", loglog=False, path=tmp_path / "q.svg")
    assert (tmp_path / "q.svg").exists()


def test_plot_subtable_drops_what_log_axes_cannot_show():
    config = _parse("experiment = lasso\nn = 50, 100, 200\n")
    header = ("alpha", "k", "n", "median_l2_error")
    positive = ex.CsvTable(header, ((1.0, 5, 50, 0.5), (1.0, 5, 100, 0.25),
                                    (1.0, 5, 200, 0.125)))
    # all positive: log axes keep every row, so the plot is unchanged
    for loglog in (False, True):
        sub = ex._plot_subtable(config, positive, "n", "median_l2_error", loglog)
        assert sub.rows == positive.rows
    zeros = ex.CsvTable(header, ((1.0, 5, 50, 0.0),) + positive.rows[1:])
    sub = ex._plot_subtable(config, zeros, "n", "median_l2_error", True)
    assert sub.rows == positive.rows[1:]
    assert ex._plot_subtable(config, zeros, "n", "median_l2_error", False).rows \
        == zeros.rows
    # one positive point is no sweep, as a single n is not
    one = ex.CsvTable(header, zeros.rows[:2] + ((1.0, 5, 200, 0.0),))
    assert ex._plot_subtable(config, one, "n", "median_l2_error", True) is None


def test_emit_plot_unknown_column(tmp_path):
    with pytest.raises(ValueError, match="no column"):
        ex.emit_plot(_two_point_table(), "n", "zap", loglog=False,
                     path=tmp_path / "p.svg")


def test_emit_plot_single_point_no_annotation(tmp_path):
    table = ex.CsvTable(("n", "err"), ((100, 0.5),))
    path = tmp_path / "p.svg"
    ex.emit_plot(table, "n", "err", loglog=True, path=path)
    text = path.read_text()
    assert text.count("<circle") == 1
    assert "slope" not in text


# ---------------------------------------------------------------------------
# the driver


def _run(text, tmp_path, name="out"):
    config = _parse(text + f"output_dir = {tmp_path / name}\n")
    return ex.run(config), tmp_path / name


NORMS_SMALL = "experiment = norms\nalpha = 1\nn = 100, 200\nreps = 3\nseed = 5\n"


def test_run_norms_artifacts(tmp_path):
    manifest, out = _run(NORMS_SMALL, tmp_path)
    rows = _read_rows(out / "results.csv")
    assert len(rows) == 2 * 3
    assert [row["rep"] for row in rows] == ["0", "1", "2"] * 2
    # task stream blocks: cell stride 1000003, eight substreams per task
    assert [int(row["stream"]) for row in rows[:4]] == [0, 8, 16, 8000024]
    for field_ in ("estimate", "analytic", "abs_rel_error"):
        assert field_ in rows[0]
    summary = _read_rows(out / "summary.csv")
    assert len(summary) == 2
    assert {row["n"] for row in summary} == {"100", "200"}
    recorded = json.loads((out / "manifest.json").read_text())
    assert recorded["schema"] == "norms.v3"


def test_run_rows_echo_constants(tmp_path):
    manifest, out = _run(
        "experiment = norms\nalpha = 1\nn = 100\nreps = 2\nk2_clt = 0.25\n",
        tmp_path,
    )
    recorded = json.loads((out / "manifest.json").read_text())
    assert recorded["config_echo"]["k2_clt"] == "0.25"
    assert recorded["config_echo"]["c_gamma_lasso"] == "1.0"


def test_run_single_n_gives_nan_slope(tmp_path):
    manifest, out = _run(
        "experiment = norms\nalpha = 1\nn = 100\nreps = 2\n", tmp_path
    )
    summary = _read_rows(out / "summary.csv")
    assert summary[0]["slope"] == "nan"
    # no n sweep, so no loglog plot either
    assert not (out / "median_abs_rel_error_vs_n.svg").exists()


def test_run_reruns_byte_identical(tmp_path):
    _, out_a = _run(NORMS_SMALL, tmp_path, "a")
    _, out_b = _run(NORMS_SMALL, tmp_path, "b")
    assert (out_a / "results.csv").read_bytes() == \
        (out_b / "results.csv").read_bytes()
    assert (out_a / "summary.csv").read_bytes() == \
        (out_b / "summary.csv").read_bytes()


@pytest.mark.parametrize("text", [
    "experiment = covariance\nalpha = 1\np = 6\nn = 50, 100\nreps = 4\n",
    "experiment = tailcheck\nalpha = 0.5, 1\nn = 20, 40\nq = 3\nreps = 30\n",
    "experiment = bootstrap\nq = 5\nn = 20, 40\ndraws = 50\nreps = 6\n",
    "experiment = lasso\np = 10\nk = 2\nn = 50, 100\nreps = 3\n",
    "experiment = norms\nalpha = 0.5, 2\nn = 100, 200\nreps = 3\n",
], ids=lambda text: text.split("\n")[0].split(" = ")[1])
def test_run_workers_do_not_change_bytes(tmp_path, text):
    _, out_a = _run(text, tmp_path, "a")
    _, out_b = _run(text + "workers = 3\n", tmp_path, "b")
    assert (out_a / "results.csv").read_bytes() == \
        (out_b / "results.csv").read_bytes()
    assert (out_a / "summary.csv").read_bytes() == \
        (out_b / "summary.csv").read_bytes()


@pytest.mark.parametrize("centered", [0, 1])
@pytest.mark.parametrize("workers", [1, 3])
def test_run_covariance_runs_match_the_per_rep_reference(tmp_path, workers,
                                                         centered):
    # n p = 100 and 150 give runs of 1310 and 873 reps, so 2000 reps end in
    # a shorter run in both cells, of 690 streams drawn as lanes and of 254
    # drawn one generator each; each row is the rep's own draw_matrix
    text = (f"experiment = covariance\nalpha = 0.5\np = 5\nn = 20, 30\n"
            f"centered = {centered}\nreps = 2000\nseed = 4\nworkers = {workers}\n")
    spec = ex.REGISTRY["covariance"]
    config = _parse(text)
    assert [spec.reps_per_task(config, {"p": 5, "n": n}) for n in (20, 30)] == [1310, 873]
    _, out = _run(text, tmp_path)
    rows = _read_rows(out / "results.csv")
    assert len(rows) == 2 * 2000
    law = sp.IidCoordinates(sp.SymmetricWeibull(0.5), 5)
    target = np.diag(law.coordinate_variances)
    kernel = cv.centered_cov if centered else cv.gram
    for row in rows:
        x = sp.draw_matrix(law, int(row["n"]), sp.RngStream(4, int(row["stream"])))
        assert row["delta"] == "%.17g" % cv.max_elementwise_error(kernel(x), target)


def test_run_seed_changes_results(tmp_path):
    _, out_a = _run(NORMS_SMALL, tmp_path, "a")
    _, out_b = _run(NORMS_SMALL.replace("seed = 5", "seed = 6"), tmp_path, "b")
    assert (out_a / "results.csv").read_bytes() != \
        (out_b / "results.csv").read_bytes()


def test_run_manifest_digests_match_files(tmp_path):
    manifest, out = _run(NORMS_SMALL, tmp_path)
    assert manifest.artifact_version == subweibull.__version__
    recorded = json.loads((out / "manifest.json").read_text())
    assert recorded["experiment"] == "norms"
    assert recorded["config_echo"]["n"] == "100,200"
    assert recorded["config_echo"]["seed"] == "5"
    names = {entry["name"] for entry in recorded["files"]}
    assert {"results.csv", "summary.csv"} <= names
    for entry in recorded["files"]:
        data = (out / entry["name"]).read_bytes()
        assert hashlib.sha256(data).hexdigest() == entry["sha256"]
        assert len(data) == entry["bytes"]


def test_run_tailcheck_row_layout(tmp_path):
    text = ("experiment = tailcheck\nalpha = 0.5, 1\nn = 100\nq = 5\n"
            "t = 1, 2\nreps = 50\n")
    manifest, out = _run(text, tmp_path)
    rows = _read_rows(out / "results.csv")
    # aggregated per (cell, t): 2 cells x 2 thresholds
    assert len(rows) == 4
    assert [row["t"] for row in rows] == ["1", "2", "1", "2"]
    for row in rows:
        assert float(row["threshold"]) > 0.0
        assert 0.0 <= float(row["frequency"]) <= 1.0
        assert row["ok"] in ("0", "1")
    summary = _read_rows(out / "summary.csv")
    assert len(summary) == 2
    assert all(row["all_ok"] in ("0", "1") for row in summary)


def test_run_lasso_certificates_hold(tmp_path):
    text = ("experiment = lasso\nalpha = 1\nk = 2\nn = 150, 300\np = 12\n"
            "reps = 3\nseed = 9\n")
    manifest, out = _run(text, tmp_path)
    assert manifest.notes == ()
    for row in _read_rows(out / "results.csv"):
        assert row["converged"] == "1"
        assert row["applicable"] == "1"
        limit = float(row["error_limit"])
        if not math.isnan(limit):
            assert float(row["l2_error"]) <= limit + 1e-9


def test_lasso_summary_counts_nonconverged_fits():
    config = _parse("experiment = lasso\nalpha = 1\nk = 2\nn = 100, 200\nreps = 3\n")
    points = [{"alpha": 1.0, "k": 2, "n": 100}, {"alpha": 1.0, "k": 2, "n": 200}]

    def row(converged):
        return {"lam": 0.1, "l2_error": 0.5, "applicable": True,
                "converged": converged}

    nested = [[row(True), row(False), row(False)], [row(True)] * 3]
    summary = [ex._lasso_summary(config, point, rows)
               for point, rows in zip(points, nested)]
    assert [cell["nonconverged"] for cell in summary] == [2, 0]
    assert [cell["all_converged"] for cell in summary] == [False, True]


def test_run_rip_certified_column(tmp_path):
    text = ("experiment = rip\nalpha = 1\np = 8\nk = 2\nn = 100\nreps = 3\n")
    manifest, out = _run(text, tmp_path)
    for row in _read_rows(out / "results.csv"):
        assert row["certified"] == "1"
        assert float(row["net_value"]) <= float(row["exact_value"]) + 1e-12


def test_run_clt_summary_columns(tmp_path):
    text = ("experiment = clt\nq = 4\nn = 50, 100\nreps = 2\n"
            "stat_reps = 100\nseed = 2\n")
    manifest, out = _run(text, tmp_path)
    summary = _read_rows(out / "summary.csv")
    assert len(summary) == 2
    for row in summary:
        assert 0.0 <= float(row["median_rho"]) <= 1.0
        assert float(row["bound"]) > 0.0
        assert row["condition_ok"] in ("0", "1")


def test_run_bootstrap_summary_columns(tmp_path):
    text = ("experiment = bootstrap\nq = 4\nn = 60\nreps = 40\ndraws = 80\n"
            "seed = 1\n")
    manifest, out = _run(text, tmp_path)
    summary = _read_rows(out / "summary.csv")
    row = summary[0]
    assert 0.0 <= float(row["coverage"]) <= 1.0
    expected_se = math.sqrt(
        float(row["coverage"]) * (1.0 - float(row["coverage"])) / 40.0
    )
    assert abs(float(row["mc_se"]) - expected_se) < 1e-15


def test_run_bootstrap_q1_gaussian_matches_nominal(tmp_path):
    text = ("experiment = bootstrap\nlaw = gaussian\nq = 1\nn = 500\n"
            "nominal = 0.9\nreps = 200\ndraws = 400\nseed = 18\n")
    manifest, out = _run(text, tmp_path)
    row = _read_rows(out / "summary.csv")[0]
    coverage, mc_se = float(row["coverage"]), float(row["mc_se"])
    assert abs(coverage - 0.9) <= 4.0 * mc_se
    assert mc_se == pytest.approx(
        math.sqrt(coverage * (1.0 - coverage) / 200), rel=1e-12)


def test_run_bootstrap_coverage_monotone_in_nominal(tmp_path):
    # same seed, same streams: only the cutoff level differs
    text = ("experiment = bootstrap\nlaw = gaussian\nq = 2\nn = 60\n"
            "reps = 100\ndraws = 200\nseed = 19\n")
    coverage = {}
    for nominal in (0.5, 0.9):
        _, out = _run(text + f"nominal = {nominal}\n", tmp_path, str(nominal))
        coverage[nominal] = float(_read_rows(out / "summary.csv")[0]["coverage"])
    assert coverage[0.9] >= coverage[0.5]


def test_run_re_summary_columns(tmp_path):
    text = ("experiment = re\nalpha = 1\np = 5\nk = 2\nn = 80\nreps = 4\n"
            "cone_trials = 50\n")
    manifest, out = _run(text, tmp_path)
    rows = _read_rows(out / "results.csv")
    for row in rows:
        if row["satisfied"] == "1":
            # the cone search sits above the certified constant
            assert float(row["margin"]) >= -1e-12
    summary = _read_rows(out / "summary.csv")
    assert int(summary[0]["satisfied_count"]) <= 4


def test_run_re_below_n_equals_p(tmp_path):
    # n < p: the gram matrix is singular and eigvalsh can report a
    # lambda_min just below 0; xi is formed from max(lambda_min, 0)
    manifest, out = _run("experiment = re\np = 8\nk = 2\nn = 4\n", tmp_path)
    rows = _read_rows(out / "results.csv")
    assert len(rows) == 50
    assert any(float(row["lambda_min"]) < 0.0 for row in rows)
    assert all(float(row["xi"]) >= 0.0 for row in rows)
    assert all(row["satisfied"] == "0" for row in rows)


def test_run_lasso_below_n_equals_p(tmp_path):
    manifest, out = _run("experiment = lasso\np = 20\nn = 10\n", tmp_path)
    rows = _read_rows(out / "results.csv")
    assert len(rows) == 30
    assert all(row["re_satisfied"] == "0" for row in rows)


def test_run_lasso_empirical_pareto_ignores_r(tmp_path):
    # the empirical penalty never reads r, so the default r = 4 need not
    # lie below pareto_shape
    manifest, out = _run("experiment = lasso\nnoise = pareto\npareto_shape = 3\n"
                         "p = 5\nk = 1\nn = 50\nreps = 1\n", tmp_path)
    rows = _read_rows(out / "results.csv")
    assert len(rows) == 1 and rows[0]["converged"] == "1"


def test_run_plot_uses_first_values_of_other_axes(tmp_path):
    text = "experiment = norms\nalpha = 0.5, 1\nn = 100, 400\nreps = 3\n"
    manifest, out = _run(text, tmp_path)
    summary = _read_rows(out / "summary.csv")
    first = [row for row in summary if row["alpha"] == "0.5"]
    slope = float(first[0]["slope"])
    assert f"slope {slope:.4f}" in \
        (out / "median_abs_rel_error_vs_n.svg").read_text()


def test_run_propagates_invariant_violations(tmp_path):
    spec = ex.REGISTRY["norms"]

    def boom(config, point, rep, stream):
        raise ex.InvariantViolation("forced for the test")

    ex.REGISTRY["boom"] = dataclasses.replace(
        spec, name="boom", task=ex._each_rep(boom))
    try:
        config = _parse(
            f"experiment = boom\nalpha = 1\nn = 100\nreps = 1\n"
            f"output_dir = {tmp_path / 'x'}\n"
        )
        with pytest.raises(ex.InvariantViolation, match="forced"):
            ex.run(config)
        with pytest.raises(ex.InvariantViolation, match="forced"):
            ex.run(dataclasses.replace(config, workers=2))
    finally:
        del ex.REGISTRY["boom"]


def test_threaded_run_stops_at_first_failure(tmp_path):
    # At workers = 2 a failed task must cancel the tasks not yet started
    # instead of letting the whole batch run before the error surfaces.
    spec = ex.REGISTRY["norms"]
    calls = []

    def first_fails(config, point, rep, stream):
        calls.append(rep)
        if rep == 0:
            raise ex.InvariantViolation("first task fails")
        time.sleep(0.01)
        return {"estimate": 1.0}

    ex.REGISTRY["first_fails"] = dataclasses.replace(
        spec, name="first_fails", task=ex._each_rep(first_fails))
    try:
        config = _parse(
            f"experiment = first_fails\nalpha = 1\nn = 100\nreps = 40\n"
            f"workers = 2\noutput_dir = {tmp_path / 'x'}\n"
        )
        with pytest.raises(ex.InvariantViolation, match="first task fails"):
            ex.run(config)
    finally:
        del ex.REGISTRY["first_fails"]
    assert 0 in calls
    assert len(calls) < 10


def _norms_runs(task, reps, workers):
    """``_execute`` on one norms cell with ``task`` per rep."""
    config = _parse(f"experiment = norms\nreps = {reps}\nworkers = {workers}\n")
    spec = dataclasses.replace(ex.REGISTRY["norms"], task=ex._each_rep(task))
    return ex._execute(config, spec, [{"alpha": 1.0, "n": 10}])


@pytest.fixture
def pool_log(monkeypatch):
    """The size of every thread pool ``_execute`` starts, and the jobs
    submitted to it."""
    log = {"sizes": [], "submitted": []}

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, max_workers):
            log["sizes"].append(max_workers)
            super().__init__(max_workers=max_workers)

        def submit(self, fn, /, *args, **kwargs):
            log["submitted"].append(fn)
            return super().submit(fn, *args, **kwargs)

    monkeypatch.setattr(ex, "ThreadPoolExecutor", CountingPool)
    return log


def _rep_estimate(config, point, rep, stream):
    return {"estimate": float(rep)}


def test_threaded_run_takes_runs_as_workers_free_up(pool_log):
    # the pool gets one job per worker, which takes runs one at a time,
    # not one future per run made up front; with more workers than cores
    # and frequent thread switches every run still lands in its own row
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        (rows,) = _norms_runs(_rep_estimate, 3000, 8)
    finally:
        sys.setswitchinterval(interval)
    assert [row["estimate"] for row in rows] == [float(r) for r in range(3000)]
    assert pool_log["sizes"] == [8]
    assert len(pool_log["submitted"]) == 8


@pytest.mark.parametrize("reps, workers, pool", [
    (3, 8, [3]), (1, 8, []), (2, 2, [2]), (5, 1, []),
])
def test_threaded_run_starts_no_more_threads_than_runs(pool_log, reps,
                                                       workers, pool):
    (rows,) = _norms_runs(_rep_estimate, reps, workers)
    assert [row["estimate"] for row in rows] == [float(r) for r in range(reps)]
    assert pool_log["sizes"] == pool
    assert len(pool_log["submitted"]) == sum(pool)


@pytest.mark.parametrize("workers", [1, 3])
def test_streams_are_keyed_in_blocks_of_whole_runs(monkeypatch, workers):
    # Blocks of at most five ids and runs of two reps: a block holds two
    # runs and is keyed when its first run is taken, never across cells,
    # and every stream keeps its id and its key.
    calls = []
    seen = []
    keyed = sp.RngStream.keyed

    def spy(seed, stream_ids):
        calls.append(list(stream_ids))
        return keyed(seed, calls[-1])

    def task(config, point, reps, streams):
        seen.append((reps.start, len(calls)))
        return [{"stream": s.stream_id, "same": np.array_equal(
                    s._key, np.random.SeedSequence(entropy=[3, s.stream_id])
                    .generate_state(3, np.uint64))}
                for s in streams]

    monkeypatch.setattr(ex, "_KEY_BLOCK", 5)
    monkeypatch.setattr(sp.RngStream, "keyed", spy)
    config = _parse("experiment = norms\nalpha = 1, 2\nn = 10\nreps = 9\n"
                    f"seed = 3\nworkers = {workers}\n")
    spec = dataclasses.replace(ex.REGISTRY["norms"], task=task,
                               reps_per_task=lambda config, point: 2)
    nested = ex._execute(config, spec, ex._grid_points(config, spec))
    for cell, rows in enumerate(nested):
        assert [row["stream"] for row in rows] == [
            (cell * ex._GRID_STRIDE + rep) * ex._BLOCK for rep in range(9)]
        assert all(row["same"] for row in rows)
    assert [len(ids) for ids in calls] == [4, 4, 1, 4, 4, 1]
    if workers == 1:
        assert seen == [(0, 1), (2, 1), (4, 2), (6, 2), (8, 3),
                        (0, 4), (2, 4), (4, 5), (6, 5), (8, 6)]


def test_threaded_run_raises_the_earliest_failure():
    # rep 1 fails first, rep 0 later: the earlier run is re-raised, and no
    # worker takes a run once one has failed
    calls = []

    def task(config, point, rep, stream):
        calls.append(rep)
        if rep == 0:
            time.sleep(0.05)
        if rep < 2:
            raise ex.InvariantViolation(f"rep {rep} failed")
        return {"estimate": 1.0}

    with pytest.raises(ex.InvariantViolation, match="rep 0 failed"):
        _norms_runs(task, 500, 2)
    assert sorted(calls) == [0, 1]


def test_list_experiments_names():
    names = [name for name, _ in ex.list_experiments()]
    assert names == sorted(names)
    assert set(names) == {"norms", "tailcheck", "covariance", "rip", "re",
                          "lasso", "clt", "bootstrap"}


# Small configs with two values on every grid axis of each experiment.
TWO_PER_AXIS = {
    "norms": "alpha = 1, 2\nn = 50, 100\nreps = 2\n",
    "tailcheck": "alpha = 1, 2\nn = 10, 20\nq = 2, 3\nt = 1, 2\nreps = 5\n",
    "covariance": "alpha = 1, 2\np = 3, 4\nn = 20, 40\nreps = 2\n",
    "rip": "alpha = 1, 2\np = 4, 5\nk = 1, 2\nn = 20, 40\nreps = 1\n",
    "re": ("alpha = 1, 2\np = 4, 5\nk = 1, 2\nn = 20, 40\nreps = 1\n"
           "cone_trials = 10\n"),
    "lasso": "alpha = 1, 2\nk = 1, 2\nn = 30, 60\np = 5\nreps = 1\n",
    "clt": "q = 2, 3\nn = 20, 40\nstat_reps = 20\nreps = 1\n",
    "bootstrap": "q = 2, 3\nn = 20, 40\ndraws = 20\nreps = 2\n",
}


def test_run_plots_the_headline_over_every_axis(tmp_path):
    assert set(TWO_PER_AXIS) == set(ex.REGISTRY)
    for name, spec in ex.REGISTRY.items():
        manifest, out = _run(f"experiment = {name}\n" + TWO_PER_AXIS[name],
                             tmp_path, name)
        axes = spec.scan_keys + spec.extra_grid_keys
        assert all(len(manifest.config_echo[key].split(",")) == 2
                   for key in axes), name
        svgs = {f["name"] for f in manifest.files if f["name"].endswith(".svg")}
        assert svgs == {f"{spec.headline}_vs_{axis}.svg" for axis in axes}, name
        header = _read_rows(out / "summary.csv")[0].keys()
        assert ("slope" in header) == spec.rate, name
        assert ("slope_se" in header) == spec.rate, name
        # the tables carry only what varies; the manifest carries the rest
        repeated = {"schema", *subweibull.BoundConstants().as_mapping()}
        for table in ("results.csv", "summary.csv"):
            assert not repeated & set(_read_rows(out / table)[0]), (name, table)
        recorded = json.loads((out / "manifest.json").read_text())
        assert recorded["schema"] == f"{name}.v3"


def test_run_tailcheck_summary_reduces_its_results(tmp_path):
    manifest, out = _run(
        "experiment = tailcheck\n" + TWO_PER_AXIS["tailcheck"], tmp_path)
    results = _read_rows(out / "results.csv")
    summary = _read_rows(out / "summary.csv")
    assert len(summary) == 8
    for cell in summary:
        rows = [row for row in results
                if all(row[key] == cell[key] for key in ("alpha", "n", "q"))]
        assert len(rows) == 2
        assert cell["worst_excess"] == max(
            (row["excess"] for row in rows), key=float)
        assert cell["all_ok"] == ("1" if all(row["ok"] == "1" for row in rows)
                                  else "0")
