"""Property tests: tiny configs drawn by Hypothesis and run end to end."""

from __future__ import annotations

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from subweibull import covariance as cv  # noqa: E402
from subweibull import experiments as ex  # noqa: E402
from subweibull import samplers as sp  # noqa: E402


@st.composite
def _covariance_configs(draw):
    centered = draw(st.integers(0, 1))
    return {
        "alpha": draw(st.sampled_from([0.5, 1, 2])),
        "p": draw(st.integers(1, 6)),
        # the centered estimator needs two rows
        "n": draw(st.lists(st.integers(1 + centered, 40), min_size=1,
                           max_size=2, unique=True)),
        "centered": centered,
        "reps": draw(st.integers(1, 2000)),
        "workers": draw(st.integers(1, 3)),
        "seed": draw(st.integers(0, 2**63 - 1)),
    }


def test_covariance_rows_are_each_reps_own_draw(monkeypatch):
    # Runs of every length, drawn as lanes or one generator per stream,
    # at any worker count: each results.csv row is what the rep's own
    # draw_matrix gives.  The draws put runs on both sides of the lane rule.
    calls = []
    lane_words, run_words = sp._lane_words, sp._run_words
    monkeypatch.setattr(sp, "_lane_words",
                        lambda *args: calls.append("lanes") or lane_words(*args))
    monkeypatch.setattr(sp, "_run_words",
                        lambda *args: calls.append("run") or run_words(*args))

    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(_covariance_configs())
    def check(cell):
        text = "experiment = covariance\n" + "".join(
            f"{key} = {', '.join(map(str, value)) if isinstance(value, list) else value}\n"
            for key, value in cell.items())
        law = sp.IidCoordinates(sp.SymmetricWeibull(cell["alpha"]), cell["p"])
        target = np.diag(law.coordinate_variances)
        kernel = cv.centered_cov if cell["centered"] else cv.gram
        with tempfile.TemporaryDirectory() as out:
            ex.run(ex.parse_config(text + f"output_dir = {out}\n"))
            with open(Path(out) / "results.csv", newline="") as handle:
                rows = list(csv.DictReader(handle))
        assert len(rows) == len(cell["n"]) * cell["reps"]
        for row in rows:
            x = sp.draw_matrix(law, int(row["n"]),
                               sp.RngStream(cell["seed"], int(row["stream"])))
            expected = cv.max_elementwise_error(kernel(x), target)
            assert row["delta"] == "%.17g" % expected, row

    check()
    assert 0 < calls.count("lanes") < calls.count("run")
