"""Config-driven experiment batches with reproducible artifacts.

Each experiment is a registry entry pairing a task kernel with a
per-cell summariser and naming one headline column.  Each (grid cell,
repetition) owns a block of eight deterministic substreams, so a batch
produces byte-identical tables for a given seed no matter how many
workers execute it or in what order they finish.  One task call covers
a run of consecutive repetitions of one cell, a single one unless the
experiment sets a longer run; ``covariance`` draws and reduces a whole
run as one stack.  With several workers each takes the next run when it
is free; the task streams are keyed a block of whole runs at a time, as
the runs are taken.  The driver writes results.csv, summary.csv, one SVG
of the headline per grid axis, and a manifest.json listing every
artifact with its SHA-256 digest.  The tables hold only what varies by row; the
manifest carries the tables' schema tag and echoes the config, the
five bound constants included.  For an experiment whose claim is a
rate in n, the driver also fits the summary's headline log-log over n
(the slope and slope_se columns) and draws its plot over n log-log.

Config files are flat ``key = value`` lines; a '#' at the start of a
line or after whitespace starts a comment, so values may contain '#'.
Grid axes take comma separated values and are swept as a cartesian
product in the order the experiment declares; every other key is a
scalar option, a constants override, or one of the driver keys
(seed, reps, workers, output_dir).
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import itertools
import json
import math
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import __version__
from .covariance import (
    RsConvexityParams,
    cone_min_oracle,
    centered_cov,
    delta_bound,
    gram,
    max_elementwise_error,
    quarter_net,
    re_check,
    rip_exact,
    rip_net,
    upsilon_iid,
    xi_bound,
)
from .hdclt import (
    data_max_sample,
    gaussian_analog_sample,
    hdclt_bound,
    max_statistic,
    multiplier_draws,
    rho_rectangle_proxy,
)
from .lasso import (
    cone_membership,
    lambda_empirical,
    lambda_theory_poly,
    lambda_theory_subweibull,
    solve,
)
from .orlicz import BoundConstants, OrliczSpec, empirical_norm
from .samplers import (
    _CHUNK,
    Exponential,
    Gaussian,
    IidCoordinates,
    Pareto,
    RngStream,
    SymmetricWeibull,
    draw_matrix,
    draw_stack,
    make_regression,
)
from .tailbounds import max_average, max_average_threshold

__all__ = [
    "ConfigError",
    "InvariantViolation",
    "ExperimentConfig",
    "RunManifest",
    "CsvTable",
    "parse_config",
    "run",
    "emit_plot",
    "fit_loglog",
    "write_csv",
    "list_experiments",
    "REGISTRY",
]


class ConfigError(ValueError):
    """A config file cannot be turned into a runnable experiment."""


class InvariantViolation(RuntimeError):
    """A certified relationship failed on concrete data."""


# Stream ids are laid out as (cell * _GRID_STRIDE + rep) * _BLOCK, and a
# task may derive substreams +0 .. +_BLOCK-1.  Blocks never overlap as
# long as reps stays below the stride.
_GRID_STRIDE = 1_000_003
_BLOCK = 8
# Streams are keyed about this many at a time, in whole runs of one cell.
_KEY_BLOCK = 2**15
# Ceiling on the worker count: workers are threads, and the interpreter
# lock leaves little to gain from many more threads than cores.
_MAX_WORKERS = 64

_INT_GRID_KEYS = frozenset({"n", "p", "k", "q"})
# Lowest Weibull order, for grids and options alike: below about 0.012
# gamma(1 + 2 / alpha) overflows a float.
_ALPHA_FLOOR = 0.05
_COMMENT = re.compile(r"(?:^|\s)#")
_CONSTANT_FIELDS = tuple(f.name for f in dataclasses.fields(BoundConstants))
_SCHEMA_VERSION = 3
_SLACK = 1e-12


def _each_rep(task: Callable) -> Callable:
    """The run task that calls ``task(config, point, rep, stream)`` per rep."""

    def each(config, point, reps, streams):
        return [task(config, point, rep, stream)
                for rep, stream in zip(reps, streams)]

    return each


def _substream(stream: RngStream, j: int) -> RngStream:
    if not 0 <= j < _BLOCK:
        raise ValueError("substream index out of the task's block")
    return RngStream(stream.seed, stream.stream_id + j)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class OptionSpec:
    """One scalar option: name, parser kind, default, constraints."""

    name: str
    kind: str  # int | float | choice | flag
    default: object
    choices: tuple = ()
    minimum: Optional[float] = None


@dataclass(frozen=True)
class Experiment:
    """A registered batch.

    ``task(config, point, reps, streams)`` computes a run of consecutive
    reps of one cell: ``reps`` is a range of rep indices and ``streams``
    their task streams, and it returns one row per rep, in order.  A run
    holds ``reps_per_task(config, point)`` reps (one when it is None), the
    cell's last run the rest.  ``_each_rep`` makes such a task from one
    that computes a single rep's row.
    ``summarize(config, point, rows)`` returns one cell's summary columns;
    ``rows`` are the cell's task rows, or what ``collect`` made of them.
    ``headline`` is the column plotted over every grid axis, taken from
    results.csv when the experiment has ``collect`` and from summary.csv
    otherwise; with ``rate`` set it is also fitted log-log over n.
    """

    name: str
    description: str
    scan_keys: tuple
    grid_defaults: dict
    options: tuple
    task: Callable
    summarize: Callable
    headline: str
    rate: bool = False
    collect: Optional[Callable] = None
    extra_grid_keys: tuple = ()
    validate: Optional[Callable] = None
    reps_per_task: Optional[Callable] = None


@dataclass(frozen=True)
class ExperimentConfig:
    """A fully resolved batch: registry defaults plus file overrides."""

    experiment: str
    seed: int
    reps: int
    workers: int
    grids: dict
    options: dict
    constants: BoundConstants
    output_dir: Optional[str] = None


@dataclass(frozen=True)
class RunManifest:
    experiment: str
    # Layout tag of results.csv and summary.csv; the bound constants in
    # force are in config_echo, not in the tables.
    schema: str
    artifact_version: str
    started: str
    finished: str
    seed: int
    workers: int
    output_dir: str
    config_echo: dict
    files: tuple
    # Warnings about a batch that completed, e.g. solver fits that did
    # not converge; the CLI prints each to stderr.
    notes: tuple = ()


def _parse_float(key: str, raw: str, lineno: int) -> float:
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(
            f"line {lineno}: value for '{key}' is not a number: {raw!r}"
        ) from None


def _parse_number(key: str, raw: str, lineno: int) -> float:
    """raw as a finite float; nan and +-inf are rejected."""
    value = _parse_float(key, raw, lineno)
    if not math.isfinite(value):
        raise ConfigError(
            f"line {lineno}: value for '{key}' must be finite, got {raw!r}"
        )
    return value


def _parse_integral(key: str, raw: str, lineno: int) -> Optional[int]:
    """raw as an exact integer; None for a number that is not one."""
    try:
        return int(raw)
    except ValueError:
        _parse_float(key, raw, lineno)
        return None


def _parse_int(key: str, raw: str, lineno: int, minimum: int = 0) -> int:
    value = _parse_integral(key, raw, lineno)
    if value is None:
        raise ConfigError(f"line {lineno}: '{key}' must be an integer, got {raw!r}")
    if value < minimum:
        raise ConfigError(f"line {lineno}: '{key}' must be at least {minimum}")
    return value


def _parse_grid(key: str, raw: str, lineno: int) -> tuple:
    tokens = [tok.strip() for tok in raw.split(",")]
    if any(not tok for tok in tokens):
        raise ConfigError(f"line {lineno}: empty entry in grid '{key}'")
    values = []
    for tok in tokens:
        if key in _INT_GRID_KEYS:
            value = _parse_integral(key, tok, lineno)
            if value is None or value <= 0:
                raise ConfigError(
                    f"line {lineno}: grid '{key}' needs positive integers, got {tok!r}"
                )
        else:
            value = _parse_number(key, tok, lineno)
            if not value > 0.0:
                raise ConfigError(
                    f"line {lineno}: grid '{key}' needs positive values, got {tok!r}"
                )
            if key == "alpha" and value < _ALPHA_FLOOR:
                raise ConfigError(
                    f"line {lineno}: grid 'alpha' values must be at least "
                    f"{_ALPHA_FLOOR}, got {tok!r}"
                )
        values.append(value)
    return tuple(values)


def _parse_option(spec: OptionSpec, raw: str, lineno: int):
    if spec.kind == "choice":
        if raw not in spec.choices:
            raise ConfigError(
                f"line {lineno}: '{spec.name}' must be one of "
                f"{', '.join(spec.choices)}; got {raw!r}"
            )
        return raw
    if spec.kind == "flag":
        if raw not in ("0", "1"):
            raise ConfigError(f"line {lineno}: '{spec.name}' must be 0 or 1")
        return raw == "1"
    if spec.kind == "int":
        minimum = 0 if spec.minimum is None else int(spec.minimum)
        return _parse_int(spec.name, raw, lineno, minimum)
    value = _parse_number(spec.name, raw, lineno)
    if spec.minimum is not None and value < spec.minimum:
        raise ConfigError(
            f"line {lineno}: '{spec.name}' must be at least {spec.minimum}"
        )
    return value


def parse_config(text: str) -> ExperimentConfig:
    """Parse flat key=value text into a validated ExperimentConfig."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError(f"line {lineno}: missing key before '='")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key '{key}'")
        entries[key] = (value, lineno)

    if "experiment" not in entries:
        raise ConfigError("missing required key 'experiment'")
    name, lineno = entries.pop("experiment")
    if name not in REGISTRY:
        known = ", ".join(sorted(REGISTRY))
        raise ConfigError(f"line {lineno}: unknown experiment '{name}' (known: {known})")
    spec = REGISTRY[name]

    seed = 0
    reps = None
    workers = 1
    output_dir = None
    grids = dict(spec.grid_defaults)
    grid_keys = set(spec.scan_keys) | set(spec.extra_grid_keys)
    option_specs = {o.name: o for o in spec.options}
    options = {o.name: o.default for o in spec.options}
    constants_kwargs = {}

    for key, (value, lineno) in entries.items():
        if key == "seed":
            seed = _parse_int(key, value, lineno)
            if seed >= 2**63:
                raise ConfigError(f"line {lineno}: seed must be below 2**63")
        elif key == "reps":
            reps = _parse_int(key, value, lineno, minimum=1)
            if reps >= _GRID_STRIDE:
                raise ConfigError(
                    f"line {lineno}: reps must stay below {_GRID_STRIDE} so "
                    "per-task stream blocks stay disjoint"
                )
        elif key == "workers":
            workers = _parse_int(key, value, lineno, minimum=1)
            if workers > _MAX_WORKERS:
                raise ConfigError(
                    f"line {lineno}: workers must be at most {_MAX_WORKERS}")
        elif key == "output_dir":
            if not value:
                raise ConfigError(f"line {lineno}: output_dir must not be empty")
            output_dir = value
        elif key in grid_keys:
            grids[key] = _parse_grid(key, value, lineno)
        elif key in option_specs:
            options[key] = _parse_option(option_specs[key], value, lineno)
        elif key in _CONSTANT_FIELDS:
            cval = _parse_number(key, value, lineno)
            if cval < 0.0:
                raise ConfigError(f"line {lineno}: '{key}' must be nonnegative")
            constants_kwargs[key] = cval
        else:
            raise ConfigError(
                f"line {lineno}: unknown key '{key}' for experiment '{name}'"
            )

    if reps is None:
        reps = spec.grid_defaults.get("__reps__", 1)
    config = ExperimentConfig(
        experiment=name,
        seed=seed,
        reps=reps,
        workers=workers,
        grids={k: v for k, v in grids.items() if not k.startswith("__")},
        options=options,
        constants=BoundConstants(**constants_kwargs),
        output_dir=output_dir,
    )
    if spec.validate is not None:
        spec.validate(config)
    return config


# ---------------------------------------------------------------------------
# shared numeric helpers


def fit_loglog(xs, ys):
    """Least squares slope of log y on log x, with its standard error.

    Returns (slope, stderr); stderr is 0.0 for an exact two-point fit.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1 or xs.size < 2:
        raise ValueError("need two equal-length 1-d samples with >= 2 points")
    if np.any(xs <= 0.0) or np.any(ys <= 0.0):
        raise ValueError("log-log fit needs strictly positive values")
    lx = np.log(xs)
    ly = np.log(ys)
    vx = lx - lx.mean()
    sxx = float(vx @ vx)
    if sxx == 0.0:
        raise ValueError("all x values coincide")
    slope = float(vx @ (ly - ly.mean())) / sxx
    resid = ly - ly.mean() - slope * vx
    dof = xs.size - 2
    if dof == 0:
        return slope, 0.0
    return slope, math.sqrt(float(resid @ resid) / dof / sxx)


def _check_cells(config, keys, bound, what: str) -> None:
    """ConfigError at the first cell of the ``keys`` grid where ``bound``
    raises ValueError or OverflowError, so the batch stops before a task."""
    for cell in itertools.product(*(config.grids[key] for key in keys)):
        try:
            bound(*cell)
        except (ValueError, OverflowError) as exc:
            at = ", ".join(f"{key}={_echo_value(value)}"
                           for key, value in zip(keys, cell))
            raise ConfigError(
                f"{config.experiment}: no {what} at {at}: {exc}") from None


def _median(rows, key) -> float:
    return float(np.median([row[key] for row in rows]))


def _attach_slope(rows, x_key: str, grid_keys, y_key: str) -> None:
    """Add slope/slope_se columns fitted over x_key within each group.

    Groups share every grid key except x_key.  Groups with fewer than
    two distinct x values, or with a nonpositive y, get nan columns.
    """
    groups = {}
    for row in rows:
        key = tuple((k, row[k]) for k in grid_keys if k != x_key)
        groups.setdefault(key, []).append(row)
    for members in groups.values():
        xs = [row[x_key] for row in members]
        ys = [row[y_key] for row in members]
        if len(set(xs)) >= 2 and all(y > 0.0 for y in ys):
            slope, se = fit_loglog(xs, ys)
        else:
            slope, se = math.nan, math.nan
        for row in members:
            row["slope"] = slope
            row["slope_se"] = se


@functools.lru_cache(maxsize=64)
def _weibull_cell(alpha: float, p: int):
    """The iid SymmetricWeibull(alpha) design in p coordinates and its
    read-only covariance.

    Both depend on the cell only, so every rep of the cell shares them;
    the law is a frozen dataclass and the matrix cannot be written.
    """
    law = IidCoordinates(SymmetricWeibull(alpha), p)
    target = np.diag(law.coordinate_variances)
    target.flags.writeable = False
    return law, target


# ---------------------------------------------------------------------------
# kernels: empirical Orlicz norms


def _norms_task(config, point, rep, stream):
    law = SymmetricWeibull(point["alpha"])
    values = law.sample(stream.generator(), point["n"])
    estimate = empirical_norm(values, OrliczSpec.psi(point["alpha"]))
    analytic = law.psi_norm
    return {
        "estimate": estimate.value,
        "analytic": analytic,
        "abs_rel_error": abs(estimate.value / analytic - 1.0),
    }


def _norms_summary(config, point, rows):
    return {
        "reps": config.reps,
        "analytic": rows[0]["analytic"],
        "median_estimate": _median(rows, "estimate"),
        "median_abs_rel_error": _median(rows, "abs_rel_error"),
    }


# ---------------------------------------------------------------------------
# kernels: max of coordinate averages vs threshold


def _tailcheck_task(config, point, rep, stream):
    n = point["n"]
    x = SymmetricWeibull(point["alpha"]).sample(stream.generator(), (n, point["q"]))
    # np.add.reduce is x.sum(axis=0) without its Python wrapper
    return {"max_average": float(max_average(np.add.reduce(x, axis=0), n))}


def _tailcheck_bound(config, alpha, n, q, t):
    """``max_average_threshold`` at one (cell, t) for SymmetricWeibull(alpha)."""
    law = SymmetricWeibull(alpha)
    return max_average_threshold(
        law.variance, law.psi_norm, n, q, alpha, t, config.constants)


def _tailcheck_rows(config, point, rows):
    values = np.array([row["max_average"] for row in rows])
    out = []
    for t in config.grids["t"]:
        threshold, prob = _tailcheck_bound(
            config, point["alpha"], point["n"], point["q"], t)
        freq = float(np.mean(values >= threshold))
        mc_se = math.sqrt(freq * (1.0 - freq) / config.reps)
        out.append({
            **point,
            "t": t,
            "reps": config.reps,
            "threshold": threshold,
            "bound_prob": prob,
            "frequency": freq,
            "mc_se": mc_se,
            "excess": freq - prob - 3.0 * mc_se,
            "ok": freq <= prob + 3.0 * mc_se,
        })
    return out


def _tailcheck_summary(config, point, rows):
    return {
        "reps": config.reps,
        "worst_excess": max(row["excess"] for row in rows),
        "all_ok": all(row["ok"] for row in rows),
    }


def _tailcheck_validate(config):
    _check_cells(config, ("alpha", "n", "q", "t"),
                 functools.partial(_tailcheck_bound, config), "threshold")


# ---------------------------------------------------------------------------
# kernels: covariance max-norm error


def _covariance_reps_per_task(config, point):
    """As many reps as about 2^17 values hold (four sampler chunks), at
    least one.

    At p = 5 and n = 20 that is 1,310 reps, whose streams the stacked draw
    steps as uint64 lanes: the lanes' fixed cost per step is shared by
    many streams, while a run's draw stays about 1 MB."""
    return max(1, 4 * _CHUNK // (point["n"] * point["p"]))


def _covariance_task(config, point, reps, streams):
    # the whole run as one (len(reps), n, p) stack: one draw, one gram and
    # one error kernel call, each slice bit for bit the rep's own
    law, target = _weibull_cell(point["alpha"], point["p"])
    x = draw_stack(law, point["n"], streams)
    if config.options["centered"]:
        estimate = centered_cov(x)
    else:
        estimate = gram(x)
    deltas = max_elementwise_error(estimate, target).tolist()
    return [{"delta": delta} for delta in deltas]


def _covariance_bound(config, alpha, p, n):
    """``delta_bound`` at one cell for the SymmetricWeibull(alpha) rows."""
    law = SymmetricWeibull(alpha)
    return delta_bound(
        law.variance, law.psi_norm, n, p, alpha, config.options["t_ref"],
        config.constants, centered=bool(config.options["centered"]),
    )


def _covariance_summary(config, point, rows):
    threshold, prob = _covariance_bound(
        config, point["alpha"], point["p"], point["n"])
    return {
        "reps": config.reps,
        "median_delta": _median(rows, "delta"),
        "mean_delta": float(np.mean([row["delta"] for row in rows])),
        "deviation_threshold": threshold,
        "bound_prob": prob,
    }


def _covariance_validate(config):
    if any(a > 2.0 for a in config.grids["alpha"]):
        raise ConfigError("covariance: the deviation bound needs alpha <= 2")
    if config.options["centered"] and any(n < 2 for n in config.grids["n"]):
        raise ConfigError("covariance: the centered estimator needs n >= 2 rows")
    _check_cells(config, ("alpha", "p", "n"),
                 functools.partial(_covariance_bound, config), "bound")


# ---------------------------------------------------------------------------
# kernels: restricted isometry constants


def _rip_task(config, point, rep, stream):
    alpha, p, k, n = point["alpha"], point["p"], point["k"], point["n"]
    law, target = _weibull_cell(alpha, p)
    x = draw_matrix(law, n, stream)
    deviation = gram(x) - target
    exact = rip_exact(deviation, k)
    row = {"exact_value": exact, "net_value": math.nan, "certified": math.nan}
    if k <= 3:
        net_value = rip_net(deviation, k, quarter_net(k, p))
        if exact > 2.0 * net_value + _SLACK:
            raise InvariantViolation(
                "net certificate failed: quarter net gave "
                f"exact {exact:.6g} > 2 x net {net_value:.6g} "
                f"(alpha={alpha}, p={p}, k={k}, n={n}, rep={rep})"
            )
        row["net_value"] = net_value
        row["certified"] = True
    return row


def _rip_summary(config, point, rows):
    return {
        "reps": config.reps,
        "median_exact": _median(rows, "exact_value"),
        "median_net": _median(rows, "net_value"),
    }


def _rip_validate(config):
    for p in config.grids["p"]:
        for k in config.grids["k"]:
            if k > p:
                raise ConfigError(f"rip: k={k} exceeds p={p}")
            if math.comb(p, k) > 200_000:
                raise ConfigError(
                    f"rip: {p} choose {k} supports is too many to enumerate"
                )


# ---------------------------------------------------------------------------
# kernels: restricted eigenvalue check


def _gram_re_check(sigma, k, xi_divisor, xi=None):
    """``re_check`` on a gram matrix, with xi defaulting to the diagnostic
    max(lambda_min, 0) / xi_divisor.

    Below n = p the gram matrix is singular and eigvalsh returns a
    lambda_min of rounding size and either sign.  A lambda_min at or below
    numpy's numerical-rank tolerance, lambda_max * p * eps, marks the
    matrix singular and the check unsatisfied; the report keeps lambda_min
    as eigvalsh returned it.
    """
    eigenvalues = np.linalg.eigvalsh(sigma)
    lambda_min = float(eigenvalues[0])
    if xi is None:
        xi = max(lambda_min, 0.0) / xi_divisor
    report = re_check(lambda_min, xi, k)
    rank_tol = float(eigenvalues[-1]) * sigma.shape[0] * np.finfo(float).eps
    if lambda_min <= rank_tol:
        report = dataclasses.replace(report, satisfied=False, gamma_n=0.0)
    return report


def _re_theory_xi(config, law, k, n):
    """The theory xi of the RE check for the iid design ``law``."""
    upsilon = upsilon_iid(law.max_second_moment, law.marginal.fourth_moment, k)
    params = RsConvexityParams(
        upsilon=upsilon, k_np=law.marginal_psi_norm, n=n, p=law.dim, k=k,
        alpha=law.marginal.tail_exponent,
        c_alpha=config.constants.c_alpha_thm34,
    )
    return xi_bound(params)


def _re_task(config, point, rep, stream):
    alpha, p, k, n = point["alpha"], point["p"], point["k"], point["n"]
    law, _ = _weibull_cell(alpha, p)
    x = draw_matrix(law, n, stream)
    sigma = gram(x)
    xi = None
    if config.options["xi_source"] == "theory":
        xi = _re_theory_xi(config, law, k, n)
    report = _gram_re_check(sigma, k, config.options["xi_divisor"], xi)
    row = {
        "lambda_min": report.lambda_min,
        "xi": report.xi,
        "satisfied": report.satisfied,
        "gamma_n": report.gamma_n,
        "cone_min": math.nan,
        "margin": math.nan,
    }
    if report.satisfied:
        try:
            cone_min = cone_min_oracle(
                sigma, range(k), config.options["cone_delta"],
                config.options["cone_trials"], _substream(stream, 1),
            )
        except OverflowError as exc:
            # theta'theta is bounded at parse time, theta' Sigma theta
            # also scales with this sample's gram matrix
            raise ConfigError(
                f"re: {exc} (alpha={alpha}, p={p}, k={k}, n={n}, rep={rep})"
            ) from exc
        if cone_min < report.gamma_n - _SLACK:
            raise InvariantViolation(
                "restricted eigenvalue certificate failed: cone search found "
                f"{cone_min:.6g} below gamma_n {report.gamma_n:.6g} "
                f"(alpha={alpha}, p={p}, k={k}, n={n}, rep={rep})"
            )
        row["cone_min"] = cone_min
        row["margin"] = cone_min - report.gamma_n
    return row


def _re_summary(config, point, rows):
    satisfied = [row for row in rows if row["satisfied"]]
    return {
        "checked": config.reps,
        "satisfied_count": len(satisfied),
        "min_margin": (min(row["margin"] for row in satisfied)
                       if satisfied else math.nan),
    }


def _re_validate(config):
    for p in config.grids["p"]:
        for k in config.grids["k"]:
            if k > p:
                raise ConfigError(f"re: k={k} exceeds p={p}")
    if config.options["xi_source"] == "theory":
        _check_cells(
            config, ("alpha", "p", "k", "n"),
            lambda alpha, p, k, n: _re_theory_xi(
                config, IidCoordinates(SymmetricWeibull(alpha), p), k, n),
            "theory xi")
    # A cone direction has theta'theta <= 1 + k delta^2; half the largest
    # float leaves room for rounding in the sums of squares.
    delta, k = config.options["cone_delta"], max(config.grids["k"])
    limit = math.sqrt(sys.float_info.max / (2.0 * k))
    if delta > limit:
        raise ConfigError(
            f"re: cone_delta={delta:g} can overflow theta'theta <= "
            f"1 + k cone_delta^2; at k={k} it must be at most "
            f"sqrt(max_float / (2k)) = {limit:.6g}"
        )


# ---------------------------------------------------------------------------
# kernels: penalised regression


def _lasso_noise(config):
    if config.options["noise"] == "pareto":
        return Pareto(config.options["pareto_shape"])
    return Gaussian(config.options["sigma"])


def _lasso_theory_lambda(config, alpha, n, noise):
    """The theory penalty of the configured rule at one (alpha, n) cell."""
    design = SymmetricWeibull(alpha)
    p = config.options["p"]
    sigma_np = math.sqrt(design.variance * noise.variance)
    if config.options["lambda_rule"] == "theory_subweibull":
        gamma = config.options["gamma"]
        if gamma == 0.0:
            gamma = 1.0 / (1.0 / alpha + 1.0 / noise.tail_exponent)
        return lambda_theory_subweibull(
            sigma_np, design.psi_norm * noise.psi_norm, n, p, gamma,
            config.constants,
        )
    r = config.options["r"]
    return lambda_theory_poly(
        sigma_np, design.psi_norm, noise.abs_moment(r) ** (1.0 / r), n, p,
        alpha, r, config.options["big_l"], config.constants,
    )


def _lasso_task(config, point, rep, stream):
    alpha, k, n = point["alpha"], point["k"], point["n"]
    p = config.options["p"]
    design, _ = _weibull_cell(alpha, p)
    beta0 = np.zeros(p)
    beta0[:k] = config.options["beta_scale"]
    noise = _lasso_noise(config)
    data = make_regression(design, beta0, noise, n, stream)
    if not np.isfinite(data.y).all():
        # X beta0 + eps depends on the draw, so the parser cannot see it
        raise ConfigError(
            f"lasso: response X beta0 + eps overflowed at beta_scale="
            f"{config.options['beta_scale']:g} (alpha={alpha}, k={k}, "
            f"n={n}, rep={rep})"
        )
    empirical_lam = lambda_empirical(data.x, data.eps)
    if config.options["lambda_rule"] == "empirical":
        lam = empirical_lam
    else:
        lam = _lasso_theory_lambda(config, alpha, n, noise)
    sigma = gram(data.x)
    fit = solve(data.x, data.y, lam, sigma=sigma)
    nu = fit.beta - beta0
    l2 = float(np.linalg.norm(nu))
    applicable = lam >= empirical_lam * (1.0 - _SLACK)
    # The certificates speak of the minimiser: an iterate stopped at
    # max_iter is only counted as nonconverged.
    certified = applicable and fit.converged
    if certified and not cone_membership(nu, range(k), beta0):
        raise InvariantViolation(
            "cone membership failed under a dominating penalty "
            f"(alpha={alpha}, k={k}, n={n}, rep={rep}, lam={lam:.6g})"
        )
    report = _gram_re_check(sigma, k, config.options["xi_divisor"])
    error_limit = math.nan
    if certified and report.satisfied:
        error_limit = 3.0 * math.sqrt(k) * lam / report.gamma_n
        if l2 > error_limit + _SLACK:
            raise InvariantViolation(
                "certified error bound failed: l2 error "
                f"{l2:.6g} > {error_limit:.6g} "
                f"(alpha={alpha}, k={k}, n={n}, rep={rep})"
            )
    return {
        "lam": lam,
        "l2_error": l2,
        "l1_error": float(np.sum(np.abs(nu))),
        "applicable": applicable,
        "re_satisfied": report.satisfied,
        "error_limit": error_limit,
        "iterations": fit.iterations,
        "converged": fit.converged,
        "kkt_residual": fit.kkt_residual,
    }


def _lasso_summary(config, point, rows):
    return {
        "reps": config.reps,
        "median_lam": _median(rows, "lam"),
        "median_l2_error": _median(rows, "l2_error"),
        "applicable_count": sum(row["applicable"] for row in rows),
        "all_converged": all(row["converged"] for row in rows),
        "nonconverged": sum(not row["converged"] for row in rows),
    }


def _lasso_validate(config):
    p = config.options["p"]
    if any(k > p for k in config.grids["k"]):
        raise ConfigError(f"lasso: k grid exceeds p={p}")
    rule = config.options["lambda_rule"]
    noise = config.options["noise"]
    if noise == "pareto":
        if not config.options["pareto_shape"] > 2.0:
            raise ConfigError(
                "lasso: pareto_shape must exceed 2 so the noise has a variance"
            )
        if (rule == "theory_poly"
                and config.options["r"] >= config.options["pareto_shape"]):
            raise ConfigError(
                "lasso: moment order r must lie below pareto_shape"
            )
        if rule == "theory_subweibull":
            raise ConfigError(
                "lasso: pareto noise has no stretched-exponential norm; "
                "use theory_poly or empirical"
            )
    if noise == "gaussian" and not config.options["sigma"] > 0.0:
        raise ConfigError("lasso: gaussian noise needs sigma > 0")
    if rule == "theory_poly" and noise != "pareto":
        raise ConfigError("lasso: theory_poly expects the pareto noise model")
    if rule != "empirical":
        law = _lasso_noise(config)
        _check_cells(
            config, ("alpha", "n"),
            lambda alpha, n: _lasso_theory_lambda(config, alpha, n, law),
            f"{rule} penalty")


# ---------------------------------------------------------------------------
# kernels: max-statistic distance from the Gaussian analog


def _clt_marginal(config):
    name = config.options["law"]
    if name == "weibull":
        return SymmetricWeibull(config.options["alpha"])
    if name == "gaussian":
        return Gaussian(1.0)
    return Exponential(1.0)


def _clt_task(config, point, rep, stream):
    q, n = point["q"], point["n"]
    law = IidCoordinates(_clt_marginal(config), q)
    stat_reps = config.options["stat_reps"]
    data = data_max_sample(law, n, stat_reps, stream)
    analog = gaussian_analog_sample(
        np.diag(law.coordinate_variances), stat_reps, _substream(stream, 1),
    )
    grid = config.options["rho_grid"] or 2 * stat_reps
    return {"rho": rho_rectangle_proxy(data, analog, grid=grid)}


def _clt_bound(config, q, n):
    """``hdclt_bound`` at one cell, k_nq and beta derived where 0."""
    marginal = _clt_marginal(config)
    k_nq = config.options["k_nq"] or marginal.psi_norm
    beta = config.options["beta"] or marginal.tail_exponent
    return hdclt_bound(config.options["l_nq"], k_nq, n, q, beta,
                       config.constants)


def _clt_summary(config, point, rows):
    bound, condition_ok = _clt_bound(config, point["q"], point["n"])
    return {
        "runs": config.reps,
        "median_rho": _median(rows, "rho"),
        "bound": bound,
        "condition_ok": condition_ok,
    }


def _clt_validate(config):
    if config.options["rho_grid"] == 1:
        raise ConfigError("clt: rho_grid must be 0 (exact pooled grid) or at least 2")
    _check_cells(config, ("q", "n"), functools.partial(_clt_bound, config), "bound")


# ---------------------------------------------------------------------------
# kernels: multiplier bootstrap coverage


def _bootstrap_task(config, point, rep, stream):
    q, n = point["q"], point["n"]
    law = IidCoordinates(_clt_marginal(config), q)
    x = draw_matrix(law, n, stream)
    stat = max_statistic(x.values, law.coordinate_means)
    boot = multiplier_draws(x, config.options["draws"], _substream(stream, 1))
    cutoff = float(np.quantile(boot, config.options["nominal"]))
    return {"stat": stat, "cutoff": cutoff, "covered": stat <= cutoff}


def _bootstrap_validate(config):
    if any(n < 2 for n in config.grids["n"]):
        raise ConfigError("bootstrap: the multiplier draws need n >= 2 rows")
    if not 0.0 < config.options["nominal"] < 1.0:
        raise ConfigError("bootstrap: nominal must lie in (0, 1)")


def _bootstrap_summary(config, point, rows):
    nominal = config.options["nominal"]
    coverage = float(np.mean([row["covered"] for row in rows]))
    mc_se = math.sqrt(coverage * (1.0 - coverage) / config.reps)
    deviation = coverage - nominal
    if mc_se > 0.0:
        z = deviation / mc_se
    else:
        z = 0.0 if deviation == 0.0 else math.nan
    return {
        "reps": config.reps,
        "nominal": nominal,
        "coverage": coverage,
        "mc_se": mc_se,
        "deviation": deviation,
        "z": z,
    }


# ---------------------------------------------------------------------------
# registry


def _flt(name, default, minimum=None):
    return OptionSpec(name, "float", default, minimum=minimum)


def _integer(name, default, minimum=1):
    return OptionSpec(name, "int", default, minimum=minimum)


def _choice(name, default, choices):
    return OptionSpec(name, "choice", default, choices=choices)


_LAW_OPTIONS = (
    _choice("law", "exponential", ("exponential", "weibull", "gaussian")),
    _flt("alpha", 1.0, minimum=_ALPHA_FLOOR),
)

REGISTRY = {}


def _register(spec: Experiment) -> None:
    REGISTRY[spec.name] = spec


_register(Experiment(
    name="norms",
    description="empirical Orlicz norms of Weibull-tailed draws vs closed forms",
    scan_keys=("alpha", "n"),
    grid_defaults={"alpha": (0.5, 1.0, 2.0), "n": (400, 1600, 6400),
                   "__reps__": 30},
    options=(),
    task=_each_rep(_norms_task),
    summarize=_norms_summary,
    headline="median_abs_rel_error",
    rate=True,
))

_register(Experiment(
    name="tailcheck",
    description="max of coordinate averages vs the closed-form threshold",
    scan_keys=("alpha", "n", "q"),
    grid_defaults={"alpha": (0.5, 1.0, 2.0), "n": (100, 1000), "q": (10,),
                   "t": (1.0, 2.0, 4.0), "__reps__": 2000},
    extra_grid_keys=("t",),
    options=(),
    task=_each_rep(_tailcheck_task),
    collect=_tailcheck_rows,
    summarize=_tailcheck_summary,
    headline="frequency",
    validate=_tailcheck_validate,
))

_register(Experiment(
    name="covariance",
    description="elementwise sample covariance error and its deviation bound",
    scan_keys=("alpha", "p", "n"),
    grid_defaults={"alpha": (1.0,), "p": (50,),
                   "n": (250, 500, 1000, 2000), "__reps__": 50},
    options=(
        OptionSpec("centered", "flag", False),
        _flt("t_ref", 2.0, minimum=0.0),
    ),
    task=_covariance_task,
    reps_per_task=_covariance_reps_per_task,
    summarize=_covariance_summary,
    validate=_covariance_validate,
    headline="median_delta",
    rate=True,
))

_register(Experiment(
    name="rip",
    description="restricted isometry constants, exhaustive vs net certificates",
    scan_keys=("alpha", "p", "k", "n"),
    grid_defaults={"alpha": (1.0,), "p": (30,), "k": (2,),
                   "n": (500, 1000, 2000, 4000), "__reps__": 25},
    options=(),
    task=_each_rep(_rip_task),
    summarize=_rip_summary,
    validate=_rip_validate,
    headline="median_exact",
    rate=True,
))

_register(Experiment(
    name="re",
    description="restricted eigenvalue check with a cone-minimum certificate",
    scan_keys=("alpha", "p", "k", "n"),
    grid_defaults={"alpha": (1.0,), "p": (8,), "k": (3,),
                   "n": (100, 200, 400), "__reps__": 50},
    options=(
        _choice("xi_source", "diagnostic", ("diagnostic", "theory")),
        _flt("xi_divisor", 2000.0, minimum=1.0),
        _flt("cone_delta", 3.0, minimum=1.0),
        _integer("cone_trials", 400),
    ),
    task=_each_rep(_re_task),
    summarize=_re_summary,
    validate=_re_validate,
    headline="satisfied_count",
))

_register(Experiment(
    name="lasso",
    description="penalised regression error vs the certified bound",
    scan_keys=("alpha", "k", "n"),
    grid_defaults={"alpha": (1.0,), "k": (5,), "n": (500, 1000, 2000),
                   "__reps__": 30},
    options=(
        _integer("p", 60),
        _choice("lambda_rule", "empirical",
                ("empirical", "theory_subweibull", "theory_poly")),
        _choice("noise", "gaussian", ("gaussian", "pareto")),
        _flt("sigma", 1.0, minimum=0.0),
        _flt("pareto_shape", 4.5, minimum=0.0),
        _flt("r", 4.0, minimum=2.0),
        _flt("gamma", 0.0, minimum=0.0),  # 0 derives 1/gamma = 1/alpha + 1/theta
        _flt("big_l", 1.0, minimum=1.0),
        _flt("beta_scale", 1.0),
        _flt("xi_divisor", 2000.0, minimum=1.0),
    ),
    task=_each_rep(_lasso_task),
    summarize=_lasso_summary,
    validate=_lasso_validate,
    headline="median_l2_error",
    rate=True,
))

_register(Experiment(
    name="clt",
    description="max-statistic distance from the Gaussian analog as n grows",
    scan_keys=("q", "n"),
    grid_defaults={"q": (20,), "n": (100, 400, 1600), "__reps__": 10},
    options=_LAW_OPTIONS + (
        _integer("stat_reps", 400, minimum=2),
        _integer("rho_grid", 0, minimum=0),  # 0 uses the exact pooled grid
        _flt("l_nq", 1.0, minimum=0.0),
        _flt("k_nq", 0.0, minimum=0.0),  # 0 derives the marginal norm
        _flt("beta", 0.0, minimum=0.0),  # 0 derives the marginal tail order
    ),
    task=_each_rep(_clt_task),
    summarize=_clt_summary,
    validate=_clt_validate,
    headline="median_rho",
    rate=True,
))

_register(Experiment(
    name="bootstrap",
    description="multiplier bootstrap coverage of the max statistic",
    scan_keys=("q", "n"),
    grid_defaults={"q": (20,), "n": (100, 400), "__reps__": 200},
    options=(
        _choice("law", "weibull", ("exponential", "weibull", "gaussian")),
        _flt("alpha", 1.0, minimum=_ALPHA_FLOOR),
        _flt("nominal", 0.9, minimum=0.0),
        _integer("draws", 300),
    ),
    task=_each_rep(_bootstrap_task),
    summarize=_bootstrap_summary,
    validate=_bootstrap_validate,
    headline="coverage",
))


def list_experiments():
    """(name, description) pairs in alphabetical order."""
    return [(name, REGISTRY[name].description) for name in sorted(REGISTRY)]


# ---------------------------------------------------------------------------
# CSV emission


@dataclass(frozen=True)
class CsvTable:
    header: tuple
    rows: tuple

    def column(self, name: str):
        if name not in self.header:
            raise ValueError(f"no column {name!r}")
        idx = self.header.index(name)
        return [row[idx] for row in self.rows]


def _format_cell(value) -> str:
    # the exact-type tests take the common cells first; bool is not int
    kind = type(value)
    if kind is float:
        return "%.17g" % value
    if kind is int:
        return str(value)
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return "%.17g" % float(value)
    text = str(value)
    if "," in text or "\n" in text or '"' in text:
        raise ValueError(f"cell value needs quoting, refusing: {text!r}")
    return text


def _build_table(rows) -> CsvTable:
    header = tuple(rows[0].keys())
    for row in rows:
        if tuple(row.keys()) != header:
            raise ValueError("rows disagree on columns")
    return CsvTable(header, tuple(tuple(row[h] for h in header) for row in rows))


def _task_table(points, nested) -> CsvTable:
    """results.csv of the task rows: each row's grid point, rep and stream
    id, then the task's columns.

    The task columns are checked once per cell, as key tuples compared in
    one pass, and each row becomes a tuple without a merged dict.
    """
    header = None
    rows = []
    for cell, (point, cell_rows) in enumerate(zip(points, nested)):
        keys = tuple(cell_rows[0])
        cell_header = (*point, "rep", "stream", *keys)
        if header is None:
            header = cell_header
            if len(set(header)) != len(header):
                raise ValueError(f"task columns {keys} repeat a grid, rep or "
                                 "stream column")
        if (cell_header != header
                or list(map(tuple, cell_rows)).count(keys) != len(cell_rows)):
            raise ValueError("rows disagree on columns")
        lead = tuple(point.values())
        stream = cell * _GRID_STRIDE * _BLOCK
        rows.extend([(*lead, rep, stream + rep * _BLOCK, *row.values())
                     for rep, row in enumerate(cell_rows)])
    return CsvTable(header, tuple(rows))


# how write_csv prints a column whose cells are all of one of these types;
# the same text as _format_cell
_COLUMN_FORMATS = {float: "%.17g", int: "%d", bool: "%d"}


def _column_format(column) -> Optional[str]:
    """The %-format of every cell of the column, or None for a column of
    mixed or other types.  A column of one repeated value gets its text
    instead, formatted once (a number, so it never starts with '%');
    never a zero, as 0.0 and -0.0 compare equal but print apart."""
    kinds = set(map(type, column))
    if len(kinds) != 1:
        return None
    spec = _COLUMN_FORMATS.get(kinds.pop())
    first = column[0]
    if spec is not None and first != 0 and column.count(first) == len(column):
        return spec % first
    return spec


def write_csv(path: Path, table: CsvTable) -> None:
    """The table as CSV, each cell as ``_format_cell`` prints it.

    Written column by column: each column's types are checked once, and
    every row goes through one %-format line; a column of mixed types is
    formatted cell by cell through ``_format_cell``.
    """
    specs = []
    args = []
    for column in zip(*table.rows):
        spec = _column_format(column)
        if spec is None:
            spec = "%s"
            column = list(map(_format_cell, column))
        specs.append(spec)
        if spec[0] == "%":  # not the text of a repeated value
            args.append(column)
    line = ",".join(specs) + "\n"
    if args:
        body = "".join(map(line.__mod__, zip(*args)))
    else:
        body = line * len(table.rows)
    with open(path, "w", newline="") as handle:
        handle.write(",".join(table.header) + "\n" + body)


# ---------------------------------------------------------------------------
# SVG emission


_SVG_W, _SVG_H = 640, 440
_ML, _MR, _MT, _MB = 70, 20, 40, 50


def _tick_label(value: float, loglog: bool) -> str:
    return "%.3g" % (10.0**value if loglog else value)


def emit_plot(table: CsvTable, x: str, y: str, *, loglog: bool,
              path: Path) -> None:
    """Write a self-contained scatter-plus-line SVG for column y vs x.

    Points are drawn as circles, one per row.  Under loglog both axes
    are base-10 logarithmic and the fitted slope of log y on log x is
    annotated whenever the x values are not all equal; nonpositive
    values are rejected.
    """
    xs = [float(v) for v in table.column(x)]
    ys = [float(v) for v in table.column(y)]
    if not xs:
        raise ValueError("cannot plot an empty table")
    if loglog and (min(xs) <= 0.0 or min(ys) <= 0.0):
        raise ValueError(
            f"log-log plot needs positive '{x}' and '{y}' values"
        )
    order = np.argsort(xs, kind="stable")
    xs = [xs[i] for i in order]
    ys = [ys[i] for i in order]

    annotation = None
    if loglog and len(set(xs)) >= 2:
        slope, se = fit_loglog(xs, ys)
        annotation = f"slope {slope:.4f} (se {se:.4f})"

    tx = [math.log10(v) for v in xs] if loglog else list(xs)
    ty = [math.log10(v) for v in ys] if loglog else list(ys)

    def limits(values):
        lo, hi = min(values), max(values)
        if lo == hi:
            lo, hi = lo - 0.5, hi + 0.5
        if lo == hi:
            # +-0.5 rounds away once |value| >= 2^53: one ulp each way,
            # clipped to the finite range
            lo = max(math.nextafter(lo, -math.inf), -sys.float_info.max)
            hi = min(math.nextafter(hi, math.inf), sys.float_info.max)
        pad = 0.06 * (hi - lo)
        return lo, hi, lo - pad, hi + pad

    x_lo, x_hi, x_min, x_max = limits(tx)
    y_lo, y_hi, y_min, y_max = limits(ty)
    plot_w = _SVG_W - _ML - _MR
    plot_h = _SVG_H - _MT - _MB

    def px(value):
        return _ML + (value - x_min) / (x_max - x_min) * plot_w

    def py(value):
        return _MT + (1.0 - (value - y_min) / (y_max - y_min)) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" '
        f'height="{_SVG_H}" viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<rect x="{_ML}" y="{_MT}" width="{plot_w}" height="{plot_h}" '
        'fill="none" stroke="#333" stroke-width="1"/>',
    ]
    common = 'font-family="sans-serif" font-size="12" fill="#333"'
    for tick in np.linspace(x_lo, x_hi, 5):
        xpos = px(tick)
        parts.append(
            f'<line x1="{xpos:.2f}" y1="{_MT + plot_h}" x2="{xpos:.2f}" '
            f'y2="{_MT + plot_h + 5}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{xpos:.2f}" y="{_MT + plot_h + 18}" {common} '
            f'text-anchor="middle">{_tick_label(tick, loglog)}</text>'
        )
    for tick in np.linspace(y_lo, y_hi, 5):
        ypos = py(tick)
        parts.append(
            f'<line x1="{_ML - 5}" y1="{ypos:.2f}" x2="{_ML}" '
            f'y2="{ypos:.2f}" stroke="#333"/>'
        )
        parts.append(
            f'<text x="{_ML - 8}" y="{ypos + 4:.2f}" {common} '
            f'text-anchor="end">{_tick_label(tick, loglog)}</text>'
        )
    parts.append(
        f'<text x="{_ML + plot_w / 2:.2f}" y="{_SVG_H - 12}" {common} '
        f'text-anchor="middle">{x}</text>'
    )
    mid_y = _MT + plot_h / 2
    parts.append(
        f'<text transform="rotate(-90 16 {mid_y:.2f})" x="16" '
        f'y="{mid_y:.2f}" {common} text-anchor="middle">{y}</text>'
    )
    parts.append(
        f'<text x="{_ML}" y="24" {common} font-size="14">'
        f'{y} vs {x}</text>'
    )
    if annotation is not None:
        parts.append(
            f'<text x="{_SVG_W - _MR}" y="24" {common} '
            f'text-anchor="end">{annotation}</text>'
        )
    if len(xs) >= 2:
        coords = " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(tx, ty))
        parts.append(
            f'<polyline points="{coords}" fill="none" stroke="#1f77b4" '
            'stroke-width="1.5"/>'
        )
    for a, b in zip(tx, ty):
        parts.append(
            f'<circle cx="{px(a):.2f}" cy="{py(b):.2f}" r="3.5" '
            'fill="#1f77b4"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# driver


def _grid_points(config: ExperimentConfig, spec: Experiment):
    axes = [config.grids[key] for key in spec.scan_keys]
    return [dict(zip(spec.scan_keys, combo))
            for combo in itertools.product(*axes)]


def _execute(config: ExperimentConfig, spec: Experiment, points):
    """Run every cell's reps, one task call per run of consecutive reps;
    the rows nested by cell, in rep order."""
    nested = [[None] * config.reps for _ in points]
    lengths = [1 if spec.reps_per_task is None
               else spec.reps_per_task(config, point) for point in points]

    def runs():
        # A cell's streams are keyed a block of whole runs at a time, when
        # the block's first run is taken, so the streams alive at once stay
        # bounded however many reps and cells the batch has.
        for cell, length in enumerate(lengths):
            block = length * max(1, _KEY_BLOCK // length)
            base = cell * _GRID_STRIDE
            for start in range(0, config.reps, block):
                stop = min(start + block, config.reps)
                streams = RngStream.keyed(config.seed, range(
                    (base + start) * _BLOCK, (base + stop) * _BLOCK, _BLOCK))
                for first in range(start, stop, length):
                    last = min(first + length, stop)
                    yield (cell, range(first, last),
                           streams[first - start:last - start])

    def one(cell: int, reps: range, streams):
        nested[cell][reps.start:reps.stop] = spec.task(
            config, points[cell], reps, streams)

    # no more threads than runs
    workers = min(config.workers,
                  sum(-(-config.reps // length) for length in lengths))
    if workers <= 1:
        for run in runs():
            one(*run)
        return nested

    # Each worker takes the next run when it is free, so only the runs being
    # computed have left the generator, however many runs the batch has.
    # After a failure no worker takes another run; every run before the
    # failed one was taken earlier and finishes, so the earliest failure
    # in run order is the one re-raised.
    todo = enumerate(runs())
    lock = threading.Lock()
    failures = []

    def work():
        while True:
            with lock:
                if failures:
                    return
                index, run = next(todo, (None, None))
            if run is None:
                return
            try:
                one(*run)
            except Exception as exc:
                with lock:
                    failures.append((index, exc))
                return

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for future in [pool.submit(work) for _ in range(workers)]:
            future.result()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return nested


def _echo_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, tuple):
        return ",".join(_echo_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _config_echo(config: ExperimentConfig) -> dict:
    echo = {"experiment": config.experiment, "seed": str(config.seed),
            "reps": str(config.reps), "workers": str(config.workers)}
    for key, values in config.grids.items():
        echo[key] = _echo_value(values)
    for key, value in config.options.items():
        echo[key] = _echo_value(value)
    for key, value in config.constants.as_mapping().items():
        echo[key] = _echo_value(value)
    return echo


def _plot_subtable(config: ExperimentConfig, table: CsvTable, x: str,
                   y: str, loglog: bool) -> Optional[CsvTable]:
    """Rows at the first configured value of every grid axis except x.

    Under loglog only the rows with positive x and y are kept, the
    points log axes can show: a zero headline is valid data.
    """
    keep = []
    for key, values in config.grids.items():
        if key == x or key not in table.header:
            continue
        keep.append((table.header.index(key), values[0]))
    rows = [row for row in table.rows
            if all(row[idx] == val for idx, val in keep)]
    if loglog:
        xi, yi = table.header.index(x), table.header.index(y)
        rows = [row for row in rows
                if float(row[xi]) > 0.0 and float(row[yi]) > 0.0]
    if len({row[table.header.index(x)] for row in rows}) < 2:
        return None
    return CsvTable(table.header, tuple(rows))


def _digest(path: Path) -> dict:
    data = path.read_bytes()
    return {"name": path.name, "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data)}


def run(config: ExperimentConfig) -> RunManifest:
    """Execute a batch and write its artifacts; returns the manifest."""
    spec = REGISTRY[config.experiment]
    started = datetime.now(timezone.utc).isoformat()
    out_dir = Path(config.output_dir
                   or f"runs/{config.experiment}-seed{config.seed}")

    points = _grid_points(config, spec)
    if len(points) * _GRID_STRIDE * _BLOCK >= 2**63:
        raise ConfigError("grid too large for the stream id layout")
    nested = _execute(config, spec, points)
    # only now, so a task that stops the run leaves no empty directory
    out_dir.mkdir(parents=True, exist_ok=True)

    result_rows = []
    summary_rows = []
    for point, rows in zip(points, nested):
        if spec.collect is not None:
            rows = spec.collect(config, point, rows)
            result_rows.extend(rows)
        summary_rows.append({**point, **spec.summarize(config, point, rows)})
    if spec.rate:
        _attach_slope(summary_rows, "n", spec.scan_keys, spec.headline)
    stalled = sum(row.get("nonconverged", 0) for row in summary_rows)
    notes = ()
    if stalled:
        notes = (f"{stalled} of {len(points) * config.reps} fits did not "
                 "converge (column nonconverged of summary.csv)",)

    if spec.collect is not None:
        results = _build_table(result_rows)
    else:
        results = _task_table(points, nested)
    summary = _build_table(summary_rows)

    files = []
    results_path = out_dir / "results.csv"
    write_csv(results_path, results)
    files.append(_digest(results_path))
    summary_path = out_dir / "summary.csv"
    write_csv(summary_path, summary)
    files.append(_digest(summary_path))

    table = results if spec.collect is not None else summary
    for axis in spec.scan_keys + spec.extra_grid_keys:
        loglog = spec.rate and axis == "n"
        sub = _plot_subtable(config, table, axis, spec.headline, loglog)
        if sub is None:
            continue
        plot_path = out_dir / f"{spec.headline}_vs_{axis}.svg"
        emit_plot(sub, axis, spec.headline, loglog=loglog, path=plot_path)
        files.append(_digest(plot_path))

    manifest = RunManifest(
        experiment=config.experiment,
        schema=f"{config.experiment}.v{_SCHEMA_VERSION}",
        artifact_version=__version__,
        started=started,
        finished=datetime.now(timezone.utc).isoformat(),
        seed=config.seed,
        workers=config.workers,
        output_dir=str(out_dir),
        config_echo=_config_echo(config),
        files=tuple(files),
        notes=notes,
    )
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(
        json.dumps(dataclasses.asdict(manifest), indent=2, sort_keys=True)
        + "\n"
    )
    return manifest
