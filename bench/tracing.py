"""Spans and counts recorded around the library's public functions.

The library carries no tracing of its own, so ``patched`` wraps, from
outside and only while the context is open:

* the kernels as ``subweibull.experiments`` binds them (the runner
  calls them through its module globals);
* ``sample`` on every ``ScalarLaw`` subclass that defines it, and
  ``RngStream.generator``;
* ``task`` and ``summarize`` of every ``REGISTRY`` entry, and ``run``.

Each call becomes a span (id, parent, name, start, end, thread, amount).
Spans nest per thread, so a layer's self time is its duration minus the
durations of its direct children.  ``amount`` is the call's count: values
drawn, net bytes, trials, sweeps, bytes written, or 1.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import os
import statistics
import threading
import time
from collections import defaultdict


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# experiments-module name -> (span name, amount of one call)
_KERNELS = {
    "rip_exact": ("covariance.rip_exact", None),
    "quarter_net": ("covariance.quarter_net",
                    lambda a, k, r: r.vectors.nbytes),
    "rip_net": ("covariance.rip_net", None),
    "re_check": ("covariance.re_check", None),
    "cone_min_oracle": ("covariance.cone_min_oracle",
                        lambda a, k, r: int(_arg(a, k, 3, "trials"))),
    "gram": ("covariance.gram", None),
    "max_elementwise_error": ("covariance.max_elementwise_error", None),
    "solve": ("lasso.solve", lambda a, k, r: r.iterations),
    "data_max_sample": ("hdclt.data_max_sample", None),
    "gaussian_analog_sample": ("hdclt.gaussian_analog_sample", None),
    "multiplier_draws": ("hdclt.multiplier_draws", None),
    "rho_rectangle_proxy": ("hdclt.rho_rectangle_proxy", None),
    "empirical_norm": ("orlicz.empirical_norm",
                       lambda a, k, r: r.evaluations),
    "write_csv": ("experiments.write_csv",
                  lambda a, k, r: os.path.getsize(_arg(a, k, 0, "path"))),
    "emit_plot": ("experiments.emit_plot",
                  lambda a, k, r: os.path.getsize(k["path"])),
    "run": ("experiments.run", lambda a, k, r: r.workers),
}


class Tracer:
    """In-memory span recorder; safe to call from several threads."""

    def __init__(self) -> None:
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, amount=None):
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
            count = 1 if amount is None else amount(args, kwargs, result)
            spans.append((span_id, parent, name, start, end,
                          threading.get_ident(), count))
            return result

        return traced


def _sample_amount(args, kwargs, result):
    return int(getattr(result, "size", 1))


@contextlib.contextmanager
def patched(tracer: Tracer):
    """Install the tracer's wrappers; restore the originals on exit."""
    from subweibull import experiments, samplers

    undo = []

    def swap(owner, attr, value):
        undo.append(functools.partial(setattr, owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    try:
        for attr, (name, amount) in _KERNELS.items():
            swap(experiments, attr,
                 tracer.wrap(name, getattr(experiments, attr), amount))
        swap(samplers.RngStream, "generator",
             tracer.wrap("samplers.generator", samplers.RngStream.generator))
        for cls in vars(samplers).values():
            if (isinstance(cls, type) and issubclass(cls, samplers.ScalarLaw)
                    and cls is not samplers.ScalarLaw and "sample" in vars(cls)):
                swap(cls, "sample",
                     tracer.wrap("samplers.sample", cls.sample, _sample_amount))
        registry = experiments.REGISTRY
        for key, spec in list(registry.items()):
            undo.append(functools.partial(registry.__setitem__, key, spec))
            registry[key] = dataclasses.replace(
                spec,
                task=tracer.wrap("experiments.task", spec.task),
                summarize=tracer.wrap("experiments.summarize", spec.summarize),
            )
        yield tracer
    finally:
        for restore in reversed(undo):
            restore()


# per-layer metric name -> span name whose self time it sums
SELF_TIMES = {
    "samplers.sample_s": "samplers.sample",
    "samplers.generator_s": "samplers.generator",
    "covariance.rip_net_s": "covariance.rip_net",
    "covariance.quarter_net_s": "covariance.quarter_net",
    "covariance.cone_min_oracle_s": "covariance.cone_min_oracle",
    "covariance.rip_exact_s": "covariance.rip_exact",
    "covariance.re_check_s": "covariance.re_check",
    "covariance.gram_s": "covariance.gram",
    "covariance.max_elementwise_error_s": "covariance.max_elementwise_error",
    "lasso.solve_s": "lasso.solve",
    "hdclt.data_max_sample_s": "hdclt.data_max_sample",
    "hdclt.multiplier_draws_s": "hdclt.multiplier_draws",
    "hdclt.gaussian_analog_sample_s": "hdclt.gaussian_analog_sample",
    "hdclt.rho_rectangle_proxy_s": "hdclt.rho_rectangle_proxy",
    "orlicz.empirical_norm_s": "orlicz.empirical_norm",
    "experiments.task_s": "experiments.task",
    "experiments.summarize_s": "experiments.summarize",
    "experiments.write_csv_s": "experiments.write_csv",
    "experiments.emit_plot_s": "experiments.emit_plot",
}

# per-layer metric name -> span names whose amounts it sums
AMOUNTS = {
    "samplers.values": ("samplers.sample",),
    "samplers.generators": ("samplers.generator",),
    "covariance.net_bytes": ("covariance.quarter_net",),
    "covariance.cone_trials": ("covariance.cone_min_oracle",),
    "lasso.sweeps": ("lasso.solve",),
    "orlicz.norm_evaluations": ("orlicz.empirical_norm",),
    "experiments.tasks": ("experiments.task",),
    "experiments.artifact_bytes": ("experiments.write_csv",
                                   "experiments.emit_plot"),
}


def layer_metrics(spans) -> dict:
    """Per-layer figures of one traced round."""
    child_ns = defaultdict(int)
    for _, parent, _, start, end, _, _ in spans:
        if parent:
            child_ns[parent] += end - start
    self_ns = defaultdict(int)
    amount = defaultdict(int)
    task_ns = 0
    run_capacity_ns = 0
    for span_id, _, name, start, end, _, count in spans:
        self_ns[name] += end - start - child_ns[span_id]
        amount[name] += count
        if name == "experiments.task":
            task_ns += end - start
        elif name == "experiments.run":
            run_capacity_ns += (end - start) * count
    out = {metric: self_ns[name] / 1e9 for metric, name in SELF_TIMES.items()}
    for metric, names in AMOUNTS.items():
        out[metric] = sum(amount[name] for name in names)
    sample_s = out["samplers.sample_s"]
    out["samplers.mvals_per_s"] = (
        out["samplers.values"] / sample_s / 1e6 if sample_s > 0 else 0.0)
    out["experiments.pool_busy"] = (
        task_ns / run_capacity_ns if run_capacity_ns else 0.0)
    out["trace.spans"] = len(spans)
    return out


def median_metrics(rounds) -> dict:
    """Median of each per-layer figure over traced rounds."""
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}


def write_spans(path, rounds_of_spans) -> None:
    """CSV of every recorded span, one line each, tagged with its round."""
    with open(path, "w") as handle:
        handle.write("round,id,parent,name,start_ns,end_ns,thread,amount\n")
        for index, spans in enumerate(rounds_of_spans):
            for span in spans:
                handle.write(f"{index}," + ",".join(map(str, span)) + "\n")
