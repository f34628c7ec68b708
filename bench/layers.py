"""Which public functions of ``modete`` are traced, and the per-layer metrics
derived from their spans.

Layers are named after the modules of ``src/modete``.  Each function is
wrapped at every module attribute that holds it, which is where callers look
it up.  The kernel primitives are not wrapped inside ``modete.kernels``
itself: there they only call each other, and counting those inner calls
would count the same kernel values twice.
"""

from __future__ import annotations

import sys
from collections import defaultdict

import numpy as np

import modete
import modete.cli  # noqa: F401  (the package does not import its CLI)
from modete import learners
from spans import self_times

KERNEL_FUNCS = ("eval_kernel", "scaled_kernel", "product_kernel")

# (defining module, function, span name)
TRACED = [
    ("kernels", "eval_kernel", "kernels.eval_kernel"),
    ("kernels", "scaled_kernel", "kernels.scaled_kernel"),
    ("kernels", "product_kernel", "kernels.product_kernel"),
    ("kernels", "default_bandwidth", "kernels.default_bandwidth"),
    ("density", "default_grid", "density.default_grid"),
    ("kernel_mte", "estimate_kernel_mte", "kernel_mte.estimate_kernel_mte"),
    ("kernel_mte", "standardize_covariates", "kernel_mte.standardize_covariates"),
    ("kernel_mte", "robust_scale", "kernel_mte.robust_scale"),
    ("modes", "mode_of_curve", "modes.mode_of_curve"),
    ("learners", "fit_propensity", "learners.fit_propensity"),
    ("learners", "fit_smoothed_outcome", "learners.fit_smoothed_outcome"),
    ("dml", "estimate_dml_mte", "dml.estimate_dml_mte"),
    ("dml", "fit_nuisances", "dml.fit_nuisances"),
    ("results", "build_result", "results.build_result"),
    ("simulation", "generate", "simulation.generate"),
    ("simulation", "true_mode", "simulation.true_mode"),
    ("simulation", "run_monte_carlo", "simulation.run_monte_carlo"),
    ("cli", "load_csv", "cli.load_csv"),
    ("cli", "main", "cli.main"),
]

# Spans inside estimate_kernel_mte that precede the weight pass.
_PREAMBLE = {"kernel_mte.standardize_covariates", "kernel_mte.robust_scale",
             "kernels.default_bandwidth", "density.default_grid"}


def _modules():
    return {name.split(".")[-1]: mod for name, mod in sys.modules.items()
            if name == "modete" or name.startswith("modete.")}


def _elements(result):
    return {"elements": int(np.size(result))}


def _counter(span_name):
    if span_name.split(".")[1] in KERNEL_FUNCS:
        return _elements
    if span_name == "dml.estimate_dml_mte":
        return lambda res: {"fold_reseeds": res.diagnostics.fold_reseeds}
    if span_name == "simulation.run_monte_carlo":
        return lambda rep: {"failures": len(rep.failures)}
    if span_name == "cli.load_csv":
        return lambda sample: {"rows": sample.n}
    return None


def install(tracer):
    """Wrap every traced function at every module name that holds it."""
    modules = _modules()
    for home, func, span_name in TRACED:
        original = getattr(modules[home], func)
        count = _counter(span_name)
        if span_name == "learners.fit_smoothed_outcome":
            count = _trace_predict_grid(tracer)
        for site, mod in modules.items():
            if getattr(mod, func, None) is not original:
                continue
            if func in KERNEL_FUNCS and site == "kernels":
                continue
            tracer.patch(mod, func, span_name, site, count)
    tracer.patch(learners.PropensityFit, "predict_clipped",
                 "learners.predict_clipped", "learners")


def _trace_predict_grid(tracer):
    """Wrap the ``predict_grid`` of every fit the traced op creates."""
    def cells(block):
        return {"cells": int(np.size(block))}

    def after(fit):
        traced = tracer.wrapper("learners.predict_grid", "learners", fit.predict_grid, cells)
        object.__setattr__(fit, "predict_grid", traced)
        return {}
    return after


def originals():
    """Every attribute :func:`install` may replace, as (owner, attr, value)."""
    out = [(learners.PropensityFit, "predict_clipped",
            learners.PropensityFit.predict_clipped)]
    for mod in _modules().values():
        for _, func, _ in TRACED:
            if hasattr(mod, func):
                out.append((mod, func, getattr(mod, func)))
    return out


def _segments(outer, kids):
    """``density.pass1_s`` and ``kernel_mte.variance_pass_s`` of one estimate span."""
    modes = [s for s in kids if s.name == "modes.mode_of_curve"]
    builds = [s for s in kids if s.name == "results.build_result"]
    if not modes or not builds:
        return 0.0, 0.0
    first = min(modes, key=lambda s: s.start)
    last = max(modes, key=lambda s: s.end)
    preamble = sum(s.end - s.start for s in kids
                   if s.name in _PREAMBLE and s.end <= first.start)
    pass1 = first.start - outer.start - preamble
    variance = min(s.start for s in builds) - last.end
    return pass1, variance


def layer_metrics(spans, traced_ops):
    """Per-op averages over the traced ops, plus the set-up oracle time."""
    selfs = self_times(spans)
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    total = {}

    def add(key, value):
        total[key] = total.get(key, 0.0) + value

    setup_oracle = 0.0
    for i, (span, self_s) in enumerate(zip(spans, selfs)):
        dur = span.end - span.start
        name, site = span.name, span.site
        if span.op is None:
            if name == "simulation.true_mode":
                setup_oracle += dur
            continue
        func = name.split(".")[1]
        if func in KERNEL_FUNCS:
            elements = span.counts.get("elements", 0)
            add("kernels.calls", 1)
            add("kernels.elements", elements)
            add("kernels.self_s", self_s)
            if site == "density" and func == "eval_kernel":
                add("density.cov_kernel_elements", elements)
            if site == "density" and func == "scaled_kernel":
                add("density.curve_elements", elements)
            if site == "learners" and func == "scaled_kernel":
                add("learners.target_elements", elements)
        elif name == "kernel_mte.estimate_kernel_mte":
            add("kernel_mte.s", dur)
            pass1, variance = _segments(span, children[i])
            add("density.pass1_s", pass1)
            add("kernel_mte.variance_pass_s", variance)
        elif name == "modes.mode_of_curve":
            add("modes.s", dur)
            add("modes.calls", 1)
        elif name == "learners.fit_propensity":
            add("learners.fit_propensity_s", dur)
            add("learners.fit_propensity_calls", 1)
        elif name == "learners.fit_smoothed_outcome":
            add("learners.fit_outcome_s", dur)
            add("learners.fit_outcome_calls", 1)
        elif name == "learners.predict_grid":
            add("learners.predict_grid_s", dur)
            add("learners.predict_grid_calls", 1)
            add("learners.predict_grid_cells", span.counts.get("cells", 0))
        elif name == "learners.predict_clipped":
            add("learners.predict_propensity_s", dur)
        elif name == "dml.estimate_dml_mte":
            add("dml.s", dur)
            add("dml.self_s", self_s)
            add("dml.fold_reseeds", span.counts.get("fold_reseeds", 0))
        elif name == "dml.fit_nuisances":
            add("dml.fit_nuisances_s", dur)
        elif name == "results.build_result":
            add("results.build_result_s", dur)
        elif name == "simulation.generate":
            add("simulation.generate_s", dur)
            add("simulation.generate_calls", 1)
        elif name == "simulation.run_monte_carlo":
            add("simulation.self_s", self_s)
            add("simulation.failures", span.counts.get("failures", 0))
        elif name == "cli.load_csv":
            add("cli.load_csv_s", dur)
            add("cli.rows", span.counts.get("rows", 0))
        elif name == "cli.main":
            add("cli.self_s", self_s)
        if site == "simulation" and name in ("kernel_mte.estimate_kernel_mte",
                                             "dml.estimate_dml_mte"):
            add("simulation.estimate_s", dur)
    out = {key: value / traced_ops for key, value in total.items()}
    out["kernels.bytes_computed"] = 16.0 * out.get("kernels.elements", 0.0)
    out["simulation.true_mode_s"] = setup_oracle
    return out
