"""Spans around the calls into each nirom module, recorded from outside it.

`install(tracer)` replaces public functions and methods of the package
with wrappers that open a span of that tracer on entry and close it on
exit. A span is a name, a start, an end and the index of its parent span;
spans live in compact in-memory arrays and are written once, at the end,
by `Tracer.save`.
Counters (steps, inner iterations, bytes) are gathered at the same
boundaries. The tracer assumes one thread: the traced run sets
`train_workers = 1` and `solve_workers = 1`.

`per_layer(path)` reads a saved trace and turns it into the per-module
metrics named in BENCHMARK.json. A span's self time is its length minus
the time its children cover.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
import functools
import json
import os
from time import perf_counter

import numpy as np

# Every model line a workload may carry; a line the workload does not run
# reports zeros.
FAMILIES = ("knn", "sindy", "vkoga", "forest", "boosting", "svr2", "svr3", "svrrbf")
DIFFERENTIABLE = ("sindy", "vkoga", "svr2", "svr3", "svrrbf")
STAGES = ("fom-solve", "pod", "sample", "train", "rom-solve", "report")
SCHEME_TAG = {"rk4": "rk4", "backward_euler": "be"}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.ids: dict = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counters: dict = defaultdict(float)

    def begin(self, name: str) -> int:
        nid = self.ids.get(name)
        if nid is None:
            nid = self.ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf_counter())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = perf_counter()
        self.stack.pop()

    def count(self, key: str, value: float) -> None:
        self.counters[key] += value

    def save(self, path) -> None:
        np.savez(
            path,
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            names=np.array(json.dumps(self.names)),
            counters=np.array(json.dumps(dict(self.counters))),
        )


def _wrap(tracer, owner, attr, namer, after=None):
    """Replace owner.attr by a spanning wrapper. `namer(args)` names the
    span; `after(args, result, name)` may record counters."""
    raw = owner.__dict__[attr]
    fn = raw.__func__ if isinstance(raw, classmethod) else raw

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        name = namer(args)
        i = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.finish(i)
        if after is not None:
            after(args, result, name)
        return result

    setattr(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod) else wrapper)


def line_name(spec) -> str:
    """The model-line name a spec carries: svr lines by kernel, others by family."""
    if spec.family == "svr":
        return "svr" + str(spec.params["kernel"]).replace("poly", "")
    return spec.family


def install(tracer: Tracer) -> None:
    """Wrap the package's public entry points (import order matters: the
    pipeline binds names at import, so the pipeline's references are the
    ones replaced)."""
    from nirom import io, pipeline, problems
    from nirom.reduction import GalerkinROM
    from nirom.regressors.base import FittedRegressor
    from nirom.sampling import TrainingSet
    from nirom.surrogate import RegressionROM

    wrap = functools.partial(_wrap, tracer)

    def model_kind(model):
        if isinstance(model, RegressionROM):
            return "surrogate." + line_name(model.model.spec)
        if isinstance(model, GalerkinROM):
            return "galerkin"
        return "fom"

    def integrate_name(args):
        model, grid, mu, spec = args[:4]
        return f"integrate.{model_kind(model)}.{SCHEME_TAG[spec.scheme]}"

    def integrate_after(args, result, name):
        tracer.count(name + ".steps", result.times.size - 1)
        tracer.count(name + ".inner", result.n_inner_total)

    wrap(pipeline, "integrate", integrate_name, integrate_after)
    wrap(pipeline, "pod_fit", lambda a: "reduction.pod_fit")
    wrap(pipeline, "lhs_maximin", lambda a: "sampling.lhs_maximin")
    wrap(pipeline, "build_training_set", lambda a: "sampling.targets")
    wrap(pipeline, "fit_regressor", lambda a: "fit." + line_name(a[0]))
    wrap(pipeline, "error_series", lambda a: "analysis.error_series")
    wrap(pipeline, "evaluate_bound", lambda a: "analysis.evaluate_bound")

    wrap(FittedRegressor, "predict", lambda a: "predict." + line_name(a[0].spec))
    wrap(FittedRegressor, "jacobian", lambda a: "rjacobian." + line_name(a[0].spec))
    wrap(GalerkinROM, "velocity", lambda a: "galerkin.velocity")
    wrap(GalerkinROM, "jacobian", lambda a: "galerkin.jacobian")
    wrap(RegressionROM, "velocity", lambda a: "surrogate.velocity")
    wrap(RegressionROM, "jacobian", lambda a: "surrogate.jacobian")
    for cls in (problems.Burgers1D, problems.ConvDiff2D):
        wrap(cls, "velocity", lambda a: "problem.velocity")
        wrap(cls, "jacobian", lambda a: "problem.jacobian")

    def written(paths):
        return lambda args, result, name: tracer.count(
            "io.written_bytes", sum(os.path.getsize(p(args)) for p in paths))

    def read_size(paths):
        def namer(args):
            tracer.count("io.read_bytes", sum(os.path.getsize(p(args)) for p in paths))
            return "io.read"
        return namer

    wrap(io, "write_matrix", lambda a: "io.write", written([lambda a: a[0]]))
    wrap(io, "read_matrix", read_size([lambda a: a[0]]))
    wrap(pipeline, "save_model", lambda a: "io.write", written([lambda a: a[1]]))
    wrap(pipeline, "load_model", read_size([lambda a: a[0]]))
    wrap(TrainingSet, "save", lambda a: "io.write",
          written([lambda a: a[1], lambda a: a[2]]))
    wrap(TrainingSet, "load", read_size([lambda a: a[1], lambda a: a[2]]))


# ------------------------------------------------------------ aggregation


def summarize(path):
    """({span name: (calls, inclusive seconds, self seconds)}, counters)."""
    z = np.load(path)
    names = json.loads(str(z["names"]))
    nid, parent = z["name_id"], z["parent"]
    dur = z["end"] - z["start"]
    child = np.zeros_like(dur)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    calls = np.bincount(nid, minlength=len(names))
    total = np.bincount(nid, weights=dur, minlength=len(names))
    self_t = np.bincount(nid, weights=dur - child, minlength=len(names))
    out = {n: (int(calls[i]), float(total[i]), float(self_t[i])) for i, n in enumerate(names)}
    return out, json.loads(str(z["counters"]))


def per_layer(path, stage_seconds: dict) -> dict:
    """The per-module metrics, by name, as (value, unit)."""
    spans, counters = summarize(path)

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def mean_us(name, self_time=False):
        c, t, s = spans.get(name, (0, 0.0, 0.0))
        return 1e6 * (s if self_time else t) / c if c else 0.0

    m = {}
    for stage in STAGES:
        m[f"pipeline.{stage}_s"] = (stage_seconds.get(stage, 0.0), "s")
    m["problems.velocity_calls"] = (calls("problem.velocity"), "count")
    m["problems.velocity_us"] = (mean_us("problem.velocity"), "us")
    m["problems.jacobian_calls"] = (calls("problem.jacobian"), "count")
    m["problems.jacobian_us"] = (mean_us("problem.jacobian"), "us")
    m["integration.fom_be_s"] = (total("integrate.fom.be"), "s")
    m["integration.fom_rk4_s"] = (total("integrate.fom.rk4"), "s")
    m["integration.fom_steps"] = (
        counters.get("integrate.fom.be.steps", 0) + counters.get("integrate.fom.rk4.steps", 0),
        "count")
    m["integration.fom_newton_iters"] = (counters.get("integrate.fom.be.inner", 0), "count")
    m["reduction.pod_fit_s"] = (total("reduction.pod_fit"), "s")
    m["reduction.galerkin_rk4_s"] = (total("integrate.galerkin.rk4"), "s")
    m["reduction.galerkin_be_s"] = (total("integrate.galerkin.be"), "s")
    m["reduction.galerkin_newton_iters"] = (counters.get("integrate.galerkin.be.inner", 0), "count")
    m["reduction.galerkin_velocity_us"] = (mean_us("galerkin.velocity"), "us")
    m["reduction.galerkin_jacobian_us"] = (mean_us("galerkin.jacobian"), "us")
    m["sampling.lhs_maximin_s"] = (total("sampling.lhs_maximin"), "s")
    m["sampling.targets_s"] = (total("sampling.targets"), "s")
    for f in FAMILIES:
        m[f"regressors.{f}.fit_s"] = (total(f"fit.{f}"), "s")
        m[f"regressors.{f}.predict_us"] = (mean_us(f"predict.{f}"), "us")
        m[f"regressors.{f}.predict_calls"] = (calls(f"predict.{f}"), "count")
        if f in DIFFERENTIABLE:
            m[f"regressors.{f}.jacobian_us"] = (mean_us(f"rjacobian.{f}"), "us")
    for f in FAMILIES:
        m[f"surrogate.{f}.rk4_s"] = (total(f"integrate.surrogate.{f}.rk4"), "s")
        m[f"surrogate.{f}.be_s"] = (total(f"integrate.surrogate.{f}.be"), "s")
        m[f"surrogate.{f}.be_inner_iters"] = (
            counters.get(f"integrate.surrogate.{f}.be.inner", 0), "count")
    m["surrogate.velocity_self_us"] = (mean_us("surrogate.velocity", self_time=True), "us")
    m["analysis.error_series_s"] = (total("analysis.error_series"), "s")
    m["analysis.evaluate_bound_s"] = (total("analysis.evaluate_bound"), "s")
    m["io.write_s"] = (total("io.write"), "s")
    m["io.read_s"] = (total("io.read"), "s")
    m["io.written_mb"] = (counters.get("io.written_bytes", 0) / 1e6, "MB")
    m["io.read_mb"] = (counters.get("io.read_bytes", 0) / 1e6, "MB")
    return m
