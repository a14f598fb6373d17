"""Span tracing around the public functions of each splr layer.

A traced run replaces every public function of the layer modules, under
every name a caller looks it up by (``from .core import objective`` binds
``splr.altmin.objective`` to the same object), with a wrapper that records
one span per call: name, start, end and the span that caused it.  Spans
live in flat arrays in memory while the run goes on; the per-layer metrics
are computed from them afterwards, and the original functions are put back
when the traced block ends, even if it raises.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("linalg", "core", "altmin", "conic", "relaxations", "bnb",
          "baselines", "experiments", "cli")

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("linalg.read_matrix_csv_s", "s"),
    ("linalg.write_matrix_csv_s", "s"),
    ("linalg.csv_mb", "MB"),
    ("linalg.truncated_svd_s", "s"),
    ("linalg.truncated_svd_calls", "count"),
    ("linalg.randomized_svd_s", "s"),
    ("linalg.randomized_svd_calls", "count"),
    ("altmin.exact_in_randomized", "count"),
    ("linalg.top_k_abs_select_s", "s"),
    ("linalg.top_k_abs_select_calls", "count"),
    ("linalg.pseudoinverse_s", "s"),
    ("linalg.pseudoinverse_calls", "count"),
    ("core.objective_s", "s"),
    ("core.objective_calls", "count"),
    ("altmin.self_s", "s"),
    ("altmin.calls", "count"),
    ("altmin.iterations", "count"),
    ("conic.solve_s", "s"),
    ("conic.calls", "count"),
    ("conic.iterations", "count"),
    ("conic.s_per_iter", "s"),
    ("conic.project_cone_s", "s"),
    ("conic.project_cone_calls", "count"),
    ("conic.rows_max", "count"),
    ("conic.nonoptimal", "count"),
    ("relaxations.build_s", "s"),
    ("relaxations.build_calls", "count"),
    ("relaxations.self_s", "s"),
    ("bnb.nodes", "count"),
    ("bnb.bound_s_per_node", "s"),
    ("bnb.am_s_per_node", "s"),
    ("bnb.select_branch_entry_s", "s"),
    ("bnb.self_s", "s"),
    ("baselines.godec_s", "s"),
    ("baselines.godec_calls", "count"),
    ("experiments.generate_instance_s", "s"),
    ("experiments.cross_validate_s", "s"),
    ("experiments.cv_fits", "count"),
    ("experiments.self_s", "s"),
    ("cli.self_s", "s"),
    ("trace.overhead_s", "s"),
)


def _bound_arg(fn, args, kwargs, name):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


# Per-function observers turn a call's arguments and result into span
# attributes; they run after the span has closed, so they cost it nothing.
def _observe_am(fn, args, kwargs, result):
    return {"iterations": result[1].iterations,
            "randomized": _bound_arg(fn, args, kwargs,
                                     "svd_mode") == "randomized"}


def _observe_conic(fn, args, kwargs, result):
    problem = _bound_arg(fn, args, kwargs, "problem")
    return {"iterations": result.iterations,
            "optimal": result.status == "optimal",
            "rows": problem.A.shape[0]}


def _observe_csv(fn, args, kwargs, result):
    return {"bytes": os.path.getsize(_bound_arg(fn, args, kwargs, "path"))}


OBSERVERS = {
    "altmin.alternating_minimization": _observe_am,
    "conic.solve_conic": _observe_conic,
    "linalg.read_matrix_csv": _observe_csv,
    "linalg.write_matrix_csv": _observe_csv,
}


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.attrs: dict[int, dict] = {}
        self._stack: list[int] = []

    def wrap(self, name, fn):
        """Return fn wrapped so that each call records one span."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        observe = OBSERVERS.get(name)
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)
        stack, attrs, clock = self._stack, self.attrs, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if observe is not None:
                attrs[idx] = observe(fn, args, kwargs, result)
            return result

        return wrapper

    def spans(self) -> "Spans":
        return Spans(self.names, self.name_id, self.parent, self.start,
                     self.end, dict(self.attrs))


def public_functions(module):
    """Functions a module defines under a name without a leading _."""
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and not name.startswith("_")
            and obj.__module__ == module.__name__}


@contextmanager
def traced(tracer: Tracer, package: str = "splr"):
    """Patch every public layer function, under every name any module of
    the package binds it to, for the duration of the block."""
    wrappers = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{package}.{layer}")
        for name, fn in public_functions(module).items():
            wrappers[id(fn)] = (fn, tracer.wrap(f"{layer}.{name}", fn))
    patches = []
    for modname, module in list(sys.modules.items()):
        if modname != package and not modname.startswith(package + "."):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                patches.append((module, attr, value))
    try:
        for module, attr, value in patches:
            setattr(module, attr, wrappers[id(value)][1])
        yield tracer
    finally:
        for module, attr, value in patches:
            setattr(module, attr, value)


def self_times(parent, duration):
    """Each span's duration minus the durations of its direct children.

    Spans come from one thread, so a span's children do not overlap each
    other and lie inside it: their summed durations are the part of its
    interval that they cover.
    """
    parent = np.asarray(parent)
    duration = np.asarray(duration, dtype=float)
    child = parent >= 0
    covered = np.bincount(parent[child], weights=duration[child],
                          minlength=duration.size)
    return duration - covered


class Spans:
    """Finished spans as arrays, with the queries the metrics need."""

    def __init__(self, names, name_id, parent, start, end, attrs):
        self.names = list(names)
        self.name_id = np.array(name_id, dtype=np.int64)
        self.parent = np.array(parent, dtype=np.int64)
        self.start = np.array(start, dtype=float)
        self.end = np.array(end, dtype=float)
        self.attrs = attrs
        self.duration = self.end - self.start
        self.self_time = self_times(self.parent, self.duration)

    def __len__(self):
        return self.name_id.size

    def named(self, *names):
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name_id, ids)

    def in_layer(self, layer):
        ids = [i for i, n in enumerate(self.names)
               if n.startswith(layer + ".")]
        return np.isin(self.name_id, ids)

    def under(self, mask):
        """Spans with a proper ancestor in mask, found by walking all
        spans up the call tree one level per step."""
        out = np.zeros(len(self), dtype=bool)
        up = self.parent.copy()
        live = up >= 0
        while live.any():
            out[live] |= mask[up[live]]
            up[live] = self.parent[up[live]]
            live = up >= 0
        return out

    def outermost_time(self, mask):
        """Time inside spans of mask, nested ones counted once."""
        return float(self.duration[mask & ~self.under(mask)].sum())

    def attr_values(self, mask, key):
        """Attribute key of the spans in mask whose call returned."""
        return [self.attrs[i][key] for i in np.flatnonzero(mask)
                if i in self.attrs]


def layer_metrics(spans: Spans, overhead_s: float) -> dict[str, float]:
    """Every metric of PER_LAYER, from the spans of one traced run."""
    m = {}
    call = spans.named

    def busy(*names):
        return spans.outermost_time(call(*names))

    def time_and_calls(name):
        m[name + "_s"] = busy(name)
        m[name + "_calls"] = int(call(name).sum())

    def layer_self(layer):
        return float(spans.self_time[spans.in_layer(layer)].sum())

    m["linalg.read_matrix_csv_s"] = busy("linalg.read_matrix_csv")
    m["linalg.write_matrix_csv_s"] = busy("linalg.write_matrix_csv")
    csv = call("linalg.read_matrix_csv", "linalg.write_matrix_csv")
    m["linalg.csv_mb"] = sum(spans.attr_values(csv, "bytes")) / 1e6
    time_and_calls("linalg.truncated_svd")
    time_and_calls("linalg.randomized_svd")
    am = call("altmin.alternating_minimization")
    randomized_am = np.zeros(len(spans), dtype=bool)
    for i in np.flatnonzero(am):
        randomized_am[i] = spans.attrs.get(i, {}).get("randomized", False)
    m["altmin.exact_in_randomized"] = int(
        (call("linalg.truncated_svd") & spans.under(randomized_am)).sum())
    time_and_calls("linalg.top_k_abs_select")
    time_and_calls("linalg.pseudoinverse")
    time_and_calls("core.objective")
    m["altmin.self_s"] = layer_self("altmin")
    m["altmin.calls"] = int(am.sum())
    m["altmin.iterations"] = int(sum(spans.attr_values(am, "iterations")))

    conic = call("conic.solve_conic")
    m["conic.solve_s"] = spans.outermost_time(conic)
    m["conic.calls"] = int(conic.sum())
    m["conic.iterations"] = int(sum(spans.attr_values(conic, "iterations")))
    m["conic.s_per_iter"] = (m["conic.solve_s"] / m["conic.iterations"]
                             if m["conic.iterations"] else 0.0)
    time_and_calls("conic.project_cone")
    m["conic.rows_max"] = max(spans.attr_values(conic, "rows"), default=0)
    m["conic.nonoptimal"] = sum(
        not ok for ok in spans.attr_values(conic, "optimal"))

    build = call(*[n for n in spans.names
                   if n.startswith("relaxations.build_")])
    m["relaxations.build_s"] = spans.outermost_time(build)
    m["relaxations.build_calls"] = int(build.sum())
    m["relaxations.self_s"] = layer_self("relaxations")

    in_bnb = spans.under(call("bnb.branch_and_bound"))
    # every explored node builds exactly one perspective relaxation
    nodes = int((in_bnb & call("relaxations.build_perspective_relaxation"))
                .sum())
    m["bnb.nodes"] = nodes
    bound_s = spans.outermost_time(in_bnb & (build | conic))
    am_s = spans.outermost_time(in_bnb & am)
    m["bnb.bound_s_per_node"] = bound_s / nodes if nodes else 0.0
    m["bnb.am_s_per_node"] = am_s / nodes if nodes else 0.0
    m["bnb.select_branch_entry_s"] = busy("bnb.select_branch_entry")
    m["bnb.self_s"] = layer_self("bnb")

    time_and_calls("baselines.godec")
    m["experiments.generate_instance_s"] = busy(
        "experiments.generate_instance")
    cv = call("experiments.cross_validate")
    m["experiments.cross_validate_s"] = spans.outermost_time(cv)
    m["experiments.cv_fits"] = int((am & spans.under(cv)).sum())
    m["experiments.self_s"] = layer_self("experiments")
    m["cli.self_s"] = layer_self("cli")
    m["trace.overhead_s"] = overhead_s
    return {name: m[name] for name, _ in PER_LAYER}
