"""Per-layer tracing from outside the program.

The tracer replaces the program's public functions and methods with
wrappers at the names their callers look them up by (module globals
such as ``transport.null_cut_time``, class attributes such as
``GeodesicSegment.state``).  Each wrapper records a span: calls, wall
time and self time (its duration minus the time covered by nested
spans), plus argument-derived counts.  Everything stays in memory until
``report``; ``uninstall`` restores the original objects.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time
from collections import Counter

import numpy as np

# Raw spans are kept only down to this nesting depth; deeper spans (for
# example the ~10^5 scalar GeodesicSegment.state calls of one
# reconstruction) are aggregated per name only.
RAW_SPAN_DEPTH = 2


def _leading(shape, trailing):
    """Number of stacked items in an array of the given shape."""
    return math.prod(shape[: len(shape) - trailing]) if len(shape) > trailing else 1


class Tracer:
    """Spans and counters recorded by wrappers around program functions."""

    def __init__(self):
        self.calls = Counter()
        self.wall = Counter()
        self.self_time = Counter()
        self.counts = Counter()
        self.reasons = Counter()
        self.spans = []          # (name, start, end, parent index or -1)
        self._stack = []         # [child seconds, raw span index or -1] per open span
        self._patches = []       # (owner, attribute, original)
        self.origin = time.perf_counter()

    # -- spans -------------------------------------------------------------

    def enter(self, name):
        parent = self._stack[-1][1] if self._stack else -1
        index = -1
        if len(self._stack) <= RAW_SPAN_DEPTH:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append([0.0, index])
        return time.perf_counter()

    def leave(self, name, start):
        end = time.perf_counter()
        duration = end - start
        child, index = self._stack.pop()
        if index >= 0:
            self.spans[index][2] = end
        self.calls[name] += 1
        self.wall[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][0] += duration

    def wrap(self, name, fn, count=None, errors=None):
        """Wrapper recording a span `name`; `count(args)` adds counters,
        `errors` is an exception type whose messages are tallied."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                count(tracer.counts, args, kwargs)
            start = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                if errors is not None and isinstance(exc, errors):
                    tracer.counts[name + ".rejected"] += 1
                    tracer.reasons[str(exc)] += 1
                raise
            finally:
                tracer.leave(name, start)

        return traced

    # -- installation ------------------------------------------------------

    def patch_function(self, original, name, count=None, errors=None):
        """Replace `original` in every program module that binds it."""
        wrapper = self.wrap(name, original, count, errors)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "lorentz_gauge"
                                      or mod_name.startswith("lorentz_gauge.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def patch_method(self, cls, attr, name, count=None, errors=None):
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(name, original, count, errors))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def report(self):
        layers = {
            name: {
                "calls": self.calls[name],
                "wall_ms": 1e3 * self.wall[name],
                "self_ms": 1e3 * self.self_time[name],
            }
            for name in sorted(self.calls)
        }
        spans = [
            [name, 1e3 * (start - self.origin), 1e3 * ((end or start) - self.origin), parent]
            for name, start, end, parent in self.spans
        ]
        return {"layers": layers, "counts": dict(sorted(self.counts.items())),
                "rejections": dict(self.reasons), "spans": spans}


# ---------------------------------------------------------------------------
# what gets traced
# ---------------------------------------------------------------------------


def _bound(fn):
    sig = inspect.signature(fn)

    def arguments(args, kwargs):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return arguments


def install_setup(tracer, lg):
    """Spans around the set-up layer (scenario fixture construction)."""
    for attr in ("__init__", "connection", "gauge"):
        tracer.patch_method(lg.config.Fixture, attr, "config.Fixture")


def install_layers(tracer, lg):
    """Spans and counters around every layer named in the README table."""
    geo, tr, lin, gau, rec, sym = (lg.geometry, lg.transport, lg.linalg, lg.gauge,
                                   lg.reconstruction, lg.symcalc)

    def points(key, trailing, position):
        def count(counts, args, kwargs):
            counts[key] += _leading(np.shape(args[position]), trailing)
        return count

    tracer.patch_function(geo.null_cut_time, "geometry.null_cut_time")
    tracer.patch_function(geo.time_separation, "geometry.time_separation")
    tracer.patch_function(geo.earliest_obs_time, "geometry.earliest_obs_time")
    tracer.patch_function(geo.integrate_geodesic, "geometry.integrate_geodesic")
    tracer.patch_method(geo.Metric, "christoffel", "geometry.Metric.christoffel")

    def state_points(counts, args, kwargs):
        counts["geometry.GeodesicSegment.state.points"] += np.size(args[1])

    tracer.patch_method(geo.GeodesicSegment, "state", "geometry.GeodesicSegment.state",
                        count=state_points)

    pt_args = _bound(tr.parallel_transport)

    def pt_steps(counts, args, kwargs):
        a = pt_args(args, kwargs)
        span = abs(a["b"] - a["a"])
        counts["transport.parallel_transport.steps"] += (
            max(1, math.ceil(span / a["h"])) if span else 0)

    tracer.patch_function(tr.parallel_transport, "transport.parallel_transport",
                          count=pt_steps)
    tracer.patch_method(tr.CutTimeCache, "cut_time", "transport.CutTimeCache")
    tracer.patch_function(tr.validate_query, "transport.validate_query",
                          errors=lg.errors.AdmissibilityError)

    tracer.patch_function(lin.expm_skew, "linalg.expm_skew",
                          count=points("linalg.expm_skew.matrices", 2, 0))
    tracer.patch_function(lin.dexpm_skew, "linalg.dexpm_skew",
                          count=points("linalg.dexpm_skew.matrices", 2, 0))
    tracer.patch_function(lin.polar_project, "linalg.polar_project")

    tracer.patch_method(gau.ConnectionField, "pairing", "gauge.ConnectionField.pairing",
                        count=points("gauge.ConnectionField.pairing.points", 1, 1))
    tracer.patch_method(gau.GaugedConnection, "pairing", "gauge.GaugedConnection.pairing",
                        count=points("gauge.GaugedConnection.pairing.points", 1, 1))

    tracer.patch_function(rec.diamond_grid, "reconstruction.diamond_grid")
    tracer.patch_function(rec.reconstruct_gauge, "reconstruction.reconstruct_gauge")
    cand_args = _bound(rec.gauge_candidate)

    def cand_mode(counts, args, kwargs):
        counts["reconstruction.gauge_candidate." + cand_args(args, kwargs)["mode"]] += 1

    tracer.patch_function(rec.gauge_candidate, "reconstruction.gauge_candidate",
                          count=cand_mode)
    tracer.patch_function(rec.verify_gauge_ode, "reconstruction.verify")
    tracer.patch_function(rec.verify_theorem, "reconstruction.verify")

    for fn in (sym.build_interaction_geometry, sym.simulated_measurement,
               sym.flowout_disjointness):
        tracer.patch_function(fn, "symcalc." + fn.__name__)


def per_layer_metrics(report, items, setup_report):
    """The per-layer metrics of BENCHMARK.json from a traced report.

    Counts and times are per item of the workload; ratios are plain.
    A layer the workload never calls reads 0.
    """
    layers, counts = report["layers"], report["counts"]

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def self_ms(name):
        return layers.get(name, {}).get("self_ms", 0.0)

    per = 1.0 / items
    out = {}

    def put(key, value, unit):
        out[key] = {"value": value, "unit": unit}

    for name in ("geometry.null_cut_time", "geometry.time_separation",
                 "geometry.integrate_geodesic"):
        put(name + ".calls", calls(name) * per, "calls/item")
        put(name + ".self_ms", self_ms(name) * per, "ms/item")
    put("geometry.earliest_obs_time.self_ms", self_ms("geometry.earliest_obs_time") * per,
        "ms/item")
    put("geometry.Metric.christoffel.calls", calls("geometry.Metric.christoffel") * per,
        "calls/item")
    state = "geometry.GeodesicSegment.state"
    put(state + ".calls", calls(state) * per, "calls/item")
    put(state + ".points_per_call",
        counts.get(state + ".points", 0) / calls(state) if calls(state) else 0.0,
        "points/call")
    put(state + ".self_ms", self_ms(state) * per, "ms/item")
    pt = "transport.parallel_transport"
    put(pt + ".calls", calls(pt) * per, "calls/item")
    put(pt + ".steps", counts.get(pt + ".steps", 0) * per, "steps/item")
    put(pt + ".self_ms", self_ms(pt) * per, "ms/item")
    lookups = calls("transport.CutTimeCache")
    put("transport.CutTimeCache.lookups", lookups * per, "calls/item")
    put("transport.CutTimeCache.hit_ratio",
        1.0 - calls("geometry.null_cut_time") / lookups if lookups else 0.0, "ratio")
    vq = "transport.validate_query"
    put(vq + ".self_ms", self_ms(vq) * per, "ms/item")
    put(vq + ".rejected", counts.get(vq + ".rejected", 0) * per, "count/item")
    put("linalg.expm_skew.calls", calls("linalg.expm_skew") * per, "calls/item")
    for name in ("linalg.expm_skew", "linalg.dexpm_skew"):
        put(name + ".matrices", counts.get(name + ".matrices", 0) * per, "matrices/item")
        put(name + ".self_ms", self_ms(name) * per, "ms/item")
    put("linalg.polar_project.calls", calls("linalg.polar_project") * per, "calls/item")
    for name in ("gauge.ConnectionField.pairing", "gauge.GaugedConnection.pairing"):
        put(name + ".points", counts.get(name + ".points", 0) * per, "points/item")
        put(name + ".self_ms", self_ms(name) * per, "ms/item")
    for name in ("reconstruction.diamond_grid", "reconstruction.reconstruct_gauge"):
        put(name + ".self_ms", self_ms(name) * per, "ms/item")
    for mode in ("honest", "synthetic"):
        key = "reconstruction.gauge_candidate." + mode
        put(key, counts.get(key, 0) * per, "calls/item")
    put("reconstruction.verify.self_ms", self_ms("reconstruction.verify") * per, "ms/item")
    for name in ("build_interaction_geometry", "simulated_measurement",
                 "flowout_disjointness"):
        put(f"symcalc.{name}.self_ms", self_ms("symcalc." + name) * per, "ms/item")
    put("config.Fixture.self_ms",
        setup_report["layers"].get("config.Fixture", {}).get("self_ms", 0.0), "ms")
    return out
