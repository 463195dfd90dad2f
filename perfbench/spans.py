"""Spans around calls into dtalloc's public functions, recorded from outside.

A traced invocation replaces each function named in WRAPPED, in every
dtalloc module that holds a reference to it (so `from .config import
resolve` in cli is caught too), with a wrapper that records a span: name,
start, end and the span that was open when it was called.  Spans stay in
memory and are written out when the benchmark ends; self time and the
per-layer figures are computed from them afterwards.

The coverage guard makes a rename loud: a wrapped name missing from its
module, or a required span that never fires, raises SpanCoverageError.
"""
from __future__ import annotations

import importlib
import os
import sys
import time

PACKAGE = "dtalloc"

# layer (= dtalloc module) -> public functions timed in a traced run
WRAPPED = {
    "config": ("load_config", "resolve", "sweep_point"),
    "network": ("spectral_report",),
    "stepsizes": ("constants", "optimal_stepsizes", "wga_default_alpha",
                  "feasible_region_shared", "feasible_region_mean",
                  "feasible_region_uncoordinated"),
    "costs": ("kkt_solve",),
    "engine": ("run",),
    "metrics": ("aggregate", "empirical_rate", "loglinear_r2",
                "non_convergent"),
    "cli": ("main", "_write_trace_csv", "_write_summary"),
}

# Wrapped, so a rename is caught, but not called by every invocation: the
# mean and per-agent regions only from `bounds` or per-agent plans,
# sweep_point only when sweeping (then it is required).  Every other wrapped
# name must fire in every invocation.
OPTIONAL = {"stepsizes.feasible_region_mean",
            "stepsizes.feasible_region_uncoordinated", "config.sweep_point"}


class SpanCoverageError(RuntimeError):
    pass


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "info")

    def __init__(self, id, name, parent):
        self.id, self.name, self.parent = id, name, parent
        self.start = self.end = 0.0
        self.info = None

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    def as_dict(self):
        return {"id": self.id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "info": self.info}


def _engine_info(args, kwargs, result):
    steps = result.diverged_at if result.diverged else result.iterations
    return {"replicas": result.replicas, "requested": result.iterations,
            "simulated": steps}


def _trace_info(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


INFO = {"engine.run": _engine_info, "cli._write_trace_csv": _trace_info}


class Tracer:
    """Context manager: wraps WRAPPED on entry, restores it on exit."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []

    def __enter__(self):
        targets = {}
        missing = []
        for layer, names in WRAPPED.items():
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    missing.append(f"{layer}.{name}")
                else:
                    targets[id(fn)] = (fn, self._wrap(f"{layer}.{name}", fn))
        if missing:
            raise SpanCoverageError(f"wrapped names missing from their modules: "
                                    f"{', '.join(missing)}")
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == PACKAGE
                                      or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(module).items()):
                hit = targets.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, value))
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        return False

    def _wrap(self, name, fn):
        spans, stack, info = self.spans, self._stack, INFO.get(name)

        def traced(*args, **kwargs):
            span = Span(len(spans), name, stack[-1] if stack else None)
            spans.append(span)
            stack.append(span.id)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if info is not None:
                span.info = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced


def check_coverage(spans, required):
    """Raise unless every required span name fired at least once."""
    fired = {s.name for s in spans}
    silent = sorted(set(required) - fired)
    if silent:
        raise SpanCoverageError(f"expected spans never fired: {', '.join(silent)}")


def required_spans(sweeps):
    names = {f"{layer}.{n}" for layer, ns in WRAPPED.items() for n in ns}
    names -= OPTIONAL
    if sweeps:
        names.add("config.sweep_point")
    return names


def layer_metrics(spans):
    """Per-layer figures (seconds unless named otherwise) of one invocation."""
    by_id = {s.id: s for s in spans}
    child = {}
    for s in spans:
        if s.parent is not None:
            child[s.parent] = child.get(s.parent, 0.0) + s.duration

    def self_time(name):
        return sum(s.duration - child.get(s.id, 0.0) for s in spans if s.name == name)

    def inclusive(name):
        return sum(s.duration for s in spans if s.name == name)

    def outermost(layer):
        # a layer's spans not nested in another span of the same layer
        total = 0.0
        for s in spans:
            if s.layer != layer:
                continue
            p = s.parent
            while p is not None and by_id[p].layer != layer:
                p = by_id[p].parent
            if p is None:
                total += s.duration
        return total

    runs = [s.info for s in spans if s.name == "engine.run"]
    simulated = sum(r["replicas"] * r["simulated"] for r in runs)
    requested = sum(r["replicas"] * r["requested"] for r in runs)
    engine_s = self_time("engine.run")
    return {
        "engine.run_s": engine_s,
        "engine.us_per_replica_step": 1e6 * engine_s / simulated,
        "engine.calls": len(runs),
        "engine.replica_steps": simulated,
        "engine.useful_step_ratio": simulated / requested,
        "cli.write_trace_s": inclusive("cli._write_trace_csv"),
        "cli.write_trace_bytes": sum(s.info["bytes"] for s in spans
                                     if s.name == "cli._write_trace_csv"),
        "cli.write_summary_s": inclusive("cli._write_summary"),
        "cli.self_s": self_time("cli.main"),
        "config.load_s": inclusive("config.load_config"),
        "config.resolve_s": self_time("config.resolve"),
        "config.sweep_point_s": inclusive("config.sweep_point"),
        "network.spectral_report_s": inclusive("network.spectral_report"),
        "stepsizes.s": outermost("stepsizes"),
        "costs.kkt_solve_s": inclusive("costs.kkt_solve"),
        "metrics.s": outermost("metrics"),
    }
