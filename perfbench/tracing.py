"""Spans around metricflow's module boundaries, installed from outside the package.

The layers are the package modules.  A call is traced where another module,
or the driver, calls into a layer: the name is rebound in the caller's
module, so recursion inside a layer is not counted.  Names that a module
imports lazily inside a function body are rebound in their own module, and
the methods below are wrapped on their classes.

Each span records its name, start, end and parent span; the spans of one
process belong to one invocation.  They are kept in memory and written out
when the command returns.  A layer's self time is the duration of its spans
minus the part covered by their child spans.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from collections import defaultdict
from functools import wraps

import numpy as np

LAYERS = ("cli", "exprlang", "phasespace", "dynamics", "helmholtz", "evolution", "brackets", "friction")
# imported inside function bodies, so rebinding the caller's name misses them
LAZY = {"evolution": ("pullback_metric", "transported_d_dx", "transported_d_dt"), "dynamics": ("_integrate",)}
CLI_STEPS = ("load_config", "cmd_classify", "cmd_evolve_metric", "cmd_audit", "cmd_bracket")
METHODS = {
    "dynamics.VectorFieldSpec": ("eval", "jacobian", "divergence"),
    "evolution.SeriesPropagator": ("propagate",),
    "friction.FrictionSystem": ("growth_matrix",),
}
METRIC_METHODS = ("value", "d_dx", "d_dt")  # wrapped on every MetricField subclass


def _count_nodes(counters, args, result, state, dur):
    counters["exprlang.count_nodes.nodes"] += result


def _propagate(counters, args, result, state, dur):
    info = result[1]
    path = info.path.replace("-", "_")
    counters[f"evolution.propagate.{path}.calls"] += 1
    counters[f"evolution.propagate.{path}.s"] += dur
    if info.path == "series":
        counters["evolution.propagate.series_terms"] += info.terms


def _integration_stats(prefix, get_stats):
    def observe(counters, args, result, state, dur):
        stats = get_stats(result)
        counters[f"{prefix}.steps"] += stats.n_steps
        counters[f"{prefix}.rejected"] += stats.n_rejected

    return observe


def _cache_size(args):
    return len(args[0]._cache)


def _transported_value(counters, args, result, state, dur):
    counters["phasespace.TransportedMetric.value.hits"] += len(args[0]._cache) == state


OBSERVERS = {
    "exprlang.count_nodes": (None, _count_nodes),
    "evolution.SeriesPropagator.propagate": (None, _propagate),
    "dynamics.integrate_flow": (None, _integration_stats("dynamics.integrate_flow", lambda r: r.stats)),
    "dynamics._integrate": (None, _integration_stats("dynamics._integrate", lambda r: r[2])),
    "phasespace.TransportedMetric.value": (_cache_size, _transported_value),
}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list = []  # (name id, start, end, parent index or -1)
        self._stack = [-1]
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, fn, name: str):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        before, observe = OBSERVERS.get(name, (None, None))
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            state = before(args) if before else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent)
            if observe:
                observe(counters, args, result, state, end - start)
            return result

        return traced

    def install(self):
        mods = {name: importlib.import_module(f"metricflow.{name}") for name in LAYERS}
        owner_of = {mod.__name__: name for name, mod in mods.items()}
        originals = {layer: {a: getattr(mods[layer], a) for a in attrs} for layer, attrs in LAZY.items()}
        for caller, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                owner = owner_of.get(getattr(obj, "__module__", None))
                if isinstance(obj, types.FunctionType) and owner not in (None, caller):
                    setattr(mod, attr, self.wrap(obj, f"{owner}.{attr}"))
        for layer, attrs in originals.items():
            for attr, fn in attrs.items():
                setattr(mods[layer], attr, self.wrap(fn, f"{layer}.{attr}"))
        for attr in CLI_STEPS:
            setattr(mods["cli"], attr, self.wrap(getattr(mods["cli"], attr), f"cli.{attr}"))
        metric_base = mods["phasespace"].MetricField
        for layer, mod in mods.items():
            for cls in [c for c in vars(mod).values() if isinstance(c, type) and c.__module__ == mod.__name__]:
                methods = METHODS.get(f"{layer}.{cls.__name__}", ())
                if issubclass(cls, metric_base) and cls is not metric_base:
                    methods = METRIC_METHODS
                for meth in methods:
                    if meth in vars(cls):
                        setattr(cls, meth, self.wrap(vars(cls)[meth], f"{layer}.{cls.__name__}.{meth}"))

    def summary(self) -> dict:
        """Calls and busy time per traced name, self time per layer, counters."""
        out = dict(self.counters)
        out["trace.spans"] = len(self.spans)
        if not self.spans:
            return out
        arr = np.array(self.spans, dtype=float)
        nid, parent = arr[:, 0].astype(int), arr[:, 3].astype(int)
        dur = arr[:, 2] - arr[:, 1]
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        calls = np.bincount(nid, minlength=len(self.names))
        busy = np.bincount(nid, weights=dur, minlength=len(self.names))
        own = np.bincount(nid, weights=dur - child, minlength=len(self.names))
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[i])
            out[f"{name}.s"] = float(busy[i])
            layer = name.partition(".")[0]
            out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + float(own[i])
        out["trace.compute_s"] = float(dur[parent < 0].sum())
        return out

    def write_spans(self, path: str, invocation: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"invocation": invocation, "names": self.names, "spans": self.spans}, fh)
