"""Spans around the calls into each hbvp layer, recorded from outside.

A layer is one module of `src/hbvp/`.  `Tracer.install` wraps every
public function of each layer, both in the module that defines it and in
every hbvp module that binds it by `from ... import` (so `analysis.
holder_norm` and `cli.solve_bvp_direct` are wrapped too), plus the
`GridFunction.eval_at` and `GridFunction.derivative` methods.  Each call
opens a span with its name, start, end and parent span; spans stay in
memory until `write_spans`.  Exact work counters are computed from each
call's arguments and result, never from the program's internals.
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
import types
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = ("cli", "analysis", "solver", "problem", "grid", "chebyshev", "expr")
GRID_METHODS = ("eval_at", "derivative")
SOLVES = ("solver.solve_bvp_direct", "solver.solve_bvp")


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _bound(sig, args, kwargs) -> dict:
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _seminorm_pairs(sig, args, kwargs, result) -> dict:
    """entries * P^2, P = uniform samples plus Chebyshev nodes."""
    a = _bound(sig, args, kwargs)
    g, M = a["g"], a["M"]
    ts = np.unique(np.concatenate([g.a + (g.b - g.a) * np.arange(M + 1) / M,
                                   g.nodes]))
    P = 1 + int(np.count_nonzero(np.diff(ts) > 1e-9 * (g.b - g.a)))
    return {"pairs": g.shape[0] * g.shape[1] * P * P}


def _bary_cells(sig, args, kwargs, result) -> dict:
    return {"cells": np.size(_arg(args, kwargs, 1, "x"))
            * len(_arg(args, kwargs, 0, "nodes"))}


def _eval_points(sig, args, kwargs, result) -> dict:
    return {"points": np.size(_arg(args, kwargs, 1, "ts"))}


def _expr_points(sig, args, kwargs, result) -> dict:
    return {"points": np.size(_arg(args, kwargs, 1, "t"))}


def _product_capped(sig, args, kwargs, result) -> dict:
    f, g = _arg(args, kwargs, 0, "f"), _arg(args, kwargs, 1, "g")
    return {"capped": int(result.N < f.N + g.N)}


def _dense_square(sig, args, kwargs, result) -> dict:
    """n^3 of the collocation matrix (n = rows = cols) the call built."""
    return {"dense_n3": result.shape[1] ** 3}


def _dense_first_order(sig, args, kwargs, result) -> dict:
    X = getattr(result, "X", result)   # FundamentalMatrix or GridFunction
    return {"dense_n3": (X.shape[0] * (X.N + 1)) ** 3}


def _written_bytes(sig, args, kwargs, result) -> dict:
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}


# counter hooks by span name; the counter is reported as <layer>.<key>
# for layer-wide totals and <span>.<key> otherwise
HOOKS = {
    "grid.holder_seminorm": _seminorm_pairs,
    "chebyshev.bary_matrix": _bary_cells,
    "grid.eval_at": _eval_points,
    "expr.evaluate": _expr_points,
    "grid.product": _product_capped,
    "solver.collocation_matrix": _dense_square,
    "solver.fundamental_matrix": _dense_first_order,
    "solver.particular_solution": _dense_first_order,
    "analysis.write_csv": _written_bytes,
    "analysis.write_json": _written_bytes,
}
LAYER_COUNTERS = {"dense_n3": "solver.dense_n3",
                  "bytes": "analysis.write.bytes"}


class Tracer:
    """Records spans while installed; `uninstall` restores the program."""

    def __init__(self):
        self.names: list[str] = []
        self.parents: list[int] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.outer: list[bool] = []   # no enclosing span of the same name
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._hook_s: Counter = Counter()   # counting time, by parent span
        self._patches: list = []
        self._last_rejected = None

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn) if hook is not None else None
        names, parents, starts, ends, outer = (
            self.names, self.parents, self.starts, self.ends, self.outer)
        stack, active, hook_s = self._stack, self._active, self._hook_s

        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            outer.append(active[name] == 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            active[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self._on_error(name, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                active[name] -= 1
                starts[sid] = start
                ends[sid] = end
            if hook is not None:
                for key, value in hook(sig, args, kwargs, result).items():
                    self.counters[LAYER_COUNTERS.get(key, f"{name}.{key}")] \
                        += value
                # keep counting out of the enclosing span's self time
                hook_s[parents[sid]] += perf_counter() - end
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    def _on_error(self, name: str, exc: Exception):
        # a rejected retry propagates through the outer solve: count once
        if (name in SOLVES and type(exc).__name__ == "SolveRejected"
                and exc is not self._last_rejected):
            self._last_rejected = exc
            self.counters["solver.rejected"] += 1

    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [importlib.import_module("hbvp")] + [
            importlib.import_module(f"hbvp.{layer}") for layer in LAYERS]
        wrappers = {}
        for mod in modules[1:]:
            layer = mod.__name__.split(".")[-1]
            for attr, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType)
                        and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])
        grid_function = importlib.import_module("hbvp.grid").GridFunction
        for attr in GRID_METHODS:
            self._patch(grid_function, attr,
                        self._wrap(f"grid.{attr}",
                                   grid_function.__dict__[attr]))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict:
        """Per-span calls and inclusive seconds, per-layer self seconds
        and the exact counters.

        Inclusive time counts only spans with no enclosing span of the
        same name, so recursion is not counted twice.  Self time is a
        span's duration minus its direct child spans and the time spent
        counting their work.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        covered = [self._hook_s[i] for i in range(n)]
        for i, p in enumerate(self.parents):
            if p >= 0:
                covered[p] += dur[i]
        out = Counter()
        for layer in LAYERS:
            out[f"{layer}.self_s"] = 0.0
        for i, name in enumerate(self.names):
            out[f"{name}.calls"] += 1
            if self.outer[i]:
                out[f"{name}.s"] += dur[i]
            out[f"{name.split('.')[0]}.self_s"] += dur[i] - covered[i]
            if name in SOLVES and not self.outer[i]:
                out["solver.retries"] += 1
        out.update(self.counters)
        out["trace.spans"] = n
        return dict(out)

    def write_spans(self, path: str, origin: float):
        """One JSON object per line: id, name, start, end (s), parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for i, name in enumerate(self.names):
                fh.write(json.dumps({
                    "id": i, "name": name,
                    "start": round(self.starts[i] - origin, 9),
                    "end": round(self.ends[i] - origin, 9),
                    "parent": self.parents[i]}) + "\n")
