"""Span tracing of the package's layers from outside the package.

A ``Tracer`` wraps every public function of every layer module. The
same function is often bound under several names (``from .x import y``
copies, the package ``__init__`` re-exports, and the module attribute
that call-time imports read), so every binding is replaced, and every
one is put back on exit.

Each call records a span: name, start, end and parent span. Spans are
kept in flat arrays in memory and can be written out when the run
ends. Self time is a span's duration minus the time its child spans
cover.
"""
from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from types import ModuleType

import numpy as np

PACKAGE = "cohesive_transport"
LAYERS = ("eigensolve", "network", "dynamics", "stability", "tuning",
          "trajectory", "scenario", "metrics", "cli", "benchmark")
STEP_FUNCTIONS = ("dynamics.step_baseline", "dynamics.step_dsr")


def _matrix_key(args, kwargs):
    matrix = args[0] if args else kwargs["matrix"]
    return hashlib.sha1(np.ascontiguousarray(matrix, dtype=float).tobytes()).hexdigest()


def _scenario_key(args, kwargs):
    scenario = args[0] if args else kwargs["scenario"]
    # label and out_dir name a run, they do not change what is simulated
    return repr((scenario.network, scenario.controller, scenario.trajectory,
                 scenario.duration))


# span name -> key of the input, for the distinct-input ratios
_DISTINCT_KEYS = {"eigensolve.eigen_decompose": _matrix_key,
                  "dynamics.simulate": _scenario_key}


def layer_functions() -> dict[object, str]:
    """{function: "layer.name"} for every public function a layer defines."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for name, obj in vars(module).items():
            if (not name.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                found[obj] = f"{layer}.{name}"
    return found


def package_modules() -> list[ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Context manager: while active, every layer function records spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[ModuleType, str, object]] = []
        self.site_calls: Counter = Counter()
        self.distinct: dict[str, set] = {name: set() for name in _DISTINCT_KEYS}
        self.robot_steps = 0

    def _wrap(self, func, span_name: str, site: str):
        if span_name not in self._name_ids:
            self._name_ids[span_name] = len(self.names)
            self.names.append(span_name)
        sid = self._name_ids[span_name]
        key_fn = _DISTINCT_KEYS.get(span_name)
        distinct = self.distinct.get(span_name)
        is_step = span_name in STEP_FUNCTIONS
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        stack, clock, sites = self._stack, time.perf_counter, self.site_calls

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            sites[site] += 1
            if key_fn is not None:
                distinct.add(key_fn(args, kwargs))
            if is_step:
                self.robot_steps += len(args[0].positions)
            idx = len(start)
            name_id.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return func(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        return wrapper

    def __enter__(self) -> "Tracer":
        targets = layer_functions()
        for module in package_modules():
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in targets:
                    site = f"{module.__name__.removeprefix(PACKAGE + '.')}.{attr}"
                    self._patches.append((module, attr, value))
                    setattr(module, attr, self._wrap(value, targets[value], site))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def mark(self) -> int:
        """Index of the next span, to cut the record into passes."""
        return len(self.start)

    def reset_counters(self) -> None:
        self.site_calls.clear()
        for keys in self.distinct.values():
            keys.clear()
        self.robot_steps = 0

    def aggregate(self, first: int, last: int) -> dict[str, dict[str, float]]:
        """{span name: {"calls", "self_s", "total_s"}} over spans [first, last)."""
        names = np.array(self.name_id[first:last], dtype=np.int64)
        parents = np.array(self.parent[first:last], dtype=np.int64) - first
        dur = np.array(self.end[first:last]) - np.array(self.start[first:last])
        nested = parents >= 0
        child = np.bincount(parents[nested], weights=dur[nested], minlength=len(dur))
        own = dur - child
        # a span directly inside a span of the same name is already in its total
        outer = np.ones(len(dur), dtype=bool)
        outer[nested] = names[nested] != names[parents[nested]]
        counts = np.bincount(names, minlength=len(self.names))
        selfs = np.bincount(names, weights=own, minlength=len(self.names))
        totals = np.bincount(names[outer], weights=dur[outer], minlength=len(self.names))
        return {name: {"calls": int(counts[i]), "self_s": float(selfs[i]),
                       "total_s": float(totals[i])}
                for i, name in enumerate(self.names)}

    def write(self, path: Path) -> None:
        """All spans as parallel arrays, with the name table."""
        np.savez(path, names=np.array(self.names),
                 name_id=np.array(self.name_id, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int64),
                 start=np.array(self.start), end=np.array(self.end))
