"""Spans around the public entry points of permsphere, recorded from outside.

The tracer rebinds each entry point listed in ``LAYERS`` to a wrapper that
records a span (layer, start, end, parent) and per-layer counters. Nothing
under ``src/`` is changed: the wrappers are installed at run time in every
``permsphere.*`` module namespace that holds the original function, because
the package imports functions by name (``verify`` and ``cli`` hold their own
references to ``pipeline_sphere``, ``growth`` to ``beta_table`` and so on).

The benchmark opens one root span around each phase of its own work. The
spans under each call the root makes stay in memory until that call
returns; the tree is then folded into per-layer totals, which keeps memory
bounded on workloads that make millions of calls. ``self_times`` is the one
place self time is defined.
"""
from __future__ import annotations

import functools
import importlib
import math
import sys
import time

# layer -> (module, attribute path) of its public entry points.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli": (("permsphere.cli", "main"),),
    "verify": (("permsphere.verify", "run_verify"),),
    "growth.build": (
        ("permsphere.growth", "sphere_polynomial"),
        ("permsphere.growth", "ball_polynomial"),
        ("permsphere.growth", "q_polynomial"),
    ),
    "growth.expand": (("permsphere.growth", "to_rational"),),
    "growth.eval": (
        ("permsphere.growth", "BinomialPoly.evaluate"),
        ("permsphere.growth", "RationalPoly.evaluate"),
    ),
    "enumeration.pipeline": (
        ("permsphere.enumeration", "pipeline_sphere"),
        ("permsphere.enumeration", "pipeline_ball"),
    ),
    "enumeration.convolution": (("permsphere.enumeration", "BetaTable.beta"),),
    "enumeration.base": (("permsphere.enumeration", "connected_histogram"),),
    "enumeration.oracle": (("permsphere.enumeration", "group_histogram"),),
}

# The benchmark's own code around the work of one phase; its self time is
# the time no layer above accounts for.
ROOT = "bench"
CONVOLUTION = "enumeration.convolution"
# Layers whose calls are keyed by (metric, degree) and memoized by the program.
KEYED = ("enumeration.base", "enumeration.oracle")


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span: its duration minus the durations of its
    direct children. ``spans`` holds [layer, start, end, parent index]."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


class LayerStats:
    __slots__ = ("calls", "total_s", "self_s", "inner_calls", "terms")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.inner_calls = 0
        self.terms = 0


class Tracer:
    """Records spans while ``active``; ``phase`` labels the root trees."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.active = False
        self.phase = "setup"
        self.stats: dict[str, dict[str, LayerStats]] = {}
        # Arguments seen by the memoized layers, over all phases.
        self.keys: dict[str, set[tuple]] = {layer: set() for layer in KEYED}
        self.absent: list[str] = []
        self.missing: list[str] = []
        self._spans: list[list] = []
        self._open: list[int] = []
        self._carried: dict[int, float] = {}
        self._in_convolution = False

    # -- recording ---------------------------------------------------------

    def _layer(self, layer: str) -> LayerStats:
        phase = self.stats.setdefault(self.phase, {})
        if layer not in phase:
            phase[layer] = LayerStats()
        return phase[layer]

    def span(self, layer: str, fn, args: tuple, kwargs: dict):
        parent = self._open[-1] if self._open else -1
        index = len(self._spans)
        record = [layer, self.clock(), 0.0, parent]
        self._spans.append(record)
        self._open.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            record[2] = self.clock()
            self._open.pop()
            if len(self._open) <= 1:
                self._fold(len(self._open))
        if layer in KEYED:
            self.keys[layer].add(tuple(args) + tuple(sorted(kwargs.items())))
        elif layer == "growth.build":
            self._layer(layer).terms += len(getattr(result, "terms", ()))
        return result

    def _fold(self, keep: int) -> None:
        """Fold the closed spans after the first ``keep`` (the open root, if
        any) into the per-layer totals and drop them. The time of the
        root's folded children is carried until the root itself closes."""
        spans = self._spans
        own = self_times(spans)
        for i in range(keep, len(spans)):
            layer, start, end, parent = spans[i]
            stats = self._layer(layer)
            stats.calls += 1
            stats.self_s += own[i] - self._carried.pop(i, 0.0)
            if 0 <= parent < keep:
                self._carried[parent] = self._carried.get(parent, 0.0) + end - start
            while parent >= 0 and spans[parent][0] != layer:
                parent = spans[parent][3]
            if parent < 0:
                stats.total_s += end - start
        del spans[keep:]

    def run(self, phase: str, fn, *args):
        """Run ``fn`` as a root span of the benchmark's own code in ``phase``."""
        self.phase = phase
        self.active = True
        try:
            return self.span(ROOT, fn, args, {})
        finally:
            self.active = False

    # -- installation ------------------------------------------------------

    def _wrap(self, layer: str, fn):
        if layer == CONVOLUTION:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                if self._in_convolution:
                    self._layer(layer).inner_calls += 1
                    return fn(*args, **kwargs)
                self._in_convolution = True
                try:
                    return self.span(layer, fn, args, kwargs)
                finally:
                    self._in_convolution = False
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not self.active:
                    return fn(*args, **kwargs)
                return self.span(layer, fn, args, kwargs)
        return wrapper

    def install(self) -> None:
        """Wrap every entry point in ``LAYERS`` that exists.

        A missing entry point is listed in ``missing``; a layer whose entry
        points are all missing is listed in ``absent``.
        """
        for layer, entries in LAYERS.items():
            found = 0
            for module_name, path in entries:
                try:
                    module = importlib.import_module(module_name)
                except ModuleNotFoundError:
                    module = None
                owner_name, _, attr = path.rpartition(".")
                owner = getattr(module, owner_name, None) if owner_name else module
                original = getattr(owner, attr, None) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{path}")
                    continue
                found += 1
                wrapper = self._wrap(layer, original)
                if owner_name:
                    setattr(owner, attr, wrapper)
                    continue
                for name, mod in list(sys.modules.items()):
                    if mod is None or not (name == "permsphere" or name.startswith("permsphere.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
            if not found:
                self.absent.append(layer)

    # -- report ------------------------------------------------------------

    def report(self) -> dict:
        """Calls, total and self time per phase and layer, and the distinct
        (metric, degree) arguments of the memoized layers."""
        phases = {}
        for phase, layers in self.stats.items():
            phases[phase] = {}
            for layer, s in layers.items():
                row = {"calls": s.calls, "total_s": s.total_s, "self_s": s.self_s}
                if layer == CONVOLUTION:
                    row["inner_calls"] = s.inner_calls
                elif layer == "growth.build":
                    row["terms"] = s.terms
                phases[phase][layer] = row
        keys = {}
        for layer, seen in self.keys.items():
            degrees = [key[1] for key in seen]
            keys[layer] = {"distinct_keys": len(seen), "max_m": max(degrees, default=0)}
            if layer == "enumeration.oracle":
                keys[layer]["perms"] = sum(math.factorial(n) for n in degrees)
        return {"absent": self.absent, "missing": self.missing, "phases": phases, "keys": keys}
