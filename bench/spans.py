"""Span tracing of the vixsabr layers, done from outside the package.

The package imports names by value (``from .mc import
simulate_capped_paths``), so a function is wrapped at every module that
binds it and calls it, not only where it is defined.
``Tracer.installed`` replaces those bindings and restores every one of
them on exit.

A span records its name, start, end, parent span and operation id.
Spans stay in memory until the run writes them out.  A span opened on a
worker thread with no open span of its own takes as parent the span
open on the thread that installed the tracer, which is the one waiting
on the worker pool.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int


# (module, attribute, span name): each call records a span.
SPANS = (
    ("vixsabr.cli", "main", "cli.command"),
    ("vixsabr.cli", "_load_config", "cli.config_load"),
    ("vixsabr.cli", "explosion_verdict", "scale.explosion_verdict"),
    ("vixsabr.cli", "martingale_diagnostic", "scale.martingale_diagnostic"),
    ("vixsabr.cli", "simulate_capped_paths", "mc.simulate_capped_paths"),
    ("vixsabr.cli", "estimate_forward", "mc.estimate_forward"),
    ("vixsabr.cli", "smile_from_paths", "pricing.smile_from_paths"),
    ("vixsabr.cli", "rate_convergence_study", "pricing.rate_convergence_study"),
    ("vixsabr.cli", "limiting_implied_vol", "asymptotics.limiting_implied_vol"),
    ("vixsabr.pricing", "simulate_capped_paths", "mc.simulate_capped_paths"),
    ("vixsabr.pricing", "estimate_forward", "mc.estimate_forward"),
    ("vixsabr.pricing", "price_vix_option", "mc.price_vix_option"),
    ("vixsabr.pricing", "implied_vol", "pricing.implied_vol"),
    ("vixsabr.pricing", "rate_function", "asymptotics.rate_function"),
    ("vixsabr.mc", "simulate_capped_paths", "mc.simulate_capped_paths"),
    ("vixsabr.mc", "estimate_vix_nested", "mc.estimate_vix_nested"),
    ("vixsabr.mc", "capped_vol_diffusion", "model.capped_vol_diffusion"),
    ("vixsabr.mc", "capped_vol_drift", "model.capped_vol_drift"),
    ("vixsabr.scale", "scale_function_limit", "scale.scale_function_limit"),
    ("vixsabr.scale", "feller_test_function", "scale.feller_test_function"),
)

# (module, attribute, counter name): calls are counted without a span,
# because they run thousands of times per operation.
COUNTED = (
    ("vixsabr.pricing", "bs_price", "pricing.bs_price"),
    ("vixsabr.scale", "scale_exponent", "scale.scale_exponent"),
    ("vixsabr.cli", "_write_atomic", "cli.write"),
)

# Counted in a separate replay round, because comparing every clamped
# coefficient array with its cap is too costly for the traced rounds.
CAP_REPLAY = (
    ("vixsabr.mc", "capped_vol_diffusion", "cap.diffusion"),
    ("vixsabr.mc", "capped_vol_drift", "cap.drift"),
)


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _path_steps(args, kwargs, result):
    mc = _arg(args, kwargs, 2, "mc")
    return [("mc.path_steps", mc.n_paths * mc.n_steps)]


def _inner_path_steps(args, kwargs, result):
    mc = _arg(args, kwargs, 2, "mc")
    return [("mc.inner_path_steps", mc.n_paths * mc.inner_paths * mc.inner_steps)]


def _diffusion_binds(args, kwargs, result):
    caps = _arg(args, kwargs, 2, "caps")
    return [("cap.diffusion.path_steps", np.size(result)),
            ("cap.diffusion.bound", int(np.count_nonzero(result == caps.vol_cap)))]


def _drift_binds(args, kwargs, result):
    caps = _arg(args, kwargs, 2, "caps")
    return [("cap.drift.path_steps", np.size(result)),
            ("cap.drift.bound",
             int(np.count_nonzero(np.abs(result) == caps.drift_cap)))]


def _smile_statuses(args, kwargs, result):
    return [(f"pricing.status.{point.status}", 1) for point in result]


def _output_bytes(args, kwargs, result):
    return [("cli.output_bytes", len(_arg(args, kwargs, 1, "text").encode()))]


def _quad_neval(args, kwargs, result):
    info = result[2] if isinstance(result, tuple) and len(result) > 2 else None
    return [("scale.quad.neval", info["neval"])] if isinstance(info, dict) else []


# Counters derived from each call's arguments and result.  The cap
# counters compare the clamped coefficient with the cap itself, which
# equals it exactly where the clamp acted.
HOOKS = {
    "mc.simulate_capped_paths": _path_steps,
    "mc.estimate_vix_nested": _inner_path_steps,
    "cap.diffusion": _diffusion_binds,
    "cap.drift": _drift_binds,
    "pricing.smile_from_paths": _smile_statuses,
    "cli.write": _output_bytes,
    "scale.quad": _quad_neval,
}


class _ModuleProxy:
    """A module with some attributes replaced; the rest pass through."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Spans and counters of the calls made while it is installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, increments) -> None:
        with self._lock:
            for key, amount in increments:
                self.counts[key] += amount

    def wrap(self, fn, name: str, span: bool = True):
        hook = HOOKS.get(name)
        if not span:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                extra = hook(args, kwargs, result) if hook else []
                self._record([(f"{name}.calls", 1), *extra])
                return result
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else (
                self._main_stack[-1] if self._main_stack else None)
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(Span(span_id, name, start, end, parent,
                                           self.op, threading.get_ident()))
            if hook:
                self._record(hook(args, kwargs, result))
            return result
        return traced

    @contextmanager
    def installed(self, spans=SPANS, counted=COUNTED, quad=True):
        """Wrap the given bindings, and scipy's quad as scale.integrate
        sees it; restore all of them on exit."""
        saved = []
        try:
            for bindings, span in ((spans, True), (counted, False)):
                for module_name, attr, name in bindings:
                    module = importlib.import_module(module_name)
                    saved.append((module, attr, getattr(module, attr)))
                    setattr(module, attr,
                            self.wrap(getattr(module, attr), name, span))
            if quad:
                scale = importlib.import_module("vixsabr.scale")
                saved.append((scale, "integrate", scale.integrate))
                scale.integrate = _ModuleProxy(
                    scale.integrate,
                    quad=self.wrap(scale.integrate.quad, "scale.quad"))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds.

        Self time is a span's duration minus the part of it covered by
        its child spans; children on worker threads may overlap, so the
        covered part is the union of their intervals.
        """
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append(span)
        out = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for span in self.spans:
            duration = span.end - span.start
            agg = out[span.name]
            agg["calls"] += 1
            agg["s"] += duration
            agg["self_s"] += duration - _covered(span, children.get(span.id, ()))
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def _covered(span: Span, kids) -> float:
    intervals = sorted((max(k.start, span.start), min(k.end, span.end))
                       for k in kids)
    total, lo, hi = 0.0, None, None
    for a, b in intervals:
        if b <= a:
            continue
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total
