"""Timing wrappers that stand in for flockspc module attributes in a traced run.

A span is named `<calling module>.<function>` after the module whose global
the wrapper replaces: `engine.evaluate_cost` is the once-per-decision cost the
engine records, `controller.evaluate_cost` is candidate scoring inside
`spc_setpoint`.  The parent of a call is whatever span is on top of the stack
when it starts; a span's self time is its total time minus the time of its
direct children.  Stats stay in memory until the caller reads them.

Only attributes that exist are wrapped, so the same file runs on versions of
the package that moved or removed a function: a missing one reads 0 calls.
"""

from __future__ import annotations

import functools
import importlib
import time
from typing import Callable

# (calling module, attribute in that module, span suffix).  "Class.method"
# wraps a method on the class.
SPANS = (
    ("engine", "parse_scenario", "parse_scenario"),
    ("engine", "Simulation.__init__", "simulation_init"),
    ("engine", "Simulation.tick", "tick"),
    ("engine", "observation_stream", "observation_stream"),
    ("engine", "observe", "observe"),
    ("engine", "evaluate_cost", "evaluate_cost"),
    ("engine", "evaluate_gradient", "evaluate_gradient"),
    ("engine", "spc_setpoint", "spc_setpoint"),
    ("engine", "pfc_setpoint", "pfc_setpoint"),
    ("controller", "evaluate_gradient", "evaluate_gradient"),
    ("controller", "evaluate_cost", "evaluate_cost"),
    ("controller", "build_candidate_set", "build_candidate_set"),
    ("engine", "pid_xy_tilt", "pid_xy_tilt"),
    ("engine", "explicit_xy_tilt", "explicit_xy_tilt"),
    ("engine", "integrate_plant", "integrate_plant"),
    ("engine", "write_trace_csv", "write_trace_csv"),
    ("metrics", "aggregate", "aggregate"),
    ("metrics", "write_summary_json", "write_summary_json"),
)

SPAN_NAMES = tuple(f"{module}.{suffix}" for module, _, suffix in SPANS)

# Layers are the package modules; a span belongs to the module that defines
# the wrapped function (presets and cli are not timed).
LAYERS = ("model", "controller", "llc", "engine", "metrics")


class Span:
    __slots__ = ("calls", "total_s", "child_s", "layer")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.child_s = 0.0
        self.layer = ""

    @property
    def self_s(self) -> float:
        return self.total_s - self.child_s


class Tracer:
    """Wraps the SPANS while installed.  commit() adds the span times of the
    last install, scaled, to the totals in `spans`."""

    def __init__(self) -> None:
        self.spans = {name: Span() for name in SPAN_NAMES}
        self._current = {name: Span() for name in SPAN_NAMES}
        self.missing: set[str] = set()
        self.candidates = 0
        self.holds = 0
        self.neighbors = 0
        self.tilt_axes = 0
        self.tilt_saturated = 0
        self._stack: list[float] = []
        self._patched: list[tuple[object, str, object]] = []
        self._hooks: dict[str, Callable] = {
            "engine.observe": self._count_neighbors,
            "engine.spc_setpoint": self._count_hold,
            "controller.build_candidate_set": self._count_candidates,
            "engine.pid_xy_tilt": self._count_saturation,
            "engine.explicit_xy_tilt": self._count_saturation,
        }

    def install(self) -> None:
        self._current = {name: Span() for name in SPAN_NAMES}
        for (module, attr, _), name in zip(SPANS, SPAN_NAMES):
            try:
                owner: object | None = importlib.import_module(f"flockspc.{module}")
            except ImportError:
                owner = None
            *outer, leaf = attr.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.missing.add(name)
                continue
            span = self._current[name]
            self.spans[name].layer = getattr(original, "__module__", "").rpartition(".")[2]
            setattr(owner, leaf, self._wrap(span, original, self._hooks.get(name)))
            self._patched.append((owner, leaf, original))

    def uninstall(self) -> None:
        while self._patched:
            owner, leaf, original = self._patched.pop()
            setattr(owner, leaf, original)
        self._stack.clear()

    def commit(self, scale: float) -> None:
        for name, span in self._current.items():
            total = self.spans[name]
            total.calls += span.calls
            total.total_s += span.total_s * scale
            total.child_s += span.child_s * scale

    def _wrap(self, span: Span, fn: Callable, hook: Callable | None) -> Callable:
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                span.calls += 1
                span.total_s += elapsed
                span.child_s += stack.pop()
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    # --- counts behind the ratio metrics --------------------------------------

    def _count_neighbors(self, args, result) -> None:
        self.neighbors += max(0, len(result) - 1)  # the snapshot includes self

    def _count_hold(self, args, result) -> None:
        position = getattr(result, "position", None)
        if position is not None and args and _floats(position) == _floats(args[0]):
            self.holds += 1

    def _count_candidates(self, args, result) -> None:
        self.candidates += len(result)

    def _count_saturation(self, args, result) -> None:
        cfg = args[2] if len(args) > 2 else None
        lo, hi = getattr(cfg, "tilt_min", None), getattr(cfg, "tilt_max", None)
        if lo is None or hi is None:
            return
        for tilt in _flat(result):
            self.tilt_axes += 1
            self.tilt_saturated += tilt <= lo or tilt >= hi

    # --- report -----------------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-span calls/total/self and per-layer self time, each per round
        of rollouts, and the ratios that need only the tracer's own counts."""
        out: dict[str, tuple[float, str]] = {}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        for name, span in self.spans.items():
            out[f"{name}.calls"] = (span.calls / rounds, "count")
            out[f"{name}.total_s"] = (span.total_s / rounds, "s")
            out[f"{name}.self_s"] = (span.self_s / rounds, "s")
            if span.layer in layer_self:
                layer_self[span.layer] += span.self_s / rounds
        for layer, seconds in layer_self.items():
            out[f"layer.{layer}.self_s"] = (seconds, "s")

        calls = {name: span.calls for name, span in self.spans.items()}
        spc = calls["engine.spc_setpoint"]
        decisions = spc + calls["engine.pfc_setpoint"]
        gradients = calls["engine.evaluate_gradient"] + calls["controller.evaluate_gradient"]
        out["controller.candidates_per_decision"] = (_ratio(self.candidates, spc), "count")
        out["controller.hold_frac"] = (_ratio(self.holds, spc), "frac")
        out["model.gradient_calls_per_decision"] = (_ratio(gradients, decisions), "count")
        out["engine.neighbors_per_observation"] = (
            _ratio(self.neighbors, calls["engine.observe"]),
            "count",
        )
        out["llc.tilt_saturated_frac"] = (_ratio(self.tilt_saturated, self.tilt_axes), "frac")
        return out


def _floats(point) -> tuple[float, ...]:
    return tuple(float(v) for v in point)


def _flat(values):
    """Scalars of a tuple, or of nested rows if the tilt law goes batched."""
    for v in values:
        if hasattr(v, "__iter__"):
            yield from _flat(v)
        else:
            yield v


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
