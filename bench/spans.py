"""Span tracing of smallmass from outside the package, for the traced benchmark run.

A Tracer replaces the public functions and methods listed in patch_points()
with wrappers, each at the name the caller looks it up by (a method on its
class, a function in the module that calls it).  Every call records a span
(name, start, end, parent index) in memory; nothing is written until the
caller asks for the spans after the run.  uninstall() puts the originals
back.  An untraced run never creates a Tracer, so it runs the package
untouched.

A span's self time is its duration minus the durations of its direct
children.  Calls are nested and single-threaded, so the children of a span
are disjoint and lie inside it, and the self times of all spans sum to the
durations of the root spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

import numpy as np

# Span names; every one of them gets a "<name>.self_s" metric.
SPAN_NAMES = (
    "runner",
    "basis.synthesize",
    "basis.analyze",
    "models.g_forward",
    "models.g_inverse",
    "models.noise_induced_drift",
    "noise.sample",
    "noise.refine",
    "wave.eta_form",
    "wave.semi_implicit",
    "wave.resolvent_implicit",
    "limit.u",
    "limit.rho",
    "resolvent.apply",
    "resolvent.audit",
    "finite_dim.increments",
    "finite_dim.simulate_fd",
    "finite_dim.simulate_fd_limit",
    "diagnostics.metric_distance",
    "output",
)

RUNNER_WORK = (
    "run_converge",
    "run_fd_converge",
    "run_simulate_wave",
    "run_simulate_limit",
    "run_resolvent_audit",
)


def _rows(arr) -> int:
    """Rows of a batched (..., n) transform input: the product of the leading axes."""
    shape = np.shape(getattr(arr, "coeffs", arr))
    return int(np.prod(shape[:-1], dtype=np.int64)) if shape else 1


def _arg(args, kwargs, index: int, keyword):
    """Argument at a positional index, else by keyword (else the only keyword)."""
    if len(args) > index:
        return args[index]
    return kwargs[keyword] if keyword else next(iter(kwargs.values()))


def patch_points() -> list:
    """(owner, attribute, span name) for every traced call site.

    The span name is a string, or a function of the bound `self` for methods
    whose layer depends on the instance (the wave scheme, the limit form).
    """
    from smallmass import basis, diagnostics, finite_dim, limit, models, noise, output, resolvent, runner, wave

    points = [
        (basis.SpectralBasis, "synthesize", "basis.synthesize"),
        (basis.SpectralBasis, "analyze", "basis.analyze"),
        (models.AntiderivativeMap, "forward", "models.g_forward"),
        (models.AntiderivativeMap, "inverse", "models.g_inverse"),
        (limit, "noise_induced_drift", "models.noise_induced_drift"),
        (noise, "sample_path", "noise.sample"),
        (noise, "refine", "noise.refine"),
        (noise, "save_path", "output"),
        (wave.WaveSolver, "simulate", lambda solver: "wave." + solver.scheme),
        (limit.LimitSolver, "simulate", lambda solver: "limit." + solver.form),
        (resolvent, "resolvent_apply", "resolvent.apply"),
        (runner, "audit_operator", "resolvent.audit"),
        (finite_dim.FDNoise, "increments", "finite_dim.increments"),
        (runner, "simulate_fd", "finite_dim.simulate_fd"),
        (runner, "simulate_fd_limit", "finite_dim.simulate_fd_limit"),
        (diagnostics, "metric_distance", "diagnostics.metric_distance"),
    ]
    for fn in ("write_json", "write_csv", "write_gnuplot", "trajectory_csv", "save_trajectory_bin"):
        points.append((output, fn, "output"))
    for fn in RUNNER_WORK:
        points.append((runner, fn, "runner"))
    return points


class Tracer:
    """Records spans of the patched calls; install() and uninstall() bracket a run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self.rows: Counter = Counter()  # transform name -> rows summed over calls
        self.steps: Counter = Counter()  # integrator span name -> time steps
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, self.clock
        rows, steps = self.rows, self.steps

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args[0])
            if span_name.startswith("basis."):
                rows[span_name] += _rows(_arg(args, kwargs, 1, None))
            elif span_name.startswith("wave."):  # simulate(self, u0, v0, path, ...)
                steps[span_name] += _arg(args, kwargs, 3, "path").n_steps
            elif span_name.startswith("limit."):  # simulate(self, initial, path, ...)
                steps[span_name] += _arg(args, kwargs, 2, "path").n_steps
            idx = len(spans)
            span = [span_name, clock(), None, stack[-1] if stack else None]
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name in patch_points():
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus the durations of direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        out[name] += (end - start) - child[i]
    return out


def child_calls(spans, parent_name: str, child_name: str) -> int:
    """Number of child_name spans whose direct parent is a parent_name span."""
    return sum(
        1
        for name, _, _, parent in spans
        if name == child_name and parent is not None and spans[parent][0] == parent_name
    )


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (
        ("_s_per_step", "s/step"),
        ("_s", "s"),
        (".calls", "count"),
        (".steps", "count"),
        ("rows_per_call", "rows/call"),
        ("_per_step", "1/step"),
        ("_per_call", "1/call"),
        ("_per_apply", "1/call"),
        (".bytes", "B"),
        ("_ratio", "ratio"),
    ):
        if metric.endswith(suffix):
            return unit
    raise ValueError(f"no unit for metric {metric!r}")


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, wall_s: float, output_bytes: int) -> dict[str, float]:
    """Per-layer counts and self times of one traced run phase of wall time wall_s."""
    spans = tracer.spans
    calls = Counter(s[0] for s in spans)
    selfs = self_times(spans)
    root_s = sum(end - start for _, start, end, parent in spans if parent is None)
    m: dict[str, float] = {}
    for name in SPAN_NAMES:
        m[f"{name}.self_s"] = selfs.get(name, 0.0)
    for name in ("basis.synthesize", "basis.analyze", "models.g_forward", "models.g_inverse",
                 "models.noise_induced_drift", "noise.sample", "noise.refine", "resolvent.apply",
                 "finite_dim.increments", "diagnostics.metric_distance"):
        m[f"{name}.calls"] = calls[name]
    for name in ("basis.synthesize", "basis.analyze"):
        m[f"{name}.rows_per_call"] = _div(tracer.rows[name], calls[name])
    wave_steps = sum(n for k, n in tracer.steps.items() if k.startswith("wave."))
    limit_steps = sum(n for k, n in tracer.steps.items() if k.startswith("limit."))
    m["wave.steps"] = wave_steps
    m["limit.steps"] = limit_steps
    for name in ("wave.eta_form", "wave.semi_implicit", "wave.resolvent_implicit", "limit.u", "limit.rho"):
        m[f"{name}.self_s_per_step"] = _div(selfs.get(name, 0.0), tracer.steps[name])
    m["basis.transforms_per_step"] = _div(
        calls["basis.synthesize"] + calls["basis.analyze"], wave_steps + limit_steps
    )
    # Newton-iteration proxy: g evaluations made directly by each inversion.
    m["models.g_inverse.forward_per_call"] = _div(
        child_calls(spans, "models.g_inverse", "models.g_forward"), calls["models.g_inverse"]
    )
    # One synthesis per fixed-point iteration plus one for the final eta.
    m["resolvent.iters_per_apply"] = _div(
        child_calls(spans, "resolvent.apply", "basis.synthesize"), calls["resolvent.apply"]
    ) - (1.0 if calls["resolvent.apply"] else 0.0)
    m["output.bytes"] = output_bytes
    m["trace.wall_s"] = wall_s
    m["trace.unattributed_s"] = wall_s - root_s
    return m
