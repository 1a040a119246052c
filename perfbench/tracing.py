"""Spans around the calls into each kslab layer, recorded from outside.

Nothing under ``src/`` changes.  ``install`` wraps each function once and
rebinds the wrapper in every kslab module that holds the original, because
``from .fields import _rfft`` binds the name again in each importing module:
patching ``kslab.fields._rfft`` alone would miss ``kslab.solver._rfft``.

A span is ``[name, start, end, parent, tag]`` with monotonic-clock times in
seconds (CLOCK_MONOTONIC on Linux, so stamps from forked sweep workers share
the parent's time line).  Spans live in memory and are reduced to per-layer
metrics by ``layer_metrics`` when the workload has returned.
"""

from __future__ import annotations

import functools
import importlib
import math
import statistics
import time

# (home module, attribute, span name, tag builder).  The tag is the grid shape
# for the FFT seam, which carries the per-shape timings.
FUNCTIONS = (
    ("kslab.fields", "_rfft", "fields.rfft", lambda a: a[0].shape),
    ("kslab.fields", "_irfft", "fields.irfft", lambda a: a[1].shape),
    ("kslab.fields", "gradient", "fields.gradient", None),
    ("kslab.norms", "uloc_norm", "norms.uloc_norm", None),
    ("kslab.norms", "cutoff_phi", "norms.cutoff_phi", None),
    ("kslab.solver", "run", "solver.run", None),
    ("kslab.solver", "suggest_dt", "solver.suggest_dt", None),
    ("kslab.solver", "_builtin_sample", "solver.builtin_sample", None),
    ("kslab.monitors", "moment", "monitors.moment", None),
    ("kslab.monitors", "combined_y", "monitors.combined_y", None),
    ("kslab.monitors", "mu_zero_estimate", "monitors.mu_zero", None),
    ("kslab.presets", "build_initial", "presets.build_initial", None),
    ("kslab.checkpoint", "save_checkpoint", "checkpoint.save", None),
    ("kslab.cli", "_residual_reports", "cli.residual_reports", None),
    ("kslab.cli", "_write_trace_csv", "cli.write", None),
    ("kslab.cli", "_write_residuals_csv", "cli.write", None),
    ("kslab.cli", "_load_config", "config.load", None),
    ("kslab.cli", "cmd_run", "cli.cmd_run", None),
    ("kslab.cli", "cmd_sweep", "cli.cmd_sweep", None),
)

# (module, class, method, span name, tag builder).
METHODS = (
    ("kslab.solver", "_Stepper", "__init__", "solver.stepper_build", None),
    ("kslab.solver", "_Stepper", "advance", "solver.step", lambda a: a[0].dt),
    ("kslab.monitors", "TraceRecorder", "__call__", "monitors.trace_recorder", None),
    ("kslab.cli", "_CliRecorder", "__init__", "cli.recorder_init", None),
    ("kslab.cli", "_CliRecorder", "__call__", "monitors.sample", None),
)

MODULES = (
    "kslab.fields",
    "kslab.norms",
    "kslab.dyadic",
    "kslab.solver",
    "kslab.monitors",
    "kslab.presets",
    "kslab.checkpoint",
    "kslab.config",
    "kslab.cli",
)

FFT = ("fields.rfft", "fields.irfft")
CLOCK = time.monotonic


class Tracer:
    """In-memory span recorder; ``stack`` holds the indices of open spans."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.stack = []

    def wrap(self, name, fn, tag=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans, stack = self.spans, self.stack
            idx = len(spans)
            spans.append(
                [name, CLOCK(), 0.0, stack[-1] if stack else -1, tag(args) if tag else None]
            )
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = CLOCK()

        return traced


def rebind(home: str, attr: str, make_wrapper) -> None:
    """Replace ``home.attr`` by ``make_wrapper(original)`` wherever it is bound."""
    original = getattr(importlib.import_module(home), attr)
    wrapper = make_wrapper(original)
    for name in MODULES:
        module = importlib.import_module(name)
        if getattr(module, attr, None) is original:
            setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary in FUNCTIONS and METHODS with ``tracer``."""
    for home, attr, span, tag in FUNCTIONS:
        rebind(home, attr, lambda fn, span=span, tag=tag: tracer.wrap(span, fn, tag))
    for home, cls_name, attr, span, tag in METHODS:
        cls = getattr(importlib.import_module(home), cls_name)
        setattr(cls, attr, tracer.wrap(span, getattr(cls, attr), tag))


# ---------------------------------------------------------------------------
# Reduction of spans to per-layer metrics


def _median(xs) -> float:
    return float(statistics.median(xs)) if xs else 0.0


def _p99(xs) -> float:
    if not xs:
        return 0.0
    ordered = sorted(xs)
    return float(ordered[min(len(ordered) - 1, math.ceil(0.99 * len(ordered)) - 1)])


def _shape_key(shape) -> str:
    return "x".join(str(n) for n in shape)


def _complex_count(shape) -> int:
    """Half-spectrum size: the last axis keeps n//2 + 1 modes."""
    return math.prod(shape[:-1]) * (shape[-1] // 2 + 1)


def fft_bytes(shape) -> int:
    """Computed bytes one real transform touches: the real array plus its half spectrum."""
    return 8 * math.prod(shape) + 16 * _complex_count(shape)


def _below(spans: list[list], ancestor: str) -> list[bool]:
    """For each span, whether it sits (at any depth) below a span named ``ancestor``."""
    below = [False] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        below[i] = parent >= 0 and (below[parent] or spans[parent][0] == ancestor)
    return below


def _sample_span(names) -> str:
    """The CLI recorder call is the monitor sample; without one, the run loop's own."""
    return "monitors.sample" if "monitors.sample" in names else "solver.builtin_sample"


def _ratio(total: int, n: int):
    """Exact ratio as an int when it divides, else a float."""
    if not n:
        return 0
    return total // n if total % n == 0 else total / n


def counts(spans: list[list]) -> dict:
    """Exact, machine-independent counts of work done in one run."""
    by_name: dict[str, int] = {}
    for s in spans:
        by_name[s[0]] = by_name.get(s[0], 0) + 1
    sample = _sample_span(by_name)
    steps, samples = by_name.get("solver.step", 0), by_name.get(sample, 0)
    in_step, in_sample = _below(spans, "solver.step"), _below(spans, sample)

    def inside(flags, names) -> int:
        return sum(1 for s, flag in zip(spans, flags) if flag and s[0] in names)

    return {
        "steps": steps,
        "samples": samples,
        "stepper_builds": by_name.get("solver.stepper_build", 0),
        "solver_runs": by_name.get("solver.run", 0),
        "fft_calls": sum(by_name.get(n, 0) for n in FFT),
        "fft_per_step": _ratio(inside(in_step, FFT), steps),
        "fft_per_sample": _ratio(inside(in_sample, FFT), samples),
        "gradient_per_sample": _ratio(inside(in_sample, ("fields.gradient",)), samples),
        "moment_per_sample": _ratio(inside(in_sample, ("monitors.moment",)), samples),
        "cutoff_phi_per_sample": _ratio(inside(in_sample, ("norms.cutoff_phi",)), samples),
        "uloc_norm_per_sample": _ratio(inside(in_sample, ("norms.uloc_norm",)), samples),
    }


def self_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name, minus the time its direct child spans cover.

    Sweep rows run in pool workers and have no parent span, so the self time
    of ``cli.cmd_sweep`` is the time the parent waits for the pool.
    """
    own = [s[2] - s[1] for s in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    out: dict[str, float] = {}
    for s, t in zip(spans, own):
        out[s[0]] = out.get(s[0], 0.0) + t
    return out


def layer_metrics(spans: list[list], run_s: float, workers: int = 1) -> dict[str, float]:
    """Per-layer metrics of one traced run whose top call took ``run_s`` seconds.

    Shares divide summed span time by ``workers * run_s``, the core-seconds
    the run had, so they stay below 1 for the sweep.
    """
    dur: dict[str, list[float]] = {}
    for name, start, end, _, _ in spans:
        dur.setdefault(name, []).append(end - start)
    ms = lambda name: _median([1e3 * d for d in dur.get(name, [])])
    busy = workers * run_s
    c = counts(spans)
    steps, samples = c["steps"], c["samples"]

    fft_ms: dict[str, list[float]] = {}
    step_fft_bytes = 0
    for (name, start, end, _, tag), in_step in zip(spans, _below(spans, "solver.step")):
        if name in FFT:
            fft_ms.setdefault(f"{name}_ms.{_shape_key(tag)}", []).append(1e3 * (end - start))
            if in_step:
                step_fft_bytes += fft_bytes(tag)
    fft_total = sum(sum(dur.get(n, [])) for n in FFT)

    dts = [s[4] for s in spans if s[0] == "solver.step"]
    # The stepper's multipliers are real float64 arrays on the half-spectrum layout.
    multiplier_bytes = next((8 * _complex_count(s[4]) for s in spans if s[0] == "fields.rfft"), 0)
    sample_name = _sample_span(dur)
    step_ms = ms("solver.step")
    sample_ms = ms(sample_name)

    out = {
        "fields.fft_calls_per_step": float(c["fft_per_step"]),
        "fields.fft_bytes_per_step": step_fft_bytes / steps if steps else 0.0,
        "fields.fft_share": fft_total / busy,
        "fields.fft_calls_per_sample": float(c["fft_per_sample"]),
        "fields.gradient_calls_per_sample": float(c["gradient_per_sample"]),
        "solver.steps": float(steps),
        "solver.step_ms": step_ms,
        "solver.step_ms_p99": _p99([1e3 * d for d in dur.get("solver.step", [])]),
        "solver.step_share": sum(dur.get("solver.step", [])) / busy,
        "solver.dt_min": min(dts) if dts else 0.0,
        "solver.dt_max": max(dts) if dts else 0.0,
        "solver.suggest_dt_ms": ms("solver.suggest_dt"),
        "solver.stepper_builds": float(c["stepper_builds"]),
        "solver.stepper_build_ms": ms("solver.stepper_build"),
        # Six multiplier arrays per stepper; the run loop frees none of them.
        "solver.steppers_held_mb": c["stepper_builds"] * 6 * multiplier_bytes / 1e6,
        "monitors.samples": float(samples),
        "monitors.sample_ms": sample_ms,
        "monitors.sample_over_step": sample_ms / step_ms if step_ms else 0.0,
        "monitors.share": sum(dur.get(sample_name, [])) / busy,
        "monitors.moment_calls_per_sample": float(c["moment_per_sample"]),
        "monitors.combined_y_ms": ms("monitors.combined_y"),
        "monitors.mu_zero_ms": ms("monitors.mu_zero"),
        "norms.uloc_norm_ms": ms("norms.uloc_norm"),
        "norms.uloc_calls_per_sample": float(c["uloc_norm_per_sample"]),
        "norms.cutoff_phi_calls_per_sample": float(c["cutoff_phi_per_sample"]),
        "cli.residual_reports_ms": ms("cli.residual_reports"),
        "cli.write_ms": 1e3 * sum(dur.get("cli.write", [])),
        "checkpoint.save_ms": ms("checkpoint.save"),
        "presets.build_initial_ms": ms("presets.build_initial"),
    }
    for key, values in fft_ms.items():
        out[key] = _median(values)
    for name in FFT:
        out[f"{name}_ms"] = ms(name)
    rows = dur.get("cli.sweep_row", [])
    if rows:
        out["cli.sweep.row_s_median"] = _median(rows)
        out["cli.sweep.row_s_max"] = max(rows)
        out["cli.sweep.straggler_ratio"] = max(rows) / _median(rows)
        out["cli.sweep.pool_busy_frac"] = sum(rows) / busy
    return out
