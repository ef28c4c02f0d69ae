"""In-memory span recorder and the per-layer metrics derived from it.

Spans are opened by wrappers that this module installs around the public
functions of each kdvtorus module (and around ``numpy.fft.rfft``/``irfft``,
the FFT boundary) for the length of a traced pass; the program itself is not
edited. A span holds its name, start, end, parent and thread. FFT calls are
too many to keep one span each, so they are added up, count and time, on the
innermost open span of the calling thread.

Worker threads of ``experiments.epsilon_sweep`` start with an empty span
stack; their first span takes the innermost open span of the thread that
installed the recorder (the sweep span) as its parent.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("id", "name", "parent", "thread", "start", "end",
                 "fft_calls", "fft_s", "attrs")

    def __init__(self, sid, name, parent, thread):
        self.id = sid
        self.name = name
        self.parent = parent
        self.thread = thread
        self.start = self.end = 0.0
        self.fft_calls = 0
        self.fft_s = 0.0
        self.attrs = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"id": self.id, "name": self.name, "parent": self.parent,
                "thread": self.thread, "start": self.start, "end": self.end,
                "fft_calls": self.fft_calls, "fft_s": self.fft_s,
                "attrs": self.attrs}


class Recorder:
    """Collects spans from wrapped functions; ``restore`` removes the wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main = self._stack()
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _owner(self, stack):
        if stack:
            return stack[-1]
        if stack is not self._main and self._main:
            return self._main[-1]
        return None

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = self._owner(stack)
        span = Span(next(self._ids), name, parent.id if parent else None,
                    threading.get_ident())
        stack.append(span)
        span.start = perf_counter()
        return span

    def close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def wrap(self, name: str, fn, attrs=None):
        """Return ``fn`` recording one span per call; ``attrs(args, kwargs,
        result)`` may add attributes such as step counts."""
        recorder = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = recorder.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if attrs is not None:
                span.attrs.update(attrs(args, kwargs, result))
            return result

        return traced

    def wrap_fft(self, fn):
        recorder = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            owner = recorder._owner(recorder._stack())
            if owner is not None:
                owner.fft_calls += 1
                owner.fft_s += elapsed
            return result

        return counted

    def patch(self, module, attr: str, name: str, attrs=None) -> None:
        original = getattr(module, attr)
        self._patched.append((module, attr, original))
        setattr(module, attr, self.wrap(name, original, attrs))

    def patch_fft(self) -> None:
        for attr in ("rfft", "irfft"):
            original = getattr(np.fft, attr)
            self._patched.append((np.fft, attr, original))
            setattr(np.fft, attr, self.wrap_fft(original))

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)


# ---------------------------------------------------------------------------
# attribute hooks
# ---------------------------------------------------------------------------


def _evolve_attrs(args, kwargs, record):
    return {"steps": int(record.steps_total), "samples": len(record.times)}


def _report_attrs(args, kwargs, report):
    return {"samples": len(report.errors)}


def _plot_attrs(args, kwargs, result):
    path, series = args[0], args[1]
    return {"points": sum(len(s.xs) for s in series),
            "bytes": os.path.getsize(path)}


def _operator_attrs(args, kwargs, result):
    return {"t": float(args[1])}


def install(recorder: Recorder) -> None:
    """Wrap the public calls each workload makes, named ``<module>.<function>``.

    A function imported by name into another module is wrapped at every
    module that calls it, so calls from inside the package are seen too.
    """
    from kdvtorus import cli, experiments, integrator, normal_form

    recorder.patch(cli, "run", "cli.run")
    for mod in (cli, experiments):
        recorder.patch(mod, "near_linearity_report",
                       "experiments.near_linearity_report", _report_attrs)
        recorder.patch(mod, "hermite_initial", "experiments.hermite_initial")
    recorder.patch(cli, "epsilon_sweep", "experiments.epsilon_sweep")
    recorder.patch(experiments, "evolve", "integrator.evolve", _evolve_attrs)
    recorder.patch(integrator, "field_from_half_spectrum",
                   "fields.field_from_half_spectrum")
    recorder.patch(cli, "write_field_csv", "fields.write_field_csv")
    recorder.patch(cli, "write_line_plot", "svgplot.write_line_plot", _plot_attrs)
    recorder.patch(cli, "normal_form_residual", "normal_form.normal_form_residual")
    recorder.patch(cli, "ratio_census", "normal_form.ratio_census")
    for op in ("b2", "b3", "b4", "rhs_v"):
        recorder.patch(normal_form, op, f"normal_form.{op}", _operator_attrs)
    recorder.patch_fft()


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

#: name -> (unit, better); the order is the order of the report.
LAYER_METRICS = {
    "integrator.steps": ("count", "higher"),
    "integrator.fft_calls": ("count", "lower"),
    "integrator.fft_calls_per_step": ("count", "lower"),
    "integrator.us_per_step": ("us", "lower"),
    "integrator.fft_s": ("s", "lower"),
    "integrator.nonfft_us_per_step": ("us", "lower"),
    "integrator.sample_s": ("s", "lower"),
    "experiments.evolve_overlap": ("ratio", "lower"),
    "experiments.samples": ("count", "higher"),
    "experiments.audit_us_per_sample": ("us", "lower"),
    "normal_form.b2_s": ("s", "lower"),
    "normal_form.b2_calls": ("count", "lower"),
    "normal_form.b3_s": ("s", "lower"),
    "normal_form.b3_calls": ("count", "lower"),
    "normal_form.rhs_v_s": ("s", "lower"),
    "normal_form.rhs_v_calls": ("count", "lower"),
    "normal_form.b4_t0_s": ("s", "lower"),
    "normal_form.b4_t0_calls": ("count", "lower"),
    "normal_form.b4_t_s": ("s", "lower"),
    "normal_form.b4_t_calls": ("count", "lower"),
    "normal_form.b4_t_ms_per_call": ("ms", "lower"),
    "svgplot.write_s": ("s", "lower"),
    "svgplot.points": ("count", "lower"),
    "svgplot.bytes": ("count", "lower"),
    "fields.write_csv_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
}


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus child-span coverage minus its own FFT time."""
    children: dict[int, list] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.id: s.duration - _covered(
            (max(a, s.start), min(b, s.end)) for a, b in children.get(s.id, ())
        ) - s.fft_s
        for s in spans
    }


def layer_metrics(spans, root_id: int) -> dict[str, float]:
    """Per-layer numbers of one traced pass whose root span is ``root_id``."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def under(span, name):
        while span.parent in by_id:
            span = by_id[span.parent]
            if span.name == name:
                return True
        return False

    def total(items):
        return sum(s.duration for s in items)

    out = dict.fromkeys(LAYER_METRICS, 0.0)

    evolves = named("integrator.evolve")
    steps = sum(s.attrs.get("steps", 0) for s in evolves)
    fft_calls = sum(s.fft_calls for s in evolves)
    fft_s = sum(s.fft_s for s in evolves)
    # self time already excludes FFT and the sampling spans
    nonfft = sum(own[s.id] for s in evolves)
    out["integrator.steps"] = steps
    out["integrator.fft_calls"] = fft_calls
    out["integrator.fft_s"] = fft_s
    out["integrator.sample_s"] = total(
        s for s in named("fields.field_from_half_spectrum")
        if under(s, "integrator.evolve"))
    if steps:
        out["integrator.fft_calls_per_step"] = fft_calls / steps
        out["integrator.us_per_step"] = 1e6 * total(evolves) / steps
        out["integrator.nonfft_us_per_step"] = 1e6 * nonfft / steps

    sweeps = named("experiments.epsilon_sweep")
    if sweeps:
        swept = [s for s in evolves if under(s, "experiments.epsilon_sweep")]
        out["experiments.evolve_overlap"] = total(swept) / total(sweeps)

    reports = named("experiments.near_linearity_report")
    samples = sum(s.attrs.get("samples", 0) for s in reports)
    out["experiments.samples"] = samples
    if samples:
        out["experiments.audit_us_per_sample"] = (
            1e6 * sum(own[s.id] for s in reports) / samples)

    for op in ("b2", "b3", "rhs_v"):
        calls = named(f"normal_form.{op}")
        out[f"normal_form.{op}_s"] = total(calls)
        out[f"normal_form.{op}_calls"] = len(calls)
    b4 = named("normal_form.b4")
    b4_t0 = [s for s in b4 if s.attrs.get("t") == 0.0]
    b4_t = [s for s in b4 if s.attrs.get("t") != 0.0]
    out["normal_form.b4_t0_s"] = total(b4_t0)
    out["normal_form.b4_t0_calls"] = len(b4_t0)
    out["normal_form.b4_t_s"] = total(b4_t)
    out["normal_form.b4_t_calls"] = len(b4_t)
    # the homogeneity check's calls, made straight from the pass
    direct = [s for s in b4_t if s.parent == root_id]
    if direct:
        out["normal_form.b4_t_ms_per_call"] = 1e3 * total(direct) / len(direct)

    plots = named("svgplot.write_line_plot")
    out["svgplot.write_s"] = total(plots)
    out["svgplot.points"] = sum(s.attrs.get("points", 0) for s in plots)
    out["svgplot.bytes"] = sum(s.attrs.get("bytes", 0) for s in plots)
    out["fields.write_csv_s"] = total(named("fields.write_field_csv"))
    out["cli.self_s"] = sum(own[s.id] for s in named("cli.run"))
    return out
