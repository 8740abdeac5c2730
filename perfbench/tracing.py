"""Span tracing from outside the package: wrap module attributes, time calls.

Every wrapper replaces one name where its caller looks it up (for example
``pafimocs.filters.solve`` rather than ``pafimocs.solver.solve``), so the
package itself stays untouched. A span's self time is its duration minus the
durations of the wrapped spans that ran inside it. A binding that no longer
exists is recorded as missing and its layer's metrics are left out; the
traced run carries on.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from contextlib import contextmanager

import numpy as np

# labels of the default eight-tracker comparison, in experiment order
TRACKER_LABELS = (
    "pafimocs",
    "pafimocs-ssc",
    "pf-mt-3",
    "pf-mt-20",
    "pf-gordon-3",
    "pf-gordon-20",
    "aux-pf-3",
    "aux-pf-20",
)


class LayerStats:
    """Counters of one layer, summed over every binding that feeds it."""

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.durations = []
        self.iterations = []
        self.unconverged = 0
        self.kkt_max = 0.0
        self.invalid = 0
        self.unique_fracs = []
        self.ess_fracs = []
        self.lost = 0
        self.label_seconds = {}
        self.label_frames = {}
        self.bytes_written = 0


class Tracer:
    """Collects spans from wrapped callables; one instance per traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers = {}
        self.installed = set()
        self.missing = []
        self._stack = []
        self._patches = []

    def stats(self, layer: str) -> LayerStats:
        if layer not in self.layers:
            self.layers[layer] = LayerStats()
        return self.layers[layer]

    def wrap(self, layer: str, fn, observe=None):
        """A callable that runs ``fn`` inside a span of ``layer``.

        ``observe(stats, args, kwargs, result, duration)`` reads layer
        counters off a call that returned normally.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self._stack.append(children)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += duration
                stats = self.stats(layer)
                stats.calls += 1
                stats.self_s += duration - children[0]
                stats.durations.append(duration)
            if observe is not None:
                observe(stats, args, kwargs, result, duration)
            return result

        return traced

    def install(self, module, attr: str, layer: str, observe=None) -> bool:
        """Replace ``module.attr`` by a traced wrapper; False when it is missing."""
        original = getattr(module, attr, None)
        if not callable(original):
            self.missing.append(f"{module.__name__}.{attr}")
            return False
        setattr(module, attr, self.wrap(layer, original, observe))
        self._patches.append((module, attr, original))
        self.installed.add(layer)
        return True

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)


def _observe_solve(stats, args, kwargs, result, duration):
    stats.iterations.append(int(result.iterations))
    stats.unconverged += 0 if result.converged else 1
    stats.kkt_max = max(stats.kkt_max, float(result.kkt_residual))


def _observe_roi(stats, args, kwargs, result, duration):
    stats.invalid += 0 if result.valid else 1


def _observe_resample(stats, args, kwargs, result, duration):
    stats.unique_fracs.append(np.unique(result).size / max(len(result), 1))


def _observe_tracker(stats, args, kwargs, result, duration):
    frames, cfg = args[0], args[3]
    label = cfg.variant if cfg.variant.startswith("pafimocs") else f"{cfg.variant}-{cfg.d}"
    steps = len(frames) - 1
    stats.label_seconds[label] = stats.label_seconds.get(label, 0.0) + duration
    stats.label_frames[label] = stats.label_frames.get(label, 0) + steps
    stats.ess_fracs.extend(np.asarray(result.ess[1:], dtype=float) / cfg.n_pf)
    stats.lost += 0 if result.lost_at is None else 1


def _observe_write(stats, args, kwargs, result, duration):
    stats.bytes_written += os.path.getsize(args[0])


_TRANSITIONS = (
    "sample_motion_transition",
    "sample_support_transition",
    "sample_coeff_transition",
    "stp_coeffs_log",
    "stp_support_log",
)

# (module, attribute where the caller looks it up, layer, observer)
BINDINGS = (
    ("pafimocs.filters", "solve", "solver.solve", _observe_solve),
    ("pafimocs.filters", "power_iteration_lmax", "solver.power_iteration_lmax", None),
    ("pafimocs.filters", "log_likelihood", "observation.log_likelihood", None),
    ("pafimocs.filters", "compute_roi", "observation.compute_roi", _observe_roi),
    ("pafimocs.observation", "compute_roi", "observation.compute_roi", _observe_roi),
    ("pafimocs.harness", "render_frame", "observation.render_frame", None),
    *(("pafimocs.filters", name, "models.transitions", None) for name in _TRANSITIONS),
    ("pafimocs.filters", "threshold_support", "filters.threshold_support", None),
    ("pafimocs.filters", "systematic_resample", "filters.systematic_resample", _observe_resample),
    ("pafimocs.filters", "run_tracker", "filters.run_tracker", _observe_tracker),
    ("pafimocs.cli", "run_tracker", "filters.run_tracker", _observe_tracker),
    ("pafimocs.filters", "build_dictionary", "dictionary.build_dictionary", None),
    ("pafimocs.harness", "build_dictionary", "dictionary.build_dictionary", None),
    ("pafimocs.harness", "generate_sequence", "harness.generate_sequence", None),
    ("pafimocs.cli", "generate_sequence", "harness.generate_sequence", None),
    ("pafimocs.fileio", "save_matrix", "fileio.save_matrix", _observe_write),
    ("pafimocs.fileio", "load_matrix", "fileio.load_matrix", None),
    ("pafimocs.fileio", "write_pgm", "fileio.write_pgm", _observe_write),
    ("pafimocs.cli", "cmd_simulate", "cli.simulate", None),
    ("pafimocs.cli", "cmd_track", "cli.track", None),
)


@contextmanager
def traced(tracer: Tracer, bindings=BINDINGS):
    """Install every binding for the duration of the block, then restore."""
    try:
        for module_name, attr, layer, observe in bindings:
            tracer.install(importlib.import_module(module_name), attr, layer, observe)
        yield tracer
    finally:
        tracer.restore()


def _pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer, n_passes: int) -> dict:
    """Per-layer metrics per traced pass: ``{name: (value, unit)}``.

    Counts and self times are divided by ``n_passes``; percentiles pool every
    sample. Layers whose bindings were all missing are left out.
    """
    out = {}

    def layer(name):
        return tracer.layers.get(name, LayerStats()) if name in tracer.installed else None

    def put(name, value, unit):
        out[name] = (value, unit)

    def calls_and_self(prefix, stats):
        put(f"{prefix}.calls", stats.calls / n_passes, "count")
        put(f"{prefix}.self_s", stats.self_s / n_passes, "s")

    s = layer("solver.solve")
    if s is not None:
        calls_and_self("solver.solve", s)
        us = [d * 1e6 for d in s.durations]
        put("solver.solve.us_p50", _pct(us, 50), "us")
        put("solver.solve.us_p99", _pct(us, 99), "us")
        put("solver.solve.iters_p50", _pct(s.iterations, 50), "count")
        put("solver.solve.iters_p99", _pct(s.iterations, 99), "count")
        put("solver.solve.iters_max", float(max(s.iterations, default=0)), "count")
        put("solver.solve.unconverged", s.unconverged / n_passes, "count")
        put("solver.solve.kkt_max", s.kkt_max, "residual")
    s = layer("solver.power_iteration_lmax")
    if s is not None:
        put("solver.power_iteration_lmax.self_s", s.self_s / n_passes, "s")
    s = layer("observation.log_likelihood")
    if s is not None:
        calls_and_self("observation.log_likelihood", s)
        put("observation.log_likelihood.us_p50", _pct([d * 1e6 for d in s.durations], 50), "us")
    s = layer("observation.compute_roi")
    if s is not None:
        calls_and_self("observation.compute_roi", s)
        put("observation.compute_roi.invalid", s.invalid / n_passes, "count")
    s = layer("observation.render_frame")
    if s is not None:
        put("observation.render_frame.self_s", s.self_s / n_passes, "s")
    s = layer("models.transitions")
    if s is not None:
        calls_and_self("models.transitions", s)
    s = layer("filters.run_tracker")
    if s is not None:
        put("filters.run_tracker.self_s", s.self_s / n_passes, "s")
        for label in TRACKER_LABELS:
            frames = s.label_frames.get(label, 0)
            ms = 1e3 * s.label_seconds[label] / frames if frames else 0.0
            put(f"filters.run_tracker.ms_per_frame.{label}", ms, "ms")
        put("filters.ess_frac_mean", float(np.mean(s.ess_fracs)) if s.ess_fracs else 0.0, "ratio")
        put("filters.lost_runs", s.lost / n_passes, "count")
    s = layer("filters.threshold_support")
    if s is not None:
        calls_and_self("filters.threshold_support", s)
    s = layer("filters.systematic_resample")
    if s is not None:
        calls_and_self("filters.systematic_resample", s)
        fracs = s.unique_fracs
        put("filters.systematic_resample.unique_frac", float(np.mean(fracs)) if fracs else 0.0, "ratio")
    s = layer("dictionary.build_dictionary")
    if s is not None:
        calls_and_self("dictionary.build_dictionary", s)
    s = layer("harness.generate_sequence")
    if s is not None:
        put("harness.generate_sequence.self_s", s.self_s / n_passes, "s")
    for name in ("fileio.save_matrix", "fileio.load_matrix"):
        s = layer(name)
        if s is not None:
            calls_and_self(name, s)
    s = layer("fileio.write_pgm")
    if s is not None:
        put("fileio.write_pgm.self_s", s.self_s / n_passes, "s")
    if "fileio.save_matrix" in tracer.installed or "fileio.write_pgm" in tracer.installed:
        written = sum(
            tracer.layers[name].bytes_written
            for name in ("fileio.save_matrix", "fileio.write_pgm")
            if name in tracer.layers
        )
        put("fileio.bytes_written", written / n_passes, "bytes")
    for name in ("cli.simulate", "cli.track"):
        s = layer(name)
        if s is not None:
            put(f"{name}.self_s", s.self_s / n_passes, "s")
    return out
