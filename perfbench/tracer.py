"""Span tracer for the frfkit layers, installed from outside the package.

Each traced layer function is replaced, for the duration of a traced run,
by a wrapper that records a span (name, start, end, parent) and a few
work counts computed from the call's arguments and result. The package
binds layer functions across modules with ``from .x import y``, so the
wrapper is put under every module name that refers to the original
function: that is where the caller looks it up.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import math
import os
import time
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi
MODULES = ("signals", "sim", "estimators", "closedloop", "cli")


class LayerMissing(RuntimeError):
    """A traced layer is gone, recorded no span, or no longer yields its counts."""


@dataclass
class Span:
    id: int
    name: str
    run: str
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    freqs_hz: object = None  # bin frequencies of an LPM result, for useful_frac


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _defect_bins(est) -> int:
    return len({d.bin_index for d in est.defects})


def _count_lpm(span, args, kwargs, result):
    """Fitted bins are those with a finite estimate or a defect record;
    bins left out of ``bins=`` are NaN without one."""
    est = result[0] if isinstance(result, tuple) else result
    fitted = np.isfinite(est.g).all(axis=(1, 2))
    fitted[[d.bin_index for d in est.defects]] = True
    span.counts = {"bins": int(fitted.sum()), "defect_bins": _defect_bins(est)}
    span.freqs_hz = est.bin_frequencies[fitted] / TWO_PI


_count_lpm.keys = ("bins", "defect_bins", "useful_bins")


def _count_csv(span, args, kwargs, result):
    span.counts = {"rows": _arg(args, kwargs, 0, "est").n_bins,
                   "bytes": os.path.getsize(_arg(args, kwargs, 1, "path"))}


_count_csv.keys = ("rows", "bytes")


def _counts(**fields):
    """Counter setting each named count to ``fn(result)``."""
    def count(span, args, kwargs, result):
        span.counts = {name: int(fn(result)) for name, fn in fields.items()}
    count.keys = tuple(fields)
    return count


# layer function -> counter(span, args, kwargs, result) with the ``keys`` it
# sets, or None for time only
LAYERS = {
    "signals.generate_multisine": None,
    "signals.spectrum_set": _counts(windows=lambda r: r.n_windows),
    "sim.simulate_closed_loop": _counts(samples=lambda r: r.d.n_samples),
    "sim.closed_loop_steady_state": None,
    "sim.true_frf": _counts(bins=lambda r: r.n_bins),
    "estimators.power_spectra": None,
    "estimators.spectral_analysis": _counts(bins=lambda r: r.n_bins,
                                            defect_bins=_defect_bins),
    "estimators.lpm_fit": _count_lpm,
    "estimators.write_frf_csv": _count_csv,
    "closedloop.run_mimo_experiments": None,
    "closedloop.direct_estimate": None,
    "closedloop.indirect_estimate": None,
    "closedloop.true_sensitivity": _counts(bins=lambda r: r.shape[0]),
    "closedloop.full_plant": _counts(bins=lambda r: r.n_bins, defect_bins=_defect_bins),
    "closedloop.equivalent_plant": None,
    "cli.parse_config": None,
    "cli.run_scenario": None,
    # run_meta.json holds wall-clock fields, so its size is not a repeatable count
    "cli.export_report": _counts(bytes=lambda r: sum(
        os.path.getsize(p) for p in r if os.path.basename(p) != "run_meta.json")),
}


class Tracer:
    """In-memory spans of the layer calls made while installed."""

    def __init__(self):
        self.spans = []
        self.run = None  # identifier shared by the spans of one scenario run
        self._stack = []
        self._ids = itertools.count()

    def _wrap(self, name, fn, counter):
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(next(self._ids), name, self.run, parent, time.perf_counter())
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
            if counter is not None:
                try:
                    counter(span, args, kwargs, result)
                except (AttributeError, TypeError, KeyError, IndexError, OSError) as exc:
                    raise LayerMissing(f"cannot count the work of {name}: {exc!r}") from exc
            return result
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer function while the block runs."""
        modules = [importlib.import_module("frfkit")] + [
            importlib.import_module(f"frfkit.{m}") for m in MODULES]
        patched = []
        try:
            for name, counter in LAYERS.items():
                module_name, fn_name = name.split(".")
                home = importlib.import_module(f"frfkit.{module_name}")
                original = getattr(home, fn_name, None)
                if not callable(original):
                    raise LayerMissing(f"frfkit.{name} no longer exists")
                wrapper = self._wrap(name, original, counter)
                for module in modules:
                    if getattr(module, fn_name, None) is original:
                        setattr(module, fn_name, wrapper)
                        patched.append((module, fn_name, original))
            yield self
        finally:
            for module, fn_name, original in reversed(patched):
                setattr(module, fn_name, original)

    def count_useful_bins(self, curves, series: str) -> None:
        """Count, for LPM fits not yet counted, the bins the report shows.

        A fitted bin is useful when ``series`` in the report's curves has
        a row at its frequency; only excited bins are reported.
        """
        shown = np.array([hz for name, kind, hz, _ in curves
                          if name == series and kind == "magnitude_db"])
        for span in self.spans:
            if span.freqs_hz is not None:
                span.counts["useful_bins"] = int(np.isin(span.freqs_hz, shown).sum())
                span.freqs_hz = None

    def to_json(self) -> list:
        return [{"id": s.id, "name": s.name, "run": s.run, "parent": s.parent,
                 "start": s.start, "end": s.end, "counts": s.counts}
                for s in self.spans]


def layer_totals(spans) -> dict:
    """Per layer: self time (span time minus its children's) and summed counts."""
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
    totals = {}
    for s in spans:
        entry = totals.setdefault(s.name, {"self_s": 0.0, "calls": 0})
        entry["self_s"] += (s.end - s.start) - child_time.get(s.id, 0.0)
        entry["calls"] += 1
        for key, value in s.counts.items():
            entry[key] = entry.get(key, 0) + value
    return totals
