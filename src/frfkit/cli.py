"""Scenario runner and command-line interface.

Reproduces the package's benchmark studies end to end from a JSON
configuration: simulate the closed loop, estimate, and compare every
estimate with its analytic oracle. The transient-conditions study
(``transient_study``, or ``custom`` with explicit geometry) estimates
the sensitivity of one excited loop with rectangular and Hann spectral
analysis and the local polynomial method. The SISO closed-loop bias
study runs the same single-experiment pipeline on that loop cut out as
a SISO plant, with the direct and the indirect method. The MIMO study
contrasts the full multivariable plant with the per-loop equivalent
plant. ``_ESTIMATORS`` lists every estimator name; each oracle is
evaluated once per bin grid. Identical configurations produce
byte-identical numerical outputs.

Exit codes: 0 success, 2 configuration/validation error, 3 defect
fraction (distinct defective (estimate, bin) pairs over all estimated
bins) above the configured threshold.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .closedloop import (
    ClosedLoopDataset,
    direct_bias_asymptote,
    direct_estimate,
    equivalent_plant,
    equivalent_plant_true,
    full_plant,
    indirect_estimate,
    interaction_term,
    run_mimo_experiments,
    sensitivity_pair,
    true_sensitivity,
)
from .estimators import FrfEstimate, LpmConfig, write_frf_csv
from .sim import (
    ControllerConfig,
    StateSpaceModel,
    UnstableLoopError,
    benchmark_plant,
    closed_loop_steady_state,
    discretize_zoh,
    read_statespace_json,
    simulate_closed_loop,
    true_frf,
)
from .signals import (
    MultisineSpec,
    TimeSeries,
    WindowFunction,
    _csv_fields,
    _write_csv_rows,
    bin_frequencies,
    generate_multisine,
    spectrum_set,
)

TWO_PI = 2.0 * math.pi
MAX_RECORD_SAMPLES = 1e7  # simulated samples per experiment, fs_hz * period * periods


def _sensitivity(dataset, method, window_length, window, lpm_config):
    """Input sensitivity d -> u of the excited loop."""
    return sensitivity_pair(dataset, method, window_length, window, lpm_config,
                            u_channels=[dataset.excited_input_index], y_channels=[])[1]


def _direct(dataset, method, window_length, window, lpm_config):
    return direct_estimate(dataset, window_length, window)


def _indirect(dataset, method, window_length, window, lpm_config):
    return indirect_estimate(dataset, method, window_length, window, lpm_config)


class _Estimator(NamedTuple):
    """One estimator name a scenario accepts.

    ``method`` "sa" averages one window per period; "lpm" fits one window
    over the used record, so its bins are the period's times
    ``n_periods_used``. ``estimate`` calls the package function through
    its name in this module, so a wrapper put there (perfbench's span
    tracer does) sees the call. The MIMO study has no ``estimate``: it
    hands ``method`` to :func:`run_mimo_experiments`.
    """

    method: str
    estimate: Callable = None
    window: Callable = None        # taper factory; None is rectangular
    default: bool = False          # run when the config lists no estimators


_SENSITIVITY_ESTIMATORS = {
    "sa_rect": _Estimator("sa", _sensitivity, default=True),
    "sa_hann": _Estimator("sa", _sensitivity, WindowFunction.hann, default=True),
    "lpm": _Estimator("lpm", _sensitivity, default=True),
}

_ESTIMATORS = {
    "transient_study": _SENSITIVITY_ESTIMATORS,
    "closed_loop_siso_bias": {
        "direct_sa": _Estimator("sa", _direct, default=True),
        "indirect_sa": _Estimator("sa", _indirect, default=True),
        "indirect_lpm": _Estimator("lpm", _indirect),
    },
    "mimo_full_vs_equivalent": {
        "sa_rect": _Estimator("sa", default=True),
        "lpm": _Estimator("lpm"),
    },
    "custom": _SENSITIVITY_ESTIMATORS,
}

SCENARIOS = tuple(_ESTIMATORS)


class ConfigError(ValueError):
    """Configuration rejected; the message carries the field path."""


@dataclass
class ScenarioConfig:
    """Fully materialized scenario parameters (defaults already applied)."""

    scenario: str
    plant_source: str              # "builtin" or a JSON file path
    fs_hz: float
    period_seconds: float
    excited_bins: object           # None (full grid), list of bins, or (min_hz, max_hz)
    rms: float
    n_periods_total: int
    n_periods_used: int
    noise_std: tuple
    estimators: tuple
    lpm_poly_order: int
    lpm_half_width: int            # None selects the smallest solvable width
    lpm_dof_margin: int
    phase_seed: int
    noise_seed: int
    band_hz: tuple
    excited_channel: int           # 1-based channel of the excitation
    controller_gain: float
    controller_zero: float
    controller_pole: float
    steady_state_start: bool
    max_defect_fraction: float
    output_dir: str

    @property
    def period_samples(self) -> int:
        return int(round(self.period_seconds * self.fs_hz))

    @property
    def ts(self) -> float:
        return 1.0 / self.fs_hz

    def echo(self) -> dict:
        """Everything that influences the results, for the report: each
        field at its config path, except the plant, echoed as one string,
        and the output directory; plus the period in samples and the
        package version."""
        echo = {"plant": self.plant_source, "package_version": __version__}
        for f in _FIELDS:
            if f.attr in ("plant_source", "output_dir"):
                continue
            section, _, key = f.path.rpartition(".")
            node = echo.setdefault(section, {}) if section else echo
            value = getattr(self, f.attr)
            node[key] = list(value) if isinstance(value, tuple) else value
        echo["multisine"]["period_samples"] = self.period_samples
        if self.excited_bins is None:
            echo["multisine"]["excited_bins"] = "full"
        return echo


class _Required(str):
    """The default of a field that has none: the config must state it, for
    the reason the string gives."""


class _Field(NamedTuple):
    """One config field: its JSON path below ``$``, the ScenarioConfig
    attribute it fills, the ``_KINDS`` check that turns the JSON value into
    that attribute, the bound that check enforces (for a number one or more
    "op limit" rules, see ``_within``; for a choice the accepted values) and
    its default: a value, a dict of per-scenario values (a scenario left out
    must state the field), a function of the attributes earlier rows
    filled, or a ``_Required``. A default of None makes the field optional,
    so that JSON null leaves it unset."""

    path: str
    attr: str
    kind: str
    bound: object = None
    default: object = None


def _within(value, path: str, bound, values):
    """Check ``value`` against the bound's rules, "op limit" each, where a
    limit is a number or the attribute of an earlier row."""
    for rule in (bound,) if isinstance(bound, str) else bound or ():
        op, limit = rule.split()
        limit = values[limit] if limit in values else float(limit)
        if not {">": value > limit, ">=": value >= limit, "<=": value <= limit}[op]:
            raise ConfigError(f"{path}: must be {rule}, got {value}")
    return value


def _number(value, path: str, bound=None, values=()) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # NaN, an infinity or an int beyond float
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return _within(float(value), path, bound, values)


def _int(value, path: str, bound=None, values=()) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # the record-size check multiplies floats
        raise ConfigError(f"{path}: expected an integer within float range")
    return _within(value, path, bound, values)


def _bool(value, path, bound, values) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true or false")
    return value


def _str(value, path, bound, values) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{path}: expected a string, got {value!r}")
    return value


def _choice(value, path, bound, values) -> str:
    if value not in bound:
        raise ConfigError(f"{path}: expected one of {bound}, got {value!r}")
    return value


def _plant(value, path, bound, values) -> str:
    """Replace the source in ``plant_source`` by "builtin" or the file's path."""
    _str(value, path, bound, values)
    return value if values["plant_source"] == "json" else "builtin"


def _numbers(value, path, bound, values) -> tuple:
    """One number, or a list of numbers, as a tuple."""
    if isinstance(value, list):
        return tuple(_number(v, f"{path}[]", bound) for v in value)
    return (_number(value, path, bound),)


def _edges(lo, hi, path: str, lo_path: str, hi_path: str) -> tuple:
    """A frequency band, 0 <= low < high."""
    lo, hi = _number(lo, lo_path, ">= 0"), _number(hi, hi_path, "> 0")
    if hi <= lo:
        raise ConfigError(f"{path}: the high edge must exceed the low edge")
    return lo, hi


def _band(value, path, bound, values) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ConfigError(f"{path}: expected [low_hz, high_hz]")
    return _edges(*value, path, f"{path}[0]", f"{path}[1]")


def _excitation(value, path, bound, values):
    """``"full"`` (None), a list of bins, or a band ``{min_hz, max_hz}``
    whose edges default to 0 and the Nyquist rate."""
    if value == "full":
        return None
    if isinstance(value, list):
        if not value:
            raise ConfigError(f"{path}: must not be empty")
        return [_int(v, f"{path}[]", ">= 1") for v in value]
    if not isinstance(value, dict):
        raise ConfigError(f"{path}: expected 'full', a list or a band object")
    for key in value:
        if key not in ("min_hz", "max_hz"):
            raise ConfigError(f"unknown key {key!r} at {path}")
    return _edges(value.get("min_hz", 0.0), value.get("max_hz", values["fs_hz"] / 2),
                  path, f"{path}.min_hz", f"{path}.max_hz")


def _estimators(value, path, bound, values) -> tuple:
    scenario = values["scenario"]
    allowed = tuple(_ESTIMATORS[scenario])
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a non-empty list")
    for i, name in enumerate(value):
        if name not in allowed:
            raise ConfigError(f"{path}: {name!r} not valid for {scenario} (use {allowed})")
        if name in value[:i]:
            raise ConfigError(f"{path}[{i}]: {name!r} is listed twice")
    if scenario == "mimo_full_vs_equivalent" and len(value) > 1:
        raise ConfigError(f"{path}[1]: the MIMO study runs one estimator")
    return tuple(value)


_KINDS = {"number": _number, "int": _int, "bool": _bool, "str": _str,
          "choice": _choice, "plant": _plant, "number-or-list": _numbers,
          "band": _band, "excitation": _excitation, "estimators": _estimators}


def _by_scenario(*defaults) -> dict:
    """Per-scenario defaults in the order of ``SCENARIOS``; ``custom``, left
    out when three are given, must state the field."""
    return dict(zip(SCENARIOS, defaults))


# Every config field, in the order parse_config checks them: a row's
# default may read the attributes of the rows above it.
_FIELDS = (
    _Field("scenario", "scenario", "choice", SCENARIOS,
           _Required(f"(one of {', '.join(SCENARIOS)})")),
    _Field("fs_hz", "fs_hz", "number", "> 0", _by_scenario(1000.0, 1000.0, 1000.0)),
    _Field("multisine.period_seconds", "period_seconds", "number", "> 0",
           _by_scenario(5.0, 1.0, 2.0)),
    _Field("multisine.rms", "rms", "number", "> 0", 1.0),
    _Field("multisine.excited_bins", "excited_bins", "excitation", None, "full"),
    _Field("n_periods_total", "n_periods_total", "int", ">= 1", _by_scenario(2, 220, 2)),
    _Field("n_periods_used", "n_periods_used", "int", (">= 1", "<= n_periods_total"),
           lambda v: 200 if v["scenario"] == "closed_loop_siso_bias" else v["n_periods_total"]),
    _Field("noise_std", "noise_std", "number-or-list", ">= 0", _by_scenario(1e-4, 0.05, 0.0)),
    _Field("estimators", "estimators", "estimators", None,
           {s: [n for n, e in _ESTIMATORS[s].items() if e.default]
            for s in SCENARIOS if s != "custom"}),
    _Field("seeds.phase", "phase_seed", "int", ">= 0",
           _Required("(runs must be explicitly seeded)")),
    _Field("seeds.noise", "noise_seed", "int", ">= 0",
           lambda v: _Required("when noise_std > 0") if any(s > 0 for s in v["noise_std"])
           else 0),
    _Field("plant.source", "plant_source", "choice", ("builtin", "json"), "builtin"),
    _Field("plant.path", "plant_source", "plant", None,
           lambda v: _Required("when source is 'json'") if v["plant_source"] == "json"
           else "builtin"),
    _Field("lpm.poly_order", "lpm_poly_order", "int", ">= 0", 2),
    _Field("lpm.half_width", "lpm_half_width", "int", ">= 1"),
    _Field("lpm.dof_margin", "lpm_dof_margin", "int", ">= 1"),
    _Field("band_hz", "band_hz", "band", None, lambda v: [0.4, 0.8 * v["fs_hz"] / 2.0]),
    _Field("excited_channel", "excited_channel", "int", ">= 1", 1),
    _Field("controller.gain", "controller_gain", "number", None, 50.0),
    _Field("controller.zero", "controller_zero", "number", None, 0.9),
    _Field("controller.pole", "controller_pole", "number", None, 0.5),
    _Field("steady_state_start", "steady_state_start", "bool", None,
           _by_scenario(False, False, True, False)),
    _Field("max_defect_fraction", "max_defect_fraction", "number", ">= 0", 0.25),
    _Field("output_dir", "output_dir", "str", None, "out"),
)


def _object_keys() -> dict:
    """The keys the rows describe, by the path of the object holding them."""
    keys = {}
    for f in _FIELDS:
        where = "$"
        for name in f.path.split("."):
            keys.setdefault(where, set()).add(name)
            where += "." + name
    return keys


_KEYS = _object_keys()


def _lookup(doc, path: str) -> tuple:
    """The value at ``path`` and, when it is absent, the path of the
    outermost key missing on the way to it. Each object on the way must
    hold only keys that rows describe."""
    node, where = doc, "$"
    for name in path.split("."):
        if not isinstance(node, dict):
            raise ConfigError(f"{where}: expected an object")
        for key in node:
            if key not in _KEYS[where]:
                raise ConfigError(f"unknown key {key!r} at {where}")
        where += "." + name
        if name not in node:
            return None, where
        node = node[name]
    return node, None


def parse_config(path) -> ScenarioConfig:
    """Read, strictly validate and default-fill a scenario configuration.

    Walks ``_FIELDS`` in order. Unknown keys, missing required fields and
    values of the wrong type, out of bounds or not finite are rejected
    with their path; cross-field violations name the offending fields.
    Seeds are always explicit: runs carry no hidden entropy.
    """
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:  # a JSON or UTF-8 decoding error
        raise ConfigError(f"{path}: not valid JSON ({exc})") from None
    values = {}
    for f in _FIELDS:
        raw, absent = _lookup(doc, f.path)
        default = f.default(values) if callable(f.default) else f.default
        if isinstance(default, dict):
            scenario = values["scenario"]
            default = default.get(scenario, _Required(f"for a {scenario} scenario"))
        if absent:
            if isinstance(default, _Required):
                raise ConfigError(f"{absent}: required {default}")
            raw = default
        values[f.attr] = None if raw is None and default is None \
            else _KINDS[f.kind](raw, f"$.{f.path}", f.bound, values)
    cfg = ScenarioConfig(**values)
    _check_geometry(cfg)
    return cfg


def _check_geometry(cfg: ScenarioConfig) -> None:
    """Reject a period, excitation, statistics band or LPM window that no run
    could use."""
    samples = cfg.fs_hz * cfg.period_seconds * cfg.n_periods_total
    if not samples <= MAX_RECORD_SAMPLES:
        raise ConfigError(f"$.multisine.period_seconds: a record of {samples:g} samples "
                          f"exceeds {MAX_RECORD_SAMPLES:g} (fs_hz * period_seconds * "
                          "n_periods_total)")
    n = cfg.period_samples
    if n < 4:
        raise ConfigError(f"$.multisine.period_seconds: a period of {n} samples "
                          "has no bin to excite (need >= 4 samples)")
    bins = cfg.excited_bins
    if isinstance(bins, list) and (max(bins) > n // 2 - 1 or len(set(bins)) < len(bins)):
        raise ConfigError(f"$.multisine.excited_bins: bins must be distinct and within "
                          f"[1, {n // 2 - 1}] for a period of {n} samples")
    excited_hz = bin_frequencies(n, cfg.ts)[_excited_bins(cfg)] / TWO_PI
    lo, hi = cfg.band_hz
    if not np.any((excited_hz >= lo) & (excited_hz <= hi)):
        raise ConfigError(f"$.band_hz: [{lo}, {hi}] Hz holds no excited frequency "
                          f"(excited: {excited_hz.min():g} to {excited_hz.max():g} Hz)")
    if any(_ESTIMATORS[cfg.scenario][name].method == "lpm" for name in cfg.estimators):
        lpm = _lpm_config(cfg)
        try:
            lpm.validate_for(1)
        except ValueError as exc:
            raise ConfigError(f"$.lpm.half_width: {exc}") from None
        width, n_bins = 2 * lpm.half_width + 1, n * cfg.n_periods_used // 2 + 1
        if n_bins < width:
            raise ConfigError(
                f"$.multisine.period_seconds: the LPM record of {cfg.n_periods_used} "
                f"period(s) has {n_bins} bins, fewer than its window of {width}")


@dataclass
class ScenarioReport:
    """Everything a scenario run produced, ready for export."""

    scenario: str
    config_echo: dict
    estimates: dict                 # name -> FrfEstimate
    oracles: dict                   # name -> FrfEstimate
    curve_blocks: list              # (series, kind, hz array, dB array) per curve
    band_stats: dict                # estimate name -> summary statistics
    defect_log: list
    extra_stats: dict = field(default_factory=dict)
    runtime_seconds: float = 0.0

    def defect_fraction(self) -> float:
        """Distinct defective (estimate, bin) pairs over all estimated bins;
        a bin logged twice, as the indirect method does, counts once."""
        total_bins = sum(e.n_bins for e in self.estimates.values())
        if total_bins == 0:
            return 0.0
        return len({(d["estimate"], d["bin"]) for d in self.defect_log}) / total_bins

    @property
    def curves(self):
        """The curves point by point, in ``curves.csv`` order: a fresh
        iterator of ``(series, kind, hz, value_db)`` tuples per access."""
        return ((series, kind, f, v) for series, kind, hz, db in self.curve_blocks
                for f, v in zip(hz.tolist(), db.tolist()))


def _load_plant(cfg: ScenarioConfig) -> StateSpaceModel:
    if cfg.plant_source == "builtin":
        model = benchmark_plant()
    else:
        try:
            model = read_statespace_json(cfg.plant_source)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"$.plant.path: {exc}") from None
    if model.is_continuous:
        return discretize_zoh(model, cfg.ts)
    if abs(model.ts - cfg.ts) > 1e-12 * cfg.ts:
        raise ConfigError(
            f"$.fs_hz: plant is discrete at ts={model.ts}, config requests ts={cfg.ts}")
    return model


def _noise_std(cfg: ScenarioConfig, n_outputs: int) -> np.ndarray:
    """``noise_std`` per simulated output; a single value applies to all."""
    noise = np.asarray(cfg.noise_std, dtype=float)
    if noise.size == 1:
        return np.full(n_outputs, noise[0])
    if noise.size != n_outputs:
        raise ConfigError(f"$.noise_std: {noise.size} values for a simulated plant "
                          f"with {n_outputs} output(s)")
    return noise


def _excited_bins(cfg: ScenarioConfig) -> list:
    """Excited bins of one period: the full grid, the listed bins or the
    bins inside the configured band."""
    n = cfg.period_samples
    bins = cfg.excited_bins
    if bins is None:
        return list(range(1, n // 2))
    if isinstance(bins, tuple):
        lo, hi = bins
        df = cfg.fs_hz / n
        bins = [k for k in range(1, n // 2) if lo <= k * df <= hi]
        if not bins:
            raise ConfigError("$.multisine.excited_bins: band excites no bins")
    return bins


def _build_spec(cfg: ScenarioConfig) -> MultisineSpec:
    return MultisineSpec.flat(cfg.period_samples, _excited_bins(cfg), rms=cfg.rms,
                              phase_seed=cfg.phase_seed, n_periods=cfg.n_periods_total)


def _lpm_config(cfg: ScenarioConfig) -> LpmConfig:
    """Settings of the single-input (SIMO) local fits every scenario makes."""
    if cfg.lpm_half_width is None:
        auto = LpmConfig.auto(1, cfg.lpm_poly_order)
        margin = cfg.lpm_dof_margin if cfg.lpm_dof_margin is not None else auto.dof_margin
        return LpmConfig(cfg.lpm_poly_order, auto.half_width, margin)
    margin = cfg.lpm_dof_margin if cfg.lpm_dof_margin is not None else 1
    return LpmConfig(cfg.lpm_poly_order, cfg.lpm_half_width, margin)


def _mag_db(values: np.ndarray) -> np.ndarray:
    return 20.0 * np.log10(np.maximum(np.abs(values), 1e-300))


def _collect_curves(blocks, series, freqs_hz, values, oracle_values=None):
    """Append the magnitude (and error) block of one series."""
    blocks.append((series, "magnitude_db", freqs_hz, _mag_db(values)))
    if oracle_values is not None:
        blocks.append((series, "error_db", freqs_hz, _mag_db(values - oracle_values)))


def _band_stats(freqs_hz, values, oracle_values, band_hz) -> dict:
    sel = (freqs_hz >= band_hz[0]) & (freqs_hz <= band_hz[1]) & np.isfinite(values)
    if not np.any(sel):
        return {"n_bins": 0}
    err = np.abs(values[sel] - oracle_values[sel])
    return {
        "n_bins": int(sel.sum()),
        "max_error_db": float(_mag_db(np.array([np.max(err)]))[0]),
        "mean_error_db": float(_mag_db(np.array([np.mean(err)]))[0]),
        "max_error_abs": float(np.max(err)),
        "mean_error_abs": float(np.mean(err)),
    }


def _max_abs(values: np.ndarray):
    """Largest magnitude over the finite values; None (JSON null) when no
    value is finite."""
    finite = np.abs(values[np.isfinite(values)])
    return float(np.max(finite)) if finite.size else None


def _defect_entries(name: str, est: FrfEstimate, freqs_hz) -> list:
    return [
        {"estimate": name, "bin": d.bin_index,
         "frequency_hz": float(freqs_hz[d.bin_index]) if d.bin_index < len(freqs_hz) else None,
         "reason": d.reason,
         "detail": None if d.detail is None else float(d.detail)}
        for d in est.defects
    ]


def _run_single_experiment(cfg: ScenarioConfig) -> ScenarioReport:
    """One closed-loop experiment exciting one loop, then every estimator.

    The transient study estimates the sensitivity of the excited loop of
    the square plant; the bias study cuts that loop out as a SISO plant
    and estimates the plant, next to the large-M limit of the direct
    method. With ``steady_state_start`` the loop starts in the periodic
    steady state of the noise-free response to one period.
    """
    bias = cfg.scenario == "closed_loop_siso_bias"
    plant = _load_plant(cfg)
    j = cfg.excited_channel - 1
    if not bias and plant.n_inputs != plant.n_outputs:
        raise ConfigError("$.plant: transient study needs a square plant")
    if j >= plant.n_inputs or j >= plant.n_outputs:
        raise ConfigError(f"$.excited_channel: plant has {plant.n_inputs} inputs")
    if bias:
        plant = StateSpaceModel(plant.a, plant.b[:, j:j + 1], plant.c[j:j + 1, :],
                                plant.d[j:j + 1, j:j + 1], ts=plant.ts)
        j = 0
    ctrl = ControllerConfig.lead(plant.n_inputs, cfg.ts, cfg.controller_gain,
                                 cfg.controller_zero, cfg.controller_pole)
    spec = _build_spec(cfg)
    period = cfg.period_samples
    d = np.zeros((plant.n_inputs, spec.total_samples))
    d[j] = generate_multisine(spec, cfg.ts).data[0]
    noise = _noise_std(cfg, plant.n_outputs)
    xp0 = xc0 = None
    if cfg.steady_state_start:
        xp0, xc0 = closed_loop_steady_state(plant, ctrl, TimeSeries(d[:, :period], cfg.ts))
    record = simulate_closed_loop(plant, ctrl, TimeSeries(d, cfg.ts), noise_std=noise,
                                  noise_seed=cfg.noise_seed, x_plant0=xp0, x_ctrl0=xc0)
    dataset = ClosedLoopDataset.from_record(record, j)
    if cfg.n_periods_used < cfg.n_periods_total:
        dataset = dataset.tail_periods(period, cfg.n_periods_used)

    oracle = (lambda w: true_frf(plant, w).g[:, 0, 0]) if bias \
        else (lambda w: true_sensitivity(plant, ctrl, w)[:, j, j])
    grids = {}  # window length in samples -> (bin frequencies, oracle there)

    def on_grid(n_samples):
        if n_samples not in grids:
            w = bin_frequencies(n_samples, cfg.ts)
            grids[n_samples] = w, oracle(w)
        return grids[n_samples]

    exc = np.asarray(spec.excited_bins)
    estimates, blocks, stats, defects = {}, [], {}, []
    for name in cfg.estimators:
        entry = _ESTIMATORS[cfg.scenario][name]
        sa = entry.method == "sa"
        est = entry.estimate(dataset, entry.method, period if sa else None,
                             entry.window(period) if entry.window else None,
                             None if sa else _lpm_config(cfg))
        periods = 1 if sa else cfg.n_periods_used
        truth = on_grid(period * periods)[1]
        sel = periods * exc
        freqs_hz = est.frequencies_hz
        estimates[name] = est
        _collect_curves(blocks, name, freqs_hz[sel], est.g[sel, 0, 0], truth[sel])
        stats[name] = _band_stats(freqs_hz[sel], est.g[sel, 0, 0], truth[sel],
                                  cfg.band_hz)
        defects += _defect_entries(name, est, freqs_hz)

    # the bias asymptote needs the period grid; the transient oracle takes
    # the finest grid an estimator used
    w, truth = on_grid(period if bias else min(grids))
    oracles = {"oracle": FrfEstimate(
        truth[:, None, None], w, variance=np.zeros((len(w), 1, 1)),
        estimator_tag={"estimator": "plant_oracle" if bias else "sensitivity_oracle"})}
    _collect_curves(blocks, "oracle", w / TWO_PI, truth)

    extra = {}
    if bias:
        sigma = float(noise[0])
        d_spec = spectrum_set(dataset.d, period).data[0, 0]
        asymptote = direct_bias_asymptote(truth, ctrl.frf(w)[:, 0, 0],
                                          np.abs(d_spec) ** 2, sigma**2)
        oracles["bias_asymptote"] = FrfEstimate(
            asymptote[:, None, None], w,
            estimator_tag={"estimator": "direct_bias_asymptote", "noise_std": sigma})
        _collect_curves(blocks, "bias_asymptote", w[exc] / TWO_PI,
                        asymptote[exc], truth[exc])
        est = estimates.get("direct_sa")
        if est is not None and est.variance is not None:
            dev = np.abs(est.g[exc, 0, 0] - asymptote[exc])
            ok = dev <= 3 * np.sqrt(est.variance[exc, 0, 0])
            extra["direct_within_3se_of_asymptote"] = float(np.mean(ok[np.isfinite(dev)]))
    return ScenarioReport(cfg.scenario, cfg.echo(), estimates, oracles,
                          blocks, stats, defects, extra)


def _run_mimo_study(cfg: ScenarioConfig) -> ScenarioReport:
    plant = _load_plant(cfg)
    if plant.n_inputs != plant.n_outputs or plant.n_inputs < 2:
        raise ConfigError("$.plant: the MIMO study needs a square multivariable plant")
    ctrl = ControllerConfig.lead(plant.n_inputs, cfg.ts, cfg.controller_gain,
                                 cfg.controller_zero, cfg.controller_pole)
    spec = _build_spec(cfg)
    estimator = _ESTIMATORS[cfg.scenario][cfg.estimators[0]].method
    sigma = _noise_std(cfg, plant.n_outputs)
    noise_seeds = tuple(cfg.noise_seed + k for k in range(plant.n_inputs)) \
        if np.any(sigma > 0) else None
    frm = run_mimo_experiments(
        plant, ctrl, spec, noise_std=sigma,
        phase_seeds=tuple(cfg.phase_seed + k for k in range(plant.n_inputs)),
        noise_seeds=noise_seeds, estimator=estimator,
        lpm_config=_lpm_config(cfg) if estimator == "lpm" else None,
        n_periods_used=cfg.n_periods_used,
        start_at_steady_state=cfg.steady_state_start)
    g_full = full_plant(frm)
    g_eq = equivalent_plant(frm)

    freqs = g_full.bin_frequencies
    freqs_hz = freqs / TWO_PI
    exc = (cfg.n_periods_used if estimator == "lpm" else 1) * np.asarray(spec.excited_bins)
    oracles = {"oracle": true_frf(plant, freqs)}
    g_true = oracles["oracle"].g
    k_frf = ctrl.frf(freqs)
    eq_true = equivalent_plant_true(g_true, k_frf)

    estimates = {"gs": frm.gs, "s": frm.s, "g_full": g_full, "g_equiv": g_eq}
    blocks, stats, defects = [], {}, []
    n = plant.n_inputs
    for i in range(n):
        for jj in range(n):
            label = f"{i + 1}{jj + 1}"
            _collect_curves(blocks, f"g_full_{label}", freqs_hz[exc],
                            g_full.g[exc, i, jj], g_true[exc, i, jj])
            _collect_curves(blocks, f"g_equiv_{label}", freqs_hz[exc],
                            g_eq.g[exc, i, jj], eq_true[exc, i, jj])
            _collect_curves(blocks, f"oracle_{label}", freqs_hz[exc],
                            g_true[exc, i, jj])
    stats["g_full"] = _band_stats(freqs_hz[exc], g_full.g[exc, 0, 0],
                                  g_true[exc, 0, 0], cfg.band_hz)
    stats["g_equiv"] = _band_stats(freqs_hz[exc], g_eq.g[exc, 0, 0],
                                   eq_true[exc, 0, 0], cfg.band_hz)
    for name, est in estimates.items():
        defects += _defect_entries(name, est, freqs_hz)

    extra = {}
    if n == 2:
        gap = g_full.g[exc, 0, 0] - g_eq.g[exc, 0, 0]
        inter = interaction_term(g_true, k_frf, loop=0)[exc]
        _collect_curves(blocks, "interaction_11", freqs_hz[exc], inter)
        extra["max_gap_vs_interaction_dev"] = _max_abs(gap - inter)
        extra["max_interaction_magnitude"] = _max_abs(inter)
    return ScenarioReport(cfg.scenario, cfg.echo(), estimates, oracles,
                          blocks, stats, defects, extra)


def run_scenario(cfg: ScenarioConfig) -> ScenarioReport:
    """Execute a validated scenario configuration. Deterministic given
    the config (all randomness flows from the recorded seeds)."""
    started = time.perf_counter()
    if cfg.scenario == "mimo_full_vs_equivalent":
        report = _run_mimo_study(cfg)
    else:
        report = _run_single_experiment(cfg)
    report.runtime_seconds = time.perf_counter() - started
    return report


def export_report(report: ScenarioReport, out_dir) -> list:
    """Write one CSV per estimate, the oracle curves, a long-format plot
    CSV and a deterministic summary.json; run metadata (timestamp,
    runtime) goes to a separate run_meta.json so the numerical outputs
    are byte-stable across reruns.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []

    # the MIMO maps keep their own names; every other estimate is frf_{name}
    prefix = "" if report.scenario == "mimo_full_vs_equivalent" else "frf_"
    for name, est in report.estimates.items():
        fname = f"{prefix}{name}.csv"
        write_frf_csv(est, out / fname)
        written.append(fname)
    for name, est in report.oracles.items():
        fname = f"{name}.csv"
        write_frf_csv(est, out / fname)
        written.append(fname)

    with (out / "curves.csv").open("w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_fields(["series", "kind", "frequency_hz", "value_db"]) + "\n")
        for series, kind, hz, db in report.curve_blocks:
            _write_csv_rows(fh, [hz, db], prefix=_csv_fields([series, kind]) + ",")
    written.append("curves.csv")

    summary = {
        "scenario": report.scenario,
        "config": report.config_echo,
        "band_statistics": report.band_stats,
        "extra_statistics": report.extra_stats,
        "defects": report.defect_log,
        "defect_fraction": report.defect_fraction(),
        "files": sorted(written),
    }
    (out / "summary.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    written.append("summary.json")

    meta = {
        "generated_at_utc": datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0).isoformat(),
        "runtime_seconds": report.runtime_seconds,
        "package_version": __version__,
    }
    (out / "run_meta.json").write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    written.append("run_meta.json")
    return [str(out / name) for name in written]


def _cmd_run(args) -> int:
    if args.seed_override is not None and args.seed_override < 0:
        print(f"error: --seed-override: must be >= 0, got {args.seed_override}",
              file=sys.stderr)
        return 2
    try:
        cfg = parse_config(args.config)
        if args.seed_override is not None:
            cfg.phase_seed = args.seed_override
            cfg.noise_seed = args.seed_override + 1
        if args.out is not None:
            cfg.output_dir = args.out
        report = run_scenario(cfg)
    except (ConfigError, UnstableLoopError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    files = export_report(report, cfg.output_dir)
    for path in files:
        print(path)
    fraction = report.defect_fraction()
    if fraction > cfg.max_defect_fraction:
        print(f"error: defect fraction {fraction:.3f} exceeds threshold "
              f"{cfg.max_defect_fraction:.3f}", file=sys.stderr)
        return 3
    return 0


def _cmd_oracle(args) -> int:
    try:
        model = read_statespace_json(args.model)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.bins < 2:
        print("error: --bins must be >= 2", file=sys.stderr)
        return 2
    if args.zoh and model.is_continuous:
        model = discretize_zoh(model, 1.0 / args.fs)
    if not model.is_continuous and abs(model.ts - 1.0 / args.fs) > 1e-9 / args.fs:
        print(f"error: model sampling rate {1.0 / model.ts} Hz does not match "
              f"--fs {args.fs}", file=sys.stderr)
        return 2
    freqs = math.pi * args.fs * np.arange(args.bins) / (args.bins - 1)
    est = true_frf(model, freqs)
    write_frf_csv(est, args.out)
    print(args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frfkit",
        description="Frequency response identification scenario runner")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario configuration")
    run_p.add_argument("config", help="path to the JSON scenario config")
    run_p.add_argument("--out", default=None, help="output directory override")
    run_p.add_argument("--seed-override", type=int, default=None,
                       help="replace the configured seeds (phase=N, noise=N+1)")
    run_p.set_defaults(func=_cmd_run)

    oracle_p = sub.add_parser("oracle", help="emit the analytic FRF of a model")
    oracle_p.add_argument("model", help="state-space model JSON file")
    oracle_p.add_argument("--fs", type=float, required=True,
                          help="sampling rate in Hz setting the frequency grid")
    oracle_p.add_argument("--bins", type=int, required=True,
                          help="number of bins from 0 to the Nyquist rate")
    oracle_p.add_argument("--zoh", action="store_true",
                          help="discretize a continuous model first (exact ZOH)")
    oracle_p.add_argument("--out", default="true_frf.csv",
                          help="output CSV path (default true_frf.csv)")
    oracle_p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
