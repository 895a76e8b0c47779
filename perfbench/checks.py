"""Correctness gate applied to the outputs of every scenario run.

A run passes when it exits 0 with its defect fraction within the
configured threshold, every reported file exists, its numerical outputs
are byte-identical to the first run of the same seed, and (on that first
run) the estimate of record, read back from its CSV, agrees with the
package's analytic oracle within the workload's tolerance.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from workloads import BIAS, MIMO


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as fh:  # in chunks, so checking adds little to peak memory
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def digests(out_dir: Path) -> dict:
    """sha256 of every numerical output; run_meta.json holds wall-clock fields."""
    return {p.name: _sha256(p) for p in sorted(out_dir.iterdir())
            if p.name != "run_meta.json"}


def summary_problems(out_dir: Path, cfg) -> tuple:
    """Read summary.json; flag a defect fraction over threshold or missing files."""
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    problems = []
    if not summary["defect_fraction"] <= cfg.max_defect_fraction:
        problems.append(f"defect_fraction {summary['defect_fraction']:.4g} exceeds "
                        f"{cfg.max_defect_fraction:.4g}")
    missing = [f for f in summary["files"] + ["run_meta.json"]
               if not (out_dir / f).is_file()]
    if missing:
        problems.append(f"missing outputs {missing}")
    return summary, problems


def _oracle(sim, closedloop, cfg, w: np.ndarray) -> np.ndarray:
    """The package's analytic response for the estimate of record at ``w`` rad/s."""
    plant = sim.discretize_zoh(sim.benchmark_plant(), cfg.ts)
    if cfg.scenario == BIAS:
        siso = sim.StateSpaceModel(plant.a, plant.b[:, :1], plant.c[:1, :],
                                   plant.d[:1, :1], ts=plant.ts)
        return sim.true_frf(siso, w).g[:, 0, 0]
    if cfg.scenario == MIMO:
        return sim.true_frf(plant, w).g[:, 0, 0]
    ctrl = sim.ControllerConfig.lead(plant.n_inputs, cfg.ts, cfg.controller_gain,
                                     cfg.controller_zero, cfg.controller_pole)
    return closedloop.true_sensitivity(plant, ctrl, w)[:, 0, 0]


def oracle_error(sim, closedloop, run, cfg, out_dir: Path) -> float:
    """Mean in-band |estimate - oracle| of the estimate of record.

    Recomputed from the written files: the bins are those ``curves.csv``
    reports for the estimate, the values come from its FRF CSV (first
    entry, g11), and the oracle is evaluated afresh.
    """
    reported = set()
    with (out_dir / "curves.csv").open(newline="", encoding="utf-8") as fh:
        for series, kind, hz, _ in csv.reader(fh):
            if series == run.series and kind == "magnitude_db":
                reported.add(float(hz))
    table = np.loadtxt(out_dir / run.record_file, delimiter=",", skiprows=1,
                       usecols=(0, 1, 2), ndmin=2)
    hz = table[:, 0]
    lo, hi = cfg.band_hz
    values = table[:, 1] + 1j * table[:, 2]
    keep = np.isin(hz, list(reported)) & (hz >= lo) & (hz <= hi) & np.isfinite(values)
    if not np.any(keep):
        return math.nan
    oracle = _oracle(sim, closedloop, cfg, 2.0 * math.pi * hz[keep])
    return float(np.mean(np.abs(values[keep] - oracle)))


def oracle_problems(err: float, claimed: float, tolerance: float) -> list:
    """The recomputed error must be finite, within tolerance and match the summary."""
    if not math.isfinite(err):
        return ["estimate of record has no finite in-band bin"]
    problems = []
    if err > tolerance:
        problems.append(f"oracle_err {err:.4g} above tolerance {tolerance:.4g}")
    if abs(err - claimed) > 1e-6 * abs(claimed) + 1e-12:
        problems.append(f"summary.json claims mean_error_abs {claimed!r}, "
                        f"the written estimate gives {err!r}")
    return problems
