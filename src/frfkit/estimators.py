"""Open-loop FRF estimators: ETFE variants, spectral analysis and the
local polynomial method (LPM) with explicit transient estimation.

All estimators consume :class:`~frfkit.signals.SpectrumSet` objects built
with the package's energy-preserving DFT scaling and publish
:class:`FrfEstimate` results. Bins where an estimator cannot produce a
trustworthy value are set to NaN and logged as :class:`BinDefect`
entries instead of failing silently.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .signals import SpectrumSet, WindowFunction

TWO_PI = 2.0 * math.pi

ETFE_FLOOR_REL = 1e-12  # default |U| floor relative to the spectrum peak


@dataclass
class BinDefect:
    """Per-bin estimator defect: which bin, why, and an optional figure."""

    bin_index: int
    reason: str
    detail: float = None


@dataclass
class FrfEstimate:
    """Per-bin complex FRF matrix with optional variance and transient.

    Fields
    ------
    g : ndarray, shape (n_bins, n_y, n_u), complex
        FRF matrix per bin; NaN exactly at bins listed in ``defects``.
    bin_frequencies : ndarray, rad/s, strictly increasing
    variance : ndarray or None
        Per-entry variance (same shape as ``g``), nonnegative where
        present; None when the estimator cannot attach one.
    transient : ndarray or None, shape (n_bins, n_y)
        Estimated transient/leakage spectrum per output.
    estimator_tag : dict
        Provenance metadata (estimator name, settings, caveats).
    defects : list of BinDefect
    condition : ndarray or None
        Per-bin condition number of an inverted matrix, when relevant.
    """

    g: np.ndarray
    bin_frequencies: np.ndarray
    variance: np.ndarray = None
    transient: np.ndarray = None
    estimator_tag: dict = field(default_factory=dict)
    defects: list = field(default_factory=list)
    condition: np.ndarray = None

    def __post_init__(self):
        g = np.asarray(self.g, dtype=complex)
        if g.ndim == 1:
            g = g[:, np.newaxis, np.newaxis]
        if g.ndim != 3:
            raise ValueError("g must have shape (n_bins, n_y, n_u)")
        freqs = np.asarray(self.bin_frequencies, dtype=float)
        if freqs.shape != (g.shape[0],):
            raise ValueError("bin_frequencies must have one entry per bin")
        if freqs.size > 1 and np.any(np.diff(freqs) <= 0):
            raise ValueError("bin_frequencies must be strictly increasing")
        self.g = g
        self.bin_frequencies = freqs
        if self.variance is not None:
            var = np.asarray(self.variance, dtype=float)
            if var.shape != g.shape:
                raise ValueError("variance must match the shape of g")
            finite = var[np.isfinite(var)]
            if finite.size and np.any(finite < 0):
                raise ValueError("variance must be nonnegative")
            self.variance = var
        if self.transient is not None:
            tr = np.asarray(self.transient, dtype=complex)
            if tr.shape != (g.shape[0], g.shape[1]):
                raise ValueError("transient must have shape (n_bins, n_y)")
            self.transient = tr
        if self.condition is not None:
            self.condition = np.asarray(self.condition, dtype=float)

    @property
    def n_bins(self) -> int:
        return self.g.shape[0]

    @property
    def n_outputs(self) -> int:
        return self.g.shape[1]

    @property
    def n_inputs(self) -> int:
        return self.g.shape[2]

    @property
    def frequencies_hz(self) -> np.ndarray:
        return self.bin_frequencies / TWO_PI

    def entry(self, output: int, input_: int) -> np.ndarray:
        """Complex FRF of one (output, input) pair over all bins."""
        return self.g[:, output, input_]

    def defect_bins(self) -> set:
        return {d.bin_index for d in self.defects}


@dataclass
class PowerSpectra:
    """Averaged cross/auto power spectra over M windows.

    ``phi_yu[k] = mean_m Y_m(k) U_m(k)^H`` and likewise for ``phi_uu``
    and ``phi_yy``; the auto spectra are Hermitian PSD per bin.
    """

    phi_yu: np.ndarray
    phi_uu: np.ndarray
    phi_yy: np.ndarray
    m_windows: int
    bin_frequencies: np.ndarray

    def __post_init__(self):
        self.phi_yu = np.asarray(self.phi_yu, dtype=complex)
        self.phi_uu = np.asarray(self.phi_uu, dtype=complex)
        self.phi_yy = np.asarray(self.phi_yy, dtype=complex)
        if self.m_windows < 1:
            raise ValueError("m_windows must be >= 1")
        self.bin_frequencies = np.asarray(self.bin_frequencies, dtype=float)

    @property
    def n_inputs(self) -> int:
        return self.phi_uu.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.phi_yy.shape[1]


def _floor_defaulted(magnitudes: np.ndarray, floor) -> float:
    if floor is not None:
        return float(floor)
    peak = float(np.max(magnitudes)) if magnitudes.size else 0.0
    return ETFE_FLOOR_REL * peak


def etfe(spectra: SpectrumSet, input_channel=0, output_channel=1,
         floor: float = None) -> FrfEstimate:
    """Empirical transfer function estimate, averaged over windows.

    ``G(k) = mean_m Y_m(k) / U_m(k)`` over the windows whose input
    magnitude clears the floor (defaults to ``1e-12 * max|U|``). Windows
    below the floor are excluded from the average and logged; a bin where
    every window is floored becomes NaN with a defect record. No variance
    is attached.
    """
    iu = spectra.channel_index(input_channel)
    iy = spectra.channel_index(output_channel)
    u = spectra.data[:, iu, :]
    y = spectra.data[:, iy, :]
    floor_abs = _floor_defaulted(np.abs(u), floor)
    ok = np.abs(u) > floor_abs
    count = ok.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(ok, y / np.where(ok, u, 1.0), 0.0)
    g = np.full(spectra.n_bins, np.nan + 0j)
    valid = count > 0
    g[valid] = ratios[:, valid].sum(axis=0) / count[valid]
    defects = []
    m = spectra.n_windows
    for k in np.flatnonzero(count == 0):
        defects.append(BinDefect(int(k), "input_floored_all_windows", floor_abs))
    for k in np.flatnonzero((count > 0) & (count < m)):
        defects.append(BinDefect(int(k), "input_floored_windows_excluded",
                                 float(m - count[k])))
    tag = {"estimator": "etfe", "m_windows": m, "floor": floor_abs}
    return FrfEstimate(g, spectra.bin_frequencies, estimator_tag=tag, defects=defects)


def average_then_divide(spectra: SpectrumSet, input_channel=0, output_channel=1,
                        floor: float = None) -> FrfEstimate:
    """Average the spectra over windows first, then divide.

    Pitfall demonstrator: with independent random phases per window the
    averaged input tends to zero as M grows, so the division floor trips
    far more often than for :func:`etfe`. Sound only for phase-coherent
    (periodic, aligned) windows, where it coincides with the ETFE.
    """
    iu = spectra.channel_index(input_channel)
    iy = spectra.channel_index(output_channel)
    u_avg = spectra.data[:, iu, :].mean(axis=0)
    y_avg = spectra.data[:, iy, :].mean(axis=0)
    floor_abs = _floor_defaulted(np.abs(u_avg), floor)
    ok = np.abs(u_avg) > floor_abs
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(ok, y_avg / np.where(ok, u_avg, 1.0), np.nan + 0j)
    defects = [BinDefect(int(k), "averaged_input_floored", floor_abs)
               for k in np.flatnonzero(~ok)]
    tag = {"estimator": "average_then_divide", "m_windows": spectra.n_windows,
           "floor": floor_abs}
    return FrfEstimate(g, spectra.bin_frequencies, estimator_tag=tag, defects=defects)


def power_spectra(spectra: SpectrumSet, input_channels=(0,), output_channels=(1,),
                  window: WindowFunction = None) -> PowerSpectra:
    """Averaged cross/auto power spectra for the selected channels.

    The taper must already be applied to the time segments (that is what
    :func:`frfkit.signals.spectrum_set` does); ``window`` defaults to the
    taper recorded on the SpectrumSet and only supplies the mean-square
    window power used to renormalize the spectra, keeping noise-power
    levels comparable across window kinds.
    """
    iu = [spectra.channel_index(c) for c in np.atleast_1d(input_channels)]
    iy = [spectra.channel_index(c) for c in np.atleast_1d(output_channels)]
    u = spectra.data[:, iu, :]
    y = spectra.data[:, iy, :]
    if window is None:
        window = spectra.window
    comp = 1.0 / window.power() if window is not None else 1.0
    m = spectra.n_windows
    phi_yu = np.einsum("mak,mbk->kab", y, np.conj(u)) * (comp / m)
    phi_uu = np.einsum("mak,mbk->kab", u, np.conj(u)) * (comp / m)
    phi_yy = np.einsum("mak,mbk->kab", y, np.conj(y)) * (comp / m)
    return PowerSpectra(phi_yu, phi_uu, phi_yy, m, spectra.bin_frequencies)


def noise_covariance(ps: PowerSpectra) -> np.ndarray:
    """Residual output-noise covariance per bin, shape (n_bins, n_y, n_y).

    ``C_v(k) = M/(M - n_u) * (phi_yy - phi_yu phi_uu^{-1} phi_yu^H)``.
    Returned unclipped (complex); callers take the real diagonal. Bins
    with singular ``phi_uu`` come back as NaN. Requires M > n_u.
    """
    m, n_u = ps.m_windows, ps.n_inputs
    if m <= n_u:
        raise ValueError(f"need more windows than inputs (M={m}, n_u={n_u})")
    n_bins = ps.phi_uu.shape[0]
    cv = np.full((n_bins, ps.n_outputs, ps.n_outputs), np.nan + 0j)
    scale = m / (m - n_u)
    for k in range(n_bins):
        try:
            sol = np.linalg.solve(ps.phi_uu[k].T, ps.phi_yu[k].T)  # phi_uu^{-T} phi_yu^T
        except np.linalg.LinAlgError:
            continue
        proj = sol.T @ np.conj(ps.phi_yu[k].T)  # phi_yu phi_uu^{-1} phi_yu^H
        cv[k] = scale * (ps.phi_yy[k] - proj)
    return cv


def spectral_analysis(ps: PowerSpectra, cond_limit: float = 1e12) -> FrfEstimate:
    """Spectral-analysis FRF ``G(k) = phi_yu(k) phi_uu(k)^{-1}`` per bin.

    When M > n_u the per-entry variance is attached as
    ``var(G_ij) = (1/M) * [phi_uu^{-1}]_jj * [C_v]_ii`` with the noise
    covariance from :func:`noise_covariance`; otherwise variance is
    flagged absent (None). Singular or ill-conditioned ``phi_uu`` bins
    become NaN defects carrying the condition number.
    """
    n_bins = ps.phi_uu.shape[0]
    n_y, n_u = ps.n_outputs, ps.n_inputs
    g = np.full((n_bins, n_y, n_u), np.nan + 0j)
    inv_diag = np.full((n_bins, n_u), np.nan)
    defects = []
    eye = np.eye(n_u)
    for k in range(n_bins):
        puu = ps.phi_uu[k]
        if not np.all(np.isfinite(puu)):
            defects.append(BinDefect(k, "nonfinite_input_spectrum"))
            continue
        if n_u == 1:
            p = puu[0, 0].real
            if p <= 0.0:
                defects.append(BinDefect(k, "singular_input_spectrum", 0.0))
                continue
            g[k] = ps.phi_yu[k] / p
            inv_diag[k, 0] = 1.0 / p
            continue
        cond = np.linalg.cond(puu)
        if not np.isfinite(cond) or cond > cond_limit:
            defects.append(BinDefect(k, "ill_conditioned_input_spectrum", float(cond)))
            continue
        inv_uu = np.linalg.solve(puu, eye)
        g[k] = ps.phi_yu[k] @ inv_uu
        inv_diag[k] = np.real(np.diag(inv_uu))

    variance = None
    m = ps.m_windows
    if m > n_u:
        cv = noise_covariance(ps)
        cv_diag = np.real(np.einsum("kii->ki", cv))
        variance = np.maximum(
            inv_diag[:, np.newaxis, :] * cv_diag[:, :, np.newaxis] / m, 0.0)
        variance[~np.isfinite(variance)] = np.nan
    tag = {"estimator": "spectral_analysis", "m_windows": m,
           "variance_attached": variance is not None}
    return FrfEstimate(g, ps.bin_frequencies, variance=variance,
                       estimator_tag=tag, defects=defects)


@dataclass(frozen=True)
class LpmConfig:
    """Local polynomial model settings.

    ``poly_order`` is the degree of the local polynomials for both the
    FRF and the transient; ``half_width`` sets the window of
    ``2*half_width + 1`` bins around each center bin; ``dof_margin`` is
    the minimum number of residual degrees of freedom kept in the local
    least squares (solvability requires
    ``2*half_width + 1 >= (poly_order+1)*(n_inputs+1) + dof_margin``).
    """

    poly_order: int = 2
    half_width: int = 4
    dof_margin: int = 1

    def __post_init__(self):
        if self.poly_order < 0:
            raise ValueError("poly_order must be >= 0")
        if self.half_width < 1:
            raise ValueError("half_width must be >= 1")
        if self.dof_margin < 1:
            raise ValueError("dof_margin must be >= 1")

    @classmethod
    def auto(cls, n_inputs: int = 1, poly_order: int = 2) -> "LpmConfig":
        """Smallest solvable half-width with ``dof_margin = poly_order + 1``."""
        margin = poly_order + 1
        needed = (poly_order + 1) * (n_inputs + 1) + margin
        half_width = needed // 2  # smallest n_w with 2*n_w + 1 >= needed
        return cls(poly_order, half_width, margin)

    def n_parameters(self, n_inputs: int) -> int:
        return (self.poly_order + 1) * (n_inputs + 1)

    def validate_for(self, n_inputs: int) -> None:
        width = 2 * self.half_width + 1
        needed = self.n_parameters(n_inputs) + self.dof_margin
        if width < needed:
            raise ValueError(
                f"window of {width} bins cannot support "
                f"{self.n_parameters(n_inputs)} parameters plus dof_margin="
                f"{self.dof_margin} (need >= {needed} bins)")


@dataclass
class LocalModelTheta:
    """Local polynomial coefficients at one bin.

    ``theta_g[s]`` is the (n_y, n_u) coefficient of the s-th power of the
    bin offset for the FRF block (s=0 is the FRF itself); ``theta_t[s]``
    is the (n_y,) transient counterpart.
    """

    theta_g: np.ndarray  # (poly_order+1, n_y, n_u)
    theta_t: np.ndarray  # (poly_order+1, n_y)


def lpm_edge_policy(k: int, n_bins: int, cfg: LpmConfig) -> range:
    """Index window of ``2*half_width + 1`` bins kept inside the spectrum.

    Centered on ``k`` where possible; shifted (asymmetric offsets) at the
    spectrum edges. The local model is still evaluated at bin ``k``.
    """
    width = 2 * cfg.half_width + 1
    if n_bins < width:
        raise ValueError(f"spectrum has {n_bins} bins, need at least {width}")
    if not 0 <= k < n_bins:
        raise ValueError(f"bin {k} out of range")
    lo = min(max(k - cfg.half_width, 0), n_bins - width)
    return range(lo, lo + width)


def _lpm_fit_bins(bins, u, y, cfg, n_bins, g, transient, variance,
                  local_models, defects):
    """Fit the local model at each requested bin (fills output arrays)."""
    n_u = u.shape[0]
    n_y = y.shape[0]
    order = cfg.poly_order
    n_w = cfg.half_width
    q_g = (order + 1) * n_u
    q = q_g + (order + 1)
    width = 2 * n_w + 1
    t_row = q_g  # row of the zeroth-order transient coefficient
    for k in bins:
        idx = lpm_edge_policy(k, n_bins, cfg)
        lo = idx.start
        # offsets normalized to the half-width for conditioning; the
        # zeroth-order coefficients are invariant under this rescaling
        rho = (np.arange(lo, lo + width) - k) / n_w
        k1 = np.vander(rho, order + 1, increasing=True).T  # (order+1, width)
        u_win = u[:, lo:lo + width]
        reg = np.empty((q, width), dtype=complex)
        reg[:q_g] = (k1[:, np.newaxis, :] * u_win[np.newaxis, :, :]).reshape(q_g, width)
        reg[q_g:] = k1
        y_win = y[:, lo:lo + width]
        sol, _, rank, _ = scipy.linalg.lstsq(
            reg.conj().T, y_win.conj().T, lapack_driver="gelsy", check_finite=False)
        if rank < q:
            defects.append(BinDefect(int(k), "rank_deficient_regressor", float(rank)))
            continue
        theta = sol.conj().T  # (n_y, q)
        g[k] = theta[:, :n_u]
        transient[k] = theta[:, t_row]
        resid = y_win - theta @ reg
        dof = width - q
        sigma2 = np.sum(np.abs(resid) ** 2, axis=1) / dof
        gram_inv = np.linalg.inv(reg @ reg.conj().T)
        var_cols = np.real(np.diag(gram_inv))[:n_u]
        variance[k] = np.maximum(sigma2[:, np.newaxis] * var_cols[np.newaxis, :], 0.0)
        if local_models is not None:
            powers = float(n_w) ** np.arange(order + 1)
            theta_g = theta[:, :q_g].reshape(n_y, order + 1, n_u).transpose(1, 0, 2)
            theta_t = theta[:, q_g:].T.copy()
            # undo the offset normalization: coefficient of r^s is c_s / n_w^s
            theta_g /= powers[:, np.newaxis, np.newaxis]
            theta_t /= powers[:, np.newaxis]
            local_models[k] = LocalModelTheta(theta_g, theta_t)


def lpm_fit(spectra: SpectrumSet, cfg: LpmConfig = None, input_channels=(0,),
            output_channels=(1,), bins=None, return_local_models: bool = False):
    """Local polynomial FRF and transient estimate from one window.

    For every bin a polynomial model of the FRF (all inputs, Kronecker
    regressor) and of the transient is fitted over the surrounding bins
    by complex linear least squares; the zeroth-order coefficients are
    the FRF and transient estimates at that bin. A residual-based
    variance is attached per entry.

    Parameters
    ----------
    spectra : SpectrumSet with exactly one window.
    cfg : LpmConfig, defaults to ``LpmConfig.auto(n_inputs)``.
    bins : optional iterable of bin indices to estimate (all by default);
        skipped bins stay NaN without defect records.
    return_local_models : also return the full per-bin coefficient
        blocks (list indexed by bin, None where not fitted).
    """
    if spectra.n_windows != 1:
        raise ValueError(
            f"the local polynomial method uses a single window, got {spectra.n_windows}")
    iu = [spectra.channel_index(c) for c in np.atleast_1d(input_channels)]
    iy = [spectra.channel_index(c) for c in np.atleast_1d(output_channels)]
    n_u, n_y = len(iu), len(iy)
    if cfg is None:
        cfg = LpmConfig.auto(n_u)
    cfg.validate_for(n_u)
    n_bins = spectra.n_bins
    if n_bins < 2 * cfg.half_width + 1:
        raise ValueError(
            f"spectrum has {n_bins} bins, need at least {2 * cfg.half_width + 1}")
    u = spectra.data[0, iu, :]
    y = spectra.data[0, iy, :]
    if bins is None:
        bins = np.arange(n_bins)
    else:
        bins = np.asarray(list(bins), dtype=int)
        if bins.size and (bins.min() < 0 or bins.max() >= n_bins):
            raise ValueError("requested bins out of range")

    g = np.full((n_bins, n_y, n_u), np.nan + 0j)
    transient = np.full((n_bins, n_y), np.nan + 0j)
    variance = np.full((n_bins, n_y, n_u), np.nan)
    local_models = [None] * n_bins if return_local_models else None

    defects = []
    _lpm_fit_bins(bins, u, y, cfg, n_bins, g, transient, variance,
                  local_models, defects)

    tag = {"estimator": "lpm", "poly_order": cfg.poly_order,
           "half_width": cfg.half_width, "dof_margin": cfg.dof_margin}
    est = FrfEstimate(g, spectra.bin_frequencies, variance=variance,
                      transient=transient, estimator_tag=tag, defects=defects)
    if return_local_models:
        return est, local_models
    return est


def _entry_names(est: FrfEstimate):
    return [(i, j, f"g{i + 1}{j + 1}") for i in range(est.n_outputs)
            for j in range(est.n_inputs)]


def write_frf_csv(est: FrfEstimate, path) -> None:
    """FRF export: frequency_hz, then re/im/variance per (output, input)
    entry, transient re/im per output when present, condition number when
    present."""
    path = Path(path)
    has_var = est.variance is not None
    header = ["frequency_hz"]
    for _, _, name in _entry_names(est):
        header += [f"{name}_re", f"{name}_im"]
        if has_var:
            header.append(f"{name}_var")
    if est.transient is not None:
        for i in range(est.n_outputs):
            header += [f"t{i + 1}_re", f"t{i + 1}_im"]
    if est.condition is not None:
        header.append("cond")
    freqs_hz = est.frequencies_hz
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for k in range(est.n_bins):
            row = [repr(float(freqs_hz[k]))]
            for i, j, _ in _entry_names(est):
                row += [repr(float(est.g[k, i, j].real)), repr(float(est.g[k, i, j].imag))]
                if has_var:
                    row.append(repr(float(est.variance[k, i, j])))
            if est.transient is not None:
                for i in range(est.n_outputs):
                    row += [repr(float(est.transient[k, i].real)),
                            repr(float(est.transient[k, i].imag))]
            if est.condition is not None:
                row.append(repr(float(est.condition[k])))
            writer.writerow(row)


def frf_to_json_dict(est: FrfEstimate) -> dict:
    """JSON-ready mirror of the CSV schema plus the estimator tag."""
    entries = {}
    for i, j, name in _entry_names(est):
        entry = {
            "re": [float(v) for v in est.g[:, i, j].real],
            "im": [float(v) for v in est.g[:, i, j].imag],
        }
        if est.variance is not None:
            entry["variance"] = [float(v) for v in est.variance[:, i, j]]
        entries[name] = entry
    doc = {
        "estimator_tag": est.estimator_tag,
        "frequency_hz": [float(v) for v in est.frequencies_hz],
        "entries": entries,
        "defects": [
            {"bin": d.bin_index, "reason": d.reason, "detail": d.detail}
            for d in est.defects
        ],
    }
    if est.transient is not None:
        doc["transient"] = {
            f"t{i + 1}": {
                "re": [float(v) for v in est.transient[:, i].real],
                "im": [float(v) for v in est.transient[:, i].imag],
            }
            for i in range(est.n_outputs)
        }
    if est.condition is not None:
        doc["condition"] = [float(v) for v in est.condition]
    return doc


def write_frf_json(est: FrfEstimate, path) -> None:
    Path(path).write_text(
        json.dumps(frf_to_json_dict(est), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")
