"""Open-loop FRF estimators: ETFE variants, spectral analysis and the
local polynomial method (LPM) with explicit transient estimation.

All estimators consume :class:`~frfkit.signals.SpectrumSet` objects built
with the package's energy-preserving DFT scaling and publish
:class:`FrfEstimate` results. Bins where an estimator cannot produce a
trustworthy value are set to NaN and logged as :class:`BinDefect`
entries instead of failing silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .signals import SpectrumSet, WindowFunction, _write_csv

TWO_PI = 2.0 * math.pi

ETFE_FLOOR_REL = 1e-12  # default |U| floor relative to the spectrum peak
LPM_CHUNK = 2048        # bins per stacked local fit; bounds the regressor's memory
SA_COND_LIMIT = 1e12    # largest condition number of phi_uu that SA inverts


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
        FRF matrix per bin; NaN where the estimator gave no value, which
        ``defects`` lists unless the caller left the bin out (``lpm_fit``'s
        ``bins``). A listed bin may still hold a finite value: ETFE's
        ``input_floored_windows_excluded`` flags an average over fewer
        windows.
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
        Per-bin 1-norm condition number of an inverted matrix, when
        relevant.
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


def _inverse(mats: np.ndarray):
    """Inverse, 1-norm condition number and invertibility mask of each
    stacked square matrix.

    A matrix is inverted when its entries are finite and it is not exactly
    singular; ``slogdet``'s sign is 0 exactly where ``inv`` would raise.
    Masked matrices are replaced by the identity (in a copy made only when
    there are any), so that one ``inv`` call covers the stack, and their
    inverse is then set to NaN. The condition number is
    ``|M|_1 |M^-1|_1``: NaN for a non-finite matrix, inf for a singular one.
    """
    eye = np.eye(mats.shape[-1])
    finite = np.isfinite(mats).all(axis=(1, 2))
    if not finite.all():
        mats = np.where(finite[:, np.newaxis, np.newaxis], mats, eye)
    mask = finite & (np.linalg.slogdet(mats)[0] != 0)
    if not mask.all():
        mats = np.where(mask[:, np.newaxis, np.newaxis], mats, eye)
    inverse = np.linalg.inv(mats)
    inverse[~mask] = np.nan
    cond = np.linalg.norm(mats, 1, axis=(1, 2)) * np.linalg.norm(inverse, 1, axis=(1, 2))
    cond[finite & ~mask] = np.inf
    return inverse, cond, mask


def _hermitian(mats: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each stacked matrix."""
    return np.conj(mats).swapaxes(-1, -2)


def _residual_covariance(ps: PowerSpectra, g: np.ndarray) -> np.ndarray:
    """``M/(M - n_u) * (phi_yy - G phi_yu^H)`` with ``G = phi_yu phi_uu^{-1}``."""
    m = ps.m_windows
    return m / (m - ps.n_inputs) * (ps.phi_yy - g @ _hermitian(ps.phi_yu))


def noise_covariance(ps: PowerSpectra) -> np.ndarray:
    """Residual output-noise covariance per bin, shape (n_bins, n_y, n_y).

    ``C_v(k) = M/(M - n_u) * (phi_yy - phi_yu phi_uu^{-1} phi_yu^H)``.
    Returned unclipped (complex); callers take the real diagonal. Bins
    with singular or non-finite ``phi_uu`` come back as NaN. Requires
    M > n_u.
    """
    m, n_u = ps.m_windows, ps.n_inputs
    if m <= n_u:
        raise ValueError(f"need more windows than inputs (M={m}, n_u={n_u})")
    return _residual_covariance(ps, ps.phi_yu @ _inverse(ps.phi_uu)[0])


def _input_defect(k: int, cond: float) -> BinDefect:
    if np.isnan(cond):
        return BinDefect(k, "nonfinite_input_spectrum")
    if np.isinf(cond):
        return BinDefect(k, "singular_input_spectrum", 0.0)
    return BinDefect(k, "ill_conditioned_input_spectrum", cond)


def spectral_analysis(ps: PowerSpectra) -> FrfEstimate:
    """Spectral-analysis FRF ``G(k) = phi_yu(k) phi_uu(k)^{-1}`` per bin.

    All bins are solved as one stack. When M > n_u the per-entry variance
    is attached as ``var(G_ij) = (1/M) * [phi_uu^{-1}]_jj * [C_v]_ii``
    with the noise covariance of :func:`noise_covariance`; otherwise
    variance is flagged absent (None). Bins whose ``phi_uu`` is not
    finite, exactly singular (detail 0) or has a 1-norm condition number
    above ``SA_COND_LIMIT`` (detail: the condition number) become NaN
    defects.
    """
    inv_uu, cond, invertible = _inverse(ps.phi_uu)
    ok = invertible & (cond <= SA_COND_LIMIT)
    g = ps.phi_yu @ inv_uu
    g[~ok] = np.nan
    inv_diag = np.where(ok[:, np.newaxis],
                        np.real(np.diagonal(inv_uu, axis1=1, axis2=2)), np.nan)
    defects = [_input_defect(int(k), float(cond[k])) for k in np.flatnonzero(~ok)]

    variance = None
    m = ps.m_windows
    if m > ps.n_inputs:
        cv_diag = np.real(np.einsum("kii->ki", _residual_covariance(ps, g)))
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


def _lpm_fit_bins(bins, u, y, cfg, n_bins, g, transient, variance,
                  local_models, defects):
    """Fit the local model at the requested bins (fills output arrays).

    The bins are fitted in stacks of ``LPM_CHUNK``: one regressor ``R``
    of shape ``(q, width)`` per bin and one batched SVD ``R = L S Rh``.
    The SVD gives the least-squares coefficients ``Y Rh^H S^-1 L^H``,
    the rank (singular values above ``width * eps`` times the largest,
    the tolerance of ``numpy.linalg.matrix_rank``) and the parameter
    covariance factor ``(R R^H)^-1 = L S^-2 L^H``. Every bin is solved on
    its own, so its result does not depend on the chunk it lands in.
    """
    n_u = u.shape[0]
    order = cfg.poly_order
    n_w = cfg.half_width
    q_g = (order + 1) * n_u
    q = q_g + (order + 1)
    width = 2 * n_w + 1
    dof = width - q
    powers = np.arange(order + 1)[:, np.newaxis]
    for start in range(0, len(bins), LPM_CHUNK):
        k = bins[start:start + LPM_CHUNK]
        # windows centered on k, shifted inward at the spectrum edges
        lo = np.clip(k - n_w, 0, n_bins - width)
        window = lo[:, np.newaxis] + np.arange(width)
        # offsets normalized to the half-width for conditioning; the
        # zeroth-order coefficients are invariant under this rescaling
        rho = (window - k[:, np.newaxis]) / n_w
        k1 = rho[:, np.newaxis, :] ** powers                   # (c, order+1, width)
        u_win = u[:, window].swapaxes(0, 1)                    # (c, n_u, width)
        reg = np.concatenate(
            [(k1[:, :, np.newaxis, :] * u_win[:, np.newaxis]).reshape(len(k), q_g, width),
             k1], axis=1)                                      # (c, q, width)
        left, sv, right = np.linalg.svd(reg, full_matrices=False)
        rank = np.count_nonzero(sv > width * np.finfo(float).eps * sv[:, :1], axis=1)
        full = rank == q
        defects += [BinDefect(int(b), "rank_deficient_regressor", float(r))
                    for b, r in zip(k[~full], rank[~full])]
        k, reg, left, sv, right = k[full], reg[full], left[full], sv[full], right[full]
        y_win = y[:, window].swapaxes(0, 1)[full]              # (f, n_y, width)
        theta = (y_win @ _hermitian(right) / sv[:, np.newaxis, :]) @ _hermitian(left)
        g[k] = theta[:, :, :n_u]
        transient[k] = theta[:, :, q_g]
        resid = y_win - theta @ reg
        sigma2 = np.sum(np.abs(resid) ** 2, axis=2) / dof
        var_cols = np.sum(np.abs(left[:, :n_u, :]) ** 2 / sv[:, np.newaxis, :] ** 2, axis=2)
        variance[k] = sigma2[:, :, np.newaxis] * var_cols[:, np.newaxis, :]
        if local_models is not None:
            # undo the offset normalization: coefficient of r^s is c_s / n_w^s
            scale = float(n_w) ** powers
            for b, th in zip(k, theta):
                theta_g = th[:, :q_g].reshape(-1, order + 1, n_u).transpose(1, 0, 2)
                local_models[b] = LocalModelTheta(theta_g / scale[:, :, np.newaxis],
                                                  th[:, q_g:].T / scale)


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


def write_frf_csv(est: FrfEstimate, path) -> None:
    """FRF export: frequency_hz, then re/im/variance per (output, input)
    entry, transient re/im per output when present, condition number when
    present."""
    header, columns = ["frequency_hz"], [est.frequencies_hz]
    for i, j in np.ndindex(est.n_outputs, est.n_inputs):
        name = f"g{i + 1}{j + 1}"
        header += [f"{name}_re", f"{name}_im"]
        columns += [est.g[:, i, j].real, est.g[:, i, j].imag]
        if est.variance is not None:
            header.append(f"{name}_var")
            columns.append(est.variance[:, i, j])
    if est.transient is not None:
        for i in range(est.n_outputs):
            header += [f"t{i + 1}_re", f"t{i + 1}_im"]
            columns += [est.transient[:, i].real, est.transient[:, i].imag]
    if est.condition is not None:
        header.append("cond")
        columns.append(est.condition)
    _write_csv(path, header, columns)
