"""Closed-loop identification: direct-method bias, indirect SIMO
estimation, and MIMO full-plant vs equivalent-plant extraction.

The loop topology throughout is excitation at the plant input,
``u = d - K(y + v)``, so the maps identified from ``d`` are the input
sensitivity ``S = (I + K G)^{-1}`` (d to u) and the process sensitivity
``GS = G (I + K G)^{-1}`` (d to y); the plant follows as ``GS / S``
(SISO) or ``GS S^{-1}`` (MIMO, matrix inverse).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .estimators import (
    BinDefect,
    FrfEstimate,
    LpmConfig,
    lpm_fit,
    power_spectra,
    spectral_analysis,
)
from .sim import (
    ControllerConfig,
    StateSpaceModel,
    closed_loop_steady_state,
    simulate_closed_loop,
    true_frf,
)
from .signals import MultisineSpec, TimeSeries, WindowFunction, generate_multisine, spectrum_set

S_FLOOR_REL = 1e-12  # |S| floor relative to its peak before dividing


@dataclass
class ClosedLoopDataset:
    """Signals of one closed-loop experiment.

    ``d`` is the excitation added at the plant input, ``u`` the realized
    plant input, ``y`` the measured output. ``excited_input_index`` says
    which channel of ``d`` carried the multisine.
    """

    d: TimeSeries
    u: TimeSeries
    y: TimeSeries
    excited_input_index: int = 0
    controller: ControllerConfig = None

    def __post_init__(self):
        n, ts = self.d.n_samples, self.d.ts
        for name in ("u", "y"):
            series = getattr(self, name)
            if series.n_samples != n or series.ts != ts:
                raise ValueError("d, u, y must share length and sampling period")
        if not 0 <= self.excited_input_index < self.d.n_channels:
            raise ValueError("excited_input_index out of range")

    @classmethod
    def from_record(cls, record, excited_input_index: int = 0,
                    controller: ControllerConfig = None) -> "ClosedLoopDataset":
        return cls(record.d, record.u, record.y, excited_input_index, controller)

    def tail_periods(self, period_samples: int, n_periods: int) -> "ClosedLoopDataset":
        """Keep only the last ``n_periods`` periods of every signal."""
        keep = period_samples * n_periods
        if keep > self.d.n_samples:
            raise ValueError("record is shorter than the requested periods")
        sl = slice(self.d.n_samples - keep, None)
        trim = lambda s: TimeSeries(s.data[:, sl].copy(), s.ts, s.channel_names)
        return ClosedLoopDataset(trim(self.d), trim(self.u), trim(self.y),
                                 self.excited_input_index, self.controller)


@dataclass
class FrmPair:
    """Process sensitivity and sensitivity frequency response matrices.

    Column j of both comes from the experiment that excited ``d_j``; the
    two matrices share the same bins.
    """

    gs: FrfEstimate
    s: FrfEstimate

    def __post_init__(self):
        if self.gs.n_bins != self.s.n_bins or not np.allclose(
                self.gs.bin_frequencies, self.s.bin_frequencies):
            raise ValueError("process sensitivity and sensitivity must share bins")
        if self.s.n_inputs != self.s.n_outputs:
            raise ValueError("sensitivity must be square (n_u x n_u)")
        if self.gs.n_inputs != self.s.n_inputs:
            raise ValueError("column counts of gs and s must match")


def direct_estimate(dataset: ClosedLoopDataset, window_length: int,
                    window: WindowFunction = None, input_channel: int = None,
                    output_channel: int = None) -> FrfEstimate:
    """Spectral analysis of (u, y) measured inside the loop.

    Biased in closed loop: output noise feeds back into ``u``, pulling
    the asymptote toward ``(G0*phi_dd - conj(K)*phi_vv) /
    (phi_dd + |K|^2*phi_vv)`` instead of G0 (see
    :func:`direct_bias_asymptote`). Kept as the textbook baseline; use
    :func:`indirect_estimate` for an unbiased result.
    """
    iu = dataset.excited_input_index if input_channel is None else input_channel
    iy = dataset.excited_input_index if output_channel is None else output_channel
    both = TimeSeries(np.vstack([dataset.u.data[iu:iu + 1], dataset.y.data[iy:iy + 1]]),
                      dataset.u.ts, ("u", "y"))
    spectra = spectrum_set(both, window_length, window=window)
    est = spectral_analysis(power_spectra(spectra, [0], [1]))
    est.estimator_tag = {**est.estimator_tag, "method": "direct_closed_loop",
                         "bias": "biased under feedback with output noise"}
    return est


def sensitivity_pair(dataset: ClosedLoopDataset, estimator: str = "sa",
                     window_length: int = None, window: WindowFunction = None,
                     lpm_config: LpmConfig = None, u_channels=None, y_channels=None):
    """SIMO estimates of the d -> y and d -> u maps of one experiment.

    Returns ``(gs, s)`` where column entries correspond to the requested
    output/input channels. Both are estimated jointly from the same
    excitation spectrum (one ``phi_dd`` denominator with spectral
    analysis, one regressor with the local polynomial method), which
    keeps their ratio internally consistent.
    """
    if u_channels is None:
        u_channels = list(range(dataset.u.n_channels))
    if y_channels is None:
        y_channels = list(range(dataset.y.n_channels))
    u_channels = list(np.atleast_1d(u_channels))
    y_channels = list(np.atleast_1d(y_channels))
    j = dataset.excited_input_index
    stacked = TimeSeries(
        np.vstack([dataset.d.data[j:j + 1],
                   dataset.y.data[y_channels, :],
                   dataset.u.data[u_channels, :]]),
        dataset.d.ts)
    n_y, n_u = len(y_channels), len(u_channels)
    y_sel = list(range(1, 1 + n_y))
    u_sel = list(range(1 + n_y, 1 + n_y + n_u))
    if estimator == "sa":
        spectra = spectrum_set(stacked, window_length, window=window)
        est = spectral_analysis(power_spectra(spectra, [0], y_sel + u_sel))
    elif estimator == "lpm":
        if window_length is not None and window_length != stacked.n_samples:
            raise ValueError("the local polynomial method uses the whole record as one window")
        spectra = spectrum_set(stacked)
        est = lpm_fit(spectra, lpm_config, input_channels=[0],
                      output_channels=y_sel + u_sel)
    else:
        raise ValueError(f"unknown estimator {estimator!r}; use 'sa' or 'lpm'")

    def split(rows, kind):
        sub = FrfEstimate(
            est.g[:, rows, :],
            est.bin_frequencies,
            variance=None if est.variance is None else est.variance[:, rows, :],
            transient=None if est.transient is None else est.transient[:, rows],
            estimator_tag={**est.estimator_tag, "map": kind,
                           "excited_input": dataset.excited_input_index},
            defects=list(est.defects),
        )
        return sub

    return split(list(range(n_y)), "process_sensitivity"), \
        split(list(range(n_y, n_y + n_u)), "sensitivity")


def indirect_estimate(dataset: ClosedLoopDataset, estimator: str = "sa",
                      window_length: int = None, window: WindowFunction = None,
                      lpm_config: LpmConfig = None, input_channel: int = None,
                      output_channel: int = None, floor: float = None) -> FrfEstimate:
    """Unbiased SISO plant estimate from the excitation signal.

    Estimates the process sensitivity (d -> y) and sensitivity (d -> u)
    with the chosen estimator and divides them per bin. Unbiased in
    closed loop because the excitation is independent of the output
    noise; with the loop open (K = 0, u = d) it reduces to the plain
    spectral-analysis estimate of (u, y).
    """
    iu = dataset.excited_input_index if input_channel is None else input_channel
    iy = dataset.excited_input_index if output_channel is None else output_channel
    gs, s = sensitivity_pair(dataset, estimator, window_length, window,
                             lpm_config, u_channels=[iu], y_channels=[iy])
    s_vals = s.g[:, 0, 0]
    if floor is not None:
        floor_abs = float(floor)
    else:
        # scale off the median: unlike the peak it is immune to the huge
        # garbage ratios produced at unexcited bins
        finite = np.abs(s_vals[np.isfinite(s_vals)])
        floor_abs = S_FLOOR_REL * (float(np.median(finite)) if finite.size else 0.0)
    ok = np.abs(s_vals) > floor_abs
    g = np.full_like(s_vals, np.nan + 0j)
    g[ok] = gs.g[ok, 0, 0] / s_vals[ok]
    defects = list(gs.defects)
    defects += [BinDefect(int(k), "sensitivity_floored", floor_abs)
                for k in np.flatnonzero(~ok)]
    variance = None
    if gs.variance is not None and s.variance is not None:
        # first-order propagation of var(GS/S); approximate
        with np.errstate(invalid="ignore", divide="ignore"):
            variance = np.where(
                ok,
                (gs.variance[:, 0, 0] + np.abs(g) ** 2 * s.variance[:, 0, 0])
                / np.abs(s_vals) ** 2,
                np.nan,
            )[:, np.newaxis, np.newaxis]
    tag = {"estimator": estimator, "method": "indirect_closed_loop",
           "variance_approximate": variance is not None}
    return FrfEstimate(g[:, np.newaxis, np.newaxis], gs.bin_frequencies,
                       variance=variance, estimator_tag=tag, defects=defects)


def controller_inversion_estimate(s_hat: FrfEstimate, controller_frf) -> FrfEstimate:
    """Plant from the sensitivity alone: ``G = (1/K)(1/S - 1)`` per bin.

    Requires the controller response exactly; any controller error maps
    directly into the plant estimate, which the estimator tag records.
    """
    if s_hat.n_inputs != 1 or s_hat.n_outputs != 1:
        raise ValueError("controller inversion works on a SISO sensitivity estimate")
    k = np.asarray(controller_frf, dtype=complex)
    if k.ndim == 3:
        k = k[:, 0, 0]
    if k.shape != (s_hat.n_bins,):
        raise ValueError("controller response must have one value per bin")
    s = s_hat.g[:, 0, 0]
    g = np.full_like(s, np.nan + 0j)
    defects = list(s_hat.defects)
    for idx in range(s_hat.n_bins):
        if k[idx] == 0:
            defects.append(BinDefect(idx, "controller_zero"))
        elif s[idx] == 0:
            defects.append(BinDefect(idx, "sensitivity_zero"))
        elif np.isfinite(s[idx]):
            g[idx] = (1.0 / s[idx] - 1.0) / k[idx]
    tag = {"estimator": "controller_inversion",
           "requires_exact_controller": True}
    return FrfEstimate(g[:, np.newaxis, np.newaxis], s_hat.bin_frequencies,
                       estimator_tag=tag, defects=defects)


def run_mimo_experiments(plant: StateSpaceModel, ctrl: ControllerConfig,
                         spec: MultisineSpec, noise_std=0.0, phase_seeds=None,
                         noise_seeds=None, estimator: str = "sa",
                         window: WindowFunction = None,
                         lpm_config: LpmConfig = None,
                         n_periods_used: int = None,
                         start_at_steady_state: bool = False) -> FrmPair:
    """One closed-loop experiment per input channel, assembled column-wise.

    Experiment j excites ``d_j`` with the multisine of ``spec`` under its
    own phase seed (identical magnitude, independent phases) and fills
    column j of the process-sensitivity and sensitivity matrices using
    the chosen open-loop estimator on (d_j -> y) and (d_j -> u).
    """
    n_u = plant.n_inputs
    if spec.phases is not None:
        raise ValueError("experiments need independent random phases; "
                         "leave MultisineSpec.phases unset")
    if phase_seeds is None:
        phase_seeds = tuple(spec.phase_seed + j for j in range(n_u))
    phase_seeds = tuple(int(s) for s in phase_seeds)
    if len(phase_seeds) != n_u or len(set(phase_seeds)) != n_u:
        raise ValueError("need one distinct phase seed per experiment")
    std = np.asarray(noise_std, dtype=float)
    if np.any(std > 0):
        if noise_seeds is None:
            raise ValueError("noise_seeds must be given when noise_std > 0")
        noise_seeds = tuple(int(s) for s in noise_seeds)
        if len(noise_seeds) != n_u or len(set(noise_seeds)) != n_u:
            raise ValueError("need one distinct noise seed per experiment")
    else:
        noise_seeds = (None,) * n_u

    period = spec.period_samples
    used = spec.n_periods if n_periods_used is None else int(n_periods_used)
    if not 1 <= used <= spec.n_periods:
        raise ValueError("n_periods_used must be within the simulated periods")
    gs_cols, s_cols = [], []
    gs_var, s_var = [], []
    defects_gs, defects_s = [], []
    freqs = None
    for j in range(n_u):
        exp_spec = replace(spec, phase_seed=phase_seeds[j])
        mono = generate_multisine(exp_spec, plant.ts)
        data = np.zeros((n_u, mono.n_samples))
        data[j] = mono.data[0]
        d = TimeSeries(data, plant.ts)
        if start_at_steady_state:
            xp0, xc0 = closed_loop_steady_state(
                plant, ctrl, TimeSeries(data[:, :period], plant.ts))
        else:
            xp0 = xc0 = None
        record = simulate_closed_loop(plant, ctrl, d, noise_std=noise_std,
                                      noise_seed=noise_seeds[j],
                                      x_plant0=xp0, x_ctrl0=xc0)
        dataset = ClosedLoopDataset.from_record(record, excited_input_index=j,
                                                controller=ctrl)
        if used < spec.n_periods:
            dataset = dataset.tail_periods(period, used)
        win_len = period if estimator == "sa" else None
        gs_j, s_j = sensitivity_pair(dataset, estimator, window_length=win_len,
                                     window=window, lpm_config=lpm_config)
        gs_cols.append(gs_j.g[:, :, 0])
        s_cols.append(s_j.g[:, :, 0])
        gs_var.append(None if gs_j.variance is None else gs_j.variance[:, :, 0])
        s_var.append(None if s_j.variance is None else s_j.variance[:, :, 0])
        defects_gs += gs_j.defects
        defects_s += s_j.defects
        freqs = gs_j.bin_frequencies

    def assemble(cols, variances, defects, kind):
        g = np.stack(cols, axis=2)
        var = None
        if all(v is not None for v in variances):
            var = np.stack(variances, axis=2)
        tag = {"estimator": estimator, "map": kind,
               "phase_seeds": list(phase_seeds)}
        return FrfEstimate(g, freqs, variance=var, estimator_tag=tag,
                           defects=defects)

    return FrmPair(assemble(gs_cols, gs_var, defects_gs, "process_sensitivity"),
                   assemble(s_cols, s_var, defects_s, "sensitivity"))


def full_plant(frm: FrmPair, cond_limit: float = 1e8) -> FrfEstimate:
    """Multivariable plant via the per-bin matrix inverse ``GS S^{-1}``.

    Bins where the sensitivity matrix is singular or has condition
    number above ``cond_limit`` become NaN defects; the condition number
    is recorded per bin either way.
    """
    n_bins = frm.s.n_bins
    n_y, n_u = frm.gs.n_outputs, frm.gs.n_inputs
    g = np.full((n_bins, n_y, n_u), np.nan + 0j)
    cond = np.full(n_bins, np.nan)
    defects = []
    have_var = frm.gs.variance is not None and frm.s.variance is not None
    variance = np.full((n_bins, n_y, n_u), np.nan) if have_var else None
    for k in range(n_bins):
        s_k = frm.s.g[k]
        if not np.all(np.isfinite(s_k)):
            defects.append(BinDefect(k, "sensitivity_not_finite"))
            continue
        c = float(np.linalg.cond(s_k))
        cond[k] = c
        if not np.isfinite(c) or c > cond_limit:
            defects.append(BinDefect(k, "sensitivity_ill_conditioned", c))
            continue
        s_inv = np.linalg.inv(s_k)
        g[k] = frm.gs.g[k] @ s_inv
        if have_var:
            # first-order propagation through dG = dGS S^-1 - G dS S^-1
            w = np.abs(s_inv) ** 2
            variance[k] = frm.gs.variance[k] @ w \
                + (np.abs(g[k]) ** 2) @ frm.s.variance[k] @ w
    tag = {"estimator": "full_plant_matrix_inverse",
           "source": frm.gs.estimator_tag.get("estimator"),
           "variance_approximate": have_var}
    return FrfEstimate(g, frm.gs.bin_frequencies, variance=variance,
                       estimator_tag=tag, defects=defects, condition=cond)


def equivalent_plant(frm: FrmPair) -> FrfEstimate:
    """Equivalent (sequential-loop-closing) plant: entrywise ``GS / S``.

    Hadamard division instead of a matrix inverse: each entry is the
    SISO transfer seen by one loop with every other loop closed, which
    differs from the true multivariable plant whenever there is
    interaction.
    """
    if frm.gs.g.shape != frm.s.g.shape:
        raise ValueError("equivalent plant needs matching gs and s shapes")
    s_vals = frm.s.g
    ok = np.abs(s_vals) > 0
    with np.errstate(invalid="ignore", divide="ignore"):
        g = np.where(ok, frm.gs.g / np.where(ok, s_vals, 1.0), np.nan + 0j)
    defects = []
    for k, i, j in zip(*np.nonzero(~ok)):
        defects.append(BinDefect(int(k), f"sensitivity_zero_entry_{i + 1}{j + 1}"))
    variance = None
    if frm.gs.variance is not None and frm.s.variance is not None:
        with np.errstate(invalid="ignore", divide="ignore"):
            variance = np.where(
                ok,
                (frm.gs.variance + np.abs(g) ** 2 * frm.s.variance)
                / np.abs(s_vals) ** 2,
                np.nan,
            )
    tag = {"estimator": "equivalent_plant_hadamard",
           "source": frm.gs.estimator_tag.get("estimator"),
           "semantics": "per-loop equivalent plant (other loops closed)",
           "variance_approximate": variance is not None}
    return FrfEstimate(g, frm.gs.bin_frequencies, variance=variance,
                       estimator_tag=tag, defects=defects)


# ---------------------------------------------------------------------------
# analytic oracles


def true_sensitivity(plant: StateSpaceModel, ctrl: ControllerConfig,
                     bin_freqs) -> np.ndarray:
    """Input sensitivity ``(I + K G)^{-1}`` per bin, shape (n_bins, n_u, n_u)."""
    g = true_frf(plant, bin_freqs).g
    k = ctrl.frf(bin_freqs)
    eye = np.eye(plant.n_inputs)
    return np.linalg.inv(eye[np.newaxis] + k @ g)


def direct_bias_asymptote(g0, k_frf, phi_dd, phi_vv) -> np.ndarray:
    """Large-M limit of the direct closed-loop estimate per bin (SISO).

    ``(G0*phi_dd - conj(K)*phi_vv) / (phi_dd + |K|^2*phi_vv)``. The
    controller response enters conjugated because the cross-spectrum
    convention is ``Y U^H``; with it the no-excitation limit is exactly
    ``-1/K`` and the noise-free limit is G0.
    """
    g0 = np.asarray(g0, dtype=complex)
    k = np.asarray(k_frf, dtype=complex)
    phi_dd = np.asarray(phi_dd, dtype=float)
    phi_vv = np.broadcast_to(np.asarray(phi_vv, dtype=float), g0.shape)
    return (g0 * phi_dd - np.conj(k) * phi_vv) / (phi_dd + np.abs(k) ** 2 * phi_vv)


def equivalent_plant_true(g_true: np.ndarray, k_frf: np.ndarray) -> np.ndarray:
    """Analytic equivalent plant ``GS ./ S`` from true plant and controller."""
    g_true = np.asarray(g_true, dtype=complex)
    k = np.asarray(k_frf, dtype=complex)
    eye = np.eye(g_true.shape[1])
    s = np.linalg.inv(eye[np.newaxis] + k @ g_true)
    gs = g_true @ s
    return gs / s


def interaction_term(g_true: np.ndarray, k_frf: np.ndarray, loop: int = 0) -> np.ndarray:
    """Closed-form 2x2 interaction ``G_ij K_j G_ji / (1 + K_j G_jj)``.

    This is the gap between the true diagonal entry and the equivalent
    plant seen by ``loop`` while the other loop is closed.
    """
    g = np.asarray(g_true, dtype=complex)
    k = np.asarray(k_frf, dtype=complex)
    if g.shape[1:] != (2, 2):
        raise ValueError("closed-form interaction is defined for 2x2 plants")
    i = loop
    j = 1 - loop
    return g[:, i, j] * k[:, j, j] * g[:, j, i] / (1.0 + k[:, j, j] * g[:, j, j])
