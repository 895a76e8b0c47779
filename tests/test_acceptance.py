"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured figures (run with ``pytest -s`` to see them all).
"""

import json
import math
import time

import numpy as np
import pytest

from frfkit.closedloop import (
    ClosedLoopDataset,
    FrmPair,
    direct_bias_asymptote,
    direct_estimate,
    equivalent_plant,
    full_plant,
    indirect_estimate,
    interaction_term,
    run_mimo_experiments,
    sensitivity_pair,
    true_sensitivity,
)
from frfkit.cli import export_report, parse_config, run_scenario
from frfkit.estimators import (
    LpmConfig,
    etfe,
    lpm_fit,
    noise_covariance,
    power_spectra,
    spectral_analysis,
)
from frfkit.signals import (
    MultisineSpec,
    SpectrumSet,
    TimeSeries,
    WindowFunction,
    bin_frequencies,
    dft,
    generate_multisine,
    spectrum_set,
)
from frfkit.sim import (
    ControllerConfig,
    StateSpaceModel,
    benchmark_plant,
    discretize_zoh,
    lsim,
    periodic_steady_state,
    simulate_closed_loop,
    transient_spectrum,
    true_frf,
)

TS = 1e-3


def _report(num, ok, detail):
    print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def plant_d():
    return discretize_zoh(benchmark_plant(), TS)


def test_criterion_1_oracle_agreement(plant_d):
    """ETFE, rectangular spectral analysis and the LPM each match the
    analytic FRF of the discretized plant within 1e-6 relative at all
    excited interior bins (noiseless, steady state)."""
    started = time.perf_counter()
    period = 1000
    n_periods = 2
    worst = {"etfe": 0.0, "sa_rect": 0.0, "lpm": 0.0}
    lpm_cfg = LpmConfig(poly_order=2, half_width=3, dof_margin=1)
    for column in range(2):
        spec = MultisineSpec.flat(period, rms=1.0, phase_seed=100 + column,
                                  n_periods=n_periods)
        mono = generate_multisine(spec, TS)
        data = np.zeros((2, mono.n_samples))
        data[column] = mono.data[0]
        u = TimeSeries(data, TS)
        x_ss = periodic_steady_state(plant_d, TimeSeries(data[:, :period], TS))
        rec = lsim(plant_d, u, x0=x_ss)
        stacked = TimeSeries(np.vstack([data[column:column + 1], rec.y.data]),
                             TS, ("u", "y1", "y2"))
        exc = np.asarray(spec.excited_bins)
        exc = exc[(exc >= 2) & (exc <= period // 2 - 2)]  # interior bins

        sp_win = spectrum_set(stacked, period)
        g_win = true_frf(plant_d, sp_win.bin_frequencies).g
        for out in range(2):
            est = etfe(sp_win, "u", f"y{out + 1}")
            rel = np.abs(est.g[exc, 0, 0] - g_win[exc, out, column]) \
                / np.abs(g_win[exc, out, column])
            worst["etfe"] = max(worst["etfe"], float(np.max(rel)))
        sa = spectral_analysis(power_spectra(sp_win, [0], [1, 2]))
        rel = np.abs(sa.g[exc, :, 0] - g_win[exc, :, column]) \
            / np.abs(g_win[exc, :, column])
        worst["sa_rect"] = max(worst["sa_rect"], float(np.max(rel)))

        sp_full = spectrum_set(stacked)
        exc_rec = n_periods * exc
        lpm = lpm_fit(sp_full, lpm_cfg, input_channels=[0], output_channels=[1, 2],
                      bins=exc_rec)
        g_full = true_frf(plant_d, sp_full.bin_frequencies).g
        rel = np.abs(lpm.g[exc_rec, :, 0] - g_full[exc_rec, :, column]) \
            / np.abs(g_full[exc_rec, :, column])
        worst["lpm"] = max(worst["lpm"], float(np.max(rel)))

    elapsed = time.perf_counter() - started
    ok = all(v < 1e-6 for v in worst.values()) and elapsed < 10.0
    _report(1, ok, f"max relative errors {worst} (tolerance 1e-6), "
                   f"runtime {elapsed:.1f}s (< 10s)")


def test_criterion_2_transient_study_ordering(plant_d):
    """Zero initial state, 2 periods of a 5 s multisine at 1 kHz with
    mild output noise: the LPM's worst error below 40 Hz beats the
    rectangular spectral analysis for at least 95 of 100 seeds."""
    started = time.perf_counter()
    ctrl = ControllerConfig.for_plant(plant_d)
    period, n_periods = 5000, 2
    noise_std = 1e-4
    lpm_cfg = LpmConfig.auto(1, 2)
    limit_rad = 2 * math.pi * 40.0
    wins = 0
    n_seeds = 100
    for seed in range(n_seeds):
        spec = MultisineSpec.flat(period, rms=1.0, phase_seed=seed,
                                  n_periods=n_periods)
        mono = generate_multisine(spec, TS)
        assert mono.n_samples == 10000
        d = TimeSeries(np.vstack([mono.data, np.zeros((1, mono.n_samples))]), TS)
        rec = simulate_closed_loop(plant_d, ctrl, d, noise_std=noise_std,
                                   noise_seed=10_000 + seed)
        stacked = TimeSeries(np.vstack([d.data[:1], rec.u.data[:1]]), TS)

        sp_full = spectrum_set(stacked)
        exc_rec = n_periods * np.asarray(spec.excited_bins)
        band_rec = exc_rec[(sp_full.bin_frequencies[exc_rec] < limit_rad)
                           & (exc_rec >= lpm_cfg.half_width)]
        lpm = lpm_fit(sp_full, lpm_cfg, input_channels=[0], output_channels=[1],
                      bins=band_rec)
        s_full = true_sensitivity(plant_d, ctrl, sp_full.bin_frequencies[band_rec])
        err_lpm = np.max(np.abs(lpm.g[band_rec, 0, 0] - s_full[:, 0, 0]))

        sp_win = spectrum_set(stacked, period)
        sa = spectral_analysis(power_spectra(sp_win, [0], [1]))
        exc = np.asarray(spec.excited_bins)
        band = exc[sp_win.bin_frequencies[exc] < limit_rad]
        s_win = true_sensitivity(plant_d, ctrl, sp_win.bin_frequencies[band])
        err_sa = np.max(np.abs(sa.g[band, 0, 0] - s_win[:, 0, 0]))
        wins += err_lpm < err_sa
    elapsed = time.perf_counter() - started
    ok = wins >= 95 and elapsed < 120.0
    _report(2, ok, f"LPM beat rectangular SA on {wins}/100 seeds (need >= 95), "
                   f"runtime {elapsed:.1f}s (< 120s)")


def test_criterion_3_transient_oracle_equivalence(plant_d):
    """State-difference transient evaluation matches the brute-force
    transient (zero-IC response minus steady-state response, first-period
    DFT) within 1e-8 relative in energy."""
    started = time.perf_counter()
    period = 1000
    spec = MultisineSpec.flat(period, rms=1.0, phase_seed=200)
    mono = generate_multisine(spec, TS)
    u = TimeSeries(np.vstack([mono.data, np.zeros((1, period))]), TS)
    rec0 = lsim(plant_d, u)
    x_ss = periodic_steady_state(plant_d, u)
    rec_ss = lsim(plant_d, u, x0=x_ss)
    t_brute = np.stack(
        [dft(rec0.y.data[i] - rec_ss.y.data[i])[:period // 2 + 1] for i in range(2)],
        axis=1)
    t_formula = transient_spectrum(plant_d, rec0.x0, rec0.xN, period)
    energy = float(np.sum(np.abs(t_brute) ** 2))
    rel = float(np.sum(np.abs(t_formula - t_brute) ** 2)) / energy
    elapsed = time.perf_counter() - started
    ok = rel <= 1e-8 and elapsed < 5.0
    _report(3, ok, f"energy-relative deviation {rel:.3e} (tolerance 1e-8), "
                   f"runtime {elapsed:.1f}s (< 5s)")


def test_criterion_4_direct_method_bias(plant_d):
    """Direct spectral analysis over 200 windows sits within 3 standard
    errors of its analytic closed-loop asymptote at >= 90% of excited
    bins, and the indirect estimate is closer to the truth wherever the
    analytic bias exceeds 3 standard errors."""
    started = time.perf_counter()
    siso = StateSpaceModel(plant_d.a, plant_d.b[:, :1], plant_d.c[:1, :],
                           plant_d.d[:1, :1], ts=TS)
    ctrl = ControllerConfig.lead(1, TS, 50.0, 0.9, 0.5)
    period, n_total, n_used = 1000, 220, 200
    sigma = 0.02
    spec = MultisineSpec.flat(period, rms=1.0, phase_seed=300, n_periods=n_total)
    d = generate_multisine(spec, TS)
    rec = simulate_closed_loop(siso, ctrl, d, noise_std=sigma, noise_seed=301)
    dataset = ClosedLoopDataset.from_record(rec, 0)
    dataset = dataset.tail_periods(period, n_used)

    direct = direct_estimate(dataset, period)
    indirect = indirect_estimate(dataset, "sa", window_length=period)
    freqs = direct.bin_frequencies
    g0 = true_frf(siso, freqs).g[:, 0, 0]
    k_frf = ctrl.frf(freqs)[:, 0, 0]
    d_spec = spectrum_set(TimeSeries(dataset.d.data, TS), period).data[0, 0]
    asymptote = direct_bias_asymptote(g0, k_frf, np.abs(d_spec) ** 2, sigma**2)

    exc = np.asarray(spec.excited_bins)
    se = np.sqrt(direct.variance[exc, 0, 0])
    within = np.abs(direct.g[exc, 0, 0] - asymptote[exc]) <= 3 * se
    frac_within = float(np.mean(within))

    significant = np.abs(asymptote[exc] - g0[exc]) > 3 * se
    err_dir = np.abs(direct.g[exc, 0, 0] - g0[exc])
    err_ind = np.abs(indirect.g[exc, 0, 0] - g0[exc])
    indirect_better = bool(np.all(err_ind[significant] < err_dir[significant]))

    elapsed = time.perf_counter() - started
    ok = frac_within >= 0.90 and significant.sum() > 0 and indirect_better \
        and elapsed < 120.0
    _report(4, ok, f"{100 * frac_within:.1f}% of bins within 3 SE of the "
                   f"asymptote (need >= 90%), indirect beats direct at all "
                   f"{int(significant.sum())} significantly biased bins: "
                   f"{indirect_better}, runtime {elapsed:.1f}s (< 120s)")


def test_criterion_5_mimo_identity(plant_d):
    """Noiseless two-experiment identification: the matrix-inverse
    extraction equals the true 2x2 response within 1e-6, and the
    entrywise extraction matches the closed-form equivalent plant with
    its interaction correction within 1e-6, per bin."""
    started = time.perf_counter()
    ctrl = ControllerConfig.for_plant(plant_d)
    spec = MultisineSpec.flat(2000, rms=1.0, phase_seed=400, n_periods=2)
    frm = run_mimo_experiments(plant_d, ctrl, spec, estimator="sa",
                               start_at_steady_state=True)
    g_full = full_plant(frm)
    g_eq = equivalent_plant(frm)
    freqs = g_full.bin_frequencies
    g_true = true_frf(plant_d, freqs).g
    k_frf = ctrl.frf(freqs)
    exc = np.asarray(spec.excited_bins)

    scale = np.max(np.abs(g_true[exc]))
    full_dev = float(np.max(np.abs(g_full.g[exc] - g_true[exc]))) / scale
    closed_form = g_true[exc, 0, 0] - interaction_term(g_true, k_frf, loop=0)[exc]
    eq_dev = float(np.max(np.abs(g_eq.g[exc, 0, 0] - closed_form)
                          / np.abs(closed_form)))
    elapsed = time.perf_counter() - started
    ok = full_dev < 1e-6 and eq_dev < 1e-6 and elapsed < 30.0
    _report(5, ok, f"full-plant deviation {full_dev:.2e}, equivalent-plant "
                   f"(1,1) deviation {eq_dev:.2e} (tolerance 1e-6), "
                   f"runtime {elapsed:.1f}s (< 30s)")


def test_criterion_6_lpm_exact_polynomial_recovery():
    """Data synthesized from the local model with known polynomial
    coefficients (orders 1..3) is recovered to 1e-10 relative at
    interior bins."""
    started = time.perf_counter()
    worst = 0.0
    n_bins = 64
    for order in (1, 2, 3):
        rng = np.random.default_rng(500 + order)
        damp = (0.5 ** np.arange(order + 1))
        g_coef = (rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)) * damp
        t_coef = (rng.standard_normal(order + 1) + 1j * rng.standard_normal(order + 1)) * damp
        k = np.arange(n_bins) / n_bins
        powers = k[np.newaxis, :] ** np.arange(order + 1)[:, np.newaxis]
        g_of_k = g_coef @ powers
        t_of_k = t_coef @ powers
        u = rng.uniform(0.5, 1.5, n_bins) * np.exp(2j * np.pi * rng.uniform(size=n_bins))
        y = g_of_k * u + t_of_k
        sp = SpectrumSet(np.stack([u, y])[np.newaxis],
                         bin_frequencies(2 * (n_bins - 1), TS),
                         2 * (n_bins - 1), ts=TS)
        cfg = LpmConfig.auto(1, order)
        est, thetas = lpm_fit(sp, cfg, input_channels=[0], output_channels=[1],
                              return_local_models=True)
        for k0 in range(cfg.half_width, n_bins - cfg.half_width):
            # re-centered coefficients of the global polynomial at k0
            g_local = np.zeros(order + 1, dtype=complex)
            t_local = np.zeros(order + 1, dtype=complex)
            for s in range(order + 1):
                for t in range(s, order + 1):
                    w = math.comb(t, s) * (k0 ** (t - s)) / (n_bins ** t)
                    g_local[s] += g_coef[t] * w
                    t_local[s] += t_coef[t] * w
            scale = max(np.max(np.abs(g_local)), np.max(np.abs(t_local)))
            dev_g = np.max(np.abs(thetas[k0].theta_g[:, 0, 0] - g_local)) / scale
            dev_t = np.max(np.abs(thetas[k0].theta_t[:, 0] - t_local)) / scale
            worst = max(worst, float(dev_g), float(dev_t))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(6, ok, f"worst relative coefficient deviation {worst:.2e} "
                   f"(tolerance 1e-10) over orders 1-3, runtime {elapsed:.1f}s (< 5s)")


def test_criterion_7_degeneracy_suite(plant_d):
    """Open-loop reduction, single-window identity and SISO agreement of
    the two multivariable extractions."""
    # K = 0: the indirect estimate reduces to the open-loop spectral
    # analysis of (u, y) because u equals d sample for sample
    siso = StateSpaceModel(plant_d.a, plant_d.b[:, :1], plant_d.c[:1, :],
                           plant_d.d[:1, :1], ts=TS)
    ctrl0 = ControllerConfig(((0.0,),), ((1.0,),), TS)
    period = 500
    spec = MultisineSpec.flat(period, rms=1.0, phase_seed=600, n_periods=4)
    d = generate_multisine(spec, TS)
    rec = simulate_closed_loop(siso, ctrl0, d, noise_std=0.01, noise_seed=601)
    dataset = ClosedLoopDataset.from_record(rec, 0)
    assert np.array_equal(rec.u.data, d.data)
    indirect = indirect_estimate(dataset, "sa", window_length=period)
    both = TimeSeries(np.vstack([rec.u.data, rec.y.data]), TS)
    plain = spectral_analysis(power_spectra(spectrum_set(both, period), [0], [1]))
    exc = np.asarray(spec.excited_bins)
    dev_k0 = float(np.max(np.abs(indirect.g[exc, 0, 0] - plain.g[exc, 0, 0])
                          / np.abs(plain.g[exc, 0, 0])))

    # M = 1 rectangular spectral analysis equals the ETFE to machine precision
    rng = np.random.default_rng(602)
    one = TimeSeries(rng.standard_normal((2, 512)), TS)
    sp1 = spectrum_set(one, 512)
    sa1 = spectral_analysis(power_spectra(sp1, [0], [1]))
    et1 = etfe(sp1)
    finite = np.isfinite(et1.g[:, 0, 0])
    dev_m1 = float(np.max(np.abs(sa1.g[finite, 0, 0] - et1.g[finite, 0, 0])
                          / np.abs(et1.g[finite, 0, 0])))

    # SISO: matrix-inverse and entrywise extractions agree to 1e-12
    ctrl = ControllerConfig.lead(1, TS, 50.0, 0.9, 0.5)
    rec2 = simulate_closed_loop(siso, ctrl, d, noise_std=0.01, noise_seed=603)
    ds2 = ClosedLoopDataset.from_record(rec2, 0)
    gs, s = sensitivity_pair(ds2, "sa", window_length=period,
                             u_channels=[0], y_channels=[0])
    frm = FrmPair(gs, s)
    a = full_plant(frm).g[:, 0, 0]
    b = equivalent_plant(frm).g[:, 0, 0]
    ok_bins = np.isfinite(a) & np.isfinite(b)
    dev_siso = float(np.max(np.abs(a[ok_bins] - b[ok_bins]) / np.abs(b[ok_bins])))

    ok = dev_k0 < 1e-12 and dev_m1 < 1e-13 and dev_siso <= 1e-12
    _report(7, ok, f"K=0 indirect vs open-loop SA {dev_k0:.2e} (< 1e-12), "
                   f"M=1 SA vs ETFE {dev_m1:.2e} (< 1e-13), SISO full vs "
                   f"equivalent {dev_siso:.2e} (<= 1e-12)")


def test_criterion_8_variance_sanity():
    """Noise-variance estimate on known white noise (M = 200) within 15%
    of the truth after window power normalization, for both window
    kinds; all reported variances nonnegative."""
    sigma = 0.25
    m, length = 200, 256
    rng = np.random.default_rng(700)
    u = rng.standard_normal(m * length)
    y = sigma * rng.standard_normal(m * length)
    series = TimeSeries(np.vstack([u, y]), TS)
    devs = {}
    for label, window in (("rectangular", None),
                          ("hann", WindowFunction.hann(length))):
        sp = spectrum_set(series, length, window=window)
        ps = power_spectra(sp, [0], [1])
        cv = noise_covariance(ps)
        level = float(np.mean(np.real(cv[5:-5, 0, 0])))
        devs[label] = abs(level - sigma**2) / sigma**2
        sa = spectral_analysis(ps)
        finite = np.isfinite(sa.variance)
        assert np.all(sa.variance[finite] >= 0.0)
    ok = all(v < 0.15 for v in devs.values())
    _report(8, ok, f"noise-power deviation rectangular {devs['rectangular']:.3f}, "
                   f"hann {devs['hann']:.3f} (tolerance 0.15); variances nonnegative")


def test_criterion_9_determinism(tmp_path):
    """Rerunning a scenario with an identical configuration produces
    byte-identical numerical output files."""
    doc = {
        "scenario": "transient_study",
        "multisine": {"period_seconds": 0.5},
        "seeds": {"phase": 800, "noise": 801},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(doc), encoding="utf-8")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    export_report(run_scenario(parse_config(cfg_path)), out_a)
    export_report(run_scenario(parse_config(cfg_path)), out_b)
    checked = []
    same = True
    for path in sorted(out_a.iterdir()):
        if path.name == "run_meta.json":  # isolated timestamp/runtime file
            continue
        other = out_b / path.name
        identical = path.read_bytes() == other.read_bytes()
        same = same and identical
        checked.append(path.name)
    ok = same and len(checked) >= 6
    _report(9, ok, f"{len(checked)} files byte-identical across reruns: {checked}")
