import json
import math

import numpy as np
import pytest

from frfkit.estimators import (
    FrfEstimate,
    LpmConfig,
    average_then_divide,
    etfe,
    lpm_edge_policy,
    lpm_fit,
    noise_covariance,
    power_spectra,
    spectral_analysis,
    write_frf_csv,
    write_frf_json,
)
from frfkit.signals import (
    MultisineSpec,
    SpectrumSet,
    TimeSeries,
    WindowFunction,
    bin_frequencies,
    generate_multisine,
    spectrum_set,
)
from frfkit.sim import (
    StateSpaceModel,
    benchmark_plant,
    discretize_zoh,
    lsim,
    periodic_steady_state,
    transient_spectrum,
    true_frf,
)

TS = 1e-3


@pytest.fixture(scope="module")
def plant_d():
    return discretize_zoh(benchmark_plant(), TS)


@pytest.fixture(scope="module")
def steady_record(plant_d):
    """Noiseless steady-state response to 2 periods of a multisine on
    input 1: channels (u1, y1, y2)."""
    spec = MultisineSpec.flat(1000, rms=1.0, phase_seed=9, n_periods=2)
    mono = generate_multisine(spec, TS)
    u = TimeSeries(np.vstack([mono.data, np.zeros((1, mono.n_samples))]), TS)
    x_ss = periodic_steady_state(plant_d, TimeSeries(u.data[:, :1000], TS))
    rec = lsim(plant_d, u, x0=x_ss)
    stacked = TimeSeries(np.vstack([u.data[:1], rec.y.data]), TS, ("u1", "y1", "y2"))
    return spec, stacked


def synthetic_spectra(n_bins, n_channels, seed, window_length=None):
    """SpectrumSet with magnitudes in [0.5, 1.5] and random phases."""
    rng = np.random.default_rng(seed)
    mag = rng.uniform(0.5, 1.5, size=(1, n_channels, n_bins))
    phase = rng.uniform(0, 2 * np.pi, size=(1, n_channels, n_bins))
    if window_length is None:
        window_length = 2 * (n_bins - 1)
    return SpectrumSet(mag * np.exp(1j * phase), bin_frequencies(window_length, TS),
                       window_length, ts=TS)


class TestEtfe:
    def test_equal_channels_give_unity(self):
        sp = synthetic_spectra(64, 1, 0)
        sp = SpectrumSet(np.concatenate([sp.data, sp.data], axis=1),
                         sp.bin_frequencies, sp.window_length, ts=TS)
        est = etfe(sp)
        assert np.allclose(est.g[:, 0, 0], 1.0, atol=1e-14)

    def test_matches_true_frf_on_steady_data(self, plant_d, steady_record):
        spec, stacked = steady_record
        sp = spectrum_set(stacked, 1000)  # window = one period, M = 2
        est = etfe(sp, "u1", "y1")
        g_true = true_frf(plant_d, est.bin_frequencies).g[:, 0, 0]
        exc = np.array(spec.excited_bins)
        rel = np.abs(est.g[exc, 0, 0] - g_true[exc]) / np.abs(g_true[exc])
        assert np.max(rel) < 1e-8

    def test_zero_input_bin_defect(self):
        sp = synthetic_spectra(32, 2, 1)
        sp.data[0, 0, 7] = 0.0  # kill the only window's input at bin 7
        est = etfe(sp)
        assert np.isnan(est.g[7, 0, 0])
        assert 7 in est.defect_bins()
        assert np.all(np.isfinite(est.g[[k for k in range(32) if k != 7], 0, 0]))

    def test_partial_window_exclusion_keeps_estimate(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((4, 2, 16)) + 1j * rng.standard_normal((4, 2, 16))
        data[1, 0, 5] = 0.0  # one of four windows floored at bin 5
        sp = SpectrumSet(data, bin_frequencies(30, TS), 30, ts=TS)
        est = etfe(sp)
        assert np.isfinite(est.g[5, 0, 0])
        manual = np.mean(data[[0, 2, 3], 1, 5] / data[[0, 2, 3], 0, 5])
        assert est.g[5, 0, 0] == pytest.approx(manual, rel=1e-14)
        reasons = {d.reason for d in est.defects if d.bin_index == 5}
        assert "input_floored_windows_excluded" in reasons

    def test_no_variance_attached(self):
        est = etfe(synthetic_spectra(16, 2, 4))
        assert est.variance is None


class TestAverageThenDivide:
    def test_single_window_equals_etfe(self):
        sp = synthetic_spectra(32, 2, 5)
        a = average_then_divide(sp)
        b = etfe(sp)
        assert np.allclose(a.g, b.g, atol=0.0)

    def test_phase_coherent_windows_equal_etfe(self, steady_record):
        _, stacked = steady_record
        sp = spectrum_set(stacked, 1000)  # two identical periods
        a = average_then_divide(sp, "u1", "y1")
        b = etfe(sp, "u1", "y1")
        finite = np.isfinite(a.g[:, 0, 0]) & np.isfinite(b.g[:, 0, 0])
        assert np.max(np.abs(a.g[finite] - b.g[finite])) < 1e-12

    def test_random_phases_shrink_average_and_raise_defects(self):
        # independent random phases per window: |U_avg| ~ 1/sqrt(M) while
        # per-window magnitudes stay O(1); with a fixed absolute floor the
        # averaged estimator defects while the ETFE does not
        m, n_bins = 64, 256
        rng = np.random.default_rng(6)
        u = np.exp(2j * np.pi * rng.uniform(size=(m, 1, n_bins)))
        y = u * 2.0
        sp = SpectrumSet(np.concatenate([u, y], axis=1),
                         bin_frequencies(2 * (n_bins - 1), TS),
                         2 * (n_bins - 1), ts=TS)
        u_avg_mag = np.abs(u.mean(axis=0))
        assert np.median(u_avg_mag) < 3.0 / math.sqrt(m)
        floor = 0.1
        avg = average_then_divide(sp, floor=floor)
        plain = etfe(sp, floor=floor)
        nan_avg = np.isnan(avg.g[:, 0, 0]).sum()
        nan_etfe = np.isnan(plain.g[:, 0, 0]).sum()
        assert nan_avg > 10 * max(nan_etfe, 1)


class TestPowerSpectra:
    def test_single_window_siso_formulas(self):
        sp = synthetic_spectra(16, 2, 7)
        ps = power_spectra(sp, [0], [1])
        u = sp.data[0, 0]
        y = sp.data[0, 1]
        assert np.allclose(ps.phi_yu[:, 0, 0], y * np.conj(u), atol=1e-14)
        assert np.allclose(ps.phi_uu[:, 0, 0], np.abs(u) ** 2, atol=1e-14)
        assert np.allclose(ps.phi_yy[:, 0, 0], np.abs(y) ** 2, atol=1e-14)

    def test_duplicate_window_idempotent(self):
        sp = synthetic_spectra(16, 2, 8)
        doubled = SpectrumSet(np.repeat(sp.data, 2, axis=0), sp.bin_frequencies,
                              sp.window_length, ts=TS)
        a = power_spectra(sp, [0], [1])
        b = power_spectra(doubled, [0], [1])
        assert np.allclose(a.phi_yu, b.phi_yu, atol=1e-15)
        assert np.allclose(a.phi_uu, b.phi_uu, atol=1e-15)

    def test_hermitian_psd_mimo(self):
        rng = np.random.default_rng(9)
        data = rng.standard_normal((8, 4, 33)) + 1j * rng.standard_normal((8, 4, 33))
        sp = SpectrumSet(data, bin_frequencies(64, TS), 64, ts=TS)
        ps = power_spectra(sp, [0, 1], [2, 3])
        for phi in (ps.phi_uu, ps.phi_yy):
            assert np.allclose(phi, np.conj(np.transpose(phi, (0, 2, 1))), atol=1e-13)
            eigs = np.linalg.eigvalsh(phi)
            assert np.all(eigs > -1e-12)

    def test_white_input_flat_spectrum(self):
        rng = np.random.default_rng(10)
        x = TimeSeries(rng.standard_normal((2, 256 * 260)), TS)
        sp = spectrum_set(x, 256)
        ps = power_spectra(sp, [0], [1])
        interior = slice(4, -4)
        levels = np.real(ps.phi_uu[interior, 0, 0])
        assert np.max(np.abs(levels / 1.0 - 1.0)) < 0.2

    def test_hann_power_compensation(self):
        # white noise through a Hann window keeps its compensated level
        rng = np.random.default_rng(11)
        x = TimeSeries(rng.standard_normal((2, 256 * 300)), TS)
        sp = spectrum_set(x, 256, window=WindowFunction.hann(256))
        ps = power_spectra(sp, [0], [1])
        interior = slice(8, -8)
        level = np.mean(np.real(ps.phi_uu[interior, 0, 0]))
        assert level == pytest.approx(1.0, rel=0.05)


class TestSpectralAnalysis:
    def test_single_window_equals_etfe(self):
        sp = synthetic_spectra(64, 2, 12)
        sa = spectral_analysis(power_spectra(sp, [0], [1]))
        ref = etfe(sp)
        ok = ~np.isnan(ref.g[:, 0, 0])
        rel = np.abs(sa.g[ok, 0, 0] - ref.g[ok, 0, 0]) / np.abs(ref.g[ok, 0, 0])
        assert np.max(rel) < 1e-13

    def test_matches_true_frf_on_steady_data(self, plant_d, steady_record):
        spec, stacked = steady_record
        sp = spectrum_set(stacked, 1000)
        sa = spectral_analysis(power_spectra(sp, [0], [1, 2]))
        g_true = true_frf(plant_d, sa.bin_frequencies).g
        exc = np.array(spec.excited_bins)
        rel = np.abs(sa.g[exc, :, 0] - g_true[exc, :, 0]) / np.abs(g_true[exc, :, 0])
        # the cross entry is orders of magnitude below the direct one near
        # Nyquist, so its relative error is float-noise limited there
        assert np.max(rel[:, 0]) < 1e-8
        assert np.max(rel) < 1e-6

    def test_variance_absent_when_m_too_small(self):
        sp = synthetic_spectra(16, 2, 13)  # M = 1 = n_u
        sa = spectral_analysis(power_spectra(sp, [0], [1]))
        assert sa.variance is None
        assert sa.estimator_tag["variance_attached"] is False

    def test_noise_variance_calibration_rectangular(self):
        # known white output noise; mean estimated noise power within 15%
        sigma = 0.3
        m, length = 200, 256
        rng = np.random.default_rng(14)
        u = rng.standard_normal(m * length)
        y = sigma * rng.standard_normal(m * length)
        sp = spectrum_set(TimeSeries(np.vstack([u, y]), TS), length)
        cv = noise_covariance(power_spectra(sp, [0], [1]))
        level = np.mean(np.real(cv[5:-5, 0, 0]))
        assert level == pytest.approx(sigma**2, rel=0.15)

    def test_noise_variance_calibration_hann(self):
        sigma = 0.3
        m, length = 200, 256
        rng = np.random.default_rng(15)
        u = rng.standard_normal(m * length)
        y = sigma * rng.standard_normal(m * length)
        sp = spectrum_set(TimeSeries(np.vstack([u, y]), TS), length,
                          window=WindowFunction.hann(length))
        cv = noise_covariance(power_spectra(sp, [0], [1]))
        level = np.mean(np.real(cv[5:-5, 0, 0]))
        assert level == pytest.approx(sigma**2, rel=0.15)

    def test_noise_variance_with_plant_in_the_loop(self, plant_d):
        # same calibration but with y = G u + v
        sigma = 0.2
        m, length = 200, 500
        rng = np.random.default_rng(16)
        u = rng.standard_normal((2, m * length))
        rec = lsim(plant_d, TimeSeries(u, TS))
        y = rec.y.data[0] + sigma * rng.standard_normal(m * length)
        sp = spectrum_set(TimeSeries(np.vstack([u[0], y]), TS), length)
        ps = power_spectra(sp, [0], [1])
        cv = noise_covariance(ps)
        level = np.mean(np.real(cv[5:-5, 0, 0]))
        assert level == pytest.approx(sigma**2, rel=0.15)
        sa = spectral_analysis(ps)
        assert sa.variance is not None
        finite = np.isfinite(sa.variance)
        assert np.all(sa.variance[finite] >= 0.0)

    def test_noise_covariance_hermitian_defect_small(self):
        rng = np.random.default_rng(17)
        u = rng.standard_normal((2, 64 * 128))
        y = 0.5 * rng.standard_normal((1, 64 * 128))
        sp = spectrum_set(TimeSeries(np.vstack([u, y]), TS), 128)
        cv = noise_covariance(power_spectra(sp, [0, 1], [2]))
        scale = np.max(np.abs(cv))
        assert np.max(np.abs(cv.imag)) <= 1e-12 * scale
        assert np.min(cv.real) >= -1e-12 * scale

    def test_singular_input_spectrum_defect(self):
        sp = synthetic_spectra(16, 2, 18)
        sp.data[0, 0, 3] = 0.0
        doubled = SpectrumSet(np.repeat(sp.data, 3, axis=0), sp.bin_frequencies,
                              sp.window_length, ts=TS)
        doubled.data[:, 0, 3] = 0.0
        sa = spectral_analysis(power_spectra(doubled, [0], [1]))
        assert 3 in sa.defect_bins()
        assert np.isnan(sa.g[3, 0, 0])


def build_polynomial_spectra(order, n_u, n_bins, seed):
    """Forward-model data: global polynomial FRF and transient in the bin
    index, so every local window is an exact polynomial of the offset."""
    rng = np.random.default_rng(seed)
    n_y = 2
    g_coef = rng.standard_normal((order + 1, n_y, n_u)) * (0.5 ** np.arange(order + 1))[:, None, None] \
        + 1j * rng.standard_normal((order + 1, n_y, n_u)) * (0.5 ** np.arange(order + 1))[:, None, None]
    t_coef = rng.standard_normal((order + 1, n_y)) * (0.5 ** np.arange(order + 1))[:, None] \
        + 1j * rng.standard_normal((order + 1, n_y)) * (0.5 ** np.arange(order + 1))[:, None]
    k = np.arange(n_bins) / n_bins  # scaled index keeps magnitudes sane
    g_of_k = np.einsum("syu,sk->kyu", g_coef, k[np.newaxis, :] ** np.arange(order + 1)[:, np.newaxis])
    t_of_k = np.einsum("sy,sk->ky", t_coef, k[np.newaxis, :] ** np.arange(order + 1)[:, np.newaxis])
    u = rng.uniform(0.5, 1.5, (n_bins, n_u)) * np.exp(2j * np.pi * rng.uniform(size=(n_bins, n_u)))
    y = np.einsum("kyu,ku->ky", g_of_k, u) + t_of_k
    data = np.concatenate([u, y], axis=1).T[np.newaxis]  # (1, n_u+n_y, n_bins)
    sp = SpectrumSet(data, bin_frequencies(2 * (n_bins - 1), TS), 2 * (n_bins - 1), ts=TS)
    return sp, g_of_k, t_of_k, g_coef, t_coef


def local_theta_from_global(g_coef, t_coef, k0, n_bins):
    """Re-center the global polynomial at bin k0: coefficients of the
    offset r follow from the binomial expansion of ((k0 + r)/n_bins)^t."""
    order = g_coef.shape[0] - 1
    g_local = np.zeros_like(g_coef)
    t_local = np.zeros_like(t_coef)
    for s in range(order + 1):
        for t in range(s, order + 1):
            w = math.comb(t, s) * (k0 ** (t - s)) / (n_bins ** t)
            g_local[s] += g_coef[t] * w
            t_local[s] += t_coef[t] * w
    return g_local, t_local


class TestLpm:
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("n_u", [1, 2])
    def test_exact_polynomial_recovery(self, order, n_u):
        n_bins = 64
        sp, g_of_k, t_of_k, g_coef, t_coef = build_polynomial_spectra(order, n_u, n_bins, 20 + order)
        cfg = LpmConfig.auto(n_u, order)
        est, thetas = lpm_fit(sp, cfg, input_channels=list(range(n_u)),
                              output_channels=[n_u, n_u + 1], return_local_models=True)
        interior = range(cfg.half_width, n_bins - cfg.half_width)
        for k0 in interior:
            g_local, t_local = local_theta_from_global(g_coef, t_coef, k0, n_bins)
            scale = max(np.max(np.abs(g_local)), np.max(np.abs(t_local)))
            assert np.max(np.abs(thetas[k0].theta_g - g_local)) <= 1e-10 * scale
            assert np.max(np.abs(thetas[k0].theta_t - t_local)) <= 1e-10 * scale
        ik = np.array(list(interior))
        assert np.max(np.abs(est.g[ik] - g_of_k[ik])) <= 1e-10
        assert np.max(np.abs(est.transient[ik] - t_of_k[ik])) <= 1e-10

    @pytest.mark.parametrize("half_width", [5, 8, 12])
    def test_exact_recovery_any_solvable_width(self, half_width):
        n_bins = 80
        order = 2
        sp, g_of_k, t_of_k, _, _ = build_polynomial_spectra(order, 1, n_bins, 60)
        cfg = LpmConfig(order, half_width, 1)
        est = lpm_fit(sp, cfg, input_channels=[0], output_channels=[1, 2])
        ik = np.arange(half_width, n_bins - half_width)
        assert np.max(np.abs(est.g[ik] - g_of_k[ik])) <= 1e-10
        assert np.max(np.abs(est.transient[ik] - t_of_k[ik])) <= 1e-10

    def test_steady_state_transient_negligible(self, plant_d, steady_record):
        spec, stacked = steady_record
        sp = spectrum_set(stacked)  # single window over both periods
        cfg = LpmConfig(poly_order=2, half_width=3, dof_margin=1)
        est = lpm_fit(sp, cfg, input_channels=[0], output_channels=[1, 2])
        exc = 2 * np.array(spec.excited_bins)
        exc = exc[(exc >= cfg.half_width) & (exc < sp.n_bins - cfg.half_width)]
        g_true = true_frf(plant_d, est.bin_frequencies).g
        u_mag = np.abs(sp.data[0, 0, exc])
        for out in (0, 1):
            bound = 1e-6 * np.abs(g_true[exc, out, 0]) * u_mag
            assert np.all(np.abs(est.transient[exc, out]) < bound)

    def test_matches_true_frf_on_steady_data(self, plant_d, steady_record):
        spec, stacked = steady_record
        sp = spectrum_set(stacked)
        cfg = LpmConfig(poly_order=2, half_width=3, dof_margin=1)
        est = lpm_fit(sp, cfg, input_channels=[0], output_channels=[1])
        g_true = true_frf(plant_d, est.bin_frequencies).g[:, 0, 0]
        exc = 2 * np.array(spec.excited_bins)
        exc = exc[(exc >= cfg.half_width) & (exc < sp.n_bins - cfg.half_width)]
        rel = np.abs(est.g[exc, 0, 0] - g_true[exc]) / np.abs(g_true[exc])
        assert np.max(rel) < 1e-8

    def test_transient_estimate_matches_oracle(self):
        # well-damped plant: the transient is smooth on this grid so the
        # local polynomial tracks it within 10% wherever it matters
        a = np.array([[0.8, 0.3], [-0.3, 0.7]])
        plant = StateSpaceModel(a, [[1.0], [0.5]], [[1.0, -0.4]], [[0.0]], ts=TS)
        spec = MultisineSpec.flat(500, rms=1.0, phase_seed=2, n_periods=2)
        u1 = generate_multisine(spec, TS)
        rec = lsim(plant, u1)
        t_true = transient_spectrum(plant, rec.x0, rec.xN, u1.n_samples)
        sp = spectrum_set(TimeSeries(np.vstack([u1.data, rec.y.data]), TS))
        cfg = LpmConfig.auto(1, 2)
        est = lpm_fit(sp, cfg, input_channels=[0], output_channels=[1])
        g_true = true_frf(plant, sp.bin_frequencies).g[:, 0, 0]
        interior = np.arange(cfg.half_width, sp.n_bins - cfg.half_width)
        u_spec = sp.data[0, 0, interior]
        t_mag = np.abs(t_true[interior, 0])
        qualifying = t_mag > 0.01 * np.abs(g_true[interior] * u_spec)
        rel = np.abs(est.transient[interior, 0] - t_true[interior, 0]) / t_mag
        assert qualifying.sum() > 100
        assert np.max(rel[qualifying]) < 0.10

    def test_transient_rich_beats_spectral_analysis_below_resonance(self, plant_d):
        # zero initial state, 2 periods in closed loop, identifying the
        # sensitivity d -> u: the local method removes the leakage that
        # dominates the spectral analysis below the oscillatory mode
        from frfkit.sim import ControllerConfig, simulate_closed_loop
        from frfkit.closedloop import true_sensitivity

        ctrl = ControllerConfig.for_plant(plant_d)
        spec = MultisineSpec.flat(5000, rms=1.0, phase_seed=23, n_periods=2)
        mono = generate_multisine(spec, TS)
        d = TimeSeries(np.vstack([mono.data, np.zeros((1, mono.n_samples))]), TS)
        rec = simulate_closed_loop(plant_d, ctrl, d)
        stacked = TimeSeries(np.vstack([d.data[:1], rec.u.data[:1]]), TS)
        first_res = 18.4  # rad/s, the oscillatory mode of the plant
        sp1 = spectrum_set(stacked)
        cfg = LpmConfig.auto(1, 2)
        exc1 = 2 * np.array(spec.excited_bins)
        band1 = exc1[(sp1.bin_frequencies[exc1] < first_res) & (exc1 >= cfg.half_width)]
        lpm = lpm_fit(sp1, cfg, input_channels=[0], output_channels=[1], bins=band1)
        s1 = true_sensitivity(plant_d, ctrl, sp1.bin_frequencies)[:, 0, 0]
        err_lpm = np.max(np.abs(lpm.g[band1, 0, 0] - s1[band1]))
        sp2 = spectrum_set(stacked, 5000)
        sa = spectral_analysis(power_spectra(sp2, [0], [1]))
        s2 = true_sensitivity(plant_d, ctrl, sp2.bin_frequencies)[:, 0, 0]
        exc2 = np.array(spec.excited_bins)
        band2 = exc2[(sp2.bin_frequencies[exc2] < first_res) & (exc2 >= 2)]
        err_sa = np.max(np.abs(sa.g[band2, 0, 0] - s2[band2]))
        assert err_lpm < err_sa

    def test_requires_single_window(self, steady_record):
        _, stacked = steady_record
        sp = spectrum_set(stacked, 1000)
        with pytest.raises(ValueError):
            lpm_fit(sp, LpmConfig.auto(1))

    def test_solvability_validation(self):
        with pytest.raises(ValueError):
            LpmConfig(poly_order=2, half_width=2, dof_margin=1).validate_for(2)
        cfg = LpmConfig.auto(2, 2)
        cfg.validate_for(2)  # no raise

    def test_rank_deficient_bin_defect(self):
        sp = synthetic_spectra(32, 2, 24)
        sp.data[0, 0, :] = 1.0  # constant input: U-columns collide with T-columns
        est = lpm_fit(sp, LpmConfig.auto(1, 2), input_channels=[0], output_channels=[1])
        assert len(est.defects) == 32
        assert {d.reason for d in est.defects} == {"rank_deficient_regressor"}
        assert np.all(np.isnan(est.g))

    def test_bin_subset(self, steady_record):
        _, stacked = steady_record
        sp = spectrum_set(stacked)
        cfg = LpmConfig.auto(1, 2)
        full = lpm_fit(sp, cfg, input_channels=[0], output_channels=[1])
        some = lpm_fit(sp, cfg, input_channels=[0], output_channels=[1],
                       bins=range(100, 200))
        assert np.array_equal(full.g[100:200], some.g[100:200])
        assert np.all(np.isnan(some.g[:100]))


class TestEdgePolicy:
    def test_interior_centered(self):
        cfg = LpmConfig(2, 4, 1)
        assert list(lpm_edge_policy(50, 101, cfg)) == list(range(46, 55))

    def test_left_edge_shifted(self):
        cfg = LpmConfig(2, 4, 1)
        assert list(lpm_edge_policy(0, 101, cfg)) == list(range(0, 9))
        assert list(lpm_edge_policy(2, 101, cfg)) == list(range(0, 9))

    def test_right_edge_shifted(self):
        cfg = LpmConfig(2, 4, 1)
        assert list(lpm_edge_policy(100, 101, cfg)) == list(range(92, 101))

    def test_too_few_bins(self):
        with pytest.raises(ValueError):
            lpm_edge_policy(0, 8, LpmConfig(2, 4, 1))


class TestEstimatorAgreement:
    def test_all_estimators_agree_with_oracle(self, plant_d, steady_record):
        spec, stacked = steady_record
        sp_win = spectrum_set(stacked, 1000)
        per_period = np.array(spec.excited_bins)
        per_period = per_period[(per_period >= 2) & (per_period < 499)]
        freq_ref = sp_win.bin_frequencies[per_period]
        g_true = true_frf(plant_d, freq_ref).g[:, 0, 0]

        e1 = etfe(sp_win, "u1", "y1").g[per_period, 0, 0]
        e2 = spectral_analysis(power_spectra(sp_win, [0], [1])).g[per_period, 0, 0]
        sp_full = spectrum_set(stacked)
        cfg = LpmConfig(poly_order=2, half_width=3, dof_margin=1)
        e3 = lpm_fit(sp_full, cfg, input_channels=[0],
                     output_channels=[1]).g[2 * per_period, 0, 0]
        for est in (e1, e2, e3):
            assert np.max(np.abs(est - g_true) / np.abs(g_true)) < 1e-6
        for a, b in ((e1, e2), (e1, e3), (e2, e3)):
            assert np.max(np.abs(a - b) / np.abs(a)) < 1e-6


class TestWindowOrdering:
    def test_rectangular_beats_hann_once_steady_periods_dominate(self, plant_d):
        # two transient-rich periods followed by six steady ones: with a
        # periodic excitation and enough settled data the plain window
        # wins because the taper only adds leakage between bins
        wins = 0
        for seed in range(5):
            spec = MultisineSpec.flat(1000, rms=1.0, phase_seed=30 + seed, n_periods=8)
            mono = generate_multisine(spec, TS)
            u = TimeSeries(np.vstack([mono.data, np.zeros((1, mono.n_samples))]), TS)
            rec = lsim(plant_d, u)
            stacked = TimeSeries(np.vstack([u.data[:1], rec.y.data[:1]]), TS)
            exc = np.array(spec.excited_bins)
            sp_r = spectrum_set(stacked, 1000)
            sp_h = spectrum_set(stacked, 1000, window=WindowFunction.hann(1000))
            g_true = true_frf(plant_d, sp_r.bin_frequencies).g[:, 0, 0]
            band = exc[(exc >= 4) & (exc <= 400)]
            err_r = np.max(np.abs(
                spectral_analysis(power_spectra(sp_r, [0], [1])).g[band, 0, 0] - g_true[band]))
            err_h = np.max(np.abs(
                spectral_analysis(power_spectra(sp_h, [0], [1])).g[band, 0, 0] - g_true[band]))
            wins += err_r <= err_h
        assert wins >= 4


class TestExports:
    def test_csv_schema(self, tmp_path):
        sp = synthetic_spectra(8, 2, 40)
        est = lpm_fit(sp, LpmConfig(1, 2, 1), input_channels=[0], output_channels=[1])
        path = tmp_path / "frf.csv"
        write_frf_csv(est, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "frequency_hz,g11_re,g11_im,g11_var,t1_re,t1_im"
        assert len(lines) == 9

    def test_csv_mimo_columns(self, tmp_path):
        g = np.zeros((4, 2, 2), dtype=complex)
        est = FrfEstimate(g, np.arange(4) + 1.0, condition=np.ones(4))
        path = tmp_path / "frm.csv"
        write_frf_csv(est, path)
        header = path.read_text().splitlines()[0].split(",")
        assert header == ["frequency_hz", "g11_re", "g11_im", "g12_re", "g12_im",
                          "g21_re", "g21_im", "g22_re", "g22_im", "cond"]

    def test_json_mirrors_schema(self, tmp_path):
        sp = synthetic_spectra(8, 2, 41)
        est = etfe(sp)
        path = tmp_path / "frf.json"
        write_frf_json(est, path)
        doc = json.loads(path.read_text())
        assert doc["estimator_tag"]["estimator"] == "etfe"
        assert len(doc["frequency_hz"]) == 8
        assert set(doc["entries"]) == {"g11"}
        assert "re" in doc["entries"]["g11"]
