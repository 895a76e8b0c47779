import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frfkit.closedloop import (
    PLANT_COND_LIMIT,
    S_FLOOR_REL,
    ClosedLoopDataset,
    FrmPair,
    _plant,
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
from frfkit.estimators import FrfEstimate, power_spectra, spectral_analysis
from frfkit.signals import (
    MultisineSpec,
    TimeSeries,
    bin_frequencies,
    generate_multisine,
    spectrum_set,
)
from frfkit.sim import (
    ControllerConfig,
    StateSpaceModel,
    benchmark_plant,
    discretize_zoh,
    simulate_closed_loop,
    true_frf,
)

TS = 1e-3
PERIOD = 500


@pytest.fixture(scope="module")
def plant_d():
    return discretize_zoh(benchmark_plant(), TS)


@pytest.fixture(scope="module")
def siso_plant(plant_d):
    return StateSpaceModel(plant_d.a, plant_d.b[:, :1], plant_d.c[:1, :],
                           plant_d.d[:1, :1], ts=TS)


@pytest.fixture(scope="module")
def siso_ctrl():
    return ControllerConfig.lead(1, TS, 50.0, 0.9, 0.5)


@pytest.fixture(scope="module")
def mimo_ctrl(plant_d):
    return ControllerConfig.for_plant(plant_d)


def siso_run(plant, ctrl, n_periods, noise_std=0.0, noise_seed=None,
             phase_seed=1, discard=0, steady=False):
    spec = MultisineSpec.flat(PERIOD, rms=1.0, phase_seed=phase_seed,
                              n_periods=n_periods)
    d = generate_multisine(spec, TS)
    kwargs = {}
    if steady:
        from frfkit.sim import closed_loop_steady_state
        xp0, xc0 = closed_loop_steady_state(
            plant, ctrl, TimeSeries(d.data[:, :PERIOD], TS))
        kwargs = {"x_plant0": xp0, "x_ctrl0": xc0}
    rec = simulate_closed_loop(plant, ctrl, d, noise_std=noise_std,
                               noise_seed=noise_seed, **kwargs)
    ds = ClosedLoopDataset.from_record(rec, 0)
    if discard:
        ds = ds.tail_periods(PERIOD, n_periods - discard)
    return spec, ds


@pytest.fixture(scope="module")
def noisy_siso(siso_plant, siso_ctrl):
    """110 periods, first 10 discarded: M = 100 windows of noisy data."""
    return siso_run(siso_plant, siso_ctrl, 110, noise_std=0.05, noise_seed=42,
                    phase_seed=5, discard=10)


class TestDirectEstimate:
    def test_noiseless_recovers_plant(self, siso_plant, siso_ctrl):
        spec, ds = siso_run(siso_plant, siso_ctrl, 4, steady=True)
        est = direct_estimate(ds, PERIOD)
        g0 = true_frf(siso_plant, est.bin_frequencies).g[:, 0, 0]
        exc = np.array(spec.excited_bins)
        rel = np.abs(est.g[exc, 0, 0] - g0[exc]) / np.abs(g0[exc])
        assert np.max(rel) < 1e-6
        assert est.estimator_tag["method"] == "direct_closed_loop"

    def test_noise_only_converges_to_controller_inverse(self, siso_plant, siso_ctrl):
        d = TimeSeries(np.zeros((1, 80 * PERIOD)), TS)
        rec = simulate_closed_loop(siso_plant, siso_ctrl, d, noise_std=0.1,
                                   noise_seed=3)
        ds = ClosedLoopDataset.from_record(rec, 0)
        est = direct_estimate(ds, PERIOD)
        k = siso_ctrl.frf(est.bin_frequencies)[:, 0, 0]
        sel = slice(5, -5)
        rel = np.abs(est.g[sel, 0, 0] + 1.0 / k[sel]) / np.abs(1.0 / k[sel])
        assert np.median(rel) < 0.05

    def test_monte_carlo_matches_bias_asymptote(self, siso_plant, siso_ctrl, noisy_siso):
        spec, ds = noisy_siso
        est = direct_estimate(ds, PERIOD)
        freqs = est.bin_frequencies
        g0 = true_frf(siso_plant, freqs).g[:, 0, 0]
        k = siso_ctrl.frf(freqs)[:, 0, 0]
        d_spec = spectrum_set(TimeSeries(ds.d.data, TS), PERIOD).data[0, 0]
        asymptote = direct_bias_asymptote(g0, k, np.abs(d_spec) ** 2, 0.05**2)
        exc = np.array(spec.excited_bins)
        se = np.sqrt(est.variance[exc, 0, 0])
        within = np.abs(est.g[exc, 0, 0] - asymptote[exc]) <= 3 * se
        assert np.mean(within) >= 0.9

    def test_bias_pulls_toward_controller_inverse_as_noise_grows(
            self, siso_plant, siso_ctrl):
        spec = MultisineSpec.flat(PERIOD, rms=1.0, phase_seed=9, n_periods=60)
        d = generate_multisine(spec, TS)
        exc = np.array(spec.excited_bins)
        k = siso_ctrl.frf(bin_frequencies(PERIOD, TS))[:, 0, 0]
        distances = []
        for sigma, seed in ((0.01, 11), (0.1, 12), (1.0, 13)):
            rec = simulate_closed_loop(siso_plant, siso_ctrl, d,
                                       noise_std=sigma, noise_seed=seed)
            ds = ClosedLoopDataset.from_record(rec, 0)
            ds = ds.tail_periods(PERIOD, 50)
            est = direct_estimate(ds, PERIOD)
            distances.append(np.median(
                np.abs(est.g[exc, 0, 0] - (-1.0 / k[exc]))))
        assert distances[0] > distances[1] > distances[2]


class TestIndirectEstimate:
    @settings(derandomize=True, deadline=None, max_examples=12)
    @given(phase_seed=st.integers(0, 2**32 - 1), n_periods=st.integers(2, 6),
           noisy=st.booleans())
    def test_open_loop_reduces_to_plain_spectral_analysis(self, siso_plant, phase_seed,
                                                          n_periods, noisy):
        ctrl0 = ControllerConfig(((0.0,),), ((1.0,),), TS)
        spec, ds = siso_run(siso_plant, ctrl0, n_periods, noise_std=0.05 if noisy else 0.0,
                            noise_seed=phase_seed if noisy else None, phase_seed=phase_seed)
        assert np.array_equal(ds.u.data, ds.d.data)  # loop disabled
        est = indirect_estimate(ds, "sa", window_length=PERIOD)
        both = TimeSeries(np.vstack([ds.u.data, ds.y.data]), TS)
        plain = spectral_analysis(power_spectra(spectrum_set(both, PERIOD), [0], [1]))
        exc = np.array(spec.excited_bins)
        assert np.allclose(est.g[exc, 0, 0], plain.g[exc, 0, 0], rtol=1e-12)

    @pytest.mark.parametrize("estimator", ["sa", "lpm"])
    def test_indirect_is_the_one_by_one_plant(self, siso_plant, siso_ctrl, estimator):
        _, ds = siso_run(siso_plant, siso_ctrl, 4, noise_std=0.05, noise_seed=4,
                         phase_seed=3)
        window_length = PERIOD if estimator == "sa" else None
        est = indirect_estimate(ds, estimator, window_length=window_length)
        gs, s = sensitivity_pair(ds, estimator, window_length=window_length,
                                 u_channels=[0], y_channels=[0])
        g, variance, _, defects = _plant(gs.g, s.g, gs.variance, s.variance)
        assert np.array_equal(est.g, g, equal_nan=True)
        assert np.array_equal(est.variance, variance, equal_nan=True)
        assert est.defects == gs.defects + defects

    def test_noiseless_recovers_plant(self, siso_plant, siso_ctrl):
        spec, ds = siso_run(siso_plant, siso_ctrl, 4, steady=True)
        est = indirect_estimate(ds, "sa", window_length=PERIOD)
        g0 = true_frf(siso_plant, est.bin_frequencies).g[:, 0, 0]
        exc = np.array(spec.excited_bins)
        rel = np.abs(est.g[exc, 0, 0] - g0[exc]) / np.abs(g0[exc])
        assert np.max(rel) < 1e-6

    def test_lpm_variant_recovers_plant_under_transients(self, siso_plant, siso_ctrl):
        # zero initial state, no discarding: the transient would bias a
        # plain estimate; the local method eliminates it
        spec, ds = siso_run(siso_plant, siso_ctrl, 2, phase_seed=8)
        est = indirect_estimate(ds, "lpm")
        g0 = true_frf(siso_plant, est.bin_frequencies).g[:, 0, 0]
        exc = 2 * np.array(spec.excited_bins)
        sel = exc[(exc >= 8) & (exc < est.n_bins - 8)]
        rel = np.abs(est.g[sel, 0, 0] - g0[sel]) / np.abs(g0[sel])
        assert np.median(rel) < 1e-4

    def test_beats_direct_where_bias_significant(self, siso_plant, siso_ctrl, noisy_siso):
        spec, ds = noisy_siso
        direct = direct_estimate(ds, PERIOD)
        indirect = indirect_estimate(ds, "sa", window_length=PERIOD)
        freqs = direct.bin_frequencies
        g0 = true_frf(siso_plant, freqs).g[:, 0, 0]
        k = siso_ctrl.frf(freqs)[:, 0, 0]
        d_spec = spectrum_set(TimeSeries(ds.d.data, TS), PERIOD).data[0, 0]
        asymptote = direct_bias_asymptote(g0, k, np.abs(d_spec) ** 2, 0.05**2)
        exc = np.array(spec.excited_bins)
        se = np.sqrt(direct.variance[exc, 0, 0])
        significant = np.abs(asymptote[exc] - g0[exc]) > 3 * se
        assert significant.sum() > 50
        err_dir = np.abs(direct.g[exc, 0, 0] - g0[exc])
        err_ind = np.abs(indirect.g[exc, 0, 0] - g0[exc])
        assert np.mean(err_ind[significant] < err_dir[significant]) > 0.9

    def test_error_shrinks_like_inverse_sqrt_windows(self, siso_plant, siso_ctrl):
        ms = [8, 32, 128, 512]
        spec = MultisineSpec.flat(PERIOD, rms=1.0, phase_seed=77, n_periods=522)
        d = generate_multisine(spec, TS)
        rec = simulate_closed_loop(siso_plant, siso_ctrl, d, noise_std=0.05,
                                   noise_seed=5)
        exc = np.array(spec.excited_bins)
        g0 = true_frf(siso_plant, bin_frequencies(PERIOD, TS)).g[:, 0, 0]
        errs = []
        for m in ms:
            sl = slice(10 * PERIOD, (10 + m) * PERIOD)
            ds = ClosedLoopDataset(
                TimeSeries(rec.d.data[:, sl], TS),
                TimeSeries(rec.u.data[:, sl], TS),
                TimeSeries(rec.y.data[:, sl], TS), 0)
            est = indirect_estimate(ds, "sa", window_length=PERIOD)
            errs.append(np.mean(np.abs(est.g[exc, 0, 0] - g0[exc])))
        slope = np.polyfit(np.log(ms), np.log(errs), 1)[0]
        assert slope == pytest.approx(-0.5, abs=0.15)


@pytest.fixture(scope="module")
def mimo_frm(plant_d, mimo_ctrl):
    spec = MultisineSpec.flat(1000, rms=1.0, phase_seed=50, n_periods=2)
    return run_mimo_experiments(plant_d, mimo_ctrl, spec, estimator="sa",
                                start_at_steady_state=True)


class TestMimoExperiments:
    def test_full_matrices_with_interaction(self, mimo_frm):
        exc = np.arange(2, 100)  # band where the plant has authority
        gs = mimo_frm.gs.g[exc]
        s = mimo_frm.s.g[exc]
        assert gs.shape[1:] == (2, 2)
        assert s.shape[1:] == (2, 2)
        # strong cross-coupling: off-diagonals are not negligible
        assert np.median(np.abs(gs[:, 0, 1])) > 1e-3 * np.median(np.abs(gs[:, 0, 0]))
        assert np.max(np.abs(s[:, 0, 1])) > 0

    def test_distinct_seeds_required(self, plant_d, mimo_ctrl):
        spec = MultisineSpec.flat(256, rms=1.0, phase_seed=1)
        with pytest.raises(ValueError):
            run_mimo_experiments(plant_d, mimo_ctrl, spec, phase_seeds=(3, 3))

    def test_zero_controller_gives_identity_sensitivity(self, plant_d):
        ctrl0 = ControllerConfig(((0.0,), (0.0,)), ((1.0,), (1.0,)), TS)
        spec = MultisineSpec.flat(512, rms=1.0, phase_seed=51, n_periods=2)
        frm = run_mimo_experiments(plant_d, ctrl0, spec, estimator="sa",
                                   start_at_steady_state=True)
        exc = np.array(spec.excited_bins)
        eye = np.eye(2)
        assert np.max(np.abs(frm.s.g[exc] - eye)) < 1e-9

    def test_sensitivity_columns_match_analytic(self, plant_d, mimo_ctrl, mimo_frm):
        exc = np.array(MultisineSpec.flat(1000).excited_bins)
        s_true = true_sensitivity(plant_d, mimo_ctrl, mimo_frm.s.bin_frequencies)
        assert np.max(np.abs(mimo_frm.s.g[exc] - s_true[exc])) < 1e-6


class TestFullPlant:
    def test_noiseless_recovers_true_matrix(self, plant_d, mimo_frm):
        est = full_plant(mimo_frm)
        exc = np.array(MultisineSpec.flat(1000).excited_bins)
        g_true = true_frf(plant_d, est.bin_frequencies).g
        rel = np.abs(est.g[exc] - g_true[exc]) / np.abs(g_true[exc])
        assert np.max(rel[:, 0, 0]) < 1e-6
        assert np.max(rel) < 1e-4  # cross entries are tiny near Nyquist
        assert np.max(np.abs(est.g[exc] - g_true[exc])) < 1e-6 * np.max(np.abs(g_true[exc]))

    def test_identity_sensitivity_returns_gs(self, mimo_frm):
        n_bins = mimo_frm.gs.n_bins
        eye = np.tile(np.eye(2, dtype=complex), (n_bins, 1, 1))
        frm = FrmPair(mimo_frm.gs,
                      FrfEstimate(eye, mimo_frm.s.bin_frequencies))
        est = full_plant(frm)
        assert np.allclose(est.g, mimo_frm.gs.g, atol=1e-14, equal_nan=True)

    def test_condition_number_recorded_and_defects(self, mimo_frm):
        est = full_plant(mimo_frm)
        assert est.condition is not None
        finite = np.isfinite(est.condition)
        assert finite.sum() > 400
        # a sensitivity of condition number about 4e10, above PLANT_COND_LIMIT,
        # at every bin: everything defected
        near_singular = np.tile(np.ones((2, 2)) + 1e-10 * np.eye(2), (mimo_frm.s.n_bins, 1, 1))
        ill = full_plant(FrmPair(mimo_frm.gs,
                                 FrfEstimate(near_singular, mimo_frm.s.bin_frequencies)))
        assert np.all(ill.condition > PLANT_COND_LIMIT)
        assert {d.reason for d in ill.defects} == {"sensitivity_ill_conditioned"}
        assert len(ill.defects) == ill.n_bins
        assert np.all(np.isnan(ill.g))


class TestEquivalentPlant:
    def test_matches_closed_form_interaction(self, plant_d, mimo_ctrl, mimo_frm):
        est = equivalent_plant(mimo_frm)
        exc = np.array(MultisineSpec.flat(1000).excited_bins)
        freqs = est.bin_frequencies
        g_true = true_frf(plant_d, freqs).g
        k_frf = mimo_ctrl.frf(freqs)
        closed_form = g_true[:, 0, 0] - interaction_term(g_true, k_frf, loop=0)
        rel = np.abs(est.g[exc, 0, 0] - closed_form[exc]) / np.abs(closed_form[exc])
        assert np.max(rel) < 1e-6

    def test_equivalent_plant_true_oracle_agrees(self, plant_d, mimo_ctrl, mimo_frm):
        est = equivalent_plant(mimo_frm)
        exc = np.array(MultisineSpec.flat(1000).excited_bins)
        freqs = est.bin_frequencies
        oracle = equivalent_plant_true(true_frf(plant_d, freqs).g,
                                       mimo_ctrl.frf(freqs))
        rel = np.abs(est.g[exc, 0, 0] - oracle[exc, 0, 0]) / np.abs(oracle[exc, 0, 0])
        assert np.max(rel) < 1e-6

    def test_diagonal_plant_equivalent_equals_full(self):
        # decoupled two-mass plant: no interaction, so both extractions
        # agree entry by entry
        a = np.array([[0.0, 1.0, 0.0, 0.0],
                      [-173.0, -8.0, 0.0, 0.0],
                      [0.0, 0.0, 0.0, 1.0],
                      [0.0, 0.0, -173.0, -8.0]])
        b = np.array([[0.0, 0.0], [53.0, 0.0], [0.0, 0.0], [0.0, 53.0]])
        c = np.array([[1.0, 0, 0, 0], [0, 0, 1.0, 0]])
        diag_plant = discretize_zoh(StateSpaceModel(a, b, c, np.zeros((2, 2))), TS)
        ctrl = ControllerConfig.for_plant(diag_plant)
        spec = MultisineSpec.flat(512, rms=1.0, phase_seed=52, n_periods=2)
        frm = run_mimo_experiments(diag_plant, ctrl, spec, estimator="sa",
                                   start_at_steady_state=True)
        exc = np.array(spec.excited_bins)
        g_full = full_plant(frm).g[exc]
        g_eq = equivalent_plant(frm).g[exc]
        scale = np.max(np.abs(g_full[:, 0, 0]))
        assert np.max(np.abs(np.diagonal(g_full - g_eq, axis1=1, axis2=2))) < 1e-9 * scale

    def test_interaction_identity(self, plant_d, mimo_ctrl, mimo_frm):
        # gap between the two extractions equals the closed-form
        # interaction at every excited bin
        g_full = full_plant(mimo_frm)
        g_eq = equivalent_plant(mimo_frm)
        exc = np.array(MultisineSpec.flat(1000).excited_bins)
        freqs = g_full.bin_frequencies
        gap = g_full.g[exc, 0, 0] - g_eq.g[exc, 0, 0]
        expected = interaction_term(true_frf(plant_d, freqs).g,
                                    mimo_ctrl.frf(freqs), loop=0)[exc]
        assert np.max(np.abs(gap - expected)) < 1e-6 * np.max(np.abs(expected))

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(n_bins=st.integers(6, 60), seed=st.integers(0, 2**32 - 1))
    def test_siso_degeneracy_full_equals_equivalent(self, n_bins, seed):
        rng = np.random.default_rng(seed)

        def cplx(n):
            return (rng.standard_normal(n) + 1j * rng.standard_normal(n)).reshape(n, 1, 1)
        s = cplx(n_bins)
        # not finite, singular and below the floor, at random bins
        s[rng.choice(n_bins, 3, replace=False), 0, 0] = np.nan, 0.0, 1e-14
        freqs = np.arange(1.0, n_bins + 1.0)
        frm = FrmPair(FrfEstimate(cplx(n_bins), freqs,
                                  variance=rng.uniform(0, 1, (n_bins, 1, 1))),
                      FrfEstimate(s, freqs, variance=rng.uniform(0, 1, (n_bins, 1, 1))))
        full, equivalent = full_plant(frm), equivalent_plant(frm)
        assert np.array_equal(full.g, equivalent.g, equal_nan=True)
        assert np.array_equal(full.variance, equivalent.variance, equal_nan=True)
        assert full.defects == equivalent.defects
        assert {d.reason for d in full.defects} == {
            "sensitivity_not_finite", "sensitivity_ill_conditioned", "sensitivity_floored"}

    def test_variance_propagation_flagged(self, plant_d, mimo_ctrl):
        spec = MultisineSpec.flat(512, rms=1.0, phase_seed=53, n_periods=6)
        frm = run_mimo_experiments(plant_d, mimo_ctrl, spec, noise_std=0.01,
                                   noise_seeds=(61, 62), estimator="sa",
                                   n_periods_used=4)
        for extraction in (full_plant(frm), equivalent_plant(frm)):
            assert extraction.estimator_tag["variance_approximate"] is True
            assert extraction.variance is not None
            finite = np.isfinite(extraction.variance)
            assert np.all(extraction.variance[finite] >= 0.0)


class TestDatasetValidation:
    def test_mismatched_lengths_rejected(self):
        d = TimeSeries(np.zeros((1, 10)), TS)
        u = TimeSeries(np.zeros((1, 9)), TS)
        with pytest.raises(ValueError):
            ClosedLoopDataset(d, u, TimeSeries(np.zeros((1, 10)), TS))

    def test_tail_periods(self):
        d = TimeSeries(np.arange(12.0)[np.newaxis], TS)
        ds = ClosedLoopDataset(d, d, d)
        tail = ds.tail_periods(4, 2)
        assert np.array_equal(tail.d.data[0], np.arange(4.0, 12.0))
        with pytest.raises(ValueError):
            ds.tail_periods(4, 4)

    def test_frm_pair_requires_square_sensitivity(self):
        freqs = np.arange(1.0, 4.0)
        gs = FrfEstimate(np.zeros((3, 2, 1), dtype=complex), freqs)
        s = FrfEstimate(np.zeros((3, 2, 1), dtype=complex), freqs)
        with pytest.raises(ValueError):
            FrmPair(gs, s)


def full_plant_per_bin(frm: FrmPair):
    """``GS S^-1`` with one 1-norm condition number, inverse and floor test
    per bin; the floor is relative to the median 1-norm of the finite bins."""
    n_bins, n = frm.s.n_bins, frm.s.n_inputs
    g = np.full((n_bins, frm.gs.n_outputs, n), np.nan + 0j)
    variance = np.full(g.shape, np.nan)
    cond = np.full(n_bins, np.nan)
    defects = set()
    floor = S_FLOOR_REL * np.median([np.linalg.norm(s_k, 1) for s_k in frm.s.g
                                     if np.all(np.isfinite(s_k))])
    for k in range(n_bins):
        s_k = frm.s.g[k]
        if not np.all(np.isfinite(s_k)):
            defects.add((k, "sensitivity_not_finite"))
            continue
        cond[k] = np.linalg.cond(s_k, 1)
        if not np.isfinite(cond[k]) or cond[k] > PLANT_COND_LIMIT:
            defects.add((k, "sensitivity_ill_conditioned"))
            continue
        if np.linalg.norm(s_k, 1) <= floor:
            defects.add((k, "sensitivity_floored"))
            continue
        s_inv = np.linalg.inv(s_k)
        g[k] = frm.gs.g[k] @ s_inv
        w = np.abs(s_inv) ** 2
        variance[k] = frm.gs.variance[k] @ w + (np.abs(g[k]) ** 2) @ frm.s.variance[k] @ w
    return g, variance, cond, defects


class TestStackedEqualsPerBin:
    """The stacked plant extraction against the per-bin loop it replaced."""

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(n=st.integers(1, 3), n_y=st.integers(1, 3), n_bins=st.integers(4, 80),
           seed=st.integers(0, 2**32 - 1))
    def test_full_plant(self, n, n_y, n_bins, seed):
        rng = np.random.default_rng(seed)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        s = cplx(n_bins, n, n)
        s[0] = 0.0                    # exactly singular
        s[1, 0, 0] = np.nan           # not finite
        s[2] = 1e-9 * np.eye(n) + 1.0  # ill-conditioned (for n > 1)
        s[3] = 1e-14 * np.eye(n)      # below the floor
        freqs = np.arange(1.0, n_bins + 1.0)
        frm = FrmPair(FrfEstimate(cplx(n_bins, n_y, n), freqs,
                                  variance=rng.uniform(0, 1, (n_bins, n_y, n))),
                      FrfEstimate(s, freqs, variance=rng.uniform(0, 1, (n_bins, n, n))))
        est = full_plant(frm)
        g, variance, cond, defects = full_plant_per_bin(frm)
        assert {(d.bin_index, d.reason) for d in est.defects} == defects
        for got, want in ((est.g, g), (est.variance, variance), (est.condition, cond)):
            assert np.array_equal(np.isnan(got), np.isnan(want))
            finite = np.isfinite(want)
            scale = np.max(np.abs(want[finite]), initial=0.0)
            assert np.max(np.abs(got[finite] - want[finite]), initial=0.0) <= 1e-12 * scale
