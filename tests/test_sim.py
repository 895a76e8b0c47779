import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.signal
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from frfkit.estimators import FrfEstimate
from frfkit.signals import MultisineSpec, TimeSeries, dft, generate_multisine
from frfkit.sim import (
    LIFT,
    PRODUCT_MACS,
    ControllerConfig,
    IllPosedLoopError,
    StateSpaceModel,
    UnstableLoopError,
    _expm,
    _tf2ss,
    benchmark_plant,
    closed_loop_steady_state,
    closed_loop_system,
    discretize_zoh,
    lsim,
    periodic_steady_state,
    read_statespace_json,
    simulate_closed_loop,
    transient_spectrum,
    true_frf,
    write_statespace_json,
)

TS = 1e-3


@pytest.fixture(scope="module")
def plant():
    return benchmark_plant()


@pytest.fixture(scope="module")
def plant_d(plant):
    return discretize_zoh(plant, TS)


@pytest.fixture(scope="module")
def controller(plant_d):
    return ControllerConfig.for_plant(plant_d)


def two_channel(mono: TimeSeries, n_channels=2, at=0) -> TimeSeries:
    data = np.zeros((n_channels, mono.n_samples))
    data[at] = mono.data[0]
    return TimeSeries(data, mono.ts)


class TestBenchmarkPlant:
    def test_stated_matrix_entries(self, plant):
        assert plant.a[1, 0] == -173.0
        assert plant.a[1, 2] == 166.0
        assert plant.a[3, 1] == 1.33
        assert plant.b[1, 0] == 53.0
        assert np.array_equal(plant.c, [[1, 0, 0, 0], [0, 0, 1, 0]])
        assert np.all(plant.d == 0.0)

    def test_stable(self, plant):
        assert plant.is_stable()
        assert np.all(plant.eigenvalues().real < 0)

    def test_dc_gain_finite_and_symmetric(self, plant):
        g0 = true_frf(plant, np.array([0.0])).g[0]
        assert np.all(np.isfinite(g0))
        # swapping input and output channels leaves the model unchanged
        assert g0[0, 1] == pytest.approx(g0[1, 0], rel=1e-12)
        assert g0[0, 0] == pytest.approx(g0[1, 1], rel=1e-12)

    def test_antisymmetric_mode_resonance(self, plant):
        # the complex eigenvalue pair sets the oscillatory mode; the
        # difference channel G11 - G12 peaks at its resonant frequency
        eig = plant.eigenvalues()
        pair = eig[np.abs(eig.imag) > 1.0][0]
        wn = abs(pair)
        zeta = -pair.real / wn
        expected_peak = wn * math.sqrt(1 - 2 * zeta**2)
        freqs = np.linspace(5.0, 30.0, 2000)
        g = true_frf(plant, freqs).g
        anti = np.abs(g[:, 0, 0] - g[:, 0, 1])
        peak = freqs[np.argmax(anti)]
        assert peak == pytest.approx(expected_peak, abs=0.1)
        assert abs(pair) ** 2 == pytest.approx(173 + 166, rel=1e-9)


class TestDiscretizeZoh:
    def test_zero_a_reduces_to_euler(self):
        m = StateSpaceModel(np.zeros((2, 2)), [[1.0], [2.0]], np.eye(2), np.zeros((2, 1)))
        md = discretize_zoh(m, 0.25)
        assert np.allclose(md.a, np.eye(2))
        assert np.allclose(md.b, 0.25 * m.b)

    def test_scalar_closed_form(self):
        m = StateSpaceModel([[-1.0]], [[1.0]], [[1.0]], [[0.0]])
        md = discretize_zoh(m, 0.1)
        assert md.a[0, 0] == pytest.approx(math.exp(-0.1), rel=1e-14)
        assert md.b[0, 0] == pytest.approx(1 - math.exp(-0.1), rel=1e-14)

    def test_benchmark_stability_preserved(self, plant_d):
        assert plant_d.ts == TS
        assert np.all(np.abs(plant_d.eigenvalues()) < 1)

    def test_matches_scipy_cont2discrete(self, plant):
        md = discretize_zoh(plant, TS)
        ad, bd, cd, dd, _ = scipy.signal.cont2discrete(
            (plant.a, plant.b, plant.c, plant.d), TS, method="zoh")
        assert np.allclose(md.a, ad, atol=1e-14)
        assert np.allclose(md.b, bd, atol=1e-14)

    def test_rejects_discrete_input(self, plant_d):
        with pytest.raises(ValueError):
            discretize_zoh(plant_d, TS)


class TestLsim:
    def test_zero_everything(self, plant_d):
        u = TimeSeries(np.zeros((2, 100)), TS)
        rec = lsim(plant_d, u)
        assert np.all(rec.y.data == 0.0)
        assert np.all(rec.xN == 0.0)

    def test_impulse_response_unrolled(self, plant_d):
        n = 20
        u = TimeSeries(np.vstack([np.eye(1, n, 0), np.zeros((1, n))]), TS)
        rec = lsim(plant_d, u)
        a, b, c = plant_d.a, plant_d.b, plant_d.c
        for k in range(1, n):
            expected = c @ np.linalg.matrix_power(a, k - 1) @ b[:, 0]
            assert np.allclose(rec.y.data[:, k], expected, atol=1e-14)
        assert np.allclose(rec.y.data[:, 0], 0.0)

    def test_period_energy_decays_toward_steady_state(self, plant_d):
        spec = MultisineSpec.flat(500, rms=1.0, phase_seed=8, n_periods=8)
        u = two_channel(generate_multisine(spec, TS))
        rec = lsim(plant_d, u)
        y = rec.y.data[0]
        diffs = [np.sum((y[(p + 1) * 500:(p + 2) * 500] - y[p * 500:(p + 1) * 500]) ** 2)
                 for p in range(7)]
        # the first difference still mixes fast modes; after that the
        # slowest mode dominates and the decay is monotone
        assert all(d2 < d1 for d1, d2 in zip(diffs[1:], diffs[2:]))
        assert diffs[-1] < 1e-2 * diffs[0]

    def test_dimension_mismatch(self, plant_d):
        with pytest.raises(ValueError):
            lsim(plant_d, TimeSeries(np.zeros((1, 10)), TS))
        with pytest.raises(ValueError):
            lsim(plant_d, TimeSeries(np.zeros((2, 10)), TS), x0=np.zeros(3))

    def test_records_boundary_states(self, plant_d):
        rng = np.random.default_rng(0)
        u = TimeSeries(rng.standard_normal((2, 50)), TS)
        x0 = rng.standard_normal(4)
        rec = lsim(plant_d, u, x0=x0)
        assert np.array_equal(rec.x0, x0)
        # one extra step from the second-to-last state reproduces xN
        manual = x0.copy()
        for i in range(50):
            manual = plant_d.a @ manual + plant_d.b @ u.data[:, i]
        assert np.allclose(rec.xN, manual, atol=0.0)

    def test_integrator_over_long_record(self):
        m = StateSpaceModel([[1.0]], [[1.0]], [[1.0]], [[0.0]], ts=TS)
        u = np.random.default_rng(4).standard_normal((1, 20_000))
        rec = lsim(m, TimeSeries(u, TS))
        running_sum = np.cumsum(u[0])  # the recursion x(n+1) = x(n) + u(n)
        assert_close_rel(rec.y.data[0], np.concatenate([[0.0], running_sum[:-1]]))
        assert_close_rel(rec.xN, running_sum[-1:])


class TestClosedLoop:
    def test_quiescent_loop(self, plant_d, controller):
        d = TimeSeries(np.zeros((2, 200)), TS)
        rec = simulate_closed_loop(plant_d, controller, d)
        assert np.all(rec.u.data == 0.0)
        assert np.all(rec.y.data == 0.0)

    def test_zero_controller_recovers_open_loop(self, plant_d):
        ctrl0 = ControllerConfig(((0.0,), (0.0,)), ((1.0,), (1.0,)), TS)
        spec = MultisineSpec.flat(400, rms=1.0, phase_seed=2)
        d = two_channel(generate_multisine(spec, TS))
        rec = simulate_closed_loop(plant_d, ctrl0, d)
        assert np.array_equal(rec.u.data, d.data)

    def test_cross_coupling_excites_second_output(self, plant_d, controller):
        spec = MultisineSpec.flat(1000, rms=1.0, phase_seed=3, n_periods=2)
        d = two_channel(generate_multisine(spec, TS), at=0)
        rec = simulate_closed_loop(plant_d, controller, d)
        assert np.sum(rec.y.data[1] ** 2) > 1e-6 * np.sum(rec.y.data[0] ** 2) > 0

    def test_loop_algebra_exact_per_sample(self, plant_d, controller):
        spec = MultisineSpec.flat(500, rms=1.0, phase_seed=4, n_periods=2)
        d = two_channel(generate_multisine(spec, TS))
        rec = simulate_closed_loop(plant_d, controller, d, noise_std=1e-3,
                                   noise_seed=11)
        # recorded y already contains the noise; u = d - K(y)
        k_of_y = controller.filter(rec.y.data)
        assert np.array_equal(rec.u.data, rec.d.data - k_of_y)

    def test_controller_filter_matches_scipy_lfilter(self, controller):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 300))
        mine = controller.filter(x)
        for i in range(2):
            ref = scipy.signal.lfilter(controller.numerators[i],
                                       controller.denominators[i], x[i])
            assert np.allclose(mine[i], ref, atol=1e-12)

    def test_noise_determinism(self, plant_d, controller):
        d = TimeSeries(np.zeros((2, 100)), TS)
        a = simulate_closed_loop(plant_d, controller, d, noise_std=0.5, noise_seed=7)
        b = simulate_closed_loop(plant_d, controller, d, noise_std=0.5, noise_seed=7)
        assert np.array_equal(a.v.data, b.v.data)
        assert np.array_equal(a.u.data, b.u.data)

    def test_noise_requires_seed(self, plant_d, controller):
        d = TimeSeries(np.zeros((2, 10)), TS)
        with pytest.raises(ValueError):
            simulate_closed_loop(plant_d, controller, d, noise_std=0.1)

    def test_unstable_loop_rejected(self, plant_d):
        bad = ControllerConfig.lead(2, TS, gain=1e5)
        d = TimeSeries(np.zeros((2, 10)), TS)
        with pytest.raises(UnstableLoopError):
            simulate_closed_loop(plant_d, bad, d)

    def test_combined_system_matches_simulation(self, plant_d, controller):
        spec = MultisineSpec.flat(500, rms=1.0, phase_seed=6)
        d = two_channel(generate_multisine(spec, TS))
        rec = simulate_closed_loop(plant_d, controller, d)
        sys = closed_loop_system(plant_d, controller)
        stacked = TimeSeries(np.vstack([d.data, np.zeros((2, d.n_samples))]), TS)
        rec2 = lsim(sys, stacked)
        assert np.allclose(rec2.y.data[:2], rec.u.data, atol=1e-12)
        assert np.allclose(rec2.y.data[2:], rec.y.data, atol=1e-12)

    @pytest.fixture(scope="class")
    def feedthrough_loop(self, plant_d):
        dp = 0.01 * np.array([[1.0, 0.3], [0.2, 1.0]])
        plant = StateSpaceModel(plant_d.a, plant_d.b, plant_d.c, dp, ts=TS)
        return plant, ControllerConfig.for_plant(plant, gain=20.0)

    def test_feedthrough_loop_algebra_exact(self, feedthrough_loop):
        plant, ctrl = feedthrough_loop
        spec = MultisineSpec.flat(500, rms=1.0, phase_seed=15, n_periods=2)
        d = two_channel(generate_multisine(spec, TS))
        rec = simulate_closed_loop(plant, ctrl, d)
        assert np.array_equal(rec.u.data, d.data - ctrl.filter(rec.y.data))
        stacked = TimeSeries(np.vstack([d.data, np.zeros((2, d.n_samples))]), TS)
        ref = lsim(closed_loop_system(plant, ctrl), stacked)
        assert np.allclose(ref.y.data[:2], rec.u.data, rtol=0, atol=1e-12)
        assert np.allclose(ref.y.data[2:], rec.y.data, rtol=0, atol=1e-12)
        assert np.allclose(ref.xN, rec.xN, rtol=0, atol=1e-12)

    def test_feedthrough_loop_nonzero_start(self, feedthrough_loop):
        plant, ctrl = feedthrough_loop
        rng = np.random.default_rng(16)
        d = TimeSeries(rng.standard_normal((2, 300)), TS)
        xp0, xc0 = rng.standard_normal(4), rng.standard_normal(2)
        rec = simulate_closed_loop(plant, ctrl, d, x_plant0=xp0, x_ctrl0=xc0)
        stacked = TimeSeries(np.vstack([d.data, np.zeros((2, d.n_samples))]), TS)
        ref = lsim(closed_loop_system(plant, ctrl), stacked,
                   x0=np.concatenate([xp0, xc0]))
        assert np.array_equal(rec.x0, ref.x0)
        assert np.allclose(ref.y.data[:2], rec.u.data, rtol=0, atol=1e-12)
        assert np.allclose(ref.y.data[2:], rec.y.data, rtol=0, atol=1e-12)

    def test_singular_algebraic_loop_rejected(self, plant_d):
        ctrl = ControllerConfig.lead(2, TS, gain=20.0)
        # D_c = 20 I, so I + D_c D_p vanishes for D_p = -I/20
        plant = StateSpaceModel(plant_d.a, plant_d.b, plant_d.c,
                                -np.eye(2) / 20.0, ts=TS)
        d = TimeSeries(np.zeros((2, 10)), TS)
        with pytest.raises(IllPosedLoopError):
            simulate_closed_loop(plant, ctrl, d)


def reference_recursion(m: StateSpaceModel, u: np.ndarray, x0: np.ndarray):
    """Textbook per-sample state recursion; returns outputs and final state."""
    x = x0.copy()
    y = np.empty((m.n_outputs, u.shape[1]))
    for i in range(u.shape[1]):
        y[:, i] = m.c @ x + m.d @ u[:, i]
        x = m.a @ x + m.b @ u[:, i]
    return y, x


def assert_close_rel(actual, expected, rtol=1e-12):
    scale = max(1.0, float(np.max(np.abs(expected), initial=0.0)))
    assert np.allclose(actual, expected, rtol=0, atol=rtol * scale)


@st.composite
def stable_models(draw, square=False):
    """Small random discrete-time models with spectral radius <= 0.9."""
    n = draw(st.integers(1, 4))
    n_u = draw(st.integers(1, 2))
    n_y = n_u if square else draw(st.integers(1, 2))
    entries = st.floats(-1.0, 1.0, allow_nan=False, allow_subnormal=False)
    a = draw(hnp.arrays(float, (n, n), elements=entries))
    radius = float(np.max(np.abs(np.linalg.eigvals(a))))
    a = a * (0.9 / max(radius, 0.9))
    b = draw(hnp.arrays(float, (n, n_u), elements=entries))
    c = draw(hnp.arrays(float, (n_y, n), elements=entries))
    d = draw(hnp.arrays(float, (n_y, n_u), elements=entries))
    return StateSpaceModel(a, b, c, d, ts=TS)


def inputs_for(m: StateSpaceModel):
    return hnp.arrays(float, (m.n_inputs, 40),
                      elements=st.floats(-10.0, 10.0, allow_nan=False,
                                         allow_subnormal=False))


# shorter than a block, whole blocks, blocks plus a tail, and one full and
# more than one chunk of a 1x1 model, whose chunks are the longest; the
# order makes the derandomized draws reach each of these cases
CHUNK_1X1 = PRODUCT_MACS // LIFT**2 * LIFT
LSIM_LENGTHS = (LIFT, 1, CHUNK_1X1 + LIFT + 43, LIFT - 1, CHUNK_1X1, 7, LIFT + 1)


class TestSimulationProperties:
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(data=st.data(), n_samples=st.sampled_from(LSIM_LENGTHS),
           seed=st.integers(0, 2**32 - 1))
    def test_lsim_matches_reference_recursion(self, data, n_samples, seed):
        m = data.draw(stable_models())
        u = np.random.default_rng(seed).uniform(-10.0, 10.0, (m.n_inputs, n_samples))
        x0 = data.draw(hnp.arrays(float, (m.n_states,),
                                  elements=st.floats(-1.0, 1.0, allow_nan=False)))
        rec = lsim(m, TimeSeries(u, TS), x0=x0)
        y_ref, x_ref = reference_recursion(m, u, x0)
        assert_close_rel(rec.y.data, y_ref)
        assert_close_rel(rec.xN, x_ref)

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(data=st.data(), noise_std=st.floats(0.0, 1.0), noise_seed=st.integers(0, 2**31))
    def test_zero_controller_is_open_loop(self, data, noise_std, noise_seed):
        m = data.draw(stable_models(square=True))
        d = TimeSeries(data.draw(inputs_for(m)), TS)
        n = m.n_inputs
        ctrl0 = ControllerConfig(((0.0,),) * n, ((1.0,),) * n, TS)
        rec = simulate_closed_loop(m, ctrl0, d, noise_std=noise_std,
                                   noise_seed=noise_seed)
        assert np.array_equal(rec.u.data, d.data)
        assert_close_rel(rec.y.data, lsim(m, d).y.data + rec.v.data)


# coefficients in [-1e3, 1e3], with exact zeros and values inside and just
# outside the 1e-14 numerator trimming threshold
coefficients = st.one_of(
    st.sampled_from((0.0, -0.0, 1e-15, -1e-15, 1e-14, 2e-14)),
    st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False))


class TestControllerRealization:
    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(data=st.data())
    def test_tf2ss_equals_scipy(self, data):
        den = data.draw(st.lists(coefficients, min_size=1, max_size=5)
                        .filter(lambda c: abs(c[0]) > 1e-3))
        num = data.draw(st.lists(coefficients, min_size=1, max_size=len(den)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.signal.BadCoefficients)
            expected = scipy.signal.tf2ss(num, den)
        for got, want in zip(_tf2ss(num, den), expected):
            assert got.shape == want.shape
            assert np.array_equal(got, want)


class TestTrueFrf:
    def test_discrete_dc_gain(self, plant_d):
        g0 = true_frf(plant_d, np.array([0.0])).g[0]
        expected = plant_d.c @ np.linalg.solve(np.eye(4) - plant_d.a, plant_d.b) + plant_d.d
        assert np.allclose(g0, expected, rtol=1e-12)

    def test_oracle_tag_and_zero_variance(self, plant_d):
        est = true_frf(plant_d, np.array([1.0, 2.0]))
        assert isinstance(est, FrfEstimate)
        assert est.estimator_tag["estimator"] == "state_space_oracle"
        assert np.all(est.variance == 0.0)

    def test_continuous_matches_discrete_at_low_frequency(self, plant, plant_d):
        freqs = 2 * math.pi * np.linspace(0.5, 5.0, 7)
        gc = true_frf(plant, freqs).g
        gd = true_frf(plant_d, freqs).g
        # ZOH phase lag bounds the discrepancy by roughly w*ts/2
        rel = np.max(np.abs(gd - gc) / np.abs(gc), axis=(1, 2))
        assert np.all(rel < freqs * TS)

    def test_rejects_beyond_nyquist(self, plant_d):
        with pytest.raises(ValueError):
            true_frf(plant_d, np.array([1.1 * math.pi / TS]))

    def test_zoh_steady_state_sinusoid(self, plant_d):
        # discrete frequency response predicts the steady response to a
        # sampled sinusoid once the transient has decayed
        n_per = 500
        k_bin = 7
        omega = 2 * math.pi * k_bin / (n_per * TS)
        n_total = 30 * n_per
        t = np.arange(n_total) * TS
        u = two_channel(TimeSeries(np.sin(omega * t), TS))
        rec = lsim(plant_d, u)
        g = true_frf(plant_d, np.array([omega])).g[0]
        expected = np.abs(g[0, 0]) * np.sin(omega * t + np.angle(g[0, 0]))
        tail = slice(-2 * n_per, None)
        err = np.max(np.abs(rec.y.data[0][tail] - expected[tail]))
        assert err < 1e-6 * np.max(np.abs(expected))


class TestTransientSpectrum:
    def test_matched_states_give_zero(self, plant_d):
        x = np.array([0.1, -0.2, 0.3, 0.4])
        t = transient_spectrum(plant_d, x, x, 256)
        assert np.all(t == 0.0)

    def test_matches_brute_force_difference(self, plant_d):
        spec = MultisineSpec.flat(1000, rms=1.0, phase_seed=5)
        u = two_channel(generate_multisine(spec, TS))
        rec0 = lsim(plant_d, u)  # zero initial state, one period
        x_ss = periodic_steady_state(plant_d, u)
        rec_ss = lsim(plant_d, u, x0=x_ss)
        t_brute = np.stack(
            [dft(rec0.y.data[i] - rec_ss.y.data[i])[:501] for i in range(2)], axis=1)
        t_formula = transient_spectrum(plant_d, rec0.x0, rec0.xN, 1000)
        energy = np.sum(np.abs(t_brute) ** 2)
        assert np.sum(np.abs(t_formula - t_brute) ** 2) <= 1e-8 * energy

    def test_finite_and_smooth(self, plant_d):
        rng = np.random.default_rng(9)
        t = transient_spectrum(plant_d, rng.standard_normal(4), rng.standard_normal(4), 2048)
        assert np.all(np.isfinite(t))
        second_diff = np.abs(np.diff(t, n=2, axis=0))
        assert np.max(second_diff) < np.max(np.abs(t))

    def test_output_dft_is_g_u_plus_t(self, plant_d):
        # additivity: first-window output spectrum = G*U + T exactly
        spec = MultisineSpec.flat(800, rms=1.0, phase_seed=12)
        u = two_channel(generate_multisine(spec, TS))
        rec = lsim(plant_d, u)
        y_dft = np.stack([dft(rec.y.data[i])[:401] for i in range(2)], axis=1)
        u_dft = dft(u.data[0])[:401]
        freqs = 2 * math.pi * np.arange(401) / (800 * TS)
        g = true_frf(plant_d, freqs).g
        t = transient_spectrum(plant_d, rec.x0, rec.xN, 800)
        model = g[:, :, 0] * u_dft[:, np.newaxis] + t
        energy = np.sum(np.abs(y_dft) ** 2)
        assert np.sum(np.abs(y_dft - model) ** 2) <= 1e-8 * energy


class TestSteadyStateHelpers:
    def test_open_loop_periodic_start(self, plant_d):
        spec = MultisineSpec.flat(600, rms=1.0, phase_seed=13)
        u1 = two_channel(generate_multisine(spec, TS))
        x_ss = periodic_steady_state(plant_d, u1)
        spec2 = MultisineSpec.flat(600, rms=1.0, phase_seed=13, n_periods=2)
        u2 = two_channel(generate_multisine(spec2, TS))
        rec = lsim(plant_d, u2, x0=x_ss)
        y = rec.y.data
        assert np.allclose(y[:, :600], y[:, 600:], atol=1e-10 * np.max(np.abs(y)))

    def test_closed_loop_periodic_start(self, plant_d, controller):
        spec = MultisineSpec.flat(600, rms=1.0, phase_seed=14)
        d1 = two_channel(generate_multisine(spec, TS))
        xp0, xc0 = closed_loop_steady_state(plant_d, controller, d1)
        spec2 = MultisineSpec.flat(600, rms=1.0, phase_seed=14, n_periods=2)
        d2 = two_channel(generate_multisine(spec2, TS))
        rec = simulate_closed_loop(plant_d, controller, d2, x_plant0=xp0, x_ctrl0=xc0)
        u = rec.u.data
        assert np.allclose(u[:, :600], u[:, 600:], atol=1e-10 * np.max(np.abs(u)))


class TestJsonRoundTrip:
    def test_round_trip_continuous(self, plant, tmp_path):
        path = tmp_path / "model.json"
        write_statespace_json(plant, path)
        back = read_statespace_json(path)
        assert back.ts is None
        assert np.array_equal(back.a, plant.a)
        assert np.array_equal(back.b, plant.b)

    def test_round_trip_discrete(self, plant_d, tmp_path):
        path = tmp_path / "model.json"
        write_statespace_json(plant_d, path)
        back = read_statespace_json(path)
        assert back.ts == TS
        assert np.array_equal(back.a, plant_d.a)

    def test_missing_field_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"A": [[0]], "B": [[1]], "C": [[1]]}')
        with pytest.raises(ValueError):
            read_statespace_json(path)


def true_frf_per_bin(m: StateSpaceModel, bin_freqs):
    """``C (Omega I - A)^-1 B + D`` with one ``solve`` per bin, and the bins
    where that solve fails."""
    omegas = 1j * bin_freqs if m.is_continuous else np.exp(1j * bin_freqs * m.ts)
    g = np.full((bin_freqs.size, m.n_outputs, m.n_inputs), np.nan + 0j)
    singular = set()
    for k, omega in enumerate(omegas):
        try:
            g[k] = m.c @ np.linalg.solve(omega * np.eye(m.n_states) - m.a, m.b) + m.d
        except np.linalg.LinAlgError:
            singular.add(k)
    return g, singular


def transient_spectrum_per_bin(m: StateSpaceModel, x0, xN, window_length: int):
    z = np.exp(1j * np.arange(window_length // 2 + 1) * 2 * math.pi / window_length)
    return np.array([m.c @ np.linalg.solve(np.eye(m.n_states) - m.a / zk, x0 - xN)
                     for zk in z]) / math.sqrt(window_length)


def assert_close_to_scale(actual, expected, rtol=1e-12):
    """Values within ``rtol`` of the largest reference magnitude."""
    scale = float(np.max(np.abs(expected), initial=0.0))
    assert np.max(np.abs(actual - expected), initial=0.0) <= rtol * scale


class TestStackedEqualsPerBin:
    """The stacked oracles against the per-bin loops they replaced."""

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(data=st.data(), n_bins=st.integers(1, 300), continuous=st.booleans())
    def test_true_frf(self, data, n_bins, continuous):
        m = data.draw(stable_models())
        if continuous:
            m = StateSpaceModel(m.a - np.eye(m.n_states), m.b, m.c, m.d)
        freqs = np.linspace(0.0, math.pi / TS, n_bins)
        est = true_frf(m, freqs)
        g, singular = true_frf_per_bin(m, freqs)
        assert est.defect_bins() == singular == set()
        assert_close_to_scale(est.g, g)

    def test_true_frf_singular_resolvent(self):
        # an integrator's resolvent is singular at DC, and only there
        m = StateSpaceModel([[0.0, 1.0], [0.0, -2.0]], [[0.0], [1.0]], [[1.0, 0.0]], [[0.0]])
        freqs = np.linspace(0.0, 10.0, 6)
        est = true_frf(m, freqs)
        g, singular = true_frf_per_bin(m, freqs)
        assert singular == {0}
        assert [(d.bin_index, d.reason) for d in est.defects] == [(0, "resolvent_singular")]
        assert np.isnan(est.g[0]).all()
        assert_close_to_scale(est.g[1:], g[1:])

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(data=st.data(), window_length=st.integers(2, 300))
    def test_transient_spectrum(self, data, window_length):
        m = data.draw(stable_models())
        states = hnp.arrays(float, (m.n_states,), elements=st.floats(-1.0, 1.0))
        x0, xn = data.draw(states), data.draw(states)
        assert_close_to_scale(transient_spectrum(m, x0, xn, window_length),
                              transient_spectrum_per_bin(m, x0, xn, window_length))

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(n=st.integers(1, 6), norm=st.floats(0.0, 10.0), seed=st.integers(0, 2**32 - 1))
    def test_expm_matches_scipy(self, n, norm, seed):
        a = np.random.default_rng(seed).standard_normal((n, n))
        a *= norm / max(np.linalg.norm(a, 1), 1e-300)
        want = scipy.linalg.expm(a)
        assert np.max(np.abs(_expm(a) - want)) <= 1e-11 * np.max(np.abs(want))

