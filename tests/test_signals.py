import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frfkit.signals import (
    MultisineSpec,
    TimeSeries,
    WindowFunction,
    _csv_fields,
    bin_frequencies,
    dft,
    generate_multisine,
    spectrum_set,
)


def naive_dft(x):
    # Independent O(N^2) oracle for the scaled DFT.
    x = np.asarray(x, dtype=float)
    n = x.size
    k = np.arange(n)
    kernel = np.exp(-2j * np.pi * np.outer(k, k) / n)
    return kernel @ x / math.sqrt(n)


class TestDft:
    def test_zero_input(self):
        assert np.all(dft(np.zeros(8)) == 0)

    def test_constant_input_concentrates_at_dc(self):
        X = dft(np.ones(4))
        assert X[0] == pytest.approx(2.0)
        assert np.allclose(X[1:], 0.0, atol=1e-15)

    def test_matches_naive_sum(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(33)
        assert np.allclose(dft(x), naive_dft(x), atol=1e-12)

    def test_parseval(self):
        rng = np.random.default_rng(42)
        x = rng.standard_normal(1024)
        energy_time = np.sum(x**2)
        energy_freq = np.sum(np.abs(dft(x)) ** 2)
        assert abs(energy_time - energy_freq) <= 1e-12 * energy_time

    @pytest.mark.parametrize("n", [1, 2, 3, 16, 255])
    def test_parseval_across_lengths(self, n):
        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        assert np.sum(np.abs(dft(x)) ** 2) == pytest.approx(np.sum(x**2), rel=1e-12)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(half=st.integers(0, 2048), odd=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_parseval_random_odd_and_even_lengths(self, half, odd, seed):
        n = max(2 * half + odd, 1)
        x = np.random.default_rng(seed).standard_normal(n)
        assert np.sum(np.abs(dft(x)) ** 2) == pytest.approx(np.sum(x**2), rel=1e-12)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            dft([1.0, np.nan, 0.0])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            dft([])


class TestTimeSeries:
    def test_promotes_1d(self):
        x = TimeSeries(np.arange(4.0), 0.5)
        assert x.n_channels == 1
        assert x.n_samples == 4
        assert x.channel_names == ("ch1",)

    def test_channel_lookup_by_name(self):
        x = TimeSeries(np.zeros((2, 3)), 1.0, ("u", "y"))
        assert x.channel_index("y") == 1
        with pytest.raises(KeyError):
            x.channel_index("nope")

    def test_rejects_bad_ts(self):
        with pytest.raises(ValueError):
            TimeSeries(np.zeros(3), 0.0)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            TimeSeries(np.array([1.0, np.inf]), 1.0)


class TestMultisine:
    def test_total_sample_count(self):
        spec = MultisineSpec.flat(5000, n_periods=2)
        x = generate_multisine(spec, 1e-3)
        assert x.n_samples == 10000

    def test_single_bin_zero_phase_is_cosine(self):
        spec = MultisineSpec(64, (5,), (1.0,), phases=(0.0,))
        x = generate_multisine(spec, 0.01)
        expected = np.cos(2 * np.pi * 5 * np.arange(64) / 64)
        assert np.allclose(x.data[0], expected, atol=1e-12)

    def test_exact_periodicity(self):
        spec = MultisineSpec.flat(128, rms=2.0, phase_seed=9, n_periods=3)
        x = generate_multisine(spec, 1e-3).data[0]
        assert np.array_equal(x[:128], x[128:256])
        assert np.array_equal(x[:128], x[256:])

    def test_spectrum_support(self):
        spec = MultisineSpec.flat(5000, phase_seed=1)
        x = generate_multisine(spec, 1e-3).data[0]
        X = dft(x)
        excited = np.array(spec.excited_bins)
        mask = np.zeros(5000, dtype=bool)
        mask[excited] = True
        mask[5000 - excited] = True
        peak = np.max(np.abs(X))
        assert np.max(np.abs(X[~mask])) < 1e-12 * peak
        assert np.all(np.abs(X[excited]) > 0)

    def test_rms_scaling(self):
        spec = MultisineSpec.flat(4096, rms=1.7, phase_seed=5)
        x = generate_multisine(spec, 1e-3).data[0]
        assert np.sqrt(np.mean(x**2)) == pytest.approx(1.7, rel=1e-12)

    def test_seed_determinism(self):
        spec = MultisineSpec.flat(256, phase_seed=11)
        a = generate_multisine(spec, 1e-3).data[0]
        b = generate_multisine(spec, 1e-3).data[0]
        assert np.array_equal(a, b)

    def test_different_seed_changes_signal(self):
        a = generate_multisine(MultisineSpec.flat(256, phase_seed=1), 1e-3).data[0]
        b = generate_multisine(MultisineSpec.flat(256, phase_seed=2), 1e-3).data[0]
        assert not np.array_equal(a, b)

    def test_rejects_out_of_range_bin(self):
        with pytest.raises(ValueError):
            MultisineSpec(64, (32,), (1.0,))  # Nyquist bin not allowed
        with pytest.raises(ValueError):
            MultisineSpec(64, (0,), (1.0,))


class TestWindows:
    def test_hann_closed_form_n4(self):
        w = WindowFunction.hann(4).values()
        assert np.allclose(w, [0.0, 0.5, 1.0, 0.5], atol=1e-15)

    def test_hann_on_constant_spreads_three_bins(self):
        n = 64
        windowed = np.ones(n) * WindowFunction.hann(n).values()
        X = dft(windowed)
        mask = np.ones(n, dtype=bool)
        mask[[0, 1, n - 1]] = False
        assert np.max(np.abs(X[mask])) < 1e-12 * np.max(np.abs(X))

    def test_hann_power(self):
        assert WindowFunction.hann(1024).power() == pytest.approx(0.375, rel=1e-12)

    def test_values_in_unit_interval(self):
        w = WindowFunction.hann(33).values()
        assert np.all(w >= 0.0) and np.all(w <= 1.0)


class TestSpectrumSet:
    def test_shapes_and_bins(self):
        x = TimeSeries(np.random.default_rng(1).standard_normal((2, 1000)), 1e-3)
        spectra = spectrum_set(x, 250)
        assert spectra.data.shape == (4, 2, 126)
        assert spectra.n_bins == 126
        assert spectra.bin_frequencies[0] == 0.0
        assert np.all(np.diff(spectra.bin_frequencies) > 0)

    def test_matches_dft_one_sided(self):
        rng = np.random.default_rng(2)
        x = TimeSeries(rng.standard_normal(64), 0.5)
        spectra = spectrum_set(x)
        full = dft(x.data[0])
        assert np.allclose(spectra.data[0, 0], full[:33], atol=1e-13)

    def test_window_applied_before_dft(self):
        rng = np.random.default_rng(3)
        x = TimeSeries(rng.standard_normal(64), 1.0)
        w = WindowFunction.hann(64)
        spectra = spectrum_set(x, window=w)
        manual = dft(x.data[0] * w.values())
        assert np.allclose(spectra.data[0, 0], manual[:33], atol=1e-13)

    def test_trailing_partial_window_dropped(self):
        x = TimeSeries(np.arange(9999.0), 1e-3)
        spectra = spectrum_set(x, 5000)
        assert spectra.n_windows == 1
        assert np.array_equal(spectra.data[0, 0], spectrum_set(
            TimeSeries(np.arange(5000.0), 1e-3)).data[0, 0])

    def test_window_longer_than_record(self):
        x = TimeSeries(np.zeros(10), 1.0)
        with pytest.raises(ValueError):
            spectrum_set(x, 11)

    def test_bin_frequencies_helper(self):
        freqs = bin_frequencies(1000, 1e-3)
        assert freqs.shape == (501,)
        assert freqs[1] == pytest.approx(2 * np.pi)  # 1 Hz spacing
        assert freqs[-1] == pytest.approx(2 * np.pi * 500)


class TestCsvFields:
    def test_header_quoted_as_csv_writer_quotes_it(self):
        names = ["time_s", "u1", 'y1, "filtered"']
        line = _csv_fields(names)
        assert line == 'time_s,u1,"y1, ""filtered"""'
        assert next(csv.reader([line])) == names
