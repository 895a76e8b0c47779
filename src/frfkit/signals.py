"""Sampled-signal containers, DFT helpers, multisine excitation and windows.

All spectra in this package use the energy-preserving DFT scaling
``X(k) = N**-0.5 * sum_n x(n) exp(-2j*pi*n*k/N)`` so that Parseval's
identity holds without extra factors. Real signals are stored one-sided
(bins ``0..N//2``); the negative-frequency half is implied by conjugate
symmetry.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TWO_PI = 2.0 * math.pi

# rows per write of the CSV writers: the strings of one chunk are all that
# is held at once, so memory stays flat whatever the number of rows
CSV_CHUNK = 1024

_WINDOW_KINDS = ("rectangular", "hann")


@dataclass
class TimeSeries:
    """Multichannel real-valued signal sampled at a fixed period.

    Parameters
    ----------
    data : ndarray, shape (n_channels, n_samples)
        Sample matrix; a 1-D array is promoted to a single channel.
    ts : float
        Sampling period in seconds (> 0).
    channel_names : tuple of str, optional
        One label per channel; defaults to ``ch1, ch2, ...``.
    """

    data: np.ndarray
    ts: float
    channel_names: tuple = ()

    def __post_init__(self):
        data = np.atleast_2d(np.asarray(self.data, dtype=float))
        if data.ndim != 2:
            raise ValueError("data must be a 1-D or 2-D array")
        if data.shape[1] < 1:
            raise ValueError("need at least one sample")
        if not np.all(np.isfinite(data)):
            raise ValueError("samples must be finite")
        if not float(self.ts) > 0.0:
            raise ValueError(f"sampling period must be positive, got {self.ts}")
        self.data = data
        self.ts = float(self.ts)
        if not self.channel_names:
            self.channel_names = tuple(f"ch{i + 1}" for i in range(data.shape[0]))
        else:
            self.channel_names = tuple(str(n) for n in self.channel_names)
            if len(self.channel_names) != data.shape[0]:
                raise ValueError("channel_names length does not match channel count")

    @property
    def n_channels(self) -> int:
        return self.data.shape[0]

    @property
    def n_samples(self) -> int:
        return self.data.shape[1]

    def channel_index(self, key) -> int:
        if isinstance(key, str):
            try:
                return self.channel_names.index(key)
            except ValueError:
                raise KeyError(f"no channel named {key!r}") from None
        idx = int(key)
        if not -self.n_channels <= idx < self.n_channels:
            raise IndexError(f"channel index {idx} out of range")
        return idx % self.n_channels


def dft(x) -> np.ndarray:
    """Energy-preserving DFT of a real sequence, all bins ``0..N-1``.

    ``X(k) = N**-0.5 * sum_n x(n) exp(-2j*pi*n*k/N)``; with this scaling
    ``sum |x|**2 == sum |X|**2`` (Parseval).
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError("expected a non-empty 1-D sequence")
    if not np.all(np.isfinite(x)):
        raise ValueError("samples must be finite")
    return np.fft.fft(x) / math.sqrt(x.size)


def bin_frequencies(n_samples: int, ts: float) -> np.ndarray:
    """One-sided DFT bin frequencies in rad/s for a window of ``n_samples``."""
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    if not ts > 0:
        raise ValueError("ts must be positive")
    k = np.arange(n_samples // 2 + 1)
    return TWO_PI * k / (n_samples * ts)


@dataclass(frozen=True)
class MultisineSpec:
    """Random-phase multisine on a harmonic grid.

    The signal is ``sum_k A_k cos(2*pi*k*n/N + phi_k)`` over the excited
    bins ``k`` of one period of ``N = period_samples`` samples, repeated
    ``n_periods`` times. Phases are drawn uniformly from [0, 2*pi) using
    ``phase_seed`` unless ``phases`` pins them explicitly.
    """

    period_samples: int
    excited_bins: tuple
    amplitudes: tuple
    phase_seed: int = 0
    n_periods: int = 1
    phases: tuple = None

    def __post_init__(self):
        if int(self.period_samples) < 2:
            raise ValueError("period_samples must be >= 2")
        object.__setattr__(self, "period_samples", int(self.period_samples))
        bins = tuple(int(k) for k in self.excited_bins)
        if len(bins) == 0:
            raise ValueError("need at least one excited bin")
        if len(set(bins)) != len(bins):
            raise ValueError("excited bins must be unique")
        kmax = self.period_samples // 2 - 1
        for k in bins:
            if not 1 <= k <= kmax:
                raise ValueError(f"excited bin {k} outside valid range [1, {kmax}]")
        object.__setattr__(self, "excited_bins", bins)
        amps = tuple(float(a) for a in np.atleast_1d(self.amplitudes))
        if len(amps) == 1 and len(bins) > 1:
            amps = amps * len(bins)
        if len(amps) != len(bins):
            raise ValueError("amplitudes must match excited bins")
        if any(a <= 0 for a in amps):
            raise ValueError("amplitudes must be positive")
        object.__setattr__(self, "amplitudes", amps)
        if int(self.n_periods) < 1:
            raise ValueError("n_periods must be >= 1")
        object.__setattr__(self, "n_periods", int(self.n_periods))
        if self.phases is not None:
            ph = tuple(float(p) for p in np.atleast_1d(self.phases))
            if len(ph) != len(bins):
                raise ValueError("phases must match excited bins")
            object.__setattr__(self, "phases", ph)

    @classmethod
    def flat(cls, period_samples: int, excited_bins=None, rms: float = 1.0,
             phase_seed: int = 0, n_periods: int = 1) -> "MultisineSpec":
        """Equal amplitude on every excited bin, scaled to a target RMS.

        ``excited_bins`` defaults to the full grid ``1..N//2-1``. The RMS
        of a sum of cosines is ``sqrt(sum A_k**2 / 2)``, hence
        ``A = rms * sqrt(2 / n_excited)`` for a flat spectrum.
        """
        if excited_bins is None:
            excited_bins = tuple(range(1, period_samples // 2))
        excited_bins = tuple(int(k) for k in excited_bins)
        if rms <= 0:
            raise ValueError("rms must be positive")
        amp = rms * math.sqrt(2.0 / len(excited_bins))
        return cls(period_samples, excited_bins, (amp,) * len(excited_bins),
                   phase_seed=phase_seed, n_periods=n_periods)

    def drawn_phases(self) -> np.ndarray:
        if self.phases is not None:
            return np.asarray(self.phases, dtype=float)
        rng = np.random.default_rng(self.phase_seed)
        return rng.uniform(0.0, TWO_PI, size=len(self.excited_bins))

    @property
    def total_samples(self) -> int:
        return self.period_samples * self.n_periods


def generate_multisine(spec: MultisineSpec, ts: float, channel_name: str = "d1") -> TimeSeries:
    """Synthesize the multisine described by ``spec`` at sampling period ``ts``.

    Synthesis goes through the inverse FFT of the one-sided coefficient
    vector, so the DFT of one period is nonzero exactly on the excited
    bins (up to float round-off). Identical specs give bit-identical
    signals.
    """
    n = spec.period_samples
    coeff = np.zeros(n // 2 + 1, dtype=complex)
    amps = np.asarray(spec.amplitudes, dtype=float)
    coeff[list(spec.excited_bins)] = 0.5 * amps * np.exp(1j * spec.drawn_phases())
    one_period = np.fft.irfft(coeff, n=n) * n
    x = np.tile(one_period, spec.n_periods)
    return TimeSeries(x[np.newaxis, :], ts, (channel_name,))


@dataclass(frozen=True)
class WindowFunction:
    """Taper applied to a time window before its DFT.

    ``hann`` uses the periodic (DFT-even) form
    ``w(n) = 0.5 * (1 - cos(2*pi*n/N))``; no amplitude correction is
    baked in here, power normalization is an estimator concern.
    """

    kind: str
    length: int

    def __post_init__(self):
        if self.kind not in _WINDOW_KINDS:
            raise ValueError(f"unknown window kind {self.kind!r}; use one of {_WINDOW_KINDS}")
        if int(self.length) < 2:
            raise ValueError("window length must be >= 2")
        object.__setattr__(self, "length", int(self.length))

    @classmethod
    def rectangular(cls, length: int) -> "WindowFunction":
        return cls("rectangular", length)

    @classmethod
    def hann(cls, length: int) -> "WindowFunction":
        return cls("hann", length)

    def values(self) -> np.ndarray:
        if self.kind == "rectangular":
            return np.ones(self.length)
        n = np.arange(self.length)
        return 0.5 * (1.0 - np.cos(TWO_PI * n / self.length))

    def power(self) -> float:
        """Mean squared window value; 1 for rectangular, 3/8 for Hann."""
        if self.kind == "rectangular":
            return 1.0
        return float(np.mean(self.values() ** 2))


@dataclass
class SpectrumSet:
    """Per-window, per-channel one-sided DFT values.

    ``data`` has shape (n_windows, n_channels, n_bins) with
    ``n_bins == window_length // 2 + 1``. ``window`` records the taper
    that was applied to the time segments (None means rectangular).
    """

    data: np.ndarray
    bin_frequencies: np.ndarray
    window_length: int
    channel_names: tuple = ()
    window: WindowFunction = None
    ts: float = None

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if data.ndim != 3:
            raise ValueError("data must have shape (n_windows, n_channels, n_bins)")
        if data.shape[0] < 1:
            raise ValueError("need at least one window")
        self.window_length = int(self.window_length)
        n_bins = self.window_length // 2 + 1
        if data.shape[2] != n_bins:
            raise ValueError(
                f"expected {n_bins} one-sided bins for window length {self.window_length}, "
                f"got {data.shape[2]}")
        freqs = np.asarray(self.bin_frequencies, dtype=float)
        if freqs.shape != (n_bins,):
            raise ValueError("bin_frequencies must have one entry per bin")
        if np.any(np.diff(freqs) <= 0):
            raise ValueError("bin_frequencies must be strictly increasing")
        self.data = data
        self.bin_frequencies = freqs
        if not self.channel_names:
            self.channel_names = tuple(f"ch{i + 1}" for i in range(data.shape[1]))
        else:
            self.channel_names = tuple(self.channel_names)
            if len(self.channel_names) != data.shape[1]:
                raise ValueError("channel_names length does not match channel count")

    @property
    def n_windows(self) -> int:
        return self.data.shape[0]

    @property
    def n_channels(self) -> int:
        return self.data.shape[1]

    @property
    def n_bins(self) -> int:
        return self.data.shape[2]

    def channel_index(self, key) -> int:
        if isinstance(key, str):
            try:
                return self.channel_names.index(key)
            except ValueError:
                raise KeyError(f"no channel named {key!r}") from None
        idx = int(key)
        if not -self.n_channels <= idx < self.n_channels:
            raise IndexError(f"channel index {idx} out of range")
        return idx % self.n_channels


def spectrum_set(x: TimeSeries, window_length: int = None,
                 window: WindowFunction = None) -> SpectrumSet:
    """Cut a record into consecutive windows, taper each and DFT it
    (one-sided storage).

    ``window_length`` defaults to the whole record (a single window). The
    record is split into ``n_samples // window_length`` windows without
    overlap; a trailing partial window is discarded.
    """
    length = x.n_samples if window_length is None else int(window_length)
    if length > x.n_samples:
        raise ValueError(f"window_length {length} exceeds record length {x.n_samples}")
    if window is None:
        window = WindowFunction.rectangular(length)
    elif window.length != length:
        raise ValueError(f"window length {window.length} does not match segment length {length}")
    m = x.n_samples // length
    pieces = x.data[:, :m * length].reshape(x.n_channels, m, length).swapaxes(0, 1)
    data = np.fft.rfft(pieces * window.values(), axis=2) * (1.0 / math.sqrt(length))
    return SpectrumSet(data, bin_frequencies(length, x.ts), length,
                       x.channel_names, window, x.ts)


def _csv_fields(fields) -> str:
    """``fields`` joined into one line as ``csv.writer`` quotes them,
    without the line end."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()[:-1]


def _write_csv_rows(fh, columns, prefix: str = "") -> None:
    """Write equal-length float columns as CSV rows, ``CSV_CHUNK`` rows
    per write, each row led by the literal text ``prefix``.

    A value is written as ``repr(float(x))``. Such text never needs
    quoting, so the bytes equal what ``csv.writer`` writes for it.
    """
    columns = [np.asarray(c, dtype=float) for c in columns]
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise ValueError("CSV columns must have equal lengths")
    sep = "\n" + prefix
    for lo in range(0, n_rows, CSV_CHUNK):
        cells = [map(repr, c[lo:lo + CSV_CHUNK].tolist()) for c in columns]
        fh.write(prefix + sep.join(map(",".join, zip(*cells))) + "\n")


def _write_csv(path, header, columns) -> None:
    """Write a CSV file: the ``header`` line, then one row per index of the
    1-D float ``columns``."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(_csv_fields(header) + "\n")
        _write_csv_rows(fh, columns)
