"""Ground-truth plant models and time simulation.

Provides the built-in two-mass benchmark (two motor-driven inertias with
an elastic coupling, strongly cross-coupled), exact zero-order-hold
discretization, open- and closed-loop time simulation, and the two
analytic oracles estimators are tested against: the true frequency
response ``C (Omega*I - A)^{-1} B + D`` and the transient/leakage
spectrum caused by mismatched initial and final states.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .estimators import BinDefect, FrfEstimate, _conditioning
from .signals import TimeSeries, bin_frequencies

TWO_PI = 2.0 * math.pi
LIFT = 100          # samples per block of the lifted recursion in lsim
# multiply-adds per matrix product in lsim; OpenBLAS runs a product this
# small on one thread (a larger one, split across threads, stalled for
# tens of milliseconds at a time on a 2-vCPU virtual machine)
PRODUCT_MACS = 2**19


class UnstableLoopError(RuntimeError):
    """The requested feedback interconnection is unstable."""


class IllPosedLoopError(RuntimeError):
    """Direct feedthrough of plant and controller forms a singular
    algebraic loop."""


@dataclass
class StateSpaceModel:
    """State-space model ``(A, B, C, D)``, continuous- or discrete-time.

    ``ts`` is None for continuous time, else the sampling period of the
    discrete-time model.
    """

    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    ts: float = None

    def __post_init__(self):
        self.a = np.atleast_2d(np.asarray(self.a, dtype=float))
        self.b = np.atleast_2d(np.asarray(self.b, dtype=float))
        self.c = np.atleast_2d(np.asarray(self.c, dtype=float))
        self.d = np.atleast_2d(np.asarray(self.d, dtype=float))
        n = self.a.shape[0]
        if self.a.shape != (n, n):
            raise ValueError("A must be square")
        if self.b.shape[0] != n:
            raise ValueError("B row count must match the state dimension")
        if self.c.shape[1] != n:
            raise ValueError("C column count must match the state dimension")
        if self.d.shape != (self.c.shape[0], self.b.shape[1]):
            raise ValueError("D must be (n_outputs, n_inputs)")
        if self.ts is not None:
            self.ts = float(self.ts)
            if not self.ts > 0:
                raise ValueError("ts must be positive for a discrete-time model")

    @property
    def n_states(self) -> int:
        return self.a.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.b.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.c.shape[0]

    @property
    def is_continuous(self) -> bool:
        return self.ts is None

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.a)

    def is_stable(self) -> bool:
        """Hurwitz-stable (continuous) or Schur-stable (discrete)."""
        eig = self.eigenvalues()
        if self.is_continuous:
            return bool(np.all(eig.real < 0))
        return bool(np.all(np.abs(eig) < 1))

    def to_json_dict(self) -> dict:
        return {
            "A": self.a.tolist(),
            "B": self.b.tolist(),
            "C": self.c.tolist(),
            "D": self.d.tolist(),
            "ts": self.ts,
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "StateSpaceModel":
        if not isinstance(doc, dict):
            raise ValueError("state-space JSON must be an object")
        missing = {"A", "B", "C", "D"} - set(doc)
        if missing:
            raise ValueError(f"state-space JSON is missing {sorted(missing)}")
        return cls(doc["A"], doc["B"], doc["C"], doc["D"], doc.get("ts"))


def write_statespace_json(m: StateSpaceModel, path) -> None:
    Path(path).write_text(
        json.dumps(m.to_json_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8")


def read_statespace_json(path) -> StateSpaceModel:
    return StateSpaceModel.from_json_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def benchmark_plant() -> StateSpaceModel:
    """Built-in continuous-time benchmark: two motor-driven inertias
    coupled by a spring-damper, each also sprung to the fixed world.

    Outputs are the two angular positions, inputs the two drive
    voltages. The coupling terms make the plant strongly multivariable.
    """
    a = np.array([
        [0.0, 1.0, 0.0, 0.0],
        [-173.0, -8.0, 166.0, 1.33],
        [0.0, 0.0, 0.0, 1.0],
        [166.0, 1.33, -173.0, -8.0],
    ])
    b = np.array([
        [0.0, 0.0],
        [53.0, 0.0],
        [0.0, 0.0],
        [0.0, 53.0],
    ])
    c = np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
    ])
    d = np.zeros((2, 2))
    return StateSpaceModel(a, b, c, d)


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring: a 20-term Taylor series
    of ``a / 2**s``, with ``s`` the smallest that brings the 1-norm to at
    most 1/2, squared ``s`` times. The series' truncation error is below
    ``2**-21 / 21!`` (about 1e-26) of the scaled exponential."""
    norm = np.linalg.norm(a, 1)
    squarings = max(0, math.ceil(math.log2(norm)) + 1) if 0 < norm < math.inf else 0
    x = a / 2.0**squarings
    term = result = np.eye(a.shape[0])
    for k in range(1, 21):
        term = term @ x / k
        result = result + term
    for _ in range(squarings):
        result = result @ result
    return result


def discretize_zoh(m: StateSpaceModel, ts: float) -> StateSpaceModel:
    """Exact zero-order-hold equivalent of a continuous-time model.

    ``A_d = expm(A*ts)`` and ``B_d = (int_0^ts expm(A*tau) dtau) B``,
    both obtained from one matrix exponential of the block matrix
    ``[[A, B], [0, 0]] * ts``.
    """
    if not m.is_continuous:
        raise ValueError("model is already discrete-time")
    if not ts > 0:
        raise ValueError("ts must be positive")
    n, p = m.n_states, m.n_inputs
    block = np.zeros((n + p, n + p))
    block[:n, :n] = m.a * ts
    block[:n, n:] = m.b * ts
    exp_block = _expm(block)
    if not np.all(np.isfinite(exp_block)):
        raise ArithmeticError("matrix exponential did not converge to finite values")
    return StateSpaceModel(exp_block[:n, :n], exp_block[:n, n:], m.c, m.d, ts=ts)


@dataclass
class SimulationRecord:
    """Signals and boundary states of one simulation run.

    ``y`` is the measured output (noise included when noise was
    injected); ``v`` is the injected noise itself. ``x0`` and ``xN`` are
    the simulated model's state before the first and after the last
    stored sample -- for closed-loop runs that is the stacked
    plant-then-controller state.
    """

    d: TimeSeries
    u: TimeSeries
    y: TimeSeries
    v: TimeSeries
    x0: np.ndarray
    xN: np.ndarray

    def __post_init__(self):
        n = self.u.n_samples
        ts = self.u.ts
        for name in ("d", "y", "v"):
            series = getattr(self, name)
            if series.n_samples != n or series.ts != ts:
                raise ValueError("all recorded series must share length and ts")
        self.x0 = np.asarray(self.x0, dtype=float)
        self.xN = np.asarray(self.xN, dtype=float)


def lsim(m: StateSpaceModel, u: TimeSeries, x0=None) -> SimulationRecord:
    """Simulate ``x(n+1) = A x(n) + B u(n)``, ``y(n) = C x(n) + D u(n)``.

    Records the initial state and the state reached after the last input
    sample. This is the package's one state recursion:
    :func:`simulate_closed_loop` and :meth:`ControllerConfig.filter` run
    through it.

    The recursion runs in lifted form (the "lifted system" of iterative
    learning control): the record is cut into blocks of ``LIFT`` samples,
    and with ``U_b``, ``Y_b`` the stacked inputs and outputs of block b,

        ``x_{b+1} = A^L x_b + R U_b``,   ``Y_b = T U_b + O x_b``,

    where ``O = [C; CA; ...; CA^(L-1)]`` is the observability stack,
    ``T`` the block lower-triangular Toeplitz matrix of the Markov
    parameters ``D, CB, CAB, ...`` and ``R = [A^(L-1)B ... AB B]``. Only
    the state update is a Python loop, one step per block. The outputs
    of a chunk of blocks come from two matrix products; a chunk holds as
    many blocks as fit in ``PRODUCT_MACS`` multiply-adds with ``T``, so
    memory stays bounded by one chunk whatever the record length. A tail
    of ``N mod L`` samples, or a record shorter than one block, is one
    more block of that length, using the leading sub-blocks of ``O`` and
    ``T`` and the trailing columns of ``R``.
    """
    if m.is_continuous:
        raise ValueError("lsim needs a discrete-time model; discretize first")
    if abs(u.ts - m.ts) > 1e-12 * m.ts:
        raise ValueError(f"input ts {u.ts} does not match model ts {m.ts}")
    if u.n_channels != m.n_inputs:
        raise ValueError(
            f"input has {u.n_channels} channels, model expects {m.n_inputs}")
    x0 = np.zeros(m.n_states) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x0.shape != (m.n_states,):
        raise ValueError(f"x0 must have {m.n_states} entries")
    n_x, n_u, n_y, n = m.n_states, m.n_inputs, m.n_outputs, u.n_samples
    powers = [np.eye(n_x)]
    for _ in range(LIFT):
        powers.append(m.a @ powers[-1])
    powers = np.array(powers)                          # A^0 ... A^L
    c_powers = m.c @ powers[:LIFT]                     # C, CA, ..., CA^(L-1)
    markov = np.concatenate([m.d[np.newaxis], c_powers[:-1] @ m.b,
                             np.zeros((1, n_y, n_u))])  # D, CB, ..., CA^(L-2)B, 0
    lag = np.subtract.outer(np.arange(LIFT), np.arange(LIFT))
    toeplitz = markov[np.where(lag >= 0, lag, LIFT)]   # (L, L, n_y, n_u)
    toeplitz = toeplitz.transpose(0, 2, 1, 3).reshape(LIFT * n_y, LIFT * n_u)
    observe = c_powers.reshape(LIFT * n_y, n_x)
    reach = (powers[LIFT - 1::-1] @ m.b).transpose(1, 0, 2).reshape(n_x, LIFT * n_u)

    full, tail = divmod(n, LIFT)
    per_product = max(1, PRODUCT_MACS // toeplitz.size)
    segments = [(start, LIFT, min(per_product, full - start // LIFT))
                for start in range(0, full * LIFT, per_product * LIFT)]
    if tail:
        segments.append((full * LIFT, tail, 1))
    y = np.empty((n_y, n))
    x = x0
    for start, length, count in segments:
        stop = start + length * count
        blocks = u.data[:, start:stop].T.reshape(count, length * n_u)
        a_block = powers[length]
        drive = blocks @ reach[:, (LIFT - length) * n_u:].T
        states = np.empty((count, n_x))
        for i in range(count):
            states[i] = x
            x = a_block @ x + drive[i]
        out = blocks @ toeplitz[:length * n_y, :length * n_u].T
        out += states @ observe[:length * n_y].T
        y[:, start:stop] = out.reshape(count * length, n_y).T
    names = tuple(f"y{i + 1}" for i in range(n_y))
    return SimulationRecord(
        d=u,
        u=u,
        y=TimeSeries(y, u.ts, names),
        v=TimeSeries(np.zeros(y.shape), u.ts, names),
        x0=x0,
        xN=x,
    )


def _tf2ss(num, den):
    """Controllable canonical realization ``(A, B, C, D)`` of the proper
    transfer function ``num(z)/den(z)``, equal to ``scipy.signal.tf2ss``.

    Both polynomials are divided by ``den[0]`` and the numerator is
    left-padded to the length of the denominator; leading numerator
    coefficients within 1e-14 of zero, all but the last, become zero.
    """
    den = np.asarray(den, dtype=float)
    num = np.asarray(num, dtype=float) / den[0]
    den = den / den[0]
    num = np.concatenate([np.zeros(den.size - num.size), num])
    num[:-1][np.cumprod(np.abs(num[:-1]) <= 1e-14).astype(bool)] = 0.0
    d = num[:1].reshape(1, 1)
    k = den.size - 1
    if k == 0:
        return np.zeros((1, 1)), np.zeros((1, 1)), np.zeros((1, 1)), d
    a = np.vstack([-den[1:], np.eye(k - 1, k)])
    return a, np.eye(k, 1), (num[1:] - num[0] * den[1:])[np.newaxis], d


@dataclass(frozen=True)
class ControllerConfig:
    """Decentralized (diagonal) discrete-time controller.

    One proper transfer function per loop, given as polynomial
    coefficients in descending powers of z. Stability of the closed loop
    depends on the plant, so it is verified where plant and controller
    meet: :func:`simulate_closed_loop` and :func:`ControllerConfig.for_plant`.
    """

    numerators: tuple
    denominators: tuple
    ts: float

    def __post_init__(self):
        nums = tuple(tuple(float(v) for v in num) for num in self.numerators)
        dens = tuple(tuple(float(v) for v in den) for den in self.denominators)
        if len(nums) != len(dens) or not nums:
            raise ValueError("need matching numerator/denominator per loop")
        for num, den in zip(nums, dens):
            if not den or den[0] == 0.0:
                raise ValueError("denominator leading coefficient must be nonzero")
            if len(num) > len(den):
                raise ValueError("per-loop transfer function must be proper")
        object.__setattr__(self, "numerators", nums)
        object.__setattr__(self, "denominators", dens)
        if not float(self.ts) > 0:
            raise ValueError("ts must be positive")
        object.__setattr__(self, "ts", float(self.ts))

    @property
    def n_loops(self) -> int:
        return len(self.numerators)

    @classmethod
    def lead(cls, n_loops: int, ts: float, gain: float = 50.0,
             zero: float = 0.9, pole: float = 0.5) -> "ControllerConfig":
        """Identical lead element ``gain*(z - zero)/(z - pole)`` on every loop."""
        num = (gain, -gain * zero)
        den = (1.0, -pole)
        return cls((num,) * n_loops, (den,) * n_loops, ts)

    @classmethod
    def for_plant(cls, plant: StateSpaceModel, gain: float = 50.0,
                  zero: float = 0.9, pole: float = 0.5) -> "ControllerConfig":
        """Default lead controller sized for ``plant``, verified stable
        against it at construction."""
        if plant.is_continuous:
            raise ValueError("pass the discretized plant")
        if plant.n_inputs != plant.n_outputs:
            raise ValueError("decentralized control needs a square plant")
        ctrl = cls.lead(plant.n_inputs, plant.ts, gain, zero, pole)
        assert_closed_loop_stable(plant, ctrl)
        return ctrl

    def state_space(self) -> StateSpaceModel:
        """Block-diagonal state-space realization of all loops."""
        blocks = [_tf2ss(num, den) for num, den in
                  zip(self.numerators, self.denominators)]
        n_states = sum(blk[0].shape[0] for blk in blocks)
        n = self.n_loops
        a = np.zeros((n_states, n_states))
        b = np.zeros((n_states, n))
        c = np.zeros((n, n_states))
        d = np.zeros((n, n))
        at = 0
        for i, (ai, bi, ci, di) in enumerate(blocks):
            k = ai.shape[0]
            a[at:at + k, at:at + k] = ai
            b[at:at + k, i] = bi[:, 0]
            c[i, at:at + k] = ci[0]
            d[i, i] = di[0, 0]
            at += k
        return StateSpaceModel(a, b, c, d, ts=self.ts)

    def frf(self, bin_freqs) -> np.ndarray:
        """Diagonal controller FRF per bin, shape (n_bins, n, n)."""
        bin_freqs = np.asarray(bin_freqs, dtype=float)
        z = np.exp(1j * bin_freqs * self.ts)
        out = np.zeros((bin_freqs.size, self.n_loops, self.n_loops), dtype=complex)
        for i, (num, den) in enumerate(zip(self.numerators, self.denominators)):
            out[:, i, i] = np.polyval(num, z) / np.polyval(den, z)
        return out

    def filter(self, x: np.ndarray) -> np.ndarray:
        """Apply each loop's transfer function to the matching channel,
        starting from zero controller state.

        Runs :func:`lsim` on :meth:`state_space`, exactly as
        :func:`simulate_closed_loop` computes the recorded controller
        action, so filtering a zero-start record's measured output
        reproduces ``d - u`` bit for bit.
        """
        return lsim(self.state_space(), TimeSeries(x, self.ts)).y.data


def closed_loop_system(plant: StateSpaceModel, ctrl: ControllerConfig) -> StateSpaceModel:
    """Combined discrete-time loop as one LTI model.

    Loop topology: the excitation enters at the plant input together
    with the negative controller action, ``u = d - K(y + v)``. Inputs of
    the combined model are ``[d; v]``, outputs ``[u; y]`` (noise-free
    plant output), states the plant states followed by the controller
    states.
    """
    if plant.is_continuous:
        raise ValueError("pass the discretized plant")
    if plant.n_inputs != plant.n_outputs or plant.n_inputs != ctrl.n_loops:
        raise ValueError("plant must be square with one controller loop per channel")
    if abs(plant.ts - ctrl.ts) > 1e-12 * plant.ts:
        raise ValueError("plant and controller sampling periods differ")
    kss = ctrl.state_space()
    ap, bp, cp, dp = plant.a, plant.b, plant.c, plant.d
    ac, bc, cc, dc = kss.a, kss.b, kss.c, kss.d
    n_u = plant.n_inputs
    loop_gain = np.eye(n_u) + dc @ dp
    if abs(np.linalg.det(loop_gain)) < 1e-12:
        raise IllPosedLoopError(
            "plant and controller feedthrough form a singular algebraic loop")
    w = np.linalg.inv(loop_gain)
    n_p, n_c = plant.n_states, kss.n_states
    a = np.zeros((n_p + n_c, n_p + n_c))
    a[:n_p, :n_p] = ap - bp @ w @ dc @ cp
    a[:n_p, n_p:] = -bp @ w @ cc
    a[n_p:, :n_p] = bc @ cp - bc @ dp @ w @ dc @ cp
    a[n_p:, n_p:] = ac - bc @ dp @ w @ cc
    b = np.zeros((n_p + n_c, 2 * n_u))
    b[:n_p, :n_u] = bp @ w
    b[:n_p, n_u:] = -bp @ w @ dc
    b[n_p:, :n_u] = bc @ dp @ w
    b[n_p:, n_u:] = bc @ (np.eye(n_u) - dp @ w @ dc)
    c = np.zeros((2 * n_u, n_p + n_c))
    c[:n_u, :n_p] = -w @ dc @ cp
    c[:n_u, n_p:] = -w @ cc
    c[n_u:, :n_p] = cp - dp @ w @ dc @ cp
    c[n_u:, n_p:] = -dp @ w @ cc
    d = np.zeros((2 * n_u, 2 * n_u))
    d[:n_u, :n_u] = w
    d[:n_u, n_u:] = -w @ dc
    d[n_u:, :n_u] = dp @ w
    d[n_u:, n_u:] = -dp @ w @ dc
    return StateSpaceModel(a, b, c, d, ts=plant.ts)


def assert_closed_loop_stable(plant: StateSpaceModel,
                              ctrl: ControllerConfig) -> StateSpaceModel:
    """Raise :class:`UnstableLoopError` unless the loop is stable; return
    the combined model of :func:`closed_loop_system`."""
    sys = closed_loop_system(plant, ctrl)
    eig = sys.eigenvalues()
    worst = float(np.max(np.abs(eig)))
    if worst >= 1.0:
        raise UnstableLoopError(
            f"closed loop is unstable: largest eigenvalue magnitude {worst:.6g}")
    return sys


def simulate_closed_loop(plant: StateSpaceModel, ctrl: ControllerConfig,
                         d: TimeSeries, noise_std=0.0, noise_seed: int = None,
                         x_plant0=None, x_ctrl0=None) -> SimulationRecord:
    """Closed-loop run with excitation at the plant input.

    The loop is ``u = d - K(y + v)`` with white Gaussian ``v`` per output
    and K acting through its state-space realization. The combined model
    of :func:`closed_loop_system` (which solves the algebraic loop, or
    rejects it when ill posed) is run through :func:`lsim` with inputs
    ``[d; v]`` from the stacked plant-then-controller start. The recorded
    ``y`` is the measured output ``y + v``; the recorded ``u`` is ``d``
    minus the controller applied to that measured output from its own
    start, so ``u == d - K(y)`` holds bit for bit.
    """
    if plant.is_continuous:
        raise ValueError("pass the discretized plant")
    if d.n_channels != plant.n_inputs:
        raise ValueError(f"excitation has {d.n_channels} channels, plant expects {plant.n_inputs}")
    if abs(d.ts - plant.ts) > 1e-12 * plant.ts:
        raise ValueError("excitation ts does not match the plant")
    sys = assert_closed_loop_stable(plant, ctrl)
    kss = ctrl.state_space()
    n_u, n_y = plant.n_inputs, plant.n_outputs
    n = d.n_samples

    std = np.broadcast_to(np.asarray(noise_std, dtype=float), (n_y,)).copy()
    if np.any(std < 0):
        raise ValueError("noise_std must be nonnegative")
    if np.any(std > 0):
        if noise_seed is None:
            raise ValueError("noise_seed must be given explicitly when noise_std > 0")
        rng = np.random.default_rng(noise_seed)
        v = rng.standard_normal((n_y, n)) * std[:, np.newaxis]
    else:
        v = np.zeros((n_y, n))

    xp = np.zeros(plant.n_states) if x_plant0 is None else np.asarray(x_plant0, dtype=float)
    xc = np.zeros(kss.n_states) if x_ctrl0 is None else np.asarray(x_ctrl0, dtype=float)
    if xp.shape != (plant.n_states,) or xc.shape != (kss.n_states,):
        raise ValueError("initial state dimensions do not match plant/controller")

    ts = d.ts
    loop = lsim(sys, TimeSeries(np.vstack([d.data, v]), ts),
                x0=np.concatenate([xp, xc]))
    y = TimeSeries(loop.y.data[n_u:] + v, ts, tuple(f"y{i + 1}" for i in range(n_y)))
    k_of_y = lsim(kss, y, x0=xc).y.data
    return SimulationRecord(
        d=d,
        u=TimeSeries(d.data - k_of_y, ts, tuple(f"u{i + 1}" for i in range(n_u))),
        y=y,
        v=TimeSeries(v, ts, tuple(f"v{i + 1}" for i in range(n_y))),
        x0=loop.x0,
        xN=loop.xN,
    )


def periodic_steady_state(m: StateSpaceModel, u_period: TimeSeries) -> np.ndarray:
    """Initial state that makes the response to a periodic input exactly
    periodic: ``x_ss = (I - A^N)^{-1} f`` with ``f`` the zero-state final
    state after one period."""
    if m.is_continuous:
        raise ValueError("needs a discrete-time model")
    if not m.is_stable():
        raise ValueError("periodic steady state needs a stable model")
    record = lsim(m, u_period)
    a_period = np.linalg.matrix_power(m.a, u_period.n_samples)
    return np.linalg.solve(np.eye(m.n_states) - a_period, record.xN)


def closed_loop_steady_state(plant: StateSpaceModel, ctrl: ControllerConfig,
                             d_period: TimeSeries):
    """Plant and controller initial states for an exactly periodic
    noise-free closed-loop response to ``d_period``."""
    sys = closed_loop_system(plant, ctrl)
    n_y = plant.n_outputs
    stacked = TimeSeries(
        np.vstack([d_period.data, np.zeros((n_y, d_period.n_samples))]), d_period.ts)
    x_ss = periodic_steady_state(sys, stacked)
    return x_ss[:plant.n_states], x_ss[plant.n_states:]


def true_frf(m: StateSpaceModel, bin_freqs) -> FrfEstimate:
    """Analytic frequency response ``C (Omega*I - A)^{-1} B + D``.

    ``Omega = j*w`` for continuous-time models and ``exp(j*w*ts)`` for
    discrete-time ones. Returned with zero variance and an oracle tag;
    bins where ``Omega*I - A`` is singular become NaN defects.
    """
    bin_freqs = np.asarray(bin_freqs, dtype=float)
    if m.ts is not None:
        nyquist = math.pi / m.ts
        if np.any(bin_freqs > nyquist * (1 + 1e-12)):
            raise ValueError("frequencies beyond the Nyquist rate of the discrete model")
        omegas = np.exp(1j * bin_freqs * m.ts)
    else:
        omegas = 1j * bin_freqs
    g = np.full((bin_freqs.size, m.n_outputs, m.n_inputs), np.nan + 0j)
    resolvent = omegas[:, np.newaxis, np.newaxis] * np.eye(m.n_states) - m.a
    ok = _conditioning(resolvent)[1]
    g[ok] = m.c @ np.linalg.solve(resolvent[ok], m.b) + m.d
    defects = [BinDefect(int(k), "resolvent_singular") for k in np.flatnonzero(~ok)]
    tag = {"estimator": "state_space_oracle",
           "time_domain": "continuous" if m.is_continuous else "discrete"}
    return FrfEstimate(g, bin_freqs, variance=np.zeros_like(g, dtype=float),
                       estimator_tag=tag, defects=defects)


def transient_spectrum(m: StateSpaceModel, x0, xN, window_length: int) -> np.ndarray:
    """Leakage spectrum of a window whose boundary states differ.

    For ``x(n+1) = A x(n) + B u(n)`` observed over N samples, the DFT of
    the output satisfies ``Y(k) = G(z_k) U(k) + T(z_k)`` with
    ``T(z_k) = N**-0.5 * C (I - z_k^{-1} A)^{-1} (x0 - xN)``; the
    N**-0.5 factor matches the package DFT scaling. Returns an
    (n_bins, n_y) array over the one-sided bins.
    """
    if m.is_continuous:
        raise ValueError("needs a discrete-time model")
    if not m.is_stable():
        raise ValueError("transient spectrum assumes a stable model")
    dx = np.asarray(x0, dtype=float) - np.asarray(xN, dtype=float)
    if dx.shape != (m.n_states,):
        raise ValueError(f"states must have {m.n_states} entries")
    freqs = bin_frequencies(window_length, m.ts)
    z = np.exp(1j * freqs * m.ts)
    resolvent = np.eye(m.n_states) - m.a / z[:, np.newaxis, np.newaxis]
    leak = m.c @ np.linalg.solve(resolvent, dx[:, np.newaxis])
    return (1.0 / math.sqrt(window_length)) * leak[:, :, 0]
