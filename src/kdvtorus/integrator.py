"""Time integration of ``u_t = a*u_xxx + b*u*u_x`` on the 2*pi torus.

The equation is stepped in Fourier space, where the linear part is diagonal:

    du_k/dt = -i*a*k^3*u_k + (i*k*b/2) * sum_{k1+k2=k} u_{k1} u_{k2}

Two schemes are provided. The leapfrog scheme treats the linear term through
its exact two-step phase relation (the ``-2i*sin(a*k^3*dt)`` factor), so it is
exact on the pure linear equation at any step size; the nonlinear term enters
explicitly at second order. The integrating-factor RK4 scheme applies the
classical four-stage Runge-Kutta rule to the interaction-picture variable
``v_k = u_k * exp(i*a*k^3*t)``, whose evolution contains no stiff linear part;
it is fourth-order accurate and the preferred scheme for desk-scale runs.
The free flow's phase ``exp(-i*a*k^3*t)`` is formed only in ``_linear_phase``,
which the propagator, both schemes, the audit and the normal form all call.
An IF-RK4 run takes each step's phase from ``_phase_table`` (two tables of
its values, built once) instead of an ``exp`` over every mode.

Both schemes share one RK4 step (``_Workspace.rk4_v_step``): the leapfrog
scheme bootstraps its first step with it, so one step of either scheme gives
the same state. Both advance through one step loop in ``evolve``, which
guards against blow-up and records samples the same way for each; the scheme
decides only how the state advances and how ``u`` is read from it (IF-RK4
steps ``v``, leapfrog steps ``u``). A sample stores ``u``'s raw half spectrum
as one row copy; ``TrajectoryRecord.snapshot`` mirrors a row out to modes
-K..K when it is read. No Robert-Asselin filter is applied, so the leapfrog
scheme's weak computational mode is left undamped — prefer the RK4 scheme
for very long runs. The leapfrog step's two roots, exp(-i*theta) and
-exp(i*theta) with theta = a*k^3*dt, meet where cos(theta) = 0. No masked
mode reaches that collision while dt < pi/(2*|a|*mask^3), mask being the
quadratic term's cutoff (2K/3, or K without dealiasing): 3.2e-7 at m = 512
and a = 1. Nothing refuses a step past the bound, but a leapfrog blow-up past
it names the collision rather than advising a smaller dt.

The quadratic term is ``_Workspace.nl``, masked at one cutoff: 2K/3 (the 2/3
rule) or K in ``evolve``, K itself on the residual probe's wider grid; its
FFTs write into buffers the workspace keeps. Its ``FourierField`` wrapper,
which the tests compare against the direct-sum convolution, lives in
``tests/oracles.py``.

State arrays may carry a leading batch axis: ``evolve`` steps several fields
that share one ``KdvParams`` and one set of sample times as one
``(B, m/2+1)`` state, with FFTs along the last axis, and returns one
``TrajectoryRecord`` whose arrays carry the same leading axis. Each row comes
out bitwise equal to stepping that field alone.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fields import (
    FourierField,
    field_from_half_spectrum,
    half_spectrum,
    _require_grid,
)

__all__ = [
    "Scheme",
    "KdvParams",
    "TrajectoryRecord",
    "linear_propagator",
    "evolve",
    "InstabilityError",
]

#: Abort when the l2 norm exceeds this factor times its initial value.
BLOWUP_FACTOR = 1.0e6


class InstabilityError(RuntimeError):
    """Time integration blew up (norm exceeded the abort threshold)."""


class Scheme(Enum):
    """Available time-stepping schemes."""

    FORNBERG_WHITHAM = "fornberg-whitham"
    INTEGRATING_FACTOR_RK4 = "if-rk4"


@dataclass(frozen=True)
class KdvParams:
    """Equation coefficients and discretization for one run.

    Attributes
    ----------
    a, b : float
        Dispersion and nonlinearity coefficients (a=1, b=1 for the
        normalized torus equation; a=1/6, b=3/2 for the shallow-water form).
    dt : float
        Requested time step. ``evolve`` refines it to ``t_final / n`` with
        ``n = ceil(t_final / dt)`` so the final time is landed exactly.
    t_final : float
        Final time T > 0.
    m : int
        Grid size (power of two, at least 8); the mode cutoff is m/2 - 1.
    scheme : Scheme
        Time stepper.
    dealias : bool
        Apply the 2/3 rule when forming the quadratic term.
    """

    a: float = 1.0
    b: float = 1.0
    dt: float = 1.0e-5
    t_final: float = 1.0
    m: int = 512
    scheme: Scheme = Scheme.INTEGRATING_FACTOR_RK4
    dealias: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "scheme", Scheme(self.scheme))
        for name in ("a", "b", "dt", "t_final"):
            if not math.isfinite(float(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.t_final <= 0.0:
            raise ValueError(f"t_final must be positive, got {self.t_final}")
        _require_grid(self.m, minimum=8)

    @property
    def cutoff(self) -> int:
        """Mode cutoff carried by the run grid (m/2 - 1)."""
        return self.m // 2 - 1


def desk_params(**overrides) -> KdvParams:
    """``KdvParams(**overrides)``: the desk run is the defaults, IF-RK4 at dt = 1e-5.

    Not public and called nowhere in the package, kept here while
    ``perfbench/reference.py`` imports it by name.
    """
    return KdvParams(**overrides)


@dataclass
class TrajectoryRecord:
    """Sampled output of one ``evolve`` call.

    ``times`` holds the S actual sample instants (requested times snapped to
    the nearest step). ``half_spectra`` has shape ``(..., S, m/2+1)``: the
    integrator's raw half spectrum at each sample (see
    ``fields.half_spectrum``), half the memory of modes -K..K, K the run
    grid's cutoff. ``snapshot`` is the coefficient view, mirrored out one
    row at a time. ``energy_series`` and ``momentum_series`` have shape
    ``(..., S)``. The leading ``...`` is empty for one field and the field
    axis for a batch, where ``steps_total`` counts field-steps (the steps of
    every field, summed). ``initial`` is the data the run starts from, each
    field cut to the grid and made zero-mean: one field, or a tuple with one
    per field for a batch.
    """

    times: np.ndarray
    half_spectra: np.ndarray
    energy_series: np.ndarray
    momentum_series: np.ndarray
    steps_total: int
    params: KdvParams
    initial: FourierField | tuple[FourierField, ...]

    def snapshot(self, i) -> FourierField:
        """The state at sample i; for a batch, i is a (field, sample) pair."""
        return field_from_half_spectrum(self.half_spectra[i], self.params.m)

    def energy_drift(self):
        """Max relative deviation of the energy series from its first entry.

        A float for one field, an array with one entry per field for a batch;
        NaN where the first entry is 0.
        """
        energy = self.energy_series
        dev = np.max(np.abs(energy - energy[..., :1]), axis=-1)
        with np.errstate(invalid="ignore"):  # a zero field stays zero: 0/0 = NaN
            drift = dev / np.abs(energy[..., 0])
        return drift if drift.ndim else float(drift)

    def max_momentum(self) -> float:
        """Largest |momentum| over the samples of every field (0 for zero-mean data)."""
        return float(np.max(np.abs(self.momentum_series)))


# ---------------------------------------------------------------------------
# the free dispersive flow
# ---------------------------------------------------------------------------


def _linear_phase(ks: np.ndarray, a: float) -> Callable[[float], np.ndarray]:
    """``t -> exp(-i*t*a*k^3)`` over the modes ``ks`` (``a*k^3`` formed once here)."""
    if not math.isfinite(a):
        raise ValueError(f"a must be finite, got {a}")
    k3a = a * np.asarray(ks, dtype=float) ** 3

    def phase(t: float) -> np.ndarray:
        if not math.isfinite(t):
            raise ValueError(f"t must be finite, got {t}")
        return np.exp(-1j * t * k3a)

    return phase


def _phase_table(phase: Callable[[float], np.ndarray], dt: float, n_steps: int):
    """``i -> phase(i*dt)`` for the steps i < n_steps, from two tables built once.

    ``lo[r] = phase(r*dt)`` and ``hi[j] = phase(j*L*dt)`` with L about
    sqrt(n_steps), so step i costs the product ``hi[i // L] * lo[i % L]``
    in place of an ``exp`` over every mode, and the tables keep about
    2*sqrt(n_steps) rows. The product agrees with ``phase(i*dt)`` to a few
    ulps times ``1 + |i*dt*a*k^3|``; step 0 is exactly 1.
    """
    span = max(1, math.isqrt(n_steps))
    lo = np.stack([phase(r * dt) for r in range(span)])
    hi = np.stack([phase(j * span * dt) for j in range(-(-n_steps // span))])

    def at_step(i: int) -> np.ndarray:
        j, r = divmod(i, span)
        return hi[j] * lo[r]

    return at_step


def linear_propagator(fld: FourierField, t: float, a: float) -> FourierField:
    """Exact linear flow: mode k multiplied by ``exp(-i*a*k^3*t)``.

    An l2 isometry for any t; at a = 1, t = 2*pi it is the identity on
    integer modes (the linear evolution is 2*pi-periodic in time).
    """
    return FourierField(fld.coeffs * _linear_phase(fld.wavenumbers(), a)(t))


# ---------------------------------------------------------------------------
# the residual probe's step
# ---------------------------------------------------------------------------


def _grid_for_cutoff(cutoff: int) -> int:
    m = 8
    while m < 2 * (cutoff + 1):
        m *= 2
    return m


def _alias_free_rk4_step(v: FourierField, t: float, h: float) -> FourierField:
    """One ``rk4_v_step`` of the a = b = 1 system from time t (h may be negative).

    Masked at v's cutoff K on a grid of more than 3K points, no product mode
    aliases into |k| <= K: each stage product is the exact convolution cut at K.
    """
    cutoff = v.cutoff
    m = _grid_for_cutoff(3 * cutoff // 2)
    ws = _Workspace(m=m, a=1.0, b=1.0, dt=h, mask_cutoff=cutoff)
    out_half = ws.rk4_v_step(half_spectrum(v, m), ws.phase(t))
    return field_from_half_spectrum(out_half, m).with_cutoff(cutoff)


# ---------------------------------------------------------------------------
# stepping workspace (raw rfft-layout arrays, coefficient scale times m)
# ---------------------------------------------------------------------------


class _Workspace:
    """Precomputed per-run arrays for stepping (``phase`` is the free flow).

    State arrays are raw half spectra (see ``fields.half_spectrum``): bin k
    holds ``m * (-1)^k * u_k`` for k = 0..m/2. In this layout the dynamics
    take the same form as for the plain coefficients (the alternating sign
    is a constant diagonal conjugation that commutes with every term), and
    the physical-space square is one irfft/rfft pair away. ``mask_cutoff``
    is the highest mode kept in the quadratic term, both before squaring and
    in the result.
    """

    def __init__(self, m: int, a: float, b: float, dt: float, mask_cutoff: int) -> None:
        self.m = m
        self.dt = dt
        self.mask_cutoff = mask_cutoff
        k = np.arange(m // 2 + 1, dtype=float)
        self.phase = _linear_phase(k, a)
        self.ikb2 = 0.5j * b * k * (k <= mask_cutoff)
        self.E = self.phase(0.5 * dt)
        self.E2 = self.E * self.E
        self.Ec = np.conj(self.E)
        self.E2c = np.conj(self.E2)
        self.sin2 = 2.0j * np.sin(a * k**3 * dt)
        self._square = self._spectrum = np.empty((0,))  # FFT outputs, sized on first use

    def nl(self, A: np.ndarray) -> np.ndarray:
        """Quadratic term ``(i*k*b/2) * F((F^-1 A)^2)`` with the run's masking.

        The input mask is a slice (irfft pads the cut modes with zeros). The
        FFT buffers are scratch; the result is a new array.
        """
        if self._spectrum.shape != A.shape:
            self._square = np.empty(A.shape[:-1] + (self.m,))
            self._spectrum = np.empty(A.shape, dtype=np.complex128)
        s = np.fft.irfft(A[..., : self.mask_cutoff + 1], n=self.m, out=self._square)
        np.multiply(s, s, out=s)
        return self.ikb2 * np.fft.rfft(s, out=self._spectrum)

    def rk4_v_step(self, v: np.ndarray, P: np.ndarray) -> np.ndarray:
        """One RK4 step of the interaction-picture state v; P is phase(t) at its start t.

        The only RK4 step in the package: the IF-RK4 scheme takes every step
        with it (P from ``_phase_table``), the leapfrog scheme its bootstrap
        step and the normal-form residual probe its +/-dt steps (P from
        ``phase``). Kept in v-form so the linear flow contributes no per-step
        rounding (for b = 0 the state is bitwise constant).
        """
        u = P * v
        h = self.dt
        na = self.nl(u)
        nb = self.nl(self.E * (u + (0.5 * h) * na))
        nc = self.nl(self.E * u + (0.5 * h) * nb)
        nd = self.nl(self.E2 * u + h * (self.E * nc))
        incr = na + 2.0 * (self.Ec * (nb + nc)) + self.E2c * nd
        return v + (h / 6.0) * (np.conj(P) * incr)

    def fw_step(self, A_prev: np.ndarray, A_cur: np.ndarray) -> np.ndarray:
        """One leapfrog step with the exact linear two-step phase factor."""
        return A_prev - self.sin2 * A_cur + 2.0 * self.dt * self.nl(A_cur)

    def energy(self, A: np.ndarray) -> np.ndarray:
        """Coefficient-scale energy sum |u_k|^2 over the symmetric range, per row."""
        total = np.abs(A[..., 0]) ** 2 + 2.0 * np.sum(np.abs(A[..., 1:]) ** 2, axis=-1)
        return total / (self.m * self.m)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def evolve(phi, p: KdvParams, sample_times):
    """Integrate from ``phi`` to ``p.t_final``, sampling at the given times.

    ``phi`` is one ``FourierField`` or a sequence of them. A sequence is
    stepped together as one batch: the returned ``TrajectoryRecord`` then
    carries a leading field axis, each row bitwise equal to evolving that
    field alone.

    The requested step is refined to ``dt_eff = t_final / n`` with
    ``n = ceil(t_final / dt)``, and each sample time is snapped to the
    nearest step index (the recorded ``times`` are the actual instants,
    ``t = index * dt_eff``). Energy ``sum |u_k|^2`` and momentum ``u_0``
    are recorded at every sample; a blow-up guard aborts if the l2 norm of
    any field ever exceeds 1e6 times its initial value.

    Raises
    ------
    ValueError
        If sample times are empty, non-finite, unsorted or outside [0, t_final],
        ``phi`` is an empty sequence, t_final/dt is 2^53 steps or more, or a
        field has a norm too large for double precision, a non-finite
        amplitude, a reality defect past tolerance or nonzero modes beyond
        the run grid's cutoff.
    InstabilityError
        If the blow-up guard trips (dt too large for the grid), or the state
        overflows double precision.
    """
    t_final = float(p.t_final)
    requested = np.asarray(list(sample_times), dtype=float)
    if requested.ndim != 1 or not np.all(np.isfinite(requested)):
        raise ValueError("sample_times must be a flat sequence of finite times")
    if requested.size == 0:
        raise ValueError("sample_times must hold at least one time")
    single = isinstance(phi, FourierField)
    fields = [phi] if single else list(phi)
    if not fields:
        raise ValueError("phi must hold at least one field")
    if np.any(np.diff(requested) < 0.0):
        raise ValueError("sample_times must be sorted")
    tol = 1e-9 * max(1.0, abs(t_final))
    if requested[0] < -tol or requested[-1] > t_final + tol:
        raise ValueError(
            f"sample_times must lie within [0, {t_final}], got "
            f"[{requested[0]}, {requested[-1]}]"
        )

    run_cutoff = p.cutoff
    for j, fld in enumerate(fields):
        beyond = [k for k in fld.support() if abs(k) > run_cutoff]
        if beyond:
            raise ValueError(
                f"initial field {j} has nonzero modes {beyond[:4]}... beyond "
                f"the grid cutoff {run_cutoff}"
            )

    if not t_final / p.dt < 2.0**53:  # inf once dt underflows the ratio
        raise ValueError(f"t_final = {t_final} over dt = {p.dt} is more steps than can "
                         "be counted (at most 2^53)")
    n_steps = max(1, math.ceil(t_final / p.dt - 1e-12))
    dt_eff = t_final / n_steps
    mask_cutoff = (2 * p.cutoff) // 3 if p.dealias else p.cutoff
    ws = _Workspace(m=p.m, a=p.a, b=p.b, dt=dt_eff, mask_cutoff=mask_cutoff)

    sample_idx = [min(n_steps, max(0, int(round(s / dt_eff)))) for s in requested]

    initial = tuple(f.with_cutoff(run_cutoff).zero_mean() for f in fields)
    A0 = np.stack([half_spectrum(f, p.m) for f in initial])
    # bin 0 of a zero-mean field's half spectrum is exactly 0, so sum_k |A_k|^2 over
    # the stored bins is proportional to the energy, and cheap to form every step
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused next
        limits = [BLOWUP_FACTOR**2 * float(np.vdot(row, row).real) for row in A0]
    if math.inf in limits:
        raise ValueError(f"initial field {limits.index(math.inf)} has a norm too large for "
                         "double precision: its blow-up limit overflows")
    limits = [limit or math.inf for limit in limits]  # a zero field cannot blow up
    if single:
        A0 = A0[0]  # a lone field steps as a 1-D state, free of broadcasting

    times = np.asarray(sample_idx, dtype=float) * dt_eff
    n_samples = len(sample_idx)
    series = A0.shape[:-1] + (n_samples,)  # (..., S)
    half_spectra = np.empty(series + (p.m // 2 + 1,), dtype=np.complex128)
    energies = np.empty(series)
    momenta = np.empty(series)
    rk4 = p.scheme is Scheme.INTEGRATING_FACTOR_RK4
    step_phase = _phase_table(ws.phase, dt_eff, n_steps) if rk4 else None

    def record(A: np.ndarray, pointer: int) -> int:
        """Record every sample due at step ``sample_idx[pointer]``; returns the next pointer."""
        idx = sample_idx[pointer]
        A_u = ws.phase(idx * dt_eff) * A if rk4 else A
        while pointer < n_samples and sample_idx[pointer] == idx:
            half_spectra[..., pointer, :] = A_u
            energies[..., pointer] = ws.energy(A_u)
            momenta[..., pointer] = A_u[..., 0].real / p.m
            pointer += 1
        return pointer

    def blown_up(A: np.ndarray, idx: int) -> InstabilityError:
        """The error naming the first field past its limit at step ``idx`` (cold path)."""
        norms = [np.vdot(row, row).real for row in A.reshape(len(fields), -1)]
        j = next(j for j, (norm2, limit) in enumerate(zip(norms, limits)) if not norm2 <= limit)
        if not math.isfinite(norms[j]):
            return InstabilityError(f"field {j} overflowed double precision at "
                                    f"t = {idx * dt_eff:.6g} (b = {p.b:g})")
        advice = "reduce dt or the grid cutoff"
        if not rk4 and abs(p.a) * mask_cutoff**3 * dt_eff >= 0.5 * math.pi:
            advice = ("leapfrog's two roots can meet at this step (|a|*mask^3*dt >= pi/2), "
                      "so a smaller dt may not help unless it is below "
                      f"{0.5 * math.pi / (abs(p.a) * mask_cutoff**3):.3g}")
        return InstabilityError(
            f"l2 norm of field {j} exceeded {BLOWUP_FACTOR:.0e} times its initial value "
            f"at t = {idx * dt_eff:.6g}; {advice}"
        )

    A_prev, A = None, A0.copy()  # IF-RK4 steps v, leapfrog steps u
    pointer = record(A, 0) if sample_idx[0] == 0 else 0
    with np.errstate(over="ignore", invalid="ignore"):  # the guard refuses inf and NaN
        for i in range(n_steps):
            if rk4:
                A = ws.rk4_v_step(A, step_phase(i))
            elif i == 0:  # leapfrog bootstrap
                A_prev, A = A, ws.phase(dt_eff) * ws.rk4_v_step(A, ws.phase(0.0))
            else:
                A_prev, A = A, ws.fw_step(A_prev, A)
            # the blow-up guard, one vdot per field row (|v_k| = |u_k|); NaN fails it too
            for row, limit in zip((A,) if single else A, limits):
                if not np.vdot(row, row).real <= limit:
                    raise blown_up(A, i + 1)
            if pointer < n_samples and sample_idx[pointer] == i + 1:
                pointer = record(A, pointer)

    return TrajectoryRecord(
        times=times,
        half_spectra=half_spectra,
        energy_series=energies,
        momentum_series=momenta,
        steps_total=len(fields) * n_steps,
        params=p,
        initial=initial[0] if single else initial,
    )
