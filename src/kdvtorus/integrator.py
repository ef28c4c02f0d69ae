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

Both schemes share one RK4 step (``_Workspace.rk4_v_step``): the leapfrog
scheme bootstraps its first step with it, so one step of either scheme gives
the same state. Both advance through one step loop in ``evolve``, which
guards against blow-up and records samples the same way for each; the scheme
decides only how the state advances and how ``u`` is read from it (IF-RK4
steps ``v``, leapfrog steps ``u``). No Robert-Asselin filter is applied, so
the leapfrog scheme's weak computational mode is left undamped — prefer the
RK4 scheme for very long runs.

The quadratic term is ``_Workspace.nl``, masked at one cutoff: 2K/3 (the 2/3
rule) or K in ``evolve``, K itself on the residual probe's wider grid. Its
``FourierField`` wrapper, which the tests compare against the direct-sum
convolution, lives in ``tests/oracles.py``.

State arrays may carry a leading batch axis: ``evolve`` steps several fields
that share one ``KdvParams`` and one set of sample times as one
``(B, m/2+1)`` state, with FFTs along the last axis, and returns one
``TrajectoryRecord`` whose arrays carry the same leading axis. Each row comes
out bitwise equal to stepping that field alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import GridError, InstabilityError
from .fields import (
    FourierField,
    field_from_half_spectrum,
    half_spectrum,
    _coeffs_from_half_spectrum,
    _is_power_of_two,
)

__all__ = [
    "Scheme",
    "KdvParams",
    "TrajectoryRecord",
    "desk_params",
    "paper_params",
    "linear_propagator",
    "evolve",
]

#: Abort when the l2 norm exceeds this factor times its initial value.
BLOWUP_FACTOR = 1.0e6


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
        Grid size (power of two); the mode cutoff is m/2 - 1.
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
        if not _is_power_of_two(self.m) or self.m < 8:
            raise GridError(f"grid size must be a power of two >= 8, got {self.m}")

    @property
    def cutoff(self) -> int:
        """Mode cutoff carried by the run grid (m/2 - 1)."""
        return self.m // 2 - 1


def desk_params(**overrides) -> KdvParams:
    """Desk profile, the ``KdvParams`` defaults: IF-RK4 at dt = 1e-5 (minutes per run)."""
    return KdvParams(**overrides)


def paper_params(**overrides) -> KdvParams:
    """Full-fidelity profile: leapfrog at dt = 1e-7 (hours per run)."""
    return KdvParams(**{"scheme": Scheme.FORNBERG_WHITHAM, "dt": 1.0e-7, **overrides})


@dataclass
class TrajectoryRecord:
    """Sampled output of one ``evolve`` call.

    ``times`` holds the S actual sample instants (requested times snapped to
    the nearest step). ``coeffs`` has shape ``(..., S, 2K+1)``: modes -K..K
    at each sample, K the run grid's cutoff. ``energy_series`` and
    ``momentum_series`` have shape ``(..., S)``. The leading ``...`` is empty
    for one field and the field axis for a batch, where ``steps_total``
    counts field-steps (the steps of every field, summed).
    """

    times: np.ndarray
    coeffs: np.ndarray
    energy_series: np.ndarray
    momentum_series: np.ndarray
    steps_total: int
    params: KdvParams

    def snapshot(self, i) -> FourierField:
        """The state at sample i; for a batch, i is a (field, sample) pair."""
        return FourierField(self.coeffs[i])

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
# pointwise mode operations
# ---------------------------------------------------------------------------


def linear_propagator(fld: FourierField, t: float, a: float) -> FourierField:
    """Exact linear flow: mode k multiplied by ``exp(-i*a*k^3*t)``.

    An l2 isometry for any t; at a = 1, t = 2*pi it is the identity on
    integer modes (the linear evolution is 2*pi-periodic in time).
    """
    ks = fld.wavenumbers().astype(float)
    return FourierField(fld.coeffs * np.exp(-1j * a * ks**3 * t))


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
    out_half = ws.rk4_v_step(half_spectrum(v, m), t)
    return field_from_half_spectrum(out_half, m).with_cutoff(cutoff)


# ---------------------------------------------------------------------------
# stepping workspace (raw rfft-layout arrays, coefficient scale times m)
# ---------------------------------------------------------------------------


class _Workspace:
    """Precomputed per-run arrays for the fast stepping path.

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
        k = np.arange(m // 2 + 1, dtype=float)
        self.k3a = a * k**3
        self.mask = (k <= mask_cutoff).astype(float)
        self.ikb2 = 0.5j * b * k * self.mask
        self.E = np.exp(-0.5j * dt * self.k3a)
        self.E2 = self.E * self.E
        self.Ec = np.conj(self.E)
        self.E2c = np.conj(self.E2)
        self.sin2 = 2.0j * np.sin(self.k3a * dt)

    def nl(self, A: np.ndarray) -> np.ndarray:
        """Quadratic term ``(i*k*b/2) * F((F^-1 A)^2)`` with the run's masking."""
        s = np.fft.irfft(A * self.mask, n=self.m)
        return self.ikb2 * np.fft.rfft(s * s)

    def rk4_v_step(self, v: np.ndarray, t: float) -> np.ndarray:
        """One RK4 step of the interaction-picture state v at absolute time t.

        The only RK4 step in the package: the IF-RK4 scheme takes every step
        with it, the leapfrog scheme its bootstrap step and the normal-form
        residual probe its +/-dt steps. Kept in v-form so
        the linear flow contributes no per-step rounding (for b = 0 the state
        is bitwise constant).
        """
        P = np.exp(-1j * t * self.k3a)
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

    def u_of_v(self, v: np.ndarray, t: float) -> np.ndarray:
        """Map interaction-picture state to u at absolute time t."""
        return np.exp(-1j * t * self.k3a) * v

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
        If sample times are empty, unsorted or outside [0, t_final].
    CorruptFieldError
        If a field has a non-finite amplitude or fails the reality check.
    GridError
        If a field carries nonzero modes beyond the run grid's cutoff.
    InstabilityError
        If the blow-up guard trips (dt too large for the grid).
    """
    t_final = float(p.t_final)
    requested = np.asarray(list(sample_times), dtype=float)
    if requested.ndim != 1:
        raise ValueError("sample_times must be a flat sequence")
    if requested.size == 0:
        raise ValueError("sample_times must hold at least one time")
    if np.any(np.diff(requested) < 0.0):
        raise ValueError("sample_times must be sorted")
    tol = 1e-9 * max(1.0, abs(t_final))
    if requested[0] < -tol or requested[-1] > t_final + tol:
        raise ValueError(
            f"sample_times must lie within [0, {t_final}], got "
            f"[{requested[0]}, {requested[-1]}]"
        )

    single = isinstance(phi, FourierField)
    fields = [phi] if single else list(phi)
    run_cutoff = p.cutoff
    for j, fld in enumerate(fields):
        beyond = [k for k in fld.support() if abs(k) > run_cutoff]
        if beyond:
            raise GridError(
                f"initial field {j} has nonzero modes {beyond[:4]}... beyond "
                f"the grid cutoff {run_cutoff}"
            )

    n_steps = max(1, math.ceil(t_final / p.dt - 1e-12))
    dt_eff = t_final / n_steps
    mask_cutoff = (2 * p.cutoff) // 3 if p.dealias else p.cutoff
    ws = _Workspace(m=p.m, a=p.a, b=p.b, dt=dt_eff, mask_cutoff=mask_cutoff)

    sample_idx = [min(n_steps, max(0, int(round(s / dt_eff)))) for s in requested]

    A0 = np.stack(
        [half_spectrum(f.with_cutoff(run_cutoff).zero_mean(), p.m) for f in fields]
    )
    # bin 0 of a zero-mean field's half spectrum is exactly 0, so sum_k |A_k|^2 over
    # the stored bins is proportional to the energy, and cheap to form every step
    limits = [BLOWUP_FACTOR**2 * np.vdot(row, row).real or math.inf for row in A0]
    if single:
        A0 = A0[0]  # a lone field steps as a 1-D state, free of broadcasting

    times = np.asarray(sample_idx, dtype=float) * dt_eff
    series = A0.shape[:-1] + (len(sample_idx),)  # (..., S)
    coeffs = np.empty(series + (2 * run_cutoff + 1,), dtype=np.complex128)
    energies = np.empty(series)
    momenta = np.empty(series)

    def record(s: int, A_u: np.ndarray) -> None:
        coeffs[..., s, :] = _coeffs_from_half_spectrum(A_u, p.m)
        energies[..., s] = ws.energy(A_u)
        momenta[..., s] = A_u[..., 0].real / p.m

    def check_blowup(A: np.ndarray, idx: int) -> None:
        for j, (row, limit) in enumerate(zip(A.reshape(len(fields), -1), limits)):
            if not np.vdot(row, row).real <= limit:  # catches NaN as well
                raise InstabilityError(
                    f"l2 norm of field {j} exceeded {BLOWUP_FACTOR:.0e} times its "
                    f"initial value at t = {idx * dt_eff:.6g}; reduce dt or the grid "
                    "cutoff"
                )

    pointer = 0
    rk4 = p.scheme is Scheme.INTEGRATING_FACTOR_RK4

    def record_due(idx: int) -> None:
        nonlocal pointer
        while pointer < len(sample_idx) and sample_idx[pointer] == idx:
            record(pointer, ws.u_of_v(A, idx * dt_eff) if rk4 else A)
            pointer += 1

    A_prev, A = None, A0.copy()  # IF-RK4 steps v, leapfrog steps u
    record_due(0)
    for i in range(n_steps):
        if rk4:
            A = ws.rk4_v_step(A, i * dt_eff)
        elif i == 0:  # leapfrog bootstrap
            A_prev, A = A, ws.u_of_v(ws.rk4_v_step(A, 0.0), dt_eff)
        else:
            A_prev, A = A, ws.fw_step(A_prev, A)
        check_blowup(A, i + 1)  # |v_k| = |u_k|
        record_due(i + 1)

    return TrajectoryRecord(
        times=times,
        coeffs=coeffs,
        energy_series=energies,
        momentum_series=momenta,
        steps_total=len(fields) * n_steps,
        params=p,
    )
