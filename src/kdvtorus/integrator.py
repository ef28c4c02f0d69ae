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
the same state. No Robert-Asselin filter is applied, so the leapfrog scheme's
weak computational mode is left undamped — prefer the RK4 scheme for very
long runs.

One ``evolve`` call is strictly sequential; distinct calls share no mutable
state and may run concurrently.
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
    _is_power_of_two,
)

__all__ = [
    "Scheme",
    "KdvParams",
    "TrajectoryRecord",
    "desk_params",
    "paper_params",
    "linear_propagator",
    "to_interaction_picture",
    "from_interaction_picture",
    "nonlinear_term",
    "evolve",
]

#: Abort when the l2 norm exceeds this factor times its initial value.
BLOWUP_FACTOR = 1.0e6


class Scheme(Enum):
    """Available time-stepping schemes."""

    FORNBERG_WHITHAM = "fornberg-whitham"
    INTEGRATING_FACTOR_RK4 = "if-rk4"

    @staticmethod
    def coerce(value) -> "Scheme":
        """Accept a Scheme, its name, or its string value."""
        if isinstance(value, Scheme):
            return value
        for member in Scheme:
            if value in (member.value, member.name):
                return member
        raise ValueError(
            f"unknown scheme {value!r}; expected one of "
            f"{[member.value for member in Scheme]}"
        )


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
        object.__setattr__(self, "scheme", Scheme.coerce(self.scheme))
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
    """Desk profile: IF-RK4 at dt = 1e-5, m = 2**9 (minutes per run)."""
    base = dict(
        a=1.0,
        b=1.0,
        dt=1.0e-5,
        t_final=1.0,
        m=512,
        scheme=Scheme.INTEGRATING_FACTOR_RK4,
        dealias=True,
    )
    base.update(overrides)
    return KdvParams(**base)


def paper_params(**overrides) -> KdvParams:
    """Full-fidelity profile: leapfrog at dt = 1e-7 (hours per run)."""
    base = dict(
        a=1.0,
        b=1.0,
        dt=1.0e-7,
        t_final=1.0,
        m=512,
        scheme=Scheme.FORNBERG_WHITHAM,
        dealias=True,
    )
    base.update(overrides)
    return KdvParams(**base)


@dataclass
class TrajectoryRecord:
    """Sampled output of one ``evolve`` call.

    ``times`` holds the actual sample instants (requested times snapped to
    the nearest step); all sequences have equal length, one entry per
    requested sample.
    """

    times: np.ndarray
    requested_times: np.ndarray
    snapshots: list
    energy_series: np.ndarray
    momentum_series: np.ndarray
    dt_effective: float
    steps_total: int
    params: KdvParams

    def __post_init__(self) -> None:
        n = len(self.times)
        if not (
            len(self.requested_times)
            == len(self.snapshots)
            == len(self.energy_series)
            == len(self.momentum_series)
            == n
        ):
            raise ValueError("trajectory series must have equal lengths")

    def energy_drift(self) -> float:
        """Max relative deviation of the energy series from its first entry."""
        if len(self.energy_series) == 0:
            return math.nan
        e0 = float(self.energy_series[0])
        if e0 == 0.0:
            return math.nan
        return float(np.max(np.abs(self.energy_series - e0)) / abs(e0))

    def max_momentum(self) -> float:
        """Largest |momentum| over the samples (should be 0 for zero-mean data)."""
        if len(self.momentum_series) == 0:
            return math.nan
        return float(np.max(np.abs(self.momentum_series)))


# ---------------------------------------------------------------------------
# pointwise mode operations
# ---------------------------------------------------------------------------


def _phase_array(fld: FourierField, t: float, a: float, sign: float) -> np.ndarray:
    ks = fld.wavenumbers().astype(float)
    return np.exp(sign * 1j * a * ks**3 * t)


def linear_propagator(fld: FourierField, t: float, a: float) -> FourierField:
    """Exact linear flow: mode k multiplied by ``exp(-i*a*k^3*t)``.

    An l2 isometry for any t; at a = 1, t = 2*pi it is the identity on
    integer modes (the linear evolution is 2*pi-periodic in time).
    """
    return FourierField(fld.coeffs * _phase_array(fld, t, a, -1.0))


def to_interaction_picture(u: FourierField, t: float, a: float) -> FourierField:
    """Change of variable ``v_k = u_k * exp(+i*a*k^3*t)`` removing the linear flow."""
    return FourierField(u.coeffs * _phase_array(u, t, a, +1.0))


def from_interaction_picture(v: FourierField, t: float, a: float) -> FourierField:
    """Inverse of :func:`to_interaction_picture`."""
    return FourierField(v.coeffs * _phase_array(v, t, a, -1.0))


# ---------------------------------------------------------------------------
# pseudospectral nonlinear term
# ---------------------------------------------------------------------------


def _grid_for_cutoff(cutoff: int) -> int:
    m = 8
    while m < 2 * (cutoff + 1):
        m *= 2
    return m


def nonlinear_term(u: FourierField, b: float, dealias: bool = True) -> FourierField:
    """The quadratic term ``(i*k*b/2) * (u*u)_k`` formed pseudospectrally.

    The square is taken in physical space on an internal power-of-two grid
    large enough for the field's cutoff. With ``dealias`` set, modes above
    ``floor(2*K/3)`` are zeroed both before squaring and in the result (the
    2/3 rule), which makes the retained range agree with the exact
    convolution oracle to rounding; without it the top modes carry aliased
    content, as in the classical scheme. The output is zero-mean and
    reality-respecting by construction.
    """
    cutoff = u.cutoff
    m = _grid_for_cutoff(cutoff)
    ws = _Workspace(m=m, a=0.0, b=b, dealias=dealias, dealias_cutoff_of=cutoff, dt=1.0)
    out_half = ws.nl(half_spectrum(u, m))
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
    the physical-space square is one irfft/rfft pair away.
    """

    __slots__ = (
        "m",
        "dt",
        "k",
        "k3a",
        "mask",
        "ikb2",
        "E",
        "E2",
        "Ec",
        "E2c",
        "sin2",
        "two_dt",
    )

    def __init__(
        self,
        m: int,
        a: float,
        b: float,
        dealias: bool,
        dt: float,
        dealias_cutoff_of: int | None = None,
    ) -> None:
        self.m = m
        self.dt = dt
        cutoff = m // 2 - 1
        ref = cutoff if dealias_cutoff_of is None else dealias_cutoff_of
        kc = (2 * ref) // 3 if dealias else ref
        k = np.arange(m // 2 + 1, dtype=float)
        self.k = k
        self.k3a = a * k**3
        self.mask = (k <= kc).astype(float)
        self.ikb2 = 0.5j * b * k * self.mask
        self.E = np.exp(-0.5j * dt * self.k3a)
        self.E2 = self.E * self.E
        self.Ec = np.conj(self.E)
        self.E2c = np.conj(self.E2)
        self.sin2 = 2.0j * np.sin(self.k3a * dt)
        self.two_dt = 2.0 * dt

    def nl(self, A: np.ndarray) -> np.ndarray:
        """Quadratic term ``(i*k*b/2) * F((F^-1 A)^2)`` with the run's masking."""
        s = np.fft.irfft(A * self.mask, n=self.m)
        return self.ikb2 * np.fft.rfft(s * s)

    def rk4_v_step(self, v: np.ndarray, t: float) -> np.ndarray:
        """One RK4 step of the interaction-picture state v at absolute time t.

        The only RK4 step in the package: the IF-RK4 scheme takes every step
        with it and the leapfrog scheme its bootstrap step. Kept in v-form so
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
        return A_prev - self.sin2 * A_cur + self.two_dt * self.nl(A_cur)

    def u_of_v(self, v: np.ndarray, t: float) -> np.ndarray:
        """Map interaction-picture state to u at absolute time t."""
        return np.exp(-1j * t * self.k3a) * v

    def energy(self, A: np.ndarray) -> float:
        """Coefficient-scale energy sum |u_k|^2 over the symmetric range."""
        total = abs(A[0]) ** 2 + 2.0 * float(np.sum(np.abs(A[1:]) ** 2))
        return total / (self.m * self.m)


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------


def evolve(phi: FourierField, p: KdvParams, sample_times) -> TrajectoryRecord:
    """Integrate from ``phi`` to ``p.t_final``, sampling at the given times.

    The requested step is refined to ``dt_eff = t_final / n`` with
    ``n = ceil(t_final / dt)``, and each sample time is snapped to the
    nearest step index (the recorded ``times`` are the actual instants,
    ``t = index * dt_eff``). Energy ``sum |u_k|^2`` and momentum ``u_0``
    are recorded at every sample; a blow-up guard aborts if the l2 norm
    ever exceeds 1e6 times its initial value.

    Raises
    ------
    ValueError
        If sample times are unsorted or outside [0, t_final].
    GridError
        If ``phi`` carries nonzero modes beyond the run grid's cutoff.
    InstabilityError
        If the blow-up guard trips (dt too large for the grid).
    """
    t_final = float(p.t_final)
    requested = np.asarray(list(sample_times), dtype=float)
    if requested.ndim != 1:
        raise ValueError("sample_times must be a flat sequence")
    if requested.size and np.any(np.diff(requested) < 0.0):
        raise ValueError("sample_times must be sorted")
    tol = 1e-9 * max(1.0, abs(t_final))
    if requested.size and (
        requested[0] < -tol or requested[-1] > t_final + tol
    ):
        raise ValueError(
            f"sample_times must lie within [0, {t_final}], got "
            f"[{requested[0]}, {requested[-1]}]"
        )

    run_cutoff = p.cutoff
    if phi.cutoff > run_cutoff:
        beyond = [k for k in phi.support() if abs(k) > run_cutoff]
        if beyond:
            raise GridError(
                f"initial data has nonzero modes {beyond[:4]}... beyond the "
                f"grid cutoff {run_cutoff}"
            )
    phi_run = phi.with_cutoff(run_cutoff).zero_mean()

    n_steps = max(1, math.ceil(t_final / p.dt - 1e-12))
    dt_eff = t_final / n_steps
    ws = _Workspace(m=p.m, a=p.a, b=p.b, dealias=p.dealias, dt=dt_eff)

    sample_idx = [min(n_steps, max(0, int(round(s / dt_eff)))) for s in requested]

    A0 = half_spectrum(phi_run, p.m)
    A0[0] = 0.0  # zero-mean state
    e0 = ws.energy(A0)
    threshold = (BLOWUP_FACTOR**2) * e0 if e0 > 0.0 else math.inf

    times: list[float] = []
    snapshots: list[FourierField] = []
    energies: list[float] = []
    momenta: list[float] = []

    def record(idx: int, A_u: np.ndarray) -> None:
        times.append(idx * dt_eff)
        fld = field_from_half_spectrum(A_u, p.m)
        fld.require_real()  # structural, but asserted per snapshot
        snapshots.append(fld)
        energies.append(ws.energy(A_u))
        momenta.append(float(A_u[0].real) / p.m)

    def check_blowup(A: np.ndarray, idx: int) -> None:
        if not ws.energy(A) <= threshold:  # catches NaN as well
            raise InstabilityError(
                f"l2 norm exceeded {BLOWUP_FACTOR:.0e} times its initial value "
                f"at t = {idx * dt_eff:.6g}; reduce dt or the grid cutoff"
            )

    pointer = 0

    def record_due(idx: int, state_to_u) -> None:
        nonlocal pointer
        while pointer < len(sample_idx) and sample_idx[pointer] == idx:
            record(idx, state_to_u())
            pointer += 1

    if p.scheme is Scheme.INTEGRATING_FACTOR_RK4:
        v = A0.copy()
        record_due(0, lambda: ws.u_of_v(v, 0.0))
        for i in range(n_steps):
            v = ws.rk4_v_step(v, i * dt_eff)
            check_blowup(v, i + 1)  # |v_k| = |u_k|
            record_due(i + 1, lambda: ws.u_of_v(v, (i + 1) * dt_eff))
    else:
        A_prev = A0.copy()
        record_due(0, lambda: A_prev)
        A_cur = ws.u_of_v(ws.rk4_v_step(A_prev, 0.0), dt_eff)  # bootstrap
        check_blowup(A_cur, 1)
        record_due(1, lambda: A_cur)
        for i in range(1, n_steps):
            A_prev, A_cur = A_cur, ws.fw_step(A_prev, A_cur)
            check_blowup(A_cur, i + 1)
            record_due(i + 1, lambda: A_cur)

    return TrajectoryRecord(
        times=np.asarray(times),
        requested_times=requested,
        snapshots=snapshots,
        energy_series=np.asarray(energies),
        momentum_series=np.asarray(momenta),
        dt_effective=dt_eff,
        steps_total=n_steps,
        params=p,
    )
