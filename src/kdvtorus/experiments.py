"""Experiment drivers: Hermite data, return tests, pullbacks, epsilon sweeps.

The common thread is measuring how far the nonlinear flow strays from the
free dispersive flow.  With ``v_k(t) = u_k(t) e^{i a k^3 t}`` the deviation
``|v(t) - v(0)|`` in coefficient space equals ``|u(t) - S(t) phi|`` exactly
(S is the linear propagator; the map between the two differences is a
diagonal unitary), and both evaluations are carried along so the identity
itself is checked at every sample.

Initial data throughout is the scaled odd Gaussian

    u(x) = (A / sqrt(eps)) * (x / eps) * exp(-x^2 / (2 eps^2)),

which concentrates at |x| ~ eps; shrinking eps raises the field's frequency
content while leaving its physical L^2 energy fixed.  Scaling runs rescale
to unit coefficient norm so that only the H^{-1/2} size varies.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .fields import (FourierField, analyze, field_from_half_spectrum, grid_points, l2_norm,
                     sobolev_norm, synthesize)
from .integrator import KdvParams, TrajectoryRecord, _linear_phase, evolve, linear_propagator

__all__ = [
    "TailAliasWarning",
    "HermiteSpec",
    "hermite_initial",
    "near_linearity_report",
    "return_experiment",
    "pullback_comparison",
    "epsilon_sweep",
]

#: Relative tail size at |x| = pi above which periodization is flagged.
TAIL_TOLERANCE = 1.0e-12

#: Early time at which the short-time physical-space snapshot is taken.
SNAPSHOT_TIME = 0.2

#: Momentum is conserved identically by the discretization; anything above
#: this is a bug, not drift.
_MOMENTUM_TOLERANCE = 1.0e-14

#: Agreement required between the two deviation evaluations, times max(1, |phi|).
_IDENTITY_TOLERANCE = 1.0e-12


class TailAliasWarning(UserWarning):
    """Gaussian tail at the domain edge is large enough to alias."""


@dataclass(frozen=True)
class HermiteSpec:
    """Width and amplitude of the odd-Gaussian initial profile.

    epsilon is the concentration width (0 < epsilon <= 1); amplitude is the
    prefactor A.  The physical maximum sits at x = epsilon with value
    (A/sqrt(eps)) e^{-1/2}, and the physical energy integral is
    A^2 sqrt(pi)/2 independent of epsilon.
    """

    epsilon: float
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        if not (0.0 < self.epsilon <= 1.0) or not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if not math.isfinite(self.amplitude) or self.amplitude <= 0.0:
            raise ValueError(f"amplitude must be positive, got {self.amplitude}")


def hermite_initial(spec: HermiteSpec, m: int) -> FourierField:
    """Sample the odd-Gaussian profile on an m-point grid and analyze it.

    The function is odd, so the mean mode vanishes up to rounding and the
    zero-mean projection built into analysis is a no-op.  If the Gaussian
    tail at |x| = pi exceeds TAIL_TOLERANCE relative to the peak, the
    2pi-periodization visibly differs from the line profile and a
    TailAliasWarning is issued (epsilon <= 0.4 is comfortably below it).
    A ValueError naming epsilon and m is raised when the data's norm is zero
    (a width far below the spacing 2*pi/m leaves no sample), and one naming
    the amplitude when the norm overflows double precision.
    """
    x = grid_points(m)
    eps = spec.epsilon
    scale = spec.amplitude / math.sqrt(eps)
    samples = np.zeros_like(x)
    near = (x != 0.0) & (np.abs(x) < 40.0 * eps)  # the Gaussian factor underflows beyond
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused below
        samples[near] = scale * (x[near] / eps) * np.exp(-(x[near] ** 2) / (2.0 * eps**2))
        phi = analyze(samples)
        norm = l2_norm(phi)
        tail = abs(samples[0]) / (scale * math.exp(-0.5))  # x_0 = -pi, peak at x = eps
    if tail > TAIL_TOLERANCE:
        warnings.warn(
            f"odd-Gaussian tail at |x| = pi is {tail:.2e} of the peak "
            f"for epsilon = {eps}; periodization will alias",
            TailAliasWarning,
            stacklevel=2,
        )
    if not norm < math.inf:
        raise ValueError(f"odd-Gaussian data at amplitude = {spec.amplitude} has a norm too "
                         "large for double precision")
    if norm == 0.0:
        raise ValueError(f"odd-Gaussian data at epsilon = {eps} has norm {norm} on an m = "
                         f"{m} grid (a nonzero norm needs a width the spacing 2*pi/m resolves)")
    return phi


@dataclass(frozen=True)
class NearLinearityReport:
    """One audited run: deviation-from-linear-flow series and diagnostics.

    errors[i] is |v(t_i) - v(0)| at the i-th landed sample time;
    identity_defect_max is the largest observed disagreement between the
    interaction-picture and physical-side evaluations of the same quantity
    (zero in exact arithmetic).  For a batch of fields, errors holds one
    entry per field and identity_defect_max is the largest over them.  The
    data the run starts from is ``record.initial``.
    """

    errors: tuple
    identity_defect_max: float
    record: TrajectoryRecord

    def diagnostics(self) -> dict:
        """The manifest's run block; energy_drift is the worst over a batch."""
        return {
            "identity_defect_max": self.identity_defect_max,
            "energy_drift": float(np.max(self.record.energy_drift())),
            "max_momentum": self.record.max_momentum(),
        }


def near_linearity_report(phi, p: KdvParams, sample_times) -> NearLinearityReport:
    """Evolve phi and measure the deviation from the free flow at each sample.

    ``phi`` is one field or a sequence of them, stepped together as one batch
    as in ``evolve``.  Both evaluations of the deviation are computed per
    sample: the interaction-picture difference |v(t) - v(0)| and the
    physical-side difference |u(t) - S(t) phi|.  Both rotate the same sampled
    row by the same phase, and a unit-modulus phase maps one vector onto the
    other, so they agree whatever the evolution did: a disagreement above
    1e-12 * max(1, |phi|) means the phase has left the unit circle, and that
    raises rather than returning corrupt diagnostics (the bound scales with
    the data, as rounding does).  It does not check the scheme; gate
    criteria 1, 4 and 10 and the energy drift do.  Momentum is checked against
    its structural zero.  An empty ``sample_times`` raises ValueError, as in
    ``evolve``: with no sample there is nothing to audit.
    """
    record = evolve(phi, p, sample_times)
    if record.max_momentum() > _MOMENTUM_TOLERANCE:
        raise RuntimeError(
            f"momentum mode drifted to {record.max_momentum():.3e}; "
            "the discretization conserves it identically"
        )
    single = isinstance(record.initial, FourierField)
    initial = (record.initial,) if single else record.initial
    rows = record.half_spectra.reshape((len(initial),) + record.half_spectra.shape[-2:])
    errors, defects = zip(*(_audit(record, r, f) for r, f in zip(rows, initial)))
    return NearLinearityReport(
        errors=errors[0] if single else errors,
        identity_defect_max=max(defects),
        record=record,
    )


def _audit(
    record: TrajectoryRecord, rows: np.ndarray, phi_run: FourierField
) -> tuple[tuple[float, ...], float]:
    """Deviation series of one field's sample rows, with the identity check.

    ``rows`` is that field's ``(S, m/2+1)`` slice of ``record.half_spectra``.
    One row at a time is mirrored out to modes -K..K, so no ``(S, 2K+1)``
    array is formed. Returns the deviations and the largest identity defect.

    The phase ``exp(+i*a*k^3*t)`` is formed on the modes 0..K and mirrored,
    conjugated, onto -K..-1: the full-range ``exp`` up to the sign of zero
    imaginary parts (at t = 0), which the norms square away.
    """
    cutoff = phi_run.cutoff
    phase_at = _linear_phase(np.arange(cutoff + 1), record.params.a)
    phase = np.empty(2 * cutoff + 1, dtype=np.complex128)  # modes -K..K
    bound = _IDENTITY_TOLERANCE * max(1.0, l2_norm(phi_run))
    errors = []
    defect_max = 0.0
    for t, half in zip(record.times, rows):
        u = field_from_half_spectrum(half, record.params.m).coeffs
        phase[cutoff:] = phase_at(-t)  # exp(+i*a*k^3*t); its conjugate is S(t)
        np.conj(phase[:cutoff:-1], out=phase[:cutoff])
        err_ip = float(np.linalg.norm(u * phase - phi_run.coeffs))
        err_phys = float(np.linalg.norm(u - phi_run.coeffs * np.conj(phase)))
        defect = abs(err_ip - err_phys)
        defect_max = max(defect_max, defect)
        if defect > bound:
            raise RuntimeError(
                f"interaction-picture identity violated at t = {t}: "
                f"|v-v0| = {err_ip:.6e} vs |u - S(t)phi| = {err_phys:.6e} > {bound:.1e}"
            )
        errors.append(err_ip)
    return tuple(errors), defect_max


@dataclass(frozen=True)
class ReturnReport:
    """Outcome of one full-period return run (T = 2 pi, a = 1)."""

    return_error_rel: float
    snapshot_time: float
    snapshot_sup_ratio: float
    initial_physical_energy: float
    snapshot: FourierField
    run: NearLinearityReport


def _sup_norm(fld: FourierField, m: int) -> float:
    return float(np.max(np.abs(synthesize(fld, m))))


def return_experiment(spec: HermiteSpec, p: KdvParams) -> ReturnReport:
    """Evolve odd-Gaussian data for one linear period and measure the return.

    Requires a = 1 so that the free flow has period exactly 2 pi; t_final
    is overridden to 2 pi.  The report carries the relative return error
    |u(2 pi) - phi| / |phi|, the deviation series along the way, and the
    early-time snapshot showing the transient physical-space dispersion
    (its sup norm is far below the initial peak while the spectrum is
    barely disturbed).
    """
    if p.a != 1.0:
        raise ValueError(
            f"return test needs a = 1 for the 2 pi linear period, got a = {p.a}"
        )
    period = 2.0 * math.pi
    p_run = replace(p, t_final=period)
    phi = hermite_initial(spec, p.m)
    times = sorted(set(np.linspace(0.0, period, 17)) | {SNAPSHOT_TIME})
    run = near_linearity_report(phi, p_run, times)
    record = run.record
    phi_run = record.initial
    snap_pos = int(np.argmin(np.abs(record.times - SNAPSHOT_TIME)))
    snapshot = record.snapshot(snap_pos)
    norm0 = l2_norm(phi_run)
    return ReturnReport(
        return_error_rel=l2_norm(record.snapshot(-1) - phi_run) / norm0,
        snapshot_time=record.times[snap_pos],
        snapshot_sup_ratio=_sup_norm(snapshot, p.m) / _sup_norm(phi_run, p.m),
        initial_physical_energy=2.0 * math.pi * norm0**2,
        snapshot=snapshot,
        run=run,
    )


@dataclass(frozen=True)
class PullbackReport:
    """Nonlinear evolution pulled back through the reverse linear flow.

    discrepancy_rel is |S(-T) u(T) - phi| / |phi|, the run's audited
    deviation |v(T) - v(0)| relative to the data.
    """

    discrepancy_rel: float
    pulled_back: FourierField
    run: NearLinearityReport


def pullback_comparison(spec: HermiteSpec, p: KdvParams) -> PullbackReport:
    """Evolve to p.t_final, undo the linear flow, and compare against the data.

    The pullback S(-T) u(T) isolates the cumulative nonlinear effect; for
    near-linear dynamics it lands almost on top of phi while u(T) itself
    looks nothing like phi in physical space.
    """
    phi = hermite_initial(spec, p.m)
    run = near_linearity_report(phi, p, [0.0, p.t_final])
    return PullbackReport(
        discrepancy_rel=run.errors[-1] / l2_norm(run.record.initial),
        pulled_back=linear_propagator(run.record.snapshot(-1), -run.record.times[-1], p.a),
        run=run,
    )


@dataclass(frozen=True)
class SweepResult:
    """Scaling of the deviation at fixed T across profile widths.

    Runs are ordered by decreasing epsilon.  fitted_slope is the
    least-squares slope of log(error at T) against log |phi|_{H^-1/2}; it
    is NaN when any terminal error sits at rounding level, as happens with
    the nonlinearity switched off.
    """

    epsilons: tuple[float, ...]
    hm_norms: tuple[float, ...]
    errors_at_t: tuple[float, ...]
    fitted_slope: float
    run: NearLinearityReport


# Terminal errors at or below this are rounding noise on a unit-norm field,
# not signal; a log-log fit through them would report a meaningless slope.
_DEGENERATE_ERROR = 1.0e-13


def epsilon_sweep(epsilons, p: KdvParams, t_final: float) -> SweepResult:
    """Probe the deviation-vs-frequency-content scaling law.

    For each width the odd-Gaussian data is rescaled to unit coefficient
    norm, so its H^{-1/2} norm (which shrinks as the width does) is the
    only moving part.  The widths are stepped together as one batched
    ``near_linearity_report``, in order of decreasing epsilon.
    """
    eps_sorted = tuple(sorted({float(e) for e in epsilons}, reverse=True))
    if len(eps_sorted) < 3:
        raise ValueError(
            f"need at least 3 distinct widths for a meaningful fit, got {len(eps_sorted)}"
        )
    fields = []
    for eps in eps_sorted:
        phi_raw = hermite_initial(HermiteSpec(epsilon=eps), p.m)
        fields.append((1.0 / l2_norm(phi_raw)) * phi_raw)  # zero-mean, run cutoff
    run = near_linearity_report(fields, replace(p, t_final=t_final), [0.0, t_final])
    hm_norms = tuple(sobolev_norm(phi, -0.5) for phi in fields)
    errors = tuple(errs[-1] for errs in run.errors)
    if any(err <= _DEGENERATE_ERROR for err in errors):
        slope = float("nan")
    else:  # least squares in closed form: np.polyfit's first LAPACK call adds 1 MB of RSS
        x, y = np.log(hm_norms), np.log(errors)
        x -= x.mean()  # both centred: the intercept drops out, and so does y's mean
        slope = float(np.dot(x, y - y.mean()) / np.dot(x, x))
    return SweepResult(
        epsilons=eps_sorted,
        hm_norms=hm_norms,
        errors_at_t=errors,
        fitted_slope=slope,
        run=run,
    )
