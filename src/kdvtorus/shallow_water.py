"""Parameter algebra linking physical water-wave scales to the KdV regime.

Everything here is stateless arithmetic on the two classical smallness
parameters: alpha = a/h0 (amplitude over depth) and beta = h0^2/l^2
(squared depth over wavelength). The KdV model is the balanced regime
alpha ~ beta << 1; the width-modified scaling a -> a/sqrt(eps),
l -> eps*l trades smallness for frequency content and pays for it with
the mismatch term alpha_eps + beta_eps^2/alpha_eps. A ratio that is not
finite in double precision raises ValueError rather than reading inf.

The map onto the torus equation: xi = l*x, t = (l/c0)*s and eta = a*u turn the
surface KdV eta_t + (3c0/2h0)*eta*eta_xi + (c0*h0^2/6)*eta_xixixi = 0 (in the
frame moving at c0) into u_s + (3*alpha/2)*u*u_x + (beta/6)*u_xxx = 0; after the
reflection x -> -x, ``KdvParams``' coefficients are (beta/6, 3*alpha/2), so
``pullback``'s (1/6, 3/2) is alpha = beta = 1. A validity window s ~ 1/alpha is
the horizon l/(c0*alpha) seconds that ``dimensionless`` reports.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

__all__ = [
    "GRAVITY",
    "ShallowWaterRegime",
    "dimensionless",
    "RegimeReport",
    "validate_regime",
]

#: Standard gravitational acceleration in m/s^2.
GRAVITY = 9.81


@dataclass(frozen=True)
class ShallowWaterRegime:
    """Dimensionless summary of a configuration.

    Attributes:
        alpha: Amplitude/depth ratio a/h0.
        beta: Squared depth/wavelength ratio h0^2/l^2.
        c0: Linear long-wave speed sqrt(g*h0) in m/s.
        t_phys_scale: Physical horizon l/(c0*alpha) in seconds over which
            the KdV approximation is expected to track the flow.
    """

    alpha: float
    beta: float
    c0: float
    t_phys_scale: float


def dimensionless(*, a: float, h0: float, l: float, g: float = GRAVITY) -> ShallowWaterRegime:
    """Reduce physical scales to the dimensionless regime parameters.

    Args:
        a: Characteristic surface amplitude in meters; below ``h0``.
        h0: Rest depth in meters.
        l: Characteristic wavelength in meters.
        g: Gravitational acceleration in m/s^2. Each scale must be finite and positive.

    Returns:
        The regime summary; the time horizon converts the dimensionless
        validity window t ~ 1/alpha back to seconds through the travel
        time l/c0 of one wavelength.
    """
    for name, value in (("a", a), ("h0", h0), ("l", l), ("g", g)):
        if not math.isfinite(value) or value <= 0.0:
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if not a < h0:
        raise ValueError(f"small-amplitude regime requires a < h0, got a = {a}, h0 = {h0}")
    alpha, c0 = a / h0, math.sqrt(g * h0)
    return ShallowWaterRegime(*_finite(f"the regime of a = {a}, h0 = {h0}, l = {l}, g = {g}",
                                       lambda: (alpha, h0**2 / l**2, c0, l / (c0 * alpha))))


def _finite(what: str, ratios: Callable[[], tuple]) -> tuple:
    """``ratios()``, or ValueError naming ``what`` when one of them is not finite."""
    try:
        values = ratios()
        if all(math.isfinite(v) for v in values):
            return values
    except (OverflowError, ZeroDivisionError):  # from ``**``; from a denominator that underflowed
        pass
    raise ValueError(f"{what}: not finite in double precision")


@dataclass(frozen=True)
class RegimeReport:
    """Outcome of a smallness audit of the width-modified parameters.

    Attributes:
        alpha_eps: Modified amplitude ratio.
        beta_eps: Modified dispersion ratio.
        mismatch: Expected relative model error over an O(1) time.
        threshold: Smallness cutoff both ratios are compared against.
        alpha_ok: Whether alpha_eps < threshold.
        beta_ok: Whether beta_eps < threshold.
        valid: Both ratios below threshold.
    """

    alpha_eps: float
    beta_eps: float
    mismatch: float
    threshold: float
    alpha_ok: bool
    beta_ok: bool
    valid: bool


def validate_regime(delta: float, eps: float, threshold: float = 0.1) -> RegimeReport:
    """Audit whether the width-modified parameters still qualify as small.

    Boosting the amplitude by 1/sqrt(eps) and shrinking the wavelength by
    eps turns a balanced alpha = beta = delta configuration into
    alpha_eps = delta/sqrt(eps), beta_eps = delta/eps^2. The reduction
    drops terms of order alpha + beta^2/alpha, so the mismatch

        alpha_eps + beta_eps^2/alpha_eps = delta/sqrt(eps) + delta/eps^3.5

    is the expected relative model error over an O(1) dimensionless time:
    exactly 2*delta at eps = 1, homogeneous of degree one in delta.

    Args:
        delta: Balanced smallness parameter; finite and nonnegative.
        eps: Width parameter in (0, 1]; eps = 1 recovers (delta, delta).
        threshold: Cutoff for "much smaller than one" (default 0.1); must
            be finite and positive, else ValueError.

    Returns:
        A report flagging each ratio against the threshold and carrying
        the mismatch value as the expected relative model error.
    """
    if not math.isfinite(threshold) or threshold <= 0.0:
        raise ValueError(f"threshold must be finite and positive, got {threshold}")
    if not math.isfinite(delta) or delta < 0.0:
        raise ValueError(f"delta must be finite and nonnegative, got {delta}")
    if not (0.0 < eps <= 1.0):
        raise ValueError(f"eps must lie in (0, 1], got {eps}")
    alpha_eps, beta_eps = _finite(f"alpha_eps, beta_eps at delta = {delta}, eps = {eps}",
                                  lambda: (delta / math.sqrt(eps), delta / eps**2))
    error = 0.0 if delta == 0.0 else _finite(
        f"mismatch at delta = {delta}, eps = {eps}",
        lambda: (alpha_eps + beta_eps**2 / alpha_eps,))[0]
    alpha_ok, beta_ok = alpha_eps < threshold, beta_eps < threshold
    return RegimeReport(alpha_eps, beta_eps, error, threshold, alpha_ok, beta_ok,
                        alpha_ok and beta_ok)
