"""Parameter algebra linking physical water-wave scales to the KdV regime.

Everything here is stateless arithmetic on the two classical smallness
parameters: alpha = a/h0 (amplitude over depth) and beta = h0^2/l^2
(squared depth over wavelength). The KdV model is the balanced regime
alpha ~ beta << 1; the width-modified scaling a -> a/sqrt(eps),
l -> eps*l trades smallness for frequency content and pays for it with
the mismatch term alpha_eps + beta_eps^2/alpha_eps.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .errors import DomainError

__all__ = [
    "GRAVITY",
    "PhysicalParams",
    "ShallowWaterRegime",
    "dimensionless",
    "epsilon_modified",
    "mismatch",
    "RegimeReport",
    "validate_regime",
]

#: Standard gravitational acceleration in m/s^2.
GRAVITY = 9.81


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional scales of a shallow-water configuration.

    Attributes:
        a: Characteristic surface amplitude in meters.
        h0: Rest depth in meters.
        l: Characteristic wavelength in meters.
        g: Gravitational acceleration in m/s^2.
    """

    a: float
    h0: float
    l: float
    g: float = GRAVITY

    def __post_init__(self) -> None:
        for name in ("a", "h0", "l", "g"):
            value = getattr(self, name)
            if not math.isfinite(value) or value <= 0.0:
                raise DomainError(f"{name} must be finite and positive, got {value}")
        if not self.a < self.h0:
            raise DomainError(
                f"small-amplitude regime requires a < h0, got a = {self.a}, h0 = {self.h0}"
            )


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


def dimensionless(p: PhysicalParams) -> ShallowWaterRegime:
    """Reduce physical scales to the dimensionless regime parameters.

    Args:
        p: Validated physical configuration.

    Returns:
        The regime summary; the time horizon converts the dimensionless
        validity window t ~ 1/alpha back to seconds through the travel
        time l/c0 of one wavelength.
    """
    alpha = p.a / p.h0
    beta = p.h0**2 / p.l**2
    c0 = math.sqrt(p.g * p.h0)
    return ShallowWaterRegime(
        alpha=alpha,
        beta=beta,
        c0=c0,
        t_phys_scale=p.l / (c0 * alpha),
    )


def _check_delta_eps(delta: float, eps: float) -> None:
    if not math.isfinite(delta) or delta < 0.0:
        raise DomainError(f"delta must be finite and nonnegative, got {delta}")
    if not (0.0 < eps <= 1.0):
        raise DomainError(f"eps must lie in (0, 1], got {eps}")


def epsilon_modified(delta: float, eps: float) -> tuple[float, float]:
    """Width-modified smallness parameters.

    Boosting the amplitude by 1/sqrt(eps) and shrinking the wavelength by
    eps turns a balanced alpha = beta = delta configuration into

        alpha_eps = delta / sqrt(eps),    beta_eps = delta / eps^2.

    Args:
        delta: The balanced smallness parameter (alpha = beta = delta).
        eps: Width parameter in (0, 1]; eps = 1 recovers (delta, delta).

    Returns:
        The pair (alpha_eps, beta_eps).
    """
    _check_delta_eps(delta, eps)
    return delta / math.sqrt(eps), delta / eps**2


def mismatch(delta: float, eps: float) -> float:
    """Size of the neglected terms in the width-modified KdV reduction.

    The reduction drops terms of order alpha + beta^2/alpha; under the
    modified scaling this evaluates to

        delta / sqrt(eps) + delta / eps^3.5,

    which is the expected relative model error over an O(1) dimensionless
    time. Exactly 2*delta at eps = 1 and homogeneous of degree one in
    delta.
    """
    alpha_eps, beta_eps = epsilon_modified(delta, eps)
    if delta == 0.0:
        return 0.0
    return alpha_eps + beta_eps**2 / alpha_eps


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

    @property
    def valid(self) -> bool:
        return self.alpha_ok and self.beta_ok

    def as_dict(self) -> dict:
        return {**asdict(self), "valid": self.valid}


def validate_regime(delta: float, eps: float, threshold: float = 0.1) -> RegimeReport:
    """Audit whether the modified parameters still qualify as small.

    Args:
        delta: Balanced smallness parameter.
        eps: Width parameter in (0, 1].
        threshold: Cutoff for "much smaller than one" (default 0.1); must
            be finite and positive, else DomainError.

    Returns:
        A report flagging each ratio against the threshold and carrying
        the mismatch value as the expected relative model error.
    """
    if not math.isfinite(threshold) or threshold <= 0.0:
        raise DomainError(f"threshold must be finite and positive, got {threshold}")
    alpha_eps, beta_eps = epsilon_modified(delta, eps)
    return RegimeReport(
        alpha_eps=alpha_eps,
        beta_eps=beta_eps,
        mismatch=mismatch(delta, eps),
        threshold=threshold,
        alpha_ok=alpha_eps < threshold,
        beta_ok=beta_eps < threshold,
    )
