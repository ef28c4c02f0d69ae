"""Differentiation-by-parts machinery for the interaction-picture system.

With ``v_k(t) = u_k(t) * exp(i*k^3*t)`` (coefficients a = b = 1), the torus
KdV equation becomes

    dv_k/dt = (i*k/2) * sum_{k1+k2=k} exp(3i*k*k1*k2*t) * v_{k1} v_{k2}

with all indices nonzero (zero-mean fields). Iterating integration by parts
on the oscillatory phase produces the multilinear operators

    B2(v)_k = sum_{k1+k2=k}    exp(3i*k*k1*k2*t) * v1*v2 / (k1*k2)
    B3(v)_k = sum*_{k1+k2+k3=k} exp(i*p3*t) * v1*v2*v3
                                 / (k1*(k1+k2)*(k1+k3)*(k2+k3))
    B4(v)_k = (1/2) sum*_{k1+..+k4=k} exp(i*psi*t) * (2*k3+2*k4+k1) * v1..v4
                                 / (k1*(k1+k2)*(k1+k3+k4)*(k2+k3+k4))

where ``p3 = 3*(k1+k2)*(k2+k3)*(k3+k1)``, ``psi = (k1+k2+k3+k4)^3 - k1^3 -
k2^3 - k3^3 - k4^3``, and the starred sums skip every index combination with
a vanishing denominator factor; the B4 sum additionally requires
``k3 + k4 != 0`` (those combinations belong to the resonant channel and do
not cancel between the two B4 constituents). The resonant cubic channel
collapses to the closed form ``-v_k*|v_k|^2/k``.

The reduced equation these operators satisfy — checked numerically by
:func:`normal_form_residual` with a centered difference in t — is

    d/dt ( v - B2(v)/6 + B3(v)/18 )_k  =  i*v_k*|v_k|^2/(6k) + (i/18)*B4(v)_k .

Every phase in the chain is ``K^3 - sum k_i^3`` at output mode K (the cube
identity turns ``3*k*k1*k2``, ``p3`` and ``psi`` into this form), so each
operator is conjugate to its t = 0 value by a diagonal phase:

    Bn(v, t)_K = exp(i*K^3*t) * Bn(exp(-i*k^3*t) * v, 0)_K .

``b2``, ``b3`` and ``b4`` are each one t = 0 kernel; time enters only
through that identity. At output mode K, ``k1+k2 = K-k3``, ``k1+k3 = K-k2``
and ``k2+k3 = K-k1``, so each kernel is a convolution read at K alone:

    B2_K = (w * w)_K,   w_k = v_k/k
    B3_K = sum_{k1+k2+k3=K} alpha(k1) beta(k2) beta(k3)
    B4_K = sum_{k1+k2+s=K} (alpha(k1) s + beta(k1)/2) beta(k2) gamma(s)

with ``beta(k) = v_k/(K-k)``, ``alpha(k) = beta(k)/k``, ``gamma(s) =
W(s)/(K-s)``, ``W(s) = sum_{k3+k4=s} v3*v4`` and W(0) := 0; each is 0 where
its index equals K, exactly the star's exclusions. B2 is one ``np.convolve``,
B3 and B4 one in-place FFT along the rows K = 0..top of a (K, n) array per
spectrum, each row a window of one vector of reciprocals ``1/(K-k)``. With
``v~_k = conj(v_{-k})``, ``B(v)_{-K} = conj(B(v~)_K)`` for B3 and
``-conj(B(v~)_K)`` for B4 (real coefficients, even resp. odd under k -> -k);
a real field is its own v~ and costs one set of rows, any other two. Outputs
are truncated to the storage range of v.

The per-term references the tests compare these kernels against live in
``tests/``. Two test-only names stay here: :func:`rhs_v`, the exact
double-sum right-hand side with a phase per term, and its ``_accumulate``,
because ``perfbench/tracing.py`` wraps ``normal_form.rhs_v`` by name; and
:func:`classify_resonance` with :class:`ResonanceClass`, which name the
paper's S1/S2/S3 split and which the acceptance gate imports with only the
package on its path.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from enum import Enum

import numpy as np

from .fields import FourierField, l2_norm, random_real_field, sobolev_norm
from .integrator import _alias_free_rk4_step, _linear_phase

__all__ = [
    "ResonanceClass",
    "classify_resonance",
    "b2",
    "b3",
    "b4",
    "resonant_term",
    "normal_form_residual",
    "apriori_ratios",
    "ratio_census",
    "check_identities",
]

#: Fixed seed for the ratio census suite (recorded in run manifests).
CENSUS_SEED = 1729


class ResonanceClass(Enum):
    """Classification of a cubic index triple by its vanishing phase factors."""

    S1 = "S1"  # k1+k2 = 0 and k3+k1 = 0
    S2 = "S2"  # k1+k2 = 0 only
    S3 = "S3"  # k3+k1 = 0 only
    NON_RESONANT = "NonResonant"
    EXCLUDED_ZERO_DENOMINATOR = "ExcludedZeroDenominator"


def classify_resonance(k1: int, k2: int, k3: int) -> ResonanceClass:
    """Classify a triple from the cubic sum ``k1 + k2 + k3 = k``.

    Triples with a zero index or with ``k2 + k3 = 0`` lie outside the sum's
    index set (vanishing denominator) and are tagged
    ``EXCLUDED_ZERO_DENOMINATOR`` rather than classified. The resonant set
    ``(k1+k2)(k3+k1) = 0`` splits into S1 (both factors zero), S2 (first
    only), S3 (second only); everything else is non-resonant.
    """
    if k1 == 0 or k2 == 0 or k3 == 0 or k2 + k3 == 0:
        return ResonanceClass.EXCLUDED_ZERO_DENOMINATOR
    first = k1 + k2 == 0
    second = k3 + k1 == 0
    if first and second:
        return ResonanceClass.S1
    if first:
        return ResonanceClass.S2
    if second:
        return ResonanceClass.S3
    return ResonanceClass.NON_RESONANT


def check_identities(limit: int = 20) -> dict:
    """Check the cube and factorization identities for every index in -limit..limit.

    Cube: ``(k1+k2)^3 - k1^3 - k2^3 = 3*(k1+k2)*k1*k2`` over all pairs.
    Factorization: ``k*k1 + mu*lam = (k1+mu)*(k1+lam)`` at ``k = k1+mu+lam``
    over all triples; it turns the cubic terms' mixed phase into linear
    factors. Exact integer arithmetic; each check stops at its first failure.
    Raises ValueError for a limit below 1, which checks nothing.
    """
    if limit < 1:
        raise ValueError(f"identity limit must be at least 1, got {limit}")
    rng = range(-limit, limit + 1)
    report = {"limit": limit, "cube_identity": True, "factorization_identity": True}
    for k1, k2 in itertools.product(rng, repeat=2):
        if (k1 + k2) ** 3 - k1**3 - k2**3 != 3 * (k1 + k2) * k1 * k2:
            report["cube_identity"] = False
            break
    for k1, mu, lam in itertools.product(rng, repeat=3):
        k = k1 + mu + lam
        if k * k1 + mu * lam != (k1 + mu) * (k1 + lam):
            report["factorization_identity"] = False
            break
    return report


# ---------------------------------------------------------------------------
# support extraction and accumulation helpers
# ---------------------------------------------------------------------------


def _support(v: FourierField) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero modes of a zero-mean field as aligned (k, amplitude) arrays."""
    if v.mode(0) != 0.0:
        raise ValueError("operators require a zero-mean field (u_0 = 0)")
    ks = v.wavenumbers()
    sel = np.abs(v.coeffs) != 0.0
    return ks[sel].astype(np.int64), v.coeffs[sel]


def _accumulate(out: np.ndarray, idx: np.ndarray, contrib: np.ndarray, cutoff: int) -> None:
    """Add contributions at signed output modes ``idx``, dropping |k| > cutoff."""
    keep = np.abs(idx) <= cutoff
    if not np.any(keep):
        return
    pos = (idx[keep] + cutoff).astype(np.intp)
    vals = contrib[keep]
    out += np.bincount(pos, weights=vals.real, minlength=out.size) + 1j * np.bincount(
        pos, weights=vals.imag, minlength=out.size
    )


def _dense_support(v: FourierField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Modes -M..M (M = max |k| on the support, 0 if none), v there, w = v/k (w_0 = 0)."""
    ks, _vals = _support(v)
    top = int(np.max(np.abs(ks), initial=0))
    modes = np.arange(-top, top + 1)
    vals = v.coeffs[v.cutoff - top : v.cutoff + top + 1]
    return modes, vals, np.divide(vals, modes, out=np.zeros_like(vals), where=modes != 0)


def _fft_length(span: int) -> int:
    """Smallest 2*3*5-smooth integer >= span (a fast FFT length)."""
    while True:
        rest = span
        for p in (2, 3, 5):
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return span
        span += 1


def _row_spectrum(top: int, reach: int, n: int, shifted: bool, a: np.ndarray) -> np.ndarray:
    """Length-n FFT of each row K = 0..top of ``a_k/(K-k)`` (0 at k = K), k = -reach..reach.

    Row K holds term k at column ``k - K`` mod n if shifted, else k mod n. With one
    factor shifted, the mean of a product of spectra is the sum over indices adding up
    to K; n >= the convolution's span avoids wrap-around. Each factor that varies with K
    is a window view of one vector; ``a * fl(1/g)`` has the bits of NumPy's ``a/g``.
    """
    def window(x, width):  # a view, no copy: row K is x[K:K + width]
        return np.ndarray((top + 1, width), x.dtype, x, strides=2 * x.strides)

    gaps = np.arange(top + reach, -reach - 1, -1)
    recip = np.divide(1.0, gaps, out=np.zeros(gaps.shape), where=gaps != 0)
    split = top + reach if shifted else reach  # the columns c < 0
    if shifted:  # column c = -split..reach holds a_{K+c} * 1/(-c)
        padded = np.concatenate([np.zeros(top), a, np.zeros(top)])
        amp, rec = window(padded, a.size + top), recip
    else:  # column c = -split..reach holds a_c * 1/(K-c)
        amp, rec = a, window(recip, a.size)[::-1]
    grid = np.zeros((top + 1, n), dtype=np.complex128)
    np.multiply(amp[..., :split], rec[..., :split], out=grid[:, n - split:])
    np.multiply(amp[..., split:], rec[..., split:], out=grid[:, :reach + 1])
    return np.fft.fft(grid, axis=-1, out=grid)


def _mirrored(rows: Callable, sign: float, v: FourierField) -> FourierField:
    """Rows K >= 0 from ``rows(v)``, rows K < 0 from ``sign * conj(rows(v~))``.

    Row 0, its own mirror, takes the mean of both readings, so B3 and i*B4 of
    a real field (v~ = v, one call of ``rows``) come out exactly real.
    """
    tilde = np.conj(v.coeffs[::-1])
    pos = rows(v)
    neg = sign * np.conj(pos if np.array_equal(tilde, v.coeffs) else rows(FourierField(tilde)))
    pos[0] = 0.5 * (pos[0] + neg[0])
    return FourierField(np.concatenate([neg[:0:-1], pos])).with_cutoff(v.cutoff)


def _at_time(
    kernel: Callable[[FourierField], FourierField], v: FourierField, t: float
) -> FourierField:
    """A t = 0 operator kernel evaluated at time t by the diagonal phase.

    ``B(v, t)_K = exp(i*K^3*t) * B(exp(-i*k^3*t) * v, 0)_K``; the rotation
    keeps the support of v, so the kernel sums over the same index set.
    """
    phase = _linear_phase(v.wavenumbers(), 1.0)(-t)
    return FourierField(phase * kernel(FourierField(np.conj(phase) * v.coeffs)).coeffs)


# ---------------------------------------------------------------------------
# the interaction-picture right-hand side and the B operators
# ---------------------------------------------------------------------------


def rhs_v(v: FourierField, t: float) -> FourierField:
    """Exact double-sum right-hand side of the interaction-picture system.

    A test oracle for the package's RK4 step, kept here while
    ``perfbench/tracing.py`` wraps it by name. Mode k receives ``(i*k/2) *
    exp(3i*k*k1*k2*t) * v_{k1} v_{k2}`` summed over ``k1 + k2 = k`` within
    the support; no FFT, no dealiasing, output truncated to the storage range
    of v. The k = 0 mode vanishes identically (prefactor i*k).
    """
    ks, vals = _support(v)
    cutoff = v.cutoff
    out = np.zeros(2 * cutoff + 1, dtype=np.complex128)
    for i in range(ks.size):
        k1 = int(ks[i])
        ktot = k1 + ks
        weight = 0.5j * ktot.astype(float) * (vals[i] * vals)
        if t != 0.0:
            weight = weight * np.exp(1j * t * (3 * ktot * k1 * ks).astype(float))
        _accumulate(out, ktot, weight, cutoff)
    return FourierField(out)


def b2(v: FourierField, t: float) -> FourierField:
    """First differentiation-by-parts boundary operator (bilinear).

    ``B2(v)_k = sum_{k1+k2=k} exp(3i*k*k1*k2*t) * v1*v2/(k1*k2)`` over the
    support of v (indices are nonzero because v is zero-mean). Note the
    k = 0 output mode is generally nonzero (e.g. ``-2|c|^2`` for a single
    conjugate pair with amplitude c).
    """
    return _at_time(_b2_time_zero, v, t)


def _b2_time_zero(v: FourierField) -> FourierField:
    """B2 at t = 0: the self-convolution of ``w_k = v_k / k``."""
    w = _dense_support(v)[2]
    return FourierField(np.convolve(w, w)).with_cutoff(v.cutoff)


def b3(v: FourierField, t: float) -> FourierField:
    """Second-level boundary operator (trilinear).

    ``B3(v)_k = sum* exp(i*p3*t) * v1*v2*v3 / (k1*(k1+k2)*(k1+k3)*(k2+k3))``
    over ``k1+k2+k3 = k``, where ``p3 = 3*(k1+k2)*(k2+k3)*(k3+k1)`` and the
    star skips every triple with a vanishing denominator factor.
    """
    return _at_time(lambda w: _mirrored(_b3_rows, 1.0, w), v, t)


def _b3_rows(v: FourierField) -> np.ndarray:
    """B3 at t = 0, rows K = 0..top: ``(alpha_K * beta_K * beta_K)(K)``."""
    modes, vals, w = _dense_support(v)
    reach = int(modes[-1])
    top = min(v.cutoff, 3 * reach)
    n = _fft_length(3 * reach + top + 1)
    beta = _row_spectrum(top, reach, n, False, vals)
    # Unnamed spectra let NumPy's temporary elision (arrays >= 256 KiB) reuse
    # their buffers; the operand order stays fixed, since with FMA complex a*b
    # and b*a can differ in the last bit. ``x * (temporary)`` is elided to
    # ``temporary * x`` above the threshold only, so a name or out= moves digits.
    return np.mean(_row_spectrum(top, reach, n, True, w) * beta * beta, axis=-1)


def b4(v: FourierField, t: float) -> FourierField:
    """Third-level boundary operator (quartic), combined single-sum form.

    ``B4(v)_k = (1/2) sum* exp(i*psi*t) * (2*k3+2*k4+k1) * v1*v2*v3*v4 /
    (k1*(k1+k2)*(k1+k3+k4)*(k2+k3+k4))`` with
    ``psi = (k1+k2+k3+k4)^3 - sum k_i^3``; the starred set additionally
    excludes ``k3+k4 = 0`` (resonant channel). Equal term by term to half
    the first plus the second of the two quartic constituents that the
    per-term reference in ``tests/oracles.py`` sums separately.
    """
    return _at_time(lambda w: _mirrored(_b4_rows, -1.0, w), v, t)


def _b4_rows(v: FourierField) -> np.ndarray:
    """B4 at t = 0, rows K = 0..top: a cubic sum against ``W(s)``, s = k3 + k4."""
    modes, vals, w = _dense_support(v)
    reach = int(modes[-1])
    pair = np.convolve(vals, vals)
    pair[2 * reach] = 0.0
    pair_modes = np.arange(-2 * reach, 2 * reach + 1)
    top = min(v.cutoff, 4 * reach)
    n = _fft_length(4 * reach + top + 1)
    beta = _row_spectrum(top, reach, n, False, vals)  # the shape: see _b3_rows
    spectral = beta * (_row_spectrum(top, reach, n, False, w)
                       * _row_spectrum(top, 2 * reach, n, True, pair_modes * pair)
                       + 0.5 * beta * _row_spectrum(top, 2 * reach, n, True, pair))
    return np.mean(spectral, axis=-1)


def resonant_term(v: FourierField) -> FourierField:
    """Closed form of the resonant cubic channel: mode k gets ``-v_k*|v_k|^2/k``.

    The channel collects the triples with ``(k1+k2)(k3+k1) = 0`` inside the
    cubic sum; the S2 and S3 families cancel pairwise under ``j -> -j``,
    leaving only the diagonal S1 contribution. Time-independent (the
    resonant phase vanishes identically).
    """
    ks = v.wavenumbers().astype(float)
    out = np.zeros_like(v.coeffs)
    nz = ks != 0.0
    out[nz] = -v.coeffs[nz] * np.abs(v.coeffs[nz]) ** 2 / ks[nz]
    return FourierField(out)


# ---------------------------------------------------------------------------
# reduced-equation residual
# ---------------------------------------------------------------------------


def normal_form_residual(v: FourierField, t: float, dt: float) -> float:
    """Centered-difference residual of the reduced equation at time t.

    The field is advanced one step forward and one backward with the
    package's RK4 step (``integrator._Workspace.rk4_v_step``, free of
    aliasing), the combination ``C(w, tau) = w - B2(w, tau)/6 + B3(w, tau)/18``
    is differenced across [t - dt, t + dt], and the result is compared with
    the reduced right-hand side ``i*v_k|v_k|^2/(6k) + (i/18)*B4(v, t)_k`` at
    the center. Converges to zero at O(dt^2) as dt -> 0; any sign or phase
    error in the operator chain leaves an O(1) floor instead.

    v must be real (``v_{-k} = conj(v_k)``, as the closed-form resonant term
    assumes) with support M <= K/4, K the storage range, so that ``B4(v)``
    (support 4M) is whole; else ValueError. The step's later stages reach 2K
    and are cut at K, like the exact sums truncated at K.
    A t and dt with no digits left to difference (``t +- dt == t`` or
    ``(|t| + dt) K^3 >= 2^53``) raise ValueError, as does a dt whose +-dt
    step leaves every nonzero mode of v bitwise unchanged.
    """
    if not 0.0 < dt < math.inf:  # NaN fails every comparison
        raise ValueError(f"dt must be positive and finite, got {dt}")
    ks, _vals = _support(v)
    if 4 * int(np.max(np.abs(ks), initial=0)) > v.cutoff:
        raise ValueError(
            f"support max |k| = {int(np.max(np.abs(ks)))} exceeds a quarter of "
            f"the storage range {v.cutoff}; widen the cutoff"
        )
    K = v.cutoff  # a non-finite t is refused by the step's phase
    if math.isfinite(t) and (t + dt == t or t - dt == t or (abs(t) + dt) * K**3 >= 2.0**53):
        raise ValueError(f"t = {t} and dt = {dt} leave no digits to difference: t +- dt "
                         f"rounds to t or (|t| + dt)*K^3 >= 2^53 (K = {K})")

    v_plus = _alias_free_rk4_step(v, t, dt)
    v_minus = _alias_free_rk4_step(v, t, -dt)
    on = v.coeffs != 0.0  # v's support
    if on.any() and any(np.array_equal(w.coeffs[on], v.coeffs[on]) for w in (v_plus, v_minus)):
        raise ValueError(f"dt = {dt} is too small to move the field at t = {t}: a step "
                         "of +-dt leaves every nonzero mode bitwise unchanged")

    def combination(w: FourierField, tau: float) -> FourierField:
        return w - (1.0 / 6.0) * b2(w, tau) + (1.0 / 18.0) * b3(w, tau)

    lhs = (1.0 / (2.0 * dt)) * (
        combination(v_plus, t + dt) - combination(v_minus, t - dt)
    )
    rhs = (-1.0j / 6.0) * resonant_term(v) + (1.0j / 18.0) * b4(v, t)
    return l2_norm(lhs - rhs)


# ---------------------------------------------------------------------------
# a-priori estimate ratios
# ---------------------------------------------------------------------------


def apriori_ratios(v: FourierField) -> dict[str, float]:
    """Left/right ratios of the five a-priori operator estimates (t = 0 phases).

    Each ratio divides an operator norm by the product of field norms the
    corresponding estimate allows, so boundedness of the ratio across a
    field census is the numerical content of the estimate. The fractional
    exponents in r3/r4 instantiate the estimates' "epsilon of room" at 0.1.
    A non-finite ratio raises ValueError naming it.
    """
    norm_l2 = l2_norm(v)
    if norm_l2 == 0.0:
        raise ValueError("a-priori ratios are undefined for the zero field")
    norm_hm = sobolev_norm(v, -0.5)
    b4_field = b4(v, 0.0)
    ratios = {
        # |B2| / |v|_{H^-1/2}^2
        "r1": l2_norm(b2(v, 0.0)) / norm_hm**2,
        # |B3| / (|v|_{H^-1/2}^2 |v|)
        "r2": l2_norm(b3(v, 0.0)) / (norm_hm**2 * norm_l2),
        # |B4| / (|v|_{H^-1/2}^0.9 |v|^3.1)
        "r3": l2_norm(b4_field) / (norm_hm**0.9 * norm_l2**3.1),
        # |B4|_{H^-1/2} / (|v|_{H^-1/2}^1.9 |v|^2.1)
        "r4": sobolev_norm(b4_field, -0.5) / (norm_hm**1.9 * norm_l2**2.1),
        # |v_k^3/k| / (|v|_{H^-1/2}^2 |v|)
        "r5": l2_norm(resonant_term(v)) / (norm_hm**2 * norm_l2),
    }
    bad = [name for name, value in ratios.items() if not math.isfinite(value)]
    if bad:
        raise ValueError(f"non-finite a-priori ratios: {', '.join(bad)}")
    return ratios


def ratio_census(count: int = 100, support: int = 32) -> dict[str, float]:
    """Max of each estimate ratio over the ``CENSUS_SEED`` random-field suite.

    Fields carry independent complex Gaussian amplitudes on modes
    1..support (conjugate-symmetric), with storage wide enough (4x support)
    that no operator output truncates. The maxima serve as frozen
    regression constants: the estimates assert boundedness, not values.
    A count below 1 raises ``ValueError`` (no maxima would read as bounded).
    """
    if count < 1:
        raise ValueError(f"census count must be at least 1, got {count}")
    rng = np.random.default_rng(CENSUS_SEED)
    maxima = {name: 0.0 for name in ("r1", "r2", "r3", "r4", "r5")}
    for _ in range(count):
        fld = random_real_field(rng, support, cutoff=4 * support)
        for name, value in apriori_ratios(fld).items():
            maxima[name] = max(maxima[name], value)
    return maxima
