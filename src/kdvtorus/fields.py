"""Fourier-side representation of real periodic fields on the 2*pi torus.

Conventions used throughout the package
---------------------------------------
* Physical domain: ``x in [-pi, pi)``, sampled at ``x_j = -pi + 2*pi*j/M``.
* Coefficients: ``u_k = (1/2*pi) * integral(u(x) * exp(-i*k*x) dx)``, i.e. the
  discrete analysis sum ``u_k = (1/M) * sum_j u(x_j) * exp(-i*k*x_j)``.
* Reality: real fields satisfy ``u_{-k} = conj(u_k)``.
* State fields (initial data, trajectory snapshots) are zero-mean: ``u_0 = 0``.
  The container itself tolerates a nonzero mean because convolution results
  legitimately carry one; the mean is projected out at the state boundaries.
* The canonical norm is the plain l2 norm of the coefficient sequence; the
  physical L2 norm differs by a factor sqrt(2*pi) (Parseval).

`FourierField` is an immutable value: its amplitudes are a read-only copy and
every operation returns a new instance, so a field is never changed in place.

The exact coefficient convolution ``(f*g)_k = sum_{k1+k2=k} f_{k1} g_{k2}``
needs no helper: ``FourierField(np.convolve(f.coeffs, g.coeffs))`` is that
direct sum, with cutoff ``K_f + K_g``, and is what the tests check the
pseudospectral product against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "grid_points",
    "FourierField",
    "analyze",
    "synthesize",
    "l2_norm",
    "sobolev_norm",
    "write_field_csv",
    "random_real_field",
]

#: Relative tolerance for the reality invariant (double precision, M <= 2**12).
REALITY_TOL = 1e-12


def _require_grid(m, minimum: int = 4) -> None:
    """The one grid-size rule: an integer power of two, at least ``minimum``."""
    if not isinstance(m, (int, np.integer)) or m < 1 or m & (m - 1):
        raise ValueError(f"grid size must be a power of two, got {m!r}")
    if m < minimum:
        raise ValueError(f"grid size must be at least {minimum}, got {m}")


def grid_points(m: int) -> np.ndarray:
    """The m torus sample points ``x_j = -pi + 2*pi*j/m`` (read-only, increasing from -pi).

    Raises ``ValueError`` unless m is a power of two, at least 4.
    """
    _require_grid(m)
    pts = -np.pi + 2.0 * np.pi * np.arange(int(m)) / int(m)
    pts.setflags(write=False)
    return pts


@dataclass(frozen=True, eq=False)
class FourierField:
    """Complex mode amplitudes ``u_k`` for ``k = -cutoff .. cutoff``.

    The amplitudes are stored in a read-only complex array ordered by
    increasing k; ``coeffs[k + cutoff]`` is the mode-k amplitude. Amplitudes
    for ``|k| > cutoff`` are implicitly zero.
    """

    coeffs: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.coeffs, dtype=np.complex128, copy=True)
        if arr.ndim != 1 or arr.size % 2 != 1:
            raise ValueError(
                "coefficient array must be one-dimensional with odd length "
                f"(modes -K..K), got shape {arr.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_modes(modes: dict, cutoff: int | None = None) -> "FourierField":
        """Build a field from a ``{k: amplitude}`` mapping.

        The cutoff defaults to the largest |k| present (at least 1).
        """
        if cutoff is None:
            cutoff = max((abs(int(k)) for k in modes), default=1)
            cutoff = max(cutoff, 1)
        out = np.zeros(2 * cutoff + 1, dtype=np.complex128)
        for k, val in modes.items():
            k = int(k)
            if abs(k) > cutoff:
                raise ValueError(f"mode {k} outside cutoff {cutoff}")
            out[k + cutoff] = val
        return FourierField(out)

    # -- basic accessors ----------------------------------------------------

    @property
    def cutoff(self) -> int:
        """Largest represented |k|."""
        return (self.coeffs.size - 1) // 2

    def mode(self, k: int) -> complex:
        """Amplitude u_k (zero for |k| beyond the cutoff)."""
        if abs(k) > self.cutoff:
            return 0.0 + 0.0j
        return complex(self.coeffs[k + self.cutoff])

    def wavenumbers(self) -> np.ndarray:
        """Integer wavenumbers -K..K aligned with ``coeffs``."""
        return np.arange(-self.cutoff, self.cutoff + 1)

    def support(self) -> list[int]:
        """Wavenumbers with nonzero amplitude, in increasing order."""
        ks = self.wavenumbers()
        return [int(k) for k in ks[np.abs(self.coeffs) != 0.0]]

    # -- invariants ---------------------------------------------------------

    def reality_defect(self) -> float:
        """Max |u_{-k} - conj(u_k)| over the stored range (0 for real fields)."""
        return float(np.max(np.abs(self.coeffs[::-1] - np.conj(self.coeffs))))

    def require_real(self) -> None:
        """Raise ``ValueError`` if the reality invariant fails.

        Any non-finite amplitude fails. The tolerance ``REALITY_TOL`` is
        relative to the largest amplitude (with a floor of 1, so exact zero
        fields pass trivially).
        """
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("field has non-finite amplitudes")
        scale = max(1.0, float(np.max(np.abs(self.coeffs))))
        defect = self.reality_defect()
        if defect > REALITY_TOL * scale:
            raise ValueError(
                f"reality invariant violated: defect {defect:.3e} exceeds "
                f"{REALITY_TOL:.1e} * scale {scale:.3e}"
            )

    def zero_mean(self) -> "FourierField":
        """Copy with the k = 0 mode projected out."""
        out = np.array(self.coeffs, copy=True)
        out[self.cutoff] = 0.0
        return FourierField(out)

    # -- structural operations ----------------------------------------------

    def with_cutoff(self, cutoff: int) -> "FourierField":
        """Copy truncated or zero-extended to the given cutoff."""
        if cutoff < 1:
            raise ValueError(f"cutoff must be positive, got {cutoff}")
        out = np.zeros(2 * cutoff + 1, dtype=np.complex128)
        keep = min(cutoff, self.cutoff)
        out[cutoff - keep : cutoff + keep + 1] = self.coeffs[
            self.cutoff - keep : self.cutoff + keep + 1
        ]
        return FourierField(out)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other: "FourierField") -> "FourierField":
        big = max(self.cutoff, other.cutoff)
        return FourierField(
            self.with_cutoff(big).coeffs + other.with_cutoff(big).coeffs
        )

    def __sub__(self, other: "FourierField") -> "FourierField":
        big = max(self.cutoff, other.cutoff)
        return FourierField(
            self.with_cutoff(big).coeffs - other.with_cutoff(big).coeffs
        )

    def __mul__(self, scalar) -> "FourierField":
        return FourierField(self.coeffs * complex(scalar))

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# transforms
# ---------------------------------------------------------------------------


def analyze(samples) -> FourierField:
    """Discrete Fourier analysis of real samples on the torus grid.

    Parameters
    ----------
    samples : sequence of float
        Real values at ``x_j = -pi + 2*pi*j/M``; the length M must be a
        power of two (at least 4).

    Returns
    -------
    FourierField
        Field with cutoff ``M/2 - 1`` and ``u_k = (1/M) sum_j s_j e^{-i k x_j}``,
        zero-mean projected.

    Raises
    ------
    ValueError
        If the sample count is not a power of two, at least 4.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"samples must be one-dimensional, got shape {arr.shape}")
    m = arr.size
    _require_grid(m)
    # the rfft of the samples is the field's raw half spectrum (half_spectrum)
    return field_from_half_spectrum(np.fft.rfft(arr), m)


def synthesize(fld: FourierField, m: int) -> np.ndarray:
    """Evaluate a field at the m torus sample points.

    Parameters
    ----------
    fld : FourierField
        Coefficients to synthesize; reality is enforced.
    m : int
        Number of sample points; must satisfy ``m >= 2*cutoff + 2``.

    Returns
    -------
    numpy.ndarray
        Real samples ``u(x_j) = sum_k u_k e^{i k x_j}``.

    Raises
    ------
    ValueError
        If m is too small for the field's cutoff, or the reality invariant is
        violated beyond tolerance.
    """
    return np.fft.irfft(half_spectrum(fld, m), n=m)


def half_spectrum(fld: FourierField, m: int) -> np.ndarray:
    """Raw rfft-layout spectrum (length m//2 + 1) of the field's samples.

    Entry j equals ``numpy.fft.rfft(synthesize(fld, m))[j]`` exactly: the
    alternating sign undoes the grid's -pi offset and the factor m matches
    rfft's unnormalized forward convention. Used by the integrator's fast
    path; the reality invariant is enforced and the +/-k pair symmetrized
    (discarding the checked imaginary residue).
    """
    cutoff = fld.cutoff
    if m < 2 * cutoff + 2:
        raise ValueError(
            f"grid size {m} too small for cutoff {cutoff} (need >= {2 * cutoff + 2})"
        )
    fld.require_real()
    half = np.zeros(m // 2 + 1, dtype=np.complex128)
    pos = 0.5 * (fld.coeffs[cutoff:] + np.conj(fld.coeffs[cutoff::-1]))
    half[: cutoff + 1] = _alternating_signs(m)[: cutoff + 1] * pos * m
    return half


@cache
def _alternating_signs(m: int) -> np.ndarray:
    """``(-1)^k`` over the modes 0..m/2 - 1 of an m-point grid: built once per m, read-only."""
    signs = np.where(np.arange(m // 2) % 2 == 0, 1.0, -1.0)
    signs.flags.writeable = False
    return signs


def field_from_half_spectrum(half: np.ndarray, m: int) -> FourierField:
    """Inverse of :func:`half_spectrum`: rebuild the symmetric-range field.

    The result has cutoff m//2 - 1 (the half-spectrum's last bin is the
    unrepresentable Nyquist mode and must be zero) and is zero-mean
    projected, matching :func:`analyze` of the corresponding samples.
    """
    if half.ndim != 1 or half.size != m // 2 + 1:
        raise ValueError(
            f"half spectrum must be one row of m//2 + 1 = {m // 2 + 1} bins, "
            f"got shape {half.shape}"
        )
    cutoff = m // 2 - 1
    # (signs * half) / m: dividing first would move signs of zero, and so the CSVs
    pos = _alternating_signs(m) * half[: cutoff + 1] / m
    out = np.empty(2 * cutoff + 1, dtype=np.complex128)
    out[cutoff:] = pos
    out[:cutoff] = np.conj(pos[:0:-1])
    out[cutoff] = 0.0
    return FourierField(out)


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------


def l2_norm(fld: FourierField) -> float:
    """Canonical norm: sqrt(sum_k |u_k|^2) over the coefficient sequence."""
    return float(np.linalg.norm(fld.coeffs))


def sobolev_norm(fld: FourierField, s: float) -> float:
    """Homogeneous Sobolev norm ``(sum_{k != 0} |k|^{2s} |u_k|^2)^{1/2}``.

    The k = 0 term is excluded for every s, so negative orders are
    well-defined on zero-mean fields; equals :func:`l2_norm` at s = 0 for
    such fields.
    """
    ks = fld.wavenumbers().astype(float)
    mask = ks != 0.0
    weights = np.abs(ks[mask]) ** (2.0 * s)
    return float(math.sqrt(np.sum(weights * np.abs(fld.coeffs[mask]) ** 2)))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _write_csv(path, header, rows) -> None:
    """Write ``\\n``-terminated CSV lines: floats (NumPy's too) by ``repr``, others by ``str``."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(repr(float(c)) if isinstance(c, float) else str(c) for c in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_field_csv(fld: FourierField, path) -> None:
    """Write the field as CSV rows ``k,re,im`` (one row per stored mode)."""
    ks = range(-fld.cutoff, fld.cutoff + 1)
    _write_csv(path, ["k", "re", "im"],
               zip(ks, fld.coeffs.real.tolist(), fld.coeffs.imag.tolist()))


# ---------------------------------------------------------------------------
# seeded random fields (property tests and ratio censuses)
# ---------------------------------------------------------------------------


def random_real_field(seed, support: int, cutoff: int | None = None) -> FourierField:
    """Deterministic random real zero-mean field.

    Modes ``1..support`` get independent standard complex Gaussian
    amplitudes (fixed draw order), with conjugate negative modes. ``seed``
    may be an integer or an existing ``numpy.random.Generator``.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if cutoff is None:
        cutoff = support
    if support < 1 or support > cutoff:
        raise ValueError(f"support must lie in 1..cutoff, got {support}")
    out = np.zeros(2 * cutoff + 1, dtype=np.complex128)
    for k in range(1, support + 1):
        z = complex(rng.standard_normal(), rng.standard_normal())
        out[cutoff + k] = z
        out[cutoff - k] = np.conj(z)
    return FourierField(out)
