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

`FourierField` is an immutable value: every operation returns a new instance,
so fields are safe to share across threads.

The exact coefficient convolution ``(f*g)_k = sum_{k1+k2=k} f_{k1} g_{k2}``
needs no helper: ``FourierField(np.convolve(f.coeffs, g.coeffs))`` is that
direct sum, with cutoff ``K_f + K_g``, and is what the tests check the
pseudospectral product against.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptFieldError, GridError

__all__ = [
    "Grid",
    "FourierField",
    "analyze",
    "synthesize",
    "l2_norm",
    "sobolev_norm",
    "write_field_csv",
    "read_field_csv",
    "random_real_field",
]

#: Relative tolerance for the reality invariant (double precision, M <= 2**12).
REALITY_TOL = 1e-12


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform sample grid ``x_j = -pi + 2*pi*j/m`` on the torus.

    Parameters
    ----------
    m : int
        Number of sample points; must be a power of two, at least 4.

    Attributes
    ----------
    points : numpy.ndarray
        The m sample locations in radians, increasing from -pi.
    """

    m: int
    points: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.m, (int, np.integer)) or not _is_power_of_two(int(self.m)):
            raise GridError(f"grid size must be a power of two, got {self.m!r}")
        if self.m < 4:
            raise GridError(f"grid size must be at least 4, got {self.m}")
        pts = -np.pi + 2.0 * np.pi * np.arange(int(self.m)) / int(self.m)
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)


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
        """Raise :class:`CorruptFieldError` if the reality invariant fails.

        Any non-finite amplitude fails. The tolerance ``REALITY_TOL`` is
        relative to the largest amplitude (with a floor of 1, so exact zero
        fields pass trivially).
        """
        if not np.all(np.isfinite(self.coeffs)):
            raise CorruptFieldError("field has non-finite amplitudes")
        scale = max(1.0, float(np.max(np.abs(self.coeffs))))
        defect = self.reality_defect()
        if defect > REALITY_TOL * scale:
            raise CorruptFieldError(
                f"reality invariant violated: defect {defect:.3e} exceeds "
                f"{REALITY_TOL:.1e} * scale {scale:.3e}"
            )

    def mean_mode(self) -> complex:
        """The k = 0 amplitude."""
        return complex(self.coeffs[self.cutoff])

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
    GridError
        If the sample count is not a power of two.
    """
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1:
        raise GridError(f"samples must be one-dimensional, got shape {arr.shape}")
    m = arr.size
    if not _is_power_of_two(m) or m < 4:
        raise GridError(f"sample count must be a power of two >= 4, got {m}")
    # the rfft of the samples is the field's raw half spectrum (half_spectrum)
    return FourierField(_coeffs_from_half_spectrum(np.fft.rfft(arr), m))


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
    GridError
        If m is too small for the field's cutoff.
    CorruptFieldError
        If the reality invariant is violated beyond tolerance.
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
        raise GridError(
            f"grid size {m} too small for cutoff {cutoff} (need >= {2 * cutoff + 2})"
        )
    fld.require_real()
    half = np.zeros(m // 2 + 1, dtype=np.complex128)
    pos = 0.5 * (fld.coeffs[cutoff:] + np.conj(fld.coeffs[cutoff::-1]))
    ks = np.arange(cutoff + 1)
    half[: cutoff + 1] = np.where(ks % 2 == 0, 1.0, -1.0) * pos * m
    return half


def field_from_half_spectrum(half: np.ndarray, m: int) -> FourierField:
    """Inverse of :func:`half_spectrum`: rebuild the symmetric-range field.

    The result has cutoff m//2 - 1 (the half-spectrum's last bin is the
    unrepresentable Nyquist mode and must be zero) and is zero-mean
    projected, matching :func:`analyze` of the corresponding samples.
    """
    if half.ndim != 1 or half.size != m // 2 + 1:
        raise GridError(
            f"half spectrum must have length m//2 + 1 = {m // 2 + 1}, got {half.size}"
        )
    return FourierField(_coeffs_from_half_spectrum(half, m))


def _coeffs_from_half_spectrum(half: np.ndarray, m: int) -> np.ndarray:
    """Array form of :func:`field_from_half_spectrum` over any leading axes.

    Maps ``(..., m//2 + 1)`` half spectra to ``(..., m - 1)`` coefficient
    rows (modes -K..K, K = m//2 - 1).
    """
    cutoff = m // 2 - 1
    ks = np.arange(cutoff + 1)
    pos = np.where(ks % 2 == 0, 1.0, -1.0) * half[..., : cutoff + 1] / m
    out = np.empty(half.shape[:-1] + (2 * cutoff + 1,), dtype=np.complex128)
    out[..., cutoff:] = pos
    out[..., :cutoff] = np.conj(pos[..., :0:-1])
    out[..., cutoff] = 0.0
    return out


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


def read_field_csv(path) -> FourierField:
    """Read a field written by :func:`write_field_csv`.

    Raises ``ValueError`` on a bad header, a row without exactly three
    cells, no rows or a repeated k, and :class:`CorruptFieldError` unless the
    field is finite, zero-mean and real.
    """
    modes: dict[int, complex] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["k", "re", "im"]:
            raise ValueError(f"unexpected field CSV header: {header!r}")
        for row in reader:
            if len(row) != 3:
                raise ValueError(
                    f"field CSV line {reader.line_num} has {len(row)} cells, not 3: {row!r}"
                )
            k = int(row[0])
            if k in modes:
                raise ValueError(f"field CSV repeats mode k = {k}")
            modes[k] = float(row[1]) + 1j * float(row[2])
    if not modes:
        raise ValueError("field CSV contains no rows")
    cutoff = max(abs(k) for k in modes)
    fld = FourierField.from_modes(modes, cutoff=max(cutoff, 1))
    fld.require_real()
    if fld.mean_mode() != 0.0:
        raise CorruptFieldError(f"field CSV has nonzero mean u_0 = {fld.mean_mode()}")
    return fld


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
