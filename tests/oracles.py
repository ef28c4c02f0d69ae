"""Reference computations that only the tests use.

Each one computes what a package routine computes by a slower, more literal
route, so the tests can compare the two. The acceptance gate
(``tests/test_acceptance.py``) must not import this module: it is loaded
with only the package's ``src`` directory on the path.
"""

import numpy as np

from kdvtorus.fields import FourierField, field_from_half_spectrum, half_spectrum
from kdvtorus.integrator import _grid_for_cutoff, _Workspace
from kdvtorus.normal_form import _accumulate, _dense_support, _fft_length, _support


def nonlinear_term(u: FourierField, b: float, dealias: bool = True) -> FourierField:
    """The quadratic term ``(i*k*b/2) * (u*u)_k`` formed pseudospectrally.

    The square is taken in physical space (``_Workspace.nl``) on an internal
    power-of-two grid large enough for the field's cutoff. With ``dealias``
    set, modes above ``floor(2*K/3)`` are zeroed both before squaring and in
    the result (the 2/3 rule), which makes the retained range agree with the
    direct-sum convolution to rounding; without it the top modes carry
    aliased content, as in the classical scheme. The output is zero-mean and
    reality-respecting by construction.
    """
    cutoff = u.cutoff
    m = _grid_for_cutoff(cutoff)
    mask_cutoff = (2 * cutoff) // 3 if dealias else cutoff
    ws = _Workspace(m=m, a=0.0, b=b, dt=1.0, mask_cutoff=mask_cutoff)
    out_half = ws.nl(half_spectrum(u, m))
    return field_from_half_spectrum(out_half, m).with_cutoff(cutoff)


def b4_split(v: FourierField, t: float) -> tuple[FourierField, FourierField]:
    """The two quartic constituents of ``normal_form.b4`` before combination.

    Returns ``(part1, part2)`` over the same starred index set as ``b4``,
    each term carrying its own phase ``exp(i*psi*t)``:

    * ``part1``: ``v1..v4 / ((k1+k2)*(k1+k3+k4)*(k2+k3+k4))``
    * ``part2``: ``(k3+k4) * v1..v4 / (k1*(k1+k2)*(k1+k3+k4)*(k2+k3+k4))``

    so that ``b4 = (1/2)*part1 + part2`` holds term by term.
    """
    ks, vals = _support(v)
    cutoff = v.cutoff
    out1 = np.zeros(2 * cutoff + 1, dtype=np.complex128)
    out2 = np.zeros(2 * cutoff + 1, dtype=np.complex128)
    if ks.size == 0:
        return FourierField(out1), FourierField(out2)
    k2g, k3g, k4g = np.meshgrid(ks, ks, ks, indexing="ij")
    v234 = vals[:, None, None] * vals[None, :, None] * vals[None, None, :]
    s34 = k3g + k4g
    s234 = k2g + s34
    cube_sum = k2g**3 + k3g**3 + k4g**3
    for i in range(ks.size):
        k1 = int(ks[i])
        d_rest = (k1 + k2g) * (k1 + s34) * s234
        valid = (d_rest != 0) & (s34 != 0)  # k1 != 0 on the support
        if not np.any(valid):
            continue
        ktot = (k1 + s234)[valid]
        psi = ktot**3 - k1**3 - cube_sum[valid]
        phase = np.exp(1j * t * psi.astype(float))
        base = phase * (vals[i] * v234[valid]) / d_rest[valid].astype(float)
        _accumulate(out1, ktot, base, cutoff)
        _accumulate(out2, ktot, base * (s34[valid].astype(float) / k1), cutoff)
    return FourierField(out1), FourierField(out2)


def _seed_row_spectra(big_k: np.ndarray, modes: np.ndarray, amps: np.ndarray, n: int,
                      shift: np.ndarray | int = 0) -> np.ndarray:
    """Length-n FFT of each row K of ``amps_k/(K-k)`` (0 at k = K), at ``k - shift`` mod n.

    The kernels' row spectra as first written: a masked complex division into
    a fresh array, a 2-D scatter and an out-of-place FFT, rebuilt per spectrum.
    """
    gap = big_k - modes
    rows = np.divide(amps, gap, out=np.zeros(gap.shape, dtype=np.complex128), where=gap != 0)
    grid = np.zeros((big_k.size, n), dtype=np.complex128)
    grid[np.arange(big_k.size)[:, None], (modes - shift) % n] = rows
    return np.fft.fft(grid, axis=-1)


def seed_b2_time_zero(v: FourierField) -> FourierField:
    """``normal_form.b2`` at t = 0 as first written: the self-convolution of ``v_k/k``."""
    w = _dense_support(v)[2]
    return FourierField(np.convolve(w, w)).with_cutoff(v.cutoff)


def seed_b3_rows(v: FourierField, all_rows: bool = False) -> np.ndarray:
    """The rows K = 0..top (-top..top with ``all_rows``) of ``normal_form.b3`` at t = 0.

    The same FFT length, products and mean as the package kernel, with the
    spectra from :func:`_seed_row_spectra`.
    """
    modes, vals, w = _dense_support(v)
    top = min(v.cutoff, 3 * int(modes[-1]))
    big_k = np.arange(-top if all_rows else 0, top + 1)[:, None]
    n = _fft_length(3 * int(modes[-1]) + top + 1)
    alpha = _seed_row_spectra(big_k, modes, w, n, shift=big_k)
    beta = _seed_row_spectra(big_k, modes, vals, n)
    return np.mean(alpha * beta * beta, axis=-1)


def seed_b4_rows(v: FourierField, all_rows: bool = False) -> np.ndarray:
    """The rows K = 0..top (-top..top with ``all_rows``) of ``normal_form.b4`` at t = 0."""
    modes, vals, w = _dense_support(v)
    reach = int(modes[-1])
    pair = np.convolve(vals, vals)
    pair[2 * reach] = 0.0
    pair_modes = np.arange(-2 * reach, 2 * reach + 1)
    top = min(v.cutoff, 4 * reach)
    big_k = np.arange(-top if all_rows else 0, top + 1)[:, None]
    n = _fft_length(4 * reach + top + 1)
    alpha = _seed_row_spectra(big_k, modes, w, n)
    beta = _seed_row_spectra(big_k, modes, vals, n)
    gamma = _seed_row_spectra(big_k, pair_modes, pair, n, shift=big_k)
    s_gamma = _seed_row_spectra(big_k, pair_modes, pair_modes * pair, n, shift=big_k)
    spectral = beta * (alpha * s_gamma + 0.5 * beta * gamma)
    return np.mean(spectral, axis=-1)


def b3_all_rows(v: FourierField) -> FourierField:
    """``normal_form.b3`` at t = 0 with every output row K = -top..top transformed.

    The package kernel forms only the rows K >= 0 and mirrors the rest.
    """
    return FourierField(seed_b3_rows(v, all_rows=True)).with_cutoff(v.cutoff)


def b4_all_rows(v: FourierField) -> FourierField:
    """``normal_form.b4`` at t = 0 with every output row K = -top..top transformed."""
    return FourierField(seed_b4_rows(v, all_rows=True)).with_cutoff(v.cutoff)
