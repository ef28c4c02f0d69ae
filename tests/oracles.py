"""Reference computations that only the tests use.

Each one computes what a package routine computes by a slower, more literal
route, so the tests can compare the two. The acceptance gate
(``tests/test_acceptance.py``) must not import this module: it is loaded
with only the package's ``src`` directory on the path.
"""

import numpy as np

from kdvtorus.fields import FourierField, field_from_half_spectrum, half_spectrum
from kdvtorus.integrator import _grid_for_cutoff, _Workspace
from kdvtorus.normal_form import _accumulate, _support


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
