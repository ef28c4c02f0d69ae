"""Seeded gate criteria 1, 4, 5 and 8 on fresh seeds, in the fast loop.

The gate (tests/test_acceptance.py) checks each on pinned seeds; here
hypothesis draws the seed. For criteria 1, 5 and 8 the gate's own
measurement must meet the gate's bound, and fresh seeds have held with a
margin of 170x or more. Criterion 4's second-order residual crosses its
1e-8 bound at dt = 1e-5 on some fresh seeds (2.08e-8 over seeds 0-29), so
the gate keeps it on its pinned seeds, and this file checks the same
reduced equation with a fourth-order centred stencil: its order, and its
residual at h = 1e-5, hold on every seed drawn.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvtorus.fields import l2_norm, random_real_field
from kdvtorus.integrator import _alias_free_rk4_step
from kdvtorus.normal_form import b2, b3, b4, resonant_term
from test_acceptance import free_flow_return_error, homogeneity_defect, resonant_sum_defect

seeds = st.integers(0, 2**32 - 1)


@given(seed=seeds)
@settings(deadline=None, max_examples=2)
def test_criterion_01_free_flow_returns_on_fresh_draws(seed):
    assert free_flow_return_error(np.random.default_rng(seed)) < 1e-10


def fourth_order_residual(v, t: float, h: float) -> float:
    """The reduced equation's residual under a fourth-order centred stencil.

    ``C(w, tau) = w - B2(w, tau)/6 + B3(w, tau)/18`` is formed after single
    ``_alias_free_rk4_step`` steps of +-h and +-2h from v at time t, and
    ``(8*(C(h) - C(-h)) - (C(2h) - C(-2h))) / (12h)`` is compared with the
    right-hand side of ``normal_form_residual``. A step's own error is
    O(h^5), so the residual falls as h^4 until rounding takes over.
    """
    def combination(tau):
        w = _alias_free_rk4_step(v, t, tau)
        return w - (1.0 / 6.0) * b2(w, t + tau) + (1.0 / 18.0) * b3(w, t + tau)

    lhs = (1.0 / (12.0 * h)) * (
        8.0 * (combination(h) - combination(-h)) - (combination(2 * h) - combination(-2 * h))
    )
    rhs = (-1.0j / 6.0) * resonant_term(v) + (1.0j / 18.0) * b4(v, t)
    return l2_norm(lhs - rhs)


@given(seed=seeds)
@settings(deadline=None, max_examples=20)
def test_criterion_04_fourth_order_residual_on_fresh_draws(seed):
    """Order 4 from h = 3e-4 to 1e-4, and a residual below 1e-10 at h = 1e-5.

    Over 2,000 random seeds the order read 3.86-4.00 and r(1e-5) at most
    2.3e-11. The next interval, 1e-4 to 3e-5, is left out: rounding pulls
    its order down to about 3.3 at t = 0.37.
    """
    v = random_real_field(seed, support=4, cutoff=16)
    v = v * (1.0 / l2_norm(v))
    for t in (0.0, 0.37):
        coarse, fine = (fourth_order_residual(v, t, h) for h in (3e-4, 1e-4))
        assert 3.5 <= math.log(coarse / fine) / math.log(3.0) <= 4.5
        assert fourth_order_residual(v, t, 1e-5) < 1e-10


@given(seed=seeds)
@settings(deadline=None, max_examples=5)
def test_criterion_05_resonant_closed_form_on_fresh_draws(seed):
    assert resonant_sum_defect(np.random.default_rng(seed), n_fields=100) < 1e-12


@given(seed=seeds)
@settings(deadline=None, max_examples=300)
def test_criterion_08_homogeneity_on_fresh_draws(seed):
    assert homogeneity_defect(np.random.default_rng(seed)) < 1e-12
