"""Seeded gate criteria 1, 5 and 8 on fresh seeds, in the fast loop.

The gate (tests/test_acceptance.py) checks each on one pinned seed; here
hypothesis draws the seed and the same measurement must meet the same bound.
Fresh seeds have held with a margin of 170x or more. Criterion 4 is not
here: its second-order residual crosses its bound on some fresh seeds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from test_acceptance import free_flow_return_error, homogeneity_defect, resonant_sum_defect

seeds = st.integers(0, 2**32 - 1)


@given(seed=seeds)
@settings(deadline=None, max_examples=2)
def test_criterion_01_free_flow_returns_on_fresh_draws(seed):
    assert free_flow_return_error(np.random.default_rng(seed)) < 1e-10


@given(seed=seeds)
@settings(deadline=None, max_examples=5)
def test_criterion_05_resonant_closed_form_on_fresh_draws(seed):
    assert resonant_sum_defect(np.random.default_rng(seed), n_fields=100) < 1e-12


@given(seed=seeds)
@settings(deadline=None, max_examples=300)
def test_criterion_08_homogeneity_on_fresh_draws(seed):
    assert homogeneity_defect(np.random.default_rng(seed)) < 1e-12
