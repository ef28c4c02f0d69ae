"""Physical-scale reduction and the width-modified smallness bookkeeping."""

import math

import numpy as np
import pytest

from kdvtorus.errors import DomainError
from kdvtorus.shallow_water import (
    GRAVITY,
    PhysicalParams,
    dimensionless,
    epsilon_modified,
    mismatch,
    validate_regime,
)


class TestPhysicalParams:
    def test_reference_configuration(self):
        """1 m waves on 100 m depth with 1 km wavelength: both ratios 0.01."""
        regime = dimensionless(PhysicalParams(a=1.0, h0=100.0, l=1000.0))
        assert regime.alpha == 0.01
        assert regime.beta == 0.01
        assert regime.c0 == pytest.approx(math.sqrt(GRAVITY * 100.0), rel=1e-15)
        assert regime.c0 == pytest.approx(31.3209, abs=1e-4)
        assert regime.t_phys_scale == pytest.approx(3192.75, abs=0.5)

    def test_horizon_formula(self):
        p = PhysicalParams(a=0.5, h0=20.0, l=300.0)
        regime = dimensionless(p)
        assert regime.t_phys_scale == pytest.approx(
            p.l / (regime.c0 * regime.alpha), rel=1e-15
        )

    def test_amplitude_must_stay_below_depth(self):
        with pytest.raises(DomainError, match="a < h0"):
            PhysicalParams(a=100.0, h0=100.0, l=1000.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_scales_must_be_positive_and_finite(self, bad):
        with pytest.raises(DomainError, match="finite and positive"):
            PhysicalParams(a=1.0, h0=100.0, l=bad)


class TestEpsilonModified:
    def test_reference_values(self):
        alpha_eps, beta_eps = epsilon_modified(0.01, 0.4)
        assert alpha_eps == pytest.approx(0.01 / math.sqrt(0.4), rel=1e-15)
        assert beta_eps == pytest.approx(0.01 / 0.16, rel=1e-15)

    def test_unit_width_changes_nothing(self):
        assert epsilon_modified(0.02, 1.0) == (0.02, 0.02)

    def test_zero_delta_collapses_both(self):
        assert epsilon_modified(0.0, 0.3) == (0.0, 0.0)

    def test_domain_guards(self):
        with pytest.raises(DomainError, match="delta must be finite"):
            epsilon_modified(-0.1, 0.4)
        with pytest.raises(DomainError, match=r"eps must lie in \(0, 1\]"):
            epsilon_modified(0.01, 0.0)
        with pytest.raises(DomainError, match=r"eps must lie in \(0, 1\]"):
            epsilon_modified(0.01, 1.2)


class TestMismatch:
    def test_reference_value(self):
        """delta/sqrt(eps) + delta/eps^3.5 at (0.01, 0.4)."""
        assert mismatch(0.01, 0.4) == pytest.approx(0.2628639, abs=1e-6)
        expected = 0.01 / math.sqrt(0.4) + 0.01 / 0.4**3.5
        assert mismatch(0.01, 0.4) == pytest.approx(expected, rel=1e-14)

    def test_unit_width_gives_twice_delta(self):
        for delta in (0.001, 0.02, 0.3):
            assert mismatch(delta, 1.0) == pytest.approx(2.0 * delta, rel=1e-15)

    def test_zero_delta_is_exactly_zero(self):
        assert mismatch(0.0, 0.7) == 0.0

    def test_homogeneous_of_degree_one_in_delta(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            delta = float(rng.uniform(1e-4, 0.1))
            eps = float(rng.uniform(0.05, 1.0))
            c = float(rng.uniform(0.1, 10.0))
            assert mismatch(c * delta, eps) == pytest.approx(
                c * mismatch(delta, eps), rel=1e-12
            )

    def test_grows_as_the_width_shrinks(self):
        values = [mismatch(0.01, eps) for eps in (1.0, 0.7, 0.4, 0.2, 0.1)]
        assert all(a < b for a, b in zip(values, values[1:]))


class TestValidateRegime:
    def test_comfortable_regime_passes(self):
        report = validate_regime(0.001, 0.4)
        assert report.alpha_ok and report.beta_ok and report.valid

    def test_narrow_width_blows_the_dispersion_ratio(self):
        """beta_eps = delta/eps^2 crosses the threshold first as eps shrinks."""
        report = validate_regime(0.01, 0.2)
        assert report.alpha_ok
        assert not report.beta_ok
        assert not report.valid

    def test_report_round_trips_to_dict(self):
        report = validate_regime(0.01, 0.4, threshold=0.3)
        d = report.as_dict()
        assert d["valid"] == report.valid
        assert d["threshold"] == 0.3
        assert d["mismatch"] == pytest.approx(mismatch(0.01, 0.4), rel=1e-15)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(DomainError, match="threshold"):
            validate_regime(0.01, 0.4, threshold=threshold)

    def test_zero_delta_is_trivially_valid(self):
        report = validate_regime(0.0, 0.5)
        assert report.valid
        assert report.mismatch == 0.0
