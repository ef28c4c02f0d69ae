"""Physical-scale reduction and the width-modified smallness bookkeeping."""

import dataclasses
import math
import re

import numpy as np
import pytest

from kdvtorus import cli
from kdvtorus.shallow_water import (
    GRAVITY,
    dimensionless,
    validate_regime,
)


class TestDimensionless:
    def test_reference_configuration(self):
        """1 m waves on 100 m depth with 1 km wavelength: both ratios 0.01."""
        regime = dimensionless(a=1.0, h0=100.0, l=1000.0)
        assert regime.alpha == 0.01
        assert regime.beta == 0.01
        assert regime.c0 == pytest.approx(math.sqrt(GRAVITY * 100.0), rel=1e-15)
        assert regime.c0 == pytest.approx(31.3209, abs=1e-4)
        assert regime.t_phys_scale == pytest.approx(3192.75, abs=0.5)

    def test_horizon_formula(self):
        regime = dimensionless(a=0.5, h0=20.0, l=300.0)
        assert regime.t_phys_scale == pytest.approx(
            300.0 / (regime.c0 * regime.alpha), rel=1e-15
        )

    def test_amplitude_must_stay_below_depth(self):
        with pytest.raises(ValueError, match="a < h0"):
            dimensionless(a=100.0, h0=100.0, l=1000.0)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
    def test_scales_must_be_positive_and_finite(self, bad):
        with pytest.raises(ValueError, match="finite and positive"):
            dimensionless(a=1.0, h0=100.0, l=bad)

    def test_scales_are_keyword_only(self):
        """Two lengths in metres cannot be swapped by position."""
        with pytest.raises(TypeError):
            dimensionless(1.0, 100.0, 1000.0)

    def test_non_finite_refusal_names_the_scales(self):
        message = ("the regime of a = 1.0, h0 = 1e+200, l = 1.0, g = 9.81: "
                   "not finite in double precision")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            dimensionless(a=1.0, h0=1e200, l=1.0)


class TestTorusMap:
    """Surface KdV in xi = l*x, t = (l/c0)*s, eta = a*u, reflected: KdvParams' (a, b)."""

    @staticmethod
    def torus_coefficients(alpha, beta):
        """The torus equation's (a, b) for the smallness ratios (alpha, beta)."""
        return beta / 6.0, 1.5 * alpha

    def test_the_substitution_gives_the_map(self):
        """eta_t + (3c0/2h0)*eta*eta_xi + (c0*h0^2/6)*eta_xixixi = 0, scaled term by term."""
        a, h0, l = 0.5, 20.0, 300.0
        regime = dimensionless(a=a, h0=h0, l=l)
        nonlinear, dispersive = 3.0 * regime.c0 / (2.0 * h0), regime.c0 * h0**2 / 6.0
        # eta_t = (a*c0/l)*u_s, eta*eta_xi = (a^2/l)*u*u_x, eta_xixixi = (a/l^3)*u_xxx; divide
        # by a*c0/l, then x -> -x moves both spatial terms to the right-hand side unchanged.
        b_torus = nonlinear * (a**2 / l) / (a * regime.c0 / l)
        a_torus = dispersive * (a / l**3) / (a * regime.c0 / l)
        assert (a_torus, b_torus) == pytest.approx(
            self.torus_coefficients(regime.alpha, regime.beta), rel=1e-14)

    def test_pullback_defaults_are_the_map_at_unit_ratios(self):
        defaults = cli._DEFAULTS["pullback"]
        assert (defaults["a"], defaults["b"]) == self.torus_coefficients(1.0, 1.0)


class TestModifiedRatios:
    def test_reference_values(self):
        report = validate_regime(0.01, 0.4)
        assert report.alpha_eps == pytest.approx(0.01 / math.sqrt(0.4), rel=1e-15)
        assert report.beta_eps == pytest.approx(0.01 / 0.16, rel=1e-15)

    def test_unit_width_changes_nothing(self):
        report = validate_regime(0.02, 1.0)
        assert (report.alpha_eps, report.beta_eps) == (0.02, 0.02)

    def test_zero_delta_collapses_both(self):
        report = validate_regime(0.0, 0.3)
        assert (report.alpha_eps, report.beta_eps) == (0.0, 0.0)

    def test_domain_guards(self):
        with pytest.raises(ValueError, match="delta must be finite"):
            validate_regime(-0.1, 0.4)
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
            validate_regime(0.01, 0.0)
        with pytest.raises(ValueError, match=r"eps must lie in \(0, 1\]"):
            validate_regime(0.01, 1.2)


class TestRatiosOutOfRange:
    """Ratios double precision cannot hold raise ValueError instead of reading inf."""

    @pytest.mark.parametrize(
        "compute",
        [
            lambda: validate_regime(1e300, 1e-10),
            lambda: validate_regime(0.01, 1e-200),
            lambda: validate_regime(0.01, 1e-100),
            lambda: dimensionless(a=1.0, h0=1e200, l=1.0),
            lambda: dimensionless(a=1e-300, h0=1e10, l=1e-200),
            lambda: dimensionless(a=5e-324, h0=1e10, l=1.0),
        ],
        ids=["beta-eps-inf", "eps-squared-underflows", "mismatch-overflows",
             "beta-overflows", "l-squared-underflows", "alpha-underflows"],
    )
    def test_non_finite_ratio_is_a_domain_error(self, compute):
        with pytest.raises(ValueError, match="not finite in double precision"):
            compute()


class TestMismatch:
    def test_reference_value(self):
        """delta/sqrt(eps) + delta/eps^3.5 at (0.01, 0.4)."""
        value = validate_regime(0.01, 0.4).mismatch
        assert value == pytest.approx(0.2628639, abs=1e-6)
        expected = 0.01 / math.sqrt(0.4) + 0.01 / 0.4**3.5
        assert value == pytest.approx(expected, rel=1e-14)

    def test_unit_width_gives_twice_delta(self):
        for delta in (0.001, 0.02, 0.3):
            assert validate_regime(delta, 1.0).mismatch == pytest.approx(
                2.0 * delta, rel=1e-15
            )

    def test_zero_delta_is_exactly_zero(self):
        assert validate_regime(0.0, 0.7).mismatch == 0.0

    def test_homogeneous_of_degree_one_in_delta(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            delta = float(rng.uniform(1e-4, 0.1))
            eps = float(rng.uniform(0.05, 1.0))
            c = float(rng.uniform(0.1, 10.0))
            assert validate_regime(c * delta, eps).mismatch == pytest.approx(
                c * validate_regime(delta, eps).mismatch, rel=1e-12
            )

    def test_grows_as_the_width_shrinks(self):
        values = [validate_regime(0.01, eps).mismatch for eps in (1.0, 0.7, 0.4, 0.2, 0.1)]
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
        d = dataclasses.asdict(report)
        assert d["valid"] == report.valid
        assert d["threshold"] == 0.3
        assert d["mismatch"] == pytest.approx(validate_regime(0.01, 0.4).mismatch, rel=1e-15)

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
    def test_threshold_must_be_finite_and_positive(self, threshold):
        with pytest.raises(ValueError, match="threshold"):
            validate_regime(0.01, 0.4, threshold=threshold)

    def test_zero_delta_is_trivially_valid(self):
        report = validate_regime(0.0, 0.5)
        assert report.valid
        assert report.mismatch == 0.0
