"""Odd-Gaussian data, near-linearity diagnostics, the return and pullback runs."""

import math
import warnings

import numpy as np
import pytest

from kdvtorus.experiments import (
    _DEGENERATE_ERROR,
    SNAPSHOT_TIME,
    HermiteSpec,
    TailAliasWarning,
    epsilon_sweep,
    hermite_initial,
    near_linearity_report,
    pullback_comparison,
    return_experiment,
)
from kdvtorus.fields import l2_norm, synthesize
from kdvtorus.integrator import KdvParams, Scheme, desk_params, evolve, linear_propagator
from test_acceptance import baseline_value, within_window

SQRT_PI_OVER_2 = math.sqrt(math.pi) / 2.0


class TestHermiteSpec:
    def test_width_must_be_in_unit_interval(self):
        with pytest.raises(ValueError, match="epsilon must lie"):
            HermiteSpec(epsilon=0.0)
        with pytest.raises(ValueError, match="epsilon must lie"):
            HermiteSpec(epsilon=1.5)

    def test_amplitude_must_be_positive(self):
        with pytest.raises(ValueError, match="amplitude must be positive"):
            HermiteSpec(epsilon=0.4, amplitude=0.0)


class TestHermiteInitial:
    def test_mean_mode_vanishes(self):
        fld = hermite_initial(HermiteSpec(0.4), m=256)
        assert fld.mode(0) == 0

    def test_profile_is_odd(self):
        """An odd real profile has purely imaginary coefficients."""
        fld = hermite_initial(HermiteSpec(0.3), m=256)
        scale = np.abs(fld.coeffs).max()
        assert np.abs(fld.coeffs.real).max() < 1e-13 * scale

    @pytest.mark.parametrize("eps", [0.1, 0.2, 0.4])
    def test_physical_energy_is_width_independent(self, eps):
        """2 pi |u|^2 integrates the squared profile to A^2 sqrt(pi)/2."""
        fld = hermite_initial(HermiteSpec(eps), m=512)
        energy = 2.0 * math.pi * l2_norm(fld) ** 2
        assert energy == pytest.approx(SQRT_PI_OVER_2, rel=1e-6)

    def test_energy_scales_with_amplitude_squared(self):
        base = hermite_initial(HermiteSpec(0.4, amplitude=1.0), m=256)
        tall = hermite_initial(HermiteSpec(0.4, amplitude=3.0), m=256)
        assert l2_norm(tall) == pytest.approx(3.0 * l2_norm(base), rel=1e-12)

    def test_peak_height_and_location(self):
        """The profile tops out near x = eps at (A/sqrt(eps)) e^{-1/2}."""
        eps = 0.4
        fld = hermite_initial(HermiteSpec(eps), m=512)
        samples = synthesize(fld, 512)
        peak_expected = math.exp(-0.5) / math.sqrt(eps)
        assert samples.max() == pytest.approx(peak_expected, rel=1e-3)

    def test_wide_profile_warns_about_periodization(self):
        with pytest.warns(TailAliasWarning, match="periodization"):
            hermite_initial(HermiteSpec(0.5), m=256)

    def test_narrow_profile_is_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hermite_initial(HermiteSpec(0.4), m=256)


class TestNearLinearity:
    def test_linear_flow_shows_no_deviation(self):
        """With b = 0 the interaction-picture state is frozen to rounding."""
        phi = hermite_initial(HermiteSpec(0.4), m=128)
        p = KdvParams(a=1.0, b=0.0, dt=1e-3, t_final=1.0, m=128)
        errors = near_linearity_report(phi, p, [0.0, 0.5, 1.0]).errors
        assert errors[0] == 0.0
        assert max(errors) < 1e-12

    def test_deviation_grows_from_zero(self):
        phi = hermite_initial(HermiteSpec(0.4), m=128)
        p = KdvParams(a=1.0, b=1.0, dt=1e-3, t_final=0.5, m=128)
        report = near_linearity_report(phi, p, [0.0, 0.25, 0.5])
        assert report.errors[0] == 0.0
        assert 0.0 < report.errors[1] < report.errors[2]
        assert report.identity_defect_max <= 1e-12
        assert report.record.max_momentum() == 0.0

    def test_no_sample_times_is_an_error(self):
        """An audit of no samples has no deviation or momentum to check."""
        phi = hermite_initial(HermiteSpec(0.4), m=64)
        p = KdvParams(dt=1e-3, t_final=1e-2, m=64)
        with pytest.raises(ValueError, match="at least one time"):
            near_linearity_report(phi, p, [])
        with pytest.raises(ValueError, match="at least one time"):
            near_linearity_report([phi, phi], p, np.array([]))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_audit_matches_the_field_formula_bitwise(self, scheme):
        """Each deviation is |S(-t) u(t) - phi| of the sampled field, every digit."""
        phi = hermite_initial(HermiteSpec(0.2), m=512)
        p = KdvParams(a=1.0, b=1.0, dt=1e-6, t_final=3e-4, m=512, scheme=scheme)
        report = near_linearity_report(phi, p, np.linspace(0.0, 3e-4, 7))
        rec = report.record
        assert report.errors[-1] > 0.0
        for i, t in enumerate(rec.times):
            pulled = linear_propagator(rec.snapshot(i), -t, p.a)
            assert report.errors[i] == l2_norm(pulled - report.initial)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_batch_rows_equal_single_field_reports(self, scheme):
        """A batch report holds, field by field, every digit of the lone-field reports."""
        fields = [hermite_initial(HermiteSpec(eps), 512) for eps in (0.4, 0.2, 0.1)]
        p = KdvParams(a=1.0, b=1.0, dt=1e-6, t_final=3e-4, m=512, scheme=scheme)
        times = np.linspace(0.0, 3e-4, 5)
        batch = near_linearity_report(fields, p, times)
        singles = [near_linearity_report(phi, p, times) for phi in fields]
        assert len(batch.errors) == len(batch.initial) == len(fields)
        for errors, initial, single in zip(batch.errors, batch.initial, singles):
            assert errors == single.errors
            assert np.array_equal(initial.coeffs, single.initial.coeffs)
        assert batch.identity_defect_max == max(s.identity_defect_max for s in singles)
        assert batch.errors[0][-1] > 0.0


class TestReturnExperiment:
    def test_dispersion_requires_unit_dispersion_coefficient(self):
        with pytest.raises(ValueError, match="a = 1"):
            return_experiment(HermiteSpec(0.4), KdvParams(a=0.5, m=128))

    def test_full_period_run(self):
        """One 2 pi period at moderate width: small but nonzero return error."""
        rep = return_experiment(
            HermiteSpec(0.4), KdvParams(a=1.0, b=1.0, dt=1e-3, m=256)
        )
        assert rep.run.record.times[0] == 0.0
        assert rep.run.record.times[-1] == pytest.approx(2.0 * math.pi, abs=1e-9)
        assert rep.snapshot_time == pytest.approx(0.2, abs=1e-3)
        assert 1e-3 < rep.return_error_rel < 5e-2
        assert 0.0 < rep.snapshot_sup_ratio < 1.0
        assert rep.run.record.energy_drift() < 1e-5
        assert rep.initial_physical_energy == pytest.approx(
            SQRT_PI_OVER_2, rel=1e-6
        )
        recomputed = l2_norm(rep.final - rep.run.initial) / l2_norm(rep.run.initial)
        assert rep.return_error_rel == pytest.approx(recomputed, rel=1e-12)

    def test_snapshot_sup_ratio_matches_frozen_baseline(self):
        """The desk return run's early snapshot, stepped only up to SNAPSHOT_TIME."""
        phi = hermite_initial(HermiteSpec(0.1), 512)
        record = evolve(phi, desk_params(t_final=SNAPSHOT_TIME), [SNAPSHOT_TIME])
        snap, initial = (np.max(np.abs(synthesize(f, 512))) for f in (record.snapshot(-1), phi))
        assert within_window("snapshot_sup_ratio_eps0.1_desk", float(snap / initial))


@pytest.fixture(scope="module")
def shallow_params():
    return KdvParams(a=1.0 / 6.0, b=1.5, dt=1e-4, m=512)


class TestPullback:
    @pytest.mark.parametrize(
        "eps, key",
        [(0.4, "pullback_eps0.4_T1_shallow"), (0.2, "pullback_eps0.2_T1_shallow")],
    )
    def test_discrepancy_matches_frozen_baseline(self, shallow_params, eps, key):
        rep = pullback_comparison(
            HermiteSpec(eps, amplitude=4.5), shallow_params, t_final=1.0
        )
        assert within_window(key, rep.discrepancy_rel)
        assert rep.run.record.energy_drift() < 1e-6

    def test_narrower_data_pulls_back_closer(self, shallow_params):
        assert baseline_value("pullback_eps0.2_T1_shallow") < baseline_value(
            "pullback_eps0.4_T1_shallow"
        )

    def test_pullback_is_the_reverse_propagator(self, shallow_params):
        rep = pullback_comparison(
            HermiteSpec(0.4, amplitude=4.5),
            KdvParams(a=1.0 / 6.0, b=1.5, dt=1e-3, m=256),
            t_final=0.5,
        )
        redone = linear_propagator(rep.evolved, -rep.run.record.times[-1], 1.0 / 6.0)
        assert l2_norm(redone - rep.pulled_back) == 0.0


class TestEpsilonSweep:
    def test_needs_three_distinct_widths(self):
        p = KdvParams(m=128, dt=1e-3)
        with pytest.raises(ValueError, match="at least 3"):
            epsilon_sweep([0.4, 0.4, 0.2], p, t_final=0.5)

    def test_deviation_shrinks_with_the_width(self):
        p = KdvParams(a=1.0, b=1.0, dt=1e-3, t_final=1.0, m=256)
        res = epsilon_sweep([0.4, 0.3, 0.2], p, t_final=0.5)
        assert res.epsilons == (0.4, 0.3, 0.2)
        assert res.errors_at_t[0] > res.errors_at_t[1] > res.errors_at_t[2]
        assert res.hm_norms[0] > res.hm_norms[1] > res.hm_norms[2]
        assert res.fitted_slope > 0.8
        assert not res.degenerate
        assert res.run.identity_defect_max <= 1e-12

    @pytest.mark.parametrize(
        "p, widths, t_final",
        [
            pytest.param(
                KdvParams(a=1.0, b=0.0, dt=1e-3, t_final=1.0, m=256),
                (0.4, 0.3, 0.2),
                0.5,
                id="m256",
            ),
            # the desk profile's size, where per-step rounding of the linear
            # flow would otherwise pile up above the degeneracy threshold
            pytest.param(
                desk_params(b=0.0, t_final=0.1), (0.4, 0.2, 0.1), 0.1, id="desk"
            ),
        ],
    )
    def test_linear_flow_is_flagged_degenerate(self, p, widths, t_final):
        """No nonlinearity, no signal: the fit must refuse, not extrapolate."""
        res = epsilon_sweep(widths, p, t_final=t_final)
        assert res.degenerate
        assert math.isnan(res.fitted_slope)
        assert all(err <= _DEGENERATE_ERROR for err in res.errors_at_t)
