"""Odd-Gaussian data, near-linearity diagnostics, the return and pullback runs."""

import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from kdvtorus import experiments
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
from kdvtorus.fields import analyze, grid_points, l2_norm, synthesize
from kdvtorus.integrator import (
    KdvParams,
    Scheme,
    _linear_phase,
    evolve,
    linear_propagator,
)
from test_acceptance import baseline_value, within_window
from test_normal_form import assert_same_bits

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

    def test_tail_tolerance_sits_between_widths_0_40_and_0_41(self):
        """Width 0.41's tail, 2.25e-12 of the peak, is past TAIL_TOLERANCE; 0.40's is not."""
        with pytest.warns(TailAliasWarning, match="2.25e-12 of the peak"):
            hermite_initial(HermiteSpec(0.41), m=512)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            hermite_initial(HermiteSpec(0.40), m=512)

    @pytest.mark.parametrize("eps, m", [(0.4, 512), (0.1, 64), (0.05, 512), (0.003, 4096)])
    def test_samples_equal_the_full_formula(self, eps, m):
        """Evaluating only 0 < |x| < 40 eps changes no bit of the coefficients."""
        x = grid_points(m)
        full = (1.0 / math.sqrt(eps)) * (x / eps) * np.exp(-(x**2) / (2.0 * eps**2))
        data = hermite_initial(HermiteSpec(eps), m)
        assert data.coeffs.tobytes() == analyze(full).coeffs.tobytes()

    @pytest.mark.parametrize("eps", [5e-324, 1e-200, 1e-10, 2e-3])
    def test_width_the_grid_cannot_resolve_is_refused(self, eps):
        """No sample survives: a ValueError names epsilon and m, with no float warning."""
        with pytest.raises(ValueError, match=rf"epsilon = {eps} .* m = 64 grid"):
            hermite_initial(HermiteSpec(eps), m=64)

    @pytest.mark.parametrize("eps, amplitude", [(0.4, 1e200), (0.4, 1e307), (0.01, 1.7e308)])
    def test_amplitude_whose_norm_overflows_is_refused(self, eps, amplitude):
        """The norm is inf: a ValueError names the amplitude, with no float warning."""
        with pytest.raises(ValueError, match=re.escape(f"amplitude = {amplitude} has a norm too large")):
            hermite_initial(HermiteSpec(eps, amplitude), m=64)


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
        with pytest.raises(ValueError, match="at least one field"):
            near_linearity_report([], p, [0.0])

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
            assert report.errors[i] == l2_norm(pulled - rec.initial)

    @pytest.mark.parametrize("a", [1.0, 1.0 / 6.0])
    def test_audit_matches_the_full_range_phase_bitwise(self, a):
        """The phase mirrored from modes 0..K gives the full-range norms, every bit.

        The mirror differs from exp over -K..K only in the sign of zero
        imaginary parts (at t = 0); the norms square that away.
        """
        phi = hermite_initial(HermiteSpec(0.2), m=512)
        p = KdvParams(a=a, b=1.0, dt=1e-6, t_final=3e-4, m=512,
                      scheme=Scheme.FORNBERG_WHITHAM)
        rec = evolve(phi, p, np.linspace(0.0, 3e-4, 7))
        phi_run = rec.initial
        errors, defect = experiments._audit(rec, rec.half_spectra, phi_run)
        phase_at = _linear_phase(phi_run.wavenumbers(), a)
        want, want_defect = [], 0.0
        for i, t in enumerate(rec.times):
            u = rec.snapshot(i).coeffs
            phase = phase_at(-t)
            err_ip = float(np.linalg.norm(u * phase - phi_run.coeffs))
            err_phys = float(np.linalg.norm(u - phi_run.coeffs * np.conj(phase)))
            want.append(err_ip)
            want_defect = max(want_defect, abs(err_ip - err_phys))
        assert rec.times[0] == 0.0 and want[-1] > 0.0
        assert_same_bits(errors, want)
        assert_same_bits(defect, want_defect)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_batch_rows_equal_single_field_reports(self, scheme):
        """A batch report holds, field by field, every digit of the lone-field reports."""
        fields = [hermite_initial(HermiteSpec(eps), 512) for eps in (0.4, 0.2, 0.1)]
        p = KdvParams(a=1.0, b=1.0, dt=1e-6, t_final=3e-4, m=512, scheme=scheme)
        times = np.linspace(0.0, 3e-4, 5)
        batch = near_linearity_report(fields, p, times)
        singles = [near_linearity_report(phi, p, times) for phi in fields]
        assert len(batch.errors) == len(batch.record.initial) == len(fields)
        for errors, initial, single in zip(batch.errors, batch.record.initial, singles):
            assert errors == single.errors
            assert np.array_equal(initial.coeffs, single.record.initial.coeffs)
        assert batch.identity_defect_max == max(s.identity_defect_max for s in singles)
        assert batch.errors[0][-1] > 0.0

    def test_phase_off_the_unit_circle_fails_the_audit(self, monkeypatch):
        """A phase of modulus 1.001 on k > 0 parts the two norms once mode energies move."""
        def scaled_phase(ks, a):
            phase = _linear_phase(ks, a)
            return lambda t: phase(t) * np.where(ks > 0, 1.001, 1.0)

        monkeypatch.setattr(experiments, "_linear_phase", scaled_phase)
        phi = hermite_initial(HermiteSpec(0.3), m=128)
        p = KdvParams(dt=1e-3, t_final=0.1, m=128)
        with pytest.raises(RuntimeError, match="identity violated at t = 0.05:"):
            near_linearity_report(phi, p, [0.0, 0.05, 0.1])

    def test_momentum_off_its_structural_zero_fails_the_check(self, monkeypatch):
        def drifted(*args, **kwargs):
            record = evolve(*args, **kwargs)
            return replace(record, momentum_series=record.momentum_series + 1e-12)

        monkeypatch.setattr(experiments, "evolve", drifted)
        phi = hermite_initial(HermiteSpec(0.3), m=64)
        p = KdvParams(dt=1e-3, t_final=0.01, m=64)
        with pytest.raises(RuntimeError, match="momentum mode drifted to 1.000e-12"):
            near_linearity_report(phi, p, [0.0, 0.01])

    def test_diagnostics_are_the_manifest_run_block(self):
        """The audit's defect, the worst energy drift over a batch, the record's momentum."""
        fields = [hermite_initial(HermiteSpec(eps), 64) for eps in (0.4, 0.2, 0.3)]
        p = KdvParams(dt=1e-3, t_final=0.05, m=64)
        singles = [near_linearity_report(phi, p, [0.0, 0.05]) for phi in fields]
        batch = near_linearity_report(fields, p, [0.0, 0.05])
        for report in singles + [batch]:
            block = report.diagnostics()
            assert list(block) == ["identity_defect_max", "energy_drift", "max_momentum"]
            assert block["identity_defect_max"] == report.identity_defect_max
            assert block["max_momentum"] == report.record.max_momentum()
        drifts = [s.diagnostics()["energy_drift"] for s in singles]
        assert drifts == [s.record.energy_drift() for s in singles]
        assert batch.diagnostics()["energy_drift"] == max(drifts) > drifts[0]
        assert type(batch.diagnostics()["energy_drift"]) is float
        assert batch.diagnostics()["identity_defect_max"] == max(
            s.identity_defect_max for s in singles)

    def test_a_dense_run_holds_one_half_spectrum_per_sample(self):
        """A report's traced peak stays below its S stored half spectra plus 1 MiB.

        The record keeps S rows of m/2 + 1 bins, and the audit mirrors one
        row at a time out to modes -K..K, so no (S, 2K+1) array (16 MB here)
        is formed: 2,001 leapfrog samples at m = 512, one per step.
        """
        m, samples = 512, 2001
        phi = hermite_initial(HermiteSpec(0.2), m)
        p = KdvParams(dt=1e-6, t_final=2e-3, m=m, scheme=Scheme.FORNBERG_WHITHAM)
        times = np.linspace(0.0, p.t_final, samples)
        near_linearity_report(phi, replace(p, t_final=1e-5), [0.0, 1e-5])  # warm-up
        tracemalloc.start()
        try:
            near_linearity_report(phi, p, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < samples * (m // 2 + 1) * 16 + 2**20


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
        phi_run = rep.run.record.initial
        recomputed = l2_norm(rep.run.record.snapshot(-1) - phi_run) / l2_norm(phi_run)
        assert rep.return_error_rel == pytest.approx(recomputed, rel=1e-12)

    def test_snapshot_sup_ratio_matches_frozen_baseline(self):
        """The desk return run's early snapshot, stepped only up to SNAPSHOT_TIME."""
        phi = hermite_initial(HermiteSpec(0.1), 512)
        record = evolve(phi, KdvParams(t_final=SNAPSHOT_TIME), [SNAPSHOT_TIME])
        snap, initial = (np.max(np.abs(synthesize(f, 512))) for f in (record.snapshot(-1), phi))
        assert within_window("snapshot_sup_ratio_eps0.1_desk", float(snap / initial))


@pytest.fixture(scope="module")
def shallow_params():
    return KdvParams(a=1.0 / 6.0, b=1.5, dt=1e-4, t_final=1.0, m=512)


class TestPullback:
    @pytest.mark.parametrize(
        "eps, key",
        [(0.4, "pullback_eps0.4_T1_shallow"), (0.2, "pullback_eps0.2_T1_shallow")],
    )
    def test_discrepancy_matches_frozen_baseline(self, shallow_params, eps, key):
        rep = pullback_comparison(HermiteSpec(eps, amplitude=4.5), shallow_params)
        assert within_window(key, rep.discrepancy_rel)
        assert rep.run.record.energy_drift() < 1e-6

    def test_narrower_data_pulls_back_closer(self, shallow_params):
        assert baseline_value("pullback_eps0.2_T1_shallow") < baseline_value(
            "pullback_eps0.4_T1_shallow"
        )

    def test_pullback_is_the_reverse_propagator(self, shallow_params):
        rep = pullback_comparison(
            HermiteSpec(0.4, amplitude=4.5),
            KdvParams(a=1.0 / 6.0, b=1.5, dt=1e-3, t_final=0.5, m=256),
        )
        record = rep.run.record
        redone = linear_propagator(record.snapshot(-1), -record.times[-1], 1.0 / 6.0)
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
                KdvParams(b=0.0, t_final=0.1), (0.4, 0.2, 0.1), 0.1, id="desk"
            ),
        ],
    )
    def test_linear_flow_is_flagged_degenerate(self, p, widths, t_final):
        """No nonlinearity, no signal: the fit must refuse, not extrapolate."""
        res = epsilon_sweep(widths, p, t_final=t_final)
        assert math.isnan(res.fitted_slope)
        assert all(err <= _DEGENERATE_ERROR for err in res.errors_at_t)

    def test_a_faint_nonlinearity_is_still_fitted(self):
        """At b = 1e-10 the errors (5e-12 to 1e-11) clear _DEGENERATE_ERROR: a fit, not NaN."""
        res = epsilon_sweep([0.4, 0.3, 0.2], KdvParams(m=64, dt=1e-3, b=1e-10), 0.1)
        assert res.errors_at_t == pytest.approx((9.53e-12, 7.26e-12, 4.51e-12), rel=1e-2)
        assert res.fitted_slope == pytest.approx(2.24, abs=0.01)

    @pytest.mark.parametrize("widths", [(0.35, 0.27, 0.18, 0.12), (0.33, 0.21, 0.14)])
    def test_the_slope_is_the_least_squares_line_through_the_log_log_points(self, widths):
        """np.polyfit, the reference here, agrees to rounding (1.4e-15 relative on these)."""
        res = epsilon_sweep(widths, KdvParams(m=64, dt=1e-3), 0.1)
        want = np.polyfit(np.log(res.hm_norms), np.log(res.errors_at_t), 1)[0]
        assert res.fitted_slope == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_the_fit_makes_no_lapack_call(self, monkeypatch):
        """The first LAPACK call of a process adds 1 MB of RSS, which set the sweep's peak."""
        def refuse(*args, **kwargs):
            raise AssertionError("the sweep's fit called LAPACK")

        monkeypatch.setattr(np, "polyfit", refuse)
        monkeypatch.setattr(np.linalg, "lstsq", refuse)
        res = epsilon_sweep([0.4, 0.3, 0.2], KdvParams(m=64, dt=1e-3), 0.1)
        assert math.isfinite(res.fitted_slope)
