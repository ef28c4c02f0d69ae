"""Time steppers: propagators, the quadratic term, evolve, conservation."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvtorus.fields import (
    FourierField,
    half_spectrum,
    l2_norm,
    random_real_field,
)
from kdvtorus.integrator import (
    InstabilityError,
    KdvParams,
    Scheme,
    _linear_phase,
    _phase_table,
    _Workspace,
    desk_params,
    evolve,
    linear_propagator,
)
from kdvtorus.normal_form import b2, b3, b4
from oracles import nonlinear_term
from test_normal_form import assert_same_bits

TWO_PI = 2.0 * math.pi


def coeff_rows(rec) -> np.ndarray:
    """A lone field's samples as ``(S, 2K+1)`` coefficient rows, read through ``snapshot``."""
    return np.stack([rec.snapshot(i).coeffs for i in range(rec.times.size)])


class TestParams:
    def test_profiles_pick_scheme_and_step(self):
        desk = desk_params()
        assert desk.scheme is Scheme.INTEGRATING_FACTOR_RK4 and desk.dt == 1e-5
        assert desk.m == 512

    def test_scheme_accepts_names_and_values(self):
        assert KdvParams(scheme="if-rk4").scheme is Scheme.INTEGRATING_FACTOR_RK4
        p = KdvParams(scheme="fornberg-whitham")
        assert p.scheme is Scheme.FORNBERG_WHITHAM
        assert KdvParams(scheme=Scheme.FORNBERG_WHITHAM).scheme is Scheme.FORNBERG_WHITHAM
        with pytest.raises(ValueError, match="euler"):
            KdvParams(scheme="euler")

    def test_validation_catches_bad_numbers(self):
        with pytest.raises(ValueError, match="dt"):
            KdvParams(dt=0.0)
        with pytest.raises(ValueError, match="t_final"):
            KdvParams(t_final=-1.0)
        with pytest.raises(ValueError, match="power of two"):
            KdvParams(m=100)

    @pytest.mark.parametrize("name", ["a", "b", "dt", "t_final"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers_are_refused(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            KdvParams(**{name: value})


class TestLinearPropagator:
    def test_quarter_period_rotates_the_first_mode(self):
        """exp(-i k^3 t) at k = 1, t = pi/2 multiplies by -i."""
        f = FourierField.from_modes({1: 1.0, -1: 1.0}, cutoff=2)
        g = linear_propagator(f, math.pi / 2.0, a=1.0)
        assert g.mode(1) == pytest.approx(-1j, abs=1e-15)

    def test_is_an_isometry_and_inverts(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            f = random_real_field(rng, support=8, cutoff=12)
            t = float(rng.uniform(-3, 3))
            g = linear_propagator(f, t, a=1.3)
            assert l2_norm(g) == pytest.approx(l2_norm(f), rel=1e-14)
            back = linear_propagator(g, -t, a=1.3)
            assert l2_norm(back - f) < 1e-13 * l2_norm(f)


class TestLinearPhase:
    @settings(deadline=None, max_examples=200)
    @given(
        ks=st.sampled_from([np.arange(257), np.arange(-255, 256)]),  # m = 512
        a=st.one_of(st.sampled_from([1.0, 1.0 / 6.0]), st.floats(-10.0, 10.0)),
        t=st.one_of(st.sampled_from([0.0, TWO_PI, -TWO_PI]), st.floats(-1e3, 1e3)),
    )
    def test_the_conjugate_phase_is_the_phase_at_minus_t(self, ks, a, t):
        """conj(exp(-i t a k^3)) == exp(+i t a k^3) in value, signed zeros aside.

        The RK4 step's ``np.conj(P)`` and the audit's physical side rely on it.
        """
        phase = _linear_phase(ks, a)
        assert np.array_equal(np.conj(phase(t)), phase(-t))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("flow", [b2, b3, b4, lambda v, t: linear_propagator(v, t, 1.0)],
                             ids=["b2", "b3", "b4", "linear_propagator"])
    def test_a_non_finite_time_is_refused(self, flow, t):
        v = random_real_field(3, support=4, cutoff=6)
        with pytest.raises(ValueError, match="t must be finite"):
            flow(v, t)

    @pytest.mark.parametrize("a", [math.nan, math.inf])
    def test_a_non_finite_coefficient_is_refused(self, a):
        v = random_real_field(3, support=4, cutoff=6)
        with pytest.raises(ValueError, match="a must be finite"):
            linear_propagator(v, 1.0, a)


class TestNonlinearTerm:
    def test_cosine_produces_the_second_harmonic(self):
        """For u = cos x the quadratic term (ikb/2)(u^2)_k puts i/4 at k = 2."""
        u = FourierField.from_modes({1: 0.5, -1: 0.5}, cutoff=3)
        out = nonlinear_term(u, b=1.0)
        assert out.mode(2) == pytest.approx(0.25j, abs=1e-15)
        assert out.mode(0) == 0
        assert out.mode(1) == pytest.approx(0.0, abs=1e-16)

    def test_matches_the_exact_convolution_when_nothing_is_cut(self):
        """With support in the lower half of storage no mode aliases or truncates."""
        rng = np.random.default_rng(6)
        for dealias in (True, False):
            u = random_real_field(rng, support=8, cutoff=31)
            out = nonlinear_term(u, b=1.3, dealias=dealias)
            conv = FourierField(np.convolve(u.coeffs, u.coeffs))
            kc = (2 * 31) // 3 if dealias else 31
            for k in range(-out.cutoff, out.cutoff + 1):
                want = 0.5j * k * 1.3 * conv.mode(k) if abs(k) <= kc else 0.0
                assert out.mode(k) == pytest.approx(want, abs=1e-12)

    @given(
        seed=st.integers(0, 2**32 - 1),
        cutoff=st.integers(2, 24),
        data=st.data(),
        b=st.floats(-3.0, 3.0),
    )
    @settings(deadline=None, max_examples=60)
    def test_matches_the_exact_convolution_on_the_dealiased_range(self, seed, cutoff, data, b):
        """Any support up to the cutoff K: the 2/3 rule keeps |k| <= 2K/3 exact."""
        u = random_real_field(seed, support=data.draw(st.integers(1, cutoff)), cutoff=cutoff)
        kc = (2 * cutoff) // 3
        low = u.with_cutoff(kc).coeffs
        conv = FourierField(np.convolve(low, low))
        want = FourierField.from_modes(
            {k: 0.5j * k * b * conv.mode(k) for k in range(-kc, kc + 1)}, cutoff=cutoff
        )
        out = nonlinear_term(u, b=b)
        assert out.mode(0) == 0
        scale = (1.0 + abs(b)) * cutoff * l2_norm(u) ** 2
        assert l2_norm(out - want) <= 1e-14 * scale
        assert out.reality_defect() <= 1e-14 * scale

    def test_matches_the_exact_convolution_at_the_desk_grid(self):
        """Cutoff 255 (m = 512): |k| <= 170 is the direct sum, every mode above is 0."""
        u = random_real_field(512, support=255, cutoff=255)
        b = 1.3
        out = nonlinear_term(u, b=b)
        low = u.with_cutoff(170).coeffs
        conv = FourierField(np.convolve(low, low)).with_cutoff(170)
        want = FourierField(0.5j * b * np.arange(-170, 171) * conv.coeffs)
        scale = (1.0 + abs(b)) * 255 * l2_norm(u) ** 2
        assert l2_norm(out.with_cutoff(170) - want) <= 1e-14 * scale
        assert np.all(out.coeffs[: 255 - 170] == 0.0)
        assert np.all(out.coeffs[255 + 171 :] == 0.0)

    def test_output_is_reality_respecting(self):
        u = random_real_field(13, support=10, cutoff=15)
        assert nonlinear_term(u, b=1.0).reality_defect() < 1e-14


class TestStepWorkspace:
    """The IF-RK4 step's parts at the desk grid (m = 512)."""

    M = 512

    def _state(self, seed, rows):
        rng = np.random.default_rng(seed)
        shape = rows + (self.M // 2 + 1,)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("rows", [(), (3,)], ids=["one-field", "batch"])
    @pytest.mark.parametrize("dealias", [True, False])
    def test_the_sliced_quadratic_term_is_the_masked_one_bitwise(self, rows, dealias):
        """Slicing before irfft and FFTs into buffers change no digit of ``nl``."""
        cutoff = (2 * 255) // 3 if dealias else 255
        ws = _Workspace(m=self.M, a=1.0, b=1.3, dt=1e-5, mask_cutoff=cutoff)
        A = self._state(19, rows)
        mask = (np.arange(self.M // 2 + 1) <= cutoff).astype(float)
        want = ws.ikb2 * np.fft.rfft(np.fft.irfft(A * mask, n=self.M) ** 2)
        assert np.array_equal(ws.nl(A), want)

    @pytest.mark.parametrize("rows", [(), (3,)], ids=["one-field", "batch"])
    def test_a_second_call_leaves_the_first_result_alone(self, rows):
        ws = _Workspace(m=self.M, a=1.0, b=1.0, dt=1e-5, mask_cutoff=170)
        first = ws.nl(self._state(20, rows))
        kept = first.copy()
        second = ws.nl(self._state(21, rows))
        assert np.array_equal(first, kept)
        assert not np.array_equal(first, second)

    @pytest.mark.parametrize("n_steps", [1, 2, 997, 1000])
    @pytest.mark.parametrize("a", [1.0, -1.0 / 6.0])
    def test_table_phases_match_the_direct_phase(self, n_steps, a):
        """hi[i // L] * lo[i % L] is exp(-i*t*a*k^3) at t = i*dt to a few ulps."""
        k = np.arange(self.M // 2 + 1, dtype=float)
        phase = _linear_phase(k, a)
        dt = TWO_PI / n_steps
        at_step = _phase_table(phase, dt, n_steps)
        assert np.all(at_step(0) == 1.0)
        eps = np.finfo(float).eps
        for i in range(n_steps):
            tol = 4.0 * eps * (1.0 + np.abs(i * dt * a * k**3))
            assert np.all(np.abs(at_step(i) - phase(i * dt)) <= tol)


class TestEvolveLinear:
    # m = 512 with support 170 is the dealiased range of the desk grid, where
    # |exp(-i k^3 fl(2 pi)) - 1| reaches 2.7e-9 (1.4e-11 at m = 64)
    @pytest.mark.parametrize(
        "m, support, tol", [(64, 12, 1e-10), (512, 170, 1e-8)]
    )
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_free_flow_returns_after_one_period(self, scheme, m, support, tol):
        """With the nonlinearity off, T = 2*pi is a full period of every mode."""
        phi = random_real_field(2, support=support, cutoff=m // 2 - 1)
        p = KdvParams(a=1.0, b=0.0, dt=1e-3, t_final=TWO_PI, m=m, scheme=scheme)
        rec = evolve(phi, p, sample_times=[0.0, TWO_PI])
        err = l2_norm(rec.snapshot(-1) - rec.snapshot(0)) / l2_norm(phi)
        assert err < tol

    def test_momentum_is_identically_zero(self):
        phi = random_real_field(3, support=6, cutoff=10)
        p = KdvParams(a=1.0, b=1.0, dt=1e-3, t_final=0.1, m=64)
        rec = evolve(phi, p, sample_times=[0.0, 0.05, 0.1])
        assert rec.max_momentum() == 0.0


class TestEvolveNonlinear:
    def test_one_step_is_the_same_under_both_schemes(self):
        """Leapfrog bootstraps with the RK4 step, so step one agrees bitwise."""
        phi = random_real_field(8, support=10, cutoff=31)
        dt = 1e-3
        last = [
            evolve(
                phi,
                KdvParams(a=1.0, b=1.0, dt=dt, t_final=dt, m=64, scheme=scheme),
                sample_times=[dt],
            ).snapshot(-1)
            for scheme in Scheme
        ]
        assert np.array_equal(last[0].coeffs, last[1].coeffs)

    def test_if_rk4_converges_at_fourth_order(self):
        phi = 0.4 * random_real_field(3, support=6, cutoff=10)
        ref = self._terminal(phi, Scheme.INTEGRATING_FACTOR_RK4, 6.25e-6)
        errs = [
            l2_norm(self._terminal(phi, Scheme.INTEGRATING_FACTOR_RK4, dt) - ref)
            for dt in (4e-4, 2e-4)
        ]
        order = math.log2(errs[0] / errs[1])
        assert 3.7 < order < 4.3

    def test_leapfrog_converges_at_second_order(self):
        phi = 0.4 * random_real_field(3, support=6, cutoff=10)
        ref = self._terminal(phi, Scheme.INTEGRATING_FACTOR_RK4, 6.25e-6)
        errs = [
            l2_norm(self._terminal(phi, Scheme.FORNBERG_WHITHAM, dt) - ref)
            for dt in (4e-5, 2e-5)
        ]
        order = math.log2(errs[0] / errs[1])
        assert 1.8 < order < 2.2

    @staticmethod
    def _terminal(phi, scheme, dt, t_final=0.05):
        # m = 64 keeps |a k^3 dt| below pi/2 for every stored mode, well away
        # from the leapfrog resonance at cos(a k^3 dt) = 0.
        p = KdvParams(a=1.0, b=1.0, dt=dt, t_final=t_final, m=64, scheme=scheme)
        return evolve(phi, p, sample_times=[t_final]).snapshot(-1)

    def test_energy_is_conserved_to_time_stepping_accuracy(self):
        phi = random_real_field(14, support=10, cutoff=20)
        phi = phi * (1.0 / l2_norm(phi))
        p = KdvParams(a=1.0, b=1.0, dt=1e-4, t_final=0.5, m=128)
        rec = evolve(phi, p, sample_times=np.linspace(0.0, 0.5, 6))
        assert rec.energy_drift() < 1e-7

    def test_blow_up_is_reported_not_propagated_as_nans(self):
        """A wildly unstable step size trips the energy guard."""
        phi = 5.0 * random_real_field(1, support=20, cutoff=30)
        p = KdvParams(a=1e-6, b=50.0, dt=0.5, t_final=50.0, m=64)
        with pytest.raises(InstabilityError, match="exceeded"):
            evolve(phi, p, sample_times=[50.0])

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("b", [1e150, 1e300])
    def test_overflow_is_refused_without_a_warning(self, scheme, b):
        """A state past double precision is named as such (warnings are errors here).

        As row j of a batch (the other rows zero fields, which stay zero) the
        same field overflows at the same step, under the same message for field j.
        """
        phi = random_real_field(1, support=10, cutoff=20)
        p = KdvParams(b=b, dt=1e-3, t_final=0.01, m=64, scheme=scheme)
        with pytest.raises(InstabilityError, match="field 0 overflowed double precision") as exc:
            evolve(phi, p, sample_times=[0.0, 0.01])
        assert "dt" not in str(exc.value)
        for j in range(3):
            batch = [0.0 * phi] * 3
            batch[j] = phi
            with pytest.raises(InstabilityError, match=f"field {j} overflowed") as row:
                evolve(batch, p, sample_times=[0.0, 0.01])
            assert str(row.value) == str(exc.value).replace("field 0", f"field {j}")


class TestEvolveBookkeeping:
    def test_sample_times_land_on_the_nearest_step(self):
        phi = random_real_field(5, support=4, cutoff=8)
        p = KdvParams(a=1.0, b=1.0, dt=1e-3, t_final=1.0, m=32)
        rec = evolve(phi, p, sample_times=[0.0, 0.25004, 1.0])
        assert rec.times[1] == pytest.approx(0.25, abs=1e-9)
        assert rec.half_spectra.shape == (3, 17)  # bins 0..16 of the m = 32 grid
        assert rec.energy_series.shape == rec.momentum_series.shape == (3,)
        assert rec.steps_total == 1000

    def test_unsorted_or_out_of_range_samples_are_rejected(self):
        phi = random_real_field(5, support=4, cutoff=8)
        p = KdvParams(t_final=1.0, m=32, dt=1e-2)
        with pytest.raises(ValueError, match="sorted"):
            evolve(phi, p, sample_times=[0.5, 0.25])
        with pytest.raises(ValueError, match="within"):
            evolve(phi, p, sample_times=[2.0])
        with pytest.raises(ValueError, match="flat sequence of finite times"):
            evolve(phi, p, sample_times=[0.0, math.nan])

    def test_a_sample_just_past_t_final_is_refused(self):
        """The end of the run is matched to 1e-9 * max(1, t_final): 1e-7 past it is refused."""
        phi = random_real_field(5, support=4, cutoff=8)
        p = KdvParams(t_final=0.01, m=32, dt=1e-3)
        with pytest.raises(ValueError, match="within"):
            evolve(phi, p, sample_times=[0.0, 0.01 + 1e-7])
        rec = evolve(phi, p, sample_times=[0.0, 0.01 + 1e-10])
        assert rec.times[-1] == pytest.approx(0.01, abs=1e-15)

    def test_no_sample_times_is_an_error(self):
        phi = random_real_field(5, support=4, cutoff=8)
        p = KdvParams(t_final=1.0, m=32, dt=1e-2)
        with pytest.raises(ValueError, match="at least one time"):
            evolve(phi, p, [])

    def test_an_empty_batch_is_an_error(self):
        """A batch with no field has nothing to step; it is refused by name."""
        p = KdvParams(t_final=1.0, m=32, dt=1e-2)
        with pytest.raises(ValueError, match="at least one field"):
            evolve([], p, [0.0])

    def test_non_finite_data_is_corrupt_not_unstable(self):
        """NaN data is refused before stepping, not reported as a blow-up."""
        phi = random_real_field(5, support=4, cutoff=8)
        phi = phi + FourierField.from_modes({2: complex("nan")})
        p = KdvParams(t_final=1.0, m=32, dt=1e-2)
        with pytest.raises(ValueError, match="non-finite"):
            evolve(phi, p, [1.0])

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("t_final", [5e-3, 1e-4], ids=["50-steps", "one-step"])
    def test_duplicate_sample_times_repeat_the_same_rows(self, scheme, t_final):
        """Times that snap to one step record that step's state once per request.

        With t_final = dt the run is the leapfrog bootstrap alone.
        """
        phi = random_real_field(8, support=10, cutoff=31)
        dt = 1e-4
        p = KdvParams(a=1.0, b=1.0, dt=dt, t_final=t_final, m=64, scheme=scheme)
        times = sorted([0.0, 0.0, dt, t_final / 2, t_final, t_final])
        unique = sorted(set(times))
        rec = evolve(phi, p, sample_times=times)
        ref = evolve(phi, p, sample_times=unique)
        rows = [unique.index(t) for t in times]
        assert np.array_equal(rec.times, ref.times[rows])
        assert np.array_equal(rec.half_spectra, ref.half_spectra[rows])
        assert np.array_equal(rec.energy_series, ref.energy_series[rows])
        assert np.array_equal(rec.momentum_series, ref.momentum_series[rows])
        assert rec.steps_total == ref.steps_total == round(t_final / dt)
        assert not np.array_equal(rec.half_spectra[0], rec.half_spectra[-1])  # it moved

    def test_a_batch_snapshot_takes_a_field_and_a_sample(self):
        """A bare sample index on a batch record is refused, naming the rows it would read."""
        phi = random_real_field(5, support=4, cutoff=8)
        rec = evolve([phi, 2.0 * phi], KdvParams(m=32, dt=1e-2, t_final=0.02), [0.0, 0.02])
        with pytest.raises(ValueError, match=r"one row of .* = 17 bins, got shape \(2, 17\)"):
            rec.snapshot(0)
        assert np.array_equal(rec.snapshot((1, 0)).coeffs, 2.0 * rec.snapshot((0, 0)).coeffs)

    def test_record_keeps_the_data_the_run_starts_from(self):
        """One field, or a tuple for a batch: cut to the grid, made zero-mean."""
        phi = random_real_field(5, support=4, cutoff=8) + FourierField.from_modes({0: 0.5})
        p = KdvParams(m=32, dt=1e-2, t_final=0.1)
        want = [f.with_cutoff(15).zero_mean().coeffs for f in (phi, 2.0 * phi)]
        alone = evolve(phi, p, [0.0])
        assert np.array_equal(alone.initial.coeffs, want[0])
        batch = evolve([phi, 2.0 * phi], p, [0.0])
        assert isinstance(batch.initial, tuple) and len(batch.initial) == 2
        for got, coeffs in zip(batch.initial, want):
            assert np.array_equal(got.coeffs, coeffs)

    def test_step_count_that_cannot_be_counted_is_refused(self):
        """t_final / dt overflows to inf: refused, naming both, before any step."""
        phi = random_real_field(5, support=4, cutoff=8)
        p = KdvParams(m=32, dt=5e-324, t_final=1.0)
        with pytest.raises(ValueError, match=r"t_final = 1.0 over dt = 5e-324 .* 2\^53"):
            evolve(phi, p, [1.0])

    def test_norm_too_large_for_double_precision_is_refused(self):
        """Its blow-up limit is inf; a zero field, whose limit is inf by rule, still runs."""
        phi = random_real_field(5, support=4, cutoff=8)
        p = KdvParams(m=32, dt=1e-2, t_final=0.1)
        with pytest.raises(ValueError, match="field 1 has a norm too large for double"):
            evolve([phi, 1e150 * phi], p, [0.1])
        assert evolve(0.0 * phi, p, [0.1]).energy_series[-1] == 0.0

    def test_initial_support_must_fit_the_run_grid(self):
        phi = FourierField.from_modes({30: 1.0, -30: 1.0}, cutoff=40)
        p = KdvParams(m=32, dt=1e-2, t_final=0.1)
        with pytest.raises(ValueError, match="beyond the grid cutoff"):
            evolve(phi, p, sample_times=[0.1])


class TestDenseSamplingBits:
    """With a sample on every step, evolve's record is the state stepped by hand, bitwise.

    The same ``_Workspace`` is stepped outside ``evolve``; each stored row is
    that raw state ``A_u`` itself, and the series are ``ws.energy(A_u)`` and
    ``A_u[..., 0].real / m`` (m = 512, 50 steps): the guard and the sample
    bookkeeping change no bit.
    """

    M = 512
    STEPS = 50

    @pytest.mark.parametrize("scheme, dt", [(Scheme.INTEGRATING_FACTOR_RK4, 1e-5),
                                            (Scheme.FORNBERG_WHITHAM, 1e-6)])
    @pytest.mark.parametrize("n_fields", [1, 3])
    def test_every_sample_is_the_state_stepped_by_hand(self, scheme, dt, n_fields):
        fields = [random_real_field(seed, support=170, cutoff=255) for seed in range(n_fields)]
        p = KdvParams(dt=dt, t_final=self.STEPS * dt, m=self.M, scheme=scheme)
        rec = evolve(fields[0] if n_fields == 1 else fields, p,
                     sample_times=np.arange(self.STEPS + 1) * dt)
        assert rec.half_spectra.shape[-2] == self.STEPS + 1

        dt_eff = p.t_final / self.STEPS
        ws = _Workspace(m=self.M, a=p.a, b=p.b, dt=dt_eff, mask_cutoff=2 * p.cutoff // 3)
        initial = [rec.initial] if n_fields == 1 else rec.initial
        A = np.stack([half_spectrum(f, self.M) for f in initial])
        A = A[0] if n_fields == 1 else A
        rk4 = scheme is Scheme.INTEGRATING_FACTOR_RK4
        step_phase = _phase_table(ws.phase, dt_eff, self.STEPS)
        A_prev = None
        for i in range(self.STEPS + 1):
            if i > 0 and rk4:
                A = ws.rk4_v_step(A, step_phase(i - 1))
            elif i == 1:
                A_prev, A = A, ws.phase(dt_eff) * ws.rk4_v_step(A, ws.phase(0.0))
            elif i > 1:
                A_prev, A = A, ws.fw_step(A_prev, A)
            A_u = ws.phase(i * dt_eff) * A if rk4 else A
            assert_same_bits(rec.half_spectra[..., i, :], A_u)
            assert_same_bits(rec.energy_series[..., i], ws.energy(A_u))
            assert_same_bits(rec.momentum_series[..., i], A_u[..., 0].real / self.M)


class TestRecordedInvariants:
    """What each stored sample keeps, on fresh draws at m = 512.

    A row read back through ``snapshot`` and ``half_spectrum`` is the row
    stored: m is a power of two, so the /m and *m between them are exact
    (the FFTs' rounding keeps every entry far above the subnormal range).
    Each snapshot is real and zero-mean to the bit, and momentum is 0.
    """

    M = 512
    STEPS = 5

    @pytest.mark.parametrize("scheme, dt", [(Scheme.INTEGRATING_FACTOR_RK4, 1e-5),
                                            (Scheme.FORNBERG_WHITHAM, 1e-6)])
    @given(seeds=st.lists(st.integers(0, 2**32 - 1), min_size=3, max_size=3),
           support=st.integers(1, 170))
    @settings(deadline=None, max_examples=10)
    def test_snapshots_read_back_the_stored_rows(self, scheme, dt, seeds, support):
        fields = [random_real_field(seed, support, cutoff=255) for seed in seeds]
        p = KdvParams(dt=dt, t_final=self.STEPS * dt, m=self.M, scheme=scheme)
        times = np.arange(self.STEPS + 1) * dt
        for phi in (fields[0], fields):
            rec = evolve(phi, p, times)
            for key in np.ndindex(rec.half_spectra.shape[:-1]):
                snap = rec.snapshot(key)
                assert np.array_equal(half_spectrum(snap, self.M), rec.half_spectra[key])
                assert snap.reality_defect() == 0.0
                assert snap.mode(0) == 0
            assert np.all(rec.momentum_series == 0.0)


class TestEvolveBatch:
    @given(
        seeds=st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4),
        support=st.integers(1, 20),
        amplitude=st.floats(0.01, 1.0),
        a=st.floats(0.5, 1.5),
        b=st.floats(-2.0, 2.0),
        scheme=st.sampled_from(list(Scheme)),
        times=st.lists(st.floats(0.0, 0.002), min_size=1, max_size=5).map(sorted),
        m=st.sampled_from([64, 512]),
    )
    @settings(deadline=None, max_examples=30)
    def test_each_row_is_the_field_evolved_alone(
        self, seeds, support, amplitude, a, b, scheme, times, m
    ):
        """Bitwise: batching changes no digit; momentum stays at its zero."""
        fields = [amplitude * random_real_field(s, support, cutoff=31) for s in seeds]
        p = KdvParams(a=a, b=b, dt=2e-5, t_final=0.002, m=m, scheme=scheme)
        batch = evolve(fields, p, times)
        assert batch.half_spectra.shape == (len(fields), len(times), m // 2 + 1)
        assert batch.steps_total == len(fields) * 100
        for j, phi in enumerate(fields):
            alone = evolve(phi, p, times)
            assert np.array_equal(batch.times, alone.times)
            assert np.array_equal(batch.half_spectra[j], alone.half_spectra)
            assert np.array_equal(batch.energy_series[j], alone.energy_series)
            assert np.array_equal(batch.momentum_series[j], alone.momentum_series)
            assert np.all(np.abs(batch.momentum_series[j]) <= 1e-14)
        assert batch.max_momentum() <= 1e-14

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_one_unstable_field_stops_the_batch(self, scheme):
        """Each field is guarded against its own initial norm.

        A field that trips alone trips as row j of a batch at the same step
        (t = 3 here, the sixth), under the same message for field j.
        """
        phi = random_real_field(1, support=20, cutoff=30)
        p = KdvParams(a=1e-6, b=50.0, dt=0.5, t_final=50.0, m=64, scheme=scheme)
        evolve(1e-9 * phi, p, sample_times=[50.0])  # stable alone
        with pytest.raises(InstabilityError, match="field 1 exceeded"):
            evolve([1e-9 * phi, 5.0 * phi], p, sample_times=[50.0])
        with pytest.raises(InstabilityError, match="field 0 exceeded") as alone:
            evolve(1e-3 * phi, p, sample_times=[50.0])
        assert "at t = 3;" in str(alone.value)
        for j in range(3):
            batch = [1e-9 * phi] * 3
            batch[j] = 1e-3 * phi
            with pytest.raises(InstabilityError, match=f"field {j} exceeded") as row:
                evolve(batch, p, sample_times=[50.0])
            assert str(row.value) == str(alone.value).replace("field 0", f"field {j}")

    def test_grid_error_names_the_offending_field_and_modes(self):
        ok = random_real_field(5, support=4, cutoff=8)
        bad = FourierField.from_modes({30: 1.0, -30: 1.0}, cutoff=40)
        p = KdvParams(m=32, dt=1e-2, t_final=0.1)
        with pytest.raises(ValueError, match=r"field 1 has nonzero modes \[-30, 30\]"):
            evolve([ok, bad], p, sample_times=[0.1])


class TestExactSymmetries:
    """KdV's exact symmetries, carried over to the discrete flow (metamorphic checks).

    Every draw is a unit-scale field on at most 256 points, stepped for at most
    40 steps by either scheme, with a and b of either sign.
    """

    EPS = np.finfo(float).eps

    @staticmethod
    def _run(seed, support, amplitude, m, steps, **params):
        """The data (norm = amplitude) and the run: dt = 1e-4 for the given steps."""
        f = random_real_field(seed, min(support, m // 2 - 1), cutoff=m // 2 - 1)
        phi = (amplitude / l2_norm(f)) * f
        return phi, KdvParams(m=m, dt=1e-4, t_final=steps * 1e-4, **params)

    draws = given(
        seed=st.integers(0, 2**32 - 1),
        support=st.integers(1, 127),
        amplitude=st.floats(0.01, 1.0),
        a=st.floats(-1.5, 1.5),
        b=st.floats(-2.0, 2.0),
        scheme=st.sampled_from(list(Scheme)),
        steps=st.integers(1, 40),
        m=st.sampled_from([16, 32, 64, 128, 256]),
    )

    @draws
    @settings(deadline=None, max_examples=40)
    def test_sign_map_is_exact(self, seed, support, amplitude, a, b, scheme, steps, m):
        """u -> -u with b -> -b: every sample negated, bitwise."""
        phi, p = self._run(seed, support, amplitude, m, steps, a=a, b=b, scheme=scheme)
        times = [0.0, p.t_final / 2, p.t_final]
        ref = evolve(phi, p, times)
        flipped = evolve((-1.0) * phi, replace(p, b=-b), times)
        assert np.array_equal(flipped.half_spectra, -ref.half_spectra)
        assert np.array_equal(flipped.energy_series, ref.energy_series)

    @draws
    @settings(deadline=None, max_examples=40)
    def test_reflection_flips_both_coefficients(
        self, seed, support, amplitude, a, b, scheme, steps, m
    ):
        """u_k -> u_{-k} (x -> -x) with (a, b) -> (-a, -b), to a few ulps times |phi|."""
        phi, p = self._run(seed, support, amplitude, m, steps, a=a, b=b, scheme=scheme)
        times = [0.0, p.t_final / 2, p.t_final]
        ref = evolve(phi, p, times)
        mirrored = evolve(FourierField(phi.coeffs[::-1]), replace(p, a=-a, b=-b), times)
        gap = np.linalg.norm(coeff_rows(mirrored)[:, ::-1] - coeff_rows(ref), axis=-1)
        assert np.all(gap <= 32 * self.EPS * amplitude)

    @pytest.mark.parametrize("lam", [2, 4])
    @draws
    @settings(deadline=None, max_examples=40)
    def test_sub_lattice_scaling(self, lam, seed, support, amplitude, a, b, scheme, steps, m):
        """u_{lam k} = lam^2 w_k on a grid lam times finer runs lam^3 times faster.

        u(x, t) = lam^2 w(lam x, lam^3 t) carries every term to lam^5. Without
        dealiasing both runs keep every mode of their grid and alias alike, so
        the finer grid's modes lam*k hold the whole of w's dynamics.
        """
        m = max(8, m // lam)  # the finer grid has at most 256 points
        w0, p = self._run(seed, support, amplitude, m, steps, a=a, b=b, scheme=scheme,
                          dealias=False)
        times = [0.0, p.t_final / 2, p.t_final]
        w = evolve(w0, p, times)
        ks, scale, slow = w0.wavenumbers(), float(lam**2), float(lam**3)
        u0 = FourierField.from_modes(dict(zip(lam * ks, scale * w0.coeffs)),
                                     cutoff=lam * m // 2 - 1)
        fast = replace(p, m=lam * m, dt=p.dt / slow, t_final=p.t_final / slow)
        u = evolve(u0, fast, [t / slow for t in times])
        assert np.array_equal(u.times, w.times / slow)
        u_rows = coeff_rows(u)
        want = np.zeros_like(u_rows)
        want[:, u0.cutoff + lam * ks] = scale * coeff_rows(w)
        gap = np.linalg.norm(u_rows - want, axis=-1)
        assert np.all(gap <= 32 * self.EPS * l2_norm(u0))
