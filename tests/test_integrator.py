"""Time steppers: propagators, the quadratic term, evolve, conservation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvtorus.errors import CorruptFieldError, GridError, InstabilityError
from kdvtorus.fields import FourierField, l2_norm, random_real_field
from kdvtorus.integrator import (
    KdvParams,
    Scheme,
    desk_params,
    evolve,
    linear_propagator,
    paper_params,
)
from oracles import nonlinear_term

TWO_PI = 2.0 * math.pi


class TestParams:
    def test_profiles_pick_scheme_and_step(self):
        desk = desk_params()
        paper = paper_params()
        assert desk.scheme is Scheme.INTEGRATING_FACTOR_RK4 and desk.dt == 1e-5
        assert paper.scheme is Scheme.FORNBERG_WHITHAM and paper.dt == 1e-7
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
        with pytest.raises(GridError, match="power of two"):
            KdvParams(m=100)


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
        assert out.mean_mode() == 0
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


class TestEvolveBookkeeping:
    def test_sample_times_land_on_the_nearest_step(self):
        phi = random_real_field(5, support=4, cutoff=8)
        p = KdvParams(a=1.0, b=1.0, dt=1e-3, t_final=1.0, m=32)
        rec = evolve(phi, p, sample_times=[0.0, 0.25004, 1.0])
        assert rec.times[1] == pytest.approx(0.25, abs=1e-9)
        assert rec.coeffs.shape == (3, 31)  # modes -15..15 of the m = 32 grid
        assert rec.energy_series.shape == rec.momentum_series.shape == (3,)
        assert rec.steps_total == 1000

    def test_unsorted_or_out_of_range_samples_are_rejected(self):
        phi = random_real_field(5, support=4, cutoff=8)
        p = KdvParams(t_final=1.0, m=32, dt=1e-2)
        with pytest.raises(ValueError, match="sorted"):
            evolve(phi, p, sample_times=[0.5, 0.25])
        with pytest.raises(ValueError, match="within"):
            evolve(phi, p, sample_times=[2.0])

    def test_no_sample_times_is_an_error(self):
        phi = random_real_field(5, support=4, cutoff=8)
        p = KdvParams(t_final=1.0, m=32, dt=1e-2)
        with pytest.raises(ValueError, match="at least one time"):
            evolve(phi, p, [])

    def test_non_finite_data_is_corrupt_not_unstable(self):
        """NaN data is refused before stepping, not reported as a blow-up."""
        phi = random_real_field(5, support=4, cutoff=8)
        phi = phi + FourierField.from_modes({2: complex("nan")})
        p = KdvParams(t_final=1.0, m=32, dt=1e-2)
        with pytest.raises(CorruptFieldError, match="non-finite"):
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
        assert np.array_equal(rec.coeffs, ref.coeffs[rows])
        assert np.array_equal(rec.energy_series, ref.energy_series[rows])
        assert np.array_equal(rec.momentum_series, ref.momentum_series[rows])
        assert rec.steps_total == ref.steps_total == round(t_final / dt)
        assert not np.array_equal(rec.coeffs[0], rec.coeffs[-1])  # the state moved

    def test_initial_support_must_fit_the_run_grid(self):
        phi = FourierField.from_modes({30: 1.0, -30: 1.0}, cutoff=40)
        p = KdvParams(m=32, dt=1e-2, t_final=0.1)
        with pytest.raises(GridError, match="beyond the grid cutoff"):
            evolve(phi, p, sample_times=[0.1])


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
        assert batch.coeffs.shape == (len(fields), len(times), m - 1)
        assert batch.steps_total == len(fields) * 100
        for j, phi in enumerate(fields):
            alone = evolve(phi, p, times)
            assert np.array_equal(batch.times, alone.times)
            assert np.array_equal(batch.coeffs[j], alone.coeffs)
            assert np.array_equal(batch.energy_series[j], alone.energy_series)
            assert np.array_equal(batch.momentum_series[j], alone.momentum_series)
            assert np.all(np.abs(batch.momentum_series[j]) <= 1e-14)
        assert batch.max_momentum() <= 1e-14

    def test_one_unstable_field_stops_the_batch(self):
        """Each field is guarded against its own initial norm."""
        phi = random_real_field(1, support=20, cutoff=30)
        p = KdvParams(a=1e-6, b=50.0, dt=0.5, t_final=50.0, m=64)
        evolve(1e-9 * phi, p, sample_times=[50.0])  # stable alone
        with pytest.raises(InstabilityError, match="field 1 exceeded"):
            evolve([1e-9 * phi, 5.0 * phi], p, sample_times=[50.0])

    def test_grid_error_names_the_offending_field_and_modes(self):
        ok = random_real_field(5, support=4, cutoff=8)
        bad = FourierField.from_modes({30: 1.0, -30: 1.0}, cutoff=40)
        p = KdvParams(m=32, dt=1e-2, t_final=0.1)
        with pytest.raises(GridError, match=r"field 1 has nonzero modes \[-30, 30\]"):
            evolve([ok, bad], p, sample_times=[0.1])
