"""Fourier-side container, transforms, norms, and serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvtorus.errors import CorruptFieldError, GridError
from kdvtorus.fields import (
    FourierField,
    Grid,
    analyze,
    field_from_half_spectrum,
    half_spectrum,
    l2_norm,
    random_real_field,
    read_field_csv,
    sobolev_norm,
    synthesize,
    write_field_csv,
)


class TestGrid:
    def test_points_span_the_symmetric_domain(self):
        """Grid points start at -pi and step by 2*pi/m."""
        g = Grid(8)
        assert g.points[0] == pytest.approx(-math.pi)
        assert np.allclose(np.diff(g.points), 2 * math.pi / 8)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(GridError, match="power of two"):
            Grid(12)

    def test_rejects_tiny_grids(self):
        with pytest.raises(GridError, match="at least 4"):
            Grid(2)


class TestFourierField:
    def test_from_modes_mirrors_and_reads_back(self):
        f = FourierField.from_modes({2: 1 + 2j, -2: 1 - 2j}, cutoff=4)
        assert f.mode(2) == 1 + 2j
        assert f.mode(-2) == 1 - 2j
        assert f.mode(0) == 0
        assert f.cutoff == 4

    def test_mode_outside_cutoff_raises(self):
        with pytest.raises(ValueError, match="outside cutoff"):
            FourierField.from_modes({4: 1.0}, cutoff=3)

    def test_reality_defect_flags_asymmetric_coefficients(self):
        """A field whose -k mode is not the conjugate of +k is corrupt."""
        f = FourierField.from_modes({1: 1j, -1: 1j}, cutoff=2)
        assert f.reality_defect() > 1.0
        with pytest.raises(CorruptFieldError, match="reality"):
            f.require_real()

    def test_zero_mean_projects_only_the_mean(self):
        f = FourierField.from_modes({1: 2j, -1: -2j}, cutoff=1)
        f = f + FourierField.from_modes({0: 5.0})
        g = f.zero_mean()
        assert g.mean_mode() == 0
        assert g.mode(1) == 2j

    def test_arithmetic_is_modewise(self):
        f = FourierField.from_modes({1: 1.0, -1: 1.0}, cutoff=2)
        g = FourierField.from_modes({2: 1j, -2: -1j}, cutoff=2)
        h = 2.0 * f - g + f
        assert h.mode(1) == 3.0
        assert h.mode(2) == -1j

    def test_coefficients_are_immutable(self):
        f = FourierField(np.zeros(2 * 2 + 1))
        with pytest.raises((ValueError, RuntimeError)):
            f.coeffs[0] = 1.0

    def test_support_lists_nonzero_modes(self):
        f = FourierField.from_modes({3: 1.0, -3: 1.0, 1: 0.5, -1: 0.5}, cutoff=5)
        assert f.support() == [-3, -1, 1, 3]


class TestAnalyzeSynthesize:
    def test_pure_cosine_lands_on_the_conjugate_pair(self):
        """2 cos x analyzes to unit coefficients at k = +-1."""
        g = Grid(32)
        f = analyze(2.0 * np.cos(g.points))
        assert f.mode(1) == pytest.approx(1.0, abs=1e-14)
        assert f.mode(-1) == pytest.approx(1.0, abs=1e-14)
        junk = sum(abs(f.mode(k)) for k in range(2, f.cutoff + 1))
        assert junk < 1e-13

    def test_sine_mode_is_negative_imaginary(self):
        g = Grid(16)
        f = analyze(np.sin(3.0 * g.points))
        assert f.mode(3) == pytest.approx(-0.5j, abs=1e-15)

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            f = random_real_field(rng, support=10, cutoff=15)
            g = analyze(synthesize(f, 64))
            assert l2_norm(g.with_cutoff(15) - f) < 1e-12 * l2_norm(f)

    def test_analysis_projects_the_mean(self):
        g = Grid(16)
        f = analyze(np.cos(g.points) + 7.5)
        assert f.mean_mode() == 0

    def test_rejects_odd_sample_counts(self):
        with pytest.raises(GridError, match="power of two"):
            analyze(np.zeros(24))

    def test_synthesis_needs_room_for_the_modes(self):
        f = FourierField.from_modes({10: 1.0, -10: 1.0}, cutoff=10)
        with pytest.raises(GridError, match="grid"):
            synthesize(f, 16)

    def test_parseval_between_samples_and_coefficients(self):
        rng = np.random.default_rng(0)
        f = random_real_field(rng, support=12, cutoff=31)
        s = synthesize(f, 64)
        assert np.mean(s**2) == pytest.approx(l2_norm(f) ** 2, rel=1e-12)


class TestHalfSpectrum:
    def test_half_spectrum_matches_raw_rfft_of_synthesis(self):
        rng = np.random.default_rng(7)
        f = random_real_field(rng, support=6, cutoff=10)
        m = 32
        assert np.allclose(half_spectrum(f, m), np.fft.rfft(synthesize(f, m)), atol=1e-12)

    def test_field_round_trip_through_half_spectrum(self):
        rng = np.random.default_rng(8)
        f = random_real_field(rng, support=6, cutoff=15)
        back = field_from_half_spectrum(half_spectrum(f, 32), 32)
        assert l2_norm(back - f) < 1e-13


@st.composite
def real_fields(draw):
    """A real field: any cutoff, support, scale and real mean."""
    cutoff = draw(st.integers(1, 40))
    support = draw(st.integers(1, cutoff))
    f = draw(st.floats(1e-3, 1e3)) * random_real_field(
        draw(st.integers(0, 2**32 - 1)), support=support, cutoff=cutoff
    )
    return f + FourierField.from_modes({0: draw(st.floats(-10.0, 10.0))})


def grid_for(cutoff, extra):
    """The smallest power-of-two grid holding the cutoff, doubled `extra` times."""
    m = 4
    while m < 2 * cutoff + 2:
        m *= 2
    return m << extra


class TestRoundTripProperties:
    """The transform pairs keep reality and zero mean on any real input."""

    @given(f=real_fields(), extra=st.integers(0, 2))
    @settings(deadline=None, max_examples=80)
    def test_synthesis_then_analysis(self, f, extra):
        m = grid_for(f.cutoff, extra)
        samples = synthesize(f, m)
        assert samples.dtype == np.float64
        g = analyze(samples)
        assert g.mean_mode() == 0 and g.reality_defect() == 0.0
        assert l2_norm(g - f.zero_mean().with_cutoff(g.cutoff)) <= 1e-13 * l2_norm(f)

    @given(
        samples=st.integers(2, 7).flatmap(
            lambda p: st.lists(st.floats(-1e3, 1e3), min_size=2**p, max_size=2**p)
        )
    )
    @settings(deadline=None, max_examples=80)
    def test_analysis_of_any_samples(self, samples):
        """Analysis drops the mean (and the Nyquist mode) and is idempotent."""
        g = analyze(samples)
        assert g.mean_mode() == 0 and g.reality_defect() == 0.0
        back = synthesize(g, len(samples))
        scale = 1.0 + float(np.max(np.abs(samples)))
        assert abs(float(np.mean(back))) <= 1e-12 * scale
        assert l2_norm(analyze(back) - g) <= 1e-12 * scale

    @given(f=real_fields(), extra=st.integers(0, 2))
    @settings(deadline=None, max_examples=80)
    def test_half_spectrum_then_field(self, f, extra):
        m = grid_for(f.cutoff, extra)
        half = half_spectrum(f, m)
        assert half[0] == m * f.mean_mode() and half[-1] == 0
        g = field_from_half_spectrum(half, m)
        assert g.mean_mode() == 0 and g.reality_defect() == 0.0
        assert l2_norm(g - f.zero_mean().with_cutoff(g.cutoff)) <= 1e-15 * l2_norm(f)


class TestNorms:
    def test_sobolev_weighting_on_a_single_pair(self):
        """|k|^s weights: the +-2 pair at unit amplitude in H^1 has norm 2*sqrt(2)."""
        f = FourierField.from_modes({2: 1.0, -2: 1.0}, cutoff=3)
        assert sobolev_norm(f, 1.0) == pytest.approx(2.0 * math.sqrt(2.0))
        assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f))

    def test_negative_order_ignores_the_mean_mode(self):
        f = FourierField.from_modes({1: 1.0, -1: 1.0}, cutoff=1)
        assert sobolev_norm(f, -0.5) == pytest.approx(math.sqrt(2.0))


class TestConvolveExact:
    """``np.convolve`` of coefficient arrays: the direct sum behind the quadratic-term checks."""

    def test_cosine_squared_has_the_textbook_modes(self):
        f = FourierField.from_modes({1: 0.5, -1: 0.5}, cutoff=1)
        c = FourierField(np.convolve(f.coeffs, f.coeffs))
        assert c.mode(0) == pytest.approx(0.5)
        assert c.mode(2) == pytest.approx(0.25)
        assert c.cutoff == 2

    def test_matches_pointwise_products_of_syntheses(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = random_real_field(rng, support=5, cutoff=5)
            g = random_real_field(rng, support=4, cutoff=4)
            c = FourierField(np.convolve(f.coeffs, g.coeffs))
            prod = synthesize(f, 64) * synthesize(g, 64)
            # the product's mean is legitimate output of the convolution
            expect = np.fft.rfft(prod)[: c.cutoff + 1] / 64
            signs = np.where(np.arange(c.cutoff + 1) % 2 == 0, 1.0, -1.0)
            got = np.array([c.mode(k) for k in range(c.cutoff + 1)])
            assert np.allclose(got, signs * expect, atol=1e-13)


class TestSerialization:
    def test_csv_round_trip_preserves_every_bit(self, tmp_path):
        rng = np.random.default_rng(11)
        f = random_real_field(rng, support=8, cutoff=12)
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        g = read_field_csv(path)
        assert g.cutoff == f.cutoff
        assert np.array_equal(g.coeffs, f.coeffs)

    def test_csv_header_is_validated(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError, match="header"):
            read_field_csv(path)

    def test_csv_with_nonzero_mean_is_rejected(self, tmp_path):
        path = tmp_path / "mean.csv"
        path.write_text("k,re,im\n-1,1.0,-2.0\n0,5.0,0.0\n1,1.0,2.0\n")
        with pytest.raises(CorruptFieldError, match="mean"):
            read_field_csv(path)

    def test_csv_with_reality_defect_is_rejected(self, tmp_path):
        path = tmp_path / "complex.csv"
        path.write_text("k,re,im\n-1,1.0,0.0\n0,0.0,0.0\n1,0.0,3.0\n")
        with pytest.raises(CorruptFieldError, match="reality"):
            read_field_csv(path)

    def test_csv_with_repeated_mode_is_rejected(self, tmp_path):
        path = tmp_path / "repeat.csv"
        path.write_text("k,re,im\n-1,1.0,0.0\n0,0.0,0.0\n1,1.0,0.0\n1,2.0,0.0\n")
        with pytest.raises(ValueError, match="repeats mode k = 1"):
            read_field_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_csv_with_non_finite_mode_is_rejected(self, tmp_path, value):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"k,re,im\n-1,{value},0.0\n0,0.0,0.0\n1,{value},0.0\n")
        with pytest.raises(CorruptFieldError, match="non-finite"):
            read_field_csv(path)

    @pytest.mark.parametrize(
        "line, body",
        [
            (3, "k,re,im\n-1,1.0,0.0\n0,0.0\n1,1.0,0.0\n"),
            (3, "k,re,im\n-1,1.0,0.0\n\n1,1.0,0.0\n"),
            (4, "k,re,im\n-1,1.0,0.0\n0,0.0,0.0\n1,1.0,0.0,9.0\n"),
        ],
        ids=["short-row", "blank-line", "fourth-cell"],
    )
    def test_csv_row_without_three_cells_is_rejected(self, tmp_path, line, body):
        path = tmp_path / "cells.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=f"line {line} has"):
            read_field_csv(path)


class TestRandomRealField:
    def test_same_seed_reproduces_the_field(self):
        f = random_real_field(123, support=6)
        g = random_real_field(123, support=6)
        assert np.array_equal(f.coeffs, g.coeffs)

    def test_fields_are_reality_respecting_and_zero_mean(self):
        rng = np.random.default_rng(9)
        for _ in range(25):
            f = random_real_field(rng, support=7, cutoff=10)
            assert f.reality_defect() < 1e-15
            assert f.mean_mode() == 0
            assert max(abs(k) for k in f.support()) <= 7

    def test_support_must_fit_the_cutoff(self):
        with pytest.raises(ValueError, match="support"):
            random_real_field(0, support=9, cutoff=4)
