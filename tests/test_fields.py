"""Fourier-side container, transforms, norms, and serialization."""

import math

import numpy as np
import pytest

from kdvtorus.errors import CorruptFieldError, GridError
from kdvtorus.fields import (
    FourierField,
    Grid,
    analyze,
    convolve_exact,
    field_from_half_spectrum,
    half_spectrum,
    l2_norm,
    physical_l2_norm,
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
        assert g.max_cutoff == 3

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
        f = FourierField.zeros(3)
        with pytest.raises(ValueError, match="outside cutoff"):
            f.with_mode(4, 1.0)

    def test_reality_defect_flags_asymmetric_coefficients(self):
        """A field whose -k mode is not the conjugate of +k is corrupt."""
        f = FourierField.from_modes({1: 1j, -1: 1j}, cutoff=2)
        assert f.reality_defect() > 1.0
        with pytest.raises(CorruptFieldError, match="reality"):
            f.require_real()

    def test_zero_mean_projects_only_the_mean(self):
        f = FourierField.from_modes({1: 2j, -1: -2j}, cutoff=1).with_mode(0, 5.0)
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
        f = FourierField.zeros(2)
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


class TestNorms:
    def test_sobolev_weighting_on_a_single_pair(self):
        """|k|^s weights: the +-2 pair at unit amplitude in H^1 has norm 2*sqrt(2)."""
        f = FourierField.from_modes({2: 1.0, -2: 1.0}, cutoff=3)
        assert sobolev_norm(f, 1.0) == pytest.approx(2.0 * math.sqrt(2.0))
        assert sobolev_norm(f, 0.0) == pytest.approx(l2_norm(f))

    def test_negative_order_ignores_the_mean_mode(self):
        f = FourierField.from_modes({1: 1.0, -1: 1.0}, cutoff=1)
        assert sobolev_norm(f, -0.5) == pytest.approx(math.sqrt(2.0))

    def test_physical_norm_carries_the_domain_measure(self):
        f = FourierField.from_modes({1: 0.5, -1: 0.5}, cutoff=1)  # cos x
        # integral of cos^2 over the domain is pi
        assert physical_l2_norm(f) == pytest.approx(math.sqrt(math.pi))


class TestConvolveExact:
    def test_cosine_squared_has_the_textbook_modes(self):
        f = FourierField.from_modes({1: 0.5, -1: 0.5}, cutoff=1)
        c = convolve_exact(f, f)
        assert c.mode(0) == pytest.approx(0.5)
        assert c.mode(2) == pytest.approx(0.25)
        assert c.cutoff == 2

    def test_matches_pointwise_products_of_syntheses(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            f = random_real_field(rng, support=5, cutoff=5)
            g = random_real_field(rng, support=4, cutoff=4)
            c = convolve_exact(f, g)
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
