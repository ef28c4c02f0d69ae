"""Fourier-side container, transforms, norms, and serialization."""

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvtorus.fields import (
    FourierField,
    _alternating_signs,
    analyze,
    field_from_half_spectrum,
    grid_points,
    half_spectrum,
    l2_norm,
    random_real_field,
    sobolev_norm,
    synthesize,
    write_field_csv,
)
from kdvtorus.integrator import KdvParams
from test_normal_form import assert_same_bits


class TestGrid:
    def test_points_span_the_symmetric_domain(self):
        """Grid points start at -pi and step by 2*pi/m, read-only."""
        x = grid_points(8)
        assert x[0] == pytest.approx(-math.pi)
        assert np.allclose(np.diff(x), 2 * math.pi / 8)
        assert not x.flags.writeable

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError, match="power of two"):
            grid_points(12)

    def test_rejects_tiny_grids(self):
        with pytest.raises(ValueError, match="at least 4"):
            grid_points(2)

    @pytest.mark.parametrize(
        "build, m, message",
        [
            pytest.param(build, m, message, id=f"{name}-{m!r}")
            for name, build, sizes in [
                ("grid_points", grid_points, (8.0, 16.5, 12, 2)),
                ("KdvParams", lambda m: KdvParams(m=m), (8.0, 16.5, 12, 2, 4)),
            ]
            for m, message in zip(sizes, ["power of two"] * 3 + ["at least"] * 2)
        ],
    )
    def test_one_size_rule(self, build, m, message):
        """grid_points and KdvParams refuse the same sizes, non-integers included;
        a run grid needs 8 points, a sample grid 4."""
        with pytest.raises(ValueError, match=message):
            build(m)


class TestFourierField:
    def test_from_modes_mirrors_and_reads_back(self):
        f = FourierField.from_modes({2: 1 + 2j, -2: 1 - 2j}, cutoff=4)
        assert f.mode(2) == 1 + 2j
        assert f.mode(-2) == 1 - 2j
        assert f.mode(0) == 0
        assert f.cutoff == 4
        assert f.mode(5) == 0j and f.mode(-9) == 0j  # beyond the cutoff

    @pytest.mark.parametrize("shape", [(4,), (0,), (3, 3)], ids=["even", "empty", "2-D"])
    def test_coefficients_must_be_one_dimensional_with_odd_length(self, shape):
        with pytest.raises(ValueError, match="one-dimensional with odd length"):
            FourierField(np.zeros(shape))

    def test_cutoff_must_be_positive(self):
        f = FourierField.from_modes({1: 1.0, -1: 1.0}, cutoff=2)
        with pytest.raises(ValueError, match="cutoff must be positive"):
            f.with_cutoff(0)

    def test_mode_outside_cutoff_raises(self):
        with pytest.raises(ValueError, match="outside cutoff"):
            FourierField.from_modes({4: 1.0}, cutoff=3)

    def test_reality_defect_flags_asymmetric_coefficients(self):
        """A field whose -k mode is not the conjugate of +k is corrupt."""
        f = FourierField.from_modes({1: 1j, -1: 1j}, cutoff=2)
        assert f.reality_defect() > 1.0
        with pytest.raises(ValueError, match="reality"):
            f.require_real()

    def test_reality_tolerance_is_1e_12_of_a_unit_scale(self):
        """A +-1 pair off conjugacy by 1e-10 is refused; one off by 1e-13 passes."""
        with pytest.raises(ValueError, match="defect 1.000e-10 exceeds"):
            FourierField.from_modes({1: 1.0, -1: 1.0 + 1e-10}).require_real()
        FourierField.from_modes({1: 1.0, -1: 1.0 + 1e-13}).require_real()

    def test_zero_mean_projects_only_the_mean(self):
        f = FourierField.from_modes({1: 2j, -1: -2j}, cutoff=1)
        f = f + FourierField.from_modes({0: 5.0})
        g = f.zero_mean()
        assert g.mode(0) == 0
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
        f = analyze(2.0 * np.cos(grid_points(32)))
        assert f.mode(1) == pytest.approx(1.0, abs=1e-14)
        assert f.mode(-1) == pytest.approx(1.0, abs=1e-14)
        junk = sum(abs(f.mode(k)) for k in range(2, f.cutoff + 1))
        assert junk < 1e-13

    def test_sine_mode_is_negative_imaginary(self):
        f = analyze(np.sin(3.0 * grid_points(16)))
        assert f.mode(3) == pytest.approx(-0.5j, abs=1e-15)

    def test_round_trip_is_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            f = random_real_field(rng, support=10, cutoff=15)
            g = analyze(synthesize(f, 64))
            assert l2_norm(g.with_cutoff(15) - f) < 1e-12 * l2_norm(f)

    def test_analysis_projects_the_mean(self):
        f = analyze(np.cos(grid_points(16)) + 7.5)
        assert f.mode(0) == 0

    def test_rejects_odd_sample_counts(self):
        with pytest.raises(ValueError, match="power of two"):
            analyze(np.zeros(24))

    def test_rejects_multidimensional_samples(self):
        with pytest.raises(ValueError, match="samples must be one-dimensional"):
            analyze(np.zeros((4, 4)))

    def test_synthesis_needs_room_for_the_modes(self):
        f = FourierField.from_modes({10: 1.0, -10: 1.0}, cutoff=10)
        with pytest.raises(ValueError, match="grid"):
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

    def test_the_shared_sign_vector_refuses_writes(self):
        """(-1)^k is built once per grid size and shared, so no caller may change it."""
        signs = _alternating_signs(8)
        assert signs is _alternating_signs(8)
        assert signs.tolist() == [1.0, -1.0, 1.0, -1.0]
        with pytest.raises(ValueError, match="read-only"):
            signs[1] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            np.negative(signs, out=signs)

    def test_field_rows_keep_the_signs_of_zero(self):
        """Half spectrum to coefficients: (-1)^k * half / m in that order, zeros' signs too."""
        m = 64
        rng = np.random.default_rng(9)
        half = rng.standard_normal(m // 2 + 1) + 1j * rng.standard_normal(m // 2 + 1)
        half[1::3] = complex(-0.0, 0.0)
        half[2::5] = complex(0.0, -0.0)
        half[-1] = 0.0
        ks = np.arange(m // 2)
        pos = np.where(ks % 2 == 0, 1.0, -1.0) * half[: m // 2] / m
        want = np.concatenate([np.conj(pos[:0:-1]), [0.0], pos[1:]])
        got = field_from_half_spectrum(half, m).coeffs
        assert_same_bits(got, want)


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
        assert g.mode(0) == 0 and g.reality_defect() == 0.0
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
        assert g.mode(0) == 0 and g.reality_defect() == 0.0
        back = synthesize(g, len(samples))
        scale = 1.0 + float(np.max(np.abs(samples)))
        assert abs(float(np.mean(back))) <= 1e-12 * scale
        assert l2_norm(analyze(back) - g) <= 1e-12 * scale

    @given(f=real_fields(), extra=st.integers(0, 2))
    @settings(deadline=None, max_examples=80)
    def test_half_spectrum_then_field(self, f, extra):
        m = grid_for(f.cutoff, extra)
        half = half_spectrum(f, m)
        assert half[0] == m * f.mode(0) and half[-1] == 0
        g = field_from_half_spectrum(half, m)
        assert g.mode(0) == 0 and g.reality_defect() == 0.0
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


def parse_spectrum_csv(path):
    """A spectrum CSV read with the stdlib: its ``k`` column, then ``re`` and ``im`` by ``float``."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["k", "re", "im"]
    ks = [int(row[0]) for row in rows[1:]]
    re = np.array([float(row[1]) for row in rows[1:]])
    im = np.array([float(row[2]) for row in rows[1:]])
    return ks, re, im


class TestSerialization:
    def test_the_csv_gives_back_every_bit_of_the_coefficients(self, tmp_path):
        """``repr`` floats round-trip through ``float``: random draws, -0.0 and the extremes."""
        f = random_real_field(np.random.default_rng(11), support=8, cutoff=12)
        coeffs = np.array(f.coeffs)
        coeffs[[0, 1, 2]] = [complex(-0.0, 5e-324), complex(1.7976931348623157e308, -0.0),
                             complex(2.2250738585072014e-308, 1e-300)]
        f = FourierField(coeffs)
        path = tmp_path / "field.csv"
        write_field_csv(f, path)
        ks, re, im = parse_spectrum_csv(path)
        assert ks == list(range(-12, 13))
        assert_same_bits(re, f.coeffs.real)
        assert_same_bits(im, f.coeffs.imag)

    @pytest.mark.parametrize(
        "value",
        [0.0, -0.0, 0.1, 1.0 / 3.0, 2.0, 1e16, 1e-7, 5e-324, 1.7976931348623157e308],
        ids=["zero", "minus-zero", "tenth", "third", "two", "1e16", "1e-7",
             "least-subnormal", "largest"],
    )
    def test_each_cell_is_the_shortest_repr(self, tmp_path, value):
        """The file's bytes: the header, ``\\n`` line ends, each cell as ``repr`` spells it."""
        path = tmp_path / "field.csv"
        write_field_csv(FourierField.from_modes({1: complex(value, -value)}, cutoff=1), path)
        assert path.read_bytes() == (
            f"k,re,im\n-1,0.0,0.0\n0,0.0,0.0\n1,{value!r},{-value!r}\n".encode()
        )

    @pytest.mark.parametrize("cutoff", [1, 2, 12, 255])
    def test_rows_run_from_minus_to_plus_cutoff(self, tmp_path, cutoff):
        """One row per stored mode, in increasing k with no gap, each three cells long."""
        path = tmp_path / "field.csv"
        write_field_csv(random_real_field(cutoff, support=1, cutoff=cutoff), path)
        lines = path.read_text(encoding="utf-8").split("\n")
        assert lines[0] == "k,re,im" and lines[-1] == ""
        rows = [line.split(",") for line in lines[1:-1]]
        assert [row[0] for row in rows] == [str(k) for k in range(-cutoff, cutoff + 1)]
        assert {len(row) for row in rows} == {3}

    def test_a_real_field_is_written_conjugate_symmetric(self, tmp_path):
        """Rows -k and k of a real field: the same ``re``, opposite ``im``, and row 0 is zero."""
        path = tmp_path / "field.csv"
        write_field_csv(random_real_field(7, support=9, cutoff=12), path)
        ks, re, im = parse_spectrum_csv(path)
        assert np.array_equal(re, re[::-1])
        assert np.array_equal(im, -im[::-1])
        assert (re[12], im[12]) == (0.0, 0.0)


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
            assert f.mode(0) == 0
            assert max(abs(k) for k in f.support()) <= 7

    def test_support_must_fit_the_cutoff(self):
        with pytest.raises(ValueError, match="support"):
            random_real_field(0, support=9, cutoff=4)
