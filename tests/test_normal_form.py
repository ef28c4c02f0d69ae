"""Resonance algebra, the B-operator chain, and the reduced-equation residual."""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvtorus.errors import TruncationError, UndefinedRatioError
from kdvtorus.fields import FourierField, l2_norm, random_real_field, sobolev_norm
from kdvtorus.normal_form import (
    CENSUS_SEED,
    ResonanceClass,
    apriori_ratios,
    b2,
    b3,
    b4,
    b4_split,
    check_cube_identity,
    check_factorization_identity,
    classify_resonance,
    cubic_phase,
    normal_form_residual,
    quartic_phase,
    ratio_census,
    resonant_term,
    rhs_v,
)


def pair_field(c: complex, k: int = 1, cutoff: int = 8) -> FourierField:
    """A single conjugate pair: c at mode k, conj(c) at mode -k."""
    return FourierField.from_modes({k: c, -k: np.conj(c)}, cutoff=cutoff)


class TestClassification:
    def test_representative_triples(self):
        assert classify_resonance(-5, 5, 5) is ResonanceClass.S1
        assert classify_resonance(3, -3, 7) is ResonanceClass.S2
        assert classify_resonance(7, 3, -7) is ResonanceClass.S3
        assert classify_resonance(2, 3, 4) is ResonanceClass.NON_RESONANT

    def test_zero_denominators_are_excluded_not_classified(self):
        for triple in [(0, 1, 2), (1, 0, 2), (1, 2, 0), (1, 2, -2), (5, 3, -3)]:
            assert (
                classify_resonance(*triple)
                is ResonanceClass.EXCLUDED_ZERO_DENOMINATOR
            )

    def test_resonant_iff_phase_product_vanishes(self):
        """On the admissible index set, S1/S2/S3 = zeros of (k1+k2)(k3+k1)."""
        for k1 in range(-6, 7):
            for k2 in range(-6, 7):
                for k3 in range(-6, 7):
                    cls = classify_resonance(k1, k2, k3)
                    if cls is ResonanceClass.EXCLUDED_ZERO_DENOMINATOR:
                        continue
                    vanishes = (k1 + k2) * (k3 + k1) == 0
                    assert (cls is not ResonanceClass.NON_RESONANT) == vanishes


class TestPhases:
    def test_hand_values(self):
        assert cubic_phase(1, 1, 1) == 8
        assert cubic_phase(1, 2, 3) == 60
        assert quartic_phase(1, 1, 1, 1) == 60
        assert quartic_phase(2, -1, 3, 1) == 5**3 - 8 + 1 - 27 - 1

    def test_quartic_phase_is_divisible_by_three(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            ks = rng.integers(-40, 41, size=4)
            assert quartic_phase(*ks) % 3 == 0

    def test_identity_checks_pass(self):
        assert check_cube_identity(12)
        assert check_factorization_identity(8)

    def test_python_int_arithmetic_does_not_overflow(self):
        """Large wavenumbers must go through exact integer arithmetic."""
        big = 10**7
        assert quartic_phase(big, big, big, big) == (4 * big) ** 3 - 4 * big**3


class TestClosedForms:
    """Single-pair fields make every operator a short hand computation."""

    def test_rhs_on_a_cosine_pair(self):
        c = 0.3 - 0.7j
        out = rhs_v(pair_field(c), 0.0)
        assert out.mode(2) == pytest.approx(1j * c * c, abs=1e-15)
        assert out.mode(0) == 0

    def test_b2_on_a_cosine_pair(self):
        c = 0.5 + 0.2j
        out = b2(pair_field(c), 0.0)
        assert out.mode(0) == pytest.approx(-2.0 * abs(c) ** 2, abs=1e-15)
        assert out.mode(2) == pytest.approx(c * c, abs=1e-15)
        assert out.mode(1) == 0

    def test_b3_on_a_cosine_pair(self):
        """Only (1,1,1) survives the admissibility cuts at output mode 3."""
        c = 0.4 - 0.1j
        out = b3(pair_field(c), 0.0)
        assert out.mode(3) == pytest.approx(c**3 / 8.0, abs=1e-15)
        assert out.mode(1) == pytest.approx(0.0, abs=1e-15)

    def test_resonant_term_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            v = random_real_field(rng, support=5, cutoff=8)
            out = resonant_term(v)
            for k in range(-8, 9):
                want = -v.mode(k) * abs(v.mode(k)) ** 2 / k if k != 0 else 0.0
                assert out.mode(k) == pytest.approx(want, abs=1e-14)

    def test_operators_annihilate_the_zero_field(self):
        z = FourierField.zeros(6)
        for op in (lambda v: rhs_v(v, 0.3), lambda v: b2(v, 0.3),
                   lambda v: b3(v, 0.3), lambda v: b4(v, 0.3), resonant_term):
            assert l2_norm(op(z)) == 0.0

    def test_nonzero_mean_input_is_rejected(self):
        bad = FourierField.from_modes({0: 1.0, 1: 1.0, -1: 1.0}, cutoff=4)
        with pytest.raises(ValueError, match="zero-mean"):
            b2(bad, 0.0)


class TestOperatorStructure:
    def test_homogeneity_degrees(self):
        """Scaling v by s scales B2, B3, B4 by s^2, s^3, s^4."""
        rng = np.random.default_rng(21)
        for _ in range(4):
            v = random_real_field(rng, support=4, cutoff=16)
            s = float(rng.uniform(0.3, 2.0))
            t = float(rng.uniform(0.0, 1.0))
            for op, deg in ((b2, 2), (b3, 3), (b4, 4)):
                scaled = op(s * v, t)
                ref = (s**deg) * op(v, t)
                assert l2_norm(scaled - ref) < 1e-12 * max(1.0, l2_norm(ref))

    @pytest.mark.parametrize("t", [0.0, 0.37])
    def test_conjugation_symmetry(self, t):
        """rhs, B2, B3 respect reality; B4 and the resonant term flip sign.

        The antisymmetric pair enters the reduced equation with a factor i,
        so i*B4 and i*resonant_term are the reality-respecting objects.
        """
        v = random_real_field(7, support=5, cutoff=20)
        for op in (rhs_v, b2, b3):
            assert op(v, t).reality_defect() < 1e-13
        assert (1j * b4(v, t)).reality_defect() < 1e-13
        assert (1j * resonant_term(v)).reality_defect() < 1e-13

    @given(
        seed=st.integers(0, 2**32 - 1),
        support=st.integers(1, 6),
        t=st.floats(0.0, 2.0 * math.pi, exclude_max=True),
        s=st.floats(0.25, 4.0),
    )
    @settings(deadline=None, max_examples=60)
    def test_homogeneity_and_reality_at_any_time(self, seed, support, t, s):
        """B2/B3/B4 are homogeneous of degree 2/3/4; B2, B3 and i*B4 are real."""
        v = random_real_field(seed, support=support, cutoff=4 * support)
        for op, deg, unit in ((b2, 2, 1.0), (b3, 3, 1.0), (b4, 4, 1j)):
            out = op(v, t)
            scale = max(1.0, l2_norm(out))
            assert l2_norm(op(s * v, t) - (s**deg) * out) < 1e-12 * (s**deg) * scale
            assert (unit * out).reality_defect() < 1e-13 * scale

    def test_time_dependent_b2_b3_match_per_term_phases(self):
        """B2 and B3 at t != 0 against dict loops with explicit phases.

        The operators carry time only through the diagonal phase
        conjugation; the oracle evaluates exp(3i*k*k1*k2*t) and
        exp(3i*cubic_phase(k1, k2, k3)*t) term by term.
        """
        v = random_real_field(13, support=5, cutoff=20)
        t = 0.83
        support = v.support()
        want2: dict[int, complex] = {}
        want3: dict[int, complex] = {}
        for k1 in support:
            for k2 in support:
                k = k1 + k2
                term = v.mode(k1) * v.mode(k2) / (k1 * k2)
                want2[k] = want2.get(k, 0.0) + cmath.exp(3j * k * k1 * k2 * t) * term
                for k3 in support:
                    denom = k1 * (k1 + k2) * (k1 + k3) * (k2 + k3)
                    if denom == 0:
                        continue
                    term = v.mode(k1) * v.mode(k2) * v.mode(k3) / denom
                    phase = cmath.exp(3j * cubic_phase(k1, k2, k3) * t)
                    want3[k + k3] = want3.get(k + k3, 0.0) + phase * term
        for op, want in ((b2, want2), (b3, want3)):
            ref = FourierField.from_modes(want, cutoff=20)
            assert l2_norm(op(v, t) - ref) < 1e-13 * l2_norm(ref)

    @pytest.mark.parametrize(
        "t, support",
        [(0.0, 4), (0.29, 4), (0.0, 16), (0.29, 16)],
        ids=["0.0", "0.29", "0.0-support16", "0.29-support16"],
    )
    def test_quartic_split_recombines(self, t, support):
        """b4 equals half the first split part plus the second, at any time.

        The term-by-term loop in b4_split, with a phase per term, is the
        oracle for the collapsed kernel and, at t != 0, for the diagonal
        phase conjugation. Support 16 checks the kernels at a size the tool
        runs, beyond the hand-sized support 4.
        """
        v = random_real_field(3, support=support, cutoff=4 * support)
        part1, part2 = b4_split(v, t)
        combined = 0.5 * part1 + part2
        whole = b4(v, t)
        assert l2_norm(combined - whole) < 1e-13 * l2_norm(whole)


class TestResonantSum:
    def test_brute_force_resonant_sum_matches_closed_form(self):
        """Summing v1*v2*v3/k1 over S1+S2+S3 collapses to -v_k|v_k|^2/k."""
        rng = np.random.default_rng(2)
        for _ in range(5):
            v = random_real_field(rng, support=4, cutoff=12)
            want = resonant_term(v)
            sums: dict[int, complex] = {}
            ks = range(-4, 5)
            for k1 in ks:
                for k2 in ks:
                    for k3 in ks:
                        cls = classify_resonance(k1, k2, k3)
                        if cls in (
                            ResonanceClass.NON_RESONANT,
                            ResonanceClass.EXCLUDED_ZERO_DENOMINATOR,
                        ):
                            continue
                        k = k1 + k2 + k3
                        term = v.mode(k1) * v.mode(k2) * v.mode(k3) / k1
                        sums[k] = sums.get(k, 0.0) + term
            got = FourierField.from_modes(sums, cutoff=12)
            assert l2_norm(got - want) < 1e-13


class TestResidual:
    def test_residual_shrinks_at_second_order(self):
        v = random_real_field(4, support=4, cutoff=16)
        v = v * (1.0 / l2_norm(v))
        r = [normal_form_residual(v, 0.37, dt) for dt in (1e-3, 5e-4, 2.5e-4)]
        for coarse, fine in zip(r, r[1:]):
            assert 3.0 < coarse / fine < 5.0

    def test_small_step_residual_is_far_below_operator_scale(self):
        v = random_real_field(4, support=4, cutoff=16)
        v = v * (1.0 / l2_norm(v))
        scale = l2_norm(resonant_term(v)) / 6.0 + l2_norm(b4(v, 0.0)) / 18.0
        assert normal_form_residual(v, 0.0, 1e-5) < 1e-6 * scale

    @pytest.mark.parametrize("flipped", ["b2", "b3", "resonant", "b4"])
    def test_wrong_sign_in_the_chain_leaves_a_floor(self, flipped):
        """Flipping any one coefficient's sign must not look convergent.

        Rebuilds the centered difference from public pieces (an oracle for
        the library routine with every sign right) and flips the sign of
        one coefficient: B2, B3, the resonant term or B4.
        """
        v = random_real_field(4, support=4, cutoff=16)
        v = v * (1.0 / l2_norm(v))
        t = 0.37

        def rk4(w, t0, h):
            s1 = rhs_v(w, t0)
            s2 = rhs_v(w + (0.5 * h) * s1, t0 + 0.5 * h)
            s3 = rhs_v(w + (0.5 * h) * s2, t0 + 0.5 * h)
            s4 = rhs_v(w + h * s3, t0 + h)
            return w + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)

        def residual(flip, dt):
            names = ("b2", "b3", "resonant", "b4")
            sign = {name: -1 if name == flip else 1 for name in names}

            def comb(w, tau):
                return (
                    w
                    - sign["b2"] * (1 / 6) * b2(w, tau)
                    + sign["b3"] * (1 / 18) * b3(w, tau)
                )

            lhs = (1.0 / (2.0 * dt)) * (
                comb(rk4(v, t, dt), t + dt) - comb(rk4(v, t, -dt), t - dt)
            )
            rhs = (
                sign["resonant"] * (-1j / 6) * resonant_term(v)
                + sign["b4"] * (1j / 18) * b4(v, t)
            )
            return l2_norm(lhs - rhs)

        for dt in (1e-3, 2.5e-4):
            assert residual(None, dt) == pytest.approx(
                normal_form_residual(v, t, dt), rel=1e-9
            )
        floors = [residual(flipped, dt) for dt in (1e-3, 2.5e-4)]
        assert min(floors) > 1e-3
        assert floors[0] / floors[1] < 1.5  # not shrinking like O(dt^2)

    def test_guard_rails(self):
        wide = random_real_field(0, support=8, cutoff=16)
        with pytest.raises(TruncationError, match="quarter"):
            normal_form_residual(wide, 0.0, 1e-3)
        ok = random_real_field(0, support=4, cutoff=16)
        with pytest.raises(ValueError, match="dt must be positive"):
            normal_form_residual(ok, 0.0, 0.0)
        assert normal_form_residual(FourierField.zeros(16), 0.0, 1e-3) == 0.0


class TestAprioriRatios:
    def test_single_pair_fifth_ratio_is_exactly_half(self):
        """For v supported on one conjugate pair the cubic-weight ratio is 1/2."""
        for n in (3, 7):
            c = 1.0 / math.sqrt(2.0)
            ratios = apriori_ratios(pair_field(c, k=n, cutoff=4 * n))
            assert ratios.r5 == pytest.approx(0.5, abs=1e-14)

    def test_ratios_are_scale_invariant(self):
        rng = np.random.default_rng(9)
        for _ in range(4):
            v = random_real_field(rng, support=6, cutoff=24)
            s = float(rng.uniform(0.2, 5.0))
            a = apriori_ratios(v).as_dict()
            b = apriori_ratios(s * v).as_dict()
            for name in a:
                assert b[name] == pytest.approx(a[name], rel=1e-9)

    def test_ratio_fields_are_consistent(self):
        v = random_real_field(17, support=6, cutoff=24)
        r = apriori_ratios(v)
        hm = sobolev_norm(v, -0.5)
        assert r.r1 == pytest.approx(l2_norm(b2(v, 0.0)) / hm**2, rel=1e-12)
        assert r.max_ratio() == max(r.as_dict().values())

    def test_zero_field_is_rejected(self):
        with pytest.raises(UndefinedRatioError, match="zero field"):
            apriori_ratios(FourierField.zeros(8))

    def test_census_smoke(self):
        """A tiny census returns positive, finite maxima for all five ratios."""
        maxima = ratio_census(count=3, support=8, seed=CENSUS_SEED)
        assert sorted(maxima) == ["r1", "r2", "r3", "r4", "r5"]
        for value in maxima.values():
            assert 0.0 < value < 100.0
