"""Resonance algebra, the B-operator chain, and the reduced-equation residual."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvtorus import normal_form
from kdvtorus.experiments import HermiteSpec, hermite_initial
from kdvtorus.fields import FourierField, l2_norm, random_real_field, sobolev_norm
from kdvtorus.integrator import _alias_free_rk4_step
from kdvtorus.normal_form import (
    ResonanceClass,
    _accumulate,
    _at_time,
    _fft_length,
    _support,
    apriori_ratios,
    b2,
    b3,
    b4,
    check_identities,
    classify_resonance,
    normal_form_residual,
    ratio_census,
    resonant_term,
    rhs_v,
)
from oracles import (
    b3_all_rows,
    b4_all_rows,
    b4_split,
    seed_b2_time_zero,
    seed_b3_rows,
    seed_b4_rows,
)
from test_acceptance import baseline_value


def pair_field(c: complex, k: int = 1, cutoff: int = 8) -> FourierField:
    """A single conjugate pair: c at mode k, conj(c) at mode -k."""
    return FourierField.from_modes({k: c, -k: np.conj(c)}, cutoff=cutoff)


# ---------------------------------------------------------------------------
# index-grid oracles for the t = 0 kernels: each output mode accumulates its
# terms directly, with the star's exclusions as explicit zero-denominator cuts
# ---------------------------------------------------------------------------


def b2_loop(v: FourierField) -> FourierField:
    """B2 at t = 0: ``sum_{k1+k2=k} v1*v2/(k1*k2)``, one row of pairs per k1."""
    ks, vals = _support(v)
    cutoff = v.cutoff
    out = np.zeros(2 * cutoff + 1, dtype=np.complex128)
    for i in range(ks.size):
        k1 = int(ks[i])
        contrib = (vals[i] * vals) / (k1 * ks).astype(float)
        _accumulate(out, k1 + ks, contrib, cutoff)
    return FourierField(out)


def b3_loop(v: FourierField) -> FourierField:
    """B3 at t = 0: the starred triple sum, one (k2, k3) grid per k1."""
    ks, vals = _support(v)
    cutoff = v.cutoff
    out = np.zeros(2 * cutoff + 1, dtype=np.complex128)
    if ks.size == 0:
        return FourierField(out)
    k2g, k3g = np.meshgrid(ks, ks, indexing="ij")
    v23 = np.outer(vals, vals)
    s23 = k2g + k3g
    for i in range(ks.size):
        k1 = int(ks[i])
        denom = k1 * (k1 + k2g) * (k1 + k3g) * s23
        valid = denom != 0
        if not np.any(valid):
            continue
        ktot = (k1 + s23)[valid]
        contrib = (vals[i] * v23[valid]) / denom[valid].astype(float)
        _accumulate(out, ktot, contrib, cutoff)
    return FourierField(out)


def b4_grid(v: FourierField) -> FourierField:
    """B4 at t = 0 on a (k1, k2, s) grid against the pair sums ``W(s)``, s != 0."""
    ks, vals = _support(v)
    cutoff = v.cutoff
    out = np.zeros(2 * cutoff + 1, dtype=np.complex128)
    if ks.size == 0:
        return FourierField(out)
    maxk = int(np.max(np.abs(ks)))
    pair_sum = (ks[:, None] + ks[None, :]).ravel()
    pair_val = np.outer(vals, vals).ravel()
    off = 2 * maxk
    w = np.bincount(pair_sum + off, weights=pair_val.real, minlength=4 * maxk + 1)
    w = w + 1j * np.bincount(pair_sum + off, weights=pair_val.imag, minlength=4 * maxk + 1)
    svals = np.arange(-2 * maxk, 2 * maxk + 1, dtype=np.int64)
    live = (svals != 0) & (w != 0.0)
    svals, w = svals[live], w[live]
    k1g = ks[:, None, None]
    k2g = ks[None, :, None]
    sg = svals[None, None, :]
    denom = k1g * (k1g + k2g) * (k1g + sg) * (k2g + sg)
    valid = denom != 0
    quad = vals[:, None, None] * vals[None, :, None] * w[None, None, :]
    contrib = np.where(valid, 0.5 * (2 * sg + k1g) * quad, 0.0)
    contrib = contrib / np.where(valid, denom, 1).astype(float)
    ktot = np.broadcast_to(k1g + k2g + sg, contrib.shape).ravel()
    _accumulate(out, ktot, contrib.ravel(), cutoff)
    return FourierField(out)


ORACLES = {"b2": (b2, b2_loop), "b3": (b3, b3_loop), "b4": (b4, b4_grid)}


def assert_matches_oracle(name: str, v: FourierField, t: float, tol: float = 1e-13):
    """The kernel at time t against its oracle under the same diagonal phase."""
    op, oracle = ORACLES[name]
    want = _at_time(oracle, v, t)
    assert l2_norm(op(v, t) - want) <= tol * l2_norm(want)


def assert_same_bits(got, want) -> None:
    """Every bit equal, signs of zero included."""
    np.testing.assert_array_equal(np.asarray(got).view(np.uint64),
                                  np.asarray(want).view(np.uint64))


def rk4_exact(w: FourierField, t0: float, h: float) -> FourierField:
    """Oracle for the residual probe's step: classical RK4 on the exact-sum rhs_v."""
    s1 = rhs_v(w, t0)
    s2 = rhs_v(w + (0.5 * h) * s1, t0 + 0.5 * h)
    s3 = rhs_v(w + (0.5 * h) * s2, t0 + 0.5 * h)
    s4 = rhs_v(w + h * s3, t0 + h)
    return w + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)


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
    def test_both_identities_hold(self):
        assert check_identities(12) == {
            "limit": 12, "cube_identity": True, "factorization_identity": True,
        }

    @pytest.mark.parametrize("limit", [0, -3])
    def test_a_limit_below_one_is_refused(self, limit):
        with pytest.raises(ValueError, match=f"at least 1, got {limit}"):
            check_identities(limit)


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
        z = FourierField(np.zeros(2 * 6 + 1))
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
        exp(3i*(k1+k2)*(k2+k3)*(k3+k1)*t) term by term.
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
                    phase = cmath.exp(3j * (k1 + k2) * (k2 + k3) * (k3 + k1) * t)
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


class TestKernelsAgainstOracles:
    """The per-output-mode convolution kernels against the index-grid sums."""

    @pytest.mark.parametrize("name", sorted(ORACLES))
    @pytest.mark.parametrize("t", [0.0, 0.37])
    @pytest.mark.parametrize("support", [1, 4, 16, 32])
    def test_random_fields(self, name, t, support):
        v = random_real_field(40 + support, support=support, cutoff=4 * support)
        assert_matches_oracle(name, v, t)

    @pytest.mark.parametrize("name", sorted(ORACLES))
    @pytest.mark.parametrize("t", [0.0, 0.37])
    def test_sparse_support(self, name, t):
        modes = {3: 0.8 - 0.3j, 7: -0.4 + 1.1j, 20: 0.6 + 0.2j}
        modes.update({-k: np.conj(c) for k, c in modes.items()})
        assert_matches_oracle(name, FourierField.from_modes(modes, cutoff=80), t)

    @pytest.mark.parametrize("name", sorted(ORACLES))
    @pytest.mark.parametrize("t", [0.0, 0.37])
    @pytest.mark.parametrize("cutoff", [10, 28])
    def test_truncated_outputs(self, name, t, cutoff):
        """Support 8: cutoff 10 truncates every operator, 28 only B4 (4M = 32)."""
        assert_matches_oracle(name, random_real_field(5, support=8, cutoff=cutoff), t)

    @pytest.mark.parametrize("name", sorted(ORACLES))
    @pytest.mark.parametrize("t", [0.0, 0.37])
    def test_non_real_field(self, name, t):
        rng = np.random.default_rng(8)
        coeffs = rng.standard_normal(49) + 1j * rng.standard_normal(49)
        coeffs[24] = 0.0
        v = FourierField(coeffs)
        assert v.reality_defect() > 0.1
        assert_matches_oracle(name, v, t)

    @given(
        modes=st.dictionaries(
            st.integers(-20, 20).filter(lambda k: k != 0),
            st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=12,
        ),
        extra=st.integers(0, 60),
        t=st.sampled_from([0.0, 0.37]),
    )
    @settings(deadline=None, max_examples=40)
    def test_any_support_and_cutoff(self, modes, extra, t):
        """Arbitrary (possibly non-real) supports, cutoffs from max |k| up.

        An output can vanish exactly (one mode whose sums all truncate), so
        the rounding floor scales with the input as well: 1e-15 * |v|^deg.
        """
        top = max(abs(k) for k in modes)
        v = FourierField.from_modes(modes, cutoff=top + extra)
        for name, deg in (("b2", 2), ("b3", 3), ("b4", 4)):
            op, oracle = ORACLES[name]
            want = _at_time(oracle, v, t)
            floor = 1e-15 * l2_norm(v) ** deg
            assert l2_norm(op(v, t) - want) <= 1e-13 * l2_norm(want) + floor, name


class TestFullGridField:
    """Operators on a 255-mode field with cutoff 256, the size of an m = 512 run."""

    def test_b2_matches_its_oracle(self):
        v = random_real_field(512, support=255, cutoff=256)
        assert_matches_oracle("b2", v, 0.0)

    def test_b3_b4_are_real_and_homogeneous(self):
        v = random_real_field(512, support=255, cutoff=256)
        s = 0.7
        for op, deg, unit in ((b3, 3, 1.0), (b4, 4, 1j)):
            out = op(v, 0.0)
            scale = max(1.0, l2_norm(out))
            assert (unit * out).reality_defect() < 1e-13 * scale
            assert l2_norm(op(s * v, 0.0) - (s**deg) * out) < 1e-12 * (s**deg) * scale

    def test_b3_matches_its_oracle_at_support_64(self):
        assert_matches_oracle("b3", random_real_field(64, support=64, cutoff=256), 0.0)


class TestMirror:
    """B3 and B4 form the rows K >= 0 and mirror the negative modes."""

    @pytest.mark.parametrize("t", [0.0, 0.37])
    def test_real_input_gives_exactly_real_output(self, t):
        v = random_real_field(32, support=32, cutoff=128)
        assert b3(v, t).reality_defect() == 0.0
        assert (1j * b4(v, t)).reality_defect() == 0.0

    @pytest.mark.parametrize("op, rows", [(b3, "_b3_rows"), (b4, "_b4_rows")])
    @pytest.mark.parametrize("t", [0.0, 0.37])
    def test_half_kernel_runs_once_on_real_twice_on_non_real(self, monkeypatch, op, rows, t):
        calls = []
        kernel = getattr(normal_form, rows)
        monkeypatch.setattr(normal_form, rows, lambda w: calls.append(1) or kernel(w))
        real = random_real_field(6, support=6, cutoff=24)
        op(real, t)
        assert len(calls) == 1
        op(FourierField(cmath.exp(0.3j) * real.coeffs), t)
        assert len(calls) == 3

    @pytest.mark.parametrize("op, kernel", [
        (b2, normal_form._b2_time_zero),
        (b3, lambda v: normal_form._mirrored(normal_form._b3_rows, 1.0, v)),
        (b4, lambda v: normal_form._mirrored(normal_form._b4_rows, -1.0, v)),
    ], ids=["b2", "b3", "b4"])
    def test_time_zero_phase_is_exactly_one(self, op, kernel):
        """At t = 0 the diagonal phase path returns the kernel's values unchanged."""
        for v in (random_real_field(4, support=8, cutoff=32),
                  FourierField(cmath.exp(0.3j) * random_real_field(5, 6, 24).coeffs)):
            assert np.array_equal(op(v, 0.0).coeffs, kernel(v).coeffs)

    @pytest.mark.parametrize("op, all_rows", [(b3, b3_all_rows), (b4, b4_all_rows)],
                             ids=["b3", "b4"])
    def test_full_hermite_field_matches_all_rows(self, op, all_rows):
        """At the tool's grid: m = 512, every mode up to the cutoff 255 live."""
        v = hermite_initial(HermiteSpec(0.1), 512)
        want = _at_time(all_rows, v, 0.37)
        assert l2_norm(op(v, 0.37) - want) <= 1e-13 * l2_norm(want)


class TestSeedBits:
    """b2/b3/b4 keep the bits of the kernels as first written (``tests/oracles.py``).

    Both sides run here, so the pin holds on any CPU; it fails if a change to
    the reciprocal windows, the column placement or the in-place FFT moves
    one bit, the sign of a zero included.
    """

    SEEDS = {
        "b2": seed_b2_time_zero,
        "b3": lambda v: normal_form._mirrored(seed_b3_rows, 1.0, v),
        "b4": lambda v: normal_form._mirrored(seed_b4_rows, -1.0, v),
    }
    FIELDS = [(4, 8), (4, 16), (16, 32), (16, 64), (32, 64), (32, 128), (64, 128), (64, 256)]

    @pytest.mark.parametrize("name", ["b2", "b3", "b4"])
    @pytest.mark.parametrize("t", [0.0, 0.37, -1.3])
    def test_random_fields_keep_their_bits(self, name, t):
        op, seed = getattr(normal_form, name), self.SEEDS[name]
        real = [random_real_field(40 + i, support, cutoff)
                for i, (support, cutoff) in enumerate(self.FIELDS)]
        rotated = FourierField(cmath.exp(0.3j) * real[2].coeffs)
        for v in [*real, rotated]:
            assert_same_bits(op(v, t).coeffs, _at_time(seed, v, t).coeffs)

    @pytest.mark.parametrize("name", ["b2", "b3", "b4"])
    def test_full_hermite_field_keeps_its_bits(self, name):
        v = hermite_initial(HermiteSpec(0.1), 512)
        want = _at_time(self.SEEDS[name], v, 0.37)
        assert_same_bits(getattr(normal_form, name)(v, 0.37).coeffs, want.coeffs)


class TestRowGrids:
    """The (top+1, n) complex row grids of b3 and b4: their length n and how many live at once."""

    @pytest.mark.parametrize("span, n", [(1, 1), (7, 8), (257, 270), (1276, 1280),
                                         (100001, 101250), (200001, 202500)])
    def test_fft_length_is_the_next_5_smooth_length(self, span, n):
        """A loop, not a call per candidate: 100,001 -> 101,250 tries 1,250 lengths."""
        assert _fft_length(span) == n

    @pytest.mark.parametrize(
        "op, v, t, rows, n, grids",
        [(b4, random_real_field(1, 32, cutoff=128), 0.0, 129, 270, 5.0),
         (b4, hermite_initial(HermiteSpec(0.1), 512), 0.37, 256, 1280, 5.0),
         (b3, hermite_initial(HermiteSpec(0.1), 512), 0.37, 256, 1024, 2.5)],
        ids=["b4-census", "b4-full", "b3-full"],
    )
    def test_traced_peak_stays_below_its_grid_count(self, op, v, t, rows, n, grids):
        """Each spectrum used once is built inside the product that consumes it.

        b4 then holds at most four grids and b3 two (a name for every spectrum
        would hold six and three); the rest of the peak is the fills'
        column-slice products. The bound relies on NumPy's temporary elision
        reusing a spectrum's buffer; checked with CPython 3.11.7 and NumPy
        2.4.6 (CI runs Python 3.11).
        """
        op(v, t)  # warm-up
        tracemalloc.start()
        try:
            op(v, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grids * rows * n * 16


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
    @pytest.mark.parametrize("support", [4, 8])
    @pytest.mark.parametrize("h", [1e-3, -1e-3])
    def test_probe_step_matches_the_exact_sum_step(self, support, h):
        """The package's RK4 step, masked at the field's cutoff, is the exact-sum step.

        Support 8 at cutoff 16 lies past the probe's quarter rule; there a
        step masked at the grid's cutoff instead of K misses by about 3e-8.
        """
        v = random_real_field(support, support=support, cutoff=16)
        v = v * (1.0 / l2_norm(v))
        want = rk4_exact(v, 0.37, h)
        got = _alias_free_rk4_step(v, 0.37, h)
        assert got.cutoff == 16
        assert l2_norm(got - want) <= 1e-14 * l2_norm(want)

    def test_non_real_field_is_rejected(self):
        v = FourierField.from_modes({1: 1.0, -1: 2.0}, cutoff=16)
        with pytest.raises(ValueError, match="reality"):
            normal_form_residual(v, 0.0, 1e-3)

    def test_residual_shrinks_at_second_order(self):
        v = random_real_field(4, support=4, cutoff=16)
        v = v * (1.0 / l2_norm(v))
        r = [normal_form_residual(v, 0.37, dt) for dt in (1e-3, 5e-4, 2.5e-4)]
        for coarse, fine in zip(r, r[1:]):
            assert 3.0 < coarse / fine < 5.0

    @pytest.mark.parametrize("t", [0.0, 0.37])
    @pytest.mark.parametrize("width, reach, dt", [(0.4, 20, 1e-4), (0.2, 40, 1e-5)])
    def test_residual_shrinks_at_second_order_on_hermite_data(self, width, reach, dt, t):
        """The tool's own data: unit-norm Hermite modes above 1e-13 of the largest.

        The cutoff is 4x the reach, the least the probe accepts, and dt halves
        three times from a step in the window where the residual is still
        well above rounding.
        """
        v = hermite_initial(HermiteSpec(width), 512)
        v = v * (1.0 / l2_norm(v))
        big = np.abs(v.coeffs) >= 1e-13 * np.max(np.abs(v.coeffs))
        v = FourierField(np.where(big, v.coeffs, 0.0))
        assert max(v.support()) == reach
        v = v.with_cutoff(4 * reach)
        r = [normal_form_residual(v, t, dt / 2**i) for i in range(4)]
        for coarse, fine in zip(r, r[1:]):
            assert 1.9 <= math.log2(coarse / fine) <= 2.1

    def test_small_step_residual_is_far_below_operator_scale(self):
        v = random_real_field(4, support=4, cutoff=16)
        v = v * (1.0 / l2_norm(v))
        scale = l2_norm(resonant_term(v)) / 6.0 + l2_norm(b4(v, 0.0)) / 18.0
        assert normal_form_residual(v, 0.0, 1e-5) < 1e-6 * scale

    @pytest.mark.parametrize("flipped", ["b2", "b3", "resonant", "b4"])
    def test_wrong_sign_in_the_chain_leaves_a_floor(self, flipped):
        """Flipping any one coefficient's sign must not look convergent.

        Rebuilds the centered difference from the exact-sum step and the
        operators (an oracle for the library routine, which steps with the
        package's RK4, with every sign right) and flips the sign of one
        coefficient: B2, B3, the resonant term or B4.
        """
        v = random_real_field(4, support=4, cutoff=16)
        v = v * (1.0 / l2_norm(v))
        t = 0.37

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
                comb(rk4_exact(v, t, dt), t + dt) - comb(rk4_exact(v, t, -dt), t - dt)
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
        with pytest.raises(ValueError, match="quarter"):
            normal_form_residual(wide, 0.0, 1e-3)
        # the quarter rule is 4 * max|k| <= cutoff: support 4 needs cutoff 16
        with pytest.raises(ValueError, match="quarter of the storage range 15"):
            normal_form_residual(random_real_field(7, support=4, cutoff=15), 0.37, 1e-3)
        assert normal_form_residual(random_real_field(7, support=4, cutoff=16), 0.37, 1e-3) > 0.0
        ok = random_real_field(0, support=4, cutoff=16)
        for dt in (0.0, -1e-3, math.nan, math.inf):
            with pytest.raises(ValueError, match="dt must be positive"):
                normal_form_residual(ok, 0.3, dt)
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match="t must be finite"):
                normal_form_residual(ok, t, 1e-3)
        zero = FourierField(np.zeros(2 * 16 + 1))
        assert normal_form_residual(zero, 0.0, 1e-3) == 0.0

    @pytest.mark.parametrize(
        "t, dt",
        [(1e300, 1e-3), (1e150, 1e-3), (0.37, 1e300), (0.37, 1e150), (0.37, 1e-300),
         (0.37, 5e-324), (-1e13, 1e-3)],
    )
    def test_times_with_no_digits_left_are_refused(self, t, dt):
        """t +- dt rounding to t, or a phase t*k^3 beyond 2^53, is refused before stepping."""
        ok = random_real_field(0, support=4, cutoff=16)
        with pytest.raises(ValueError, match=r"leave no digits.*\(K = 16\)"):
            normal_form_residual(ok, t, dt)


    @pytest.mark.parametrize("dt", [1e-300, 1e-30, 5e-324])
    def test_step_too_small_to_move_the_field_is_refused(self, dt):
        """At t = 0, t +- dt keeps its digits, but v +- dt*rhs rounds to v on v's modes."""
        v = random_real_field(0, support=4, cutoff=16)
        with pytest.raises(ValueError, match="too small to move the field at t = 0.0"):
            normal_form_residual(v, 0.0, dt)


class TestAprioriRatios:
    def test_single_pair_fifth_ratio_is_exactly_half(self):
        """For v supported on one conjugate pair the cubic-weight ratio is 1/2."""
        for n in (3, 7):
            c = 1.0 / math.sqrt(2.0)
            ratios = apriori_ratios(pair_field(c, k=n, cutoff=4 * n))
            assert ratios["r5"] == pytest.approx(0.5, abs=1e-14)

    def test_ratios_are_scale_invariant(self):
        rng = np.random.default_rng(9)
        for _ in range(4):
            v = random_real_field(rng, support=6, cutoff=24)
            s = float(rng.uniform(0.2, 5.0))
            a = apriori_ratios(v)
            b = apriori_ratios(s * v)
            for name in a:
                assert b[name] == pytest.approx(a[name], rel=1e-9)

    def test_ratio_fields_are_consistent(self):
        v = random_real_field(17, support=6, cutoff=24)
        r = apriori_ratios(v)
        hm = sobolev_norm(v, -0.5)
        assert r["r1"] == pytest.approx(l2_norm(b2(v, 0.0)) / hm**2, rel=1e-12)

    def test_zero_field_is_rejected(self):
        with pytest.raises(ValueError, match="zero field"):
            apriori_ratios(FourierField(np.zeros(2 * 8 + 1)))

    def test_census_smoke(self):
        """A tiny census returns positive, finite maxima for all five ratios."""
        maxima = ratio_census(count=3, support=8)
        assert sorted(maxima) == ["r1", "r2", "r3", "r4", "r5"]
        for value in maxima.values():
            assert 0.0 < value < 100.0

    def test_census_maxima_equal_their_frozen_values(self):
        """CENSUS_SEED makes the census deterministic: criterion 8's maxima to rounding.

        Criterion 8 allows +-20 % around these values; this pins them exactly.
        """
        maxima = ratio_census(count=100, support=32)
        for name, value in maxima.items():
            assert value == pytest.approx(baseline_value(f"census_{name}"), rel=1e-12)

    def test_a_non_finite_ratio_is_refused(self, monkeypatch):
        """A NaN output mode of B4 must not vanish inside the census maxima."""

        def broken_b4(v, t):
            out = b4(v, t).coeffs.copy()
            out[v.cutoff + 1] = np.nan
            return FourierField(out)

        monkeypatch.setattr(normal_form, "b4", broken_b4)
        with pytest.raises(ValueError, match="r3, r4"):
            ratio_census(count=3, support=8)

    @pytest.mark.parametrize("count", [0, -1])
    def test_empty_census_is_rejected(self, count):
        with pytest.raises(ValueError, match="at least 1"):
            ratio_census(count=count, support=8)
