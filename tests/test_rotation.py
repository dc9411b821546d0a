import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discwalk import (
    AlphaSpec,
    FiniteCF,
    FixedAngle,
    UnboundedQuotients,
    UnknownPreset,
    advance,
    phi,
    resolve_alpha,
)
from discwalk.rotation import (_BLOCK, HALF, MODULUS, orbit_hi64, orbit_words, partition_cells,
                               walk_heights)

BITS = st.integers(min_value=0, max_value=MODULUS - 1)
WORD = 1 << 64


def _scalar_signs(theta: int, alpha: int, n: int) -> list:
    """phi along the orbit, from the Python-int definitions."""
    t, a = FixedAngle(theta), FixedAngle(alpha)
    return [phi(advance(t, a, k)) for k in range(n)]


def _scalar_heights(theta: int, alpha: int, n: int) -> list:
    heights = [0]
    for s in _scalar_signs(theta, alpha, n - 1):
        heights.append(heights[-1] + s)
    return heights


# Carry-heavy starts for orbit_words: the top word of an orbit point is the
# sum of the top words plus the carry c (0 <= c <= j < _BLOCK) out of the low
# words, and that carry decides the sign when the top word lies at most
# _BLOCK - 1 below 2**63 or 2**64.  A top word that close, an alpha whose top
# word is small (or whose value is below 2**64) and low words near 2**64,
# which make the carry as large as it can be, put whole runs of indices
# where a lost carry would flip the sign.
_NEAR = st.integers(0, _BLOCK)
TOP_IN_BAND = st.one_of(
    _NEAR.map(lambda d: (1 << 63) - d),
    _NEAR.map(lambda d: WORD - 1 - d),
    _NEAR,
    st.integers(0, WORD - 1),
)
LOW_WORD = st.one_of(
    _NEAR.map(lambda d: WORD - 1 - d),
    _NEAR,
    st.integers(0, WORD - 1),
)
SMALL_TOP = st.one_of(
    st.integers(0, 8),
    st.integers(0, 8).map(lambda d: WORD - 1 - d),
)


class TestResolveAlpha:
    def test_golden_value(self, golden):
        assert golden.to_float() == pytest.approx((math.sqrt(5) - 1) / 2, abs=1e-15)

    def test_sqrt2m1_value(self, sqrt2m1):
        assert sqrt2m1.to_float() == pytest.approx(math.sqrt(2) - 1, abs=1e-15)

    def test_sqrt3m1_value(self):
        a = resolve_alpha(AlphaSpec(preset="sqrt3m1"))
        assert a.to_float() == pytest.approx(math.sqrt(3) - 1, abs=1e-15)

    def test_quantization_error_below_2_pow_minus_128(self, golden):
        # |alpha - bits/2**128| <= 2**-128, checked against a high-precision
        # independent evaluation of (sqrt(5)-1)/2
        import mpmath

        with mpmath.workdps(60):
            exact = (mpmath.sqrt(5) - 1) / 2
            err = abs(exact - mpmath.mpf(golden.bits) / mpmath.mpf(MODULUS))
            assert err <= mpmath.mpf(2) ** -128

    def test_finite_cf_rejected(self):
        with pytest.raises(FiniteCF):
            resolve_alpha(AlphaSpec(quotients=[1], bound=1))

    def test_empty_cf_rejected(self):
        with pytest.raises(FiniteCF):
            resolve_alpha(AlphaSpec(quotients=[], bound=1))

    @pytest.mark.parametrize("name, period", [
        ("golden", [1]), ("sqrt2m1", [2]), ("sqrt3m1", [1, 2])])
    def test_long_bounded_cf_accepted(self, name, period):
        # each preset is its period repeated, bit for bit
        a = resolve_alpha(AlphaSpec(quotients=period * 200, bound=2))
        assert a.bits == resolve_alpha(AlphaSpec(preset=name)).bits

    def test_quotient_above_bound_rejected(self):
        with pytest.raises(UnboundedQuotients):
            resolve_alpha(AlphaSpec(quotients=[1, 3, 1] * 100, bound=2))

    def test_nonpositive_quotient_rejected(self):
        with pytest.raises(UnboundedQuotients):
            resolve_alpha(AlphaSpec(quotients=[1, 0, 1] * 100, bound=2))

    def test_missing_bound_rejected(self):
        with pytest.raises(UnboundedQuotients):
            resolve_alpha(AlphaSpec(quotients=[1] * 200))

    def test_unknown_preset(self):
        with pytest.raises(UnknownPreset):
            resolve_alpha(AlphaSpec(preset="plastic"))


class TestFixedAngle:
    def test_hex_round_trip(self, golden):
        assert FixedAngle.from_hex(golden.to_hex()) == golden

    def test_fraction_round_trip(self):
        f = Fraction(3, 8)
        assert FixedAngle.from_fraction(f).to_fraction() == f

    def test_order_consistent_with_value(self):
        assert FixedAngle(1) < FixedAngle(2)
        assert FixedAngle.from_float(0.25) < FixedAngle.from_float(0.5)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            FixedAngle(MODULUS)
        with pytest.raises(ValueError):
            FixedAngle(-1)


class TestAdvance:
    def test_identity(self, golden):
        t = FixedAngle.from_float(0.3)
        assert advance(t, golden, 0) == t

    def test_exact_dyadic(self):
        t = FixedAngle.from_float(0.25)
        a = FixedAngle.from_float(0.5)
        assert advance(t, a, 3) == FixedAngle.from_float(0.75)

    def test_from_zero(self, golden):
        assert advance(FixedAngle(0), golden, 1) == golden

    def test_negative_n_rejected(self, golden):
        with pytest.raises(ValueError):
            advance(FixedAngle(0), golden, -1)

    @given(theta=BITS, alpha=BITS,
           m=st.integers(0, 1 << 40), n=st.integers(0, 1 << 40))
    def test_semigroup_law(self, theta, alpha, m, n):
        t, a = FixedAngle(theta), FixedAngle(alpha)
        assert advance(t, a, m + n) == advance(advance(t, a, m), a, n)

    @given(alpha=BITS)
    def test_single_step_is_bijection_inverse(self, alpha):
        # addition mod 2**128 is invertible: stepping by alpha then by its
        # complement returns to the start
        a = FixedAngle(alpha)
        inv = FixedAngle((-alpha) % MODULUS)
        t = FixedAngle(12345)
        assert advance(advance(t, a, 1), inv, 1) == t

    @given(theta=BITS, alpha=BITS, n=st.integers(0, 1 << 40), other=BITS)
    @example(theta=MODULUS - 1, alpha=MODULUS - 1, n=1 << 40, other=0)
    @example(theta=0, alpha=0, n=0, other=MODULUS - 1)
    def test_matches_a_checked_point(self, theta, alpha, n, other):
        # advance builds its point without the range check, and gives the
        # point FixedAngle builds with it: in value, hash and order
        got = advance(FixedAngle(theta), FixedAngle(alpha), n)
        checked = FixedAngle((theta + n * alpha) % MODULUS)
        assert type(got) is FixedAngle and got.bits == checked.bits
        assert got == checked and hash(got) == hash(checked)
        assert (got < FixedAngle(other)) == (checked < FixedAngle(other))
        assert (got > FixedAngle(other)) == (checked > FixedAngle(other))


class TestPhi:
    def test_zero(self):
        assert phi(FixedAngle(0)) == 1

    def test_half_boundary(self):
        assert phi(FixedAngle(HALF)) == -1

    def test_just_below_half(self):
        assert phi(FixedAngle(HALF - 1)) == 1

    @given(bits=BITS)
    def test_matches_half_test(self, bits):
        assert phi(FixedAngle(bits)) == (1 if bits < HALF else -1)


class TestOrbitEngine:
    """The vectorized limb engine against the scalar definitions."""

    @settings(max_examples=20, deadline=None)
    @given(theta=BITS, alpha=BITS)
    def test_orbit_signs_match_phi(self, theta, alpha):
        # the walk's steps are the signs of phi along the orbit
        n = 257
        steps = np.diff(walk_heights(theta, alpha, n + 1))
        t = FixedAngle(theta)
        a = FixedAngle(alpha)
        assert steps.tolist() == [phi(advance(t, a, k)) for k in range(n)]

    @settings(max_examples=20, deadline=None)
    @given(theta=BITS, alpha=BITS)
    def test_walk_heights_match_prefix_sums(self, theta, alpha):
        n = 257
        heights = walk_heights(theta, alpha, n)
        t = FixedAngle(theta)
        a = FixedAngle(alpha)
        h = 0
        for k in range(n):
            assert heights[k] == h
            h += phi(advance(t, a, k))

    def test_block_boundary_continuity(self, golden):
        # heights on each side of every block boundary, where the engine
        # hands the last height of one block to the next
        n = 3 * _BLOCK + 7
        theta = FixedAngle.from_float(0.3).bits
        heights = walk_heights(theta, golden.bits, n)
        expected = _scalar_heights(theta, golden.bits, n)
        for boundary in range(_BLOCK, n, _BLOCK):
            for k in range(boundary - 1, boundary + 3):
                assert heights[k] == expected[k], k

    @settings(max_examples=12, deadline=None)
    @given(theta_hi=TOP_IN_BAND, theta_lo=LOW_WORD, alpha_hi=SMALL_TOP,
           alpha_lo=LOW_WORD, extra=st.integers(2, 64))
    # the carry decides every sign: alpha = -2**-128, theta top word 2**63
    @example(theta_hi=1 << 63, theta_lo=WORD - 1, alpha_hi=WORD - 1,
             alpha_lo=WORD - 1, extra=2)
    # alpha < 2**64: the top words sum to 2**63 - 1 at every index, and the
    # carry flips the sign
    @example(theta_hi=(1 << 63) - 1, theta_lo=0, alpha_hi=0,
             alpha_lo=WORD - 1, extra=2)
    # top words sum to _BLOCK - 1 below 2**63 or 2**64; only the largest
    # carry, c = j = _BLOCK - 1, flips the sign
    @example(theta_hi=(1 << 63) - (_BLOCK - 1), theta_lo=WORD - 1, alpha_hi=0,
             alpha_lo=WORD - 1, extra=2)
    @example(theta_hi=WORD - (_BLOCK - 1), theta_lo=WORD - 1, alpha_hi=0,
             alpha_lo=WORD - 1, extra=2)
    def test_carry_heavy_starts_match_phi(self, theta_hi, theta_lo, alpha_hi,
                                          alpha_lo, extra):
        # n signs span two block boundaries; the steps of the whole walk
        # against phi(advance(...))
        theta = theta_hi << 64 | theta_lo
        alpha = alpha_hi << 64 | alpha_lo
        n = 2 * _BLOCK + extra
        expected = _scalar_signs(theta, alpha, n)
        heights = walk_heights(theta, alpha, n + 1)
        assert heights.dtype == np.int64
        assert heights[0] == 0
        assert np.array_equal(np.diff(heights), expected)


class TestOrbitWords:
    # alpha = 0x5555555555555556 carries out of the split low-word sum at
    # j = 3; theta = 2**64 - 1 carries out of the low word at every j with
    # a nonzero low word of j*alpha
    @settings(max_examples=40, deadline=None)
    @given(BITS, BITS, st.lists(st.integers(0, (1 << 32) - 1), min_size=1, max_size=50))
    @example(0, 0x5555555555555556, list(range(4)))
    @example(0, MODULUS - 1, list(range(3000)))
    @example(0, WORD - 1, list(range(3000)))
    @example(WORD - 1, 0x5555555555555556, list(range(4)))
    @example(MODULUS - 1, MODULUS - 1, list(range(3000)) + [(1 << 32) - 1])
    def test_matches_python_ints(self, theta, alpha, js):
        hi, lo = orbit_words(theta, alpha, np.array(js, dtype=np.uint64))
        assert [(int(h) << 64) | int(l) for h, l in zip(hi, lo)] == [
            (theta + j * alpha) % MODULUS for j in js]

    @settings(max_examples=10, deadline=None)
    @given(BITS, BITS)
    def test_orbit_hi64_across_blocks(self, theta, alpha):
        n = _BLOCK + 40
        hi = orbit_hi64(theta, alpha, n)
        for k in list(range(20)) + list(range(_BLOCK - 20, n)):
            assert int(hi[k]) == (theta + k * alpha) % MODULUS >> 64


# 500 * TIE_ALPHA is within 500 units of 1/2, so the beginnings -k*alpha and
# 1/2 - (k + 500)*alpha share their top word; 8 * (3/16) = 1/2 + 1, so with
# alpha = 3/16 beginnings coincide
TIE_ALPHA = (501 * MODULUS + 500) // 1000
COINCIDENT_ALPHA = 3 << 124


class TestPartitionCells:
    @settings(max_examples=40, deadline=None)
    @given(alpha=st.one_of(BITS, st.sampled_from([TIE_ALPHA, COINCIDENT_ALPHA])),
           n=st.integers(1, 1200), picks=st.lists(st.integers(0, 1 << 20), max_size=6))
    @example(alpha=TIE_ALPHA, n=1000, picks=[])
    @example(alpha=COINCIDENT_ALPHA, n=20, picks=list(range(40)))
    def test_contract(self, alpha, n, picks):
        P, hi, lo, start, sign, limbs = partition_cells(alpha, n)
        assert len(P) == 2 * n + 1 and all(len(a) == 2 * n for a in (hi, lo, start, sign, limbs))
        words = [(int(h), int(low)) for h, low in zip(hi, lo)]
        begins = [h << 64 | low for h, low in words]
        widths = [sum(int(x) << 16 * i for i, x in enumerate(row)) for row in limbs]
        # lexicographic in (hi, lo), from 0, over the beginnings -k*alpha and 1/2 - k*alpha
        assert words == sorted(words) and begins[0] == 0
        assert begins == sorted([-k * alpha % MODULUS for k in range(n)]
                                + [(HALF - k * alpha) % MODULUS for k in range(n)])
        # each cell runs up to the next beginning: coincident ones give zero
        # widths, and the widths cover the circle exactly
        assert widths == [b - a for a, b in zip(begins, begins[1:] + [MODULUS])]
        assert sum(widths) == MODULUS
        if alpha == COINCIDENT_ALPHA and n > 8:
            assert widths.count(0) > 0
        # from the first, last and a middle point of a cell of positive width
        for c in {0, 2 * n - 1} | {p % (2 * n) for p in picks}:
            if widths[c]:
                expected = sign[c] * (P[start[c]:start[c] + n + 1] - P[start[c]])
                for theta in {begins[c], begins[c] + widths[c] // 2, begins[c] + widths[c] - 1}:
                    assert walk_heights(theta, alpha, n + 1).tolist() == expected.tolist()
