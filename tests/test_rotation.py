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
from discwalk.rotation import _BLOCK, HALF, MODULUS, orbit_signs, walk_heights

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


# Starts that reach the engine's exact recheck: the top word t of an orbit
# point is computed without the carry c (0 <= c <= j < _BLOCK) out of the
# low word, so its sign is rechecked when t lies at most _BLOCK - 1 below
# 2**63 or 2**64.  A top word in that band, an alpha whose top word is
# small (or whose value is below 2**64) and low words near 2**64, which make
# the carry as large as it can be, put whole runs of indices in the band.
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

    def test_long_bounded_cf_accepted(self, golden):
        a = resolve_alpha(AlphaSpec(quotients=[1] * 200, bound=1))
        assert a == golden

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
        n = 257
        signs = orbit_signs(theta, alpha, n)
        t = FixedAngle(theta)
        a = FixedAngle(alpha)
        expected = [phi(advance(t, a, k)) == 1 for k in range(n)]
        assert signs.tolist() == expected

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
    # every index on the band's edge: alpha = -2**-128, theta top word 2**63
    @example(theta_hi=1 << 63, theta_lo=WORD - 1, alpha_hi=WORD - 1,
             alpha_lo=WORD - 1, extra=2)
    # alpha < 2**64: t is constant and in the band; the carry flips the sign
    @example(theta_hi=(1 << 63) - 1, theta_lo=0, alpha_hi=0,
             alpha_lo=WORD - 1, extra=2)
    # t at the far edge of the band; only the largest carry, c = j =
    # _BLOCK - 1, flips the sign
    @example(theta_hi=(1 << 63) - (_BLOCK - 1), theta_lo=WORD - 1, alpha_hi=0,
             alpha_lo=WORD - 1, extra=2)
    @example(theta_hi=WORD - (_BLOCK - 1), theta_lo=WORD - 1, alpha_hi=0,
             alpha_lo=WORD - 1, extra=2)
    def test_recheck_band_matches_phi(self, theta_hi, theta_lo, alpha_hi,
                                      alpha_lo, extra):
        # n spans two block boundaries; signs and heights of the whole walk
        # against phi(advance(...))
        theta = theta_hi << 64 | theta_lo
        alpha = alpha_hi << 64 | alpha_lo
        n = 2 * _BLOCK + extra
        expected = _scalar_signs(theta, alpha, n)
        assert orbit_signs(theta, alpha, n).tolist() == [s == 1 for s in expected]
        heights = walk_heights(theta, alpha, n)
        assert heights.dtype == np.int64
        assert heights[0] == 0
        assert np.array_equal(np.diff(heights), expected[:-1])
