import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
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
from discwalk.rotation import HALF, MODULUS, orbit_signs, walk_heights

BITS = st.integers(min_value=0, max_value=MODULUS - 1)


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
        # exercise the block-base handoff inside the engine
        n = (1 << 19) + 7
        heights = walk_heights(0, golden.bits, n)
        steps = np.diff(heights)
        assert set(np.unique(steps)) <= {-1, 1}
