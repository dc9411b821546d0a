"""Exact circle arithmetic in 128-bit fixed point.

The circle [0,1) is modeled as the integers mod 2**128: an angle is
``bits / 2**128``.  Addition of angles is addition mod 2**128, so advancing a
point along a rotation orbit is exact and bit-reproducible; there is no
floating-point drift no matter how many steps are taken.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

import numpy as np

from .errors import FiniteCF, UnboundedQuotients, UnknownPreset

SCALE_BITS = 128
MODULUS = 1 << SCALE_BITS
HALF = 1 << (SCALE_BITS - 1)

_SHIFT32 = np.uint64(32)


@dataclass(frozen=True, order=True)
class FixedAngle:
    """A point of the circle, stored as bits/2**128 in [0,1)."""

    bits: int

    def __post_init__(self):
        if not 0 <= self.bits < MODULUS:
            raise ValueError("FixedAngle bits out of range")

    @classmethod
    def from_fraction(cls, frac: Fraction) -> "FixedAngle":
        frac = frac - (frac.numerator // frac.denominator)  # reduce mod 1
        bits = (frac.numerator * MODULUS) // frac.denominator % MODULUS
        return cls(bits)

    @classmethod
    def from_float(cls, x: float) -> "FixedAngle":
        return cls.from_fraction(Fraction(x))

    @classmethod
    def from_decimal_string(cls, s: str) -> "FixedAngle":
        return cls.from_fraction(Fraction(s))

    @classmethod
    def from_hex(cls, s: str) -> "FixedAngle":
        return cls(int(s, 16) % MODULUS)

    def to_hex(self) -> str:
        return format(self.bits, "032x")

    def to_float(self) -> float:
        return self.bits / MODULUS

    def to_fraction(self) -> Fraction:
        return Fraction(self.bits, MODULUS)

    def __repr__(self):
        return f"FixedAngle({self.to_float():.17g})"


@dataclass(frozen=True)
class AlphaSpec:
    """Choice of rotation angle: a named quadratic preset or a custom CF.

    A custom spec is a finite prefix of continued-fraction partial quotients
    together with the declared bound ``bound`` on them (the badly approximable
    witness).  The prefix must be long enough to pin the angle past 128-bit
    resolution, otherwise it denotes a rational and is rejected.
    """

    preset: Optional[str] = None
    quotients: Optional[Sequence[int]] = None
    bound: Optional[int] = None

    PRESETS = ("golden", "sqrt2m1", "sqrt3m1")


def _preset_quotients(name: str) -> Iterator[int]:
    if name == "golden":        # (sqrt(5)-1)/2 = [0; 1, 1, 1, ...]
        while True:
            yield 1
    elif name == "sqrt2m1":     # sqrt(2)-1 = [0; 2, 2, 2, ...]
        while True:
            yield 2
    elif name == "sqrt3m1":     # sqrt(3)-1 = [0; 1, 2, 1, 2, ...]
        while True:
            yield 1
            yield 2
    else:
        raise UnknownPreset(f"unknown alpha preset: {name!r}")


def resolve_alpha(spec: AlphaSpec) -> FixedAngle:
    """Quantize the specified irrational to 128-bit fixed point.

    Continued-fraction convergents p/q are accumulated in exact integer
    arithmetic until q > 2**130; the convergent error 1/q**2 is then far below
    the quantization step, so the returned angle is within 2**-128 of the
    true value.
    """
    if spec.preset is not None:
        quots: Iterator[int] = _preset_quotients(spec.preset)
        finite = False
    else:
        if not spec.quotients:
            raise FiniteCF("empty continued fraction")
        if spec.bound is None:
            raise UnboundedQuotients("custom CF requires a declared quotient bound")
        for a in spec.quotients:
            if a < 1:
                raise UnboundedQuotients(f"partial quotient {a} is not positive")
            if a > spec.bound:
                raise UnboundedQuotients(
                    f"partial quotient {a} exceeds declared bound {spec.bound}")
        quots = iter(spec.quotients)
        finite = True

    # value = [0; a1, a2, ...]; standard convergent recurrence
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    limit = 1 << (SCALE_BITS + 2)
    while q <= limit:
        try:
            a = next(quots)
        except StopIteration:
            if finite:
                raise FiniteCF(
                    "finite continued fraction denotes a rational; "
                    "supply enough quotients to exceed 128-bit resolution")
            raise
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    bits = ((p << SCALE_BITS) + q // 2) // q % MODULUS
    return FixedAngle(bits)


def advance(theta: FixedAngle, alpha: FixedAngle, n: int) -> FixedAngle:
    """theta + n*alpha mod 1, exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return FixedAngle((theta.bits + n * alpha.bits) % MODULUS)


def phi(theta: FixedAngle) -> int:
    """Step function: +1 on [0, 1/2), -1 on [1/2, 1)."""
    return 1 if theta.bits < HALF else -1


# ---------------------------------------------------------------------------
# Vectorized orbit engine.
#
# Orbit points x_j = base + j*alpha (mod 2**128) are produced in blocks of
# _BLOCK indices; the block base is advanced in exact Python integers.
#
# A sign needs only the top 64-bit word of x_j.  With base = b_hi*2**64 + b_lo
# and alpha = a_hi*2**64 + a_lo, that word is t + c (mod 2**64), where
# t = b_hi + j*a_hi (mod 2**64) is one uint64 multiply-add and
# c = (b_lo + j*a_lo) >> 64 is the carry out of the low words.  Since
# b_lo, a_lo < 2**64, the invariant 0 <= c <= j <= _BLOCK - 1 holds, so adding
# c flips the top bit of t only when 2**63 - t or 2**64 - t is at most
# _BLOCK - 1, i.e. when t mod 2**63 >= 2**63 - (_BLOCK - 1).  The signs
# of exactly those indices are recomputed from the exact words of
# orbit_words.  For a generic alpha the band holds about one index in 2**47;
# an alpha with a tiny top word can put whole blocks in it, and then the cost
# is that of orbit_words.
#
# orbit_hi64 takes the top word of every index from orbit_words: the carry c
# changes the low bits of the word at most indices, not only in the band.

_BLOCK = 1 << 16
_TOP_BIT = np.uint64(1 << 63)
_LOW63 = np.uint64((1 << 63) - 1)
_BAND_START = np.uint64((1 << 63) - (_BLOCK - 1))
_WORD = (1 << 64) - 1


def orbit_words(theta_bits: int, alpha_bits: int, j: np.ndarray):
    """Exact (hi, lo) 64-bit words of (theta + j*alpha) mod 2**128 for a
    uint64 array j.

    The carry out of j times alpha's low word is split at 32 bits, so every
    product stays in range while j < 2**32.
    """
    a_lo, t_lo = alpha_bits & _WORD, np.uint64(theta_bits & _WORD)
    top = j * np.uint64(a_lo >> 32)
    bottom = j * np.uint64(a_lo & 0xFFFFFFFF)
    lo = j * np.uint64(a_lo)  # == (top << 32) + bottom mod 2**64
    hi = j * np.uint64(alpha_bits >> 64)
    hi += top >> _SHIFT32
    hi += lo < bottom  # the carry of that sum
    hi += np.uint64(theta_bits >> 64)
    lo += t_lo
    hi += lo < t_lo  # the carry of adding theta's low word
    return hi, lo


def orbit_hi64(theta_bits: int, alpha_bits: int, n: int) -> np.ndarray:
    """Top 64 bits of each orbit point, exact.  No route calls it; the bench
    tracer wraps it by name."""
    out = np.empty(n, dtype=np.uint64)
    j = np.arange(min(n, _BLOCK), dtype=np.uint64)
    for start in range(0, n, _BLOCK):
        stop = min(start + _BLOCK, n)
        base = (theta_bits + start * alpha_bits) % MODULUS
        out[start:stop], _ = orbit_words(base, alpha_bits, j[:stop - start])
    return out


def walk_heights(theta_bits: int, alpha_bits: int, n: int) -> np.ndarray:
    """Cocycle heights h[k] = sum_{i<k} phi(theta + i*alpha), as int64.

    h[0] = 0 and h has length n, i.e. it covers the walk prefix of length n.
    The n - 1 signs are computed a block at a time into one reused buffer
    and summed straight into h, offset by the height the previous block
    ended at.
    """
    heights = np.empty(n, dtype=np.int64)
    heights[0] = 0
    size = min(n - 1, _BLOCK)
    j_a_hi = np.arange(size, dtype=np.uint64)
    j_a_hi *= np.uint64(alpha_bits >> 64)
    t = np.empty(size, dtype=np.uint64)
    s = np.empty(size, dtype=bool)
    for start in range(0, n - 1, _BLOCK):
        size = min(_BLOCK, n - 1 - start)
        base = (theta_bits + start * alpha_bits) % MODULUS
        tb, sb = t[:size], s[:size]
        np.add(j_a_hi[:size], np.uint64(base >> 64), out=tb)
        np.less(tb, _TOP_BIT, out=sb)
        np.bitwise_and(tb, _LOW63, out=tb)
        idx = np.flatnonzero(tb >= _BAND_START)
        if idx.size:
            hi, _ = orbit_words(base, alpha_bits, idx.astype(np.uint64))
            sb[idx] = hi < _TOP_BIT
        steps = sb.view(np.int8) * np.int8(2)
        steps -= np.int8(1)
        block = heights[start + 1:start + 1 + size]
        np.cumsum(steps, dtype=np.int64, out=block)
        block += heights[start]
    return heights
