"""Exact circle arithmetic in 128-bit fixed point.

The circle [0,1) is modeled as the integers mod 2**128: an angle is
``bits / 2**128``.  Addition of angles is addition mod 2**128, so advancing a
point along a rotation orbit is exact and bit-reproducible; there is no
floating-point drift no matter how many steps are taken.
"""

from __future__ import annotations

import itertools
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


# The presets (sqrt(5)-1)/2, sqrt(2)-1 and sqrt(3)-1 as continued fractions
# [0; a1, a2, ...]: each its period repeated.
_PERIODS = {"golden": (1,), "sqrt2m1": (2,), "sqrt3m1": (1, 2)}


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

    PRESETS = tuple(_PERIODS)


def resolve_alpha(spec: AlphaSpec) -> FixedAngle:
    """Quantize the specified irrational to 128-bit fixed point.

    Continued-fraction convergents p/q are accumulated in exact integer
    arithmetic until q > 2**130; the convergent error 1/q**2 is then far below
    the quantization step, so the returned angle is within 2**-128 of the
    true value.
    """
    if spec.preset is not None:
        if spec.preset not in _PERIODS:
            raise UnknownPreset(f"unknown alpha preset: {spec.preset!r}")
        quots: Iterator[int] = itertools.cycle(_PERIODS[spec.preset])
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

    # value = [0; a1, a2, ...]; standard convergent recurrence.  Only a
    # custom prefix runs out: a preset's period repeats forever.
    p_prev, p = 1, 0
    q_prev, q = 0, 1
    limit = 1 << (SCALE_BITS + 2)
    while q <= limit:
        a = next(quots, None)
        if a is None:
            raise FiniteCF(
                "finite continued fraction denotes a rational; "
                "supply enough quotients to exceed 128-bit resolution")
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    bits = ((p << SCALE_BITS) + q // 2) // q % MODULUS
    return FixedAngle(bits)


def advance(theta: FixedAngle, alpha: FixedAngle, n: int) -> FixedAngle:
    """theta + n*alpha mod 1, exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    # in range by construction: built as FixedAngle's own __init__ would, less
    # the range check, about a quarter of the call
    point = object.__new__(FixedAngle)
    object.__setattr__(point, "bits", (theta.bits + n * alpha.bits) % MODULUS)
    return point


def phi(theta: FixedAngle) -> int:
    """Step function: +1 on [0, 1/2), -1 on [1/2, 1)."""
    return 1 if theta.bits < HALF else -1


# ---------------------------------------------------------------------------
# Vectorized orbit engine.
#
# Orbit points x_j = base + j*alpha (mod 2**128) are produced in blocks of
# _BLOCK indices as exact (hi, lo) 64-bit word pairs; the block base is
# advanced in exact Python integers.  A sign is the top bit of the exact hi
# word, carry out of the low words included.

_BLOCK = 1 << 16
_TOP_BIT = np.uint64(1 << 63)
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
    """Top 64 bits of each of the first n < 2**32 orbit points, exact.  No
    route calls it; the bench tracer wraps it by name."""
    return orbit_words(theta_bits, alpha_bits, np.arange(n, dtype=np.uint64))[0]


def walk_heights(theta_bits: int, alpha_bits: int, n: int) -> np.ndarray:
    """Cocycle heights h[k] = sum_{i<k} phi(theta + i*alpha), as int64.

    h[0] = 0 and h has length n, i.e. it covers the walk prefix of length n.
    The n - 1 signs are read a block at a time from the exact words of
    orbit_words, over one reused index array, and summed straight into h,
    offset by the height the previous block ended at.
    """
    heights = np.empty(n, dtype=np.int64)
    heights[0] = 0
    j = np.arange(min(n - 1, _BLOCK), dtype=np.uint64)
    for start in range(0, n - 1, _BLOCK):
        size = min(_BLOCK, n - 1 - start)
        hi, _ = orbit_words((theta_bits + start * alpha_bits) % MODULUS, alpha_bits,
                            j[:size])
        steps = (hi < _TOP_BIT).view(np.int8) * np.int8(2)
        steps -= np.int8(1)
        block = heights[start + 1:start + 1 + size]
        np.cumsum(steps, dtype=np.int64, out=block)
        block += heights[start]
    return heights


def partition_cells(alpha_bits: int, n: int):
    """The finest partition of the circle for phi_1 .. phi_n, n >= 1: the one
    definition of a cell.

    Returns (P, hi, lo, start, sign, limbs).  All but P hold one entry per
    cell, the 2n cells listed in the order of their beginnings:
    - hi, lo: the exact 64-bit words of its beginning.  The beginnings are
      -k*alpha and 1/2 - k*alpha, k < n (coincident ones in that order); the
      first is 0, and a cell runs up to the next beginning, the last up to 1.
    - start, sign: from any point of the cell the walk has height
      sign * (P[start + t] - P[start]) at time t <= n.  P =
      walk_heights(-n*alpha, alpha, 2n + 1) is the prefix sum of
      phi(j*alpha), j in [-n, n); the cells beginning at -k*alpha and at
      1/2 - k*alpha both start at n - k, with signs +1 and -1, since
      phi(1/2 + x) = -phi(x).
    - limbs: its exact width times 2**128 as eight 16-bit limbs, least
      significant first; coincident beginnings give zero-width cells.
    """
    P = walk_heights(-n * alpha_bits % MODULUS, alpha_bits, 2 * n + 1)
    hi, lo = orbit_words(0, -alpha_bits % MODULUS, np.arange(n, dtype=np.uint64))
    hi = np.concatenate([hi, hi ^ np.uint64(HALF >> 64)])
    lo = np.concatenate([lo, lo])
    order = np.argsort(hi)  # a lexsort takes several times as long
    if (np.diff(hi[order]) == 0).any():  # a top-word tie: low words decide
        order = np.lexsort((lo, hi))
    hi, lo = hi[order], lo[order]
    start = np.tile(np.arange(n, 0, -1, dtype=np.int32), 2)[order]
    sign = np.repeat(np.array([1, -1], dtype=np.int8), n)[order]
    next_hi, next_lo = np.roll(hi, -1), np.roll(lo, -1)
    widths = np.empty((2 * n, 2), dtype="<u8")
    widths[:, 0] = next_lo - lo
    widths[:, 1] = next_hi - hi - (next_lo < lo)
    return P, hi, lo, start, sign, widths.view("<u2")
