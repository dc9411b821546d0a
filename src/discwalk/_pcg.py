"""numpy's default generator, reproduced in integer array ops.

``np.random.default_rng(seed)`` seeds PCG64 (O'Neill 2014, "PCG: A Family
of Simple Fast Space-Efficient Statistically Good Algorithms for Random
Number Generation") from ``SeedSequence(seed).generate_state(4, uint64)``.
The sampled routes draw theta and omega from such streams; recomputing them
here keeps every draw bit for bit numpy's without importing numpy.random
(numpy 2 loads it on first use only), whose import alone costs more than
most calls draw.

A 128-bit number is a pair (hi, lo) of uint64 words, arrays that broadcast,
so that many streams (one per spawn key) or many outputs of one stream are
computed at once; arrays wrap mod 2**64, which is what the words need.  A
stream jumps n steps in one multiply-add (Brown 1994, "Random number
generation with arbitrary strides").
"""

from __future__ import annotations

import functools
import operator

import numpy as np

from .errors import ConfigError

# numpy's SeedSequence hash constants and PCG64's 128-bit LCG multiplier
_M32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MOD = 1 << 128
_M64 = (1 << 64) - 1
_W32 = np.uint64(_M32)
_S32 = np.uint64(32)

# uint64 words each array of a draw holds at a time: 64 KiB, the size of one
# walk chunk of 2**15 int16 counts
BLOCK = 1 << 13


def words(n: int) -> list:
    """SeedSequence's 32-bit words of a non-negative int, low word first."""
    n = operator.index(n)
    if n < 0:
        raise ConfigError(f"seed and spawn tag must be non-negative, got {n}")
    out = [n & _M32]
    while n > _M32:
        n >>= 32
        out.append(n & _M32)
    return out


def entropy(seed: int, spawn_key: tuple = ()) -> list:
    """SeedSequence(seed, spawn_key=spawn_key)'s assembled entropy words:
    the seed's words, padded to four (the pool hashes 0 for a missing word),
    then each key's.  The last key may be a uint64 array of words below
    2**32, which assembles one entropy per entry."""
    out = words(seed)
    out += [0] * (4 - len(out))
    for key in spawn_key:
        out += [key] if isinstance(key, np.ndarray) else words(key)
    return out


# SeedSequence hashes 32-bit words, each a Python int or a uint64 array: an
# array wraps mod 2**64, which keeps every word mod 2**32.

def _hash(value, h: int, mult: int):
    """One SeedSequence hash round of value under hash constant h: (the
    hashed word, the next h)."""
    value = value ^ h
    h = h * mult & _M32
    value = value * h & _M32
    return value ^ value >> 16, h


def _mix(x, y):
    """SeedSequence's mix of pool word x with a hashed word y."""
    x = (_MIX_L * x + ((1 << 32) - _MIX_R) * y) & _M32
    return x ^ x >> 16


def _seed_words(entropy: list) -> list:
    """SeedSequence's generate_state(4, uint64), (s_hi, s_lo, seq_hi,
    seq_lo), from its assembled entropy words (entropy()).  The last word
    may be an array; every word before it is mixed as a scalar."""
    h = _INIT_A
    pool = []
    for word in entropy[:4]:
        word, h = _hash(word, h, _MULT_A)
        pool.append(word)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                word, h = _hash(pool[src], h, _MULT_A)
                pool[dst] = _mix(pool[dst], word)
    for word in entropy[4:]:
        for dst in range(4):
            mixed, h = _hash(word, h, _MULT_A)
            pool[dst] = _mix(pool[dst], mixed)
    h = _INIT_B
    out = []
    for k in range(0, 8, 2):  # 32-bit words k and k + 1 of generate_state(8)
        low, h = _hash(pool[k % 4], h, _MULT_B)
        high, h = _hash(pool[(k + 1) % 4], h, _MULT_B)
        out.append(high << 32 | low)
    return out


def seed(entropy: list, skip: int = 0):
    """(x, inc): the state PCG64 reads its output skip off, and its
    increment, word pairs of uint64 arrays, as np.random.default_rng seeds
    them from SeedSequence's entropy words (entropy()); one stream per entry
    of the last word, or one stream.

    inc is 2 seq + 1.  Seeding puts the state at M (s + inc) + inc, and
    each output steps first, so output k is read off the state k + 2 steps
    from s + inc."""
    s_hi, s_lo, seq_hi, seq_lo = (np.atleast_1d(np.asarray(w, dtype=np.uint64))
                                  for w in _seed_words(entropy))
    inc = (seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1)
    return jump(add((s_hi, s_lo), inc), inc, skip + 2), inc


def split(x: int):
    """The words of a Python int mod 2**128, as uint64 scalars."""
    return np.uint64(x >> 64 & _M64), np.uint64(x & _M64)


_STEP = split(_MULT)


def add(x, y):
    """x + y mod 2**128."""
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < y[1]), lo


def mul(x, y):
    """x * y mod 2**128, the low words' product from 32-bit halves.  The
    middle column x0 y1 + (x0 y0 >> 32) + (x1 y0 mod 2**32) stays below
    2**64."""
    xh, xl = x
    yh, yl = y
    x1, x0 = xl >> _S32, xl & _W32
    y1, y0 = yl >> _S32, yl & _W32
    p10 = x1 * y0
    mid = x0 * y1
    mid += x0 * y0 >> _S32
    mid += p10 & _W32
    hi = x1 * y1
    hi += p10 >> _S32
    hi += mid >> _S32
    hi += xh * yl
    hi += xl * yh
    return hi, xl * yl


def _stride(n: int):
    """(M**n, 1 + M + ... + M**(n-1)) mod 2**128: n steps take x to
    M**n x + (1 + M + ... + M**(n-1)) inc."""
    return (pow(_MULT, n, _MOD),
            (pow(_MULT, n, (_MULT - 1) << 128) - 1) // (_MULT - 1))


def step(x, inc):
    """The states one step on from the states x."""
    return add(mul(x, _STEP), inc)


def jump(x, inc, n: int):
    """The states n steps on from the states x."""
    mult, addend = _stride(n)
    return add(mul(x, split(mult)), mul(inc, split(addend)))


def output(x):
    """PCG64's XSL-RR output of the states x: the xor of their words,
    rotated right by their top six bits."""
    hi, lo = x
    rot = hi >> np.uint64(58)
    v = hi ^ lo
    return v >> rot | v << (np.uint64(64) - rot & np.uint64(63))


@functools.lru_cache(maxsize=1)
def _jump_table(n: int):
    """The strides of 0 .. n - 1 steps, as two word pairs of arrays, built
    by doubling on first use: the stride of k + m steps is M**m times the
    stride of k, plus (1 + M + ... + M**(m-1)) in the addend."""
    one, zero = np.ones(1, dtype=np.uint64), np.zeros(1, dtype=np.uint64)
    mult, addend = (zero, one), (zero, zero)
    while len(mult[0]) < n:
        m, a = _stride(len(mult[0]))
        mult = tuple(map(np.concatenate, zip(mult, mul(mult, split(m)))))
        addend = tuple(map(np.concatenate, zip(addend, add(mul(addend, split(m)), split(a)))))
    return tuple(w[:n] for w in mult), tuple(w[:n] for w in addend)


def stream(entropy: list, out: np.ndarray) -> None:
    """Fill the uint64 vector out with the first len(out) outputs of the
    PCG64 stream seeded from SeedSequence's entropy words (all scalars),
    BLOCK at a time: ``default_rng(seed).integers(0, 2**64, size, uint64)``
    returns exactly these outputs, in order.

    The one stream is seeded in Python ints, as seed() seeds many: x, the
    state output 0 is read off, is 2 steps on from s + inc.  A block starts
    at the state x, stepped in Python ints from block to block, and its
    output k is read off M**k x + (1 + M + ... + M**(k-1)) inc: one array
    multiply-add against the jump table of block strides.
    """
    s_hi, s_lo, seq_hi, seq_lo = _seed_words(entropy)
    inc = (seq_hi << 65 | seq_lo << 1 | 1) % _MOD
    mult, addend = _stride(2)
    x = (mult * ((s_hi << 64 | s_lo) + inc) + addend * inc) % _MOD
    block_mult, block_addend = _stride(BLOCK)
    block_addend = block_addend * inc % _MOD
    (m_hi, m_lo), (a_hi, a_lo) = _jump_table(BLOCK)
    width = min(BLOCK, len(out))
    offset = mul((a_hi[:width], a_lo[:width]), split(inc))
    for o0 in range(0, len(out), BLOCK):
        n = min(BLOCK, len(out) - o0)
        states = add(mul((m_hi[:n], m_lo[:n]), split(x)), (offset[0][:n], offset[1][:n]))
        out[o0:o0 + n] = output(states)
        x = (x * block_mult + block_addend) % _MOD


def spawned(entropy: list, skip: int, count: int) -> np.ndarray:
    """Row t: outputs skip .. skip + count - 1, little-endian, of the PCG64
    stream seeded from the entropy whose last word is entry t of an array;
    every stream jumps straight to its output skip."""
    x, inc = seed(entropy, skip)
    out = np.empty((len(inc[0]), count), dtype="<u8")
    for col in range(count):
        if col:
            x = step(x, inc)
        out[:, col] = output(x)
    return out
