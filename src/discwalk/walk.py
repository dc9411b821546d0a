"""The deterministic walk driven by the rotation, and its occupation statistics.

The walk height after k steps is h_k = sum_{i<k} phi(theta + i*alpha), a
+/-1-step path on the integers.  This module computes prefixes of the walk,
per-level visit counts at checkpoint times (``level_counts``, the one
per-theta reducer that every sampled statistic is computed from, which reads
whole q-step blocks off a cached per-alpha table), the range
statistic (number of distinct levels visited), and empirical estimates of
the occupation constants, the C of the schedule's growth conditions.
"""

from __future__ import annotations

import bisect
import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceeded, ConfigError, HeightOverflow, InsufficientSamples
from .rotation import (MODULUS, FixedAngle, advance, orbit_words, partition_cells, phi,
                       walk_heights)
from ._parallel import ordered_map

_HEIGHT_LIMIT = 1 << 62


@dataclass(frozen=True)
class WalkState:
    """One position of the scalar (step-at-a-time) walk."""

    theta0: FixedAngle
    alpha: FixedAngle
    n: int = 0
    theta_n: Optional[FixedAngle] = None
    height: int = 0

    def __post_init__(self):
        if self.theta_n is None:
            object.__setattr__(self, "theta_n", advance(self.theta0, self.alpha, self.n))


def walk_step(state: WalkState) -> WalkState:
    step = phi(state.theta_n)
    new_height = state.height + step
    if abs(new_height) >= _HEIGHT_LIMIT:
        raise HeightOverflow(f"walk height {new_height} exceeds 64-bit budget")
    return WalkState(
        theta0=state.theta0,
        alpha=state.alpha,
        n=state.n + 1,
        theta_n=advance(state.theta_n, state.alpha, 1),
        height=new_height,
    )


@dataclass
class OccupationHistogram:
    """Visit counts per height level, dense over the visited range."""

    min_level: int
    counts_dense: np.ndarray  # counts_dense[i] = visits to level min_level + i

    def count(self, v: int) -> int:
        i = v - self.min_level
        if 0 <= i < len(self.counts_dense):
            return int(self.counts_dense[i])
        return 0

    def as_dict(self) -> Dict[int, int]:
        return {
            self.min_level + i: int(c)
            for i, c in enumerate(self.counts_dense)
            if c > 0
        }

    @property
    def total(self) -> int:
        return int(self.counts_dense.sum())


@dataclass
class WalkSummary:
    theta0: FixedAngle
    alpha: FixedAngle
    N: int
    histogram: OccupationHistogram
    min_height: int
    max_height: int

    @property
    def range_count(self) -> int:
        # heights form a contiguous interval: steps are +/-1 and h_0 = 0
        return self.max_height - self.min_height + 1

    def csv_row(self) -> str:
        pairs = ";".join(f"{v}:{c}" for v, c in sorted(self.histogram.as_dict().items()))
        return (
            f"{self.theta0.to_hex()},{self.N},{self.min_height},"
            f"{self.max_height},{self.range_count},{pairs}"
        )

    CSV_HEADER = "theta0_hex,N,min_h,max_h,a_N,levels"


def run_walk(theta0: FixedAngle, alpha: FixedAngle, N: int) -> WalkSummary:
    """Compute the first N heights of the walk at theta0 and summarize them."""
    if N < 1:
        raise ConfigError("N must be >= 1")
    min_h, counts = level_counts(theta0.bits, alpha.bits, [N])
    max_h = min_h + counts.shape[1] - 1
    if max(abs(min_h), abs(max_h)) >= _HEIGHT_LIMIT:
        raise HeightOverflow("walk height exceeds 64-bit budget")
    return WalkSummary(
        theta0=theta0,
        alpha=alpha,
        N=N,
        histogram=OccupationHistogram(min_h, counts[0]),
        min_height=min_h,
        max_height=max_h,
    )


def psi(summary: WalkSummary, v: int) -> int:
    """Visits to level v among the first N heights; v=0 is the return count."""
    return summary.histogram.count(v)


def range_stat(summary: WalkSummary) -> int:
    return summary.range_count


def default_checkpoints(N: int) -> List[int]:
    """Powers of 10 up to N, plus N."""
    return sorted({n for n in (10 ** k for k in range(1, 25)) if n <= N} | {N})


@dataclass
class ConstantsTable:
    """Empirical stand-ins for the a.e. occupation constants.

    m_v[v] is the largest observed value of psi_n(v) * sqrt(log n) / n over
    the sampled thetas and checkpoint times; c_v[v] is the running max of m_u
    over |u| <= v.  These are sampled maxima at a finite horizon, not true
    suprema; the horizon and sample count are recorded so consumers can judge
    the estimate.
    """

    horizon: int
    m_v: Dict[int, float]
    c_v: Dict[int, float]
    m_global: float
    sample_count: int
    seed: Optional[int] = None

    def document(self) -> str:
        lines = [
            "schema: discwalk-constants-v1",
            f"horizon: {self.horizon}",
            f"samples: {self.sample_count}",
            f"seed: {self.seed}",
            "quantile: None",  # no sample filter; a line of discwalk-constants-v1
            f"m_global: {self.m_global!r}",
        ]
        for v in sorted(self.m_v):
            lines.append(f"m[{v}]: {self.m_v[v]!r}")
        for v in sorted(self.c_v):
            lines.append(f"c[{v}]: {self.c_v[v]!r}")
        return "\n".join(lines) + "\n"


def check_n_list(N_list: Sequence[int]) -> List[int]:
    """The N list as a list; rejects an empty list, any N < 1, and any list
    that is not strictly ascending."""
    N_list = list(N_list)
    if not N_list:
        raise ConfigError("N list must be nonempty")
    if any(b <= a for a, b in zip(N_list, N_list[1:])):
        raise ConfigError(f"N list must be strictly ascending: {N_list}")
    if N_list[0] < 1:
        raise ConfigError(f"every N must be >= 1: {N_list}")
    return N_list


# ---------------------------------------------------------------------------
# The block table.
#
# Let q be a continued-fraction denominator of alpha.  On each cell of
# rotation.partition_cells(alpha, q), phi_1 .. phi_q are all constant, so a
# q-step block of the walk is fixed by the cell its start lies in: its
# increment phi_q (at most Var phi = 4 in size, by the Denjoy-Koksma
# inequality) and the histogram of its heights relative to its start.  The
# table holds both per cell.  A walk reads every block no checkpoint cuts off
# the table and walks only the rest directly.
#
# A table is built only where it pays: for q >= _MIN_Q (a shorter block costs
# more to look up than to walk) and when max P - min P <= _MAX_SPAN (a large
# quotient near q makes the walk drift and the table grow with the drift:
# alpha = [0; 3000, 2, 2, ...] has max P - min P = 1502).  It is built on
# first use, under a lock, and kept in a small LRU cache.

_MAX_Q = 1 << 14
_MIN_Q = 1 << 6
_MAX_SPAN = 64
_TABLE_CACHE = 8
_CHUNK = 1 << 14  # blocks looked up at a time
# Budgets (exit 4), checked before the walk allocates anything: block starts
# stay where orbit_words is exact, and a directly walked stretch keeps its
# int64 heights in memory.
MAX_BLOCKS = 1 << 32
MAX_DIRECT_STEPS = 1 << 30


class BlockTable:
    """Per cell, in the order of the cells' beginnings (hi, lo): the block
    increment ``inc`` and ``hist[c, r]``, the block's visits to level
    r - reach relative to its start.  A plain class: a dataclass would
    cost milliseconds at import."""

    def __init__(self, q: int, step: int, hi: np.ndarray, lo: np.ndarray,
                 inc: np.ndarray, hist: np.ndarray, reach: int):
        self.q = q
        self.step = step  # q * alpha mod 2**128, from one block start to the next
        self.hi, self.lo = hi, lo
        self.inc = inc  # int8
        self.hist = hist  # int16: no count exceeds q <= 2**14
        self.reach = reach

    def cells(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """The cell of each point (hi, lo): the last beginning at or below it.
        The first beginning is 0, so every point has one."""
        right = np.searchsorted(self.hi, hi, "right")
        cell = right - 1
        # where the point's top word equals a beginning's, compare low words
        for i in np.flatnonzero(self.hi[cell] == hi):
            left = int(np.searchsorted(self.hi, hi[i], "left"))
            cell[i] = left + int(np.searchsorted(self.lo[left:right[i]], lo[i], "right")) - 1
        return cell


@functools.lru_cache(maxsize=64)
def block_length(alpha_bits: int) -> int:
    """q: the largest continued-fraction denominator of alpha_bits / 2**128
    that is at most 2**14, from exact integers."""
    num, den = alpha_bits, MODULUS
    q_prev, q = 0, 1
    while num:
        a, rest = divmod(den, num)
        if a * q + q_prev > _MAX_Q:
            break
        q_prev, q = q, a * q + q_prev
        den, num = num, rest
    return q


def _build_table(alpha_bits: int, q: int) -> Optional[BlockTable]:
    if q < _MIN_Q:
        return None
    P, order, hi, lo = partition_cells(alpha_bits, q)
    p_min, p_max = int(P.min()), int(P.max())
    span = p_max - p_min
    if span > _MAX_SPAN:
        return None
    # cell k < q starts its block at P[s], s = q - k, and visits P[s:s + q];
    # per level, that is a window of the level's running count
    s = np.arange(q, 0, -1)
    rows, start = np.arange(q), P[s]
    rel = np.zeros((q, 2 * span + 1), dtype=np.int16)
    running = np.zeros(2 * q + 2, dtype=np.int32)
    for level in range(p_min, p_max + 1):
        np.cumsum(P == level, dtype=np.int32, out=running[1:])
        rel[rows, level - start + span] = running[s + q] - running[s]
    used = np.flatnonzero(rel.any(axis=0)) - span
    reach = max(-int(used[0]), int(used[-1]))
    rel = rel[:, span - reach:span + reach + 1]
    # each cell's place in the order of beginnings; cell q + k mirrors cell k
    pos = np.empty(2 * q, dtype=np.intp)
    pos[order] = np.arange(2 * q)
    hist = np.empty((2 * q, 2 * reach + 1), dtype=np.int16)
    hist[pos[:q]] = rel
    hist[pos[q:]] = rel[:, ::-1]
    inc = np.empty(2 * q, dtype=np.int8)
    inc[pos[:q]] = P[s + q] - start
    inc[pos[q:]] = -inc[pos[:q]]
    for a in (hi, lo, inc, hist):
        a.flags.writeable = False
    return BlockTable(q, q * alpha_bits % MODULUS, hi, lo, inc, hist, reach)


_tables: "OrderedDict[int, Optional[BlockTable]]" = OrderedDict()
_tables_lock = threading.Lock()


def block_table(alpha_bits: int) -> Optional[BlockTable]:
    """The block table of alpha, built once and cached; None where a table
    would not pay."""
    with _tables_lock:
        if alpha_bits in _tables:
            _tables.move_to_end(alpha_bits)
        else:
            _tables[alpha_bits] = _build_table(alpha_bits, block_length(alpha_bits))
            if len(_tables) > _TABLE_CACHE:
                _tables.popitem(last=False)
        return _tables[alpha_bits]


def _merge(acc, lo: int, part: np.ndarray):
    """Add ``part``, counts of the levels lo, lo + 1, ..., into acc =
    (acc_lo, counts), widening it as needed; acc None starts it."""
    if acc is None:
        return lo, part
    a_lo, counts = acc
    new_lo = min(a_lo, lo)
    new_top = max(a_lo + counts.shape[1], lo + part.shape[1])
    if new_top - new_lo > counts.shape[1]:
        grown = np.zeros((counts.shape[0], new_top - new_lo), dtype=np.int64)
        grown[:, a_lo - new_lo:a_lo - new_lo + counts.shape[1]] = counts
        a_lo, counts = new_lo, grown
    counts[:, lo - a_lo:lo - a_lo + part.shape[1]] += part
    return a_lo, counts


def level_counts(
    theta_bits: int, alpha_bits: int, checkpoints: Sequence[int]
) -> Tuple[int, np.ndarray]:
    """(v_min, counts): counts[i, j] = visits to level v_min + j among the
    first checkpoints[i] heights (ascending, >= 1), over the whole visited band.

    The one per-theta walk reducer.  The walk is cut into blocks of q steps
    (see the block table above).  A block no checkpoint cuts is read off the
    table; the blocks checkpoints cut, a lone whole block beside them or at
    the start, and the final partial block are walked directly, adjacent
    ones as one stretch.  With no table, or fewer than q steps, that stretch
    is the whole walk.  Heights of checkpoint segment i
    (between checkpoints i - 1 and i) go to bins [i * width, (i + 1) * width),
    so one bincount histograms every segment of a stretch or of a chunk of
    blocks, and a cumsum adds the segments up.  Time O(N/q + q * number of
    checkpoints), memory O(q + width * number of checkpoints).
    """
    ends = list(checkpoints)
    m, n = len(ends), ends[-1]
    q = block_length(alpha_bits)
    table = block_table(alpha_bits) if n >= q else None
    if table is None:
        q = n + 1
    blocks = n // q
    if blocks >= MAX_BLOCKS:
        raise BudgetExceeded(f"a walk of {n} steps takes {blocks} blocks of {q}; "
                             f"the budget is {MAX_BLOCKS}")
    # stretches [a, b) of blocks walked directly: those a checkpoint cuts,
    # which takes in the final partial one, and a lone whole block next to
    # them or at the start, which costs more to look up than to walk
    stretches: List[List[int]] = []
    for c in ends:
        d, r = divmod(c, q)
        if r and stretches and stretches[-1][1] >= d - 1:
            stretches[-1][1] = d + 1
        elif r:
            stretches.append([d if d > 1 else 0, d + 1])
    for a, b in stretches:
        if min(b * q, n) - a * q > MAX_DIRECT_STEPS:
            raise BudgetExceeded(f"a directly walked stretch of {min(b * q, n) - a * q} "
                                 f"steps exceeds the budget {MAX_DIRECT_STEPS}")

    # blocks from top on are all walked directly, so only those below it are
    # looked up: for their increments, and for the heights stretches start at
    top = stretches[-1][0] if stretches and stretches[-1][1] >= blocks else blocks
    acc = None
    height = 0  # at the start of the next block
    start_height = {}  # of each stretch, by its first block
    if top:
        ends_arr = np.array(ends, dtype=np.int64)
        direct = np.array([d for a, b in stretches for d in range(a, b)], dtype=np.int64)
        width_r = 2 * table.reach + 1
    for b0 in range(0, top, _CHUNK):
        b = np.arange(b0, min(b0 + _CHUNK, top), dtype=np.int64)
        hi, lo = orbit_words((theta_bits + b0 * table.step) % MODULUS, table.step,
                             (b - b0).astype(np.uint64))
        cell = table.cells(hi, lo)
        inc = table.inc[cell]
        starts = np.cumsum(inc, dtype=np.int64)
        starts += height
        height = int(starts[-1])
        starts -= inc
        for a, _ in stretches:
            if b0 <= a < b0 + len(b):
                start_height[a] = int(starts[a - b0])
        whole = np.ones(len(b), dtype=bool)
        whole[direct[(direct >= b0) & (direct < b0 + len(b))] - b0] = False
        if not whole.any():
            continue
        cell, starts = cell[whole], starts[whole]
        low = int(starts.min())
        width = int(starts.max()) - low + width_r
        bins = np.searchsorted(ends_arr, b[whole] * q, "right") * width + starts - low
        bins = (bins[:, None] + np.arange(width_r)).ravel()
        # every bin sums integers below 2**53, so the float sums are exact
        part = np.bincount(bins, weights=table.hist[cell].ravel(), minlength=m * width)
        acc = _merge(acc, low - table.reach, part.astype(np.int64).reshape(m, width))
    start_height[top] = height
    padded = acc is not None  # block parts span each block's whole reach

    for a, b in stretches:
        s, e = a * q, min(b * q, n)
        heights = walk_heights((theta_bits + s * alpha_bits) % MODULUS, alpha_bits, e - s)
        v_lo, v_hi = int(heights.min()), int(heights.max())
        lo_level, width = v_lo + start_height[a], v_hi - v_lo + 1
        # checkpoints cut the stretch into pieces; the first lies in segment seg
        seg = bisect.bisect_right(ends, s)
        cuts = [0] + [c - s for c in ends[seg:] if c < e] + [e - s]
        for i, (c0, c1) in enumerate(zip(cuts, cuts[1:]), seg):
            heights[c0:c1] += i * width - v_lo
        counts = np.bincount(heights, minlength=m * width).reshape(m, width)
        acc = _merge(acc, lo_level, counts)

    v_min, counts = acc
    np.cumsum(counts, axis=0, out=counts)
    if padded:  # trim to the visited band
        seen = np.flatnonzero(counts[-1])
        v_min += int(seen[0])
        counts = counts[:, seen[0]:seen[-1] + 1].copy()
    return v_min, counts


def band_counts(v_min: int, counts: np.ndarray, v_max: int) -> np.ndarray:
    """The columns of level_counts for levels -v_max..v_max; levels the walk
    never visits read 0.  Every walk visits 0, so v_min <= 0 <= its top."""
    padded = np.pad(counts, ((0, 0), (v_max, v_max)))
    return padded[:, -v_min:-v_min + 2 * v_max + 1]


def occupation_scale(checkpoints: Sequence[int]) -> np.ndarray:
    """The occupation band's normalisation sqrt(log n) / n per checkpoint."""
    return np.array([math.sqrt(math.log(n)) / n for n in checkpoints])


def estimate_constants(
    alpha: FixedAngle,
    theta_samples: Sequence[FixedAngle],
    N: int,
    v_max: int,
    seed: Optional[int] = None,
) -> ConstantsTable:
    """Estimate the per-level occupation constants from a theta sample."""
    if N < 16:
        raise ConfigError("N must be >= 16 so log n > 1 on the measured tail")
    if len(theta_samples) < 2:
        raise InsufficientSamples("need at least 2 theta samples")
    checkpoints = [n for n in default_checkpoints(N) if n >= 16]

    def per_theta(theta: FixedAngle) -> np.ndarray:
        return band_counts(*level_counts(theta.bits, alpha.bits, checkpoints), v_max)

    # tables[t, i, j]: theta t, checkpoints[i], level j - v_max
    tables = np.array(ordered_map(per_theta, theta_samples))
    best = (tables * occupation_scale(checkpoints)[:, None]).max(axis=(0, 1))
    m_v = {v: float(x) for v, x in zip(range(-v_max, v_max + 1), best)}
    # c_v[v]: running max of m_u over |u| <= v
    c = np.maximum.accumulate(np.maximum(best[v_max:], best[v_max::-1]))
    c_v = {v: float(x) for v, x in enumerate(c)}

    # global band constant: sup/mean ratio of the return count at the horizon
    returns_at_N = tables[:, -1, v_max].astype(float)
    mean = returns_at_N.mean()
    m_global = float(returns_at_N.max() / mean) if mean > 0 else float("inf")

    return ConstantsTable(
        horizon=N,
        m_v=m_v,
        c_v=c_v,
        m_global=m_global,
        sample_count=len(theta_samples),
        seed=seed,
    )


def occupation_band(
    alpha: FixedAngle,
    theta_samples: Sequence[FixedAngle],
    checkpoints: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and sup over thetas of psi_n * sqrt(log n) / n at each checkpoint.

    The scaled return count should sit in a bounded band for badly
    approximable angles; the mean/sup arrays let callers check both the
    band width across n and the sup/mean ratio at each n.
    """
    if not theta_samples:
        raise InsufficientSamples("need at least 1 theta sample")
    checkpoints = check_n_list(sorted(checkpoints))
    if checkpoints[0] < 16:
        raise ConfigError("checkpoints must be >= 16 so log n > 1")

    def per_theta(theta: FixedAngle) -> np.ndarray:
        v_min, counts = level_counts(theta.bits, alpha.bits, checkpoints)
        return counts[:, -v_min]  # returns to zero

    counts = np.array(ordered_map(per_theta, theta_samples), dtype=float)
    scaled = counts * occupation_scale(checkpoints)
    return scaled.mean(axis=0), scaled.max(axis=0)


def sample_thetas(n: int, seed: int) -> List[FixedAngle]:
    """n uniform circle points, deterministic in seed and sample order."""
    words = np.random.default_rng(seed).integers(0, 1 << 64, size=(n, 2), dtype=np.uint64)
    return [FixedAngle((hi << 64) | lo) for hi, lo in words.tolist()]
