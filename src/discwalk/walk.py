"""The deterministic walk driven by the rotation, and its occupation statistics.

The walk height after k steps is h_k = sum_{i<k} phi(theta + i*alpha), a
+/-1-step path on the integers.  This module draws the theta sample
(``sample_thetas``, numpy's draw recomputed by discwalk._pcg), and computes
prefixes of the walk: per-level visit counts at checkpoint times
(``theta_counts``, for one theta or many), each walk's summary over its
visited band (``walk_summaries``, ``run_walk``), the range statistic
(number of distinct levels visited), and empirical estimates of the
occupation constants, the C of the schedule's growth conditions.  A
``CellTable`` fixes every walk of at most n steps by its starting cell, one
of rotation.partition_cells, with each cell's visits per level;
``cell_table`` builds and caches one for any n: the block table (n = q)
carries long walks on its running counts of each level, and a table of
n < q gives every walk shorter than q at once.  ``theta_counts`` is the
one reader of every walk, and the one place that chooses how to read it:
the hist rows of such a table, each theta's cell, looked up once, its row;
or one row per theta, read off the block table for every theta at once or
walked directly.
"""

from __future__ import annotations

import bisect
import functools
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import _pcg
from .errors import BudgetExceeded, ConfigError, InsufficientSamples, allocating
from .rotation import MODULUS, FixedAngle, orbit_words, partition_cells, walk_heights


@dataclass
class WalkSummary:
    """The first N heights of the walk at theta0 as visit counts per level:
    counts[i] = visits to level min_height + i, over the visited band."""

    theta0: FixedAngle
    alpha: FixedAngle
    N: int
    min_height: int
    counts: np.ndarray

    def count(self, v: int) -> int:
        """Visits to level v; v = 0 is the return count."""
        i = v - self.min_height
        return int(self.counts[i]) if 0 <= i < len(self.counts) else 0

    def as_dict(self) -> Dict[int, int]:
        return {self.min_height + i: int(c) for i, c in enumerate(self.counts) if c > 0}

    @property
    def max_height(self) -> int:
        return self.min_height + len(self.counts) - 1

    @property
    def range_count(self) -> int:
        # heights form a contiguous interval: steps are +/-1 and h_0 = 0
        return len(self.counts)

    def csv_row(self) -> str:
        pairs = ";".join(f"{v}:{c}" for v, c in sorted(self.as_dict().items()))
        return (
            f"{self.theta0.to_hex()},{self.N},{self.min_height},"
            f"{self.max_height},{self.range_count},{pairs}"
        )

    CSV_HEADER = "theta0_hex,N,min_h,max_h,a_N,levels"


def walk_summaries(alpha: FixedAngle, thetas: np.ndarray, N: int) -> List[WalkSummary]:
    """The summary of the first N heights of the walk from every
    sample_thetas row: its counts at N cut to its visited band."""
    if N < 1:
        raise ConfigError("N must be >= 1")
    v_min, rows, row = theta_counts(alpha, thetas, [N])
    counts = rows[row, 0]
    lo, hi = (v.tolist() for v in visited_band(v_min, counts[:, None]))
    # Python ints: hi << 64 keeps hi
    return [WalkSummary(theta0=FixedAngle((w_hi << 64) | w_lo), alpha=alpha, N=N,
                        min_height=v, counts=c[v - v_min:top - v_min + 1])
            for (w_hi, w_lo), c, v, top in zip(thetas.tolist(), counts, lo, hi)]


def run_walk(theta0: FixedAngle, alpha: FixedAngle, N: int) -> WalkSummary:
    """Compute the first N heights of the walk at theta0 and summarize them."""
    theta = np.array([divmod(theta0.bits, 1 << 64)], dtype=np.uint64)
    return walk_summaries(alpha, theta, N)[0]


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
# The cell table.
#
# On each cell of rotation.partition_cells(alpha, n), phi_1 .. phi_n are all
# constant, so the first n steps of a walk are fixed by the cell its start
# lies in.  cell_table builds and caches the table of any n and lengths.
# _block_counts reads long walks off the block table: n = q, the largest
# continued-fraction denominator of alpha at most 2**14, and no lengths; a
# q-step block has increment at most Var phi = 4 in size (the Denjoy-Koksma
# inequality), and a block shorter than _MIN_Q costs more to look up than to
# walk.  theta_counts reads more than one walk of max N < q steps off the
# table of n = max N and lengths its checkpoints.

_MAX_Q = 1 << 14
_MIN_Q = 1 << 6
_TABLE_CACHE = 8
_MAX_CELL_ENTRIES = 1 << 22
_CHUNK = 1 << 14  # blocks looked up at a time, at most
_STRETCH = 1 << 20  # steps of a directly walked stretch in memory at a time
# Budgets (exit 4), checked before anything is walked or looked up.  A walk's
# memory does not grow with its length, so both bound its time.
MAX_BLOCKS = 1 << 32
MAX_DIRECT_STEPS = 1 << 30


class CellTable:
    """Per cell of rotation.partition_cells, in the order of the cells'
    beginnings: the words ``hi``, ``lo`` of its beginning; its walk, with
    heights sign * (P[start + t] - P[start]) at times t <= n; its increment
    ``inc`` over n steps; ``hist[c, i, r + span]``, its visits to level r
    among its first lengths[i] heights, where span = max P - min P bounds
    every |r|; ``bottom``, ``top``, the lowest and highest of its n heights.
    ``running[k, l]`` counts the j < k with P[j] = min P + l: no count
    exceeds 2n + 1 <= 2**15 + 1, so running is uint16 and hist int16.  A
    plain class: a dataclass would cost milliseconds at import."""

    def __init__(self, alpha_bits: int, n: int, P: np.ndarray, hi: np.ndarray, lo: np.ndarray,
                 start: np.ndarray, sign: np.ndarray, span: int, lengths: Sequence[int]):
        self.n, self.span = n, span
        self.step = n * alpha_bits % MODULUS  # from one block start to the next
        self.P, self.hi, self.lo, self.start, self.sign = P, hi, lo, start, sign
        base = P[start]
        self.inc = sign * (P[start + n] - base)
        # one pass over the levels of P: per level, a cell's visits over a
        # stretch are a difference of that level's running count
        self.running = np.zeros((len(P) + 1, span + 1), dtype=np.uint16)
        width = 2 * span + 1
        self.hist = np.zeros((len(start), len(lengths), width), dtype=np.int16)
        flat = self.hist.reshape(-1)
        at_zero = np.arange(len(start), dtype=np.int32) * (len(lengths) * width) + span
        # per cell, how many levels of P its walk visits, and the highest
        visited, highest = np.zeros((2, len(start)), dtype=np.int16)
        count = np.zeros(len(P) + 1, dtype=np.uint16)  # one level's running count
        for level, column in enumerate(self.running.T, int(P.min())):
            np.cumsum(P == level, dtype=np.uint16, out=count[1:])
            column[:] = count
            before = count[start]
            at = at_zero + sign * (level - base)
            for i, length in enumerate(lengths):
                flat[at + i * width] += count[start + length] - before
            seen = count[start + n] != before
            visited += seen
            highest[seen] = level
        # P is a +/-1 path, so the levels a walk visits are contiguous
        high, low = highest - base, highest - base - visited + 1
        self.bottom, self.top = np.where(sign > 0, [low, high], [-high, -low])
        for a in (P, hi, lo, start, sign, self.inc, self.hist, self.running, self.bottom, self.top):
            a.flags.writeable = False

    def cells(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """The cell of each point (hi, lo): the last beginning at or below it,
        in lexicographic order.  The first beginning is 0, so every point
        has one.  The points are searched in sorted order, which takes a
        fraction of the time of searching them as they come."""
        order = np.argsort(hi)
        right = np.empty(len(hi), dtype=np.intp)
        right[order] = np.searchsorted(self.hi, hi[order], "right")
        cell = right - 1
        # where the point's top word equals a beginning's, compare low words
        for i in np.flatnonzero(self.hi[cell] == hi):
            left = int(np.searchsorted(self.hi, hi[i], "left"))
            cell[i] = left + int(np.searchsorted(self.lo[left:right[i]], lo[i], "right")) - 1
        return cell


def _cell_table(alpha_bits: int, n: int, lengths: Sequence[int]) -> Optional[CellTable]:
    """The cell table of alpha for walks of at most n steps; None when it
    would hold more than _MAX_CELL_ENTRIES count entries: its 2n rows of
    histograms and its 2n + 2 running counts of each level of P."""
    P, hi, lo, start, sign = partition_cells(alpha_bits, n)[:5]
    span = int(P.max()) - int(P.min())
    if 2 * n * len(lengths) * (2 * span + 1) + (span + 1) * (2 * n + 2) > _MAX_CELL_ENTRIES:
        return None
    # P[0] = 0, so every height, and every difference of two, lies in +/-span
    P = P.astype(np.min_scalar_type(-span - 1))
    return CellTable(alpha_bits, n, P, hi, lo, start, sign, span, lengths)


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


_tables: "OrderedDict[Tuple[int, int, Tuple[int, ...]], Optional[CellTable]]" = OrderedDict()
_tables_lock = threading.Lock()


def cell_table(alpha_bits: int, n: int, lengths: Sequence[int]) -> Optional[CellTable]:
    """The cell table of alpha for walks of at most n steps, with counts at
    the given lengths (ascending, at most n), built once and cached, or None."""
    key = (alpha_bits, n, tuple(lengths))
    with _tables_lock:
        if key in _tables:
            _tables.move_to_end(key)
        else:
            _tables[key] = _cell_table(alpha_bits, n, lengths)
            if len(_tables) > _TABLE_CACHE:
                _tables.popitem(last=False)
        return _tables[key]


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


def _add_segments(acc, ends: List[int], t0: int, heights: np.ndarray):
    """Add the heights h[t0], h[t0 + 1], ... (int64; overwritten) to acc, the
    heights of times in [ends[i - 1], ends[i]) to row i.  Row i goes to bins
    [i * width, (i + 1) * width), so one bincount histograms every row."""
    v_lo = int(heights.min())
    width = int(heights.max()) - v_lo + 1
    seg = bisect.bisect_right(ends, t0)
    cuts = [0] + [c - t0 for c in ends[seg:] if c < t0 + len(heights)] + [len(heights)]
    for i, (c0, c1) in enumerate(zip(cuts, cuts[1:]), seg):
        heights[c0:c1] += i * width - v_lo
    counts = np.bincount(heights, minlength=len(ends) * width).reshape(len(ends), width)
    return _merge(acc, v_lo, counts)


def _walk_counts(alpha_bits: int, thetas: np.ndarray,
                 ends: List[int]) -> Tuple[int, np.ndarray]:
    """(v_min, rows) as _block_counts gives them, over the thetas' common
    visited band, every theta walked directly as one stretch, _STRETCH steps
    at a time, each piece carrying on from the height the last ended at.  A
    theta's counts are kept over its own band as int32 (no count exceeds
    MAX_DIRECT_STEPS < 2**31) until rows is allocated once over the common
    band; a cumsum over checkpoints adds the rows up.  Time O(n_theta * N);
    memory rows, half of every theta's own int64 counts, and O(_STRETCH).
    """
    n = ends[-1]
    if len(thetas) and n > MAX_DIRECT_STEPS:
        raise BudgetExceeded(f"a directly walked stretch of {n} "
                             f"steps exceeds the budget {MAX_DIRECT_STEPS}")
    walks = []
    for hi, lo in thetas.tolist():
        theta_bits = (hi << 64) | lo  # Python ints: hi << 64 keeps hi
        acc, height = None, 0  # height: at the start of the next piece
        for t0 in range(0, n, _STRETCH):
            # each piece but the last walks one height more: where the next starts
            heights = walk_heights((theta_bits + t0 * alpha_bits) % MODULUS, alpha_bits,
                                   min(_STRETCH + 1, n - t0))
            heights += height
            height = int(heights[-1])
            acc = _add_segments(acc, ends, t0, heights[:_STRETCH])
        walks.append((acc[0], acc[1].astype(np.int32)))
    v_min = min((v for v, _ in walks), default=0)
    width = max((v + counts.shape[1] for v, counts in walks), default=1) - v_min
    with allocating(f"level counts of {len(walks)} thetas over {width} levels", width):
        rows = np.zeros((len(walks), len(ends), width), dtype=np.int64)
    for into, (v, counts) in zip(rows, walks):
        into[:, v - v_min:v - v_min + counts.shape[1]] = counts
    np.cumsum(rows, axis=1, out=rows)
    return v_min, rows


# Count entries handled at a time, gathered from rows of counts (chunks) or
# running counts (_block_counts): per-chunk overhead vanishes, and a chunk's
# temporaries stay small beside the rows they fill.
_CHUNK_ENTRIES = 1 << 15


def _block_counts(table: CellTable, thetas: np.ndarray,
                  ends: List[int]) -> Tuple[int, np.ndarray]:
    """(v_min, rows): rows[t, i, j] = visits of the walk from the
    sample_thetas row thetas[t] to level v_min + j among its first ends[i]
    heights (ascending, ends[-1] >= q = table.n), over a band that holds
    every theta's visited band: the blocks' cell bands, each shifted to the
    height its block starts at, which exceed the walks' by at most 2 * span.

    The walks are cut into q-step blocks and every block is read off the
    block table: a block's start is theta + b * q * alpha, its cell gives
    its walk, and a cumsum of the cells' increments the height it starts
    at.  The checkpoints cut the blocks into pieces: a whole block is one,
    [0, q), and a block a checkpoint cuts, or the final short one, one per
    checkpoint segment.  Every piece is read the same way: its visits to a
    level L of P, the difference of L's running counts at its two ends, go
    to its segment's row at its block's start height + sign * (L -
    P[start]).  A chunk of thetas and blocks, about _CHUNK_ENTRIES entries
    (per theta, its pieces' levels of P and its rows' checkpoints times a
    block's 2 * span + 1 levels), takes one gather and one weighted
    bincount.  A first pass finds the band from each block's start and its
    cell's bottom and top, and rows is allocated once over it; a second
    fills it, reusing the first's cells when there is one chunk, and a
    cumsum over checkpoints adds the rows up.  Time O(n_theta * (N/q +
    checkpoints)); memory rows and one chunk's cells and counts.
    """
    q, n, m = table.n, ends[-1], len(ends)
    if n // q >= MAX_BLOCKS:
        raise BudgetExceeded(f"a walk of {n} steps takes {n // q} blocks of {q}; "
                             f"the budget is {MAX_BLOCKS}")
    blocks = -(-n // q)  # the final short block too
    level = np.arange(int(table.P.min()), int(table.P.max()) + 1)  # running's columns
    pieces = blocks + sum(1 for end in ends[:-1] if end % q)
    step = max(1, _CHUNK_ENTRIES // (pieces * len(level) + m * (2 * table.span + 1)))
    per = max(1, min(_CHUNK, _CHUNK_ENTRIES // len(level)))  # blocks per chunk

    def walks():
        """(t0, b0, cell, starts): per chunk of thetas from t0 and of blocks
        from b0, each block's cell and the height it starts at."""
        for t0 in range(0, len(thetas), step):
            hi0, lo0 = thetas[t0:t0 + step, :1], thetas[t0:t0 + step, 1:]
            height = np.zeros((len(hi0), 1), dtype=np.int64)
            for b0 in range(0, blocks, per):
                b = np.arange(b0, min(b0 + per, blocks), dtype=np.uint64)
                hi, lo = orbit_words(0, table.step, b)
                lo = lo + lo0
                hi = hi + hi0 + (lo < lo0)  # the carry of adding theta's low word
                cell = table.cells(hi.ravel(), lo.ravel()).reshape(hi.shape)
                inc = table.inc[cell]
                starts = np.cumsum(inc, axis=1, dtype=np.int64)
                starts += height
                height = starts[:, -1:].copy()
                starts -= inc
                yield t0, b0, cell, starts

    kept = list(walks()) if len(thetas) <= step and blocks <= per else None
    # every walk visits 0, its first height, and every block, the final one
    # too, stays within its cell's band over q heights
    v_min = v_top = 0
    for _, _, cell, starts in kept or walks():
        v_min = min(v_min, int((starts + table.bottom[cell]).min()))
        v_top = max(v_top, int((starts + table.top[cell]).max()))

    width = v_top - v_min + 1
    with allocating(f"level counts of {len(thetas)} thetas over {width} levels", width):
        rows = np.zeros((len(thetas), m, width), dtype=np.int64)
    ends_arr = np.array(ends, dtype=np.int64)

    def add_pieces(t0, b0, cell, starts):
        """Add one chunk's pieces to its rows; its temporaries go on return."""
        # the pieces of these blocks: their bounds, block, ends in it and segment
        s0, s1 = b0 * q, min((b0 + cell.shape[1]) * q, n)
        cuts = ends_arr[(s0 < ends_arr) & (ends_arr < s1) & (ends_arr % q != 0)]
        bounds = np.sort(np.concatenate([np.arange(s0, s1, q), cuts]))
        block = bounds // q
        c0, c1 = bounds - block * q, np.append(bounds[1:], s1) - block * q
        seg = np.searchsorted(ends_arr, bounds, "right")
        block -= b0
        at, sign = table.start[cell[:, block]], table.sign[cell[:, block]].astype(np.int64)
        # one gather: every piece's running counts at its end and at its
        # start; its visits to each level, level by level, are their difference
        gathered = table.running.take(np.stack([at + c1, at + c0]), axis=0)
        visits = np.subtract(*gathered.transpose(0, 3, 1, 2), dtype=np.float64, order="C")
        del gathered  # before the bins: a chunk's temporaries add up
        # column c of the counts is level low + c; a piece's visits to level
        # L go to its block's start height + sign * (L - P[at])
        low = int(starts.min()) - table.span
        wide = int(starts.max()) + table.span - low + 1
        bins = np.multiply.outer(level, sign.reshape(-1))
        bins += ((np.arange(len(cell))[:, None] * m + seg) * wide + starts[:, block] - low
                 - sign * table.P[at]).reshape(-1)
        # every bin sums integers below 2**53, so the float sums are exact
        counts = np.bincount(bins.reshape(-1), weights=visits.reshape(-1),
                             minlength=len(cell) * m * wide).reshape(len(cell), m, wide)
        # outside the common band every bin is empty
        a, z = max(low, v_min), min(low + wide, v_min + width)
        into = rows[t0:t0 + len(cell), :, a - v_min:z - v_min]
        # added as int64: a float sum into int64 rows would take a whole temporary
        np.add(into, counts[:, :, a - low:z - low], out=into, dtype=np.int64, casting="unsafe")

    for chunk in kept or walks():
        add_pieces(*chunk)
    np.cumsum(rows, axis=1, out=rows)
    return v_min, rows


def chunks(rows: np.ndarray, n: int) -> Iterator[slice]:
    """Slices of range(n), each of as many thetas as gather about
    _CHUNK_ENTRIES count entries of theta_counts' rows."""
    step = max(1, _CHUNK_ENTRIES // math.prod(rows.shape[1:]))
    return (slice(c0, c0 + step) for c0 in range(0, n, step))


def theta_counts(alpha: FixedAngle, thetas: np.ndarray,
                 checkpoints: Sequence[int]) -> Tuple[int, np.ndarray, np.ndarray]:
    """(v_min, rows, row): rows[row[t], i, j] = visits of the walk from the
    sample_thetas row thetas[t] to level v_min + j among its first
    checkpoints[i] heights (ascending, >= 1); levels a walk never visits,
    inside the band of rows or not, read 0.

    The one reader of every walk, and the one place that chooses how: at
    max N >= q, every theta's blocks off the block table at once
    (_block_counts); below q and for more than one theta, the hist of the
    cell table of max N steps as rows, each theta's cell, looked up once,
    as its row; otherwise, or when there is no table, every theta walked
    directly (_walk_counts).  Off the cell table, row is arange(n_theta).
    Same counts on every path; no theta builds no table.
    """
    ends = list(checkpoints)
    n, q = ends[-1], block_length(alpha.bits)
    if len(thetas) > 1 and n < q:
        table = cell_table(alpha.bits, n, ends)
        if table is not None:
            return -table.span, table.hist, table.cells(thetas[:, 0], thetas[:, 1])
    table = cell_table(alpha.bits, q, []) if len(thetas) and n >= q >= _MIN_Q else None
    v_min, rows = (_walk_counts(alpha.bits, thetas, ends) if table is None
                   else _block_counts(table, thetas, ends))
    return v_min, rows, np.arange(len(thetas))


def visited_band(v_min: int, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(lo, hi): the lowest and highest level of each row of theta_counts'
    rows, from the nonzero columns at its last checkpoint."""
    seen = counts[:, -1] != 0
    lo = v_min + seen.argmax(axis=1)
    hi = v_min + counts.shape[2] - 1 - seen[:, ::-1].argmax(axis=1)
    return lo, hi


def band_counts(v_min: int, counts: np.ndarray, v_max: int) -> np.ndarray:
    """Level counts (last axis: level v_min + j) cut to the levels
    -v_max..v_max; levels the walk never visits read 0.  Every walk visits
    0, so v_min <= 0 <= its top."""
    padded = np.pad(counts, [(0, 0)] * (counts.ndim - 1) + [(v_max, v_max)])
    return padded[..., -v_min:-v_min + 2 * v_max + 1]


def theta_band_counts(alpha: FixedAngle, theta_samples: np.ndarray,
                      checkpoints: Sequence[int], v_max: int) -> np.ndarray:
    """band_counts of every theta: [t, i, j] counts the visits of the walk
    from theta_samples[t] to level j - v_max among its first checkpoints[i]
    heights."""
    with allocating(f"band counts over {2 * v_max + 1} levels", 2 * v_max + 1):
        out = np.empty((len(theta_samples), len(checkpoints), 2 * v_max + 1), dtype=np.int64)
    v_min, rows, row = theta_counts(alpha, theta_samples, checkpoints)
    out[...] = band_counts(v_min, rows[row], v_max)
    return out


def occupation_scale(checkpoints: Sequence[int]) -> np.ndarray:
    """The occupation band's normalisation sqrt(log n) / n per checkpoint."""
    return np.array([math.sqrt(math.log(n)) / n for n in checkpoints])


def estimate_constants(
    alpha: FixedAngle,
    theta_samples: np.ndarray,
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
    tables = theta_band_counts(alpha, theta_samples, checkpoints, v_max)
    best = (tables * occupation_scale(checkpoints)[:, None]).max(axis=(0, 1))
    m_v = {v: float(x) for v, x in zip(range(-v_max, v_max + 1), best)}
    # c_v[v]: running max of m_u over |u| <= v
    c = np.maximum.accumulate(np.maximum(best[v_max:], best[v_max::-1]))
    c_v = {v: float(x) for v, x in enumerate(c)}

    # global band constant: sup/mean ratio of the return count at the horizon
    returns_at_N = tables[:, -1, v_max].astype(float)
    mean = returns_at_N.mean()
    m_global = float(returns_at_N.max() / mean) if mean > 0 else float("inf")

    return ConstantsTable(horizon=N, m_v=m_v, c_v=c_v, m_global=m_global,
                          sample_count=len(theta_samples), seed=seed)


def occupation_band(
    alpha: FixedAngle,
    theta_samples: np.ndarray,
    checkpoints: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and sup over thetas of psi_n * sqrt(log n) / n at each checkpoint.

    The scaled return count should sit in a bounded band for badly
    approximable angles; the mean/sup arrays let callers check both the
    band width across n and the sup/mean ratio at each n.
    """
    if not len(theta_samples):
        raise InsufficientSamples("need at least 1 theta sample")
    checkpoints = check_n_list(sorted(checkpoints))
    if checkpoints[0] < 16:
        raise ConfigError("checkpoints must be >= 16 so log n > 1")
    returns = theta_band_counts(alpha, theta_samples, checkpoints, 0)[:, :, 0]
    scaled = returns * occupation_scale(checkpoints)
    return scaled.mean(axis=0), scaled.max(axis=0)


def sample_thetas(n: int, seed: int) -> np.ndarray:
    """n uniform circle points as uint64 word rows (hi, lo), deterministic in
    seed and order: ``np.random.default_rng(seed).integers(0, 2**64,
    size=(n, 2), dtype=np.uint64)``, bit for bit, so that every sample
    drawn before stays the same.  Those are the raw outputs of numpy's
    PCG64 stream; discwalk._pcg recomputes them in integer array ops,
    _pcg.BLOCK words at a time, so that no route imports numpy.random
    (numpy 2 loads it on first use only), whose import costs more than
    most routes' draws."""
    with allocating(f"{n} theta samples", n):
        out = np.empty((n, 2), dtype=np.uint64)
    _pcg.stream(_pcg.entropy(seed), out.reshape(-1))
    return out
