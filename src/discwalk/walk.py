"""The deterministic walk driven by the rotation, and its occupation statistics.

The walk height after k steps is h_k = sum_{i<k} phi(theta + i*alpha), a
+/-1-step path on the integers.  This module computes prefixes of the walk,
per-level visit counts at checkpoint times (``level_counts`` for one theta,
``theta_counts`` for the many every sampled statistic is computed from), the
range statistic (number of distinct levels visited), and empirical
estimates of the occupation constants, the C of the schedule's growth
conditions.  A ``CellTable`` fixes every walk of at most n steps by its
starting cell; ``cell_table`` builds and caches one for any n: the block
table (n = q) carries long walks, and a table of n < q gives every walk
shorter than q at once.
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

from .errors import BudgetExceeded, ConfigError, HeightOverflow, InsufficientSamples, allocating
from .rotation import MODULUS, FixedAngle, orbit_words, partition_cells, walk_heights

_HEIGHT_LIMIT = 1 << 62


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
    return WalkSummary(theta0=theta0, alpha=alpha, N=N,
                       histogram=OccupationHistogram(min_h, counts[0]),
                       min_height=min_h, max_height=max_h)


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
# The cell table.
#
# On each cell of rotation.partition_cells(alpha, n), phi_1 .. phi_n are all
# constant, so the first n steps of a walk are fixed by the cell its start
# lies in.  cell_table builds and caches the table of any n and lengths.
# level_counts reads long walks off the block table: n = q, the largest
# continued-fraction denominator of alpha at most 2**14, and lengths [q]; a
# q-step block has increment at most Var phi = 4 in size (the Denjoy-Koksma
# inequality), and a block shorter than _MIN_Q costs more to look up than to
# walk.  theta_counts reads a sampled statistic off the table of n = max N < q
# and lengths its checkpoints.

_MAX_Q = 1 << 14
_MIN_Q = 1 << 6
_TABLE_CACHE = 8
_MAX_CELL_ENTRIES = 1 << 22
_CHUNK = 1 << 14  # blocks looked up at a time
_STRETCH = 1 << 20  # steps of a directly walked stretch in memory at a time
# Budgets (exit 4), checked before anything is walked or looked up.  A walk's
# memory does not grow with its length, so both bound its time.
MAX_BLOCKS = 1 << 32
MAX_DIRECT_STEPS = 1 << 30


class CellTable:
    """Per cell, in the order of the cells' beginnings: the top word ``hi``
    of its beginning; the walk from it, with heights sign * (P[start + t] -
    P[start]) at times t <= n; its increment ``inc`` over n steps; and
    ``hist[c, i, r + span]``, its visits to level r among its first
    lengths[i] heights, where span = max P - min P bounds every |r|.  No
    count exceeds n <= 2**14, so int16 holds them.  A plain class: a
    dataclass would cost milliseconds at import."""

    def __init__(self, alpha_bits: int, n: int, P: np.ndarray, hi: np.ndarray,
                 start: np.ndarray, sign: np.ndarray, inc: np.ndarray, hist: np.ndarray,
                 span: int):
        self.n = n
        self.step = n * alpha_bits % MODULUS  # from one block start to the next
        self.alpha_lo = np.uint64(alpha_bits % (1 << 64))
        self.P, self.hi = P, hi
        self.start, self.sign, self.inc = start, sign, inc
        self.hist, self.span = hist, span
        for a in (P, hi, start, sign, inc, hist):
            a.flags.writeable = False

    def cells(self, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
        """The cell of each point (hi, lo): the last beginning at or below it,
        in lexicographic order.  The first beginning is 0, so every point
        has one."""
        right = np.searchsorted(self.hi, hi, "right")
        cell = right - 1
        # where the point's top word equals a beginning's, compare low words:
        # those of -k * alpha and 1/2 - k * alpha are both -k * alpha mod 2**64
        for i in np.flatnonzero(self.hi[cell] == hi):
            left = int(np.searchsorted(self.hi, hi[i], "left"))
            k = (self.n - self.start[left:right[i]]).astype(np.uint64)
            low = np.uint64(0) - k * self.alpha_lo
            cell[i] = left + int(np.searchsorted(low, lo[i], "right")) - 1
        return cell


def _window_counts(P: np.ndarray, start: np.ndarray, sign: np.ndarray,
                   lengths: Sequence[int], span: int) -> np.ndarray:
    """counts[k, i, r + span] = visits of the walk sign[k] * (P[start[k] + t]
    - P[start[k]]), t < lengths[i], to level r.  Every height of P lies in
    [min P, max P], so |r| <= span = max P - min P.  Per level of P, a
    walk's visits are a difference of that level's running count.  Walks are
    at most 2**14 long, so the counts are int16."""
    base = P[start]
    running = np.zeros(len(P) + 1, dtype=np.int32)
    width = 2 * span + 1
    counts = np.zeros((len(start), len(lengths), width), dtype=np.int16)
    flat = counts.reshape(-1)
    at_zero = np.arange(len(start), dtype=np.int32) * (len(lengths) * width) + span
    for level in range(int(P.min()), int(P.max()) + 1):
        np.cumsum(P == level, dtype=np.int32, out=running[1:])
        before = running[start]
        at = at_zero + sign * (level - base)
        for i, length in enumerate(lengths):
            flat[at + i * width] += running[start + length] - before
    return counts


def _cell_table(alpha_bits: int, n: int, lengths: Sequence[int]) -> Optional[CellTable]:
    """The cell table of alpha for walks of at most n steps; None when its 2n
    rows would hold more than _MAX_CELL_ENTRIES count entries."""
    P, order, hi, _ = partition_cells(alpha_bits, n)
    span = int(P.max()) - int(P.min())
    if 2 * n * len(lengths) * (2 * span + 1) > _MAX_CELL_ENTRIES:
        return None
    # P[0] = 0, so every height, and every difference of two, lies in +/-span
    P = P.astype(np.min_scalar_type(-span - 1))
    # cell k < n starts its walk at P[n - k]; cell n + k mirrors it
    start = (n - order % n).astype(np.int32)
    sign = np.where(order < n, 1, -1).astype(np.int8)
    del order  # freed before the histograms are allocated
    hist = _window_counts(P, start, sign, lengths, span)
    inc = sign * (P[start + n] - P[start])
    return CellTable(alpha_bits, n, P, hi, start, sign, inc, hist, span)


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
    the given lengths (ascending, at most n), built once and cached; None
    when its 2n rows would hold more than _MAX_CELL_ENTRIES count entries."""
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


def level_counts(
    theta_bits: int, alpha_bits: int, checkpoints: Sequence[int]
) -> Tuple[int, np.ndarray]:
    """(v_min, counts): counts[i, j] = visits to level v_min + j among the
    first checkpoints[i] heights (ascending, >= 1), over the whole visited band.

    The one per-theta walk reducer.  With a block table and at least q
    steps, the walk is cut into q-step blocks and every block is read off
    the table (see the cell table above): nothing is walked.  Otherwise the
    walk is walked directly as one stretch, _STRETCH steps at a time, each
    carrying on from the height the last ended at.  The counts of the
    heights between checkpoints i - 1 and i go to row i, and a cumsum over
    rows adds them up.  Time O(N/q + q * number of checkpoints) with a
    table, O(N) without; memory O(q + width * number of checkpoints), and
    O(_STRETCH) more without a table.
    """
    ends = list(checkpoints)
    m, n = len(ends), ends[-1]
    q = block_length(alpha_bits)
    table = cell_table(alpha_bits, q, [q]) if n >= q >= _MIN_Q else None
    acc = None
    height = 0  # at the start of the next block or piece of the stretch
    if table is None:
        if n > MAX_DIRECT_STEPS:
            raise BudgetExceeded(f"a directly walked stretch of {n} "
                                 f"steps exceeds the budget {MAX_DIRECT_STEPS}")
        for t0 in range(0, n, _STRETCH):
            # each piece but the last walks one height more: where the next starts
            heights = walk_heights((theta_bits + t0 * alpha_bits) % MODULUS, alpha_bits,
                                   min(_STRETCH + 1, n - t0))
            heights += height
            height = int(heights[-1])
            acc = _add_segments(acc, ends, t0, heights[:_STRETCH])
    else:
        if n // q >= MAX_BLOCKS:
            raise BudgetExceeded(f"a walk of {n} steps takes {n // q} blocks of {q}; "
                                 f"the budget is {MAX_BLOCKS}")
        ends_arr = np.array(ends, dtype=np.int64)
        width_r = 2 * table.span + 1
        blocks = -(-n // q)  # the final partial block too
        for b0 in range(0, blocks, _CHUNK):
            b = np.arange(b0, min(b0 + _CHUNK, blocks), dtype=np.int64)
            hi, lo = orbit_words((theta_bits + b0 * table.step) % MODULUS, table.step,
                                 (b - b0).astype(np.uint64))
            cell = table.cells(hi, lo)
            inc = table.inc[cell]
            starts = np.cumsum(inc, dtype=np.int64)
            starts += height
            height = int(starts[-1])
            starts -= inc
            # a block is whole when the first checkpoint after its start
            # is at or past its end; the checkpoint n comes after every start
            seg = np.searchsorted(ends_arr, b * q, "right")
            whole = ends_arr[seg] >= (b + 1) * q
            for j in np.flatnonzero(~whole).tolist():
                s, t0 = int(table.start[cell[j]]), int(b[j]) * q
                heights = table.P[s:s + min(q, n - t0)].astype(np.int64)
                heights -= table.P[s]
                heights *= table.sign[cell[j]]
                heights += starts[j]
                acc = _add_segments(acc, ends, t0, heights)
            if not whole.any():
                continue
            cell, starts = cell[whole], starts[whole]
            low = int(starts.min())
            width = int(starts.max()) - low + width_r
            bins = seg[whole] * width + starts - low
            bins = (bins[:, None] + np.arange(width_r)).ravel()
            # every bin sums integers below 2**53, so the float sums are exact
            part = np.bincount(bins, weights=table.hist[cell].ravel(), minlength=m * width)
            acc = _merge(acc, low - table.span, part.astype(np.int64).reshape(m, width))

    v_min, counts = acc
    np.cumsum(counts, axis=0, out=counts)
    # block histograms cover each block's whole span: trim to the visited band
    seen = np.flatnonzero(counts[-1])
    return v_min + int(seen[0]), counts[:, seen[0]:seen[-1] + 1]


# Count entries read off a cell table at a time: per-chunk overhead vanishes,
# and a chunk's int16 counts (64 KiB) stay small beside the table they are
# read from (golden, n = 2048, 7 lengths: 745 KB of histograms).
_CHUNK_ENTRIES = 1 << 15


def theta_counts(alpha: FixedAngle, thetas: np.ndarray,
                 checkpoints: Sequence[int]) -> Iterator[Tuple[np.ndarray, int, np.ndarray]]:
    """Chunks (idx, v_min, counts), idx ascending: counts[t, i, j] = visits of
    the walk from the sample_thetas row thetas[idx[t]] to level v_min + j among
    its first checkpoints[i] heights (ascending, >= 1); unvisited levels read 0.

    The one rule of every sampled statistic: when max N < q and its cell
    table is within size (cell_table), each theta's counts are its row of it,
    looked up about _CHUNK_ENTRIES entries at a time; otherwise each theta
    goes through level_counts alone.  Same counts.
    """
    cells = None
    if len(thetas) and checkpoints[-1] < block_length(alpha.bits):  # no table for no theta
        cells = cell_table(alpha.bits, checkpoints[-1], checkpoints)
    if cells is None:
        for i, (hi, lo) in enumerate(thetas.tolist()):  # Python ints: hi << 64 keeps hi
            v_min, counts = level_counts((hi << 64) | lo, alpha.bits, checkpoints)
            yield np.array([i]), v_min, counts[None]
        return
    step = max(1, _CHUNK_ENTRIES // cells.hist[0].size)
    for c0 in range(0, len(thetas), step):
        w = thetas[c0:c0 + step]
        yield np.arange(c0, c0 + len(w)), -cells.span, cells.hist[cells.cells(w[:, 0], w[:, 1])]


def visited_band(v_min: int, counts: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """(lo, hi): the lowest and highest level each theta of a theta_counts
    chunk visits, from the nonzero columns at its last checkpoint."""
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
    for idx, v_min, counts in theta_counts(alpha, theta_samples, checkpoints):
        out[idx] = band_counts(v_min, counts, v_max)
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
    """n uniform circle points as uint64 word rows (hi, lo), deterministic in seed and order."""
    rng = np.random.default_rng(seed)
    with allocating(f"{n} theta samples", n):
        return rng.integers(0, 1 << 64, size=(n, 2), dtype=np.uint64)
