"""The triple-correlation Cesàro average, three ways, plus the ergodic checks.

The average A_N reduces to (1/2) * integral over accepted thetas of the
fraction of walk times n < N whose height lies in E.  Routes: ``reduced``
(sampled thetas' visits per level, read through walk.theta_counts),
``exact`` (integrate the height step function in fixed point over the cells
of rotation.partition_cells, which give each cell's walk and width; no
sampling error), and the direct Monte Carlo orbit route in
:mod:`discwalk.symbolic`.  The auxiliary checks cover the return-ratio
convergence, the correlation form of ergodicity, and the decay of the
visited-range fraction.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BudgetExceeded, ConfigError, InsufficientSamples, MissingEntries
from .eset import ESet, Schedule
from .rotation import HALF, MODULUS, FixedAngle, partition_cells
from .series import AverageEntry, AverageSeries, _sampled_fractions, _sampled_series
from .symbolic import CylinderSpec, default_window_radius, omega_windows
from .walk import check_n_list, sample_thetas, theta_band_counts, theta_counts

EXACT_N_CAP = 1 << 20


class PartitionStepFn:
    """phi_n as a step function on the circle, refined incrementally.

    The quadratic reference for the exact route, used by tests: cell i covers
    [breaks[i], breaks[i+1]) in fixed-point bits (the last cell wraps to
    2**128) and carries the integer value of phi_n there.  Each refinement
    step inserts the two new breakpoints contributed by the next rotation
    preimage of the half-circle, so the cell count stays <= 2n + 2.
    """

    def __init__(self, alpha: FixedAngle):
        self.alpha_bits = alpha.bits
        self.breaks: List[int] = [0]
        self.values: List[int] = [0]
        self.n = 0  # current function is phi_n

    def _insert(self, b: int) -> None:
        j = bisect.bisect_right(self.breaks, b) - 1
        if self.breaks[j] != b:
            self.breaks.insert(j + 1, b)
            self.values.insert(j + 1, self.values[j])

    def step(self) -> None:
        """Refine phi_n to phi_{n+1} by adding the sign of theta + n*alpha."""
        shift = self.n * self.alpha_bits % MODULUS
        self._insert(-shift % MODULUS)
        self._insert((HALF - shift) % MODULUS)
        for i, s in enumerate(self.breaks):
            if (s + shift) % MODULUS < HALF:
                self.values[i] += 1
            else:
                self.values[i] -= 1
        self.n += 1

    def _widths(self) -> List[int]:
        widths = [
            self.breaks[i + 1] - self.breaks[i] for i in range(len(self.breaks) - 1)
        ]
        widths.append(MODULUS - self.breaks[-1])
        return widths

    def measure_bits_in(self, e: ESet) -> int:
        """Lebesgue measure of {theta: phi_n(theta) in E}, times 2**128."""
        cache: Dict[int, bool] = {}
        total = 0
        for w, v in zip(self._widths(), self.values):
            hit = cache.get(v)
            if hit is None:
                hit = cache[v] = e.contains(v)
            if hit:
                total += w
        return total

    def level_measures(self) -> Dict[int, Fraction]:
        out: Dict[int, int] = {}
        for w, v in zip(self._widths(), self.values):
            out[v] = out.get(v, 0) + w
        return {v: Fraction(b, MODULUS) for v, b in sorted(out.items())}

    def total_width_bits(self) -> int:
        return sum(self._widths())


# ---------------------------------------------------------------------------
# The exact route.
#
# phi_t for t <= n is constant on each cell of rotation.partition_cells(alpha,
# n), which gives the cell's walk in P and its exact width.  Widths are
# 128-bit, so sums of width times count run on 16-bit limbs in int64 and are
# combined in Python integers.


def _check_exact_budget(n: int) -> None:
    if n > EXACT_N_CAP:
        raise BudgetExceeded(f"exact route: N={n} exceeds cap {EXACT_N_CAP}")


def _limb_total(limbs: np.ndarray) -> int:
    return sum(int(x) << (16 * i) for i, x in enumerate(limbs))


def exact_level_measures(alpha: FixedAngle, n: int) -> Dict[int, Fraction]:
    """Exact distribution of phi_n over the circle, levels ascending; n is
    capped at EXACT_N_CAP."""
    if n < 0:
        raise ConfigError("n must be >= 0")
    if n == 0:
        return {0: Fraction(1)}
    _check_exact_budget(n)
    P, _, _, start, sign, limbs = partition_cells(alpha.bits, n)
    levels = sign * (P[start + n] - P[start])  # each cell's height at time n
    order = np.argsort(levels, kind="stable")
    values, starts = np.unique(levels[order], return_index=True)
    # at most 2n * 2**16 < 2**63 per limb sum
    sums = np.add.reduceat(limbs[order], starts, axis=0, dtype=np.int64)
    out = {}
    for v, row in zip(values.tolist(), sums):
        total = _limb_total(row)
        if total:  # a level reached only on zero-width cells has measure 0
            out[v] = Fraction(total, MODULUS)
    return out


def exact_average_series(
    alpha: FixedAngle, e: ESet, N_list: Sequence[int]
) -> Tuple[AverageSeries, Dict[int, Fraction]]:
    """A_N over the full circle by exact fixed-point integration.

    Returns the float series plus the exact fractions (denominator divides
    2**129 * N).  With n = max(N_list) and L the number of levels the walk
    visits, it takes O(n log n + n * L * len(N_list)) time and O(n) memory;
    n is capped at EXACT_N_CAP.
    """
    N_list = check_n_list(N_list)
    n = N_list[-1]
    _check_exact_budget(n)
    P, _, _, start, _, limbs = partition_cells(alpha.bits, n)
    # E is symmetric, so a cell's walk hits E whatever its sign: group the
    # cells by the level P[start] their walk starts from
    base = P[start]
    order = np.argsort(base)
    levels, starts = np.unique(base[order], return_index=True)
    ends = np.append(starts[1:], 2 * n)
    start, limbs = start[order], limbs[order]
    span = int(P.max()) - int(P.min())
    lut = e.lut(-span, span)
    hits_before = np.zeros(2 * n + 1, dtype=np.int64)
    N_col = np.array(N_list)[:, None]
    # sums[i] < 2n * 2**16 * N <= 2**57 per limb while n <= 2**20
    sums = np.zeros((len(N_list), 8), dtype=np.int64)
    for b, lo, hi in zip(levels.tolist(), starts, ends):
        # hits_before[t]: times u < t with P[u] - b in E
        np.cumsum(lut[P[:-1] - (b - span)], out=hits_before[1:])
        a = start[lo:hi]
        hits = hits_before[N_col + a]
        hits -= hits_before[a]
        sums += hits @ limbs[lo:hi].astype(np.int64)
    fractions = {
        N: Fraction(_limb_total(row), 2 * N * MODULUS) for N, row in zip(N_list, sums)
    }
    entries = [
        AverageEntry(N=N, value=float(fractions[N]), stderr=0.0,
                     method="exact", n_samples=0)
        for N in N_list
    ]
    return AverageSeries(entries), fractions


def reduced_average_series(
    alpha: FixedAngle,
    e: ESet,
    b_filter,
    N_list: Sequence[int],
    n_theta: int,
    seed: int,
) -> AverageSeries:
    """A_N over sampled thetas by the reduction formula: half the fraction of
    walk times whose height lies in E."""
    return _sampled_series(alpha, b_filter, N_list, n_theta, seed,
                           lambda idx, lo, hi: e.lut(int(lo.min()), int(hi.max())),
                           0.5, "reduced")


# ---------------------------------------------------------------------------
# Oscillation analysis along the two subsequences.


# The bound fields (bound_low, bound_high, conditions_ok, bounds_checked,
# bounds_ok) are always null or false.  The paper's bounds A_N <= 1/m and
# A_N >= 1/2 - 1/m hold along a schedule that meets the growth conditions;
# with the measured occupation constants (about 0.98) such a schedule has
# materializable times only at m = 1, where the bounds read A_N <= 1 and
# A_N >= -1/2 and every A_N in [0, 1/2] meets them.  The fields stay as part
# of the discwalk-oscillation-v1 schema.


@dataclass
class OscillationRow:
    m: int
    N_low: Optional[int] = None  # start of the following interval
    value_low: Optional[float] = None
    bound_low: Optional[float] = None
    N_high: Optional[int] = None  # interval top + 1
    value_high: Optional[float] = None
    bound_high: Optional[float] = None
    conditions_ok: Optional[bool] = None


@dataclass
class OscillationReport:
    rows: List[OscillationRow] = field(default_factory=list)
    oscillation: float = 0.0  # max - min over the whole series
    subsequence_oscillation: float = 0.0
    bounds_checked: bool = False
    bounds_ok: Optional[bool] = None

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": "discwalk-oscillation-v1",
                "oscillation": self.oscillation,
                "subsequence_oscillation": self.subsequence_oscillation,
                "bounds_checked": self.bounds_checked,
                "bounds_ok": self.bounds_ok,
                "rows": [vars(r) for r in self.rows],
            },
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str) -> "OscillationReport":
        doc = json.loads(text)
        if doc.get("schema") != "discwalk-oscillation-v1":
            raise ConfigError("unexpected oscillation report schema")
        rep = cls(
            rows=[OscillationRow(**r) for r in doc["rows"]],
            oscillation=doc["oscillation"],
            subsequence_oscillation=doc["subsequence_oscillation"],
            bounds_checked=doc["bounds_checked"],
            bounds_ok=doc["bounds_ok"],
        )
        return rep


def oscillation_report(series: AverageSeries, schedule: Schedule) -> OscillationReport:
    """Tabulate A_N along the schedule's two subsequences, N = l_{m+1} and
    N = l_m + r_m + 1, where they are materializable; the series must hold
    every such N inside its range."""
    have = {e.N: e.value for e in series.entries}
    if not have:
        raise MissingEntries("empty series")
    min_series_n = min(have)
    max_series_n = max(have)

    def lookup(n: Optional[int]) -> Optional[float]:
        if n is None or n > max_series_n or n < min_series_n:
            return None
        if n not in have:
            raise MissingEntries(f"series is missing required entry N={n}")
        return have[n]

    rows = []
    sub_vals = []
    for m1, iv in enumerate(schedule.intervals):
        row = OscillationRow(m=m1 + 1)
        if iv.hi.is_exact:
            row.N_high = iv.hi.to_int() + 1
            row.value_high = lookup(row.N_high)
        if m1 + 1 < len(schedule.intervals) and schedule.intervals[m1 + 1].l.is_exact:
            row.N_low = schedule.intervals[m1 + 1].l.to_int()
            row.value_low = lookup(row.N_low)
        sub_vals.extend(v for v in (row.value_low, row.value_high) if v is not None)
        rows.append(row)
    all_vals = list(have.values())
    return OscillationReport(
        rows=rows,
        oscillation=max(all_vals) - min(all_vals),
        subsequence_oscillation=(max(sub_vals) - min(sub_vals)) if sub_vals else 0.0,
    )


# ---------------------------------------------------------------------------
# Auxiliary ergodic checks.


@dataclass
class RatioTable:
    checkpoints: List[int]
    v_list: List[int]
    # ratios[i, j, k]: theta i, v_list[j], checkpoints[k]
    ratios: np.ndarray

    def medians(self) -> Tuple[list, list]:
        """The median over thetas of the ratio, and of its distance from 1, at
        every level and checkpoint: nested lists [j][k] over v_list and
        checkpoints."""
        return (np.median(self.ratios, axis=0).tolist(),
                np.median(np.abs(self.ratios - 1.0), axis=0).tolist())


def ratio_check(
    alpha: FixedAngle,
    theta_samples: np.ndarray,
    v_list: Union[Sequence[int], int],
    N_checkpoints: Sequence[int],
) -> RatioTable:
    """Per-level visit counts relative to returns to zero, per checkpoint.
    v_list names the levels; an int v_max stands for every level 0 < |v| <=
    v_max."""
    if not len(theta_samples):
        raise InsufficientSamples("need at least 1 theta sample")
    if isinstance(v_list, int):
        v_max, v_list = v_list, None
        empty = v_max < 1
    else:
        v_list = list(v_list)
        v_max = max((abs(v) for v in v_list), default=0)
        empty = not v_list
    if empty:
        raise ConfigError("v_list must name at least one level")
    checkpoints = check_n_list(sorted(N_checkpoints))
    counts = theta_band_counts(alpha, theta_samples, checkpoints, v_max).transpose(0, 2, 1)
    if v_list is None:  # listed only once the band of its levels is allocated
        v_list = [v for v in range(-v_max, v_max + 1) if v != 0]
    # row v_max counts returns to zero, which is >= 1 since h_0 = 0
    ratios = counts[:, [v + v_max for v in v_list]] / counts[:, [v_max]]
    return RatioTable(checkpoints=checkpoints, v_list=v_list, ratios=ratios)


def ergodicity_correlation(
    alpha: FixedAngle,
    cyl_a: CylinderSpec,
    cyl_b: CylinderSpec,
    N: int,
    n_samples: int,
    seed: int,
) -> Tuple[float, float, float]:
    """Cesàro correlation of two product sets under T, against the product.

    Returns (Monte Carlo Cesàro average, product of measures, standard
    error).  T^t shifts the symbols by the walk height h_t, so cylinder B
    holds at time t iff it holds on omega read around level h_t: each
    sample where A holds is the walk's per-level visit counts weighted by a
    table of B over the visited band, and every other sample is 0.
    """
    if N < 1:
        raise ConfigError("N must be >= 1")
    if n_samples < 2:
        raise InsufficientSamples("need at least 2 samples")
    reach_a = max((abs(j) for j, _ in cyl_a.constraints), default=0)
    reach_b = max((abs(j) for j, _ in cyl_b.constraints), default=0)
    # cylinder A is read at time 0 only, B around every level the walk visits
    W = max(reach_a, default_window_radius(N) + reach_b)
    thetas = sample_thetas(n_samples, seed)
    # every omega, in sample order; a theta whose omega is not in A is never walked
    windows = omega_windows(seed, 2, range(n_samples), W)
    in_a = np.ones(n_samples, dtype=bool)
    for j, s in cyl_a.constraints:
        in_a &= windows[:, j + W] == s

    def level_table(idx: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        if (np.maximum(-lo, hi) + reach_b > W).any():
            raise BudgetExceeded("walk left the symbol window budget")
        a, b = int(lo.min()), int(hi.max())
        table = np.ones((len(idx), b - a + 1), dtype=bool)
        for j, s in cyl_b.constraints:
            table &= windows[idx, a + j + W:b + j + W + 1] == s
        return table

    vals = _sampled_fractions(alpha, in_a, thetas, [N], level_table)[:, 0]
    lhs = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n_samples))
    return lhs, cyl_a.measure * cyl_b.measure, stderr


@dataclass
class RangeDecayTable:
    N_list: List[int]
    # per_theta[i, k] = a_N / N for theta i at N_list[k]
    per_theta: np.ndarray

    def max_at(self, N: int) -> float:
        k = self.N_list.index(N)
        return float(self.per_theta[:, k].max())


def zero_entropy_proxy(
    alpha: FixedAngle,
    theta_samples: np.ndarray,
    N_list: Sequence[int],
) -> RangeDecayTable:
    """Fraction of distinct heights visited, per theta and horizon."""
    if not len(theta_samples):
        raise InsufficientSamples("need at least 1 theta sample")
    N_list = check_n_list(sorted(N_list))
    # the visited levels form an interval: steps are +/-1
    _, rows, row = theta_counts(alpha, theta_samples, N_list)
    table = np.count_nonzero(rows, axis=2)[row] / np.asarray(N_list)
    return RangeDecayTable(N_list=list(N_list), per_theta=table)
