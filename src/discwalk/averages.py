"""The triple-correlation Cesàro average, three ways, plus the ergodic checks.

The average A_N reduces to (1/2) * integral over accepted thetas of the
fraction of walk times n < N whose height lies in E.  Routes: ``reduced``
(stream the walk over sampled thetas), ``exact`` (integrate the height step
function over the circle in fixed point, no sampling error), and the direct
Monte Carlo orbit route in :mod:`discwalk.symbolic`.  The auxiliary checks
cover the return-ratio convergence, the correlation form of ergodicity, and
the decay of the visited-range fraction.
"""

from __future__ import annotations

import bisect
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import BudgetExceeded, ConfigError, InsufficientSamples, MissingEntries
from .eset import ESet, Schedule
from .rotation import HALF, MODULUS, FixedAngle, orbit_hi64, walk_heights
from .series import AverageEntry, AverageSeries, _in_e, _sampled_series, check_n_list
from .symbolic import CylinderSpec, default_window_radius, sample_omega
from .walk import _occupation_at_checkpoints, sample_thetas
from ._parallel import ordered_map

EXACT_N_CAP = 1 << 14


class PartitionStepFn:
    """phi_n as a step function on the circle, refined incrementally.

    Cell i covers [breaks[i], breaks[i+1]) in fixed-point bits (the last cell
    wraps to 2**128) and carries the integer value of phi_n there.  Each
    refinement step inserts the two new breakpoints contributed by the next
    rotation preimage of the half-circle, so the cell count stays <= 2n + 2.
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


def exact_level_measures(alpha: FixedAngle, n: int) -> Dict[int, Fraction]:
    """Exact distribution of phi_n over the circle."""
    part = PartitionStepFn(alpha)
    for _ in range(n):
        part.step()
    return part.level_measures()


def exact_average_series(
    alpha: FixedAngle, e: ESet, N_list: Sequence[int]
) -> Tuple[AverageSeries, Dict[int, Fraction]]:
    """A_N over the full circle by exact fixed-point integration.

    Returns the float series plus the exact fractions (denominator divides
    2**129 * N).  Quadratic in max(N_list); capped to keep runs bounded.
    """
    N_list = check_n_list(N_list)
    max_n = N_list[-1]
    if max_n > EXACT_N_CAP:
        raise BudgetExceeded(
            f"exact route is quadratic; N={max_n} exceeds cap {EXACT_N_CAP}")
    part = PartitionStepFn(alpha)
    acc = 0
    fractions: Dict[int, Fraction] = {}
    targets = set(N_list)
    for n in range(max_n):
        acc += part.measure_bits_in(e)
        if n + 1 in targets:
            fractions[n + 1] = Fraction(acc, 2 * (n + 1) * MODULUS)
        if n + 1 < max_n:
            part.step()
    entries = [
        AverageEntry(N=n, value=float(fractions[n]), stderr=0.0,
                     method="exact", n_samples=0)
        for n in N_list
    ]
    return AverageSeries(entries), fractions


def exact_average(alpha: FixedAngle, e: ESet, N: int) -> Fraction:
    _, fr = exact_average_series(alpha, e, [N])
    return fr[N]


def reduced_average_series(
    alpha: FixedAngle,
    e: ESet,
    b_filter,
    N_list: Sequence[int],
    n_theta: int,
    seed: int,
    workers: int = 1,
) -> AverageSeries:
    """A_N by streaming the walk over sampled thetas (reduction formula):
    half the fraction of walk times whose height lies in E."""
    return _sampled_series(alpha, b_filter, N_list, n_theta, seed, workers,
                           lambda i, heights: _in_e(e, heights), 0.5, "reduced")


# ---------------------------------------------------------------------------
# Oscillation analysis along the two subsequences.


@dataclass
class OscillationRow:
    m: int
    N_low: Optional[int] = None  # start of the following interval
    value_low: Optional[float] = None
    bound_low: Optional[float] = None  # 1/m, when the schedule is paper-valid
    N_high: Optional[int] = None  # interval top + 1
    value_high: Optional[float] = None
    bound_high: Optional[float] = None  # 1/2 - 1/m
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
    """Tabulate A_N along the schedule's two subsequences.

    For a paper-valid schedule the tabulation also checks the 1/m and
    1/2 - 1/m bounds; desk schedules get the raw oscillation plus the
    condition verdicts carried from the verifier.
    """
    have = {e.N: e.value for e in series.entries}
    if not have:
        raise MissingEntries("empty series")
    min_series_n = min(have)
    max_series_n = max(have)
    paper_valid = (
        schedule.mode == "paper"
        and schedule.condition_report is not None
        and schedule.condition_report.passed
    )
    cond_ok = None
    if schedule.condition_report is not None:
        cond_ok = schedule.condition_report.passed

    def lookup(n: Optional[int]) -> Optional[float]:
        if n is None or n > max_series_n or n < min_series_n:
            return None
        if n not in have:
            raise MissingEntries(f"series is missing required entry N={n}")
        return have[n]

    rows = []
    sub_vals = []
    bounds_ok: Optional[bool] = None
    for m1, iv in enumerate(schedule.intervals):
        m = m1 + 1
        row = OscillationRow(m=m, conditions_ok=cond_ok)
        if iv.hi.is_exact:
            row.N_high = iv.hi.to_int() + 1
            row.value_high = lookup(row.N_high)
        if m1 + 1 < len(schedule.intervals) and schedule.intervals[m1 + 1].l.is_exact:
            row.N_low = schedule.intervals[m1 + 1].l.to_int()
            row.value_low = lookup(row.N_low)
        if paper_valid:
            row.bound_low = 1.0 / m
            row.bound_high = 0.5 - 1.0 / m
            for v, b, up in (
                (row.value_low, row.bound_low, True),
                (row.value_high, row.bound_high, False),
            ):
                if v is not None:
                    ok = v <= b if up else v >= b
                    bounds_ok = ok if bounds_ok is None else (bounds_ok and ok)
        sub_vals.extend(v for v in (row.value_low, row.value_high) if v is not None)
        rows.append(row)
    all_vals = list(have.values())
    return OscillationReport(
        rows=rows,
        oscillation=max(all_vals) - min(all_vals),
        subsequence_oscillation=(max(sub_vals) - min(sub_vals)) if sub_vals else 0.0,
        bounds_checked=paper_valid,
        bounds_ok=bounds_ok,
    )


# ---------------------------------------------------------------------------
# Auxiliary ergodic checks.


@dataclass
class RatioTable:
    checkpoints: List[int]
    v_list: List[int]
    # ratios[i, j, k]: theta i, v_list[j], checkpoints[k]
    ratios: np.ndarray

    def median(self, v: int, n: int) -> float:
        j = self.v_list.index(v)
        k = self.checkpoints.index(n)
        return float(np.median(self.ratios[:, j, k]))

    def median_abs_dev_from_one(self, v: int, n: int) -> float:
        j = self.v_list.index(v)
        k = self.checkpoints.index(n)
        return float(np.median(np.abs(self.ratios[:, j, k] - 1.0)))


def ratio_check(
    alpha: FixedAngle,
    theta_samples: Sequence[FixedAngle],
    v_list: Sequence[int],
    N_checkpoints: Sequence[int],
    workers: int = 1,
) -> RatioTable:
    """Per-level visit counts relative to returns to zero, per checkpoint."""
    if not theta_samples:
        raise InsufficientSamples("need at least 1 theta sample")
    v_list = list(v_list)
    if not v_list:
        raise ConfigError("v_list must name at least one level")
    checkpoints = check_n_list(sorted(N_checkpoints))
    v_max = max((abs(v) for v in v_list), default=0)
    cols = [v + v_max for v in v_list]
    alpha_bits = alpha.bits

    def per_theta(theta: FixedAngle) -> np.ndarray:
        counts = _occupation_at_checkpoints(theta.bits, alpha_bits, checkpoints, v_max)
        # column v_max counts returns to zero, which is >= 1 since h_0 = 0
        return (counts[:, cols] / counts[:, [v_max]]).T

    ratios = np.array(ordered_map(per_theta, theta_samples, workers))
    return RatioTable(checkpoints=checkpoints, v_list=v_list, ratios=ratios)


Arc = List[Tuple[int, int]]  # list of (lo_bits, hi_bits), half-open, lo < hi


def full_circle_arc() -> Arc:
    return [(0, MODULUS)]


def arc_from_floats(pieces: Sequence[Tuple[float, float]]) -> Arc:
    out = []
    for lo, hi in pieces:
        lo_b = int(lo * MODULUS)
        hi_b = int(hi * MODULUS)
        if not 0 <= lo_b < hi_b <= MODULUS:
            raise ConfigError(f"bad arc piece ({lo}, {hi})")
        out.append((lo_b, hi_b))
    return out


def arc_measure(arc: Arc) -> float:
    return sum(hi - lo for lo, hi in arc) / MODULUS


def _arc_mask(hi64: np.ndarray, arc: Arc) -> np.ndarray:
    mask = np.zeros(len(hi64), dtype=bool)
    for lo, hi in arc:
        lo64 = np.uint64(lo >> 64)
        if hi >= MODULUS:
            mask |= hi64 >= lo64
        else:
            mask |= (hi64 >= lo64) & (hi64 < np.uint64(hi >> 64))
    return mask


def ergodicity_correlation(
    alpha: FixedAngle,
    cyl_a: CylinderSpec,
    cyl_b: CylinderSpec,
    arc_a: Arc,
    arc_b: Arc,
    N: int,
    n_samples: int,
    seed: int,
    workers: int = 1,
) -> Tuple[float, float, float]:
    """Cesàro correlation of two product sets under T, against the product.

    Returns (Monte Carlo Cesàro average, product of measures, standard
    error).  Arc membership along the orbit is resolved at 64-bit precision,
    far below the Monte Carlo resolution.
    """
    if N < 1:
        raise ConfigError("N must be >= 1")
    if n_samples < 2:
        raise InsufficientSamples("need at least 2 samples")
    coords = [j for j, _ in cyl_b.constraints]
    W = default_window_radius(N) + max((abs(j) for j in coords), default=0)
    thetas = sample_thetas(n_samples, seed)
    alpha_bits = alpha.bits

    def per_sample(item) -> float:
        i, theta = item
        omega = sample_omega(W, np.random.SeedSequence(entropy=seed, spawn_key=(2, i)))
        if not (cyl_a.holds(omega) and _arc_mask(
                np.array([theta.bits >> 64], dtype=np.uint64), arc_a)[0]):
            return 0.0
        heights = walk_heights(theta.bits, alpha_bits, N)
        if int(np.abs(heights).max()) + max((abs(j) for j in coords), default=0) > W:
            raise BudgetExceeded("walk left the symbol window budget")
        ok = _arc_mask(orbit_hi64(theta.bits, alpha_bits, N), arc_b)
        for j, s in cyl_b.constraints:
            ok &= omega.values[heights + j + W] == s
        return float(np.count_nonzero(ok) / N)

    vals = np.array(ordered_map(per_sample, list(enumerate(thetas)), workers))
    lhs = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(n_samples))
    rhs = arc_measure(arc_a) * cyl_a.measure * arc_measure(arc_b) * cyl_b.measure
    return lhs, rhs, stderr


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
    theta_samples: Sequence[FixedAngle],
    N_list: Sequence[int],
    workers: int = 1,
) -> RangeDecayTable:
    """Fraction of distinct heights visited, per theta and horizon."""
    if not theta_samples:
        raise InsufficientSamples("need at least 1 theta sample")
    N_list = check_n_list(sorted(N_list))
    max_n = N_list[-1]
    alpha_bits = alpha.bits
    idx = np.asarray(N_list) - 1

    def per_theta(theta: FixedAngle) -> np.ndarray:
        heights = walk_heights(theta.bits, alpha_bits, max_n)
        cmax = np.maximum.accumulate(heights)
        cmin = np.minimum.accumulate(heights)
        spans = (cmax[idx] - cmin[idx] + 1).astype(float)
        return spans / np.asarray(N_list)

    table = np.array(ordered_map(per_theta, theta_samples, workers))
    return RangeDecayTable(N_list=list(N_list), per_theta=table)
