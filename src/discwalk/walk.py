"""The deterministic walk driven by the rotation, and its occupation statistics.

The walk height after k steps is h_k = sum_{i<k} phi(theta + i*alpha), a
+/-1-step path on the integers.  This module computes prefixes of the walk,
per-level visit counts at checkpoint times (``level_counts``, the one
per-theta reducer that every sampled statistic is computed from), the range
statistic (number of distinct levels visited), and empirical estimates of
the occupation constants, the C of the schedule's growth conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ConfigError, HeightOverflow, InsufficientSamples
from .rotation import FixedAngle, advance, phi, walk_heights
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


def level_counts(
    theta_bits: int, alpha_bits: int, checkpoints: Sequence[int]
) -> Tuple[int, np.ndarray]:
    """(v_min, counts): counts[i, j] = visits to level v_min + j among the
    first checkpoints[i] heights (ascending, >= 1), over the whole visited band.

    The one per-theta walk reducer.  Heights between checkpoints i - 1 and i
    are shifted in place into bins [i * width, (i + 1) * width), so one
    bincount histograms every segment and a cumsum adds them up.
    """
    heights = walk_heights(theta_bits, alpha_bits, checkpoints[-1])
    v_min = int(heights.min())
    width = int(heights.max()) - v_min + 1
    for i, (a, b) in enumerate(zip([0] + list(checkpoints[:-1]), checkpoints)):
        heights[a:b] += i * width - v_min
    counts = np.bincount(heights, minlength=len(checkpoints) * width)
    counts = counts.reshape(len(checkpoints), width)
    return v_min, np.cumsum(counts, axis=0, out=counts)


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
    workers: int = 1,
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
    tables = np.array(ordered_map(per_theta, theta_samples, workers))
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
    workers: int = 1,
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

    counts = np.array(ordered_map(per_theta, theta_samples, workers), dtype=float)
    scaled = counts * occupation_scale(checkpoints)
    return scaled.mean(axis=0), scaled.max(axis=0)


def sample_thetas(n: int, seed: int) -> List[FixedAngle]:
    """n uniform circle points, deterministic in seed and sample order."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        hi, lo = rng.integers(0, 1 << 64, size=2, dtype=np.uint64)
        out.append(FixedAngle((int(hi) << 64) | int(lo)))
    return out
