"""The deterministic walk driven by the rotation, and its occupation statistics.

The walk height after k steps is h_k = sum_{i<k} phi(theta + i*alpha), a
+/-1-step path on the integers.  This module computes prefixes of the walk,
per-level visit counts, the range statistic (number of distinct levels
visited), and empirical estimates of the occupation constants used by the
schedule verifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    checkpoints: List[Tuple[int, int]] = field(default_factory=list)

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


def run_walk(
    theta0: FixedAngle,
    alpha: FixedAngle,
    N: int,
    checkpoints: Sequence[int] = (),
) -> WalkSummary:
    """Compute the first N heights of the walk at theta0 and summarize them."""
    if N < 1:
        raise ConfigError("N must be >= 1")
    heights = walk_heights(theta0.bits, alpha.bits, N)
    min_h = int(heights.min())
    max_h = int(heights.max())
    if max(abs(min_h), abs(max_h)) >= _HEIGHT_LIMIT:
        raise HeightOverflow("walk height exceeds 64-bit budget")
    dense = np.bincount(heights - min_h, minlength=max_h - min_h + 1)
    cps = [(int(n), int(heights[n])) for n in checkpoints if 0 <= n < N]
    return WalkSummary(
        theta0=theta0,
        alpha=alpha,
        N=N,
        histogram=OccupationHistogram(min_h, dense),
        min_height=min_h,
        max_height=max_h,
        checkpoints=cps,
    )


def psi(summary: WalkSummary, v: int) -> int:
    """Visits to level v among the first N heights; v=0 is the return count."""
    return summary.histogram.count(v)


def range_stat(summary: WalkSummary) -> int:
    return summary.range_count


def default_checkpoints(N: int, schedule=None) -> List[int]:
    """Powers of 10 up to N, plus the schedule's two subsequences if given."""
    cps = {n for n in (10 ** k for k in range(1, 25)) if n <= N}
    cps.add(N)
    if schedule is not None:
        for n in schedule.subsequence_times():
            if 1 <= n <= N:
                cps.add(n)
    return sorted(cps)


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
    quantile: Optional[float] = None

    def c_of(self, v: int) -> float:
        v = abs(v)
        if not self.c_v:
            raise InsufficientSamples("empty constants table")
        vmax = max(self.c_v)
        # beyond the observed band the running max saturates
        return self.c_v[min(v, vmax)]

    def document(self) -> str:
        lines = [
            "schema: discwalk-constants-v1",
            f"horizon: {self.horizon}",
            f"samples: {self.sample_count}",
            f"seed: {self.seed}",
            f"quantile: {self.quantile}",
            f"m_global: {self.m_global!r}",
        ]
        for v in sorted(self.m_v):
            lines.append(f"m[{v}]: {self.m_v[v]!r}")
        for v in sorted(self.c_v):
            lines.append(f"c[{v}]: {self.c_v[v]!r}")
        return "\n".join(lines) + "\n"


def _occupation_at_checkpoints(
    theta_bits: int, alpha_bits: int, checkpoints: Sequence[int], v_max: int
) -> np.ndarray:
    """counts[i, j] = visits to level v_min + j among the first checkpoints[i]
    heights, for levels |v| <= v_max."""
    N = max(checkpoints)
    heights = walk_heights(theta_bits, alpha_bits, N)
    width = 2 * v_max + 1
    out = np.zeros((len(checkpoints), width), dtype=np.int64)
    np.clip(heights, -v_max - 1, v_max + 1, out=heights)
    heights += v_max + 1
    for i, n in enumerate(checkpoints):
        c = np.bincount(heights[:n], minlength=2 * v_max + 3)
        out[i] = c[1:-1]
    return out


def estimate_constants(
    alpha: FixedAngle,
    theta_samples: Sequence[FixedAngle],
    N: int,
    v_max: int,
    checkpoints: Optional[Sequence[int]] = None,
    seed: Optional[int] = None,
    workers: int = 1,
) -> ConstantsTable:
    """Estimate the per-level occupation constants from a theta sample."""
    if N < 16:
        raise ConfigError("N must be >= 16 so log n > 1 on the measured tail")
    if len(theta_samples) < 2:
        raise InsufficientSamples("need at least 2 theta samples")
    if checkpoints is None:
        checkpoints = default_checkpoints(N)
    checkpoints = sorted({n for n in checkpoints if 16 <= n <= N} | {N})
    alpha_bits = alpha.bits

    def per_theta(theta: FixedAngle) -> np.ndarray:
        return _occupation_at_checkpoints(theta.bits, alpha_bits, checkpoints, v_max)

    tables = ordered_map(per_theta, theta_samples, workers)

    scale = np.array([math.sqrt(math.log(n)) / n for n in checkpoints])
    m_v: Dict[int, float] = {}
    for j, v in enumerate(range(-v_max, v_max + 1)):
        best = 0.0
        for tab in tables:
            best = max(best, float((tab[:, j] * scale).max()))
        m_v[v] = best
    c_v: Dict[int, float] = {}
    running = 0.0
    for v in range(0, v_max + 1):
        running = max(running, m_v[v], m_v[-v])
        c_v[v] = running

    # global band constant: sup/mean ratio of the return count at the horizon
    j0 = v_max
    returns_at_N = np.array([tab[-1, j0] for tab in tables], dtype=float)
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
    checkpoints = sorted(checkpoints)
    if checkpoints[0] < 16:
        raise ConfigError("checkpoints must be >= 16 so log n > 1")
    alpha_bits = alpha.bits

    def per_theta(theta: FixedAngle) -> np.ndarray:
        tab = _occupation_at_checkpoints(theta.bits, alpha_bits, checkpoints, 0)
        return tab[:, 0]

    counts = np.array(ordered_map(per_theta, theta_samples, workers), dtype=float)
    scale = np.array([math.sqrt(math.log(n)) / n for n in checkpoints])
    scaled = counts * scale
    return scaled.mean(axis=0), scaled.max(axis=0)


def sample_thetas(n: int, seed: int) -> List[FixedAngle]:
    """n uniform circle points, deterministic in seed and sample order."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        hi, lo = rng.integers(0, 1 << 64, size=2, dtype=np.uint64)
        out.append(FixedAngle((int(hi) << 64) | int(lo)))
    return out
