"""Average-series container shared by the three evaluation routes, and the
driver shared by the two sampled routes."""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .errors import ConfigError, EmptyAfterFilter
from .filters import AcceptAll
from .rotation import FixedAngle
from .walk import check_n_list, sample_thetas, theta_counts, visited_band

CSV_HEADER = "N,A,stderr,method,n_theta,seed"


@dataclass(frozen=True)
class AverageEntry:
    N: int
    value: float
    stderr: float  # 0 for the exact route
    method: str  # "reduced" | "exact" | "montecarlo"
    n_samples: int
    seed: Optional[int] = None


@dataclass
class AverageSeries:
    entries: List[AverageEntry]

    def at(self, N: int) -> AverageEntry:
        for e in self.entries:
            if e.N == N:
                return e
        raise KeyError(f"no entry at N={N}")

    def values(self) -> List[float]:
        return [e.value for e in self.entries]

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(CSV_HEADER + "\n")
        for e in self.entries:
            seed = "" if e.seed is None else str(e.seed)
            buf.write(f"{e.N},{e.value!r},{e.stderr!r},{e.method},{e.n_samples},{seed}\n")
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str) -> "AverageSeries":
        lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
        if lines[0] != CSV_HEADER:
            raise ConfigError(f"unexpected series header: {lines[0]!r}")
        entries = []
        for ln in lines[1:]:
            n, a, se, method, ns, seed = ln.split(",")
            entries.append(
                AverageEntry(
                    N=int(n),
                    value=float(a),
                    stderr=float(se),
                    method=method,
                    n_samples=int(ns),
                    seed=int(seed) if seed else None,
                )
            )
        return cls(entries)


def _sampled_fractions(
    alpha: FixedAngle,
    mask: np.ndarray,
    thetas: np.ndarray,
    N_list: List[int],
    level_table: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """fractions[t, i]: the fraction of theta t's first N_list[i] walk times
    whose level the level table marks; 0.0 for rejected thetas."""
    fractions = np.zeros((len(thetas), len(N_list)))
    accepted = np.flatnonzero(mask)
    for idx, v_min, counts in theta_counts(alpha, thetas[accepted], N_list):
        idx = accepted[idx]
        lo, hi = visited_band(v_min, counts)
        band = counts[:, :, lo.min() - v_min:hi.max() - v_min + 1]
        table = level_table(idx, lo, hi)
        fractions[idx] = (band @ table[..., None])[..., 0] / np.asarray(N_list)
    return fractions


def _sampled_series(
    alpha: FixedAngle,
    b_filter,
    N_list: Sequence[int],
    n_theta: int,
    seed: int,
    level_table: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
    prefactor: float,
    method: str,
) -> AverageSeries:
    """A_N as prefactor times the mean over sampled thetas of the fraction of
    walk times n < N whose height the level table marks.

    ``level_table(idx, lo, hi)`` gets accepted theta indices (ascending) and
    the visited band [lo[t], hi[t]] of each, and returns a boolean table over
    their common band [lo.min(), hi.max()]: one row shared by all, or one row
    per theta.  It may raise for the first theta whose band it cannot serve.

    Thetas rejected by the filter contribute zero, folding the accepted
    fraction into the estimate so it targets the integral over the accepted
    set.
    """
    N_list = check_n_list(N_list)
    if n_theta < 16:
        raise ConfigError("n_theta must be >= 16")
    thetas = sample_thetas(n_theta, seed)
    mask = (b_filter or AcceptAll()).select(thetas, alpha)
    if not mask.any():
        raise EmptyAfterFilter("no theta samples pass the filter")
    fractions = _sampled_fractions(alpha, mask, thetas, N_list, level_table)
    values = prefactor * fractions.mean(axis=0)
    stderr = prefactor * fractions.std(axis=0, ddof=1) / math.sqrt(n_theta)
    return AverageSeries([
        AverageEntry(N=int(n), value=float(v), stderr=float(s),
                     method=method, n_samples=n_theta, seed=seed)
        for n, v, s in zip(N_list, values, stderr)
    ])
