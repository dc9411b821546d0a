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
from .walk import check_n_list, level_counts, sample_thetas
from ._parallel import ordered_map

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


def _sampled_series(
    alpha: FixedAngle,
    b_filter,
    N_list: Sequence[int],
    n_theta: int,
    seed: int,
    workers: int,
    indicator: Callable[[int, int, int], np.ndarray],
    prefactor: float,
    method: str,
) -> AverageSeries:
    """A_N as prefactor times the mean over sampled thetas of the fraction of
    walk times n < N whose level v has ``indicator(i, lo, hi)[v - lo]`` true:
    the level table of theta i over its visited band [lo, hi].

    One walk per theta covers every N in the list.  Thetas rejected by the
    filter contribute zero, folding the accepted fraction into the estimate
    so it targets the integral over the accepted set.
    """
    N_list = check_n_list(N_list)
    if n_theta < 16:
        raise ConfigError("n_theta must be >= 16")
    thetas = sample_thetas(n_theta, seed)
    mask = (b_filter or AcceptAll()).select(thetas, alpha)
    if not mask.any():
        raise EmptyAfterFilter("no theta samples pass the filter")
    n_arr = np.asarray(N_list)

    def per_theta(i: int) -> np.ndarray:
        if not mask[i]:
            return np.zeros(len(n_arr))
        v_min, counts = level_counts(thetas[i].bits, alpha.bits, N_list)
        return counts @ indicator(i, v_min, v_min + counts.shape[1] - 1) / n_arr

    fractions = np.array(ordered_map(per_theta, range(n_theta), workers))
    values = prefactor * fractions.mean(axis=0)
    stderr = prefactor * fractions.std(axis=0, ddof=1) / math.sqrt(n_theta)
    return AverageSeries([
        AverageEntry(N=int(n), value=float(v), stderr=float(s),
                     method=method, n_samples=n_theta, seed=seed)
        for n, v, s in zip(N_list, values, stderr)
    ])
