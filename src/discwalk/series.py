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
from .walk import cell_counts, check_n_list, level_counts, sample_thetas

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


# Count entries (thetas x len(N_list) x band width) gathered at a time from
# a cell table: large enough that per-chunk overhead vanishes, small enough
# that a chunk beside the table (2n rows, mirror cells included) stays under
# the peak memory sample_thetas already reached.
_CHUNK_ENTRIES = 1 << 15


def _sampled_fractions(
    alpha: FixedAngle,
    mask: np.ndarray,
    thetas: Sequence[FixedAngle],
    N_list: List[int],
    level_table: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """fractions[t, i]: the fraction of theta t's first N_list[i] walk times
    whose level the level table marks; 0.0 for rejected thetas."""
    n_arr = np.asarray(N_list)
    fractions = np.zeros((len(thetas), len(N_list)))

    def fill(idx: np.ndarray, v_min: int, counts: np.ndarray) -> None:
        # counts[t, i, j]: visits of theta idx[t] to level v_min + j
        seen = counts[:, -1] != 0
        lo = v_min + seen.argmax(axis=1)
        hi = v_min + counts.shape[2] - 1 - seen[:, ::-1].argmax(axis=1)
        band = counts[:, :, lo.min() - v_min:hi.max() - v_min + 1]
        table = level_table(idx, lo, hi)
        fractions[idx] = (band @ table[..., None])[..., 0] / n_arr

    accepted = np.flatnonzero(mask)
    cells = cell_counts(alpha.bits, N_list)
    if cells is None:
        for i in accepted.tolist():
            v_min, counts = level_counts(thetas[i].bits, alpha.bits, N_list)
            fill(np.array([i]), v_min, counts[None])
        return fractions
    step = max(1, _CHUNK_ENTRIES // cells.hist[0].size)
    for c0 in range(0, len(accepted), step):
        idx = accepted[c0:c0 + step]
        fill(idx, -cells.reach, cells.of([thetas[i].bits for i in idx]))
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

    A walk of at most n = max N steps is fixed by the cell of
    rotation.partition_cells(alpha, n) its theta lies in.  So when n is below
    the block length q (checked before anything is built) and the table's 2n
    rows stay within 2**22 count entries, one walk.CellTable built per call
    (walk.cell_counts) holds the counts of every cell at every N, and each
    accepted theta's counts are one row of it: no theta is walked.  Accepted
    thetas are looked up in chunks of about 2**15 count entries, which keeps
    peak memory where the per-theta loop had it, and a chunk's hits are
    integer products of its counts with its level table.  Otherwise each
    accepted theta goes through walk.level_counts, which reads a walk of q
    or more steps off the cached block table (the same table with n = q) and
    walks a shorter one, or one on an alpha with no block table, directly.
    Both give the fractions, and so the aggregates, byte for byte.  What
    remains per theta is the Monte Carlo route's omega draw (about 45 us a
    theta), most of that route's time.

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
