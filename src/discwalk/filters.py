"""Circle-sample filters standing in for the good set of starting points.

The construction restricts the integrand to a full-measure-ish set of
thetas on which the occupation bounds hold uniformly.  That set is
non-constructive, so the workbench offers two stand-ins: accept everything
(the upper-bound route needs no restriction), or drop the worst tail of a
sample ranked by its scaled occupation statistic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .rotation import FixedAngle
from .walk import _occupation_at_checkpoints


class AcceptAll:
    name = "all"

    def select(self, thetas: Sequence[FixedAngle], alpha: FixedAngle) -> np.ndarray:
        return np.ones(len(thetas), dtype=bool)


@dataclass
class QuantileFilter:
    """Drop the fraction q of thetas with the largest scaled occupation.

    The statistic is max over levels |v| <= v_max and dyadic times n <=
    horizon of (visits to v among first n) * sqrt(log n) / n.
    """

    q: float
    horizon: int = 1 << 14
    v_max: int = 2

    @property
    def name(self) -> str:
        return f"quantile(q={self.q},horizon={self.horizon},v_max={self.v_max})"

    def statistic(self, theta: FixedAngle, alpha: FixedAngle) -> float:
        times = []
        n = 16
        while n < self.horizon:
            times.append(n)
            n *= 2
        times.append(self.horizon)
        counts = _occupation_at_checkpoints(theta.bits, alpha.bits, times, self.v_max)
        scale = np.array([math.sqrt(math.log(n)) / n for n in times])
        return float((counts * scale[:, None]).max())

    def select(self, thetas: Sequence[FixedAngle], alpha: FixedAngle) -> np.ndarray:
        stats = np.array([self.statistic(t, alpha) for t in thetas])
        cutoff = np.quantile(stats, 1.0 - self.q)
        return stats <= cutoff
