"""Circle-sample filters standing in for the good set of starting points.

The construction restricts the integrand to a full-measure-ish set of
thetas on which the occupation bounds hold uniformly.  That set is
non-constructive, so the workbench offers two stand-ins: accept everything
(the upper-bound route needs no restriction), or drop the worst tail of a
sample ranked by its scaled occupation statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rotation import FixedAngle
from .walk import occupation_scale, theta_band_counts


class AcceptAll:
    def select(self, thetas: np.ndarray, alpha: FixedAngle) -> np.ndarray:
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

    def __post_init__(self):
        if not 0 < self.q < 1:
            raise ConfigError(f"quantile q must be in (0, 1): {self.q}")
        if self.horizon < 1:
            raise ConfigError(f"quantile horizon must be >= 1: {self.horizon}")
        if self.v_max < 0:
            raise ConfigError(f"quantile v_max must be >= 0: {self.v_max}")

    def statistics(self, thetas: np.ndarray, alpha: FixedAngle) -> np.ndarray:
        """The statistic of each sample_thetas row."""
        h = self.horizon
        times = [16 << k for k in range(h.bit_length()) if 16 << k < h] + [h]
        counts = theta_band_counts(alpha, thetas, times, self.v_max)
        return (counts * occupation_scale(times)[:, None]).max(axis=(1, 2))

    def select(self, thetas: np.ndarray, alpha: FixedAngle) -> np.ndarray:
        stats = self.statistics(thetas, alpha)
        cutoff = np.quantile(stats, 1.0 - self.q)
        return stats <= cutoff
