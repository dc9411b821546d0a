"""Points of circle x shift space with finite symbol windows.

A point carries a finite window of the two-sided +/-1 sequence; the shift
acts by reindexing (O(1)), and reads outside the materialized window fail
hard rather than defaulting.  The module provides the skew transformation T,
the sign-flip involution outside E, the conjugated transformation
S = flip o T o flip, and the direct-orbit Monte Carlo estimator used as an
oracle against the reduced-formula route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, WindowExceeded, allocating
from .eset import ESet
from .rotation import FixedAngle, advance, phi, walk_heights
from .series import AverageSeries, _sampled_series


@dataclass(frozen=True)
class SymbolWindow:
    """Finite view of a +/-1 sequence on coordinates [-W, W], shift-aware.

    ``values[i]`` is the symbol at original coordinate i - W.  After shifting
    by k (offset == k), reading coordinate s returns the original coordinate
    s + k; the data never moves.
    """

    values: np.ndarray  # int8, length 2W+1
    offset: int = 0

    @property
    def radius(self) -> int:
        return (len(self.values) - 1) // 2

    def read(self, s: int) -> int:
        i = s + self.offset + self.radius
        if not 0 <= i < len(self.values):
            raise WindowExceeded(
                f"coordinate {s} at offset {self.offset} outside window "
                f"radius {self.radius}", height=s + self.offset)
        return int(self.values[i])

    def shift(self, k: int) -> "SymbolWindow":
        return SymbolWindow(values=self.values, offset=self.offset + k)

    def __eq__(self, other):
        return (
            isinstance(other, SymbolWindow)
            and self.offset == other.offset
            and np.array_equal(self.values, other.values)
        )


@dataclass(frozen=True)
class SymbolicPoint:
    theta: FixedAngle
    window: SymbolWindow


@dataclass(frozen=True)
class CylinderSpec:
    """Finite set of (coordinate, symbol) constraints; measure 2**-len."""

    constraints: tuple  # of (coordinate j, symbol i in {-1, +1})

    def __post_init__(self):
        coords = [j for j, _ in self.constraints]
        if len(set(coords)) != len(coords):
            raise ConfigError("cylinder coordinates must be distinct")
        for _, i in self.constraints:
            if i not in (-1, 1):
                raise ConfigError("cylinder symbols must be +/-1")

    @property
    def measure(self) -> float:
        return 0.5 ** len(self.constraints)

    def holds(self, window: SymbolWindow) -> bool:
        return all(window.read(j) == i for j, i in self.constraints)


def default_window_radius(N: int) -> int:
    """Height budget: the walk stays O(log n) deep for the angles used here."""
    return 4 * max(1, math.ceil(math.log2(max(N, 2)))) + 16


def sample_omega(radius: int, seed) -> SymbolWindow:
    """i.i.d. uniform +/-1 symbols on [-radius, radius], seed-deterministic."""
    rng = np.random.default_rng(seed)
    values = (rng.integers(0, 2, size=2 * radius + 1, dtype=np.int8) * 2 - 1)
    return SymbolWindow(values=values)


def omega_windows(seed: int, tag: int, idx: Sequence[int], radius: int) -> np.ndarray:
    """Row t: the window sample_omega(radius, ...) draws from spawn key (tag, idx[t])."""
    with allocating(f"{len(idx)} windows of {2 * radius + 1} symbols", 2 * radius + 1):
        windows = np.empty((len(idx), 2 * radius + 1), dtype=np.int8)
    for t, i in enumerate(idx):
        key = np.random.SeedSequence(entropy=seed, spawn_key=(tag, int(i)))
        windows[t] = sample_omega(radius, key).values
    return windows


def apply_T(p: SymbolicPoint, alpha: FixedAngle) -> SymbolicPoint:
    step = phi(p.theta)
    shifted = p.window.shift(step)
    if abs(shifted.offset) > shifted.radius:
        raise WindowExceeded(
            f"shift to offset {shifted.offset} leaves window radius "
            f"{shifted.radius}", height=shifted.offset)
    return SymbolicPoint(advance(p.theta, alpha, 1), shifted)


def apply_pi_E(w: SymbolWindow, e: ESet) -> SymbolWindow:
    """Flip every in-window symbol whose current coordinate is outside E."""
    W = w.radius
    return SymbolWindow(values=w.values * e.signs(-W - w.offset, W - w.offset),
                        offset=w.offset)


def apply_S(p: SymbolicPoint, alpha: FixedAngle, e: ESet) -> SymbolicPoint:
    # the flip is an involution, so it is its own inverse
    flipped = SymbolicPoint(p.theta, apply_pi_E(p.window, e))
    moved = apply_T(flipped, alpha)
    return SymbolicPoint(moved.theta, apply_pi_E(moved.window, e))


def triple_indicator(
    theta0: FixedAngle,
    omega: SymbolWindow,
    alpha: FixedAngle,
    e: ESet,
    n: int,
) -> int:
    """1 iff the orbit point at time n satisfies both symbol conditions.

    Evaluated two ways: the collapsed predicate (symbol at the walk height is
    +1 and the height is in E) and the literal orbit composition through T and
    S.  The two must agree; disagreement is a bug, not a data condition.

    The S-orbit condition reads coordinate 0 of the conjugated sequence,
    (pi_E sigma^h pi_E omega)(0) = eps_0 * eps_h * omega(h) with eps_s = +1
    iff s is in E.  When 0 is outside E (always true for valid interval
    sets), the outer flip contributes eps_0 = -1, so the third target set is
    the cylinder of -1 at coordinate 0; the condition then collapses to
    (pi_E omega)(h) = 1, matching the measure identity the averages module
    integrates.
    """
    h = int(walk_heights(theta0.bits, alpha.bits, n + 1)[n])
    collapsed = int(omega.read(h) == 1 and e.contains(h))

    p = SymbolicPoint(theta0, omega)
    q = SymbolicPoint(theta0, omega)
    for _ in range(n):
        p = apply_T(p, alpha)
        q = apply_S(q, alpha, e)
    target = 1 if e.contains(0) else -1
    literal = int(p.window.read(0) == 1 and q.window.read(0) == target)
    assert collapsed == literal, (
        f"indicator routes disagree at n={n}: collapsed={collapsed} literal={literal}")
    return collapsed


def mc_triple_average(
    alpha: FixedAngle,
    e: ESet,
    N_list: Sequence[int],
    n_theta: int,
    seed: int,
    b_filter=None,
    window_radius: Optional[int] = None,
    fault_inject: bool = False,
) -> AverageSeries:
    """Monte Carlo of the triple-correlation average by direct sampling.

    Samples (theta, omega) pairs and averages the collapsed indicator along
    each walk prefix.  ``fault_inject`` deliberately negates the membership
    test so the cross-route gate can be shown to trip.
    """
    W = window_radius if window_radius is not None else default_window_radius(
        max(N_list, default=1))

    def level_table(idx: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        # each theta's own band must fit the window; lo <= 0 <= hi
        worst = np.where(-lo > hi, lo, hi)
        over = np.flatnonzero(np.abs(worst) > W)
        if over.size:
            h = int(worst[over[0]])
            raise WindowExceeded(f"walk height {h} exceeds window radius {W}; "
                                 "re-run with a larger budget", height=h)
        a, b = int(lo.min()), int(hi.max())
        in_e = e.lut(a, b)
        if fault_inject:
            in_e = ~in_e
        return in_e & (omega_windows(seed, 1, idx, W)[:, a + W:b + W + 1] == 1)

    # no 1/2 prefactor here: averaging over omega already supplies the
    # symbol-cylinder measure
    return _sampled_series(alpha, b_filter, N_list, n_theta, seed,
                           level_table, 1.0, "montecarlo")
