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

from . import _pcg
from .errors import ConfigError, WindowExceeded, allocating
from .eset import ESet
from .rotation import FixedAngle, advance, phi
from .series import AverageSeries, _sampled_series


class SymbolWindow:
    """Finite view of a +/-1 sequence on coordinates [-W, W], shift-aware.

    ``values[i]`` is the symbol at original coordinate i - W.  After shifting
    by k (offset == k), reading coordinate s returns the original coordinate
    s + k; the data never moves.  A plain slotted class: an orbit of T or S
    builds one window per step.
    """

    __slots__ = ("values", "offset")

    def __init__(self, values: np.ndarray, offset: int = 0):
        self.values = values  # int8, length 2W+1
        self.offset = offset

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
        return SymbolWindow(self.values, self.offset + k)

    def __eq__(self, other):
        # offsets first, then the symbols: as bytes where both are int8
        if not isinstance(other, SymbolWindow) or self.offset != other.offset:
            return False
        a, b = self.values, other.values
        if a.dtype == b.dtype == np.int8:
            return a.shape == b.shape and a.tobytes() == b.tobytes()
        return np.array_equal(a, b)

    def __repr__(self):
        return f"SymbolWindow(values={self.values!r}, offset={self.offset!r})"


class SymbolicPoint:
    """A point (theta, omega) of circle x shift space; a plain slotted class."""

    __slots__ = ("theta", "window")

    def __init__(self, theta: FixedAngle, window: SymbolWindow):
        self.theta = theta
        self.window = window

    def __eq__(self, other):
        return (isinstance(other, SymbolicPoint) and self.theta == other.theta
                and self.window == other.window)

    def __repr__(self):
        return f"SymbolicPoint(theta={self.theta!r}, window={self.window!r})"


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


def omega_windows(seed: int, tag: int, idx: Sequence[int], radius: int,
                  band: Optional[Sequence[int]] = None) -> np.ndarray:
    """Row t: the symbols at coordinates band[0] .. band[1] (all of -radius
    .. radius by default) of the window sample_omega(radius, ...) draws from
    spawn key (tag, idx[t]), for 0 <= idx[t] < 2**32.

    The draw is numpy's, reproduced in integer array ops over the rows
    (discwalk._pcg): the spawned SeedSequence seeds PCG64, whose XSL-RR
    outputs give the little-endian byte stream that integers(0, 2, int8)
    reads; Lemire's method never rejects at range 2 and makes bit 7 of byte
    j symbol j.  Each stream jumps straight to the first output the band
    reads (Brown 1994), so a row costs O(band).  Rows go _pcg.BLOCK at a
    time, which bounds the word arrays, so that one call serves any number
    of rows.
    """
    lo, hi = band or (-radius, radius)
    keys = np.asarray(idx)
    bad = (keys < 0) | (keys >= 1 << 32)
    if bad.any():
        raise ConfigError(f"spawn index {keys[bad][0]} outside 0 .. 2**32 - 1")
    first, last = lo + radius, hi + radius  # byte positions in each stream
    skip = first // 8
    with allocating(f"{len(keys)} windows of {hi - lo + 1} symbols", hi - lo + 1):
        symbols = np.empty((len(keys), hi - lo + 1), dtype=np.uint8)
    for r0 in range(0, len(keys), _pcg.BLOCK):
        rows = keys[r0:r0 + _pcg.BLOCK].astype(np.uint64)
        outputs = _pcg.spawned(_pcg.entropy(seed, (tag, rows)), skip,
                               max(last // 8 - skip + 1, 0))
        stream = outputs.view(np.uint8)[:, first - 8 * skip:last - 8 * skip + 1]
        np.right_shift(stream, 7, out=symbols[r0:r0 + _pcg.BLOCK])
    symbols <<= 1
    symbols -= 1
    return symbols.view(np.int8)


def _step(theta: FixedAngle, w: SymbolWindow) -> SymbolWindow:
    """The window T moves w to from theta: shifted by phi(theta)."""
    offset = w.offset + phi(theta)
    if abs(offset) > w.radius:
        raise WindowExceeded(
            f"shift to offset {offset} leaves window radius {w.radius}", height=offset)
    return SymbolWindow(w.values, offset)


def apply_T(p: SymbolicPoint, alpha: FixedAngle) -> SymbolicPoint:
    return SymbolicPoint(advance(p.theta, alpha, 1), _step(p.theta, p.window))


def apply_pi_E(w: SymbolWindow, e: ESet) -> SymbolWindow:
    """Flip every in-window symbol whose current coordinate is outside E."""
    W = w.radius
    return SymbolWindow(w.values * e.signs(-W - w.offset, W - w.offset), w.offset)


def apply_S(p: SymbolicPoint, alpha: FixedAngle, e: ESet) -> SymbolicPoint:
    # the flip is an involution, so it is its own inverse
    moved = _step(p.theta, apply_pi_E(p.window, e))
    return SymbolicPoint(advance(p.theta, alpha, 1), apply_pi_E(moved, e))


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
        # the table takes the omega symbols' bytes: one byte per theta and level
        omega = omega_windows(seed, 1, idx, W, (a, b))
        table = np.equal(omega, 1, out=omega.view(np.bool_))
        table &= in_e
        return table

    # no 1/2 prefactor here: averaging over omega already supplies the
    # symbol-cylinder measure
    return _sampled_series(alpha, b_filter, N_list, n_theta, seed,
                           level_table, 1.0, "montecarlo")
