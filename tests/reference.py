"""Test-only references: literal forms of quantities the package computes
by shorter routes, kept beside the tests that check the two agree."""

import numpy as np

from discwalk import ESet, FixedAngle, SymbolWindow, SymbolicPoint, apply_S, apply_T
from discwalk.rotation import walk_heights
from discwalk.walk import CellTable


def cells(table: CellTable, hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """CellTable.cells as a sort and a binary search over the table's
    beginnings: the cell of each point (hi, lo), the last beginning at or
    below it, in lexicographic order.  The first beginning is 0, so every
    point has one.  The points are searched in sorted order, which takes a
    fraction of the time of searching them as they come."""
    order = np.argsort(hi)
    right = np.empty(len(hi), dtype=np.intp)
    right[order] = np.searchsorted(table.hi, hi[order], "right")
    cell = right - 1
    # where the point's top word equals a beginning's, compare low words
    for i in np.flatnonzero(table.hi[cell] == hi):
        left = int(np.searchsorted(table.hi, hi[i], "left"))
        cell[i] = left + int(np.searchsorted(table.lo[left:right[i]], lo[i], "right")) - 1
    return cell


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
