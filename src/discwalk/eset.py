"""The symmetric interval set E and its growth schedule.

A schedule is the list of intervals [l_m, l_m + r_m]; E is their symmetric
closure union.  Desk-mode schedules hold small exact integers and compile to
a queryable membership structure.  Paper-mode schedules satisfy the growth
conditions literally, which forces boundaries past any materializable
integer (l_2 is already e^(10^14)-sized and later boundaries are exponential
towers), so they are carried in iterated-log arithmetic and support only the
condition checks, not pointwise membership.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BadOrder, ConfigError, OverlappingIntervals, PaperModeNotQueryable


class _Mpmath:
    """Stands in for the module's mpmath context ``_mp`` until its first
    use, which imports mpmath and puts the context in its place: a desk
    schedule's exact integers never need mpmath, whose import takes about
    30 ms and 4 MB.  The context has 50 digits, so results do not depend on
    the global mpmath precision, and carries the canonical component range
    [lift_ln, lift) of lifted representations and the relative nudge
    ``bump`` of bumped_up and bumped_down."""

    _lock = threading.Lock()

    def __getattr__(self, name):
        global _mp
        with self._lock:
            if _mp is self:
                import mpmath

                ctx = mpmath.MPContext()
                ctx.dps = 50
                ctx.lift, ctx.lift_ln, ctx.bump = ctx.exp(92), ctx.mpf(92), ctx.mpf("1e-13")
                _mp = ctx
        return getattr(_mp, name)


_mp = _Mpmath()
_EXACT_LIMIT = 1 << 63


@functools.total_ordering
class LogNum:
    """A positive number, exact when small, else exp-tower of an mpf.

    value = exp applied ``depth`` times to ``x``.  Integers below 2**63
    round-trip exactly.  Components carry ~50 significant digits; additions
    whose smaller term falls below that resolution are absorbed, which is the
    only meaningful semantics once values are towers.
    """

    __slots__ = ("exact", "depth", "x")

    def __init__(self, exact: Optional[int] = None, depth: int = 0, x=None):
        if exact is not None:
            if exact <= 0:
                raise ValueError("LogNum is positive")
            if exact < _EXACT_LIMIT:
                self.exact, self.depth, self.x = exact, 0, None
                return
            depth, x = 0, _mp.mpf(exact)
        self.exact = None
        x = _mp.mpf(x)
        if x <= 0:
            raise ValueError("LogNum is positive")
        # normalize: keep the top component inside the canonical band
        while x >= _mp.lift:
            x = _mp.log(x)
            depth += 1
        while depth > 0 and x < _mp.lift_ln:
            x = _mp.exp(x)
            depth -= 1
        self.depth = depth
        self.x = x

    # -- constructors -------------------------------------------------------
    @classmethod
    def coerce(cls, v: "LogNumLike") -> "LogNum":
        if isinstance(v, LogNum):
            return v
        if isinstance(v, int):
            return cls(exact=v)
        return cls(x=_mp.mpf(v))

    # -- views --------------------------------------------------------------
    def _mpf(self):
        """Depth-0 mpf view; only valid when depth == 0."""
        if self.exact is not None:
            return _mp.mpf(self.exact)
        if self.depth != 0:
            raise OverflowError("value too large for a single float component")
        return self.x

    def to_float(self) -> float:
        try:
            return float(self._mpf())
        except OverflowError:
            return float("inf")

    def to_int(self) -> int:
        if self.exact is None:
            raise OverflowError("not an exact integer")
        return self.exact

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    # -- comparisons --------------------------------------------------------
    def _key(self):
        if self.exact is not None:
            return (0, _mp.mpf(self.exact))
        return (self.depth, self.x)

    def __lt__(self, other):
        a, b = self._key(), LogNum.coerce(other)._key()
        return a[0] < b[0] or (a[0] == b[0] and a[1] < b[1])

    def __eq__(self, other):
        return self._key() == LogNum.coerce(other)._key()

    def __hash__(self):
        return hash(self._key()[1]) ^ self.depth

    # -- arithmetic ---------------------------------------------------------
    def log(self) -> "LogNum":
        if self.depth > 0:
            return LogNum(depth=self.depth - 1, x=self.x)
        v = self._mpf()
        if v <= 1:
            raise ValueError("log of a LogNum <= 1")
        return LogNum(x=_mp.log(v))

    def exp(self) -> "LogNum":
        if self.depth > 0 or (self.exact is None and self.x >= _mp.lift_ln):
            return LogNum(depth=self.depth + 1, x=self.x)
        return LogNum(x=_mp.exp(self._mpf()))

    def mul(self, other: "LogNumLike") -> "LogNum":
        other = LogNum.coerce(other)
        if self.exact is not None and other.exact is not None:
            p = self.exact * other.exact
            return LogNum(exact=p) if p < _EXACT_LIMIT else LogNum(x=p)
        if self.depth == 0 and other.depth == 0:
            return LogNum(x=self._mpf() * other._mpf())
        a, b = (self, other) if self.depth >= other.depth else (other, self)
        la = a.log()
        if b.depth == 0:
            if la.depth == 0:
                return LogNum(x=la._mpf() + _mp.log(b._mpf())).exp()
            return a  # the factor is far below the tower's component resolution
        return la.add(b.log()).exp()

    def add(self, other: "LogNumLike") -> "LogNum":
        other = LogNum.coerce(other)
        if self.exact is not None and other.exact is not None:
            return LogNum(exact=self.exact + other.exact)
        if self.depth == 0 and other.depth == 0:
            return LogNum(x=self._mpf() + other._mpf())
        # tower regime: the smaller term is far below component resolution
        return self if self >= other else other

    def sub(self, other: "LogNumLike") -> "LogNum":
        other = LogNum.coerce(other)
        if not other < self:
            raise ValueError("LogNum subtraction would be nonpositive")
        if self.exact is not None and other.exact is not None:
            return LogNum(exact=self.exact - other.exact)
        if self.depth == 0 and other.depth == 0:
            return LogNum(x=self._mpf() - other._mpf())
        return self  # absorbed, as in add

    def sqrt(self) -> "LogNum":
        if self.exact is not None or self.depth == 0:
            return LogNum(x=_mp.sqrt(self._mpf()))
        if self.depth == 1:
            return LogNum(depth=1, x=self.x / 2)
        # depth >= 2: halving shifts the next component by log 2, absorbed
        return self

    def square(self) -> "LogNum":
        return self.mul(self)

    def div_float(self, other: "LogNumLike") -> float:
        """self / other as a float for margin reporting; saturates when the
        operands live at tower depth."""
        other = LogNum.coerce(other)
        try:
            return float(self._mpf() / other._mpf())
        except OverflowError:
            if self < other:
                return 0.0
            if other < self:
                return float("inf")
            return 1.0

    def bumped_up(self) -> "LogNum":
        """Least value strictly above, at the carried resolution.

        Exact integers step by one; otherwise the top component is nudged by
        one part in 10**13, which is the quantum the condition verifier can
        still resolve at any tower depth.
        """
        if self.exact is not None:
            return LogNum(exact=self.exact + 1)
        return LogNum(depth=self.depth, x=self.x * (1 + _mp.bump))

    def bumped_down(self) -> "LogNum":
        if self.exact is not None:
            return LogNum(exact=self.exact - 1)
        return LogNum(depth=self.depth, x=self.x * (1 - _mp.bump))

    # -- serialization ------------------------------------------------------
    def serialize(self) -> str:
        if self.exact is not None:
            return str(self.exact)
        sign, man, exp, _ = self.x._mpf_
        man = -man if sign else man
        return f"log:{self.depth}:{man}:{exp}"

    @classmethod
    def parse(cls, s: str) -> "LogNum":
        if s.startswith("log:"):
            _, depth, man, exp = s.split(":")
            if int(depth) < 0:
                raise ValueError(f"negative tower depth in {s!r}")
            return cls(depth=int(depth), x=_mp.ldexp(_mp.mpf(int(man)), int(exp)))
        return cls(exact=int(s))

    def __repr__(self):
        if self.exact is not None:
            return f"LogNum({self.exact})"
        return f"LogNum(depth={self.depth}, x={_mp.nstr(self.x, 12)})"


LogNumLike = Union[int, float, LogNum]
CBound = Callable[[LogNum], LogNumLike]


@dataclass(frozen=True)
class Interval:
    """One schedule entry: the integer interval [l, l+r] (and its mirror)."""

    l: LogNum
    r: LogNum

    @property
    def hi(self) -> LogNum:
        return self.l.add(self.r)


@dataclass
class ConditionRow:
    m: int
    b_struct_ok: bool
    b_lhs: float
    b_rhs: float
    b_ratio: float
    b_ok: bool
    c_struct_ok: Optional[bool] = None
    c_lhs: Optional[float] = None
    c_rhs: Optional[float] = None
    c_ratio: Optional[float] = None
    c_ok: Optional[bool] = None


@dataclass
class ConditionReport:
    a_ok: bool
    rows: List[ConditionRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        if not self.a_ok:
            return False
        for row in self.rows:
            if not (row.b_struct_ok and row.b_ok):
                return False
            if row.c_ok is not None and not (row.c_struct_ok and row.c_ok):
                return False
        return True

    @property
    def max_ratio(self) -> float:
        out = 0.0
        for row in self.rows:
            out = max(out, row.b_ratio)
            if row.c_ratio is not None:
                out = max(out, row.c_ratio)
        return out


@dataclass
class Schedule:
    mode: str  # "desk" | "paper"
    intervals: List[Interval]

    def serialize(self) -> str:
        lines = ["schema: discwalk-schedule-v1", f"mode: {self.mode}"]
        for m, iv in enumerate(self.intervals, start=1):
            lines.append(f"l[{m}]: {iv.l.serialize()}")
            lines.append(f"r[{m}]: {iv.r.serialize()}")
        return "\n".join(lines) + "\n"

    @classmethod
    def parse(cls, text: str) -> "Schedule":
        fields = {}
        for line in text.splitlines():
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
        if fields.get("schema") != "discwalk-schedule-v1":
            raise BadOrder(f"unknown schedule schema: {fields.get('schema')!r}")
        mode = fields.get("mode")
        if mode not in ("desk", "paper"):
            raise BadOrder(f"schedule mode must be desk or paper, not {mode!r}")
        intervals = []
        m = 1
        while f"l[{m}]" in fields:
            if f"r[{m}]" not in fields:
                raise BadOrder(f"schedule entry l[{m}] has no r[{m}]")
            try:
                intervals.append(Interval(LogNum.parse(fields[f"l[{m}]"]),
                                          LogNum.parse(fields[f"r[{m}]"])))
            except ValueError as e:
                raise BadOrder(f"bad schedule entry {m}: {e}")
            m += 1
        if mode == "desk":
            if not all(iv.l.is_exact and iv.r.is_exact for iv in intervals):
                raise BadOrder("desk schedule entries must be exact integers")
            _check_desk_pairs([(iv.l.to_int(), iv.r.to_int()) for iv in intervals])
        return cls(mode=mode, intervals=intervals)


_LUT_RADIUS_CAP = 1 << 20


class ESet:
    """Compiled symmetric interval set: fast pointwise membership on |v|.

    The intervals are kept as one sorted edge array [lo_1, hi_1 + 1, lo_2,
    hi_2 + 1, ...]; |v| is in E iff an odd number of edges lie at or below it.
    ``lut`` and ``signs`` slice two read-only bands over [-R, R], membership
    and its +/-1 form, which double (up to R = 2**20) when a wider band is
    asked for; the new pair replaces the old in one assignment, so a thread
    reading the old pair still sees whole bands.  A band reaching past 2**20
    is computed on its own.
    """

    def __init__(self, bounds: Sequence[Tuple[int, int]]):
        # bounds: sorted disjoint (lo, hi) inclusive pairs on the positive axis
        self.bounds = list(bounds)
        self._edges = np.array([x for lo, hi in self.bounds for x in (lo, hi + 1)],
                               dtype=np.int64)
        self._bands = _with_signs(np.zeros(0, dtype=bool))  # R = -1: built on first use

    @classmethod
    def from_schedule(cls, schedule: Schedule) -> "ESet":
        if schedule.mode != "desk":
            raise PaperModeNotQueryable(
                "paper-mode schedules hold log-space boundaries; "
                "pointwise membership is desk-mode only")
        return cls([(iv.l.to_int(), iv.hi.to_int()) for iv in schedule.intervals])

    @classmethod
    def empty(cls) -> "ESet":
        return cls([])

    @classmethod
    def all_integers(cls) -> "ESet":
        # stands in for E = Z in the degenerate checks
        return cls([(0, 1 << 62)])

    def contains(self, v: int) -> bool:
        return bool(self._edges.searchsorted(abs(v), "right") % 2)

    def _membership(self, v: np.ndarray) -> np.ndarray:
        return self._edges.searchsorted(np.abs(v), "right") % 2 == 1

    def lut(self, lo: int, hi: int) -> np.ndarray:
        """Membership table over the height band [lo, hi], for vectorized use."""
        return self._band(lo, hi, 0)

    def signs(self, lo: int, hi: int) -> np.ndarray:
        """int8 +1 where v is in E and -1 elsewhere, over [lo, hi]: the flip
        outside E as a factor."""
        return self._band(lo, hi, 1)

    def _band(self, lo: int, hi: int, k: int) -> np.ndarray:
        bands = self._bands
        radius = (len(bands[0]) - 1) // 2
        need = max(-lo, hi)
        if need > radius:
            if need > _LUT_RADIUS_CAP:
                return _with_signs(self._membership(np.arange(lo, hi + 1)))[k]
            radius = min(max(need, 2 * radius, 32), _LUT_RADIUS_CAP)
            bands = _with_signs(self._membership(np.arange(-radius, radius + 1)))
            for band in bands:
                band.flags.writeable = False
            self._bands = bands
        return bands[k][lo + radius:hi + radius + 1]

    def __repr__(self):
        return f"ESet({self.bounds})"


def _with_signs(member: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    signs = member.astype(np.int8)
    signs *= 2
    signs -= 1
    return member, signs


def verify_schedule(schedule: Schedule, c_of: CBound) -> ConditionReport:
    """Check the growth conditions and report margins.

    Per entry m: (a) l_1 > 1; (b) r_m > l_m and
    C(l_m) * l_m / sqrt(log(l_m + r_m)) < 1/m; (c) l_{m+1} > l_m + r_m and
    C(l_m + r_m) * (l_m + r_m + 1) / sqrt(log l_{m+1}) < 1/m.
    Margins (lhs, rhs, ratio) are reported as floats and saturate at tower
    depth where only the comparison itself is resolvable.
    """
    ivs = schedule.intervals
    report = ConditionReport(a_ok=(not ivs) or ivs[0].l > 1)
    for m1, iv in enumerate(ivs):
        m = m1 + 1
        rhs = LogNum(x=_mp.mpf(1) / m)
        hi = iv.hi
        row = ConditionRow(m, iv.r > iv.l, *_margin(
            LogNum.coerce(c_of(iv.l)).mul(iv.l), hi.log().sqrt(), rhs))
        if m1 + 1 < len(ivs):
            l_next = ivs[m1 + 1].l
            row.c_struct_ok = l_next > hi
            row.c_lhs, row.c_rhs, row.c_ratio, row.c_ok = _margin(
                LogNum.coerce(c_of(hi)).mul(hi.add(1)), l_next.log().sqrt(), rhs)
        report.rows.append(row)
    return report


def _margin(lhs: LogNum, den: LogNum, rhs: LogNum) -> Tuple[float, float, float, bool]:
    """The condition lhs / den < rhs as (lhs / den, rhs, ratio to the bound,
    whether it holds); the floats saturate at tower depth."""
    bound = den.mul(rhs)
    return lhs.div_float(den), rhs.to_float(), lhs.div_float(bound), lhs < bound


def generate_paper_schedule(
    c_of: CBound, m_max: int, margin: float = 1.0
) -> Schedule:
    """Greedy-minimal schedule meeting the growth conditions.

    Each boundary is the least value (at the carried resolution) satisfying
    its rearranged condition: log(l_m + r_m) must exceed (m*C(l_m)*l_m /
    margin)**2 and log(l_{m+1}) must exceed (m*C(l_m+r_m)*(l_m+r_m+1) /
    margin)**2.  ``margin`` < 1 builds in verifiable headroom on the
    condition ratio.
    """
    if not 0 < margin <= 1:
        raise ConfigError("margin must be in (0, 1]")
    intervals: List[Interval] = []
    l = LogNum(exact=2)
    inv_margin = LogNum(x=_mp.mpf(1) / margin)
    for m in range(1, m_max + 1):
        c_l = LogNum.coerce(c_of(l))
        target = c_l.mul(l).mul(m).mul(inv_margin).square()
        hi = _least_with_log_above(target)
        floor_hi = l.mul(2).bumped_up()  # r > l means l + r >= 2l + 1
        if hi < floor_hi:
            hi = floor_hi
        intervals.append(Interval(l=l, r=hi.sub(l)))
        c_hi = LogNum.coerce(c_of(hi))
        target = c_hi.mul(hi.add(1)).mul(m).mul(inv_margin).square()
        l = _least_with_log_above(target)
        if not l > hi:
            l = hi.bumped_up()
    return Schedule(mode="paper", intervals=intervals)


def _least_with_log_above(t: LogNum) -> LogNum:
    """Least value v (at carried resolution) with log v strictly above t."""
    if t.depth == 0 and t._mpf() < 43:  # e**43 < 2**63: exact integer regime
        v = int(_mp.floor(_mp.exp(t._mpf()))) + 1
        while _mp.log(v) <= t._mpf():
            v += 1
        return LogNum(exact=v)
    return t.bumped_up().exp()


def _check_desk_pairs(pairs: Sequence[Tuple[int, int]]) -> None:
    """The desk rules, for built and parsed schedules alike: l >= 2, r >= 1,
    l + r + 1 < 2**63 (ESet's int64 edge past the interval), intervals
    ascending and disjoint."""
    prev_hi = None
    for l, r in pairs:
        if l < 2:
            raise BadOrder(f"interval lower bound {l} must be >= 2")
        if r < 1:
            raise BadOrder(f"interval length {r} must be >= 1")
        if l + r + 1 >= 1 << 63:
            raise ConfigError(f"interval [{l}, {l + r}] must end below 2**63 - 1")
        if prev_hi is not None and l <= prev_hi:
            raise OverlappingIntervals(
                f"interval [{l}, {l + r}] must start strictly after {prev_hi}")
        prev_hi = l + r


def make_desk_schedule(pairs: Sequence[Tuple[int, int]]) -> Tuple[Schedule, ESet]:
    """Build a desk-scale schedule and its compiled membership set.

    Desk schedules do not (and cannot) satisfy the growth conditions; the
    CLI's ``schedule --c-const`` runs the verifier on them to record the
    shortfall.
    """
    _check_desk_pairs(pairs)
    schedule = Schedule(
        mode="desk",
        intervals=[Interval(LogNum(exact=l), LogNum(exact=r)) for l, r in pairs],
    )
    return schedule, ESet.from_schedule(schedule)
