import math
import sys
from concurrent.futures import ThreadPoolExecutor

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discwalk import (
    AverageEntry,
    AverageSeries,
    BadOrder,
    ESet,
    Interval,
    LogNum,
    OverlappingIntervals,
    PaperModeNotQueryable,
    Schedule,
    generate_paper_schedule,
    make_desk_schedule,
    oscillation_report,
    verify_schedule,
)

C2 = lambda v: LogNum(exact=2)  # noqa: E731


@st.composite
def interval_sets(draw):
    """ESets of sorted disjoint intervals; a gap of 0 makes two adjacent."""
    bounds, prev_hi = [], -1
    for gap, length in draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6)),
                                     max_size=6)):
        lo = prev_hi + 1 + gap
        bounds.append((lo, lo + length))
        prev_hi = lo + length
    return ESet(bounds)


class TestLogNum:
    def test_exact_round_trip(self):
        n = LogNum(exact=8886109)
        assert n.is_exact and n.to_int() == 8886109

    def test_exact_threshold(self):
        big = LogNum(exact=1 << 64)
        assert not big.is_exact
        assert big.to_float() == pytest.approx(2.0**64, rel=1e-12)

    def test_comparisons_across_representations(self):
        assert LogNum(exact=5) < LogNum(x=5.5)
        assert LogNum(x=5.5) < LogNum(exact=6)
        assert LogNum(exact=5) == 5
        assert LogNum(depth=2, x=92.5) > LogNum(depth=1, x=92.5)

    def test_log_exp_inverse_at_depth_zero(self):
        v = LogNum(x=17.25)
        assert abs(v.exp().log().to_float() - 17.25) < 1e-12 * 17.25

    def test_tower_arithmetic_relative_error(self):
        # products and squares at depth 0 stay within 1e-12 relative error
        a = LogNum(x=1234.5)
        b = LogNum(x=0.125)
        assert a.mul(b).to_float() == pytest.approx(1234.5 * 0.125, rel=1e-12)
        assert a.square().to_float() == pytest.approx(1234.5**2, rel=1e-12)
        assert a.add(b).to_float() == pytest.approx(1234.625, rel=1e-12)
        assert a.sub(b).to_float() == pytest.approx(1234.375, rel=1e-12)
        assert a.sqrt().to_float() == pytest.approx(math.sqrt(1234.5), rel=1e-12)

    def test_small_factor_absorbed_at_tower_depth(self):
        tower = LogNum(depth=3, x=100.0)
        assert tower.mul(LogNum(x=0.5)) == tower
        assert tower.add(LogNum(exact=7)) == tower

    def test_positive_only(self):
        with pytest.raises(ValueError):
            LogNum(exact=0)
        with pytest.raises(ValueError):
            LogNum(x=-1.0)

    def test_bump_is_strictly_monotone(self):
        for v in (LogNum(exact=41), LogNum(x=1e20), LogNum(depth=2, x=95.0)):
            assert v.bumped_down() < v < v.bumped_up()

    @given(st.integers(1, (1 << 63) - 2))
    def test_exact_bump_steps_by_one(self, n):
        assert LogNum(exact=n).bumped_up() == LogNum(exact=n + 1)

    def test_serialize_round_trip_exact(self):
        for v in (LogNum(exact=2), LogNum(exact=(1 << 63) - 1)):
            assert LogNum.parse(v.serialize()) == v

    def test_serialize_round_trip_tower(self):
        v = LogNum(depth=3, x=mpmath.mpf("123.456789012345678901234567890123"))
        w = LogNum.parse(v.serialize())
        assert w.depth == v.depth and w.x == v.x

    def test_div_float_saturates_at_depth(self):
        a, b = LogNum(depth=2, x=100.0), LogNum(depth=2, x=101.0)
        assert a.div_float(b) == 0.0
        assert b.div_float(a) == float("inf")
        assert a.div_float(a) == 1.0


class TestESet:
    def test_two_interval_lookup(self):
        _, e = make_desk_schedule([(2, 3), (10, 10)])  # +/-[2,5] U +/-[10,20]
        assert e.contains(3) and e.contains(-4) and not e.contains(7)
        assert e.contains(10) and e.contains(20) and not e.contains(21)

    def test_zero_and_one_excluded(self):
        _, e = make_desk_schedule([(2, 3), (10, 10)])
        assert not e.contains(0) and not e.contains(1) and not e.contains(-1)

    @given(st.integers(-10**6, 10**6))
    def test_symmetry(self, v):
        _, e = make_desk_schedule([(2, 6), (30, 300)])
        assert e.contains(v) == e.contains(-v)

    def test_empty(self):
        e = ESet.empty()
        assert not e.contains(0) and not e.contains(5)

    def test_lut_matches_contains(self):
        _, e = make_desk_schedule([(2, 6), (30, 300)])
        lut = e.lut(-40, 40)
        assert all(lut[v + 40] == e.contains(v) for v in range(-40, 41))

    def test_lut_band_grows_and_is_read_only(self):
        e = ESet([(2, 4), (7, 40)])
        # the cached band starts at radius 32 and doubles: 64, 128, then 1000
        for lo, hi in [(-3, 5), (-30, 10), (-5, 60), (-100, 3), (-2, 1000), (-3, 5)]:
            brute = [any(a <= abs(v) <= b for a, b in e.bounds) for v in range(lo, hi + 1)]
            assert e.lut(lo, hi).tolist() == brute
        with pytest.raises(ValueError):
            e.lut(-3, 3)[0] = True

    def test_lut_growing_under_threads(self):
        e = ESet([(2, 4), (7, 40), (300, 900)])

        def check(radius):
            brute = [any(a <= abs(v) <= b for a, b in e.bounds)
                     for v in range(-radius, radius + 1)]
            return e.lut(-radius, radius).tolist() == brute

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(pool.map(check, [r for r in range(1, 2000, 37)] * 2,
                                        timeout=60))
        finally:
            sys.setswitchinterval(interval)
        assert all(results)

    @settings(max_examples=60, deadline=None)
    @given(interval_sets(), st.integers(-50, 50), st.integers(0, 60))
    @example(ESet.empty(), -5, 10)
    @example(ESet.all_integers(), -5, 10)
    @example(ESet.all_integers(), (1 << 62) - 3, 6)
    @example(ESet([(2, 4), (5, 5), (6, 9)]), -12, 24)
    def test_lut_and_contains_match_brute_force(self, e, lo, width):
        band = range(lo, lo + width + 1)
        brute = [any(a <= abs(v) <= b for a, b in e.bounds) for v in band]
        assert e.lut(band[0], band[-1]).tolist() == [e.contains(v) for v in band] == brute

    def test_paper_mode_not_queryable(self):
        schedule = generate_paper_schedule(C2, 2)
        with pytest.raises(PaperModeNotQueryable):
            ESet.from_schedule(schedule)


class TestMakeDeskSchedule:
    def test_valid_two_intervals(self):
        schedule, e = make_desk_schedule([(2, 6), (30, 300)])
        assert schedule.mode == "desk"
        assert e.bounds == [(2, 8), (30, 330)]

    def test_overlap_rejected(self):
        with pytest.raises(OverlappingIntervals):
            make_desk_schedule([(2, 6), (7, 10)])

    def test_low_start_rejected(self):
        with pytest.raises(BadOrder):
            make_desk_schedule([(1, 5)])

    def test_zero_length_rejected(self):
        with pytest.raises(BadOrder):
            make_desk_schedule([(2, 0)])

    def test_subsequence_times(self):
        # l_1 + r_1 + 1 = 16, l_2 = 40 and l_2 + r_2 + 1 = 141; a one-entry
        # series below them all leaves every value unread
        schedule, _ = make_desk_schedule([(3, 12), (40, 100)])
        series = AverageSeries([AverageEntry(N=1, value=0.0, stderr=0.0,
                                             method="exact", n_samples=0)])
        rows = oscillation_report(series, schedule).rows
        assert [(row.N_high, row.N_low) for row in rows] == [(16, 40), (141, None)]


class TestVerifySchedule:
    def test_condition_a_fails_for_l1_one(self):
        schedule = Schedule(mode="desk",
                            intervals=[Interval(LogNum(exact=1), LogNum(exact=5))])
        report = verify_schedule(schedule, C2)
        assert not report.a_ok and not report.passed

    def test_generated_passes(self):
        schedule = generate_paper_schedule(C2, 10)
        report = verify_schedule(schedule, C2)
        assert report.passed

    def test_r_equal_l_fails_condition_b(self):
        schedule = generate_paper_schedule(C2, 2)
        schedule.intervals[0] = Interval(schedule.intervals[0].l,
                                         schedule.intervals[0].l)
        assert not verify_schedule(schedule, C2).passed

    def test_desk_scale_fails_growth_conditions(self):
        # desk intervals cannot satisfy the growth inequalities; the report
        # must say so rather than flatter them
        schedule, _ = make_desk_schedule([(2, 6), (30, 300)])
        assert not verify_schedule(schedule, C2).passed

    def test_rearrangement_matches_float_evaluation(self):
        # where everything is desk-size, the LogNum verdicts agree with a
        # direct float evaluation of the original inequality forms
        schedule = Schedule(mode="desk", intervals=[
            Interval(LogNum(exact=2), LogNum(exact=12296985)),
            Interval(LogNum(exact=12296990), LogNum(exact=12296993)),
        ])
        report = verify_schedule(schedule, C2)
        row = report.rows[0]
        lhs = 2 * 2 / math.sqrt(math.log(2 + 12296985))
        assert row.b_ok == (lhs < 1.0)
        assert row.b_lhs == pytest.approx(lhs, rel=1e-9)
        lhs_c = 2 * (2 + 12296985 + 1) / math.sqrt(math.log(12296990))
        assert row.c_ok == (lhs_c < 1.0)
        assert row.c_lhs == pytest.approx(lhs_c, rel=1e-9)


class TestGeneratePaperSchedule:
    def test_m1_boundary_independent_oracle(self):
        # condition (b) at m=1, C==2, l1=2 forces log(l1+r1) > 16;
        # least such integer from an independent high-precision exponential
        with mpmath.workdps(40):
            expected_hi = int(mpmath.floor(mpmath.exp(16))) + 1
        schedule = generate_paper_schedule(C2, 1, margin=1.0)
        iv = schedule.intervals[0]
        assert iv.l.to_int() == 2
        assert iv.r.to_int() == expected_hi - 2 == 8886109

    def test_m0_empty(self):
        schedule = generate_paper_schedule(C2, 0)
        assert schedule.intervals == []
        assert verify_schedule(schedule, C2).passed

    def test_monotone_growth(self):
        schedule = generate_paper_schedule(C2, 6)
        ivs = schedule.intervals
        for m in range(len(ivs) - 1):
            assert ivs[m + 1].l > ivs[m].hi
            assert ivs[m].r > ivs[m].l

    def test_bad_margin_rejected(self):
        with pytest.raises(ValueError):
            generate_paper_schedule(C2, 2, margin=0.0)
        with pytest.raises(ValueError):
            generate_paper_schedule(C2, 2, margin=1.5)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=10, max_size=10),
           st.floats(1.1, 10.0))
    def test_random_nondecreasing_bound_passes(self, increments, c2):
        # any nondecreasing bound function with C(2) in [1.1, 10] yields a
        # schedule the independent verifier accepts, for m <= 10
        levels = [c2]
        for inc in increments:
            levels.append(levels[-1] + inc)
        thresholds = [LogNum(exact=2)]
        for _ in range(len(levels) - 2):
            thresholds.append(thresholds[-1].square())

        def c_of(v):
            for lev, th in zip(levels, thresholds):
                if v <= th:
                    return LogNum(x=lev)
            return LogNum(x=levels[-1])

        schedule = generate_paper_schedule(c_of, 10)
        assert verify_schedule(schedule, c_of).passed


class TestScheduleSerialization:
    def test_desk_round_trip(self):
        schedule, _ = make_desk_schedule([(3, 12), (40, 100)])
        back = Schedule.parse(schedule.serialize())
        assert back.mode == "desk"
        assert [(iv.l, iv.r) for iv in back.intervals] == [
            (iv.l, iv.r) for iv in schedule.intervals]

    def test_paper_round_trip(self):
        schedule = generate_paper_schedule(C2, 5)
        back = Schedule.parse(schedule.serialize())
        for a, b in zip(schedule.intervals, back.intervals):
            assert a.l == b.l and a.r == b.r
        assert verify_schedule(back, C2).passed

    def test_unknown_schema_rejected(self):
        with pytest.raises(BadOrder):
            Schedule.parse("schema: discwalk-schedule-v9\nmode: desk\n")
