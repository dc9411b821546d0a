import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discwalk import (
    AverageEntry,
    AverageSeries,
    BudgetExceeded,
    ConfigError,
    CylinderSpec,
    ESet,
    InsufficientSamples,
    MissingEntries,
    OscillationReport,
    PartitionStepFn,
    Schedule,
    ergodicity_correlation,
    exact_average,
    exact_average_series,
    exact_level_measures,
    make_desk_schedule,
    mc_triple_average,
    oscillation_report,
    ratio_check,
    reduced_average_series,
    sample_thetas,
    zero_entropy_proxy,
)
from discwalk.averages import EXACT_N_CAP, arc_from_floats, arc_measure, full_circle_arc
from discwalk.filters import QuantileFilter
from discwalk.rotation import HALF, MODULUS, AlphaSpec, FixedAngle, resolve_alpha, walk_heights

ZERO = FixedAngle(0)


class TestPartitionStepFn:
    def test_cell_count_bound_and_total_width(self, golden):
        part = PartitionStepFn(golden)
        for n in range(1, 40):
            part.step()
            assert len(part.breaks) <= 2 * n + 2
            assert part.total_width_bits() == MODULUS

    def test_phi2_exact_measures(self, golden):
        # hand partition of the circle at {0, 1/2, 1-a, 3/2-a}:
        # m(phi_2 = 0) = 2(1-a), m(phi_2 = +/-2) = a - 1/2, exactly in
        # fixed point
        levels = exact_level_measures(golden, 2)
        a = Fraction(golden.bits, MODULUS)
        assert levels[0] == 2 * (1 - a)
        assert levels[2] == a - Fraction(1, 2)
        assert levels[-2] == a - Fraction(1, 2)

    def test_phi1_measures(self, golden):
        levels = exact_level_measures(golden, 1)
        assert levels == {1: Fraction(1, 2), -1: Fraction(1, 2)}

    def test_level_measures_sum_to_one(self, golden):
        assert sum(exact_level_measures(golden, 9).values()) == 1


class TestExactAverage:
    def test_n1_zero_for_valid_e(self, golden):
        _, e = make_desk_schedule([(2, 6)])
        assert exact_average(golden, e, 1) == 0

    def test_full_e_is_half(self, golden):
        assert exact_average(golden, ESet.all_integers(), 8) == Fraction(1, 2)

    def test_budget_cap(self, golden):
        with pytest.raises(BudgetExceeded):
            exact_average(golden, ESet.empty(), EXACT_N_CAP + 1)

    def test_range_invariant(self, golden):
        _, e = make_desk_schedule([(2, 6)])
        series, fractions = exact_average_series(golden, e, [16, 64])
        for f in fractions.values():
            assert 0 <= f <= Fraction(1, 2)
        # denominator divides 2 * N * 2**128
        for N, f in fractions.items():
            assert (Fraction(2) * N * MODULUS * f).denominator == 1


class TestReducedAverage:
    def test_empty_e_exact_zero(self, golden):
        series = reduced_average_series(golden, ESet.empty(), None, [4, 16], 32, 1)
        assert series.values() == [0.0, 0.0]
        assert all(e.stderr == 0.0 for e in series.entries)

    def test_full_e_exact_half(self, golden):
        series = reduced_average_series(golden, ESet.all_integers(), None,
                                        [4, 16], 32, 1)
        assert series.values() == [0.5, 0.5]

    def test_n1_zero(self, golden):
        _, e = make_desk_schedule([(2, 6)])
        series = reduced_average_series(golden, e, None, [1], 32, 1)
        assert series.values() == [0.0]

    def test_monotone_in_e(self, golden):
        # nested interval sets give pointwise-ordered estimates at equal seed
        _, small = make_desk_schedule([(2, 3)])
        _, large = make_desk_schedule([(2, 6)])
        ns = [16, 64, 256]
        lo = reduced_average_series(golden, small, None, ns, 64, 9)
        hi = reduced_average_series(golden, large, None, ns, 64, 9)
        assert all(a <= b for a, b in zip(lo.values(), hi.values()))

    def test_small_sample_rejected(self, golden):
        with pytest.raises(ValueError):
            reduced_average_series(golden, ESet.empty(), None, [4], 8, 1)

    def test_worker_count_does_not_change_output(self, golden):
        _, e = make_desk_schedule([(2, 6)])
        one = reduced_average_series(golden, e, None, [64], 64, 3, workers=1)
        four = reduced_average_series(golden, e, None, [64], 64, 3, workers=4)
        assert one.values() == four.values()


class TestOscillationReport:
    def test_constant_zero_series(self, golden):
        schedule, e = make_desk_schedule([(3, 12)])
        series = reduced_average_series(golden, ESet.empty(), None,
                                        [16, 64, 256], 32, 1)
        assert oscillation_report(series, schedule).oscillation == 0.0

    def test_constant_half_series(self, golden):
        schedule, _ = make_desk_schedule([(3, 12)])
        series = reduced_average_series(golden, ESet.all_integers(), None,
                                        [16, 64, 256], 32, 1)
        assert oscillation_report(series, schedule).oscillation == 0.0

    def test_missing_subsequence_entry(self, golden):
        schedule, e = make_desk_schedule([(3, 12)])  # needs N = 16
        series = reduced_average_series(golden, e, None, [8, 64], 32, 1)
        with pytest.raises(MissingEntries):
            oscillation_report(series, schedule)

    def test_empty_series(self):
        schedule, _ = make_desk_schedule([(3, 12)])
        with pytest.raises(MissingEntries):
            oscillation_report(AverageSeries([]), schedule)

    def test_json_round_trip(self, golden):
        schedule, e = make_desk_schedule([(3, 12)])
        series = reduced_average_series(golden, e, None, [16, 64], 32, 1)
        report = oscillation_report(series, schedule)
        back = OscillationReport.from_json(report.to_json())
        assert back.oscillation == report.oscillation
        assert [vars(r) for r in back.rows] == [vars(r) for r in report.rows]


class TestRatioCheck:
    def test_v0_ratio_is_one(self, golden):
        table = ratio_check(golden, sample_thetas(8, 3), [0], [100, 1000])
        assert np.all(table.ratios == 1.0)

    def test_theta0_golden_n4_v1(self, golden):
        # heights (0,1,0,1): two visits each to 0 and 1
        table = ratio_check(golden, [ZERO], [1], [4])
        assert table.median(1, 4) == 1.0

    def test_median_abs_dev(self, golden):
        table = ratio_check(golden, sample_thetas(16, 3), [1], [1000])
        assert table.median_abs_dev_from_one(1, 1000) >= 0.0


class TestErgodicityCorrelation:
    def test_trivial_full_sets(self, golden):
        lhs, rhs, stderr = ergodicity_correlation(
            golden, CylinderSpec(constraints=()), CylinderSpec(constraints=()),
            full_circle_arc(), full_circle_arc(), 64, 32, seed=4)
        assert lhs == 1.0 and rhs == 1.0 and stderr == 0.0

    def test_first_two_terms_value(self, golden):
        # N=2 Cesaro over D = T x [1]_0: term n=0 is mu(D) = 1/2 and term
        # n=1 is 1/4 (phi_1 is never 0, so the coordinates are independent);
        # expectation (1/2 + 1/4)/2 = 3/8
        cyl = CylinderSpec(constraints=((0, 1),))
        lhs, _, stderr = ergodicity_correlation(
            golden, cyl, cyl, full_circle_arc(), full_circle_arc(),
            2, 4000, seed=5)
        assert abs(lhs - 0.375) <= 4 * stderr

    def test_arc_helpers(self):
        arc = arc_from_floats([(0.0, 0.25), (0.5, 0.75)])
        assert arc_measure(arc) == 0.5
        with pytest.raises(ValueError):
            arc_from_floats([(0.5, 0.25)])


class TestZeroEntropyProxy:
    def test_n1_is_one(self, golden):
        table = zero_entropy_proxy(golden, sample_thetas(8, 3), [1])
        assert table.max_at(1) == 1.0
        assert np.all(table.per_theta == 1.0)

    def test_theta0_golden_n4(self, golden):
        table = zero_entropy_proxy(golden, [ZERO], [4])
        assert table.max_at(4) == 0.5


class TestThreeRouteSmoke:
    def test_routes_agree_at_small_n(self, golden):
        # scaled-down version of the acceptance cross-check
        _, e = make_desk_schedule([(2, 6)])
        exact_series, _ = exact_average_series(golden, e, [64])
        reduced = reduced_average_series(golden, e, None, [64], 512, 11)
        mc = mc_triple_average(golden, e, [64], 512, seed=11)
        for series in (reduced, mc):
            entry = series.at(64)
            assert abs(entry.value - exact_series.at(64).value) <= 3 * entry.stderr


class TestAverageSeriesCsv:
    def test_round_trip(self):
        series = AverageSeries([
            AverageEntry(N=16, value=0.125, stderr=0.01, method="reduced",
                         n_samples=64, seed=3),
            AverageEntry(N=64, value=0.25, stderr=0.0, method="exact",
                         n_samples=0, seed=None),
        ])
        back = AverageSeries.from_csv(series.to_csv())
        assert back.entries == series.entries

    def test_header_checked(self):
        with pytest.raises(ValueError):
            AverageSeries.from_csv("bad,header\n1,2\n")

    def test_comment_lines_skipped(self):
        series = AverageSeries([AverageEntry(N=4, value=0.0, stderr=0.0,
                                             method="exact", n_samples=0)])
        text = "# provenance: test\n" + series.to_csv()
        assert AverageSeries.from_csv(text).entries == series.entries


class TestFilters:
    def test_accept_all(self, golden):
        from discwalk import AcceptAll

        mask = AcceptAll().select(sample_thetas(10, 1), golden)
        assert mask.all() and len(mask) == 10

    def test_quantile_filter_drops_worst(self, golden):
        from discwalk import QuantileFilter

        thetas = sample_thetas(40, 2)
        filt = QuantileFilter(q=0.25, horizon=1 << 10)
        mask = filt.select(thetas, golden)
        assert 0 < mask.sum() < len(thetas)
        stats = [filt.statistic(t, golden) for t in thetas]
        kept = [s for s, m in zip(stats, mask) if m]
        dropped = [s for s, m in zip(stats, mask) if not m]
        assert max(kept) <= min(dropped)


# ---------------------------------------------------------------------------
# The per-level loops that QuantileFilter.statistic and ratio_check ran before
# both moved onto walk._occupation_at_checkpoints, kept as references.


def statistic_reference(filt, theta, alpha):
    heights = walk_heights(theta.bits, alpha.bits, filt.horizon)
    times = []
    n = 16
    while n < filt.horizon:
        times.append(n)
        n *= 2
    times.append(filt.horizon)
    best = 0.0
    for n in times:
        scale = math.sqrt(math.log(n)) / n
        prefix = heights[:n]
        for v in range(-filt.v_max, filt.v_max + 1):
            best = max(best, int(np.count_nonzero(prefix == v)) * scale)
    return best


def ratio_reference(alpha, theta_samples, v_list, checkpoints):
    v_max = max(abs(v) for v in v_list) if v_list else 0
    rows = []
    for theta in theta_samples:
        heights = walk_heights(theta.bits, alpha.bits, max(checkpoints))
        out = np.empty((len(v_list), len(checkpoints)))
        clipped = np.clip(heights, -v_max - 1, v_max + 1) + (v_max + 1)
        for k, n in enumerate(checkpoints):
            counts = np.bincount(clipped[:n], minlength=2 * v_max + 3)
            zero = counts[v_max + 1]
            for j, v in enumerate(v_list):
                out[j, k] = counts[v + v_max + 1] / zero
        rows.append(out)
    return np.array(rows)


angles = st.integers(1, MODULUS - 1).map(FixedAngle)


class TestSharedOccupationCounter:
    @settings(max_examples=60, deadline=None)
    @given(angles, angles, st.integers(1, 5000), st.integers(0, 4))
    def test_quantile_statistic_matches_reference(self, theta, alpha, horizon, v_max):
        filt = QuantileFilter(q=0.5, horizon=horizon, v_max=v_max)
        assert filt.statistic(theta, alpha) == statistic_reference(filt, theta, alpha)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(angles, min_size=1, max_size=3), angles,
           st.lists(st.integers(-4, 4), min_size=1, max_size=5),
           st.sets(st.integers(1, 3000), min_size=1, max_size=4))
    def test_ratio_check_matches_reference(self, thetas, alpha, v_list, checkpoints):
        checkpoints = sorted(checkpoints)
        table = ratio_check(alpha, thetas, v_list, checkpoints)
        expected = ratio_reference(alpha, thetas, v_list, checkpoints)
        assert table.ratios.shape == expected.shape
        assert table.ratios.tobytes() == expected.tobytes()


def exact_reference(alpha, e, N_list):
    """The exact route by brute force over the finest partition.

    phi_n is constant on the cells between the sorted points
    {-k alpha, 1/2 - k alpha : k < n}, so walking each cell's left end gives
    the height of the whole cell.  Returns the level measures of phi_n at
    n = max(N_list) and the exact A_N for every N in N_list.
    """
    n = N_list[-1]
    points = sorted({(b - k * alpha.bits) % MODULUS for k in range(n) for b in (0, HALF)})
    widths = [hi - lo for lo, hi in zip(points, points[1:] + [MODULUS])]
    levels, hits = {}, dict.fromkeys(N_list, 0)
    for p, w in zip(points, widths):
        heights = walk_heights(p, alpha.bits, n + 1)
        levels[int(heights[n])] = levels.get(int(heights[n]), 0) + w
        prefix = np.cumsum([e.contains(int(h)) for h in heights[:n]])
        for N in N_list:
            hits[N] += w * int(prefix[N - 1])
    return ({v: Fraction(b, MODULUS) for v, b in levels.items()},
            {N: Fraction(hits[N], 2 * N * MODULUS) for N in N_list})


@st.composite
def desk_pairs(draw):
    pairs = [(draw(st.integers(2, 4)), draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        l, r = pairs[0]
        pairs.append((l + r + draw(st.integers(1, 3)), draw(st.integers(1, 4))))
    return pairs


class TestExactReference:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(1, 8), min_size=200, max_size=200),
           st.sets(st.integers(1, 64), min_size=1, max_size=4), desk_pairs())
    def test_exact_route_matches_brute_force(self, quotients, n_set, pairs):
        alpha = resolve_alpha(AlphaSpec(quotients=quotients, bound=max(quotients)))
        _, e = make_desk_schedule(pairs)
        N_list = sorted(n_set)
        levels, averages = exact_reference(alpha, e, N_list)
        assert exact_level_measures(alpha, N_list[-1]) == levels
        assert exact_average_series(alpha, e, N_list)[1] == averages


class TestSampleCountChecks:
    def test_empty_theta_samples(self, golden):
        with pytest.raises(InsufficientSamples):
            ratio_check(golden, [], [1], [10])
        with pytest.raises(InsufficientSamples):
            zero_entropy_proxy(golden, [], [10])

    def test_empty_v_list(self, golden):
        with pytest.raises(ConfigError):
            ratio_check(golden, [ZERO], [], [10])

    @pytest.mark.parametrize("N, n_samples, error", [
        (0, 4, ConfigError), (8, 1, InsufficientSamples), (8, 0, InsufficientSamples)])
    def test_ergodicity_inputs(self, golden, N, n_samples, error):
        cyl = CylinderSpec(constraints=())
        with pytest.raises(error):
            ergodicity_correlation(golden, cyl, cyl, full_circle_arc(), full_circle_arc(),
                                   N, n_samples, seed=1)
