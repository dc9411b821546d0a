import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import theta_points, theta_words

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
from discwalk import series as series_module
from discwalk import walk as walk_module
from discwalk.averages import EXACT_N_CAP
from discwalk.filters import QuantileFilter
from discwalk.rotation import HALF, MODULUS, AlphaSpec, FixedAngle, resolve_alpha, walk_heights
from discwalk.symbolic import default_window_radius, sample_omega

ZERO = FixedAngle(0)


def small_chunks():
    """Read a few thetas a chunk off the cell table, so that calls on a
    handful of thetas still cross chunk boundaries."""
    return mock.patch.object(walk_module, "_CHUNK_ENTRIES", 1 << 6)


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
        assert exact_average_series(golden, e, [1])[1][1] == 0

    def test_full_e_is_half(self, golden):
        assert exact_average_series(golden, ESet.all_integers(), [8])[1][8] == Fraction(1, 2)

    def test_budget_cap(self, golden):
        with pytest.raises(BudgetExceeded):
            exact_average_series(golden, ESet.empty(), [EXACT_N_CAP + 1])

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

    def test_threaded_callers_match_serial_call(self, golden, from_threads):
        _, e = make_desk_schedule([(2, 6)])

        def call():
            return reduced_average_series(golden, e, None, [64], 64, 3).values()

        serial = call()
        assert all(r == serial for r in from_threads(call))


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
        table = ratio_check(golden, theta_words([ZERO]), [1], [4])
        assert table.median(1, 4) == 1.0

    def test_median_abs_dev(self, golden):
        table = ratio_check(golden, sample_thetas(16, 3), [1], [1000])
        assert table.median_abs_dev_from_one(1, 1000) >= 0.0


def ergodicity_reference(alpha, cyl_a, cyl_b, N, n_samples, seed):
    """ergodicity_correlation as the per-step loop it ran before it moved onto
    walk.level_counts: one omega gather per constraint of B over all N
    heights."""
    reach_a = max((abs(j) for j, _ in cyl_a.constraints), default=0)
    reach_b = max((abs(j) for j, _ in cyl_b.constraints), default=0)
    W = max(reach_a, default_window_radius(N) + reach_b)
    vals = []
    for i, theta in enumerate(theta_points(sample_thetas(n_samples, seed))):
        omega = sample_omega(W, np.random.SeedSequence(entropy=seed, spawn_key=(2, i)))
        if not cyl_a.holds(omega):
            vals.append(0.0)
            continue
        heights = walk_heights(theta.bits, alpha.bits, N)
        if int(np.abs(heights).max()) + reach_b > W:
            raise BudgetExceeded("walk left the symbol window budget")
        ok = np.ones(N, dtype=bool)
        for j, s in cyl_b.constraints:
            ok &= omega.values[heights + j + W] == s
        vals.append(np.count_nonzero(ok) / N)
    vals = np.array(vals)
    return (float(vals.mean()), cyl_a.measure * cyl_b.measure,
            float(vals.std(ddof=1) / math.sqrt(n_samples)))


cylinders = st.dictionaries(st.integers(-8, 8), st.sampled_from([-1, 1]), max_size=4).map(
    lambda d: CylinderSpec(constraints=tuple(d.items())))
# alpha just above 1/1001: the walk runs about 500 steps one way at a time
SLOW_ALPHA = resolve_alpha(AlphaSpec(quotients=[1000] + [1] * 200, bound=1000))
ergodic_alphas = st.one_of(
    st.sampled_from(AlphaSpec.PRESETS).map(lambda name: resolve_alpha(AlphaSpec(preset=name))),
    st.lists(st.integers(1, 4), min_size=200, max_size=200).map(
        lambda qs: resolve_alpha(AlphaSpec(quotients=qs, bound=4))))


class TestErgodicityCorrelation:
    def test_trivial_full_sets(self, golden):
        lhs, rhs, stderr = ergodicity_correlation(
            golden, CylinderSpec(constraints=()), CylinderSpec(constraints=()),
            64, 32, seed=4)
        assert lhs == 1.0 and rhs == 1.0 and stderr == 0.0

    def test_first_two_terms_value(self, golden):
        # N=2 Cesaro over D = T x [1]_0: term n=0 is mu(D) = 1/2 and term
        # n=1 is 1/4 (phi_1 is never 0, so the coordinates are independent);
        # expectation (1/2 + 1/4)/2 = 3/8
        cyl = CylinderSpec(constraints=((0, 1),))
        lhs, _, stderr = ergodicity_correlation(golden, cyl, cyl, 2, 4000, seed=5)
        assert abs(lhs - 0.375) <= 4 * stderr

    @settings(max_examples=100, deadline=None)
    @given(alpha=ergodic_alphas, cyl_a=cylinders, cyl_b=cylinders, N=st.integers(1, 3000),
           n_samples=st.integers(2, 6), seed=st.integers(0, 2**32 - 1),
           threaded=st.booleans())
    @example(alpha=resolve_alpha(AlphaSpec(preset="golden")),
             cyl_a=CylinderSpec(constraints=()),
             cyl_b=CylinderSpec(constraints=((-3, 1), (2, -1), (5, 1))),
             N=(1 << 16) + 3, n_samples=3, seed=7, threaded=True)
    # both walks reach height 47 within radius 40 + 8, so B's coordinate 8
    # is what leaves the window
    @example(alpha=SLOW_ALPHA, cyl_a=CylinderSpec(constraints=()),
             cyl_b=CylinderSpec(constraints=((8, 1),)), N=48, n_samples=2, seed=1,
             threaded=False)
    def test_matches_per_step_reference(self, from_threads, alpha, cyl_a, cyl_b, N,
                                        n_samples, seed, threaded):
        def call():
            return ergodicity_correlation(alpha, cyl_a, cyl_b, N, n_samples, seed)

        run = from_threads if threaded else lambda call: [call()]
        try:
            expected = ergodicity_reference(alpha, cyl_a, cyl_b, N, n_samples, seed)
        except BudgetExceeded:
            with small_chunks(), pytest.raises(BudgetExceeded):
                run(call)
            return
        with small_chunks():
            assert all(r == expected for r in run(call))

    def test_walk_beyond_window_budget(self):
        # the walk climbs or falls about 500 levels in its first 1000 steps,
        # past the window radius 56 at N = 1000
        cyl = CylinderSpec(constraints=())
        with pytest.raises(BudgetExceeded, match="symbol window budget"):
            ergodicity_correlation(SLOW_ALPHA, cyl, cyl, 1000, 2, seed=1)


class TestZeroEntropyProxy:
    def test_n1_is_one(self, golden):
        table = zero_entropy_proxy(golden, sample_thetas(8, 3), [1])
        assert table.max_at(1) == 1.0
        assert np.all(table.per_theta == 1.0)

    def test_theta0_golden_n4(self, golden):
        table = zero_entropy_proxy(golden, theta_words([ZERO]), [4])
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
        with small_chunks():
            mask = filt.select(thetas, golden)
            stats = [filt.statistic(t, golden) for t in theta_points(thetas)]
        assert 0 < mask.sum() < len(thetas)
        kept = [s for s, m in zip(stats, mask) if m]
        dropped = [s for s, m in zip(stats, mask) if not m]
        assert max(kept) <= min(dropped)

    @pytest.mark.parametrize("q, horizon, v_max", [
        (0.0, 64, 2), (1.0, 64, 2), (float("nan"), 64, 2), (0.2, 0, 2), (0.2, -5, 2),
        (0.2, 64, -1)])
    def test_quantile_filter_input_checks(self, q, horizon, v_max):
        with pytest.raises(ConfigError):
            QuantileFilter(q=q, horizon=horizon, v_max=v_max)


# ---------------------------------------------------------------------------
# The per-level loops that QuantileFilter.statistic and ratio_check ran before
# both moved onto one occupation counter (now walk.level_counts), kept as
# references.


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
        with small_chunks():
            assert filt.statistic(theta, alpha) == statistic_reference(filt, theta, alpha)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(angles, min_size=1, max_size=3), angles,
           st.lists(st.integers(-4, 4), min_size=1, max_size=5),
           st.sets(st.integers(1, 3000), min_size=1, max_size=4))
    def test_ratio_check_matches_reference(self, thetas, alpha, v_list, checkpoints):
        checkpoints = sorted(checkpoints)
        with small_chunks():
            table = ratio_check(alpha, theta_words(thetas), v_list, checkpoints)
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


# ---------------------------------------------------------------------------
# The per-time forms that zero_entropy_proxy and the sampled routes used before
# they moved onto walk.level_counts, kept as references: running extremes of
# the heights, and prefix sums of a per-time indicator.


def range_reference(alpha, thetas, N_list):
    idx = np.asarray(N_list) - 1
    rows = []
    for theta in thetas:
        heights = walk_heights(theta.bits, alpha.bits, N_list[-1])
        cmax = np.maximum.accumulate(heights)
        cmin = np.minimum.accumulate(heights)
        rows.append((cmax[idx] - cmin[idx] + 1).astype(float) / np.asarray(N_list))
    return np.array(rows)


def in_e_reference(e, heights):
    lo = int(heights.min())
    return e.lut(lo, int(heights.max()))[heights - lo]


def mc_indicator_reference(e, seed, W, fault_inject):
    def indicator(i, heights):
        omega = sample_omega(W, np.random.SeedSequence(entropy=seed, spawn_key=(1, i)))
        in_e = in_e_reference(e, heights)
        if fault_inject:
            in_e = ~in_e
        return (omega.values[heights + W] == 1) & in_e
    return indicator


def sampled_rows_reference(alpha, N_list, n_theta, seed, indicator):
    n_arr = np.asarray(N_list)
    return np.array([
        np.cumsum(indicator(i, walk_heights(t.bits, alpha.bits, N_list[-1])))[n_arr - 1]
        / n_arr for i, t in enumerate(theta_points(sample_thetas(n_theta, seed)))])


def sampled_rows(run):
    """The per-theta fractions a sampled route averages, recorded from its
    _sampled_fractions call."""
    rows = []
    fractions = series_module._sampled_fractions

    def recording(*args):
        out = fractions(*args)
        rows.append(out)
        return out

    with mock.patch.object(series_module, "_sampled_fractions", recording):
        run()
    (table,) = rows
    return table


small_alphas = st.lists(st.integers(1, 8), min_size=200, max_size=200).map(
    lambda qs: resolve_alpha(AlphaSpec(quotients=qs, bound=8)))


class TestLevelCountReducers:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(angles, min_size=1, max_size=4), small_alphas,
           st.sets(st.integers(1, 3000), min_size=1, max_size=4))
    def test_range_matches_running_extremes(self, thetas, alpha, n_set):
        N_list = sorted(n_set)
        with small_chunks():
            table = zero_entropy_proxy(alpha, theta_words(thetas), N_list)
        assert table.per_theta.tobytes() == range_reference(alpha, thetas, N_list).tobytes()

    @settings(max_examples=30, deadline=None)
    @given(small_alphas, st.sets(st.integers(1, 600), min_size=1, max_size=4),
           desk_pairs(), st.integers(0, 2**32 - 1))
    def test_reduced_rows_match_prefix_sums(self, alpha, n_set, pairs, seed):
        N_list = sorted(n_set)
        _, e = make_desk_schedule(pairs)
        rows = sampled_rows(lambda: reduced_average_series(alpha, e, None, N_list, 16, seed))
        expected = sampled_rows_reference(alpha, N_list, 16, seed,
                                          lambda i, h: in_e_reference(e, h))
        assert rows.tobytes() == expected.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(small_alphas, st.sets(st.integers(1, 600), min_size=1, max_size=4),
           desk_pairs(), st.integers(0, 2**32 - 1), st.booleans())
    def test_mc_rows_match_prefix_sums(self, alpha, n_set, pairs, seed, fault_inject):
        N_list = sorted(n_set)
        _, e = make_desk_schedule(pairs)
        W = N_list[-1]  # no walk of N steps leaves [-N, N]
        rows = sampled_rows(lambda: mc_triple_average(
            alpha, e, N_list, 16, seed, window_radius=W, fault_inject=fault_inject))
        expected = sampled_rows_reference(alpha, N_list, 16, seed,
                                          mc_indicator_reference(e, seed, W, fault_inject))
        assert rows.tobytes() == expected.tobytes()


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
            ratio_check(golden, theta_words([]), [1], [10])
        with pytest.raises(InsufficientSamples):
            zero_entropy_proxy(golden, theta_words([]), [10])

    def test_empty_v_list(self, golden):
        for v_list in ([], 0, -1):  # no level listed, or no level 0 < |v| <= v_max
            with pytest.raises(ConfigError):
                ratio_check(golden, theta_words([ZERO]), v_list, [10])

    @pytest.mark.parametrize("N, n_samples, error", [
        (0, 4, ConfigError), (8, 1, InsufficientSamples), (8, 0, InsufficientSamples)])
    def test_ergodicity_inputs(self, golden, N, n_samples, error):
        cyl = CylinderSpec(constraints=())
        with pytest.raises(error):
            ergodicity_correlation(golden, cyl, cyl, N, n_samples, seed=1)


def partition_reference(alpha, e, N_list):
    """Exact A_N and the level measures of phi_N for every N in N_list,
    by stepping the quadratic PartitionStepFn."""
    part = PartitionStepFn(alpha)
    acc, averages, levels = 0, {}, {}
    for n in range(1, N_list[-1] + 1):
        acc += part.measure_bits_in(e)
        part.step()
        if n in N_list:
            averages[n] = Fraction(acc, 2 * n * MODULUS)
            levels[n] = part.level_measures()
    return averages, levels


ALPHAS = {
    "golden": AlphaSpec(preset="golden"),
    "sqrt3m1": AlphaSpec(preset="sqrt3m1"),
    "cf8": AlphaSpec(quotients=[8] * 200, bound=8),
}


class TestExactAgainstPartition:
    @pytest.mark.parametrize("name", sorted(ALPHAS))
    def test_long_walks_match_partition(self, name):
        alpha = resolve_alpha(ALPHAS[name])
        _, e = make_desk_schedule([(2, 6), (30, 300)])
        N_list = [331, 1024]
        averages, levels = partition_reference(alpha, e, N_list)
        assert exact_average_series(alpha, e, N_list)[1] == averages
        for N in N_list:
            assert exact_level_measures(alpha, N) == levels[N]

    @pytest.mark.parametrize("bits", [1 << 126, 3 << 125, 5 << 124], ids=["1/4", "3/8", "5/16"])
    def test_coincident_breakpoints(self, bits):
        # a rational angle repeats its breakpoints, leaving zero-width cells
        alpha = FixedAngle(bits)
        _, e = make_desk_schedule([(2, 3)])
        N_list = [1, 5, 40]
        averages, levels = partition_reference(alpha, e, N_list)
        assert exact_average_series(alpha, e, N_list)[1] == averages
        for N in N_list:
            assert exact_level_measures(alpha, N) == levels[N]

    def test_zero_steps(self, golden):
        assert exact_level_measures(golden, 0) == {0: 1}

    def test_level_measures_input_checks(self, golden):
        with pytest.raises(ConfigError):
            exact_level_measures(golden, -1)
        with pytest.raises(BudgetExceeded):
            exact_level_measures(golden, EXACT_N_CAP + 1)

    @pytest.mark.parametrize("n", [1, 2, 9, 100, 1000])
    def test_measures_positive(self, golden, n):
        levels = exact_level_measures(golden, n)
        assert all(m > 0 for m in levels.values())
        assert list(levels) == sorted(levels)

    def test_across_block_boundary(self, golden):
        # the 2N signs of the two-sided sequence span two 2**16-index blocks
        N = (1 << 15) + 3
        _, e = make_desk_schedule([(2, 6), (30, 300)])
        fractions = exact_average_series(golden, e, [N - 1, N])[1]
        levels = exact_level_measures(golden, N - 1)
        assert sum(levels.values()) == 1
        assert sum(exact_level_measures(golden, N).values()) == 1
        last_term = sum(m for v, m in levels.items() if e.contains(v))
        assert 2 * N * fractions[N] - 2 * (N - 1) * fractions[N - 1] == last_term
