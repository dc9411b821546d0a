import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from discwalk import (
    ConfigError,
    FixedAngle,
    InsufficientSamples,
    WalkState,
    estimate_constants,
    occupation_band,
    psi,
    range_stat,
    run_walk,
    sample_thetas,
    walk_step,
)
from discwalk.rotation import MODULUS, AlphaSpec, resolve_alpha, walk_heights
from discwalk.walk import WalkSummary, band_counts, default_checkpoints, level_counts

BITS = st.integers(min_value=0, max_value=MODULUS - 1)
ZERO = FixedAngle(0)


class TestWalkStep:
    def test_first_step_up(self, golden):
        s = walk_step(WalkState(theta0=ZERO, alpha=golden))
        assert (s.n, s.height) == (1, 1)

    def test_second_step_down(self, golden):
        s = walk_step(walk_step(WalkState(theta0=ZERO, alpha=golden)))
        assert (s.n, s.height) == (2, 0)

    def test_initial_height_zero(self, golden):
        assert WalkState(theta0=ZERO, alpha=golden).height == 0

    def test_theta_n_derived(self, golden):
        s = WalkState(theta0=ZERO, alpha=golden, n=3)
        assert s.theta_n == FixedAngle(3 * golden.bits % MODULUS)


class TestRunWalk:
    def test_golden_first_four_heights(self, golden):
        summary = run_walk(ZERO, golden, 4)
        assert psi(summary, 0) == 2
        assert psi(summary, 1) == 2
        assert psi(summary, -1) == 0
        assert range_stat(summary) == 2

    def test_golden_n8_height_two_first_at_six(self, golden):
        heights = walk_heights(0, golden.bits, 8)
        assert heights[6] == 2
        assert max(heights[:6]) < 2
        assert heights[7] == 1

    def test_n1(self, golden):
        summary = run_walk(FixedAngle.from_float(0.123), golden, 1)
        assert summary.histogram.as_dict() == {0: 1}
        assert range_stat(summary) == 1

    def test_n0_rejected(self, golden):
        with pytest.raises(ValueError):
            run_walk(ZERO, golden, 0)

    def test_psi_at_unreached_level_is_zero(self, golden):
        summary = run_walk(ZERO, golden, 16)
        assert psi(summary, 16) == 0
        assert psi(summary, -16) == 0

    def test_csv_row(self, golden):
        summary = run_walk(ZERO, golden, 4)
        assert summary.csv_row() == f"{ZERO.to_hex()},4,0,1,2,0:2;1:2"
        assert WalkSummary.CSV_HEADER == "theta0_hex,N,min_h,max_h,a_N,levels"


class TestOccupationInvariants:
    @settings(max_examples=25, deadline=None)
    @given(theta=BITS, n=st.integers(1, 2000))
    def test_conservation(self, golden, theta, n):
        summary = run_walk(FixedAngle(theta), golden, n)
        assert summary.histogram.total == n

    @settings(max_examples=25, deadline=None)
    @given(theta=BITS, n=st.integers(1, 2000))
    def test_contiguity(self, golden, theta, n):
        counts = run_walk(FixedAngle(theta), golden, n).histogram.as_dict()
        levels = sorted(counts)
        assert levels == list(range(levels[0], levels[-1] + 1))

    @settings(max_examples=10, deadline=None)
    @given(theta=BITS)
    def test_skip_free(self, golden, theta):
        n = 300
        lo = run_walk(FixedAngle(theta), golden, n).histogram.as_dict()
        hi = run_walk(FixedAngle(theta), golden, n + 1).histogram.as_dict()
        diffs = {v: hi.get(v, 0) - lo.get(v, 0) for v in hi}
        assert sorted(diffs.values()) == [0] * (len(diffs) - 1) + [1]

    def test_range_at_most_n(self, golden):
        for n in (1, 2, 17, 400):
            assert range_stat(run_walk(ZERO, golden, n)) <= n

    def test_height_band_symmetry_distributional(self, golden):
        # the rotation by 1/2 exchanges the half-circles; level +1 and -1
        # visit counts agree in distribution over uniform theta
        thetas = sample_thetas(1000, 21)
        N = 10**4
        plus, minus = [], []
        for t in thetas:
            h = run_walk(t, golden, N).histogram
            plus.append(h.count(1))
            minus.append(h.count(-1))
        plus, minus = np.array(plus, float), np.array(minus, float)
        se = math.hypot(plus.std(ddof=1), minus.std(ddof=1)) / math.sqrt(len(thetas))
        assert abs(plus.mean() - minus.mean()) <= 5 * se


# checkpoints on both sides of the walk kernel's 2**16-step sign blocks: the
# first block fills heights[1:2**16 + 1]
BLOCK_EDGE = [(1 << 16) + d for d in (-1, 0, 1, 2)]


class TestLevelCounts:
    @settings(max_examples=40, deadline=None)
    @given(quotients=st.lists(st.integers(1, 8), min_size=200, max_size=200), theta=BITS,
           extra=st.sets(st.integers(1, (1 << 16) + 8), max_size=4),
           edge=st.sets(st.sampled_from(BLOCK_EDGE)), v_max=st.integers(0, 12))
    @example(quotients=[1] * 200, theta=0, extra=set(), edge=set(BLOCK_EDGE), v_max=3)
    def test_matches_bincount_of_heights(self, quotients, theta, extra, edge, v_max):
        alpha = resolve_alpha(AlphaSpec(quotients=quotients, bound=8))
        checkpoints = sorted({1} | extra | edge)
        v_min, counts = level_counts(theta, alpha.bits, checkpoints)
        heights = walk_heights(theta, alpha.bits, checkpoints[-1])
        assert v_min == heights.min()
        assert counts.shape == (len(checkpoints), heights.max() - v_min + 1)
        band = band_counts(v_min, counts, v_max)
        for n, row, band_row in zip(checkpoints, counts, band):
            assert np.array_equal(row, np.bincount(heights[:n] - v_min,
                                                   minlength=counts.shape[1]))
            assert band_row.tolist() == [int(np.count_nonzero(heights[:n] == v))
                                         for v in range(-v_max, v_max + 1)]


class TestOccupationBand:
    def test_empty_checkpoints(self, golden):
        with pytest.raises(ConfigError):
            occupation_band(golden, sample_thetas(2, 1), [])

    def test_checkpoint_floor_and_order(self, golden):
        for checkpoints in ([8, 100], [100, 100]):
            with pytest.raises(ConfigError):
                occupation_band(golden, sample_thetas(2, 1), checkpoints)

    def test_empty_sample(self, golden):
        with pytest.raises(InsufficientSamples):
            occupation_band(golden, [], [100])


class TestEstimateConstants:
    def test_minimal_run_definition(self, golden):
        # v_max=0, single checkpoint (the default at N=64 is [64]): M_0 is
        # literally the scaled max
        thetas = sample_thetas(4, 3)
        N = 64
        table = estimate_constants(golden, thetas, N, 0)
        expected = max(
            run_walk(t, golden, N).histogram.count(0) * math.sqrt(math.log(N)) / N
            for t in thetas
        )
        assert table.m_v[0] == pytest.approx(expected, rel=1e-12)

    def test_c_v_nondecreasing(self, golden):
        table = estimate_constants(golden, sample_thetas(8, 5), 10**4, 3)
        values = [table.c_v[v] for v in sorted(table.c_v)]
        assert values == sorted(values)
        for v in table.c_v:
            assert table.c_v[v] >= max(table.m_v[v], table.m_v[-v])
            assert table.c_v[v] == max(max(table.m_v[u], table.m_v[-u]) for u in range(v + 1))

    def test_insufficient_samples(self, golden):
        with pytest.raises(InsufficientSamples):
            estimate_constants(golden, sample_thetas(1, 3), 100, 0)

    def test_small_horizon_rejected(self, golden):
        with pytest.raises(ValueError):
            estimate_constants(golden, sample_thetas(4, 3), 8, 0)

    def test_document_schema(self, golden):
        table = estimate_constants(golden, sample_thetas(2, 3), 16, 0, seed=3)
        doc = table.document()
        assert doc.startswith("schema: discwalk-constants-v1\n")
        assert "m[0]:" in doc and "c[0]:" in doc

    def test_worker_count_does_not_change_output(self, golden):
        thetas = sample_thetas(8, 9)
        t1 = estimate_constants(golden, thetas, 10**4, 2, workers=1)
        t4 = estimate_constants(golden, thetas, 10**4, 2, workers=4)
        assert t1.m_v == t4.m_v and t1.c_v == t4.c_v
        assert t1.m_global == t4.m_global


class TestConstantsRegression:
    def test_pinned_pilot_values_reproduce_exactly(self, golden, pinned):
        # deterministic run: the recorded pilot values must reproduce to the
        # last bit, not merely approximately
        pin = pinned["constants_regression"]
        table = estimate_constants(
            golden, sample_thetas(pin["n_theta"], pin["seed"]), pin["N"],
            pin["v_max"], seed=pin["seed"])
        assert {str(v): x for v, x in table.m_v.items()} == pin["m_v"]
        assert table.m_global == pin["m_global"]


class TestDefaultCheckpoints:
    def test_powers_of_ten_and_horizon(self):
        assert default_checkpoints(2500) == [10, 100, 1000, 2500]


class TestSampleThetas:
    def test_deterministic(self):
        assert sample_thetas(5, 42) == sample_thetas(5, 42)
        assert sample_thetas(5, 42) != sample_thetas(5, 43)

    def test_prefix_stable(self):
        assert sample_thetas(10, 42)[:5] == sample_thetas(5, 42)
