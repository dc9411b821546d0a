import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference
from conftest import block_table, theta_points, theta_words

from discwalk import (
    BudgetExceeded,
    ConfigError,
    FixedAngle,
    InsufficientSamples,
    estimate_constants,
    occupation_band,
    run_walk,
    sample_thetas,
)
from discwalk import _pcg
from discwalk import walk as walk_module
from discwalk.rotation import HALF, MODULUS, AlphaSpec, resolve_alpha, walk_heights
from discwalk.walk import (WalkSummary, block_length, default_checkpoints, theta_band_counts,
                           theta_counts, visited_band)

BITS = st.integers(min_value=0, max_value=MODULUS - 1)
ZERO = FixedAngle(0)


class TestRunWalk:
    def test_golden_first_four_heights(self, golden):
        summary = run_walk(ZERO, golden, 4)
        assert summary.count(0) == 2
        assert summary.count(1) == 2
        assert summary.count(-1) == 0
        assert summary.range_count == 2

    def test_golden_n8_height_two_first_at_six(self, golden):
        heights = walk_heights(0, golden.bits, 8)
        assert heights[6] == 2
        assert max(heights[:6]) < 2
        assert heights[7] == 1

    def test_n1(self, golden):
        summary = run_walk(FixedAngle.from_float(0.123), golden, 1)
        assert summary.as_dict() == {0: 1}
        assert summary.range_count == 1

    def test_n0_rejected(self, golden):
        with pytest.raises(ValueError):
            run_walk(ZERO, golden, 0)

    def test_psi_at_unreached_level_is_zero(self, golden):
        summary = run_walk(ZERO, golden, 16)
        assert summary.count(16) == 0
        assert summary.count(-16) == 0

    def test_csv_row(self, golden):
        summary = run_walk(ZERO, golden, 4)
        assert summary.csv_row() == f"{ZERO.to_hex()},4,0,1,2,0:2;1:2"
        assert WalkSummary.CSV_HEADER == "theta0_hex,N,min_h,max_h,a_N,levels"


class TestOccupationInvariants:
    @settings(max_examples=25, deadline=None)
    @given(theta=BITS, n=st.integers(1, 2000))
    def test_conservation(self, golden, theta, n):
        summary = run_walk(FixedAngle(theta), golden, n)
        assert summary.counts.sum() == n

    @settings(max_examples=25, deadline=None)
    @given(theta=BITS, n=st.integers(1, 2000))
    def test_contiguity(self, golden, theta, n):
        counts = run_walk(FixedAngle(theta), golden, n).as_dict()
        levels = sorted(counts)
        assert levels == list(range(levels[0], levels[-1] + 1))

    @settings(max_examples=10, deadline=None)
    @given(theta=BITS)
    def test_skip_free(self, golden, theta):
        n = 300
        lo = run_walk(FixedAngle(theta), golden, n).as_dict()
        hi = run_walk(FixedAngle(theta), golden, n + 1).as_dict()
        diffs = {v: hi.get(v, 0) - lo.get(v, 0) for v in hi}
        assert sorted(diffs.values()) == [0] * (len(diffs) - 1) + [1]

    def test_range_at_most_n(self, golden):
        for n in (1, 2, 17, 400):
            assert run_walk(ZERO, golden, n).range_count <= n

    def test_height_band_symmetry_distributional(self, golden):
        # the rotation by 1/2 exchanges the half-circles; level +1 and -1
        # visit counts agree in distribution over uniform theta
        thetas = sample_thetas(1000, 21)
        N = 10**4
        plus, minus = [], []
        for t in theta_points(thetas):
            summary = run_walk(t, golden, N)
            plus.append(summary.count(1))
            minus.append(summary.count(-1))
        plus, minus = np.array(plus, float), np.array(minus, float)
        se = math.hypot(plus.std(ddof=1), minus.std(ddof=1)) / math.sqrt(len(thetas))
        assert abs(plus.mean() - minus.mean()) <= 5 * se


# checkpoints on both sides of the walk kernel's 2**16-step sign blocks: the
# first block fills heights[1:2**16 + 1]
BLOCK_EDGE = [(1 << 16) + d for d in (-1, 0, 1, 2)]


def one_walk(theta, alpha_bits, checkpoints):
    """(v_min, counts): theta_counts of the one theta, cut to its visited
    band, as run_walk cuts it."""
    v_min, rows, row = theta_counts(FixedAngle(alpha_bits), theta_words([FixedAngle(theta)]),
                                    checkpoints)
    (lo,), (hi,) = visited_band(v_min, rows[row])
    return int(lo), rows[row[0], :, lo - v_min:hi - v_min + 1]


class TestOneWalk:
    @settings(max_examples=40, deadline=None)
    @given(quotients=st.lists(st.integers(1, 8), min_size=200, max_size=200), theta=BITS,
           extra=st.sets(st.integers(1, (1 << 16) + 8), max_size=4),
           edge=st.sets(st.sampled_from(BLOCK_EDGE)), v_max=st.integers(0, 12))
    @example(quotients=[1] * 200, theta=0, extra=set(), edge=set(BLOCK_EDGE), v_max=3)
    def test_matches_bincount_of_heights(self, quotients, theta, extra, edge, v_max):
        alpha = resolve_alpha(AlphaSpec(quotients=quotients, bound=8))
        checkpoints = sorted({1} | extra | edge)
        v_min, counts = one_walk(theta, alpha.bits, checkpoints)
        heights = walk_heights(theta, alpha.bits, checkpoints[-1])
        assert v_min == heights.min()
        assert counts.shape == (len(checkpoints), heights.max() - v_min + 1)
        (band,) = theta_band_counts(alpha, theta_words([FixedAngle(theta)]), checkpoints, v_max)
        for n, row, band_row in zip(checkpoints, counts, band):
            assert np.array_equal(row, np.bincount(heights[:n] - v_min,
                                                   minlength=counts.shape[1]))
            assert band_row.tolist() == [int(np.count_nonzero(heights[:n] == v))
                                         for v in range(-v_max, v_max + 1)]


def assert_matches_heights(theta, alpha_bits, checkpoints):
    v_min, counts = one_walk(theta, alpha_bits, checkpoints)
    heights = walk_heights(theta, alpha_bits, checkpoints[-1])
    assert v_min == heights.min()
    assert counts.shape == (len(checkpoints), heights.max() - v_min + 1)
    assert counts.dtype == np.int64
    for n, row in zip(checkpoints, counts):
        assert np.array_equal(row, np.bincount(heights[:n] - v_min, minlength=counts.shape[1]))


# [0; 3000, 2, 2, ...]: q = 15002, over which the walk drifts 1502 levels
WIDE = resolve_alpha(AlphaSpec(quotients=[3000] + [2] * 150, bound=3000)).bits
# 500 * TIE_ALPHA is within 500 units of 1/2, so the beginnings -k*alpha and
# 1/2 - (k + 500)*alpha share their top word
TIE_ALPHA = (501 * MODULUS + 500) // 1000


def reading_only_short_walks(monkeypatch, limit=1 << 20):
    """Make the direct walk fail if it walks more than limit steps."""
    def guarded(theta, alpha, n):
        assert n <= limit, f"walked {n} steps"
        return walk_heights(theta, alpha, n)

    monkeypatch.setattr(walk_module, "walk_heights", guarded)


def slow_builds(monkeypatch):
    """Patch walk._cell_table to record the (alpha_bits, n) of every table it
    builds, and to take longer, which widens the window in which a second
    thread would build the same table; returns the record."""
    build, builds = walk_module._cell_table, []

    def slow_build(alpha_bits, n, lengths):
        builds.append((alpha_bits, n))
        time.sleep(0.05)
        return build(alpha_bits, n, lengths)

    monkeypatch.setattr(walk_module, "_cell_table", slow_build)
    return builds


class TestBlockKernel:
    @settings(max_examples=60, deadline=None)
    @given(quotients=st.lists(st.integers(1, 8), min_size=200, max_size=200),
           random_theta=BITS, on=st.sampled_from([None, 0, -1]), k=st.integers(0, 1 << 14),
           half=st.booleans(), block=st.integers(0, 12),
           near=st.sets(st.tuples(st.integers(0, 12), st.integers(-1, 1)), max_size=5),
           short=st.sets(st.integers(1, 1 << 14), max_size=3))
    @example(quotients=[1] * 200, random_theta=0, on=0, k=5, half=True, block=3,
             near={(3, -1), (3, 0), (3, 1), (10, 0)}, short=set())
    @example(quotients=[8] * 200, random_theta=0, on=-1, k=77, half=False, block=0,
             near={(12, 1)}, short={1})
    @example(quotients=[1] * 200, random_theta=2**100, on=None, k=0, half=False, block=0,
             near=set(), short={5, 100, 10945})
    def test_matches_bincount_of_heights(self, quotients, random_theta, on, k, half, block,
                                         near, short):
        alpha = resolve_alpha(AlphaSpec(quotients=quotients, bound=8)).bits
        q = block_length(alpha)
        assert block_table(alpha) is not None
        if on is None:
            theta = random_theta
        else:
            # the start of the given block lies on the beginning of a cell, or
            # one unit below it
            start = (-(k % q) * alpha + half * HALF + on) % MODULUS
            theta = (start - block * q * alpha) % MODULUS
        # on, just before and just after multiples of q, and walks shorter than q
        checkpoints = {max(1, b * q + d) for b, d in near} | {n for n in short if n < q}
        assert_matches_heights(theta, alpha, sorted(checkpoints or {q - 1}))

    @pytest.mark.parametrize("k", [0, 1, 499, 500, 777])
    @pytest.mark.parametrize("half", [0, HALF])
    @pytest.mark.parametrize("offset", [-300, -1, 0, 1, 300])
    def test_beginnings_sharing_a_top_word(self, k, half, offset):
        table = block_table(TIE_ALPHA)
        assert table.n == 1000 and (table.hi[1:] == table.hi[:-1]).any()
        theta = (-k * TIE_ALPHA + half + offset) % MODULUS
        assert_matches_heights(theta, TIE_ALPHA, [3000, 5000, 7001])

    def test_chunks_of_blocks(self, golden, monkeypatch):
        # 3 blocks' running counts of each level of P fill a chunk
        monkeypatch.setattr(walk_module, "_CHUNK_ENTRIES", 3 * (block_table(golden.bits).span + 1))
        q = block_length(golden.bits)
        for theta in (0, 2**127 + 12345, MODULUS - 1):
            assert_matches_heights(theta, golden.bits, [5, 2 * q + 1, 5 * q, 11 * q + 7, 20 * q])

    @pytest.mark.parametrize("name", ["golden", "tie"])
    def test_tabled_walk_walks_nothing(self, golden, monkeypatch, name):
        alpha = golden.bits if name == "golden" else TIE_ALPHA
        q = block_length(alpha)
        assert block_table(alpha) is not None
        # checkpoints that cut blocks, sit on q * k +/- 1 and end on a partial block
        checkpoints = [q - 1, q + 1, 2 * q, 3 * q - 1, 3 * q + 1, 5 * q + q // 3]
        thetas = [0, MODULUS - 1, (-7 * alpha + HALF) % MODULUS, 2**127 + 12345]
        # the direct walk, which touches no table, is the reference
        expected = [walk_module._walk_counts(alpha, theta_words([FixedAngle(t)]), checkpoints)
                    for t in thetas]

        def no_walks(theta, alpha, n):
            raise AssertionError(f"walked {n} steps")

        monkeypatch.setattr(walk_module, "walk_heights", no_walks)
        for theta, (v_min, (counts,)) in zip(thetas, expected):
            got_min, got = one_walk(theta, alpha, checkpoints)
            assert got_min == v_min and np.array_equal(got, counts)

    def test_direct_stretch_walked_in_pieces(self, monkeypatch):
        piece = walk_module._STRETCH
        assert piece == 1 << 20
        reading_only_short_walks(monkeypatch, limit=piece + 1)
        # on both sides of each piece's end, and past the last whole piece
        edges = [k * piece + d for k in (1, 2, 3) for d in (-1, 0, 1)]
        for theta in (7, 2**127 + 1):
            assert_matches_heights(theta, WIDE, [1, 1000] + edges + [3 * piece + 5])

    def test_wide_band_alpha_walks_directly(self, monkeypatch):
        assert block_length(WIDE) == 15002 and block_table(WIDE) is None
        walked = []
        monkeypatch.setattr(walk_module, "walk_heights",
                            lambda t, a, n: walked.append(n) or walk_heights(t, a, n))
        checkpoints = [100, 15002, 40000]
        one_walk(7, WIDE, checkpoints)
        assert walked == [40000]
        assert_matches_heights(7, WIDE, checkpoints)

    def test_budgets_raise_before_walking(self, golden, monkeypatch):
        reading_only_short_walks(monkeypatch)
        with pytest.raises(BudgetExceeded, match="blocks"):
            one_walk(0, golden.bits, [10**14])
        with pytest.raises(BudgetExceeded, match="stretch"):
            one_walk(0, WIDE, [walk_module.MAX_DIRECT_STEPS + 1])
        # below both budgets the golden walk reads its blocks off the table
        one_walk(0, golden.bits, [10**9])

    def test_budgets_keep_heights_in_int64(self):
        # |h_N| <= N, and no walk longer than either budget allows is walked
        # or read off a table, so the int64 height arithmetic cannot overflow
        assert max(walk_module.MAX_DIRECT_STEPS,
                   walk_module._MAX_Q * walk_module.MAX_BLOCKS) < 2**62

    def test_table_built_once_across_threads(self, monkeypatch, from_threads):
        alpha = resolve_alpha(AlphaSpec(preset="sqrt3m1"))
        builds = slow_builds(monkeypatch)
        thetas = sample_thetas(8, 4)

        def call():
            return [b.tobytes() for b in occupation_band(alpha, thetas, [100, 10**5])]

        walk_module._tables.pop((alpha.bits, 10864, ()), None)
        serial = call()
        assert builds.count((alpha.bits, 10864)) == 1
        walk_module._tables.pop((alpha.bits, 10864, ()), None)
        assert all(r == serial for r in from_threads(call, switch_interval=1e-6))
        assert builds.count((alpha.bits, 10864)) == 2

    def test_per_call_table_built_once_across_threads(self, monkeypatch, from_threads):
        # max N = 1000 < q = 10864: every theta is read off the cell table of
        # n = 1000 with lengths [100, 1000]
        alpha = resolve_alpha(AlphaSpec(preset="sqrt3m1"))
        builds = slow_builds(monkeypatch)
        thetas = sample_thetas(8, 4)

        def call():
            return [b.tobytes() for b in occupation_band(alpha, thetas, [100, 1000])]

        key = (alpha.bits, 1000, (100, 1000))
        walk_module._tables.pop(key, None)
        serial = call()
        assert builds == [(alpha.bits, 1000)]
        walk_module._tables.pop(key, None)
        assert all(r == serial for r in from_threads(call, switch_interval=1e-6))
        assert builds == [(alpha.bits, 1000)] * 2

    def test_table_cache_is_bounded(self):
        for first in range(1, 13):
            block_table(resolve_alpha(AlphaSpec(quotients=[first] + [1] * 199, bound=12)).bits)
        assert len(walk_module._tables) <= walk_module._TABLE_CACHE


# the tables whose cells are looked up: the presets' and cf8's block tables,
# the cell table of golden walks to 2048, TIE_ALPHA's block table, whose
# beginnings share top words, and two whose buckets run deep: 16 of the 60
# beginnings of cf:2,500,... at n = 30 share a bucket, and 5 of cf:1,200,...'s
# at n = 2048
LOOKUP_TABLES = {
    **{name: lambda name=name: block_table(resolve_alpha(AlphaSpec(preset=name)).bits)
       for name in AlphaSpec.PRESETS},
    "cf8": lambda: block_table(resolve_alpha(AlphaSpec(quotients=[8] * 200, bound=8)).bits),
    "golden_2048": lambda: walk_module.cell_table(
        resolve_alpha(AlphaSpec(preset="golden")).bits, 2048, []),
    "tie": lambda: block_table(TIE_ALPHA),
    "deep_30": lambda: walk_module.cell_table(resolve_alpha(AlphaSpec(
        quotients=[2, 500] + [2] * 150, bound=500)).bits, 30, []),
    "deep_2048": lambda: walk_module.cell_table(resolve_alpha(AlphaSpec(
        quotients=[1] + [200] * 30, bound=200)).bits, 2048, []),
}


def assert_cells_match_reference(table, points):
    """CellTable.cells of the points (integers, taken mod 2**128) is the
    sort and search of tests/reference.py."""
    words = np.array([divmod(p % MODULUS, 1 << 64) for p in points],
                     dtype=np.uint64).reshape(-1, 2)
    hi, lo = words[:, 0], words[:, 1]
    got = table.cells(hi, lo)
    assert got.dtype == np.intp
    assert np.array_equal(got, reference.cells(table, hi, lo))


class TestCellLookup:
    """CellTable.cells: one bucket of the index per point, searched in a
    few branchless steps, against the sort and search it replaced."""

    @pytest.mark.parametrize("name", sorted(LOOKUP_TABLES))
    def test_every_beginning_and_its_neighbours(self, name):
        # one unit below and above a beginning borrows from or carries into
        # its top word where its low word is 0 or 2**64 - 1
        table = LOOKUP_TABLES[name]()
        beginnings = [(h << 64) | l for h, l in zip(table.hi.tolist(), table.lo.tolist())]
        assert_cells_match_reference(
            table, [b + d for b in beginnings for d in (-1, 0, 1)] + [0, MODULUS - 1])

    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(LOOKUP_TABLES)), random=st.lists(BITS, max_size=50),
           picks=st.lists(st.tuples(st.integers(0, 1 << 15), st.integers(-2, 2),
                                    st.sampled_from([0, 1, 1 << 64])), max_size=20))
    @example(name="tie", random=[], picks=[(0, -1, 0), (1, 0, 1 << 64), (1999, 1, 0)])
    @example(name="deep_30", random=[2**127], picks=[(k, d, 0) for k in range(0, 60, 7)
                                                     for d in (-1, 0, 1)])
    def test_matches_reference(self, name, random, picks):
        # random points, and points near a beginning: a few units either
        # side of it, or one top-word unit above it
        table = LOOKUP_TABLES[name]()
        near = [((int(table.hi[k % len(table.hi)]) << 64 | int(table.lo[k % len(table.lo)]))
                 + d + top) for k, d, top in picks]
        assert_cells_match_reference(table, random + near + [0, MODULUS - 1])

    @pytest.mark.parametrize("name", sorted(LOOKUP_TABLES))
    def test_index(self, name):
        # first[k] counts the beginnings whose top bits are below k, over at
        # least 2 buckets per beginning and at most 16 bytes per beginning
        table = LOOKUP_TABLES[name]()
        buckets = len(table.first) - 1
        assert buckets & (buckets - 1) == 0 and buckets // 2 < 2 * len(table.hi) <= buckets
        assert table.first.dtype == np.int32 and table.first.nbytes <= 16 * len(table.hi)
        assert not table.first.flags.writeable
        top_bits = table.hi >> table.shift
        assert table.shift == 64 - buckets.bit_length() + 1
        assert np.array_equal(table.first, np.searchsorted(top_bits, np.arange(buckets + 1)))
        fullest = int(np.diff(table.first).max())
        assert table.rounds == fullest.bit_length()
        # the three-distance theorem spreads a badly approximable alpha's
        # beginnings almost evenly: one or two to a bucket
        assert (table.rounds <= 2) == (name not in ("deep_30", "deep_2048"))


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
            occupation_band(golden, theta_words([]), [100])


class TestEstimateConstants:
    def test_minimal_run_definition(self, golden):
        # v_max=0, single checkpoint (the default at N=64 is [64]): M_0 is
        # literally the scaled max
        thetas = sample_thetas(4, 3)
        N = 64
        table = estimate_constants(golden, thetas, N, 0)
        expected = max(
            run_walk(t, golden, N).count(0) * math.sqrt(math.log(N)) / N
            for t in theta_points(thetas)
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

    def test_threaded_callers_match_serial_call(self, golden, from_threads):
        thetas = sample_thetas(8, 9)

        def call():
            t = estimate_constants(golden, thetas, 10**4, 2)
            return t.m_v, t.c_v, t.m_global

        serial = call()
        assert all(r == serial for r in from_threads(call))


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
        assert theta_points(sample_thetas(5, 42)) == theta_points(sample_thetas(5, 42))
        assert theta_points(sample_thetas(5, 42)) != theta_points(sample_thetas(5, 43))

    def test_prefix_stable(self):
        assert theta_points(sample_thetas(10, 42))[:5] == theta_points(sample_thetas(5, 42))

    @pytest.mark.parametrize("seed", [0, 1, 7, 1 << 40, 123456789])
    def test_matches_one_draw_per_theta(self, seed):
        # the reference: one two-word draw per theta, high word first
        for n in (0, 1, 5, 1000):
            rng = np.random.default_rng(seed)
            expected = []
            for _ in range(n):
                hi, lo = rng.integers(0, 1 << 64, size=2, dtype=np.uint64)
                expected.append(FixedAngle((int(hi) << 64) | int(lo)))
            assert theta_points(sample_thetas(n, seed)) == expected

    # numpy's own draw, bit for bit; 2**128 + 7 has five entropy words, one
    # more than SeedSequence's pool.  The counts sit either side of the draw's
    # first two block boundaries, at its own block size and at a small one.
    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 7])
    @pytest.mark.parametrize("words", [None, 16])
    def test_matches_numpy_integers(self, seed, words, monkeypatch):
        if words:
            monkeypatch.setattr(_pcg, "BLOCK", words)
        block = _pcg.BLOCK // 2  # thetas: two words each
        for n in sorted({0, 1, 2} | {k * block + d for k in (1, 2) for d in (-1, 0, 1)}):
            expected = np.random.default_rng(seed).integers(0, 2**64, size=(n, 2),
                                                            dtype=np.uint64)
            got = sample_thetas(n, seed)
            assert got.dtype == np.uint64 and got.shape == (n, 2)
            assert got.tobytes() == expected.tobytes()

    def test_unallocatable_count_is_a_budget_error(self):
        # numpy refuses these before touching memory; a negative count stays
        # numpy's own error
        for n in (10**17, 10**18, 10**20):
            with pytest.raises(BudgetExceeded, match="do not fit"):
                sample_thetas(n, 1)
        with pytest.raises(ValueError, match="negative"):
            sample_thetas(-1, 1)
