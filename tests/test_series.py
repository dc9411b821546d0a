"""walk.theta_counts against walk.level_counts on every path, and the
sampled routes' output bytes against the per-theta loop they replaced."""

from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import block_table, theta_points, theta_words

from discwalk import CylinderSpec, WindowExceeded, make_desk_schedule, mc_triple_average
from discwalk import walk as walk_module
from discwalk.averages import ergodicity_correlation, reduced_average_series
from discwalk.filters import QuantileFilter
from discwalk.rotation import HALF, MODULUS, AlphaSpec, FixedAngle, resolve_alpha
from discwalk.walk import (block_length, cell_table, level_counts, sample_thetas, theta_counts,
                           visited_band)

ALPHAS = {
    "golden": AlphaSpec(preset="golden"),
    "sqrt2m1": AlphaSpec(preset="sqrt2m1"),
    "sqrt3m1": AlphaSpec(preset="sqrt3m1"),
    "cf8": AlphaSpec(quotients=[8] * 200, bound=8),
}
ALPHA_BITS = {name: resolve_alpha(spec).bits for name, spec in ALPHAS.items()}
# [0; 3000, 2, 2, ...]: n < q = 15002, but the walk drifts about 1500 levels,
# so the cell table would be far too large and the routes walk each theta
WIDE = resolve_alpha(AlphaSpec(quotients=[3000] + [2] * 150, bound=3000))
# 500 * TIE_ALPHA is within 500 units of 1/2, so the beginnings -k*alpha and
# 1/2 - (k + 500)*alpha share their top word
TIE_ALPHA = (501 * MODULUS + 500) // 1000
PAIRS = [(2, 6), (30, 300)]


def assert_theta_counts_match_level_counts(alpha_bits, N_list, theta_bits):
    """Every theta once, in order; its visited band, and every visit inside
    it, as level_counts gives them."""
    thetas = theta_words([FixedAngle(b) for b in theta_bits])
    order = []
    for idx, v_min, counts in theta_counts(FixedAngle(alpha_bits), thetas, N_list):
        assert counts.shape[:2] == (len(idx), len(N_list))
        for i, row, lo, hi in zip(idx.tolist(), counts, *visited_band(v_min, counts)):
            ref_min, ref = level_counts(theta_bits[i], alpha_bits, N_list)
            assert (lo, hi) == (ref_min, ref_min + ref.shape[1] - 1)
            assert row.sum(axis=1).tolist() == N_list
            assert row[:, lo - v_min:hi - v_min + 1].tolist() == ref.tolist()
        order += idx.tolist()
    assert order == list(range(len(thetas)))


class TestCellCounts:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(ALPHAS)),
           lengths=st.sets(st.integers(1, 1 << 14), min_size=1, max_size=4),
           random=st.lists(st.integers(0, MODULUS - 1), max_size=3),
           beginnings=st.lists(st.tuples(st.integers(0, 1 << 14), st.booleans(),
                                         st.integers(-1, 1)), max_size=6))
    @example(name="golden", lengths={1}, random=[0, MODULUS - 1], beginnings=[(0, True, 0)])
    @example(name="cf8", lengths={1 << 14}, random=[], beginnings=[(4287, False, -1)])
    def test_matches_level_counts(self, name, lengths, random, beginnings):
        alpha = ALPHA_BITS[name]
        q = block_length(alpha)
        N_list = sorted({min(N, q - 1) for N in lengths})  # from [1] up to q - 1
        n = N_list[-1]
        # on the beginnings -k*alpha and 1/2 - k*alpha, and one unit either side
        on = [(-(k % n) * alpha + half * HALF + d) % MODULUS for k, half, d in beginnings]
        assert cell_table(alpha, n, N_list) is not None
        with mock.patch.object(walk_module, "_CHUNK_ENTRIES", 1 << 6):  # several chunks
            assert_theta_counts_match_level_counts(alpha, N_list, random + on)

    @pytest.mark.parametrize("k", [0, 1, 499, 500, 777])
    @pytest.mark.parametrize("half", [0, HALF])
    @pytest.mark.parametrize("offset", [-300, -1, 0, 1, 300])
    def test_beginnings_sharing_a_top_word(self, k, half, offset):
        assert block_length(TIE_ALPHA) == 1000
        assert cell_table(TIE_ALPHA, 999, [1, 500, 999]) is not None
        assert_theta_counts_match_level_counts(TIE_ALPHA, [1, 500, 999],
                                               [(-k * TIE_ALPHA + half + offset) % MODULUS])

    # the cell table (N < q, N = 1 included); a direct walk (WIDE's cell
    # table would not fit, and it has no block table); the block table (N >= q)
    @pytest.mark.parametrize("alpha, N_list, path", [
        (ALPHA_BITS["golden"], [1], "cells"),
        (ALPHA_BITS["golden"], [1, 64, 10945], "cells"),
        (ALPHA_BITS["cf8"], [7, 4288], "cells"),
        (WIDE.bits, [64, 2048], "direct"),
        (ALPHA_BITS["golden"], [10946], "blocks"),
        (ALPHA_BITS["golden"], [100, 10946, 20000], "blocks"),
        (ALPHA_BITS["cf8"], [4289, 10**5], "blocks"),
    ])
    def test_every_path(self, alpha, N_list, path, monkeypatch):
        monkeypatch.setattr(walk_module, "_CHUNK_ENTRIES", 1 << 8)  # several chunks
        thetas = [t.bits for t in theta_points(sample_thetas(24, 3))] + [0, MODULUS - 1]
        per_theta, one = [], walk_module.level_counts
        with mock.patch.object(walk_module, "level_counts",
                               lambda theta, *args: per_theta.append(theta) or one(theta, *args)):
            chunks = list(theta_counts(FixedAngle(alpha),
                                       theta_words([FixedAngle(t) for t in thetas]), N_list))
        # off the cell table, no theta goes through level_counts
        assert per_theta == ([] if path == "cells" else thetas)
        assert (len(chunks) < len(thetas)) == (path == "cells")
        if path != "cells":
            assert (block_table(alpha) is not None and N_list[-1] >= block_length(alpha)) == (
                path == "blocks")
        assert_theta_counts_match_level_counts(alpha, N_list, thetas)

    def test_no_thetas_no_table(self, golden, monkeypatch):
        monkeypatch.setattr(walk_module, "cell_table", None)  # not called
        assert list(theta_counts(golden, theta_words([]), [64])) == []

    def test_routes_share_one_table(self, golden, monkeypatch):
        # reduced and mc over one alpha and N list read one cached cell table
        build, builds = walk_module._cell_table, []
        monkeypatch.setattr(walk_module, "_cell_table",
                            lambda *args: builds.append(args[:2]) or build(*args))
        monkeypatch.setattr(walk_module, "_tables", OrderedDict())
        _, e = make_desk_schedule(PAIRS)
        N_list = [64, 128, 256, 331, 512, 1024, 2048]
        reduced_average_series(golden, e, None, N_list, 1000, 1)
        mc_triple_average(golden, e, N_list, 1000, 1)
        assert builds == [(golden.bits, 2048)]

    def test_fallbacks(self, golden):
        q = block_length(golden.bits)
        assert cell_table(golden.bits, q - 1, [q - 1]) is not None
        assert cell_table(WIDE.bits, 2048, [64, 2048]) is None


def routes_match(e, alpha, N_list, n_theta, seed, b_filter, fault_inject, sampled_reference,
                 window_radius=None):
    got = reduced_average_series(alpha, e, b_filter, N_list, n_theta, seed).to_csv()
    assert got == sampled_reference.reduced(alpha, e, b_filter, N_list, n_theta, seed).to_csv()
    mc_args = dict(b_filter=b_filter, window_radius=window_radius, fault_inject=fault_inject)
    got = mc_triple_average(alpha, e, N_list, n_theta, seed, **mc_args).to_csv()
    assert got == sampled_reference.mc(alpha, e, N_list, n_theta, seed, **mc_args).to_csv()


class TestSampledRoutesMatchPerThetaLoop:
    @pytest.mark.parametrize("seed", [1, 7, 2**40])
    @pytest.mark.parametrize("filtered", [False, True])
    @pytest.mark.parametrize("fault_inject", [False, True])
    def test_csv_bytes(self, golden, seed, filtered, fault_inject, sampled_reference,
                       monkeypatch):
        monkeypatch.setattr(walk_module, "_CHUNK_ENTRIES", 1 << 10)  # several chunks
        _, e = make_desk_schedule(PAIRS)
        b_filter = QuantileFilter(q=0.1, horizon=1024) if filtered else None
        routes_match(e, golden, [1, 64, 331, 1024], 200, seed, b_filter, fault_inject,
                     sampled_reference)

    @pytest.mark.parametrize("N_list", [[64, 2048], [100, 20000]])
    def test_fallback_alphas(self, N_list, sampled_reference):
        # WIDE's table would be too large; at 20000 >= q golden walks blocks
        _, e = make_desk_schedule(PAIRS)
        routes_match(e, WIDE, N_list, 32, 5, QuantileFilter(q=0.25, horizon=256), True,
                     sampled_reference, window_radius=N_list[-1])
        routes_match(e, resolve_alpha(ALPHAS["golden"]), N_list, 32, 5, None, False,
                     sampled_reference)


def band_of(theta, alpha, N):
    v_min, counts = level_counts(theta.bits, alpha.bits, [N])
    return v_min, v_min + counts.shape[1] - 1


class BandFilter:
    """Accept the thetas whose walk of N steps stays within [-W, W]."""

    def __init__(self, N, W):
        self.N, self.W = N, W

    def select(self, thetas, alpha):
        return np.array([max(-lo, hi) <= self.W
                         for lo, hi in (band_of(t, alpha, self.N) for t in theta_points(thetas))])


class TestMcWindowPerTheta:
    # the first offender is theta 0 at W = 2, theta 4 at W = 3 and 4 (theta 3
    # also reaches past 3, but is rejected) and theta 8 at W = 5
    @pytest.mark.parametrize("W", [2, 3, 4, 5, 6, 7])
    def test_first_offending_theta_raises_as_before(self, golden, W, sampled_reference):
        _, e = make_desk_schedule(PAIRS)
        # reject a few thetas up front so the first offender is not always theta 0
        b_filter = QuantileFilter(q=0.2, horizon=2048)
        args = (golden, e, [64, 2048], 64, 11)
        try:
            expected = sampled_reference.mc(*args, b_filter=b_filter, window_radius=W)
        except WindowExceeded as ref:
            with pytest.raises(WindowExceeded) as info:
                mc_triple_average(*args, b_filter=b_filter, window_radius=W)
            assert str(info.value) == str(ref)
            assert info.value.height == ref.height
        else:
            got = mc_triple_average(*args, b_filter=b_filter, window_radius=W)
            assert got.to_csv() == expected.to_csv()

    def test_window_narrower_than_table_band(self, golden, sampled_reference):
        # rejected thetas reach past W, and so does the cell table; every
        # accepted theta stays within W, so nothing raises
        N, W = 2048, 5
        cells = cell_table(golden.bits, N, [64, N])
        thetas = theta_points(sample_thetas(64, 13))
        bands = [band_of(t, golden, N) for t in thetas]
        assert cells.span > W
        assert any(max(-lo, hi) > W for lo, hi in bands)
        assert any(max(-lo, hi) <= W for lo, hi in bands)
        _, e = make_desk_schedule(PAIRS)
        args = (golden, e, [64, N], 64, 13)
        got = mc_triple_average(*args, b_filter=BandFilter(N, W), window_radius=W)
        expected = sampled_reference.mc(*args, b_filter=BandFilter(N, W), window_radius=W)
        assert got.to_csv() == expected.to_csv()


class TestNoPointPerTheta:
    # a sampled route carries its thetas as one word array, so it builds no
    # FixedAngle per theta
    @pytest.mark.parametrize("route", ["reduced", "mc", "ergodicity"])
    def test_sampled_routes_build_no_fixed_angle(self, golden, route, monkeypatch):
        _, e = make_desk_schedule(PAIRS)
        cyl = CylinderSpec(constraints=((0, 1),))
        run = {
            "reduced": lambda: reduced_average_series(golden, e, None, [64, 2048], 1000, 3),
            "mc": lambda: mc_triple_average(golden, e, [64, 2048], 1000, 3),
            "ergodicity": lambda: ergodicity_correlation(golden, cyl, cyl, 2048, 1000, 3),
        }[route]
        built = []
        check = FixedAngle.__post_init__
        monkeypatch.setattr(FixedAngle, "__post_init__",
                            lambda self: built.append(self) or check(self))
        run()
        assert built == []
