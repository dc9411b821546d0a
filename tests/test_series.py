"""walk.theta_counts on every path against each theta's counts alone (the
direct walk, or the block table's kernel on one theta) and against the
walk's heights on the block table, and the sampled routes' output bytes
against the per-theta loop they replaced."""

import tracemalloc
from collections import OrderedDict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import block_table, theta_points, theta_words

from discwalk import CylinderSpec, WindowExceeded, make_desk_schedule, mc_triple_average
from discwalk import symbolic as symbolic_module
from discwalk import walk as walk_module
from discwalk.averages import ergodicity_correlation, reduced_average_series
from discwalk.filters import QuantileFilter
from discwalk.rotation import HALF, MODULUS, AlphaSpec, FixedAngle, resolve_alpha, walk_heights
from discwalk.walk import (block_length, cell_table, sample_thetas, theta_band_counts, theta_counts,
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


def one_theta_counts(alpha_bits, N_list, bits):
    """(v_min, counts) of one theta alone, over its visited band: read off
    the block table by _block_counts when theta_counts reads blocks (N >= q),
    and otherwise walked directly by _walk_counts, which touches no table."""
    theta = theta_words([FixedAngle(bits)])
    table = block_table(alpha_bits)
    if table is not None and N_list[-1] >= block_length(alpha_bits):
        v_min, rows = walk_module._block_counts(table, theta, N_list)
    else:
        v_min, rows = walk_module._walk_counts(alpha_bits, theta, N_list)
    (lo,), (hi,) = visited_band(v_min, rows)
    return int(lo), rows[0, :, lo - v_min:hi - v_min + 1]


def assert_theta_counts_match_one_theta(alpha_bits, N_list, theta_bits):
    """Every theta's row; its visited band, read as the routes read it, and
    every visit inside it, as the theta alone gives them.  Returns
    theta_counts' (v_min, rows, row)."""
    thetas = theta_words([FixedAngle(b) for b in theta_bits])
    v_min, rows, row = theta_counts(FixedAngle(alpha_bits), thetas, N_list)
    assert rows.shape[1] == len(N_list) and row.shape == (len(thetas),)
    bottoms, tops = (v[row].tolist() for v in visited_band(v_min, rows))
    for bits, counts, lo, hi in zip(theta_bits, rows[row], bottoms, tops):
        ref_min, ref = one_theta_counts(alpha_bits, N_list, bits)
        assert (lo, hi) == (ref_min, ref_min + ref.shape[1] - 1)
        assert counts.sum(axis=1).tolist() == N_list
        assert counts[:, lo - v_min:hi - v_min + 1].tolist() == ref.tolist()
    return v_min, rows, row


class TestCellCounts:
    @settings(max_examples=60, deadline=None)
    @given(name=st.sampled_from(sorted(ALPHAS)),
           lengths=st.sets(st.integers(1, 1 << 14), min_size=1, max_size=4),
           random=st.lists(st.integers(0, MODULUS - 1), max_size=3),
           beginnings=st.lists(st.tuples(st.integers(0, 1 << 14), st.booleans(),
                                         st.integers(-1, 1)), max_size=6))
    @example(name="golden", lengths={1}, random=[0, MODULUS - 1], beginnings=[(0, True, 0)])
    @example(name="cf8", lengths={1 << 14}, random=[], beginnings=[(4287, False, -1)])
    def test_matches_direct_walk(self, name, lengths, random, beginnings):
        alpha = ALPHA_BITS[name]
        q = block_length(alpha)
        N_list = sorted({min(N, q - 1) for N in lengths})  # from [1] up to q - 1
        n = N_list[-1]
        # on the beginnings -k*alpha and 1/2 - k*alpha, and one unit either side
        on = [(-(k % n) * alpha + half * HALF + d) % MODULUS for k, half, d in beginnings]
        assert cell_table(alpha, n, N_list) is not None
        assert_theta_counts_match_one_theta(alpha, N_list, random + on)

    @pytest.mark.parametrize("k", [0, 1, 499, 500, 777])
    @pytest.mark.parametrize("half", [0, HALF])
    @pytest.mark.parametrize("offset", [-300, -1, 0, 1, 300])
    def test_beginnings_sharing_a_top_word(self, k, half, offset):
        assert block_length(TIE_ALPHA) == 1000
        assert cell_table(TIE_ALPHA, 999, [1, 500, 999]) is not None
        assert_theta_counts_match_one_theta(TIE_ALPHA, [1, 500, 999],
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
    def test_every_path(self, alpha, N_list, path):
        thetas = [t.bits for t in theta_points(sample_thetas(24, 3))] + [0, MODULUS - 1]
        walked, direct = [], walk_module._walk_counts
        lookups, cells = [], walk_module.CellTable.cells
        with mock.patch.object(walk_module, "_walk_counts",
                               lambda a, words, *args: walked.append(len(words)) or
                               direct(a, words, *args)), \
                mock.patch.object(walk_module.CellTable, "cells",
                                  lambda self, hi, lo: lookups.append(len(hi)) or cells(self, hi, lo)):
            theta_counts(FixedAngle(alpha), theta_words([FixedAngle(b) for b in thetas]), N_list)
        _, rows, row = assert_theta_counts_match_one_theta(alpha, N_list, thetas)
        # only off both tables are the thetas walked, all in one call; on the
        # cell table the rows are the table's hist, with every theta looked
        # up at once; on the block table every block of every theta is, in
        # one chunk here
        assert walked == ([len(thetas)] if path == "direct" else [])
        if path == "cells":
            assert rows is cell_table(alpha, N_list[-1], N_list).hist
            assert lookups == [len(thetas)]
        else:
            assert row.tolist() == list(range(len(thetas)))
            assert (block_table(alpha) is not None and N_list[-1] >= block_length(alpha)) == (
                path == "blocks")
            blocks = -(-N_list[-1] // block_length(alpha))
            assert lookups == ([len(thetas) * blocks] if path == "blocks" else [])

    def test_one_theta_below_q_builds_no_table(self, golden, monkeypatch):
        # one walk shorter than q is walked; two share the cell table
        build, builds = walk_module._cell_table, []
        monkeypatch.setattr(walk_module, "_cell_table",
                            lambda *args: builds.append(args[:2]) or build(*args))
        monkeypatch.setattr(walk_module, "_tables", OrderedDict())
        thetas, N_list = sample_thetas(2, 5), [64, 1000]
        assert N_list[-1] < block_length(golden.bits)
        theta_counts(golden, thetas[:1], N_list)
        assert builds == []
        theta_counts(golden, thetas, N_list)
        assert builds == [(golden.bits, 1000)]

    def test_no_thetas_no_table(self, golden, monkeypatch):
        monkeypatch.setattr(walk_module, "cell_table", None)  # not called
        _, rows, row = theta_counts(golden, theta_words([]), [64])
        assert len(rows) == len(row) == 0

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

    def test_one_lookup_and_one_draw_per_route_call(self, golden, monkeypatch):
        # the benchmark's routes_short shape: each route call looks every
        # theta's cell up once, and mc draws every omega in one call
        lookups, draws = [], []
        cells, windows = walk_module.CellTable.cells, symbolic_module.omega_windows
        monkeypatch.setattr(walk_module.CellTable, "cells",
                            lambda self, hi, lo: lookups.append(len(hi)) or cells(self, hi, lo))
        monkeypatch.setattr(symbolic_module, "omega_windows",
                            lambda *args: draws.append(len(args[2])) or windows(*args))
        _, e = make_desk_schedule(PAIRS)
        N_list = [64, 128, 256, 331, 512, 1024, 2048]
        reduced_average_series(golden, e, None, N_list, 10**4, 1)
        assert lookups == [10**4] and draws == []
        mc_triple_average(golden, e, N_list, 10**4, 1)
        assert lookups == [10**4, 10**4] and draws == [10**4]

    def test_one_draw_per_route_call_off_the_table(self, golden, monkeypatch):
        # at max N >= q the thetas are read off the block table, and mc
        # still asks for its level table, and so draws every omega, in one call
        draws, windows = [], symbolic_module.omega_windows
        monkeypatch.setattr(symbolic_module, "omega_windows",
                            lambda *args: draws.append(len(args[2])) or windows(*args))
        _, e = make_desk_schedule(PAIRS)
        assert 20000 >= block_length(golden.bits)
        mc_triple_average(golden, e, [64, 256, 20000], 500, 1)
        assert draws == [500]

    def test_direct_walk_peak(self):
        # each theta's counts wait as int32 over its own band until the rows
        # are allocated; stacking them as int64 peaked at 1.51x the rows
        thetas = sample_thetas(64, 1)
        N_list = [64, 2048, 40000]
        tracemalloc.start()
        try:
            _, rows, _ = theta_counts(WIDE, thetas, N_list)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert rows.shape[2] > 2000 and peak < 1.45 * rows.nbytes

    def test_fallbacks(self, golden):
        q = block_length(golden.bits)
        assert cell_table(golden.bits, q - 1, [q - 1]) is not None
        assert cell_table(WIDE.bits, 2048, [64, 2048]) is None


def assert_rows_match_heights(alpha_bits, N_list, theta_bits):
    """theta_counts' rows against a bincount of each theta's heights.  The
    rows' band holds every theta's visited band, which visited_band reads,
    and exceeds the union of those bands by at most 2 * span; returns the
    excess."""
    thetas = theta_words([FixedAngle(b) for b in theta_bits])
    v_min, rows, row = theta_counts(FixedAngle(alpha_bits), thetas, N_list)
    heights = [walk_heights(b, alpha_bits, N_list[-1]) for b in theta_bits]
    width = rows.shape[2]
    lo, hi = min(int(h.min()) for h in heights), max(int(h.max()) for h in heights)
    assert v_min <= lo and hi <= v_min + width - 1
    excess = width - (hi - lo + 1)
    assert excess <= 2 * block_table(alpha_bits).span
    assert [(int(h.min()), int(h.max())) for h in heights] == list(
        zip(*(v.tolist() for v in visited_band(v_min, rows))))
    assert rows.shape == (len(thetas), len(N_list), width) and rows.dtype == np.int64
    assert row.tolist() == list(range(len(thetas)))
    for h, counts in zip(heights, rows):
        for n, got in zip(N_list, counts):
            assert np.array_equal(got, np.bincount(h[:n] - v_min, minlength=width))
    return excess


BLOCK_ALPHAS = {name: ALPHA_BITS[name] for name in ("golden", "cf8", "sqrt3m1")}
BLOCK_ALPHAS["tie"] = TIE_ALPHA


class TestBlockCounts:
    """Every theta's blocks read off the block table at once (N >= q)."""

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(BLOCK_ALPHAS)),
           random=st.lists(st.integers(0, MODULUS - 1), max_size=3),
           blocks=st.integers(1, 6), final=st.floats(0, 1))
    @example(name="golden", random=[], blocks=1, final=1.0)
    @example(name="cf8", random=[2**127], blocks=3, final=0.0)
    def test_band_holds_every_walk(self, name, random, blocks, final):
        # the final block cut anywhere, or walked to its end
        alpha = BLOCK_ALPHAS[name]
        q = block_length(alpha)
        N = (blocks - 1) * q + max(1, round(final * q))
        thetas = [t.bits for t in theta_points(sample_thetas(6, blocks))]
        N_list = [N] if N >= q else [N, q]
        excess = assert_rows_match_heights(alpha, N_list, thetas + random)
        # every block walked to its end gives its cell's band exactly
        assert excess == 0 or N_list[-1] % q

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(BLOCK_ALPHAS)),
           random=st.lists(st.integers(0, MODULUS - 1), max_size=3),
           beginnings=st.lists(st.tuples(st.integers(0, 1 << 14), st.booleans(),
                                         st.integers(-1, 1), st.integers(0, 4)), max_size=4),
           near=st.sets(st.tuples(st.integers(1, 5), st.integers(-1, 1)), min_size=1,
                        max_size=4),
           inside=st.sets(st.integers(1, 1 << 14), max_size=3))
    @example(name="tie", random=[], beginnings=[(0, False, 0, 0), (500, True, 0, 2)],
             near={(1, -1), (1, 0), (1, 1), (3, 0)}, inside=set())
    @example(name="golden", random=[2**127], beginnings=[], near={(1, 0)}, inside={1, 64})
    def test_matches_bincount_of_heights(self, name, random, beginnings, near, inside):
        alpha = BLOCK_ALPHAS[name]
        q = block_length(alpha)
        assert block_table(alpha) is not None
        # the start of block b on a beginning -k*alpha or 1/2 - k*alpha of
        # the table's cells, or one unit either side
        on = [(-(k % q) * alpha + half * HALF + d - b * q * alpha) % MODULUS
              for k, half, d, b in beginnings]
        # at, just before and just after multiples of q, and inside block 0
        N_list = sorted({k * q + d for k, d in near} | {n for n in inside if n < q})
        if N_list[-1] < q:
            N_list.append(q)
        assert_rows_match_heights(alpha, N_list, [0, MODULUS - 1] + random + on)

    @settings(max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(ALPHAS)),
           cuts=st.lists(st.tuples(st.integers(0, 3),
                                   st.one_of(st.sampled_from(["one", "last", "whole"]),
                                             st.floats(0, 1))), max_size=5),
           inside=st.lists(st.floats(0, 1), max_size=3), final=st.integers(0, 4),
           short=st.one_of(st.none(), st.floats(0, 1)),
           random=st.lists(st.integers(0, MODULUS - 1), max_size=3), many=st.booleans())
    @example(name="golden", cuts=[(0, "one"), (0, "last"), (1, "whole"), (2, 0.5)],
             inside=[0.1, 0.2, 0.3], final=3, short=0.25, random=[], many=True)
    @example(name="cf8", cuts=[], inside=[], final=0, short=None, random=[2**127], many=False)
    def test_pieces_match_direct_walk(self, name, cuts, inside, final, short, random, many):
        # checkpoints at offset 1 or q - 1 into a block, on a multiple of q,
        # anywhere inside it, several inside one block (`inside`, in the
        # final one), and the final block whole or cut short
        alpha = ALPHA_BITS[name]
        q = block_length(alpha)
        table = block_table(alpha)
        assert table is not None and table.hist.size == 0

        def offset(where):
            if isinstance(where, str):
                return {"one": 1, "last": q - 1, "whole": 0}[where]
            return min(q - 1, max(1, round(where * q)))

        N = final * q + (q if short is None else min(q, max(1, round(short * q))))
        N_list = sorted({min(N, b * q + offset(w)) for b, w in cuts if b * q + offset(w)}
                        | {min(N, final * q + max(1, round(f * q))) for f in inside} | {N})
        thetas = theta_words([FixedAngle(b) for b in ([0, MODULUS - 1] + random if many
                                                      else (random or [MODULUS - 1])[:1])])
        got_min, got = walk_module._block_counts(table, thetas, N_list)
        ref_min, ref = walk_module._walk_counts(alpha, thetas, N_list)
        assert got.shape[:2] == ref.shape[:2] == (len(thetas), len(N_list))
        bands = list(zip(*visited_band(ref_min, ref)))
        assert list(zip(*visited_band(got_min, got))) == bands
        for t, (lo, hi) in enumerate(bands):
            assert np.array_equal(got[t, :, lo - got_min:hi - got_min + 1],
                                  ref[t, :, lo - ref_min:hi - ref_min + 1])
            assert got[t].sum(axis=1).tolist() == N_list

    @pytest.mark.parametrize("name", sorted(ALPHAS))
    def test_block_table_holds_running_counts(self, name):
        # the cached block table holds no whole-block histograms; its running
        # counts give each cell's band over q heights, as the histograms did
        alpha = ALPHA_BITS[name]
        q = block_length(alpha)
        table = block_table(alpha)
        assert walk_module._tables[(alpha, q, ())] is table
        assert table.hist.shape == (2 * q, 0, 2 * table.span + 1)
        levels = np.arange(int(table.P.min()), int(table.P.max()) + 1)
        assert table.running.dtype == np.uint16 and len(levels) == table.span + 1
        assert np.array_equal(table.running, np.cumsum(
            np.vstack([np.zeros_like(levels), table.P[:, None] == levels]), axis=0))
        with_hist = walk_module._cell_table(alpha, q, [q])
        bottom, top = visited_band(-with_hist.span, with_hist.hist)
        assert table.bottom.tolist() == bottom.tolist() and table.top.tolist() == top.tolist()

    @pytest.mark.parametrize("name", sorted(BLOCK_ALPHAS))
    def test_one_theta(self, name):
        alpha = BLOCK_ALPHAS[name]
        q = block_length(alpha)
        assert_rows_match_heights(alpha, [q - 1, q, q + 1], [2**127 + 12345])

    @pytest.mark.parametrize("N_list", [
        lambda q: [1, 5, q // 2, q],  # the one block, whole
        lambda q: [1, q // 3, q - 1, 3 * q + 5],  # all but the last in block 0
    ])
    def test_checkpoints_in_block_zero(self, golden, N_list):
        q = block_length(golden.bits)
        thetas = [t.bits for t in theta_points(sample_thetas(6, 8))] + [0, MODULUS - 1]
        assert_rows_match_heights(golden.bits, N_list(q), thetas)

    # (blocks, thetas) per chunk.  No run reads 3 blocks of 3 thetas a
    # chunk: a chunk of fewer blocks than a walk has holds fewer entries
    # than one theta's pieces' levels, so it holds one theta
    @pytest.mark.parametrize("block_chunk, per_chunk", [(3, 1), (None, 1), (None, 3)])
    def test_chunks(self, golden, monkeypatch, per_chunk, block_chunk):
        q = block_length(golden.bits)
        N_list = [5, 2 * q + 1, 5 * q, 11 * q + 7]
        # 12 blocks, the last one short; 5 and 2q + 1 cut blocks 0 and 2, so
        # each theta reads 14 pieces.  A chunk holds _CHUNK_ENTRIES //
        # levels blocks' P levels (span + 1 each), and as many thetas as
        # their pieces' P levels and their 4 checkpoint rows over a block's
        # 2 * span + 1 levels fill: per_chunk thetas, and 3 blocks or all 12
        table = block_table(golden.bits)
        blocks, pieces, levels = 12, 14, table.span + 1
        entries = pieces * levels + len(N_list) * (2 * table.span + 1)
        monkeypatch.setattr(walk_module, "_CHUNK_ENTRIES",
                            block_chunk * levels if block_chunk else per_chunk * entries)
        lookups, cells = [], walk_module.CellTable.cells
        monkeypatch.setattr(walk_module.CellTable, "cells",
                            lambda self, hi, lo: lookups.append(len(hi)) or cells(self, hi, lo))
        thetas = [t.bits for t in theta_points(sample_thetas(5, 9))] + [0, MODULUS - 1]
        assert_rows_match_heights(golden.bits, N_list, thetas)
        # one pass for the common band, one to count: each looks every
        # chunk of thetas and of blocks up once, unless the first pass keeps
        # its cells, at most _CHUNK_ENTRIES of them
        passes = 1 if len(thetas) * blocks <= walk_module._CHUNK_ENTRIES else 2
        assert passes == (1 if block_chunk is None else 2)
        theta_chunks = -(-len(thetas) // per_chunk)
        block_chunks = -(-blocks // (block_chunk or blocks))
        assert len(lookups) == passes * theta_chunks * block_chunks
        assert sum(lookups) == passes * len(thetas) * blocks

    def test_desk_looks_every_block_up_once(self, monkeypatch, pinned):
        # criterion 3's desk walks: 25 cf8 thetas to 10**6, 234 blocks each,
        # in more than one chunk of thetas; the first pass keeps its cells
        pin = pinned["desk_oscillation"]
        alpha = ALPHA_BITS["cf8"]
        thetas = sample_thetas(25, pin["seed"])
        blocks = -(-pin["N_list"][-1] // block_length(alpha))
        assert blocks == 234 and len(thetas) * blocks <= walk_module._CHUNK_ENTRIES
        lookups, cells = [], walk_module.CellTable.cells
        monkeypatch.setattr(walk_module.CellTable, "cells",
                            lambda self, hi, lo: lookups.append(len(hi)) or cells(self, hi, lo))
        theta_counts(FixedAngle(alpha), thetas, pin["N_list"])
        assert len(lookups) > 1 and sum(lookups) == len(thetas) * blocks

    def test_rows_built_in_place(self, golden):
        # rows is the one array of the thetas' size: nothing stacks per-theta
        # counts beside it
        thetas = sample_thetas(2000, 1)
        N_list = [64, 256, 331, 512, 20000]
        theta_counts(golden, thetas[:2], N_list)  # builds the block table
        tracemalloc.start()
        try:
            _, rows, _ = theta_counts(golden, thetas, N_list)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * rows.nbytes

    @pytest.mark.parametrize("N_list", [
        [64, 256, 331, 512, 20000],  # off the block table
        [64, 256, 331, 512, 2048],  # the cell table's hist rows
    ])
    def test_band_gathered_alone(self, golden, N_list):
        # the +/-v_max band is one gather of the levels both bands hold:
        # nothing beside theta_counts' rows copies them whole
        thetas = sample_thetas(2000, 1)
        _, rows, row = theta_counts(golden, thetas, N_list)  # builds the table
        tracemalloc.start()
        try:
            theta_band_counts(golden, thetas, N_list, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * rows[row].nbytes

    def test_ergodicity_looks_every_block_up_at_once(self, golden, monkeypatch):
        # the README example: N = 10**5 takes 10 of golden's blocks, and 194
        # of the 400 samples lie in cylinder A
        lookups, cells = [], walk_module.CellTable.cells
        monkeypatch.setattr(walk_module.CellTable, "cells",
                            lambda self, hi, lo: lookups.append(len(hi)) or cells(self, hi, lo))
        cylinder = CylinderSpec(constraints=((0, 1),))
        ergodicity_correlation(golden, cylinder, cylinder, 10**5, 400, 13)
        assert lookups == [194 * 10]


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
    v_min, rows = walk_module._walk_counts(alpha.bits, theta_words([theta]), [N])
    return v_min, v_min + rows.shape[2] - 1


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
