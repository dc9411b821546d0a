import numpy as np
import pytest

from discwalk import (
    CylinderSpec,
    ESet,
    EmptyAfterFilter,
    FixedAngle,
    SymbolWindow,
    SymbolicPoint,
    WindowExceeded,
    advance,
    apply_S,
    apply_T,
    apply_pi_E,
    make_desk_schedule,
    mc_triple_average,
    sample_omega,
    triple_indicator,
)
from discwalk.rotation import MODULUS, walk_heights
from discwalk.symbolic import default_window_radius, omega_windows

ZERO = FixedAngle(0)


def random_angles(n, seed):
    rng = np.random.default_rng(seed)
    return [FixedAngle(int(b) % MODULUS)
            for b in rng.integers(0, 1 << 63, size=n)]


@pytest.fixture(scope="module")
def e_small():
    _, e = make_desk_schedule([(2, 3)])  # +/-[2, 5]
    return e


class TestSymbolWindow:
    def test_read_and_shift(self):
        w = SymbolWindow(values=np.array([-1, 1, -1], dtype=np.int8))
        assert w.read(-1) == -1 and w.read(0) == 1 and w.read(1) == -1
        shifted = w.shift(1)
        assert shifted.read(0) == -1  # original coordinate 1
        assert shifted.read(-1) == 1

    def test_out_of_window_read_fails(self):
        w = SymbolWindow(values=np.array([1], dtype=np.int8))
        with pytest.raises(WindowExceeded):
            w.read(1)

    def test_shift_moves_no_data(self):
        w = sample_omega(4, 1)
        assert w.shift(2).values is w.values


class TestSampleOmega:
    def test_radius_zero_single_symbol(self):
        w = sample_omega(0, 123)
        assert len(w.values) == 1 and w.read(0) in (-1, 1)

    def test_same_seed_identical(self):
        assert sample_omega(8, 7) == sample_omega(8, 7)
        assert sample_omega(8, 7) != sample_omega(8, 8)

    def test_symbol_mean_unbiased(self):
        # one value per seed, binomial standard error 1e-3 at 1e6 draws
        n = 10**6
        rng = np.random.default_rng(0)
        vals = rng.integers(0, 2, size=n, dtype=np.int8) * 2 - 1
        # the window sampler uses the same digit stream; spot-check a slice
        # of per-seed samples on top of the bulk draw
        per_seed = [sample_omega(0, s).read(0) for s in range(2000)]
        assert abs(np.mean(vals)) <= 0.004
        assert abs(np.mean(per_seed)) <= 5 * (1 / np.sqrt(2000))


class TestOmegaWindows:
    # the reference a vectorised draw must keep: one generator per sample,
    # seeded by the spawn key (tag, index), drawing 2r + 1 bits
    @pytest.mark.parametrize("seed", [0, 1, 53, 2**64 + 3])
    @pytest.mark.parametrize("tag", [1, 2])
    @pytest.mark.parametrize("radius", [0, 3, 60])
    def test_rows_match_one_generator_per_sample(self, seed, tag, radius):
        idx = np.array([0, 1, 2, 7, 1000, 2**31, 2**32 - 1])
        windows = omega_windows(seed, tag, idx, radius)
        assert windows.dtype == np.int8 and windows.shape == (len(idx), 2 * radius + 1)
        for row, i in zip(windows, idx.tolist()):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(tag, i)))
            expected = rng.integers(0, 2, size=2 * radius + 1, dtype=np.int8) * 2 - 1
            assert row.tobytes() == expected.tobytes()
        # a row depends on its own index only
        assert omega_windows(seed, tag, range(3), radius).tobytes() == windows[:3].tobytes()
        assert omega_windows(seed, tag, [], radius).shape == (0, 2 * radius + 1)


class TestApplyT:
    def test_iterated_matches_cocycle_offset(self, golden):
        # the window offset after n steps is the walk height phi_n
        for theta in random_angles(20, 5):
            n = 300
            heights = walk_heights(theta.bits, golden.bits, n + 1)
            p = SymbolicPoint(theta, sample_omega(32, 9))
            for k in range(n):
                p = apply_T(p, golden)
            assert p.window.offset == heights[n]
            assert p.theta == advance(theta, golden, n)

    def test_two_steps_net_zero_shift(self, golden):
        p = SymbolicPoint(ZERO, sample_omega(4, 2))
        p = apply_T(apply_T(p, golden), golden)
        assert p.window.offset == 0

    def test_radius_zero_shift_fails(self, golden):
        p = SymbolicPoint(ZERO, sample_omega(0, 2))
        with pytest.raises(WindowExceeded):
            apply_T(p, golden)


class TestApplyPiE:
    def test_full_set_identity(self):
        w = sample_omega(6, 3)
        assert apply_pi_E(w, ESet.all_integers()) == w

    def test_empty_set_global_flip(self):
        w = sample_omega(6, 3)
        flipped = apply_pi_E(w, ESet.empty())
        assert np.array_equal(flipped.values, -w.values)

    def test_selective_flip(self, e_small):
        w = sample_omega(6, 3)
        out = apply_pi_E(w, e_small)
        assert out.read(3) == w.read(3)  # 3 in E: preserved
        assert out.read(0) == -w.read(0)  # 0 not in E: flipped

    def test_flip_respects_current_coordinates(self, e_small):
        # after a shift the flip pattern follows the function s -> w(s)
        w = sample_omega(8, 4).shift(2)
        out = apply_pi_E(w, e_small)
        assert out.read(3) == w.read(3)
        assert out.read(0) == -w.read(0)

    def test_involution(self, e_small):
        for seed in range(50):
            w = sample_omega(8, seed).shift(seed % 5 - 2)
            assert apply_pi_E(apply_pi_E(w, e_small), e_small) == w


class TestApplyS:
    def test_full_set_reduces_to_T(self, golden):
        p = SymbolicPoint(ZERO, sample_omega(4, 2))
        s = apply_S(p, golden, ESet.all_integers())
        t = apply_T(p, golden)
        assert s.theta == t.theta and s.window == t.window

    def test_theta_coordinate_matches_rotation(self, golden, e_small):
        for theta in random_angles(10, 6):
            p = SymbolicPoint(theta, sample_omega(8, 1))
            assert apply_S(p, golden, e_small).theta == advance(theta, golden, 1)

    def test_orbit_symbol_at_origin(self, golden, e_small):
        # coordinate 0 of the S-orbit is eps_0 * eps_h * omega(h): the inner
        # conjugation reads omega at the walk height h (flipped when h is
        # outside E), and the outer flip contributes eps_0 = -1 since 0 is
        # never in a valid interval set
        for i, theta in enumerate(random_angles(20, 7)):
            n = 64
            omega = sample_omega(32, 100 + i)
            h = int(walk_heights(theta.bits, golden.bits, n + 1)[n])
            q = SymbolicPoint(theta, omega)
            for _ in range(n):
                q = apply_S(q, golden, e_small)
            pi_omega_h = omega.read(h) if e_small.contains(h) else -omega.read(h)
            assert q.window.read(0) == -pi_omega_h


class TestCylinderSpec:
    def test_measure(self):
        assert CylinderSpec(constraints=()).measure == 1.0
        assert CylinderSpec(constraints=((0, 1), (3, -1))).measure == 0.25

    def test_distinct_coordinates_required(self):
        with pytest.raises(ValueError):
            CylinderSpec(constraints=((0, 1), (0, -1)))

    def test_symbols_validated(self):
        with pytest.raises(ValueError):
            CylinderSpec(constraints=((0, 2),))

    def test_holds(self):
        w = SymbolWindow(values=np.array([-1, 1, -1], dtype=np.int8))
        assert CylinderSpec(constraints=((0, 1),)).holds(w)
        assert not CylinderSpec(constraints=((1, 1),)).holds(w)

    def test_orbit_frequency_matches_measure(self, golden):
        # statistical measure preservation: T-orbit membership frequency in
        # a fixed cylinder matches its Bernoulli measure within 4 sigma
        cyl = CylinderSpec(constraints=((0, 1), (1, -1)))
        N = 2000
        W = default_window_radius(N)
        hits = total = 0
        for i, theta in enumerate(random_angles(50, 8)):
            omega = sample_omega(W, 500 + i)
            heights = walk_heights(theta.bits, golden.bits, N)
            vals0 = omega.values[heights + W]
            vals1 = omega.values[heights + 1 + W]
            hits += int(np.count_nonzero((vals0 == 1) & (vals1 == -1)))
            total += N
        se = np.sqrt(0.25 * 0.75 / total)
        # orbit samples are correlated; allow a generous multiple
        assert abs(hits / total - 0.25) <= 20 * se


class TestTripleIndicator:
    def test_n0_zero_outside_e(self, golden, e_small):
        for seed in range(8):
            assert triple_indicator(ZERO, sample_omega(8, seed), golden,
                                    e_small, 0) == 0

    def test_n0_with_zero_in_e(self, golden):
        e = ESet.all_integers()
        for seed in range(16):
            omega = sample_omega(8, seed)
            assert triple_indicator(ZERO, omega, golden, e, 0) == (omega.read(0) == 1)

    def test_height_in_e_reads_symbol(self, golden, e_small):
        # find a (theta, n) whose height is 3, inside +/-[2,5]
        theta = random_angles(50, 9)[0]
        heights = walk_heights(theta.bits, golden.bits, 200)
        candidates = np.nonzero(heights == 3)[0]
        assert len(candidates) > 0
        n = int(candidates[0])
        for seed in range(8):
            omega = sample_omega(32, seed)
            assert triple_indicator(theta, omega, golden, e_small, n) == (
                omega.read(3) == 1)


class TestMcTripleAverage:
    def test_empty_e_exact_zero(self, golden):
        series = mc_triple_average(golden, ESet.empty(), [16, 64], 64, seed=2)
        assert series.values() == [0.0, 0.0]

    def test_full_e_half_within_3_sigma(self, golden):
        series = mc_triple_average(golden, ESet.all_integers(), [256], 512, seed=3)
        entry = series.at(256)
        assert abs(entry.value - 0.5) <= 3 * entry.stderr

    def test_unsorted_n_list_rejected(self, golden):
        with pytest.raises(ValueError):
            mc_triple_average(golden, ESet.empty(), [64, 16], 64, seed=2)

    def test_threaded_callers_match_serial_call(self, golden, e_small, from_threads):
        def call():
            return mc_triple_average(golden, e_small, [64, 256], 128, seed=5).values()

        serial = call()
        assert all(r == serial for r in from_threads(call))

    def test_fault_injection_shifts_estimate(self, golden, e_small):
        good = mc_triple_average(golden, e_small, [256], 256, seed=6)
        bad = mc_triple_average(golden, e_small, [256], 256, seed=6,
                                fault_inject=True)
        assert abs(good.at(256).value - bad.at(256).value) > 6 * (
            good.at(256).stderr + bad.at(256).stderr)

    def test_filter_rejecting_every_theta(self, golden, e_small):
        class RejectAll:
            def select(self, thetas, alpha):
                return np.zeros(len(thetas), dtype=bool)

        with pytest.raises(EmptyAfterFilter):
            mc_triple_average(golden, e_small, [64], 32, seed=8, b_filter=RejectAll())

    def test_tight_window_reports_height(self, golden, e_small, sampled_reference):
        with pytest.raises(WindowExceeded) as info:
            mc_triple_average(golden, e_small, [4096], 64, seed=7, window_radius=2)
        assert abs(info.value.height) > 2
        with pytest.raises(WindowExceeded) as ref:
            sampled_reference.mc(golden, e_small, [4096], 64, seed=7, window_radius=2)
        assert str(info.value) == str(ref.value)
        assert info.value.height == ref.value.height
