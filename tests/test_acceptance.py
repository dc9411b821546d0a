"""Acceptance gate: one test (one pass/fail line under pytest -v) per criterion.

Pinned numeric references live in tests/pinned.json; every pinned run is
deterministic given its recorded seed, so reproduction tolerances are about
honesty of the pin, not run-to-run noise.
"""

import math
import time
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from conftest import theta_points

from discwalk import (
    AlphaSpec,
    CylinderSpec,
    FixedAngle,
    Interval,
    LogNum,
    Schedule,
    SymbolicPoint,
    advance,
    apply_S,
    apply_T,
    apply_pi_E,
    ergodicity_correlation,
    estimate_constants,
    exact_average_series,
    exact_level_measures,
    generate_paper_schedule,
    make_desk_schedule,
    mc_triple_average,
    oscillation_report,
    ratio_check,
    reduced_average_series,
    resolve_alpha,
    run_walk,
    sample_omega,
    sample_thetas,
    verify_schedule,
    zero_entropy_proxy,
)
from discwalk.rotation import MODULUS, walk_heights
from discwalk.walk import occupation_band

C2 = lambda v: LogNum(exact=2)  # noqa: E731


def report(n, text):
    print(f"\nACCEPTANCE {n}: PASS — {text}")


def test_criterion_1_three_route_agreement(golden):
    start = time.time()
    _, e = make_desk_schedule([(2, 6), (30, 300)])  # E = +/-[2,8] U +/-[30,330]
    N_list = [64, 256, 512]
    exact, _ = exact_average_series(golden, e, N_list)
    reduced = reduced_average_series(golden, e, None, N_list, 10**4, seed=101)
    mc = mc_triple_average(golden, e, N_list, 10**4, seed=102)
    routes = {"exact": exact, "reduced": reduced, "mc": mc}
    names = sorted(routes)
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            for N in N_list:
                ea, eb = routes[a].at(N), routes[b].at(N)
                tol = 3 * math.hypot(ea.stderr, eb.stderr)
                assert abs(ea.value - eb.value) <= tol, (
                    f"{a} vs {b} at N={N}: {ea.value} vs {eb.value}, tol {tol}")
    elapsed = time.time() - start
    assert elapsed <= 120
    report(1, f"exact/reduced/mc agree pairwise within 3 sigma at N={N_list} "
              f"({elapsed:.0f}s)")


def test_criterion_2_exact_values_regression(golden):
    levels = exact_level_measures(golden, 2)
    with mpmath.workdps(60):
        alpha = (mpmath.sqrt(5) - 1) / 2
        tol = mpmath.mpf(2) ** -100
        for measured, expected in (
            (levels[0], 2 * (1 - alpha)),
            (levels[2], alpha - mpmath.mpf(1) / 2),
            (levels[-2], alpha - mpmath.mpf(1) / 2),
        ):
            val = mpmath.mpf(measured.numerator) / measured.denominator
            assert abs(val - expected) <= tol
    # the fixed-point computation is exact relative to the quantized alpha
    a_hat = Fraction(golden.bits, MODULUS)
    assert levels[0] == 2 * (1 - a_hat)
    assert levels[2] == levels[-2] == a_hat - Fraction(1, 2)
    report(2, "m(phi_2=0)=2(1-alpha), m(phi_2=+/-2)=alpha-1/2 within 2**-100")


def test_criterion_3_desk_oscillation(pinned):
    start = time.time()
    pin = pinned["desk_oscillation"]
    alpha = resolve_alpha(AlphaSpec(quotients=[8] * 200, bound=8))
    schedule, e = make_desk_schedule([tuple(p) for p in pin["pairs"]])
    series = reduced_average_series(alpha, e, None, pin["N_list"],
                                    pin["n_theta"], pin["seed"])
    osc = oscillation_report(series, schedule).oscillation
    assert osc >= 0.10
    assert osc == pytest.approx(pin["oscillation"], rel=0.05)
    elapsed = time.time() - start
    assert elapsed <= 600
    report(3, f"oscillation {osc:.6f} >= 0.10, within 5% of pinned "
              f"{pin['oscillation']:.6f} ({elapsed:.0f}s)")


def test_criterion_4_paper_schedule_certificate():
    start = time.time()
    schedule = generate_paper_schedule(C2, 10, margin=0.99)
    rep = verify_schedule(schedule, C2)
    assert rep.passed and rep.a_ok
    assert rep.max_ratio <= 0.99
    # mutation testing on the margin=1.0 (greedy-minimal) schedule: one
    # quantum down on any boundary must flip the verdict
    minimal = generate_paper_schedule(C2, 10, margin=1.0)
    assert verify_schedule(minimal, C2).passed
    flips = 0
    for m in range(10):
        for which in ("l", "r"):
            ivs = list(minimal.intervals)
            iv = ivs[m]
            ivs[m] = (Interval(iv.l.bumped_down(), iv.r) if which == "l"
                      else Interval(iv.l, iv.r.bumped_down()))
            mutated = Schedule(mode="paper", intervals=ivs)
            assert not verify_schedule(mutated, C2).passed, (
                f"mutation {which}[{m + 1}] did not flip the verdict")
            flips += 1
    elapsed = time.time() - start
    assert elapsed <= 1.0
    report(4, f"m_max=10 certificate: conditions pass at ratio <= 0.99; "
              f"all {flips} boundary mutations flip ({elapsed * 1000:.0f}ms)")


def test_criterion_5_aaronson_band(golden, pinned):
    start = time.time()
    pin = pinned["aaronson_band"]
    thetas = sample_thetas(pin["n_theta"], pin["seed"])
    means, sups = occupation_band(golden, thetas, pin["checkpoints"])
    assert max(means) / min(means) <= 10
    assert np.all(sups / means <= 10)
    assert means == pytest.approx(pin["means"], rel=1e-9)  # deterministic pin
    assert sups == pytest.approx(pin["sups"], rel=1e-9)
    elapsed = time.time() - start
    assert elapsed <= 1800
    report(5, f"mean scaled returns in [{min(means):.3f}, {max(means):.3f}] "
              f"(band factor {max(means) / min(means):.2f} <= 10), "
              f"sup/mean <= {float(np.max(sups / means)):.2f} ({elapsed:.0f}s)")


def test_criterion_6_ratio_convergence_trend(golden, pinned):
    pin = pinned["ratio_medians"]
    thetas = sample_thetas(pin["n_theta"], pin["seed"])
    v_list = [-3, -2, -1, 1, 2, 3]
    table = ratio_check(golden, thetas, v_list, [10**5, 10**7])
    improved_pos = improved_neg = 0
    for v in (1, 2, 3):
        for sign, counter in ((1, "pos"), (-1, "neg")):
            early = table.median_abs_dev_from_one(sign * v, 10**5)
            late = table.median_abs_dev_from_one(sign * v, 10**7)
            assert late <= pin["abs_dev_ceiling"][str(v)]
            if late < early:
                if sign > 0:
                    improved_pos += 1
                else:
                    improved_neg += 1
    assert improved_pos >= 2 and improved_neg >= 2
    # deterministic pin of the recorded medians
    for v in v_list:
        assert table.median_abs_dev_from_one(v, 10**5) == pytest.approx(
            pin["at_1e5"][str(v)], rel=1e-9)
        assert table.median_abs_dev_from_one(v, 10**7) == pytest.approx(
            pin["at_1e7"][str(v)], rel=1e-9)
    report(6, f"median |ratio-1| shrinks from 1e5 to 1e7 for {improved_pos}/3 "
              f"positive and {improved_neg}/3 negative levels")


def test_criterion_7_range_decay(golden):
    table = zero_entropy_proxy(golden, sample_thetas(100, 17), [10**6])
    worst = table.max_at(10**6)
    assert worst < 0.01
    report(7, f"max a_N/N over 100 thetas at N=1e6 is {worst:.2e} < 0.01")


def test_criterion_8_ergodicity_correlation(golden, pinned):
    pin = pinned["ergodicity"]
    cyl = CylinderSpec(constraints=((0, 1),))
    lhs, rhs, stderr = ergodicity_correlation(
        golden, cyl, cyl, pin["N"], pin["n_samples"], pin["seed"])
    assert rhs == 0.25
    sigmas = abs(lhs - rhs) / stderr
    assert sigmas <= 4.0
    report(8, f"Cesaro correlation {lhs:.4f} vs product 1/4 at {sigmas:.2f} "
              f"sigma (<= 4)")


def test_criterion_9_structural_suites(golden, from_threads):
    _, e = make_desk_schedule([(2, 6), (30, 300)])
    rng = np.random.default_rng(2718)

    # pi_E is an involution on 1e5 random windows, exactly
    from discwalk import SymbolWindow

    for _ in range(10**5):
        radius = int(rng.integers(0, 9))
        values = (rng.integers(0, 2, size=2 * radius + 1, dtype=np.int8) * 2 - 1)
        offset = int(rng.integers(-radius, radius + 1)) if radius else 0
        w = SymbolWindow(values=values, offset=offset)
        assert apply_pi_E(apply_pi_E(w, e), e) == w

    # S-conjugacy: S^n = pi o T^n o pi, symbol-for-symbol, n <= 1e3, 1e3 points
    n_steps = 10**3
    thetas = sample_thetas(10**3, 31)
    for i, theta in enumerate(theta_points(thetas)):
        omega = sample_omega(60, 10**6 + i)
        s_pt = SymbolicPoint(theta, omega)
        t_pt = SymbolicPoint(theta, apply_pi_E(omega, e))
        for n in range(1, n_steps + 1):
            s_pt = apply_S(s_pt, golden, e)
            t_pt = apply_T(t_pt, golden)
            assert apply_pi_E(t_pt.window, e) == s_pt.window
            assert t_pt.theta == s_pt.theta

    # cocycle offset identity: window offset after n steps equals phi_n
    for i in range(200):
        theta = FixedAngle(int(rng.integers(0, 1 << 62)) * 3 % MODULUS)
        n = int(rng.integers(1, 1001))
        heights = walk_heights(theta.bits, golden.bits, n + 1)
        p = SymbolicPoint(theta, sample_omega(60, i))
        for _ in range(n):
            p = apply_T(p, golden)
        assert p.window.offset == heights[n]

    # conservation: per-level visit counts sum to N
    for theta in theta_points(sample_thetas(100, 37)):
        N = int(rng.integers(1, 5000))
        assert run_walk(theta, golden, N).histogram.total == N

    # interval-set symmetry, 0 and 1 excluded
    for v in range(0, 10**4):
        assert e.contains(v) == e.contains(-v)
    assert not e.contains(0) and not e.contains(1)

    # advance semigroup law, exact
    for _ in range(10**3):
        t = FixedAngle(int(rng.integers(0, 1 << 63)))
        a = FixedAngle(int(rng.integers(0, 1 << 63)))
        m, n = int(rng.integers(0, 1 << 40)), int(rng.integers(0, 1 << 40))
        assert advance(t, a, m + n) == advance(advance(t, a, m), a, n)

    # bit-identical aggregates when 4 of the caller's threads run them at once
    def red():
        return reduced_average_series(golden, e, None, [64, 256], 128, 53).values()

    def mc():
        return mc_triple_average(golden, e, [64, 256], 128, seed=53).values()

    thetas = sample_thetas(8, 59)

    def constants():
        c = estimate_constants(golden, thetas, 10**4, 2)
        return c.m_v, c.m_global

    for call in (red, mc, constants):
        serial = call()
        assert all(r == serial for r in from_threads(call))

    report(9, "involution (1e5 windows), S-conjugacy (1e3 points x 1e3 steps), "
              "offset identity, conservation, symmetry, semigroup law, and "
              "determinism under concurrent callers all exact")
