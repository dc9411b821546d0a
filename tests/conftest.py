import json
import math
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest

from discwalk import AlphaSpec, FixedAngle, WindowExceeded, resolve_alpha, walk
from discwalk.filters import AcceptAll
from discwalk.series import AverageEntry, AverageSeries
from discwalk.symbolic import default_window_radius, sample_omega
from discwalk.walk import block_length, cell_table, check_n_list, sample_thetas

PINNED_PATH = os.path.join(os.path.dirname(__file__), "pinned.json")


def theta_words(points):
    """FixedAngle points as sample_thetas rows: uint64 words (hi, lo)."""
    return np.array([divmod(p.bits, 1 << 64) for p in points], dtype=np.uint64).reshape(-1, 2)


def theta_points(words):
    """sample_thetas rows as FixedAngle points."""
    return [FixedAngle((hi << 64) | lo) for hi, lo in words.tolist()]


def block_table(alpha_bits):
    """The block table theta_counts reads walks of N >= q off: the cell
    table of n = q, with no histograms."""
    q = block_length(alpha_bits)
    return cell_table(alpha_bits, q, [])


@pytest.fixture(scope="session")
def golden():
    return resolve_alpha(AlphaSpec(preset="golden"))


@pytest.fixture(scope="session")
def sqrt2m1():
    return resolve_alpha(AlphaSpec(preset="sqrt2m1"))


@pytest.fixture(scope="session")
def pinned():
    """Pilot-recorded reference values; regenerated only deliberately."""
    with open(PINNED_PATH) as f:
        return json.load(f)


@pytest.fixture(scope="session")
def from_threads():
    """Run ``call()`` from 4 of the caller's own threads at once and return
    their 4 results; the first exception raised is re-raised.  A small
    ``switch_interval`` makes the threads interleave more often."""
    def run(call, switch_interval=None):
        start = threading.Barrier(4)

        def go(_):
            start.wait(timeout=60)
            return call()

        interval = sys.getswitchinterval()
        if switch_interval is not None:
            sys.setswitchinterval(switch_interval)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                return list(pool.map(go, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)

    return run


def sampled_series_reference(alpha, b_filter, N_list, n_theta, seed, indicator,
                             prefactor, method):
    """The per-theta loop the sampled routes ran before the cell table: walk
    each accepted theta directly, touching no table, and reduce its counts
    against ``indicator(i, lo, hi)``, its level table over its visited
    band."""
    N_list = check_n_list(N_list)
    thetas = sample_thetas(n_theta, seed)
    mask = (b_filter or AcceptAll()).select(thetas, alpha)
    n_arr = np.asarray(N_list)
    rows = []
    for i, theta in enumerate(theta_points(thetas)):
        if not mask[i]:
            rows.append(np.zeros(len(n_arr)))
            continue
        v_min, (counts,) = walk._walk_counts(alpha.bits, theta_words([theta]), N_list)
        rows.append(counts @ indicator(i, v_min, v_min + counts.shape[1] - 1) / n_arr)
    fractions = np.array(rows)
    values = prefactor * fractions.mean(axis=0)
    stderr = prefactor * fractions.std(axis=0, ddof=1) / math.sqrt(n_theta)
    return AverageSeries([
        AverageEntry(N=int(n), value=float(v), stderr=float(s),
                     method=method, n_samples=n_theta, seed=seed)
        for n, v, s in zip(N_list, values, stderr)
    ])


def reduced_reference(alpha, e, b_filter, N_list, n_theta, seed):
    return sampled_series_reference(alpha, b_filter, N_list, n_theta, seed,
                                    lambda i, lo, hi: e.lut(lo, hi), 0.5, "reduced")


def mc_reference(alpha, e, N_list, n_theta, seed, b_filter=None, window_radius=None,
                 fault_inject=False):
    W = window_radius if window_radius is not None else default_window_radius(
        max(N_list, default=1))

    def indicator(i, lo, hi):
        worst = lo if -lo > hi else hi  # lo <= 0 <= hi
        if abs(worst) > W:
            raise WindowExceeded(f"walk height {worst} exceeds window radius {W}; "
                                 "re-run with a larger budget", height=worst)
        omega = sample_omega(W, np.random.SeedSequence(entropy=seed, spawn_key=(1, i)))
        in_e = e.lut(lo, hi)
        if fault_inject:
            in_e = ~in_e
        return in_e & (omega.values[lo + W:hi + W + 1] == 1)

    return sampled_series_reference(alpha, b_filter, N_list, n_theta, seed,
                                    indicator, 1.0, "montecarlo")


@pytest.fixture(scope="session")
def sampled_reference():
    """``reduced`` and ``mc``: the sampled routes as the per-theta loop
    computed them, with the signatures of reduced_average_series and
    mc_triple_average."""
    return SimpleNamespace(reduced=reduced_reference, mc=mc_reference)
