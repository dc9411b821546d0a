"""The benchmark's three workloads, built from discwalk's public functions.

Each workload is a list of operations that one pass runs in order.  An
operation returns its output; the pass then digests the output and checks
it.  At :data:`REFERENCE_SEED` every digest must equal the one recorded in
``reference.json``; at every seed the invariants below must hold.

Nothing here imports numpy or discwalk at module level: :func:`setup` does,
so that the set-up probes time the imports.

Sizes.  One pass takes a few seconds so that a run holds several passes and
reports their median.  ``band_long`` therefore uses a quarter of the theta
counts of the acceptance shapes it follows (criteria 3, 5, 6 and 7) at the
same horizons and checkpoints, so each walk is as long and its arrays are as
large as there.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Dict, List

REFERENCE_SEED = 1

# Cross-route check: a sampled route must be within this many combined
# standard errors of every other route at every N.  At 3, routes_short's
# shape (three route pairs, seven N) exceeded the gate on 6 of 53 seeds of
# the seed code (worst 3.65); a broken route is off by tens of standard
# errors.
GATE_SIGMAS = 5.0

WORKLOADS = ("band_long", "routes_short", "cli_threads")

BAND_CHECKPOINTS = [10**3, 10**4, 10**5, 10**6, 10**7]
RATIO_LEVELS = [-3, -2, -1, 1, 2, 3]
RATIO_CHECKPOINTS = [10**5, 10**7]
DESK_PAIRS = [(3, 12)]
DESK_N_LIST = [100, 316, 1000, 3162, 10000, 31623, 100000, 316228, 1000000]
ROUTE_PAIRS = [(2, 6), (30, 300)]  # E = +/-[2,8] U +/-[30,330]
# 331 = l_2 + r_2 + 1 is a subsequence time of E's schedule, which
# oscillation_report requires whenever it lies inside the N range
ROUTE_N_LIST = [64, 128, 256, 331, 512, 1024, 2048]
ROUTE_N_THETA = 10**4
AVERAGE_ARGS = ["--pairs", "2:6,30:300", "--n-list", "64,256,331,512", "--seed", "1",
                "--routes", "reduced,exact,mc"]


def derive(seed: int, tag: str) -> int:
    """Sub-seed for one use of the benchmark seed."""
    digest = hashlib.sha256(f"discwalk-bench:{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class Op:
    name: str
    run: Callable[[Dict], object]  # takes the outputs of earlier ops
    digest: Callable[[object], bytes]
    check: Callable[[object], List[str]]


def _import_discwalk(root: str) -> SimpleNamespace:
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import discwalk
    from discwalk import (_parallel, averages, cli, eset, filters, rotation, series,
                          symbolic, walk)

    if not os.path.abspath(discwalk.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"discwalk imported from {discwalk.__file__}, not {src}")
    return SimpleNamespace(rotation=rotation, walk=walk, eset=eset, symbolic=symbolic,
                           averages=averages, filters=filters, _parallel=_parallel,
                           series=series, cli=cli)


def setup(name: str, root: str) -> SimpleNamespace:
    """Import discwalk, resolve alpha and compile E or the schedule."""
    m = _import_discwalk(root)
    ctx = SimpleNamespace(m=m)
    golden = m.rotation.AlphaSpec(preset="golden")
    ctx.golden = m.rotation.resolve_alpha(golden)
    if name == "band_long":
        ctx.cf8 = m.rotation.resolve_alpha(
            m.rotation.AlphaSpec(quotients=[8] * 200, bound=8))
        ctx.desk_schedule, ctx.desk_e = m.eset.make_desk_schedule(DESK_PAIRS)
    elif name == "routes_short":
        ctx.schedule, ctx.e = m.eset.make_desk_schedule(ROUTE_PAIRS)
    elif name == "cli_threads":
        # the paper schedule of the README's schedule example; each pass's
        # CLI call builds its own, so the result is not kept
        two = m.eset.LogNum(exact=2)
        m.eset.generate_paper_schedule(lambda v: two, 10, margin=0.99)
    else:
        raise ValueError(f"unknown workload {name!r}")
    return ctx


def build(name: str, ctx, seed: int, workers: int, tmpdir: str) -> List[Op]:
    if name == "band_long":
        return _band_long(ctx, seed)
    if name == "routes_short":
        return _routes_short(ctx, seed)
    return _cli_threads(ctx, seed, workers, tmpdir)


# ---------------------------------------------------------------------------
# Shared checks.


def _problems(**conditions: bool) -> List[str]:
    return [name for name, ok in conditions.items() if not ok]


def _series_ok(series, n_list, hi: float) -> bool:
    return ([e.N for e in series.entries] == list(n_list)
            and all(0.0 <= e.value <= hi and e.stderr >= 0.0 for e in series.entries))


def _report_roundtrips(m, report) -> bool:
    text = report.to_json()
    return m.averages.OscillationReport.from_json(text).to_json() == text


# ---------------------------------------------------------------------------
# band_long: few thetas at long horizons; the walk kernel and the per-theta
# reducers dominate, the exact and Monte Carlo routes and the CLI never run.


def _band_long(ctx, seed: int) -> List[Op]:
    import numpy as np

    m, g = ctx.m, ctx.golden

    def band(_):
        thetas = m.walk.sample_thetas(2, derive(seed, "band"))
        return m.walk.occupation_band(g, thetas, BAND_CHECKPOINTS)

    def band_check(out):
        means, sups = out
        return _problems(
            shape=means.shape == sups.shape == (len(BAND_CHECKPOINTS),),
            finite=bool(np.all(np.isfinite(sups))),
            mean_positive_below_sup=bool(np.all((means > 0) & (means <= sups))))

    def ratio(_):
        thetas = m.walk.sample_thetas(2, derive(seed, "ratio"))
        return m.averages.ratio_check(g, thetas, RATIO_LEVELS, RATIO_CHECKPOINTS)

    def ratio_check(t):
        return _problems(
            shape=t.ratios.shape == (2, len(RATIO_LEVELS), len(RATIO_CHECKPOINTS)),
            finite_nonnegative=bool(np.all(np.isfinite(t.ratios) & (t.ratios >= 0))))

    def range_decay(_):
        thetas = m.walk.sample_thetas(8, derive(seed, "range"))
        return m.averages.zero_entropy_proxy(g, thetas, [10**6])

    def range_check(t):
        # criterion 7: the visited range is a vanishing fraction of N
        return _problems(
            shape=t.per_theta.shape == (8, 1),
            fraction_in_0_001=bool(np.all((t.per_theta > 0) & (t.per_theta < 0.01))))

    def constants(_):
        s = derive(seed, "constants")
        return m.walk.estimate_constants(g, m.walk.sample_thetas(4, s), 10**6, 3, seed=s)

    def constants_check(t):
        c = [t.c_v[v] for v in range(4)]
        return _problems(
            samples=t.sample_count == 4 and t.horizon == 10**6,
            levels=sorted(t.m_v) == list(range(-3, 4)),
            m_positive=all(x > 0 for x in t.m_v.values()),
            c_nondecreasing=c == sorted(c),
            m_global_at_least_1=t.m_global >= 1.0)

    def desk(_):
        # criterion 3's oscillation: alpha = cf[8]*200, E = +/-[3,15]
        series = m.averages.reduced_average_series(
            ctx.cf8, ctx.desk_e, m.filters.QuantileFilter(q=0.05), DESK_N_LIST, 25,
            derive(seed, "desk"))
        return series, m.averages.oscillation_report(series, ctx.desk_schedule)

    def desk_check(out):
        series, report = out
        return _problems(
            series=_series_ok(series, DESK_N_LIST, 0.5),
            report_roundtrip=_report_roundtrips(m, report),
            oscillation=report.oscillation >= 0.0)

    return [
        Op("occupation_band", band, lambda o: o[0].tobytes() + o[1].tobytes(), band_check),
        Op("ratio_check", ratio, lambda t: t.ratios.tobytes(), ratio_check),
        Op("zero_entropy_proxy", range_decay, lambda t: t.per_theta.tobytes(), range_check),
        Op("estimate_constants", constants, lambda t: t.document().encode(), constants_check),
        Op("desk_oscillation", desk,
           lambda o: (o[0].to_csv() + o[1].to_json()).encode(), desk_check),
    ]


# ---------------------------------------------------------------------------
# routes_short: the three A_N routes on 1e4 short walks each; the exact
# route's quadratic cost and per-call overhead dominate, long-walk kernel cost
# is negligible.


def _routes_short(ctx, seed: int) -> List[Op]:
    m, g, e = ctx.m, ctx.golden, ctx.e
    MODULUS = m.rotation.MODULUS

    def exact(_):
        return m.averages.exact_average_series(g, e, ROUTE_N_LIST)

    def exact_digest(out):
        series, fractions = out
        return (series.to_csv() + repr(sorted(fractions.items()))).encode()

    def exact_check(out):
        series, fractions = out
        return _problems(
            series=_series_ok(series, ROUTE_N_LIST, 0.5),
            denominators=all((f * 2 * n * MODULUS).denominator == 1
                             for n, f in fractions.items()),
            floats=all(float(fractions[x.N]) == x.value for x in series.entries))

    def reduced(_):
        return m.averages.reduced_average_series(
            g, e, None, ROUTE_N_LIST, ROUTE_N_THETA, derive(seed, "reduced"))

    def mc(_):
        return m.symbolic.mc_triple_average(
            g, e, ROUTE_N_LIST, ROUTE_N_THETA, derive(seed, "mc"))

    def sampled_check(series):
        return _problems(series=_series_ok(series, ROUTE_N_LIST, 1.0),
                         samples=all(x.n_samples == ROUTE_N_THETA and x.stderr > 0
                                     for x in series.entries))

    def oscillation(res):
        return m.averages.oscillation_report(res["reduced_average_series"], ctx.schedule)

    def oscillation_check(report):
        return _problems(report_roundtrip=_report_roundtrips(m, report),
                         rows=len(report.rows) == len(ROUTE_PAIRS))

    def gate(res):
        routes = {"exact": res["exact_average_series"][0],
                  "reduced": res["reduced_average_series"], "mc": res["mc_triple_average"]}
        return worst_gate_ratio(routes, ROUTE_N_LIST)

    return [
        Op("exact_average_series", exact, exact_digest, exact_check),
        Op("reduced_average_series", reduced, lambda s: s.to_csv().encode(), sampled_check),
        Op("mc_triple_average", mc, lambda s: s.to_csv().encode(), sampled_check),
        Op("oscillation_report", oscillation, lambda r: r.to_json().encode(),
           oscillation_check),
        Op("cross_route_gate", gate, lambda w: repr(w).encode(),
           lambda w: _problems(**{f"within_{GATE_SIGMAS:g}_sigma": w <= GATE_SIGMAS})),
    ]


def worst_gate_ratio(routes: Dict, n_list) -> float:
    """Largest |A - B| / combined stderr over route pairs and N."""
    names = sorted(routes)
    worst = 0.0
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            for n in n_list:
                ea, eb = routes[a].at(n), routes[b].at(n)
                diff = abs(ea.value - eb.value)
                sigma = math.hypot(ea.stderr, eb.stderr)
                if sigma > 0:
                    worst = max(worst, diff / sigma)
                elif diff > 0:
                    worst = math.inf
    return worst


# ---------------------------------------------------------------------------
# cli_threads: the README examples, in process at the README's single thread,
# then sampled subcommands with --threads > 1: the only workload where
# ordered_map uses its thread pool.


def _strip_comments(text: str) -> str:
    # provenance lines echo the output paths and the thread count; the
    # parsers ignore them
    return "".join(ln for ln in text.splitlines(keepends=True) if not ln.startswith("#"))


def _kv(text: str) -> Dict[str, str]:
    out = {}
    for line in _strip_comments(text).splitlines():
        key, _, value = line.partition(":")
        out[key.strip()] = value.strip()
    return out


def _cli_threads(ctx, seed: int, workers: int, tmpdir: str) -> List[Op]:
    m = ctx.m

    def command(name: str, args: List[str], files, threaded):
        paths = {f: os.path.join(tmpdir, f"{name}.{f}") for f in files}

        def run(_):
            for p in paths.values():
                if os.path.exists(p):
                    os.remove(p)
            argv = list(args) + (["--threads", str(workers)] if threaded else [])
            for f, p in paths.items():
                argv += ["--report-out" if f == "report" else "--out", p]
            rc = m.cli.entrypoint(argv)
            texts = {}
            for f, p in paths.items():
                if os.path.exists(p):
                    with open(p) as fh:
                        texts[f] = fh.read()
            return rc, texts

        return run

    def digest(out):
        rc, texts = out
        parts = [f"rc={rc}"]
        for f in sorted(texts):
            body = texts[f]
            if f == "report":
                doc = json.loads(body)
                doc.pop("config", None)  # echoes the output paths
                body = json.dumps(doc, sort_keys=True)
            parts.append(f"{f}:{_strip_comments(body)}")
        return "\n".join(parts).encode()

    def checked(fn):
        def check(out):
            rc, texts = out
            if rc != 0:
                return [f"exit code {rc}"]
            try:
                return fn(texts)
            except (KeyError, ValueError, IndexError) as err:
                return [f"output does not parse: {type(err).__name__}: {err}"]
        return check

    def walk_check(n, rows):
        def check(texts):
            lines = _strip_comments(texts["out"]).splitlines()
            bad = lines[0] != "theta0_hex,N,min_h,max_h,a_N,levels" or len(lines) != rows + 1
            for line in lines[1:]:
                _, big_n, lo, hi, a_n, levels = line.split(",")
                total = sum(int(p.split(":")[1]) for p in levels.split(";"))
                bad |= int(big_n) != n or total != n or int(a_n) != int(hi) - int(lo) + 1
            return _problems(histogram_totals_equal_N=not bad)
        return check

    def schedule_check(texts):
        text = texts["out"]
        kv = _kv(text)
        sched = m.eset.Schedule.parse(text)
        return _problems(
            certificate=kv["conditions_passed"] == "True"
            and float(kv["max_ratio"]) <= 0.99,
            entries=len(sched.intervals) == 10 and sched.mode == "paper",
            roundtrip=m.eset.Schedule.parse(sched.serialize()).serialize()
            == sched.serialize())

    def average_check(texts):
        sections = _strip_comments(texts["out"]).split("N,A,stderr,method,n_theta,seed\n")[1:]
        header = "N,A,stderr,method,n_theta,seed\n"
        series = [m.series.AverageSeries.from_csv(header + s) for s in sections]
        report = m.averages.OscillationReport.from_json(texts["report"])
        return _problems(
            routes=sorted(s.entries[0].method for s in series)
            == ["exact", "montecarlo", "reduced"],
            series=all([x.N for x in s.entries] == [64, 256, 331, 512] for s in series),
            report_roundtrip=_report_roundtrips(m, report))

    def ergodicity_check(texts):
        kv = _kv(texts["out"])
        lhs, stderr = float(kv["cesaro_average"]), float(kv["stderr"])
        return _problems(product=float(kv["product_of_measures"]) == 0.25,
                         average=0.0 <= lhs <= 1.0 and stderr > 0)

    def constants_check(texts):
        kv = _kv(texts["out"])
        c = [float(kv[f"c[{v}]"]) for v in range(4)]
        return _problems(schema=kv["schema"] == "discwalk-constants-v1",
                         samples=kv["samples"] == "32" and kv["horizon"] == "100000",
                         c_nondecreasing=c == sorted(c),
                         m_global=float(kv["m_global"]) >= 1.0)

    def ratio_check(texts):
        lines = _strip_comments(texts["out"]).splitlines()
        values = [float(x) for ln in lines[1:] for x in ln.split(",")[2:]]
        return _problems(rows=len(lines) == 1 + 6 * 2,
                         finite_nonnegative=all(0 <= x < math.inf for x in values))

    def entropy_check(texts):
        lines = _strip_comments(texts["out"]).splitlines()
        n, frac = lines[1].split(",")
        return _problems(rows=len(lines) == 2 and n == "100000",
                         fraction=0 < float(frac) < 0.01)

    s = lambda tag: str(derive(seed, tag))  # noqa: E731
    golden = ["--alpha", "golden"]
    # (name, argv, output files, check, threaded).  The README examples run
    # as the README writes them, at the default single thread, so most of a
    # pass is serial CLI work.  The sampled commands run with --threads and
    # take ordered_map's pool with short-walk (average) and long-walk items;
    # they are kept to about a sixth of a pass because their time doubles
    # whenever other load on the host takes one of two vCPUs, which made a
    # pool-dominated pass vary by half from run to run.
    specs = [
        ("walk_readme", ["walk"] + golden + ["--theta", "0", "--n", "4"], ("out",),
         walk_check(4, 1), False),
        ("schedule_paper", ["schedule", "--mode", "paper", "--c-const", "2",
                            "--m-max", "10", "--margin", "0.99"], ("out",),
         schedule_check, False),
        # The README's seed, whatever the benchmark seed: the CLI exits 3 when
        # its gate (3 combined standard errors, three route pairs, every N)
        # trips, which happens by chance on some seeds, and a speed benchmark
        # must not fail correct code.  --n-list carries 331, the subsequence
        # time the oscillation report needs (the README's list exits 2).
        # 4000 thetas (README: 10000) keep a pass near 4.5 s, so that a run
        # holds several passes to take the median of.
        ("average_readme", ["average"] + golden + AVERAGE_ARGS + [
            "--n-theta", "4000"], ("out", "report"), average_check, False),
        ("ergodicity_readme", ["ergodicity"] + golden + [
            "--n", "100000", "--n-samples", "400", "--seed", s("ergodicity"),
            "--cyl-a", "0:1", "--cyl-b", "0:1"], ("out",), ergodicity_check, False),
        ("walk_sampled", ["walk"] + golden + ["--n-theta", "8", "--n", "100000",
                                              "--seed", s("walk")], ("out",),
         walk_check(100000, 8), True),
        ("average_threads", ["average"] + golden + AVERAGE_ARGS + [
            "--n-theta", "500"], ("out", "report"),
         average_check, True),
        ("constants", ["constants"] + golden + [
            "--n", "100000", "--n-theta", "32", "--v-max", "3", "--seed", s("constants")],
         ("out",), constants_check, True),
        ("ratio", ["ratio"] + golden + [
            "--n-theta", "32", "--n-list", "10000,100000", "--seed", s("ratio")],
         ("out",), ratio_check, True),
        ("entropy_proxy", ["entropy-proxy"] + golden + [
            "--n-theta", "64", "--n-list", "100000", "--seed", s("entropy")],
         ("out",), entropy_check, True),
    ]
    return [Op(name, command(name, args, files, threaded), digest, checked(check))
            for name, args, files, check, threaded in specs]
