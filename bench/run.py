"""discwalk benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload band_long --seed 1 --seconds 40 --trace 0
    python3 bench/run.py                      # every workload, one after another
    python3 bench/run.py --record             # re-record bench/reference.json

Run from the root of a checkout; discwalk is imported from its ``src``.
Each workload runs in a fresh ``bench/worker.py`` process, so its set-up
time and peak memory are its own.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` reports its per-layer metrics
from traced passes interleaved with untraced ones.  The human-readable
report goes first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from spans import LAYERS
from workloads import WORKLOADS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKER = os.path.join(BENCH_DIR, "worker.py")
SETUP_PROBES = 7
RUN_TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def worker(args, timeout: float) -> dict:
    """Run bench/worker.py in a fresh process; return its JSON result."""
    try:
        proc = subprocess.run([sys.executable, WORKER] + [str(a) for a in args],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args} timed out after {timeout:.0f}s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def provenance() -> dict:
    """Where the numbers come from: source, machine and toolchain."""
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "discwalk", "*.py"))):
        with open(path, "rb") as f:
            src.update(os.path.basename(path).encode() + b"\0" + f.read())
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as f:
                level = f.read().strip()
            with open(os.path.join(index, "type")) as f:
                kind = f.read().strip()
            with open(os.path.join(index, "size")) as f:
                caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = f.read().strip()
        except OSError:
            continue
    return {"git_sha": sha, "src_sha256": src.hexdigest(), "nproc": os.cpu_count(),
            "cpu": cpu, "caches": caches, "platform": platform.platform()}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def run_workload(name: str, why: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """One workload: set-up probes (untraced only), then the measured run."""
    setup = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setup.append(worker(["setup", name], deadline - time.monotonic())["setup_s"])
    res = worker(["run", name, seed, seconds, int(trace)], deadline - time.monotonic())

    print(f"== {name}  seed={seed}  trace={int(trace)}  workers={res['workers']}")
    print(f"   why: {why}")
    print(f"   versions: {json.dumps(res['versions'], sort_keys=True)}")
    passes = res["pass_s"]
    quart = statistics.quantiles(passes, n=4)
    print(f"   wall_s          {res['wall_s']:.4f} s   (median of {len(passes)} untraced "
          f"passes; quartiles {quart[0]:.4f}..{quart[2]:.4f})")
    print(f"   passes          {' '.join(f'{t:.3f}' for t in passes)}  "
          f"(after an untimed warm-up pass of {res['warmup_s']:.3f})")
    print("   op medians      " + "  ".join(f"{k} {v:.3f}" for k, v in res["op_s"].items()))
    if not trace:
        res["setup_s"] = statistics.median(setup)
        print(f"   setup_s         {res['setup_s']:.4f} s   "
              f"(median of {len(setup)} fresh processes)")
        print(f"   peak_rss_mb     {res['peak_rss_mb']:.1f} MB")
    frac = res["failed"] / res["attempted"]
    print(f"   ops_attempted   {res['attempted']}")
    print(f"   ops_failed_frac {frac:.6g}  ({res['failed']}/{res['attempted']})")
    for problem in res["problems"]:
        print(f"   FAILED: {problem}")
    if trace:
        print_layers(res)
        print(f"   spans of the last traced pass: {res['spans_file']}")
    return res


def print_layers(res: dict) -> None:
    lay = res["layers"]
    traced = statistics.median(res["traced_pass_s"])
    print(f"   traced pass     {traced:.4f} s   (median of {len(res['traced_pass_s'])}); "
          f"trace.overhead_frac {lay['trace.overhead_frac']:.4f}")
    print("   self time per layer, s per traced pass (threads can make the sum exceed it):")
    for layer in LAYERS + ("uncovered",):
        v = lay["uncovered_s" if layer == "uncovered" else f"{layer}.self_s"]
        print(f"     {layer:<10} {v:9.4f}  {100 * v / traced:5.1f}%")
    print("     (uncovered: the benchmark's own input generation, digests and checks)")
    kernel = lay["rotation.walk_heights.s"] + sum(
        lay[k] for k in ("walk.occupation_band.self_s", "walk.estimate_constants.self_s",
                         "averages.ratio_check.self_s", "averages.zero_entropy_proxy.self_s"))
    routes = (lay["averages.exact_average_series.s"]
              + lay["averages.reduced_average_series.self_s"]
              + lay["symbolic.mc_triple_average.self_s"])
    print(f"   walk_heights + long-walk reducers: {100 * kernel / traced:5.1f}% of the pass")
    print(f"   exact + reduced self + mc self:    {100 * routes / traced:5.1f}% of the pass")
    print("   per-layer metrics (per traced pass):")
    for k in sorted(lay):
        print(f"     {k:<44} {_fmt(lay[k])}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="re-record bench/reference.json at the reference seed")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "discwalk", "__init__.py")):
        print(f"bench: no discwalk sources under {ROOT}/src", file=sys.stderr)
        return 2
    try:
        spec = load_spec()
    except (OSError, ValueError) as err:
        print(f"bench: cannot read BENCHMARK.json: {err}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    start = time.monotonic()
    try:
        if args.record:
            for name in names:
                out = worker(["record", name], RUN_TIMEOUT_S)
                print(f"{name}: {json.dumps(out)}")
                if not out["recorded"]:
                    return 1
            return 0
        print(f"provenance: {json.dumps(provenance(), sort_keys=True)}")
        results = []
        for name in names:
            deadline = time.monotonic() + RUN_TIMEOUT_S
            results.append(run_workload(name, whys[name], args.seed, args.seconds,
                                        bool(args.trace), deadline))
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 1
    print(f"elapsed {time.monotonic() - start:.1f} s")

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    def metrics(res):
        source = res["layers"] if args.trace else res
        return {m["name"]: {"value": source[m["name"]], "unit": m["unit"]} for m in wanted}

    if len(results) == 1:
        out_metrics = metrics(results[0])
    else:
        out_metrics = {f"{r['workload']}.{k}": v for r in results for k, v in metrics(r).items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": out_metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
