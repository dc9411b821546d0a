"""One fresh benchmark process: a set-up probe or a workload run.

    python3 bench/worker.py setup <workload>
    python3 bench/worker.py run <workload> <seed> <seconds> <trace 0|1>
    python3 bench/worker.py record <workload>

Run from the root of a checkout.  The last line of standard output is a JSON
object for ``bench/run.py``.  ``record`` rewrites the workload's entry in
``reference.json`` from one workers=1 pass and one traced pass at the
reference seed; it exists for deliberate re-recording only.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

import spans
import workloads

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# every counted per-layer metric must repeat exactly for a given seed
COUNTED = ("rotation.walk_heights.calls", "rotation.walk_heights.steps",
           "rotation.walk_heights.bytes_computed", "rotation.orbit_hi64.steps",
           "walk.sample_thetas.thetas", "averages.exact.cells",
           "symbolic.sample_omega.calls", "eset.lut.calls", "eset.contains.calls",
           "filters.accepted_frac", "parallel.ordered_map.items", "cli.emit.bytes")

# a run stops starting passes after this many seconds, whatever --seconds says
HARD_CAP_S = 140.0


def tmp_dir(name: str, seed: int) -> str:
    # relative and seed-stable: CLI headers echo the paths, and cli.emit.bytes
    # must repeat against the reference
    return os.path.join(".bench_tmp", f"{name}-s{seed}")


def remove_tmp(tmpdir: str) -> None:
    shutil.rmtree(tmpdir, ignore_errors=True)
    try:
        os.rmdir(os.path.dirname(tmpdir))
    except OSError:  # another run's files are still there
        pass


def cli_workers() -> int:
    return min(2, os.cpu_count() or 1)


def run_pass(ops, reference, tracer=None):
    """Run every op once; return (seconds, per-op records, layer metrics)."""
    if tracer is not None:
        tracer.reset()
    results = {}
    records = []
    start = time.perf_counter_ns()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        op_start = time.perf_counter_ns()
        try:
            out = op.run(results)
            results[op.name] = out
            digest = hashlib.sha256(op.digest(out)).hexdigest()
            problems = op.check(out)
        except Exception as err:  # an op that raises is a failed op, not a crash
            digest, problems = None, [f"raised {type(err).__name__}: {err}"]
        if reference is not None and digest != reference.get(op.name):
            problems = problems + ["digest differs from reference"]
        records.append({"op": op.name, "digest": digest, "problems": problems,
                        "s": (time.perf_counter_ns() - op_start) / 1e9})
    end = time.perf_counter_ns()
    layers = None
    if tracer is not None:
        layers = spans.layer_metrics(tracer, start, end)
    return (end - start) / 1e9, records, layers


def is_traced(i: int) -> bool:
    """Pass order in a traced run: untraced, traced, traced, then alternating."""
    return i in (1, 2) or (i >= 3 and i % 2 == 0)


def load_reference():
    try:
        with open(REFERENCE_PATH) as f:
            return json.load(f)
    except FileNotFoundError:
        return {"seed": workloads.REFERENCE_SEED, "workloads": {}}


def versions():
    import mpmath
    import numpy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "mpmath": mpmath.__version__}


def write_spans(tracer, ops, name: str, seed: int) -> str:
    """Dump the last traced pass's spans as JSON lines; return the path."""
    os.makedirs(".bench_tmp", exist_ok=True)
    path = os.path.join(".bench_tmp", f"spans-{name}-s{seed}.jsonl")
    with open(path, "w") as f:
        for sid, span, parent, op, start, end, item in tracer.spans:
            f.write(json.dumps({"id": sid, "name": span, "parent": parent,
                                "op": ops[op].name, "start_ns": start, "end_ns": end,
                                "item": item}) + "\n")
    return path


def cmd_setup(name: str) -> dict:
    start = time.perf_counter()
    workloads.setup(name, os.getcwd())
    return {"setup_s": time.perf_counter() - start}


def cmd_run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    began = time.perf_counter()
    ctx = workloads.setup(name, os.getcwd())
    tmpdir = tmp_dir(name, seed)
    os.makedirs(tmpdir, exist_ok=True)
    try:
        ops = workloads.build(name, ctx, seed, cli_workers(), tmpdir)
        ref = load_reference()
        reference = None
        if seed == ref["seed"]:
            entry = ref["workloads"].get(name)
            reference = entry["digests"] if entry else {}
        tracer = spans.Tracer() if trace else None

        first = time.perf_counter()
        # an untimed first pass lets lazy set-up (allocator growth, mpmath
        # constant caches, the first thread pool) finish; its outputs count
        warmup_s, recs, _ = run_pass(ops, reference)
        times, traced_times, layers, records = [], [], [], [recs]
        i = 0
        while True:
            traced = trace and is_traced(i)
            if traced:
                tracer.install(ctx.m)
            try:
                dt, recs, lay = run_pass(ops, reference, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            (traced_times if traced else times).append(dt)
            if lay is not None:
                layers.append(lay)
            records.append(recs)
            i += 1
            elapsed = time.perf_counter() - first
            typical = statistics.median(times + traced_times)  # excludes the warm-up
            if i >= (4 if trace else 2) and (elapsed + typical > seconds
                                               or time.perf_counter() - began > HARD_CAP_S):
                break
    finally:
        remove_tmp(tmpdir)

    # outputs must repeat across passes, traced or not
    attempted = failed = 0
    problems = []
    for p, recs in enumerate(records):
        for k, rec in enumerate(recs):
            attempted += 1
            probs = list(rec["problems"])
            if rec["digest"] != records[0][k]["digest"]:
                probs.append("digest differs from the first pass")
            if probs:
                failed += 1
                problems.append(f"pass {p} {rec['op']}: {'; '.join(probs)}")
    correct = failed == 0
    if layers:
        counts = [{k: lay[k] for k in COUNTED} for lay in layers]
        if any(c != counts[0] for c in counts[1:]):
            correct = False
            problems.append("counted metrics differ between traced passes")
        entry = ref["workloads"].get(name)
        if seed == ref["seed"] and entry and entry.get("counts") != counts[0]:
            correct = False
            problems.append("counted metrics differ from reference")

    untraced = [recs for k, recs in enumerate(records[1:]) if not (trace and is_traced(k))]
    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "op_s": {rec["op"]: statistics.median(r[k]["s"] for r in untraced)
                 for k, rec in enumerate(records[0])},
        "correct": correct, "attempted": attempted, "failed": failed,
        "problems": problems[:20],
        "warmup_s": warmup_s, "pass_s": times, "traced_pass_s": traced_times,
        "wall_s": statistics.median(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "workers": cli_workers() if name == "cli_threads" else 1,
        "versions": versions(),
    }
    if layers:
        result["spans_file"] = write_spans(tracer, ops, name, seed)
        # counts repeat exactly (checked above); times are medians
        result["layers"] = {k: v if k in COUNTED else statistics.median(lay[k] for lay in layers)
                            for k, v in layers[0].items()}
        result["layers"]["trace.overhead_frac"] = (
            statistics.median(traced_times) / result["wall_s"] - 1.0)
    return result


def cmd_record(name: str) -> dict:
    """Reference digests from a workers=1 pass; counts from a traced pass."""
    seed = workloads.REFERENCE_SEED
    ctx = workloads.setup(name, os.getcwd())
    tmpdir = tmp_dir(name, seed)
    os.makedirs(tmpdir, exist_ok=True)
    try:
        _, serial, _ = run_pass(workloads.build(name, ctx, seed, 1, tmpdir), None)
        tracer = spans.Tracer()
        tracer.install(ctx.m)
        try:
            _, traced, lay = run_pass(
                workloads.build(name, ctx, seed, cli_workers(), tmpdir), None, tracer)
        finally:
            tracer.uninstall()
    finally:
        remove_tmp(tmpdir)
    problems = [f"{r['op']}: {r['problems']}" for r in serial + traced if r["problems"]]
    problems += [f"{a['op']}: traced or threaded digest differs from workers=1"
                 for a, b in zip(serial, traced) if a["digest"] != b["digest"]]
    if problems:
        return {"recorded": False, "problems": problems}
    ref = load_reference()
    ref["seed"] = seed
    ref["workloads"][name] = {
        "digests": {r["op"]: r["digest"] for r in serial},
        "counts": {k: lay[k] for k in COUNTED},
    }
    with open(REFERENCE_PATH, "w") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")
    return {"recorded": True}


def main(argv):
    mode, name = argv[0], argv[1]
    if name not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {name!r}")
    if mode == "setup":
        out = cmd_setup(name)
    elif mode == "run":
        out = cmd_run(name, int(argv[2]), float(argv[3]), argv[4] == "1")
    elif mode == "record":
        out = cmd_record(name)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
