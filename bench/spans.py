"""In-memory span tracer for the benchmark's traced passes.

Wrappers are installed around discwalk's public functions at each module
boundary, on every module that binds the function by name (``averages``,
``walk``, ``filters`` and ``symbolic`` each import ``walk_heights``
directly), and on the methods that carry per-call counts.  Each wrapped call
records one span ``(id, name, parent id, op id, start ns, end ns, item)``;
spans stay in a list until the pass ends and :func:`layer_metrics` reduces
them.  The program under test is never edited: :meth:`Tracer.uninstall`
restores every binding it replaced.

Work that ``ordered_map`` runs per item belongs to the function that called
``ordered_map``, so each item is recorded as an *item span* named after that
caller.  A span's self time is its duration minus the union of its direct
children, so ``ordered_map``'s own self time is only its dispatch and wait.
"""

from __future__ import annotations

import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("rotation", "walk", "eset", "symbolic", "averages", "filters",
          "parallel", "cli")

CLI_COMMANDS = ("walk", "constants", "schedule", "average", "ratio",
                "entropy-proxy", "ergodicity")

# sign (bool), step (int64) and height (int64) per walk step, as computed
# from array sizes; cache misses are not counted
WALK_BYTES_PER_STEP = 17


class Tracer:
    def __init__(self):
        self.spans: List[Tuple] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.pool_calls: Dict[int, int] = {}  # ordered_map span id -> workers
        self.op: Optional[int] = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._saved: List[Tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = defaultdict(int)
        self.pool_calls = {}

    def bump(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current_name(self) -> Optional[str]:
        stack = self._stack()
        return stack[-1][1] if stack else None

    def call(self, name: str, fn: Callable, args, kwargs, parent=None,
             item: bool = False, sid: Optional[int] = None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1][0]
        if sid is None:
            sid = next(self._ids)
        stack.append((sid, name))
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((sid, name, parent, self.op, start, end, item))

    # -- installation -------------------------------------------------------

    def _replace(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def _rebind(self, orig, new) -> None:
        """Point every discwalk module binding of ``orig`` at ``new``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "discwalk"
                                   or mod_name.startswith("discwalk.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    self._replace(mod, attr, new)

    def _span_fn(self, orig, name: str, after=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, orig, args, kwargs)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = orig
        return wrapper

    def install(self, m) -> None:
        """Wrap the public functions of the discwalk modules in namespace m."""
        bump = self.bump

        def walk_counts(args, h):
            bump("rotation.walk_heights.calls")
            bump("rotation.walk_heights.steps", len(h))

        def select_counts(args, mask):
            bump("filters.sampled", len(mask))
            bump("filters.accepted", int(mask.sum()))

        def emit_counts(args, _):
            bump("cli.emit.bytes", len(args[0].encode()))

        functions = [
            (m.rotation.walk_heights, "rotation.walk_heights", walk_counts),
            (m.rotation.orbit_hi64, "rotation.orbit_hi64",
             lambda a, r: bump("rotation.orbit_hi64.steps", len(r))),
            (m.walk.sample_thetas, "walk.sample_thetas",
             lambda a, r: bump("walk.sample_thetas.thetas", len(r))),
            (m.walk.occupation_band, "walk.occupation_band", None),
            (m.walk.estimate_constants, "walk.estimate_constants", None),
            (m.walk.run_walk, "walk.run_walk", None),
            (m.eset.generate_paper_schedule, "eset.schedule", None),
            (m.eset.verify_schedule, "eset.schedule", None),
            (m.symbolic.sample_omega, "symbolic.sample_omega",
             lambda a, r: bump("symbolic.sample_omega.calls")),
            (m.symbolic.mc_triple_average, "symbolic.mc_triple_average", None),
            (m.averages.exact_average_series, "averages.exact_average_series", None),
            (m.averages.reduced_average_series, "averages.reduced_average_series", None),
            (m.averages.oscillation_report, "averages.oscillation_report", None),
            (m.averages.ratio_check, "averages.ratio_check", None),
            (m.averages.zero_entropy_proxy, "averages.zero_entropy_proxy", None),
            (m.averages.ergodicity_correlation, "averages.ergodicity_correlation", None),
            (m.cli.entrypoint, "cli.entrypoint", None),
            (m.cli.emit, "cli.emit", emit_counts),
        ]
        for orig, name, after in functions:
            self._rebind(orig, self._span_fn(orig, name, after))

        lut = m.eset.ESet.lut
        self._replace(m.eset.ESet, "lut", self._span_fn(
            lut, "eset.lut", lambda a, r: bump("eset.lut.calls")))
        contains = m.eset.ESet.contains

        def traced_contains(e, v):
            bump("eset.contains.calls")
            return contains(e, v)

        self._replace(m.eset.ESet, "contains", traced_contains)
        measure = m.averages.PartitionStepFn.measure_bits_in

        def traced_measure(part, e):
            bump("averages.exact.cells", len(part.breaks))
            return measure(part, e)

        self._replace(m.averages.PartitionStepFn, "measure_bits_in", traced_measure)
        for cls in (m.filters.AcceptAll, m.filters.QuantileFilter):
            self._replace(cls, "select", self._span_fn(
                cls.select, "filters.select", select_counts))

        ordered_map = m._parallel.ordered_map

        def traced_ordered_map(fn, items, workers=1):
            owner = self.current_name() or "parallel.unowned"
            sid = next(self._ids)
            if workers > 1 and len(items) > 1:
                self.pool_calls[sid] = workers
            bump("parallel.ordered_map.items", len(items))

            def run_item(x):
                return self.call(owner, fn, (x,), {}, parent=sid, item=True)

            return self.call("parallel.ordered_map", ordered_map,
                             (run_item, items, workers), {}, sid=sid)

        self._rebind(ordered_map, traced_ordered_map)

        for command in CLI_COMMANDS:
            cmd = m.cli.main.commands[command]
            self._replace(cmd, "callback", self._span_fn(cmd.callback, f"cli.{command}"))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


# ---------------------------------------------------------------------------
# Reduction of one pass's spans to per-layer metrics.


def _union_ns(intervals) -> int:
    total = 0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(tracer: Tracer, pass_start_ns: int, pass_end_ns: int) -> Dict[str, float]:
    """Per-layer metrics of one traced pass, in seconds and counts."""
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[2] is not None:
            children[s[2]].append((s[4], s[5]))

    self_ns: Dict[str, int] = defaultdict(int)
    outer_ns: Dict[str, int] = defaultdict(int)
    for sid, name, parent, _op, start, end, item in spans:
        self_ns[name] += (end - start) - _union_ns(children.get(sid, ()))
        if item:
            continue
        p = parent
        while p is not None and by_id[p][1] != name:
            p = by_id[p][2]
        if p is None:  # outermost span of its name
            outer_ns[name] += end - start

    def s(ns: int) -> float:
        return ns / 1e9

    c = tracer.counts
    out: Dict[str, float] = {}
    steps = c["rotation.walk_heights.steps"]
    wh_s = s(outer_ns["rotation.walk_heights"])
    out["rotation.walk_heights.calls"] = c["rotation.walk_heights.calls"]
    out["rotation.walk_heights.steps"] = steps
    out["rotation.walk_heights.s"] = wh_s
    out["rotation.walk_heights.ns_per_step"] = wh_s * 1e9 / steps if steps else 0.0
    out["rotation.walk_heights.bytes_computed"] = WALK_BYTES_PER_STEP * steps
    out["rotation.orbit_hi64.steps"] = c["rotation.orbit_hi64.steps"]
    out["rotation.orbit_hi64.s"] = s(outer_ns["rotation.orbit_hi64"])
    out["walk.sample_thetas.thetas"] = c["walk.sample_thetas.thetas"]
    out["walk.sample_thetas.s"] = s(outer_ns["walk.sample_thetas"])
    for name in ("walk.occupation_band", "walk.estimate_constants",
                 "averages.ratio_check", "averages.zero_entropy_proxy"):
        out[f"{name}.self_s"] = s(self_ns[name])
    out["averages.exact_average_series.s"] = s(outer_ns["averages.exact_average_series"])
    out["averages.exact.cells"] = c["averages.exact.cells"]
    out["averages.reduced_average_series.self_s"] = s(self_ns["averages.reduced_average_series"])
    out["symbolic.mc_triple_average.self_s"] = s(self_ns["symbolic.mc_triple_average"])
    out["symbolic.sample_omega.calls"] = c["symbolic.sample_omega.calls"]
    out["symbolic.sample_omega.s"] = s(outer_ns["symbolic.sample_omega"])
    out["eset.lut.calls"] = c["eset.lut.calls"]
    out["eset.lut.s"] = s(outer_ns["eset.lut"])
    out["eset.contains.calls"] = c["eset.contains.calls"]
    out["eset.schedule.s"] = s(outer_ns["eset.schedule"])
    out["filters.select.s"] = s(outer_ns["filters.select"])
    sampled = c["filters.sampled"]
    out["filters.accepted_frac"] = c["filters.accepted"] / sampled if sampled else 0.0

    out["parallel.ordered_map.items"] = c["parallel.ordered_map.items"]
    out["parallel.ordered_map.s"] = s(outer_ns["parallel.ordered_map"])
    busy = capacity = 0
    for sid, workers in tracer.pool_calls.items():
        span = by_id[sid]
        capacity += (span[5] - span[4]) * workers
    pool_ids = set(tracer.pool_calls)
    for sid, name, parent, _op, start, end, item in spans:
        if item and parent in pool_ids:
            busy += end - start
    out["parallel.ordered_map.busy_frac"] = busy / capacity if capacity else 0.0

    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = s(outer_ns[f"cli.{command}"])
    out["cli.emit.bytes"] = c["cli.emit.bytes"]

    # self time per layer; item spans are named after their owner, so their
    # time lands in the owner's layer
    for layer in LAYERS:
        out[f"{layer}.self_s"] = s(sum(
            v for k, v in self_ns.items() if k.startswith(f"{layer}.")))
    top = [(st[4], st[5]) for st in spans if st[2] is None]
    out["uncovered_s"] = s((pass_end_ns - pass_start_ns) - _union_ns(top))
    return out
