"""Command-line driver: every operation as a subcommand with reproducible seeds.

Configuration comes from flags and an optional YAML file (``schema:
discwalk-config-v1``) whose keys are the subcommand's option names with
``_``.  File values become the options' defaults, so flags win and both pass
click's type, range and required checks.  The resulting configuration is
echoed into every output header (``#``-prefixed lines for text/CSV, a
``config`` field for JSON) so results carry their provenance.  Exit codes:
0 success, 2 configuration error, 3 oracle-gate failure (cross-route
disagreement), 4 resource budget exceeded.
"""

from __future__ import annotations

import json
import math
import os
import sys
from fractions import Fraction
from typing import Dict, Optional, Sequence

import click
import yaml

from .averages import (
    exact_average_series,
    ergodicity_correlation,
    oscillation_report,
    ratio_check,
    reduced_average_series,
    zero_entropy_proxy,
)
from .errors import BudgetExceeded, ConfigError, DiscwalkError, UnknownPreset
from .eset import LogNum, Schedule, generate_paper_schedule, make_desk_schedule, verify_schedule
from .filters import AcceptAll, QuantileFilter
from .rotation import AlphaSpec, FixedAngle, resolve_alpha
from .symbolic import CylinderSpec, mc_triple_average
from .walk import estimate_constants, run_walk, sample_thetas

EXIT_CONFIG = 2
EXIT_GATE = 3
EXIT_BUDGET = 4


class OracleGateFailure(DiscwalkError):
    pass


# ---------------------------------------------------------------------------
# Configuration plumbing.


def load_config(ctx: click.Context, param, path: Optional[str]) -> None:
    """Eager ``--config`` callback: the file's values become option defaults."""
    if path is None:
        return
    try:
        with open(path) as f:
            doc = yaml.safe_load(f) or {}
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}")
    except yaml.YAMLError as e:
        mark, problem = getattr(e, "problem_mark", None), getattr(e, "problem", None)
        detail = (f"{problem} (line {mark.line + 1})" if mark and problem
                  else " ".join(str(e).split()))
        raise ConfigError(f"config file {path} is not valid YAML: {detail}")
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    schema = doc.pop("schema", "discwalk-config-v1")
    if schema != "discwalk-config-v1":
        raise ConfigError(f"unsupported config schema: {schema!r}")
    params = {p.name: p for p in ctx.command.params if p.expose_value}
    unknown = sorted(map(str, set(doc) - set(params)))
    require(not unknown, f"unknown config keys for {ctx.info_name}: {', '.join(unknown)}")
    doc = {k: v for k, v in doc.items() if v is not None}  # null leaves a setting unset
    for key, value in doc.items():
        param = params[key]
        if param.type is click.UNPROCESSED:
            continue  # parsed by our own parse_* functions
        # click's converters raise TypeError, not BadParameter, on other shapes
        items = value if param.multiple and isinstance(value, list) else [value]
        want = "a list of strings or numbers" if param.multiple else "a string or number"
        require(all(isinstance(v, (str, int, float)) for v in items),
                f"config key {key!r} must be {want}, not {value!r}")
    ctx.default_map = doc


def parse_alpha(value) -> FixedAngle:
    """'golden' | 'sqrt2m1' | 'sqrt3m1' | 'cf:a1,a2,...:bound'."""
    if value is None:
        raise ConfigError("no alpha specified (flag --alpha or config key 'alpha')")
    value = str(value)
    if value.startswith("cf:"):
        parts = value.split(":")
        if len(parts) != 3:
            raise ConfigError(f"bad custom alpha {value!r}; expected cf:a1,a2,...:bound")
        try:
            quotients = [int(a) for a in parts[1].split(",")]
            bound = int(parts[2])
        except ValueError:
            raise ConfigError(f"bad custom alpha {value!r}; quotients must be integers")
        return resolve_alpha(AlphaSpec(quotients=quotients, bound=bound))
    if value not in AlphaSpec.PRESETS:
        raise UnknownPreset(
            f"unknown alpha preset {value!r}; choose one of {AlphaSpec.PRESETS} "
            "or cf:a1,a2,...:bound")
    return resolve_alpha(AlphaSpec(preset=value))


def parse_list(value, what: str, form: str) -> list:
    """A list option in flag form, ``form`` ('l:r,l:r', or 'n,n' for single
    integers), or config form (a YAML list of such items, an item of several
    fields as a list): integers, or tuples of as many as an item of form has."""
    width = form.split(",")[0].count(":") + 1
    items = value.split(",") if isinstance(value, str) else value
    parsed = None
    if isinstance(items, list):
        try:
            parsed = [[int(x) for x in (item.split(":") if isinstance(item, str) else
                                        item if isinstance(item, list) else [item])]
                      for item in items]
        except (TypeError, ValueError, OverflowError):
            pass
    if parsed is None or any(len(item) != width for item in parsed):
        raise ConfigError(f"bad {what} {value!r}; expected {form}")
    return [item[0] if width == 1 else tuple(item) for item in parsed]


def parse_theta(value) -> FixedAngle:
    try:
        frac = Fraction(str(value))
        if 0 <= frac < 1:
            return FixedAngle.from_fraction(frac)
    except (ValueError, ZeroDivisionError):
        pass
    raise ConfigError(f"bad theta {value!r}; expected a decimal in [0,1)")


def make_filter(spec):
    """None | 'all' | 'quantile:q[:horizon[:v_max]]'."""
    if spec in (None, "all", "none"):
        return AcceptAll()
    if isinstance(spec, str) and spec.startswith("quantile:"):
        parts = spec.split(":")[1:]
        if len(parts) > 3:
            raise ConfigError(f"bad filter spec {spec!r}; at most 'quantile:q:horizon:v_max'")
        try:
            q = float(parts[0])
            horizon = int(parts[1]) if len(parts) > 1 else 1 << 14
            v_max = int(parts[2]) if len(parts) > 2 else 2
        except (ValueError, IndexError):
            raise ConfigError(f"bad filter spec {spec!r}")
        return QuantileFilter(q=q, horizon=horizon, v_max=v_max)
    raise ConfigError(f"bad filter spec {spec!r}; expected 'all' or 'quantile:q'")


def settings() -> Dict:
    """The settings to echo: set values, tuples as lists; no false flags, no --out."""
    params = click.get_current_context().params
    return {k: list(v) if isinstance(v, tuple) else v for k, v in sorted(params.items())
            if k != "out" and v is not None and v is not False and v != ()}


def header_lines(cfg: Dict) -> str:
    return "".join(f"# {k}: {v}\n" for k, v in cfg.items())


def emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w") as f:
            f.write(text)
    except OSError as e:
        raise ConfigError(f"cannot write {out}: {e.strerror}")


def check_writable(out: Optional[str]) -> None:
    """Refuse, before anything is written, an output path emit cannot open:
    a directory, or a file in a directory that does not exist."""
    if out is not None:
        where = os.path.dirname(out) or "."
        require(os.path.isdir(where), f"cannot write {out}: No such file or directory")
        require(not os.path.isdir(out), f"cannot write {out}: Is a directory")


def require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def common_options(fn):
    for opt in (
        click.option("--config", callback=load_config, is_eager=True, expose_value=False,
                     help="YAML config file; its keys are option names with '_'."),
        click.option("--alpha", type=click.UNPROCESSED, default=None,
                     help="Rotation angle: preset or cf:...:bound."),
        click.option("--seed", type=click.IntRange(min=0), default=None,
                     help="RNG seed for sampling (>= 0)."),
        click.option("--threads", type=click.IntRange(min=1), default=1,
                     callback=lambda ctx, param, n: min(n, os.cpu_count() or 1),
                     help="No effect: every loop runs in the calling thread. Still "
                          "checked, clamped to the CPU count and echoed."),
        click.option("--out", default=None, help="Output file (default stdout)."),
    ):
        fn = opt(fn)
    return fn


def require_seed(seed: Optional[int]) -> int:
    require(seed is not None,
            "seed is mandatory for stochastic runs (flag --seed or config key 'seed')")
    return seed


# ---------------------------------------------------------------------------
# Subcommands.


@click.group()
def main():
    """Workbench for the oscillating triple-correlation average."""


@main.command("walk")
@common_options
@click.option("--theta", multiple=True, help="Start point as a decimal in [0,1); repeatable.")
@click.option("--n", type=int, required=True, help="Walk length N >= 1.")
@click.option("--n-theta", type=click.IntRange(min=1), default=None,
              help="Number of random start points (with --seed) instead of --theta.")
def cmd_walk(alpha, seed, threads, out, theta, n, n_theta):
    """Run the walk over a set of start points; emit occupation summaries."""
    require(n >= 1, "walk length N must be >= 1")
    a = parse_alpha(alpha)
    if theta:
        points = [parse_theta(t) for t in theta]
    else:
        require(n_theta is not None, "give at least one --theta, or --n-theta with --seed")
        points = [FixedAngle((hi << 64) | lo)
                  for hi, lo in sample_thetas(n_theta, require_seed(seed)).tolist()]
    from .walk import WalkSummary

    rows = [run_walk(t, a, n).csv_row() for t in points]
    emit(header_lines(settings()) + WalkSummary.CSV_HEADER + "\n" + "\n".join(rows) + "\n", out)


@main.command("constants")
@common_options
@click.option("--n", type=int, required=True, help="Horizon N >= 16.")
@click.option("--n-theta", type=click.IntRange(min=1), required=True,
              help="Number of theta samples.")
@click.option("--v-max", type=click.IntRange(min=0), default=2, help="Largest |level| to estimate.")
def cmd_constants(alpha, seed, threads, out, n, n_theta, v_max):
    """Estimate the per-level occupation constants from a theta sample."""
    a = parse_alpha(alpha)
    seed = require_seed(seed)
    table = estimate_constants(a, sample_thetas(n_theta, seed), n, v_max, seed=seed)
    emit(header_lines(settings()) + table.document(), out)


@main.command("schedule")
@common_options
@click.option("--mode", type=click.Choice(["desk", "paper"]), default=None)
@click.option("--pairs", type=click.UNPROCESSED, default=None, help="Desk intervals as l:r,l:r.")
@click.option("--schedule-file", default=None, help="Load a serialized schedule instead.")
@click.option("--c-const", default=None,
              type=click.FloatRange(0, math.inf, min_open=True, max_open=True),
              help="Constant occupation bound C for verify/generate.")
@click.option("--m-max", type=click.IntRange(min=1), default=None,
              help="Paper mode: entries to generate.")
@click.option("--margin", type=float, default=None,
              help="Paper mode: target condition ratio (0 < margin <= 1).")
def cmd_schedule(alpha, seed, threads, out, mode, pairs, schedule_file, c_const, m_max,
                 margin):
    """Generate (paper mode) or load (desk mode) a schedule, verify, emit."""
    c_of = None
    if c_const is not None:
        # nan passes every range comparison
        require(not math.isnan(c_const), "--c-const must be positive and finite")
        c_of = lambda v: LogNum(x=c_const)  # noqa: E731
    if schedule_file:
        try:
            with open(schedule_file) as f:
                schedule = Schedule.parse(f.read())
        except (OSError, UnicodeDecodeError) as e:
            raise ConfigError(f"cannot read schedule file: {e}")
    elif mode == "paper":
        require(m_max is not None, "paper mode requires --m-max")
        require(c_of is not None, "paper mode requires --c-const")
        schedule = generate_paper_schedule(c_of, m_max, 1.0 if margin is None else margin)
    else:
        require(pairs is not None, "desk mode requires --pairs (or a schedule/config file)")
        schedule, _ = make_desk_schedule(parse_list(pairs, "interval pairs", "l:r,l:r"))
    report_text = ""
    if c_of is not None:
        report = verify_schedule(schedule, c_of)
        lines = [f"conditions_passed: {report.passed}",
                 f"max_ratio: {report.max_ratio!r}",
                 f"a_ok: {report.a_ok}"]
        for row in report.rows:
            lines.append(
                f"m[{row.m}]: b_ok={row.b_ok} b_ratio={row.b_ratio!r} "
                f"c_ok={row.c_ok} c_ratio={row.c_ratio!r}")
        report_text = "\n".join(lines) + "\n"
    emit(header_lines(settings()) + schedule.serialize() + report_text, out)


@main.command("average")
@common_options
@click.option("--pairs", type=click.UNPROCESSED, required=True,
              help="Desk intervals as l:r,l:r ('' for E empty).")
@click.option("--n-list", type=click.UNPROCESSED, required=True,
              help="Comma-separated N checkpoints.")
@click.option("--n-theta", type=int, default=None, help="Theta samples per route.")
@click.option("--routes", default=None, help="Comma-set of reduced,exact,mc (default reduced).")
@click.option("--filter", type=click.UNPROCESSED, default=None,
              help="Theta filter: all (default) or quantile:q.")
@click.option("--report-out", default=None, help="Oscillation report path (JSON).")
@click.option("--fault-inject", is_flag=True, default=False,
              help="Deliberately corrupt the Monte Carlo route to trip the gate.")
def cmd_average(alpha, seed, threads, out, pairs, n_list, n_theta, routes, filter,
                report_out, fault_inject):
    """Compute the Cesàro average series by the configured routes.

    When several routes run, they must agree pairwise within 3 combined
    standard errors at every checkpoint; disagreement exits with code 3.
    """
    a = parse_alpha(alpha)
    pair_list = parse_list(pairs, "interval pairs", "l:r,l:r") if pairs else []
    N_list = sorted(parse_list(n_list, "integer list", "n,n"))
    route_set = set((routes or "reduced").split(","))
    require(route_set <= {"reduced", "exact", "mc"}, f"unknown routes in {routes!r}")
    b_filter = make_filter(filter)
    # filtered sampled routes integrate over the accepted thetas only
    require("exact" not in route_set or isinstance(b_filter, AcceptAll),
            f"the exact route covers the whole circle; it cannot run with --filter {filter}")
    if pair_list:
        schedule, e = make_desk_schedule(pair_list)
    else:
        from .eset import ESet

        schedule, e = Schedule(mode="desk", intervals=[]), ESet.empty()

    series_by_route = {}
    if "reduced" in route_set:
        require(n_theta is not None, "reduced route requires --n-theta")
        series_by_route["reduced"] = reduced_average_series(
            a, e, b_filter, N_list, n_theta, require_seed(seed))
    if "exact" in route_set:
        series_by_route["exact"], _ = exact_average_series(a, e, N_list)
    if "mc" in route_set:
        require(n_theta is not None, "mc route requires --n-theta")
        series_by_route["mc"] = mc_triple_average(
            a, e, N_list, n_theta, require_seed(seed), b_filter=b_filter,
            fault_inject=fault_inject)

    # oracle gate: pairwise agreement within 3 combined standard errors
    names = sorted(series_by_route)
    for i, na in enumerate(names):
        for nb in names[i + 1:]:
            for N in N_list:
                ea, eb = series_by_route[na].at(N), series_by_route[nb].at(N)
                tol = 3.0 * math.hypot(ea.stderr, eb.stderr)
                if abs(ea.value - eb.value) > max(tol, 1e-12):
                    raise OracleGateFailure(
                        f"routes {na} and {nb} disagree at N={N}: "
                        f"{ea.value!r} vs {eb.value!r} (tolerance {tol!r})")

    primary = series_by_route.get("reduced") or series_by_route[names[0]]
    report = oscillation_report(primary, schedule)
    cfg = settings()
    body = header_lines(cfg)
    for name in names:
        body += f"# route: {name}\n" + series_by_route[name].to_csv()
    check_writable(report_out)
    require(None in (out, report_out) or os.path.realpath(out) != os.path.realpath(report_out),
            f"--out and --report-out name the same file: {report_out}")
    emit(body, out)
    doc = json.loads(report.to_json())
    doc["config"] = cfg
    emit(json.dumps(doc, indent=2) + "\n", report_out)


@main.command("ratio")
@common_options
@click.option("--n-theta", type=click.IntRange(min=1), required=True)
@click.option("--v-max", type=click.IntRange(min=1), default=3)
@click.option("--n-list", type=click.UNPROCESSED, required=True,
              help="Comma-separated N checkpoints.")
def cmd_ratio(alpha, seed, threads, out, n_theta, v_max, n_list):
    """Per-level visit ratios against returns to zero; emit summary medians."""
    a = parse_alpha(alpha)
    checkpoints = sorted(parse_list(n_list, "integer list", "n,n"))
    table = ratio_check(a, sample_thetas(n_theta, require_seed(seed)), v_max, checkpoints)
    lines = [header_lines(settings()) + "v,N,median_ratio,median_abs_dev_from_one"]
    for v in table.v_list:
        for n in checkpoints:
            lines.append(
                f"{v},{n},{table.median(v, n)!r},{table.median_abs_dev_from_one(v, n)!r}")
    emit("\n".join(lines) + "\n", out)


@main.command("entropy-proxy")
@common_options
@click.option("--n-theta", type=click.IntRange(min=1), required=True)
@click.option("--n-list", type=click.UNPROCESSED, required=True,
              help="Comma-separated horizons.")
def cmd_entropy_proxy(alpha, seed, threads, out, n_theta, n_list):
    """Visited-range fraction a_N/N per horizon; emit per-N maxima."""
    a = parse_alpha(alpha)
    N_list = sorted(parse_list(n_list, "integer list", "n,n"))
    table = zero_entropy_proxy(a, sample_thetas(n_theta, require_seed(seed)), N_list)
    lines = [header_lines(settings()) + "N,max_range_fraction"]
    for N in N_list:
        lines.append(f"{N},{table.max_at(N)!r}")
    emit("\n".join(lines) + "\n", out)


def parse_cylinder(value) -> CylinderSpec:
    """'j:i,j:i' with symbols +-1, or its config list; empty for the whole space."""
    if value in (None, ""):
        return CylinderSpec(constraints=())
    return CylinderSpec(constraints=tuple(parse_list(value, "cylinder spec", "j:i,j:i")))


@main.command("ergodicity")
@common_options
@click.option("--n", type=int, required=True, help="Cesàro horizon N.")
@click.option("--n-samples", type=int, required=True)
@click.option("--cyl-a", type=click.UNPROCESSED, default=None,
              help="Cylinder constraints j:i,... ('' = all).")
@click.option("--cyl-b", type=click.UNPROCESSED, default=None,
              help="Cylinder constraints j:i,... ('' = all).")
def cmd_ergodicity(alpha, seed, threads, out, n, n_samples, cyl_a, cyl_b):
    """Cesàro correlation of two product sets against the product of measures."""
    a = parse_alpha(alpha)
    lhs, rhs, stderr = ergodicity_correlation(
        a, parse_cylinder(cyl_a), parse_cylinder(cyl_b), n, n_samples, require_seed(seed))
    sigmas = abs(lhs - rhs) / stderr if stderr > 0 else 0.0
    emit(header_lines(settings())
         + f"cesaro_average: {lhs!r}\nproduct_of_measures: {rhs!r}\n"
         + f"stderr: {stderr!r}\nsigmas: {sigmas!r}\n", out)


def entrypoint(argv: Optional[Sequence[str]] = None) -> int:
    """Invoke the CLI with the documented exit-code mapping."""
    try:
        main.main(args=argv, standalone_mode=False)
        return 0
    except click.exceptions.Abort:
        return EXIT_CONFIG
    except click.ClickException as e:
        click.echo(f"config: {e.format_message()}", err=True)
        return EXIT_CONFIG
    except OracleGateFailure as e:
        click.echo(f"oracle gate: {e}", err=True)
        return EXIT_GATE
    except BudgetExceeded as e:
        click.echo(f"budget: {e}", err=True)
        return EXIT_BUDGET
    except DiscwalkError as e:
        click.echo(f"config: {e}", err=True)
        return EXIT_CONFIG


def run():  # console-script shim: map our exit codes onto the process status
    sys.exit(entrypoint())


if __name__ == "__main__":
    run()
