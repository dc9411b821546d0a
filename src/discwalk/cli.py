"""Command-line driver: every operation as a subcommand with reproducible seeds.

Configuration comes from an optional YAML file (``schema:
discwalk-config-v1``) plus flags; flags win.  The effective configuration is
echoed into every output header (``#``-prefixed lines for text/CSV, a
``config`` field for JSON) so results carry their provenance.  Exit codes:
0 success, 2 configuration error, 3 oracle-gate failure (cross-route
disagreement), 4 resource budget exceeded.
"""

from __future__ import annotations

import json
import math
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import click
import yaml

from .averages import (
    exact_average_series,
    ergodicity_correlation,
    full_circle_arc,
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


def load_config(path: Optional[str]) -> Dict:
    if path is None:
        return {}
    try:
        with open(path) as f:
            doc = yaml.safe_load(f) or {}
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}")
    except yaml.YAMLError as e:
        raise ConfigError(f"config file {path} is not valid YAML: {e}")
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a mapping")
    schema = doc.get("schema", "discwalk-config-v1")
    if schema != "discwalk-config-v1":
        raise ConfigError(f"unsupported config schema: {schema!r}")
    return doc


def effective(config: Dict, flag_values: Dict) -> Dict:
    """Merge file values under flag values; None flags defer to the file."""
    out = dict(config)
    out.pop("schema", None)
    for k, v in flag_values.items():
        if v is not None:
            out[k] = v
    return out


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


def parse_pairs(value) -> List[Tuple[int, int]]:
    """'l:r,l:r' flag form or [[l, r], ...] config form."""
    if isinstance(value, str):
        try:
            return [
                (int(piece.split(":")[0]), int(piece.split(":")[1]))
                for piece in value.split(",")
            ]
        except (ValueError, IndexError):
            raise ConfigError(f"bad interval pairs {value!r}; expected l:r,l:r")
    try:
        return [(int(l), int(r)) for l, r in value]
    except (TypeError, ValueError):
        raise ConfigError(f"bad interval pairs {value!r}")


def parse_int_list(value) -> List[int]:
    if isinstance(value, str):
        try:
            return [int(p) for p in value.split(",")]
        except ValueError:
            raise ConfigError(f"bad integer list {value!r}")
    try:
        return [int(v) for v in value]
    except (TypeError, ValueError):
        raise ConfigError(f"bad integer list {value!r}")


def parse_theta(value) -> FixedAngle:
    try:
        return FixedAngle.from_decimal_string(str(value))
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"bad theta {value!r}; expected a decimal in [0,1)")


def make_filter(spec):
    """None | 'all' | 'quantile:q[:horizon[:v_max]]'."""
    if spec in (None, "all", "none"):
        return AcceptAll()
    if isinstance(spec, str) and spec.startswith("quantile:"):
        parts = spec.split(":")[1:]
        try:
            q = float(parts[0])
            horizon = int(parts[1]) if len(parts) > 1 else 1 << 14
            v_max = int(parts[2]) if len(parts) > 2 else 2
        except (ValueError, IndexError):
            raise ConfigError(f"bad filter spec {spec!r}")
        require(0 < q < 1, f"bad filter spec {spec!r}; quantile q must be in (0, 1)")
        return QuantileFilter(q=q, horizon=horizon, v_max=v_max)
    raise ConfigError(f"bad filter spec {spec!r}; expected 'all' or 'quantile:q'")


def header_lines(cfg: Dict) -> str:
    return "".join(f"# {k}: {cfg[k]}\n" for k in sorted(cfg))


def emit(text: str, out: Optional[str]) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w") as f:
            f.write(text)


def require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def common_options(fn):
    for opt in (
        click.option("--config", "config_path", default=None, help="YAML config file."),
        click.option("--alpha", default=None, help="Rotation angle: preset or cf:...:bound."),
        click.option("--seed", type=int, default=None, help="RNG seed for sampling."),
        click.option("--threads", type=int, default=None, help="Worker threads (output-invariant)."),
        click.option("--out", default=None, help="Output file (default stdout)."),
    ):
        fn = opt(fn)
    return fn


def resolve_common(config_path, alpha, seed, threads, **rest) -> Dict:
    cfg = effective(load_config(config_path),
                    {"alpha": alpha, "seed": seed, "threads": threads, **rest})
    cfg.setdefault("threads", 1)
    require(int(cfg["threads"]) >= 1, "threads must be >= 1")
    return cfg


def require_seed(cfg: Dict) -> int:
    require(cfg.get("seed") is not None,
            "seed is mandatory for stochastic runs (flag --seed or config key 'seed')")
    return int(cfg["seed"])


# ---------------------------------------------------------------------------
# Subcommands.


@click.group()
def main():
    """Workbench for the oscillating triple-correlation average."""


@main.command("walk")
@common_options
@click.option("--theta", "thetas", multiple=True,
              help="Start point as a decimal in [0,1); repeatable.")
@click.option("--n", "n", type=int, default=None, help="Walk length N >= 1.")
@click.option("--n-theta", type=int, default=None,
              help="Number of random start points (with --seed) instead of --theta.")
def cmd_walk(config_path, alpha, seed, threads, out, thetas, n, n_theta):
    """Run the walk over a set of start points; emit occupation summaries."""
    cfg = resolve_common(config_path, alpha, seed, threads,
                         theta=list(thetas) or None, n=n, n_theta=n_theta)
    require(cfg.get("n") is not None, "walk length --n is required")
    N = int(cfg["n"])
    require(N >= 1, "walk length N must be >= 1")
    a = parse_alpha(cfg.get("alpha"))
    if cfg.get("theta"):
        points = [parse_theta(t) for t in cfg["theta"]]
    else:
        require(cfg.get("n_theta") is not None,
                "give at least one --theta, or --n-theta with --seed")
        points = sample_thetas(int(cfg["n_theta"]), require_seed(cfg))
    from .walk import WalkSummary

    rows = [run_walk(t, a, N).csv_row() for t in points]
    emit(header_lines(cfg) + WalkSummary.CSV_HEADER + "\n" + "\n".join(rows) + "\n", out)


@main.command("constants")
@common_options
@click.option("--n", type=int, default=None, help="Horizon N >= 16.")
@click.option("--n-theta", type=int, default=None, help="Number of theta samples.")
@click.option("--v-max", type=int, default=None, help="Largest |level| to estimate.")
def cmd_constants(config_path, alpha, seed, threads, out, n, n_theta, v_max):
    """Estimate the per-level occupation constants from a theta sample."""
    cfg = resolve_common(config_path, alpha, seed, threads,
                         n=n, n_theta=n_theta, v_max=v_max)
    require(cfg.get("n") is not None, "horizon --n is required")
    cfg.setdefault("v_max", 2)
    require(cfg.get("n_theta") is not None, "sample count --n-theta is required")
    a = parse_alpha(cfg.get("alpha"))
    seed_v = require_seed(cfg)
    table = estimate_constants(
        a, sample_thetas(int(cfg["n_theta"]), seed_v), int(cfg["n"]),
        int(cfg["v_max"]), seed=seed_v, workers=int(cfg["threads"]))
    emit(header_lines(cfg) + table.document(), out)


@main.command("schedule")
@common_options
@click.option("--mode", type=click.Choice(["desk", "paper"]), default=None)
@click.option("--pairs", default=None, help="Desk intervals as l:r,l:r.")
@click.option("--schedule-file", default=None, help="Load a serialized schedule instead.")
@click.option("--c-const", type=float, default=None,
              help="Constant occupation bound C for verify/generate.")
@click.option("--m-max", type=int, default=None, help="Paper mode: entries to generate.")
@click.option("--margin", type=float, default=None,
              help="Paper mode: target condition ratio (0 < margin <= 1).")
def cmd_schedule(config_path, alpha, seed, threads, out, mode, pairs,
                 schedule_file, c_const, m_max, margin):
    """Generate (paper mode) or load (desk mode) a schedule, verify, emit."""
    cfg = resolve_common(config_path, alpha, seed, threads, mode=mode, pairs=pairs,
                         schedule_file=schedule_file, c_const=c_const,
                         m_max=m_max, margin=margin)
    c_of = None
    if cfg.get("c_const") is not None:
        c_value = float(cfg["c_const"])
        require(0 < c_value < math.inf, "--c-const must be positive and finite")
        c_of = lambda v: LogNum(x=c_value)  # noqa: E731
    if cfg.get("schedule_file"):
        try:
            with open(cfg["schedule_file"]) as f:
                schedule = Schedule.parse(f.read())
        except OSError as e:
            raise ConfigError(f"cannot read schedule file: {e}")
    elif cfg.get("mode") == "paper":
        require(cfg.get("m_max") is not None, "paper mode requires --m-max")
        require(c_of is not None, "paper mode requires --c-const")
        margin = cfg.get("margin")
        schedule = generate_paper_schedule(
            c_of, int(cfg["m_max"]), 1.0 if margin is None else float(margin))
    else:
        require(cfg.get("pairs") is not None,
                "desk mode requires --pairs (or a schedule/config file)")
        schedule, _ = make_desk_schedule(parse_pairs(cfg["pairs"]))
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
    emit(header_lines(cfg) + schedule.serialize() + report_text, out)


@main.command("average")
@common_options
@click.option("--pairs", default=None, help="Desk intervals as l:r,l:r ('' for E empty).")
@click.option("--n-list", default=None, help="Comma-separated N checkpoints.")
@click.option("--n-theta", type=int, default=None, help="Theta samples per route.")
@click.option("--routes", default=None,
              help="Comma-set of reduced,exact,mc (default reduced).")
@click.option("--filter", "filter_spec", default=None,
              help="Theta filter: all (default) or quantile:q.")
@click.option("--report-out", default=None, help="Oscillation report path (JSON).")
@click.option("--fault-inject", is_flag=True, default=False,
              help="Deliberately corrupt the Monte Carlo route to trip the gate.")
def cmd_average(config_path, alpha, seed, threads, out, pairs, n_list, n_theta,
                routes, filter_spec, report_out, fault_inject):
    """Compute the Cesàro average series by the configured routes.

    When several routes run, they must agree pairwise within 3 combined
    standard errors at every checkpoint; disagreement exits with code 3.
    """
    cfg = resolve_common(config_path, alpha, seed, threads, pairs=pairs,
                         n_list=n_list, n_theta=n_theta, routes=routes,
                         filter=filter_spec, report_out=report_out,
                         fault_inject=fault_inject or None)
    require(cfg.get("pairs") is not None, "--pairs is required ('' for E empty)")
    require(cfg.get("n_list") is not None, "--n-list is required")
    a = parse_alpha(cfg.get("alpha"))
    pair_list = parse_pairs(cfg["pairs"]) if cfg["pairs"] else []
    N_list = sorted(parse_int_list(cfg["n_list"]))
    route_set = set((cfg.get("routes") or "reduced").split(","))
    require(route_set <= {"reduced", "exact", "mc"},
            f"unknown routes in {cfg.get('routes')!r}")
    b_filter = make_filter(cfg.get("filter"))
    workers = int(cfg["threads"])
    if pair_list:
        schedule, e = make_desk_schedule(pair_list)
    else:
        from .eset import ESet

        schedule, e = Schedule(mode="desk", intervals=[]), ESet.empty()

    series_by_route = {}
    if "reduced" in route_set:
        require(cfg.get("n_theta") is not None, "reduced route requires --n-theta")
        series_by_route["reduced"] = reduced_average_series(
            a, e, b_filter, N_list, int(cfg["n_theta"]), require_seed(cfg),
            workers=workers)
    if "exact" in route_set:
        series_by_route["exact"], _ = exact_average_series(a, e, N_list)
    if "mc" in route_set:
        require(cfg.get("n_theta") is not None, "mc route requires --n-theta")
        series_by_route["mc"] = mc_triple_average(
            a, e, N_list, int(cfg["n_theta"]), require_seed(cfg),
            b_filter=b_filter, workers=workers,
            fault_inject=bool(cfg.get("fault_inject")))

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
    body = header_lines(cfg)
    for name in names:
        body += f"# route: {name}\n" + series_by_route[name].to_csv()
    emit(body, out)
    report = oscillation_report(primary, schedule)
    doc = json.loads(report.to_json())
    doc["config"] = {k: cfg[k] for k in sorted(cfg)}
    emit(json.dumps(doc, indent=2) + "\n", cfg.get("report_out"))


@main.command("ratio")
@common_options
@click.option("--n-theta", type=int, default=None)
@click.option("--v-max", type=int, default=None)
@click.option("--n-list", default=None, help="Comma-separated N checkpoints.")
def cmd_ratio(config_path, alpha, seed, threads, out, n_theta, v_max, n_list):
    """Per-level visit ratios against returns to zero; emit summary medians."""
    cfg = resolve_common(config_path, alpha, seed, threads,
                         n_theta=n_theta, v_max=v_max, n_list=n_list)
    require(cfg.get("n_theta") is not None, "--n-theta is required")
    require(cfg.get("n_list") is not None, "--n-list is required")
    cfg.setdefault("v_max", 3)
    a = parse_alpha(cfg.get("alpha"))
    vmax = int(cfg["v_max"])
    v_list = [v for v in range(-vmax, vmax + 1) if v != 0]
    checkpoints = sorted(parse_int_list(cfg["n_list"]))
    table = ratio_check(a, sample_thetas(int(cfg["n_theta"]), require_seed(cfg)),
                        v_list, checkpoints, workers=int(cfg["threads"]))
    lines = [header_lines(cfg) + "v,N,median_ratio,median_abs_dev_from_one"]
    for v in v_list:
        for n in checkpoints:
            lines.append(
                f"{v},{n},{table.median(v, n)!r},{table.median_abs_dev_from_one(v, n)!r}")
    emit("\n".join(lines) + "\n", out)


@main.command("entropy-proxy")
@common_options
@click.option("--n-theta", type=int, default=None)
@click.option("--n-list", default=None, help="Comma-separated horizons.")
def cmd_entropy_proxy(config_path, alpha, seed, threads, out, n_theta, n_list):
    """Visited-range fraction a_N/N per horizon; emit per-N maxima."""
    cfg = resolve_common(config_path, alpha, seed, threads,
                         n_theta=n_theta, n_list=n_list)
    require(cfg.get("n_theta") is not None, "--n-theta is required")
    require(cfg.get("n_list") is not None, "--n-list is required")
    a = parse_alpha(cfg.get("alpha"))
    N_list = sorted(parse_int_list(cfg["n_list"]))
    table = zero_entropy_proxy(
        a, sample_thetas(int(cfg["n_theta"]), require_seed(cfg)), N_list,
        workers=int(cfg["threads"]))
    lines = [header_lines(cfg) + "N,max_range_fraction"]
    for N in N_list:
        lines.append(f"{N},{table.max_at(N)!r}")
    emit("\n".join(lines) + "\n", out)


def parse_cylinder(value) -> CylinderSpec:
    """'j:i,j:i' with symbols +-1; empty string for the whole space."""
    if value in (None, ""):
        return CylinderSpec(constraints=())
    try:
        constraints = tuple(
            (int(p.split(":")[0]), int(p.split(":")[1])) for p in value.split(","))
        return CylinderSpec(constraints=constraints)
    except (ValueError, IndexError):
        raise ConfigError(f"bad cylinder spec {value!r}; expected j:i,j:i")


@main.command("ergodicity")
@common_options
@click.option("--n", type=int, default=None, help="Cesàro horizon N.")
@click.option("--n-samples", type=int, default=None)
@click.option("--cyl-a", default=None, help="Cylinder constraints j:i,... ('' = all).")
@click.option("--cyl-b", default=None, help="Cylinder constraints j:i,... ('' = all).")
def cmd_ergodicity(config_path, alpha, seed, threads, out, n, n_samples, cyl_a, cyl_b):
    """Cesàro correlation of two product sets against the product of measures."""
    cfg = resolve_common(config_path, alpha, seed, threads, n=n,
                         n_samples=n_samples, cyl_a=cyl_a, cyl_b=cyl_b)
    require(cfg.get("n") is not None, "--n is required")
    require(cfg.get("n_samples") is not None, "--n-samples is required")
    a = parse_alpha(cfg.get("alpha"))
    lhs, rhs, stderr = ergodicity_correlation(
        a, parse_cylinder(cfg.get("cyl_a")), parse_cylinder(cfg.get("cyl_b")),
        full_circle_arc(), full_circle_arc(), int(cfg["n"]),
        int(cfg["n_samples"]), require_seed(cfg), workers=int(cfg["threads"]))
    sigmas = abs(lhs - rhs) / stderr if stderr > 0 else 0.0
    emit(header_lines(cfg)
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
        e.show()
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
