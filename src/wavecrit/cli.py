"""Scenario-driven command line front end.

A scenario is a YAML document (versioned schema, all defaults made
explicit in the emitted report) naming an equation, a grid, a data pair,
and optional expectations.  Subcommands dispatch the solvers and write a
deterministic JSON report plus CSV series with a gnuplot script; identical
configs produce bit-identical reports.

Exit codes: 0 all expectations held (or none were stated), 1 an
expectation failed, 2 the config or run was invalid (diagnostics on
stderr).
"""

import argparse
import dataclasses
import functools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from importlib import resources
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import numpy as np
import yaml

from .criteria import _jsonable, quadratic_global_condition
from .errors import ConfigError, WavecritError
from .focusing import monotone_iterate, soliton
from .freewave import CauchyData, propagate_radial
from .nullwave import detect_blowup, solve_null
from .oracle import discrete_energy, fd_solve
from .radial import RadialField, RadialGrid
from .transforms import build_profile, builtin_nonlinearity

SCHEMA_VERSION = 1
ACTIONS = ("classify", "solve", "blowup", "iterate", "oracle")

_DEF_GRID = {"r_max": 8.0, "n": 161, "grading": "uniform"}
_DEF_SOLVER = {
    "tol": 1e-8,
    "n_max": 200,
    "cap": 1e6,
    "h": None,
    "cfl": 0.8,
    "threshold": 1e8,
}


# ---------------------------------------------------------------------------
# scenario ingestion


def _merge(defaults: dict, given: dict, context: str) -> dict:
    out = dict(defaults)
    for key, value in given.items():
        if key not in defaults:
            raise ConfigError(f"unknown key {context}.{key}")
        out[key] = value
    return out


def normalize_scenario(doc: dict) -> dict:
    """Fill every default explicitly and validate the shape."""
    if not isinstance(doc, dict):
        raise ConfigError("scenario must be a mapping")
    known = {
        "schema", "name", "action", "equation", "grid", "data",
        "horizon", "probe", "solver", "expect",
    }
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown scenario key {key!r}")
    schema = doc.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {schema!r}")

    equation = dict(doc.get("equation") or {"kind": "free"})
    kind = equation.get("kind", "free")
    if kind == "null-form":
        equation = _merge(
            {"kind": "null-form", "f": "const", "param": 1.0}, equation, "equation"
        )
    elif kind == "focusing":
        equation = _merge(
            {"kind": "focusing", "N": 4, "sign": 1}, equation, "equation"
        )
    elif kind == "free":
        equation = _merge({"kind": "free"}, equation, "equation")
    else:
        raise ConfigError(f"unknown equation kind {kind!r}")

    grid = _merge(dict(_DEF_GRID, nodes=None), dict(doc.get("grid") or {}), "grid")
    data = dict(doc.get("data") or {})
    for slot in data:
        if slot not in ("u0", "u1"):
            raise ConfigError(f"unknown data slot {slot!r}")
    data = {
        "u0": dict(data.get("u0") or {"family": "zero"}),
        "u1": dict(data.get("u1") or {"family": "zero"}),
    }

    horizon = float(doc.get("horizon", 1.0))
    probe = _merge(
        {"times": [horizon], "radii": []}, dict(doc.get("probe") or {}), "probe"
    )
    solver = _merge(_DEF_SOLVER, dict(doc.get("solver") or {}), "solver")
    expect = list(doc.get("expect") or [])
    for entry in expect:
        if not isinstance(entry, dict) or "path" not in entry:
            raise ConfigError("each expectation needs a path")
        for key in entry:
            if key not in ("path", "equals", "min", "max", "tol"):
                raise ConfigError(f"unknown expectation key {key!r}")

    return {
        "schema": SCHEMA_VERSION,
        "name": str(doc.get("name", "unnamed")),
        "action": str(doc.get("action", "solve")),
        "equation": equation,
        "grid": grid,
        "data": data,
        "horizon": horizon,
        "probe": probe,
        "solver": solver,
        "expect": expect,
    }


def _bundled_dir():
    return resources.files("wavecrit") / "scenarios"


def load_scenario(ref: str) -> dict:
    """Read a scenario from a path, or by bundled name (with or without .yaml)."""
    path = Path(ref)
    if path.exists():
        text = path.read_text()
    else:
        name = ref if ref.endswith(".yaml") else ref + ".yaml"
        bundled = _bundled_dir() / name
        try:
            text = bundled.read_text()
        except (FileNotFoundError, OSError):
            raise ConfigError(f"no such scenario file or bundled name: {ref}")
    try:
        doc = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"scenario is not valid YAML: {exc}")
    return normalize_scenario(doc)


def build_grid(spec: dict) -> RadialGrid:
    if spec.get("nodes") is not None:
        return RadialGrid(np.asarray(spec["nodes"], dtype=float), grading="loaded")
    if spec["grading"] == "uniform":
        return RadialGrid.uniform(float(spec["r_max"]), int(spec["n"]))
    if spec["grading"] == "graded":
        return RadialGrid.graded(float(spec["r_max"]), int(spec["n"]))
    raise ConfigError(f"unknown grading {spec['grading']!r}")


def build_field(grid: RadialGrid, spec: dict, slot: str) -> RadialField:
    family = spec.get("family", "zero")
    r = grid.nodes
    if family == "zero":
        return RadialField(grid, np.zeros(grid.n))
    if family == "constant":
        return RadialField(grid, float(spec.get("amplitude", 1.0)) * np.ones(grid.n))
    if family == "gaussian":
        a = float(spec.get("amplitude", 1.0))
        c = float(spec.get("center", 0.0))
        w = float(spec.get("width", 1.0))
        return RadialField(grid, a * np.exp(-(((r - c) / w) ** 2)))
    if family == "soliton":
        scale = float(spec.get("scale", 1.0))
        return RadialField(grid, scale * soliton("ground", 4)(r))
    if family == "soliton-velocity":
        if slot != "u1":
            raise ConfigError("soliton-velocity has a 1/r pole: velocity slot only")
        scale = float(spec.get("scale", 1.0))
        return RadialField.from_moment(grid, scale * soliton("ground", 4).outgoing_moment(r))
    if family == "tabulated":
        if "path" not in spec:
            raise ConfigError(f"tabulated {slot} needs a path")
        table = np.loadtxt(str(spec["path"]), delimiter=",", ndmin=2)
        if table.shape[1] < 2:
            raise ConfigError(f"tabulated {slot} needs two columns, r and the value")
        return RadialField(grid, np.interp(r, table[:, 0], table[:, 1]))
    raise ConfigError(f"unknown data family {family!r}")


def build_data(scenario: dict) -> CauchyData:
    grid = build_grid(scenario["grid"])
    return CauchyData(
        build_field(grid, scenario["data"]["u0"], "u0"),
        build_field(grid, scenario["data"]["u1"], "u1"),
    )


def _weight_spec(eq: dict) -> Tuple[str, Optional[float]]:
    """(name, param) of a null-form weight; sin and neg_arctan take none."""
    name = eq["f"]
    if name in ("sin", "neg_arctan"):
        return name, None
    try:
        return name, float(eq["param"])
    except KeyError as exc:
        raise ConfigError(str(exc))


def _weight(name: str, param: Optional[float]):
    args = (name,) if param is None else (name, param)
    try:
        return builtin_nonlinearity(*args)
    except KeyError as exc:
        raise ConfigError(str(exc))


@functools.lru_cache(maxsize=1)
def _weight_profile(name: str, param: Optional[float]):
    # profiles are immutable, so the actions on one weight spec share one;
    # a single entry, because a tabulated profile (sin, neg_arctan, linear
    # k ≤ 0) holds ~0.8 MB of tables; const and linear k > 0 are closed forms
    return build_profile(_weight(name, param))


def _profile(scenario: dict):
    eq = scenario["equation"]
    if eq["kind"] != "null-form":
        raise ConfigError(f"action needs a null-form equation, got {eq['kind']!r}")
    return _weight_profile(*_weight_spec(eq))


# ---------------------------------------------------------------------------
# actions


def _act_classify(scenario: dict, series: dict) -> dict:
    profile = _profile(scenario)
    verdict = quadratic_global_condition(build_data(scenario), profile)
    return {
        "verdict": verdict.to_dict(),
        "holds": bool(verdict.holds),
        "endpoints": _jsonable(dataclasses.asdict(profile.classification)),
    }


def _iterate(scenario: dict, data: CauchyData, series: dict):
    """Monotone iteration of the focusing equation, with its sup series."""
    solver = scenario["solver"]
    state = monotone_iterate(
        data,
        float(scenario["equation"]["N"]),
        scenario["horizon"],
        cap=float(solver["cap"]),
        tol=float(solver["tol"]),
        n_max=int(solver["n_max"]),
    )
    sups = state.sup_profile()
    series["series"] = np.column_stack([state.times, np.nan_to_num(sups, nan=np.inf)])
    series["columns"] = ("t", "sup_u")
    summary = {
        "converged": bool(state.converged),
        "iterations": int(state.n),
        "case": state.case,
        "validity": state.validity,
        "diverged_fraction": state.diverged_fraction,
    }
    return state, sups, summary


def _act_solve(scenario: dict, series: dict) -> dict:
    data = build_data(scenario)
    times = [float(t) for t in scenario["probe"]["times"]]
    kind = scenario["equation"]["kind"]
    if kind == "focusing":
        _, sups, out = _iterate(scenario, data, series)
        out["sup_final"] = float(sups[np.isfinite(sups)][-1])
        return out
    if kind == "null-form":
        profile = _profile(scenario)
        slices = [solve_null(data, profile, t) for t in times]
    else:
        slices = [propagate_radial(data, t) for t in times]
    grid = slices[0].grid
    series["series"] = np.column_stack([grid.nodes] + [s.values for s in slices])
    series["columns"] = ("r",) + tuple(f"u_t{t:g}" for t in times)
    return {
        "times": times,
        "sup_by_time": [float(np.max(np.abs(s.values))) for s in slices],
    }


def _act_blowup(scenario: dict, series: dict) -> dict:
    report = detect_blowup(build_data(scenario), _profile(scenario))
    return {
        "t0": report.t0,
        "witness_radius": report.x0_radius,
        "window": report.window,
        "side": report.side,
        "log_rate_slope": report.log_rate_fit[1],
    }


def _act_iterate(scenario: dict, series: dict) -> dict:
    if scenario["equation"]["kind"] != "focusing":
        raise ConfigError("iterate needs a focusing equation")
    state, _, out = _iterate(scenario, build_data(scenario), series)
    out["trace"] = state.trace
    return out


def _act_oracle(scenario: dict, series: dict) -> dict:
    eq = scenario["equation"]
    if eq["kind"] == "null-form":
        rhs = ("null", _weight(*_weight_spec(eq)))
    elif eq["kind"] == "focusing":
        rhs = ("power", float(eq["N"]), int(eq["sign"]))
    else:
        rhs = None
    solver = scenario["solver"]
    h = solver["h"]
    if h is None:
        h = build_grid(scenario["grid"]).spacing
    run = fd_solve(
        build_data(scenario),
        rhs,
        scenario["horizon"],
        h=float(h),
        cfl=float(solver["cfl"]),
        threshold=float(solver["threshold"]),
        snapshot_times=scenario["probe"]["times"],
    )
    sups = [float(np.max(np.abs(s))) for s in run.snapshots]
    if sups:
        series["series"] = np.column_stack([run.snapshot_times, sups])
        series["columns"] = ("t", "sup_u")
    out = {
        "status": run.status,
        "t_detect": run.t_detect,
        "step_index": run.step_index,
        "h": run.h,
        "k": run.k,
        "sup_by_snapshot": sups,
        "sup_max": max(sups) if sups else None,
    }
    if run.status == "completed" and run.energy_values.size:
        out["energy_drift"] = discrete_energy(run)["drift"]
    return out


_ACTION_TABLE = {
    "classify": _act_classify,
    "solve": _act_solve,
    "blowup": _act_blowup,
    "iterate": _act_iterate,
    "oracle": _act_oracle,
}


# ---------------------------------------------------------------------------
# expectations and reports


def _resolve_path(report: dict, dotted: str):
    node = report
    for part in dotted.split("."):
        if isinstance(node, dict) and part in node:
            node = node[part]
        else:
            raise KeyError(dotted)
    return node


def check_expectations(report: dict, expect: List[dict]) -> Tuple[bool, List[dict]]:
    outcomes = []
    all_ok = True
    for entry in expect:
        record = {"path": entry["path"]}
        try:
            value = _resolve_path(report, entry["path"])
            record["value"] = _jsonable(value)
            ok = True
            if "equals" in entry:
                target = entry["equals"]
                if isinstance(target, (int, float)) and not isinstance(target, bool):
                    tol = float(entry.get("tol", 0.0))
                    ok &= value is not None and abs(float(value) - float(target)) <= tol
                else:
                    ok &= value == target
            if "min" in entry:
                ok &= value is not None and float(value) >= float(entry["min"])
            if "max" in entry:
                ok &= value is not None and float(value) <= float(entry["max"])
        except KeyError:
            ok = False
            record["value"] = None
            record["note"] = "path not found in report"
        except (TypeError, ValueError):
            ok = False
            record["note"] = "value not comparable with the stated bound"
        record["passed"] = bool(ok)
        outcomes.append(record)
        all_ok &= ok
    return all_ok, outcomes


PLOT_TEMPLATE = """\
# gnuplot script; render with: gnuplot {name}.gp
set datafile separator ","
set key autotitle columnhead
set xlabel "{xlabel}"
set ylabel "{ylabel}"
set terminal pngcairo size 900,600
set output "{name}.png"
plot {plots}
"""


def _write_csv(path: Path, header: str, rows) -> None:
    """A header line, then each row as "%.18e" values joined by commas."""
    lines = [header] + [",".join("%.18e" % v for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_series(out_dir: Path, name: str, series: dict) -> None:
    if "series" not in series:
        return
    columns = series["columns"]
    _write_csv(out_dir / f"{name}.csv", ",".join(columns), series["series"])
    plots = ", ".join(
        f'"{name}.csv" using 1:{i + 2} with lines' for i in range(len(columns) - 1)
    )
    script = PLOT_TEMPLATE.format(
        name=name, xlabel=columns[0], ylabel="value", plots=plots
    )
    (out_dir / f"{name}.gp").write_text(script)


def _write_report(out_dir: Path, stem: str, report: dict) -> None:
    """<out_dir>/<stem>.json: sorted keys, two-space indent, final newline."""
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")


def run_scenario(
    scenario: dict,
    action: Optional[str],
    out_dir: Path,
    tolerance_scale: float = 1.0,
) -> Tuple[int, dict]:
    """Execute one scenario; returns (exit code, report dict)."""
    act = action or scenario["action"]
    if act not in _ACTION_TABLE:
        raise ConfigError(f"unknown action {act!r}")
    scenario = json.loads(json.dumps(scenario))  # defensive copy
    scenario["solver"]["tol"] = float(scenario["solver"]["tol"]) * tolerance_scale
    series: dict = {}
    results = _ACTION_TABLE[act](scenario, series)
    report = {
        "schema": SCHEMA_VERSION,
        "scenario": scenario,
        "action": act,
        "tolerance_scale": tolerance_scale,
        "results": _jsonable(results),
    }
    ok, outcomes = check_expectations(report, scenario["expect"])
    report["assertions"] = outcomes
    report["passed"] = bool(ok)

    stem = f"{scenario['name']}-{act}"
    _write_report(out_dir, stem, report)
    _write_series(out_dir, stem, series)
    return (0 if ok else 1), report


# ---------------------------------------------------------------------------
# sweep


def _set_dotted(doc: dict, dotted: str, value) -> None:
    parts = dotted.split(".")
    node = doc
    for part in parts[:-1]:
        if not isinstance(node, dict) or part not in node:
            raise ConfigError(f"parameter {dotted!r} not addressable in config")
        node = node[part]
    if not isinstance(node, dict) or parts[-1] not in node:
        raise ConfigError(f"parameter {dotted!r} not addressable in config")
    node[parts[-1]] = value


def _sweep_one(payload) -> Tuple[float, dict]:
    scenario, action, out_str, scale, parameter, value = payload
    doc = json.loads(json.dumps(scenario))
    _set_dotted(doc, parameter, value)
    doc["name"] = f"{doc['name']}-{parameter.replace('.', '_')}-{value:g}"
    code, report = run_scenario(doc, action, Path(out_str), scale)
    return value, report


def run_sweep(
    scenario: dict,
    parameter: str,
    values: Sequence[float],
    action: Optional[str],
    out_dir: Path,
    workers: int = 1,
    tolerance_scale: float = 1.0,
) -> Tuple[int, dict]:
    if not values:
        raise ConfigError("sweep needs a nonempty value list")
    _set_dotted(scenario, parameter, values[0])  # fail fast if unaddressable
    jobs = [
        (scenario, action, str(out_dir), tolerance_scale, parameter, v)
        for v in values
    ]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_one, jobs))
    else:
        results = [_sweep_one(job) for job in jobs]

    rows, entries, all_ok = [], [], True
    for value, report in results:  # single-writer assembly, input order
        res = report["results"]
        t_detect = res.get("t_detect")
        sup = res.get("sup_max", res.get("sup_final"))
        rows.append(
            [
                value,
                1.0 if report["passed"] else 0.0,
                np.nan if t_detect is None else float(t_detect),
                np.nan if sup is None else float(sup),
            ]
        )
        entries.append(
            {"value": value, "passed": report["passed"], "results": res}
        )
        all_ok &= report["passed"]

    detections = [r[2] for r in rows if np.isfinite(r[2])]
    trend = "empty"
    if detections:
        if len(detections) == len(rows) and all(
            b <= a + 1e-12 for a, b in zip(detections, detections[1:])
        ):
            trend = "nonincreasing"
        else:
            trend = "mixed"
    report = {
        "schema": SCHEMA_VERSION,
        "action": "sweep",
        "parameter": parameter,
        "values": list(values),
        "entries": entries,
        "t_detect_trend": trend,  # reported, deliberately not asserted
        "passed": bool(all_ok),
    }
    stem = f"{scenario['name']}-sweep"
    _write_report(out_dir, stem, report)
    _write_csv(out_dir / f"{stem}.csv", "value,passed,t_detect,sup", rows)
    plots = f'"{stem}.csv" using 1:3 with linespoints, "{stem}.csv" using 1:4 with linespoints'
    (out_dir / f"{stem}.gp").write_text(
        PLOT_TEMPLATE.format(name=stem, xlabel=parameter, ylabel="value", plots=plots)
    )
    return (0 if all_ok else 1), report


def run_verify_all(out_dir: Path, tolerance_scale: float) -> Tuple[int, dict]:
    names = sorted(
        entry.name for entry in _bundled_dir().iterdir() if entry.name.endswith(".yaml")
    )
    lines, all_ok = [], True
    for name in names:
        scenario = load_scenario(name)
        code, report = run_scenario(scenario, None, out_dir, tolerance_scale)
        ok = code == 0
        all_ok &= ok
        lines.append({"scenario": scenario["name"], "passed": ok})
        print(f"{scenario['name']}: {'PASS' if ok else 'FAIL'}")
    report = {"schema": SCHEMA_VERSION, "action": "verify-all", "scenarios": lines,
              "passed": bool(all_ok)}
    _write_report(out_dir, "verify-all", report)
    return (0 if all_ok else 1), report


# ---------------------------------------------------------------------------
# entry point


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wavecrit",
        description="Scenario-driven checks for the semilinear wave laboratory.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_config=True):
        if needs_config:
            p.add_argument("--config", required=True,
                           help="scenario path or bundled name")
        p.add_argument("--out-dir", default="wavecrit-out", type=Path)
        p.add_argument("--tolerance-scale", default=1.0, type=float,
                       help="multiplies the scenario's solver tolerance")

    for name in ACTIONS:
        common(sub.add_parser(name, help=f"run the {name} action"))
    sweep = sub.add_parser("sweep", help="run a scenario over parameter values")
    common(sweep)
    sweep.add_argument("--workers", default=1, type=int,
                       help="parallel processes for the sweep values")
    sweep.add_argument("--param", required=True, help="dotted config path")
    sweep.add_argument("--values", required=True,
                       help="comma-separated numbers")
    sweep.add_argument("--action", default=None, choices=ACTIONS)
    common(sub.add_parser("verify-all", help="run every bundled scenario"),
           needs_config=False)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if args.command == "verify-all":
            code, _ = run_verify_all(args.out_dir, args.tolerance_scale)
            return code
        scenario = load_scenario(args.config)
        if args.command == "sweep":
            try:
                values = [float(v) for v in args.values.split(",") if v.strip()]
            except ValueError as exc:
                raise ConfigError(f"bad sweep values: {exc}")
            code, _ = run_sweep(
                scenario, args.param, values, args.action, args.out_dir,
                workers=args.workers, tolerance_scale=args.tolerance_scale,
            )
            return code
        code, report = run_scenario(
            scenario, args.command, args.out_dir, args.tolerance_scale
        )
        for entry in report["assertions"]:
            state = "ok" if entry["passed"] else "FAILED"
            print(f"{entry['path']}: {state} (value {entry.get('value')})")
        return code
    except WavecritError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
