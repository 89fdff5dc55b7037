"""Scenario front end: config handling, exit codes, reports, sweeps."""

import json

import numpy as np
import pytest
import yaml

from wavecrit.cli import (
    build_field,
    build_grid,
    check_expectations,
    load_scenario,
    main,
    normalize_scenario,
    run_scenario,
)
from wavecrit.errors import ConfigError
from wavecrit.radial import RadialGrid


def write_yaml(tmp_path, doc, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(doc))
    return str(path)


# ---------------------------------------------------------------------------
# scenario normalization and loading


def test_normalize_fills_defaults():
    doc = normalize_scenario({"name": "x"})
    assert doc["schema"] == 1
    assert doc["action"] == "solve"
    assert doc["equation"]["kind"] == "free"
    assert doc["grid"] == {"r_max": 8.0, "n": 161, "grading": "uniform", "nodes": None}
    assert doc["data"]["u0"] == {"family": "zero"}
    assert doc["probe"]["times"] == [1.0]
    assert doc["solver"]["tol"] == 1e-8


def test_normalize_rejects_unknown_keys():
    with pytest.raises(ConfigError):
        normalize_scenario({"surprise": 1})
    with pytest.raises(ConfigError):
        normalize_scenario({"equation": {"kind": "null-form", "zeta": 2}})
    with pytest.raises(ConfigError):
        normalize_scenario({"schema": 99})
    with pytest.raises(ConfigError):
        normalize_scenario({"expect": [{"equals": 1}]})
    with pytest.raises(ConfigError):
        normalize_scenario({"expect": [{"path": "a", "approx": 1}]})
    with pytest.raises(ConfigError):
        normalize_scenario({"data": {"u2": {}}})
    with pytest.raises(ConfigError):
        normalize_scenario({"equation": {"kind": "heat"}})


def test_load_bundled_by_name():
    doc = load_scenario("constant-null")
    assert doc["name"] == "constant-null"
    assert doc["action"] == "classify"
    assert load_scenario("constant-null.yaml")["name"] == "constant-null"


def test_load_missing_name_fails():
    with pytest.raises(ConfigError):
        load_scenario("no-such-scenario")


# ---------------------------------------------------------------------------
# grid and data families


def test_build_grid_variants():
    assert build_grid({"r_max": 4.0, "n": 41, "grading": "uniform", "nodes": None}).n == 41
    graded = build_grid({"r_max": 4.0, "n": 41, "grading": "graded", "nodes": None})
    assert graded.nodes[0] == 0.0 and graded.nodes[-1] == pytest.approx(4.0)
    explicit = build_grid({"nodes": list(np.linspace(0, 2, 21)), "grading": "uniform",
                           "r_max": 0, "n": 0})
    assert explicit.n == 21
    with pytest.raises(ConfigError):
        build_grid({"r_max": 4.0, "n": 41, "grading": "chebyshev", "nodes": None})


def test_data_families(tmp_path):
    grid = RadialGrid.uniform(6.0, 121)
    assert np.all(build_field(grid, {"family": "zero"}, "u0").values == 0.0)
    const = build_field(grid, {"family": "constant", "amplitude": 2.5}, "u0")
    assert np.all(const.values == 2.5)
    gauss = build_field(grid, {"family": "gaussian", "amplitude": -1.5}, "u0")
    assert gauss.values[0] == -1.5
    sol = build_field(grid, {"family": "soliton", "scale": 2.0}, "u0")
    assert sol.values[0] == 2.0
    vel = build_field(grid, {"family": "soliton-velocity", "scale": 0.5}, "u1")
    assert vel.origin_moment == pytest.approx(0.5)  # scale * (r S)'(0)
    table = tmp_path / "table.csv"
    np.savetxt(table, np.column_stack([grid.nodes, np.cos(grid.nodes)]), delimiter=",")
    tab = build_field(grid, {"family": "tabulated", "path": str(table)}, "u0")
    assert np.allclose(tab.values, np.cos(grid.nodes))
    with pytest.raises(ConfigError):
        build_field(grid, {"family": "soliton-velocity"}, "u0")
    with pytest.raises(ConfigError):
        build_field(grid, {"family": "sawtooth"}, "u0")


# ---------------------------------------------------------------------------
# expectations


def test_expectation_semantics():
    report = {"results": {"x": 1.5, "flag": True, "items": [1, 2]}}
    ok, outcomes = check_expectations(report, [
        {"path": "results.x", "min": 1.0, "max": 2.0},
        {"path": "results.x", "equals": 1.5},
        {"path": "results.flag", "equals": True},
        {"path": "results.items", "equals": [1, 2]},
    ])
    assert ok and all(o["passed"] for o in outcomes)

    ok, outcomes = check_expectations(report, [{"path": "results.gone", "min": 0}])
    assert not ok and outcomes[0]["note"] == "path not found in report"

    ok, outcomes = check_expectations(report, [{"path": "results.items", "min": 0}])
    assert not ok and "not comparable" in outcomes[0]["note"]

    ok, _ = check_expectations(report, [{"path": "results.x", "equals": 1.49, "tol": 0.02}])
    assert ok


# ---------------------------------------------------------------------------
# bundled scenarios end to end


def test_constant_null_passes(tmp_path):
    code = main(["classify", "--config", "constant-null", "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "constant-null-classify.json").read_text())
    assert report["passed"] is True
    # frozen: margin 1 - sup F(data) on the unit-weight transform
    assert report["results"]["verdict"]["margin"] == pytest.approx(1.0, abs=1e-6)
    assert report["results"]["endpoints"]["plus_infinity"] == "finite"


def test_blowup_gaussian_window(tmp_path):
    code = main(["blowup", "--config", "blowup-gaussian-f1", "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "blowup-gaussian-f1-blowup.json").read_text())
    res = report["results"]
    assert 0.0 < res["t0"] <= 1.0
    # frozen on the bundled 161-node grid
    assert res["t0"] == pytest.approx(0.7868062983267009, rel=1e-9)
    assert res["t0"] <= res["window"]
    assert res["side"] == "upper"


def test_iterate_ground_report(tmp_path):
    code = main(["iterate", "--config", "iterate-ground", "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "iterate-ground-iterate.json").read_text())
    res = report["results"]
    assert res["converged"] and res["case"] == "ii" and res["validity"] == "all t"
    assert res["trace"][-1]["sup_change"] <= 1e-6
    series = np.loadtxt(tmp_path / "iterate-ground-iterate.csv", delimiter=",",
                        skiprows=1)
    assert series.shape[1] == 2 and series[0, 0] == 0.0


def test_oracle_reports_energy_drift(tmp_path):
    code = main(["oracle", "--config", "oracle-free-gaussian", "--out-dir", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "oracle-free-gaussian-oracle.json").read_text())
    assert report["results"]["status"] == "completed"
    assert report["results"]["energy_drift"] < 1e-10


def test_window_pair(tmp_path):
    assert main(["oracle", "--config", "window-minus", "--out-dir", str(tmp_path)]) == 0
    assert main(["oracle", "--config", "window-plus", "--out-dir", str(tmp_path)]) == 0
    plus = json.loads((tmp_path / "window-plus-oracle.json").read_text())
    assert plus["results"]["status"] == "blew-up"
    assert 0.5 <= plus["results"]["t_detect"] <= 3.0
    minus = json.loads((tmp_path / "window-minus-oracle.json").read_text())
    assert minus["results"]["status"] == "completed"
    assert minus["results"]["sup_max"] < 2.0


def test_verify_all(tmp_path, capsys):
    code = main(["verify-all", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 6 and "FAIL" not in out
    report = json.loads((tmp_path / "verify-all.json").read_text())
    assert report["passed"] and len(report["scenarios"]) == 6


# ---------------------------------------------------------------------------
# exit codes


def test_exit_one_on_failed_expectation(tmp_path):
    path = write_yaml(tmp_path, {
        "schema": 1, "name": "failing", "action": "classify",
        "equation": {"kind": "null-form", "f": "const", "param": 1.0},
        "data": {"u0": {"family": "constant", "amplitude": 0.3}},
        "expect": [{"path": "results.holds", "equals": False}],
    })
    assert main(["classify", "--config", path, "--out-dir", str(tmp_path)]) == 1
    report = json.loads((tmp_path / "failing-classify.json").read_text())
    assert report["passed"] is False


def test_exit_two_on_malformed_grid(tmp_path, capsys):
    path = write_yaml(tmp_path, {
        "schema": 1, "name": "badgrid", "action": "solve",
        "grid": {"nodes": [0.0, 0.1, 0.2, 0.3, 0.25, 0.5, 0.6, 0.7, 0.8]},
    })
    assert main(["solve", "--config", path, "--out-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_two_on_bad_yaml(tmp_path, capsys):
    path = tmp_path / "broken.yaml"
    path.write_text("not: [valid\n")
    assert main(["solve", "--config", str(path), "--out-dir", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_exit_two_on_unknown_name(tmp_path, capsys):
    assert main(["classify", "--config", "ghost", "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()


def test_exit_two_on_wrong_equation_for_action(tmp_path, capsys):
    path = write_yaml(tmp_path, {
        "schema": 1, "name": "mismatch", "action": "iterate",
        "equation": {"kind": "free"},
    })
    assert main(["iterate", "--config", path, "--out-dir", str(tmp_path)]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# determinism


BUNDLED = (
    "blowup-gaussian-f1",
    "constant-null",
    "iterate-ground",
    "oracle-free-gaussian",
    "window-minus",
    "window-plus",
)


@pytest.mark.parametrize("name", BUNDLED)
def test_reports_are_bit_identical(tmp_path, name):
    # each bundled scenario under its own action; JSON, CSV and gnuplot files
    action = load_scenario(name)["action"]
    a, b = tmp_path / "a", tmp_path / "b"
    main([action, "--config", name, "--out-dir", str(a)])
    main([action, "--config", name, "--out-dir", str(b)])
    files = sorted(p.name for p in a.iterdir())
    assert f"{name}-{action}.json" in files
    assert files == sorted(p.name for p in b.iterdir())
    for file in files:
        assert (a / file).read_bytes() == (b / file).read_bytes(), file


def test_workers_only_on_sweep(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classify", "--config", "constant-null", "--workers", "2",
              "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_serial_aggregates_in_order(tmp_path):
    code = main([
        "sweep", "--config", "window-plus", "--param", "data.u0.scale",
        "--values", "1.2,1.4", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    report = json.loads((tmp_path / "window-plus-sweep.json").read_text())
    assert [e["value"] for e in report["entries"]] == [1.2, 1.4]
    detections = [e["results"]["t_detect"] for e in report["entries"]]
    assert all(t is not None for t in detections)
    assert report["t_detect_trend"] in ("nonincreasing", "mixed")
    rows = np.loadtxt(tmp_path / "window-plus-sweep.csv", delimiter=",", skiprows=1)
    assert rows.shape == (2, 4) and list(rows[:, 0]) == [1.2, 1.4]


def test_sweep_parallel_matches_serial(tmp_path):
    serial, par = tmp_path / "s", tmp_path / "p"
    args = ["sweep", "--config", "constant-null", "--param", "data.u0.amplitude",
            "--values", "0.1,0.3"]
    assert main(args + ["--out-dir", str(serial)]) == 0
    assert main(args + ["--out-dir", str(par), "--workers", "2"]) == 0
    name = "constant-null-sweep.json"
    assert (serial / name).read_bytes() == (par / name).read_bytes()


def test_sweep_rejects_empty_values(tmp_path, capsys):
    code = main(["sweep", "--config", "window-plus", "--param", "data.u0.scale",
                 "--values", "", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "nonempty" in capsys.readouterr().err


def test_sweep_rejects_unknown_parameter(tmp_path, capsys):
    code = main(["sweep", "--config", "window-plus", "--param", "solver.zeta",
                 "--values", "1.0", "--out-dir", str(tmp_path)])
    assert code == 2
    assert "not addressable" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# tolerance scale


def test_tolerance_scale_loosens_stopping(tmp_path):
    tight, loose = tmp_path / "t", tmp_path / "l"
    main(["iterate", "--config", "iterate-ground", "--out-dir", str(tight)])
    main(["iterate", "--config", "iterate-ground", "--out-dir", str(loose),
          "--tolerance-scale", "1e4"])
    name = "iterate-ground-iterate.json"
    n_tight = json.loads((tight / name).read_text())["results"]["iterations"]
    n_loose = json.loads((loose / name).read_text())["results"]["iterations"]
    assert n_loose < n_tight


def test_run_scenario_returns_report(tmp_path):
    doc = load_scenario("constant-null")
    code, report = run_scenario(doc, None, tmp_path)
    assert code == 0
    assert report["results"]["holds"] is True


def test_actions_share_one_profile_per_weight(tmp_path, monkeypatch):
    # profiles are immutable, so classify and blowup on one weight spec need
    # a single build
    from wavecrit import cli

    builds = []
    build = cli.build_profile
    monkeypatch.setattr(cli, "build_profile", lambda f: builds.append(f) or build(f))
    cli._weight_profile.cache_clear()
    doc = load_scenario("blowup-gaussian-f1")
    run_scenario(doc, "classify", tmp_path)
    assert run_scenario(doc, "blowup", tmp_path)[0] == 0
    assert len(builds) == 1
    cli._weight_profile.cache_clear()
