"""The benchmark's own tests: generators, wrappers, self time, smoke runs.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import signal

import numpy as np
import pytest

import run
import speed
import tracing
from workloads import WORKLOADS

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
PROBE_POINTS = np.random.default_rng(7).uniform(-2.0, 2.0, (16, 3))


def fingerprint(item: dict):
    """Everything an op receives, reduced to comparable plain data."""
    out = {"stratum": item["stratum"]}
    if "scenario" in item:
        out["scenario"] = json.dumps(item["scenario"], sort_keys=True)
    data = item.get("data")
    if data is not None and data.symmetry == "radial":
        out["u0"] = data.u0.values.tolist()
        out["u1"] = data.u1.values.tolist()
    elif data is not None:
        out["u0"] = data.u0(PROBE_POINTS).tolist()
        out["lap0"] = data.u0.laplace(PROBE_POINTS).tolist()
        out["grad1"] = data.u1.gradient(PROBE_POINTS).tolist()
    for key in ("weight", "horizon", "times"):
        if key in item:
            out[key] = item[key]
    return out


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic_per_seed(name):
    workload = WORKLOADS[name]
    first = [fingerprint(i) for i in workload.generate(11, 3)]
    again = [fingerprint(i) for i in workload.generate(11, 3)]
    other_seed = [fingerprint(i) for i in workload.generate(12, 3)]
    other_pass = [fingerprint(i) for i in workload.generate(11, 4)]
    assert first == again
    assert first != other_seed
    assert first != other_pass
    assert sorted(f["stratum"] for f in first) == sorted(s.name for s in workload.strata)


def _namespace_snapshot():
    snap = {}
    for mod in tracing._wavecrit_modules():
        for attr, value in vars(mod).items():
            snap[(mod.__name__, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("wavecrit"):
                for cattr, cvalue in vars(value).items():
                    snap[(mod.__name__, attr, cattr)] = cvalue
    return snap


def test_install_then_restore_leaves_every_attribute_identical():
    before = _namespace_snapshot()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = tracer.patched
        assert all(getattr(owner, attr) is not original for owner, attr, original in patched)
        owners = {(getattr(o, "__name__", None), a) for o, a, _ in patched}
        # names bound in several namespaces are patched in each of them
        assert {("wavecrit.cli", "detect_blowup"), ("wavecrit.nullwave", "detect_blowup"),
                ("wavecrit", "detect_blowup"), ("FreePropagator", "at")} <= owners
    finally:
        tracer.restore()
    for owner, attr, original in patched:
        assert getattr(owner, attr) is original
    after = _namespace_snapshot()
    assert before.keys() == after.keys()
    assert all(after[key] is value for key, value in before.items())


def test_self_time_on_a_synthetic_span_tree():
    #   op [0, 100] -> a [10, 50] -> b [20, 30];  op -> c [60, 90]
    names = ["op", "a", "b", "c"]
    starts = [0, 10, 20, 60]
    ends = [100, 50, 30, 90]
    parents = [-1, 0, 1, 0]
    own = tracing.self_times(starts, ends, parents)
    assert own.tolist() == [30, 30, 10, 30]
    assert tracing.has_ancestor(parents, names, 2, "op")
    assert tracing.has_ancestor(parents, names, 2, "a")
    assert not tracing.has_ancestor(parents, names, 3, "a")


def test_nearest_rank_counts_samples_beyond():
    values = list(range(1, 41))
    assert run.nearest_rank(values, 75.0) == (30, 10)
    assert run.nearest_rank(values, 50.0) == (20, 20)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_smoke_run_of_each_workload(name, tmp_path):
    # one input per workload, untraced and traced, with every metric named
    workload = dataclasses.replace(WORKLOADS[name], trace_passes=1)
    shared = workload.setup()
    item = workload.generate(5, 0)[0]
    op = run.run_op(workload, shared, item, tmp_path)
    assert op.error is None, op.error
    assert op.ns > 0 and workload.summary(op.result)

    tiny = dataclasses.replace(workload, strata=(next(s for s in workload.strata if s.name == item["stratum"]),))
    tally = run.Tally()
    tracer, traced = run.traced_run(tiny, shared, 5, tmp_path, tally)
    assert tally.failed == 0 and tally.attempted == 2
    metrics, _ = run.per_layer(tracer, traced)
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert all(getattr(owner, attr) is original for owner, attr, original in tracer.patched)

    ms = [op.ns / 1e6, op.ns / 1e6 + 1.0]
    setup = [{"import_s": 0.5, "shared_s": 0.0, "reference_s": 0.4}]
    e2e, wall, _ = run.end_to_end(workload, ms, [2.0 * x for x in ms], setup, tally)
    assert sorted(e2e) == sorted(m["name"] for m in BENCHMARK["end_to_end"])
    assert all(value != 0 for value, _ in e2e.values())
    assert e2e["ops_per_s"][0] == pytest.approx(wall["wall.ops_per_s"][0] / 2.0)
    assert e2e["setup_s"][0] == pytest.approx(0.5 * speed.IMPORT_REFERENCE_S / 0.4)


def test_speed_probe_samples_inside_an_op_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    kernel = speed.KERNELS["interpreter"]
    with speed.SpeedProbe(kernel, interval_s=0.01) as probe:
        start = speed.time.perf_counter_ns()
        busy = probe.busy_ns
        while speed.time.perf_counter_ns() - start < 100_000_000:
            sum(range(1000))
        end = speed.time.perf_counter_ns()
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [d for t, d in zip(probe.times, probe.durations) if start <= t <= end]
    assert len(inside) >= 3 and probe.busy_ns - busy >= sum(inside)
    assert probe.scale(start, end) == pytest.approx(kernel.nominal_ns / probe.reference_ns(start, end))


def test_speed_probe_reference_is_the_median_of_the_window():
    probe = speed.SpeedProbe(speed.KERNELS["arrays"])
    ms = 1_000_000
    probe.times = [0, 100 * ms, 200 * ms, 300 * ms, 400 * ms]
    probe.durations = [10, 20, 30, 40, 1000]
    # window [150 - margin, 250 + margin] holds the samples at 100, 200, 300
    assert probe.reference_ns(150 * ms, 250 * ms) == 30
    # no sample within the margins of [1000, 1001] ms: the nearest one
    assert probe.reference_ns(1000 * ms, 1001 * ms) == 1000


def test_traced_counts_repeat_exactly(tmp_path):
    workload = WORKLOADS["null-blowup"]
    tiny = dataclasses.replace(workload, strata=workload.strata[3:5], trace_passes=1)
    counts = []
    for _ in range(2):
        tracer, traced = run.traced_run(tiny, {}, 9, tmp_path, run.Tally())
        metrics, _ = run.per_layer(tracer, traced)
        counts.append({k: v for k, (v, unit) in metrics.items() if unit in ("count", "B")})
    assert counts[0] == counts[1]
    assert counts[0]["nullwave.detect_blowup.calls"] == 2
    assert counts[0]["freewave.FreePropagator.at.points"] > 0


def test_cli_prints_the_result_line_last():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "null-crosscheck", "--seed", "3",
         "--seconds", "0.5", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "null-blowup", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
