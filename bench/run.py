"""wavecrit benchmark: seeded workloads, end-to-end metrics, traced layers.

Usage, from the root of a checkout:

    python3 bench/run.py --workload null-blowup --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 15 --trace 1

One closed-loop client in one process drives the library from outside, with
the BLAS/OpenMP thread pools pinned to 1 and the process (and the set-up
processes it starts) pinned to one CPU.  Inputs come from bench/workloads.py
and depend only on --seed.  After warm-up ops, --trace 0 runs whole passes
over the strata until --seconds of wall time have passed and reports the
end-to-end metrics.

The timings in the result line (ops_per_s, op_ms.p50, op_ms.tail, setup_s)
are wall times rescaled to a reference machine speed (bench/speed.py): each
op's wall time is multiplied by the workload's reference kernel's nominal
time over its median time sampled while the op ran, and each set-up sample by
IMPORT_REFERENCE_S over the time a fresh process takes to import only the
dependencies, measured just before and after it.  The host's speed switches
between states about 1.5x apart for seconds to minutes, which moves raw wall
times of identical work across runs by more than any useful bound; the
rescaled times follow the program's own cost.  The raw wall-clock figures
are printed too, and are in the detail record.

--trace 1 runs a fixed number of passes, each once untraced and once with
timing wrappers on the library's public callables, and reports per-layer
metrics (fixed work, so every count repeats exactly for a seed).

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The lines before it print every metric by
name and unit, then a JSON detail record (environment, digest of the
rounded results, tail percentile, per-stratum medians).  Traced runs also
write their spans to .bench_out/.  Exit code 2 means the run could not
start, for example because src/wavecrit is missing.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

THREAD_PINS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5
WARMUP_SECONDS = 2.0
WARMUP_PASS = 2**31 - 1  # rng stream of the warm-up inputs, never a timed pass

SETUP_CHILD = r"""
import json, sys, time
t0 = time.perf_counter()
import wavecrit, wavecrit.cli
t1 = time.perf_counter()
import workloads
t2 = time.perf_counter()
workloads.WORKLOADS[sys.argv[1]].setup()
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "shared_s": t3 - t2, "module": wavecrit.__file__}))
"""


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


# ---------------------------------------------------------------------------
# measurement


def _child_record(code: str, *args: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=_child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure_setup(name: str) -> list:
    """Fresh-process import of wavecrit and wavecrit.cli plus shared objects.

    Set-up processes alternate with reference processes that import only
    the dependencies (speed.IMPORT_REFERENCE_CODE); each sample carries the
    mean of the reference times just before and after it.
    """
    from speed import IMPORT_REFERENCE_CODE

    references = [_child_record(IMPORT_REFERENCE_CODE)["import_s"]]
    samples = []
    for _ in range(SETUP_REPEATS):
        rec = _child_record(SETUP_CHILD, name)
        if not Path(rec["module"]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"setup imported wavecrit from {rec['module']}")
        references.append(_child_record(IMPORT_REFERENCE_CODE)["import_s"])
        rec["reference_s"] = (references[-2] + references[-1]) / 2.0
        samples.append(rec)
    return samples


def _drain(out_dir: Path) -> int:
    """Bytes of report files an op wrote; removes them."""
    total = 0
    for entry in os.scandir(out_dir):
        total += entry.stat().st_size
        os.unlink(entry.path)
    return total


@dataclass
class OpRun:
    start_ns: int
    end_ns: int
    ns: int  # wall time of the op, less any time spent in the speed probe
    result: object
    error: object  # failure message, or None
    report_bytes: int


def run_op(workload, shared, item, out_dir: Path, around=None, probe=None) -> OpRun:
    """One timed op, then its output check.

    `around` is a context manager entered around the op alone (the traced
    run's span), never around the output check.  Time the SpeedProbe `probe`
    spends sampling during the op is not counted.
    """
    busy = probe.busy_ns if probe else 0
    start = time.perf_counter_ns()
    try:
        with around or contextlib.nullcontext():
            result = workload.op(shared, item, out_dir)
        error = None
    except Exception as exc:  # counted as a failed op, never retried
        result, error = None, f"{type(exc).__name__}: {exc}"
    end = time.perf_counter_ns()
    elapsed = end - start - ((probe.busy_ns - busy) if probe else 0)
    if error is None:
        try:
            error = workload.check(item, result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    return OpRun(start, end, elapsed, result, error, _drain(out_dir))


class Tally:
    """Attempted/failed counts with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def add(self, stratum: str, error) -> None:
        self.attempted += 1
        if error is not None:
            self.failed += 1
            if len(self.messages) < 5:
                self.messages.append(f"{stratum}: {error}")


def warm_up(workload, shared, seed: int, out_dir: Path, tally: Tally) -> int:
    """Untimed ops so lru caches and lazy imports are filled before timing."""
    start = time.perf_counter()
    done = 0
    for item in workload.generate(seed, WARMUP_PASS):
        tally.add(item["stratum"], run_op(workload, shared, item, out_dir).error)
        done += 1
        if time.perf_counter() - start >= WARMUP_SECONDS:
            break
    return done


def nearest_rank(sorted_values: list, pct: float) -> tuple:
    """Nearest-rank percentile and the number of samples above it."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def digest(summaries: list) -> str:
    blob = json.dumps(summaries, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def timed_run(workload, shared, seed: int, seconds: float, out_dir: Path, tally: Tally, probe):
    """Closed loop over whole passes until `seconds` of wall time have elapsed.

    The pass in progress is finished, so every run sees the same mix of
    strata whatever its length.  Returns the OpRun of every op (results
    dropped), their indices per stratum, the pass-0 summaries and the pass
    count.
    """
    runs = []
    by_stratum = defaultdict(list)
    first_pass = []
    start = time.perf_counter()
    pass_index = 0
    while time.perf_counter() - start < seconds:
        for item in workload.generate(seed, pass_index):
            op = run_op(workload, shared, item, out_dir, probe=probe)
            tally.add(item["stratum"], op.error)
            if pass_index == 0:
                first_pass.append(None if op.error else workload.summary(op.result))
            op.result = None
            by_stratum[item["stratum"]].append(len(runs))
            runs.append(op)
        pass_index += 1
    return runs, by_stratum, first_pass, pass_index


def _timing_metrics(workload, ms: list) -> dict:
    ms = sorted(ms)
    tail, beyond = nearest_rank(ms, workload.tail_percentile)
    return {
        "ops_per_s": len(ms) / (sum(ms) / 1e3),
        "op_ms.p50": statistics.median(ms),
        "op_ms.tail": tail,
        "samples": len(ms),
        "tail_samples_beyond": beyond,
    }


def end_to_end(workload, wall_ms: list, scaled_ms: list, setup_samples, tally: Tally):
    """End-to-end metrics from per-op wall and speed-rescaled times (ms).

    ops_per_s counts time inside ops only, not input generation or checks.
    """
    from speed import IMPORT_REFERENCE_S

    scaled = _timing_metrics(workload, scaled_ms)
    wall = _timing_metrics(workload, wall_ms)
    setup_wall = [s["import_s"] + s["shared_s"] for s in setup_samples]
    setup = [w * IMPORT_REFERENCE_S / s["reference_s"] for w, s in zip(setup_wall, setup_samples)]
    metrics = {
        "ops_per_s": (scaled["ops_per_s"], "ops/s"),
        "op_ms.p50": (scaled["op_ms.p50"], "ms"),
        "op_ms.tail": (scaled["op_ms.tail"], "ms"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }
    wall_metrics = {
        "wall.ops_per_s": (wall["ops_per_s"], "ops/s"),
        "wall.op_ms.p50": (wall["op_ms.p50"], "ms"),
        "wall.op_ms.tail": (wall["op_ms.tail"], "ms"),
        "wall.setup_s": (statistics.median(setup_wall), "s"),
    }
    info = {
        "samples": scaled["samples"],
        "tail_percentile": workload.tail_percentile,
        "tail_samples_beyond": scaled["tail_samples_beyond"],
        "wall": {k: v for k, (v, _) in wall_metrics.items()},
        "setup_import_s": [s["import_s"] for s in setup_samples],
        "setup_shared_s": [s["shared_s"] for s in setup_samples],
        "setup_reference_s": [s["reference_s"] for s in setup_samples],
    }
    return metrics, wall_metrics, info


# ---------------------------------------------------------------------------
# traced run


def _layer_files() -> dict:
    from tracing import LAYERS

    return {str(Path(sys.modules[f"wavecrit.{layer}"].__file__).resolve()): layer for layer in LAYERS}


@contextlib.contextmanager
def _span_and_warnings(tracer, op_id: int, caught: list):
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        with tracer.op(op_id):
            yield
    caught.extend(record)


def traced_run(workload, shared, seed: int, out_dir: Path, tally: Tally):
    """Fixed passes, each run untraced then traced on the same inputs."""
    from tracing import Tracer

    tracer = Tracer()
    files = _layer_files()
    warned = defaultdict(int)
    untraced_ns = 0
    report_bytes = 0
    summaries = []
    op_id = 0
    for pass_index in range(workload.trace_passes):
        items = workload.generate(seed, pass_index)
        for item in items:
            op = run_op(workload, shared, item, out_dir)
            tally.add(item["stratum"], op.error)
            untraced_ns += op.ns
        tracer.install()
        try:
            for item in items:
                caught = []
                around = _span_and_warnings(tracer, op_id, caught)
                op = run_op(workload, shared, item, out_dir, around)
                tally.add(item["stratum"], op.error)
                report_bytes += op.report_bytes
                summaries.append(None if op.error else workload.summary(op.result))
                for w in caught:
                    warned[files.get(str(Path(w.filename).resolve()), "other")] += 1
                op_id += 1
        finally:
            tracer.restore()
    return tracer, {
        "ops": op_id,
        "untraced_ns": untraced_ns,
        "report_bytes": report_bytes,
        "warnings": dict(warned),
        "digest": digest(summaries),
    }


def per_layer(tracer, run: dict):
    """Per-layer metrics for the result line, and a table of per-op times.

    Times stay out of the result line: on a workload that skips a layer they
    read exactly 0 on every run.
    """
    from tracing import LAYERS, OP_SPAN, TARGETS, has_ancestor, self_times, span_name

    names, parents = tracer.names, tracer.parents
    own = self_times(tracer.starts, tracer.ends, parents)
    calls = defaultdict(int)
    self_ns = defaultdict(int)
    for name, t in zip(names, own.tolist()):
        calls[name] += 1
        self_ns[name] += t
    n_ops = run["ops"]
    total_ns = sum(e - s for name, s, e in zip(names, tracer.starts, tracer.ends) if name == OP_SPAN)
    metrics, times = {}, {}
    layer_ns = defaultdict(int)
    for layer, label, _, _ in TARGETS:
        name = span_name(layer, label)
        layer_ns[layer] += self_ns[name]
        metrics[f"{name}.calls"] = (calls[name], "count")
        metrics[f"{name}.self_share"] = (self_ns[name] / total_ns, "ratio")
        times[f"{name}.self_ms"] = (self_ns[name] / 1e6 / n_ops, "ms")
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = (layer_ns[layer] / total_ns, "ratio")
        metrics[f"{layer}.warnings"] = (run["warnings"].get(layer, 0), "count")
    metrics["unwrapped.self_share"] = (self_ns[OP_SPAN] / total_ns, "ratio")

    at_name = span_name("freewave", "FreePropagator.at")
    blowup_name = span_name("nullwave", "detect_blowup")
    at_under = sum(
        1 for i, name in enumerate(names) if name == at_name and has_ancestor(parents, names, i, blowup_name)
    )
    tallies = tracer.tallies
    it = tallies[span_name("focusing", "monotone_iterate")]
    fd = tallies[span_name("oracle", "fd_solve")]
    iterate_s = self_ns[span_name("focusing", "monotone_iterate")] / 1e9
    fd_s = self_ns[span_name("oracle", "fd_solve")] / 1e9
    metrics.update(
        {
            "freewave.FreePropagator.at.points": (tallies[at_name]["points"], "count"),
            "nullwave.at_calls_per_blowup": (at_under / calls[blowup_name] if calls[blowup_name] else 0.0, "count"),
            "transforms.F_inverse.points": (
                tallies[span_name("transforms", "NonlinearityProfile.F_inverse")]["points"],
                "count",
            ),
            "focusing.iterations": (it["iterations"], "count"),
            "focusing.live_node_fraction": (
                it["live_updates"] / it["node_updates"] if it["node_updates"] else 0.0,
                "ratio",
            ),
            "oracle.fd_solve.steps": (fd["steps"], "count"),
            "cli.report_bytes": (run["report_bytes"] / n_ops, "B"),
            "trace.overhead": (total_ns / run["untraced_ns"] - 1.0, "ratio"),
        }
    )
    times.update(
        {
            "focusing.apply_ms": (iterate_s * 1e3 / it["iterations"] if it["iterations"] else 0.0, "ms"),
            "focusing.node_updates_per_s": (it["node_updates"] / iterate_s if iterate_s else 0.0, "1/s"),
            "oracle.node_steps_per_s": (fd["node_steps"] / fd_s if fd_s else 0.0, "1/s"),
            "trace.untraced_ops_per_s": (n_ops / (run["untraced_ns"] / 1e9), "ops/s"),
            "trace.traced_ops_per_s": (n_ops / (total_ns / 1e9), "ops/s"),
        }
    )
    return metrics, times


def write_spans(tracer, name: str, seed: int) -> Path:
    path = OUT / f"spans-{name}-seed{seed}.json"
    doc = {"fields": ["name", "start_ns", "end_ns", "parent", "op"], "spans": tracer.spans()}
    path.write_text(json.dumps(doc))
    return path


# ---------------------------------------------------------------------------
# reporting


def environment() -> dict:
    import numpy
    import scipy

    sha = None
    if (ROOT / ".git").exists() and shutil.which("git"):
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        sha = proc.stdout.strip() or None
    return {
        "git_sha": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "machine": platform.machine(),
    }


def _print_table(title: str, metrics: dict) -> None:
    print(title)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<58} {value:>16.6g} {unit}")


def _result_line(tally: Tally, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": tally.failed == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_workload(args) -> int:
    import wavecrit

    if not Path(wavecrit.__file__).resolve().is_relative_to(SRC):
        return _fail(f"wavecrit imported from {wavecrit.__file__}, not from {SRC}")
    from speed import KERNELS, SpeedProbe
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    setup_samples = None if args.trace else measure_setup(workload.name)
    shared = workload.setup()
    OUT.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT))
    tally = Tally()
    try:
        if args.trace:
            warm = warm_up(workload, shared, args.seed, out_dir, tally)
            detail = {"workload": workload.name, "seed": args.seed, "warmup_ops": warm}
            tracer, run = traced_run(workload, shared, args.seed, out_dir, tally)
            metrics, times = per_layer(tracer, run)
            detail.update(
                digest=run["digest"],
                trace_passes=workload.trace_passes,
                traced_ops=run["ops"],
                warnings_other=run["warnings"].get("other", 0),
                spans=str(write_spans(tracer, workload.name, args.seed).relative_to(ROOT)),
            )
            _print_table(f"{workload.name} per-layer (traced, seed {args.seed})", metrics)
            _print_table("times", times)
        else:
            with SpeedProbe(KERNELS[workload.reference]) as probe:
                warm = warm_up(workload, shared, args.seed, out_dir, tally)
                runs, by_stratum, first_pass, passes = timed_run(
                    workload, shared, args.seed, args.seconds, out_dir, tally, probe
                )
            scaled_ms = [op.ns / 1e6 * probe.scale(op.start_ns, op.end_ns) for op in runs]
            metrics, wall_metrics, info = end_to_end(
                workload, [op.ns / 1e6 for op in runs], scaled_ms, setup_samples, tally
            )
            detail = {"workload": workload.name, "seed": args.seed, "warmup_ops": warm}
            detail.update(info)
            detail.update(
                passes=passes,
                digest=digest(first_pass),
                reference=workload.reference,
                probe_samples=len(probe.durations),
                reference_ns_median=statistics.median(probe.durations),
                stratum_p50_ms={
                    k: statistics.median(scaled_ms[i] for i in v) for k, v in sorted(by_stratum.items())
                },
            )
            _print_table(f"{workload.name} end-to-end (seed {args.seed}, {args.seconds:g} s)", metrics)
            _print_table("wall clock, not rescaled", wall_metrics)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    detail["failures"] = tally.messages
    detail["environment"] = environment()
    print("detail " + json.dumps(detail, sort_keys=True))
    print(_result_line(tally, metrics))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    from workloads import WORKLOADS

    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wavecrit" / "__init__.py").is_file():
        return _fail(f"no wavecrit sources under {SRC}")
    if args.seed < 0 or not args.seconds > 0:
        return _fail("--seed must be >= 0 and --seconds > 0")
    for pin in THREAD_PINS:  # before numpy is imported in this process
        os.environ[pin] = "1"
    # one CPU for this process and its set-up children, so the speed probe
    # times the CPU the ops run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}, all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
