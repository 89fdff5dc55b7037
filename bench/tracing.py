"""Timing wrappers around wavecrit's public callables, installed from outside.

A Tracer replaces each target callable by a wrapper in every wavecrit
module namespace that bound it (``cli.detect_blowup`` as well as
``nullwave.detect_blowup``), or on the class for methods, and restores the
originals afterwards.  While an op is open, each wrapped call records a span
(name, start, end, parent, op id) in memory; spans are only written out by
the caller when the run ends.  Self time is a span's duration minus the
durations of its direct children.
"""

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from functools import wraps
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

OP_SPAN = "op"


def _points(arg_index: int):
    def tally(args, result):
        return {"points": int(np.size(args[arg_index]))}

    return tally


def _iterate_tally(args, result):
    n = int(result.n)
    nodes = int(result.radii.size) * int(result.times.size)
    return {
        "iterations": n,
        "node_updates": n * nodes,
        "live_updates": n * int(np.count_nonzero(result.live)),
    }


def _fd_tally(args, result):
    steps = int(result.energy_values.size)
    return {"steps": steps, "node_steps": steps * int(result.radii.size)}


# (layer, label, module attribute path, tally of the call's work)
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("radial", "kato_norm", "kato_norm", None),
    ("radial", "line_integral", "line_integral", None),
    ("radial", "differentiate", "differentiate", None),
    ("freewave", "FreePropagator.init", "FreePropagator.__init__", None),
    ("freewave", "FreePropagator.at", "FreePropagator.at", _points(1)),
    ("freewave", "FreePropagator.field", "FreePropagator.field", None),
    ("freewave", "FreePropagator.energy", "FreePropagator.energy", None),
    ("freewave", "propagate_radial", "propagate_radial", None),
    ("freewave", "evaluate_at_origin_nonradial", "evaluate_at_origin_nonradial", None),
    ("transforms", "build_profile", "build_profile", None),
    ("transforms", "push_forward", "push_forward", None),
    ("transforms", "NonlinearityProfile.F_inverse", "NonlinearityProfile.F_inverse", _points(1)),
    ("criteria", "quadratic_global_condition", "quadratic_global_condition", None),
    ("criteria", "nonradial_laplacian", "nonradial_laplacian", None),
    ("criteria", "nonradial_momentum", "nonradial_momentum", None),
    ("nullwave", "detect_blowup", "detect_blowup", None),
    ("nullwave", "null_solution", "null_solution", None),
    ("nullwave", "NullSolution.u", "NullSolution.u", None),
    ("nullwave", "dispersion_metrics", "dispersion_metrics", None),
    ("nullwave", "verify_pointwise_bounds", "verify_pointwise_bounds", None),
    ("focusing", "monotone_iterate", "monotone_iterate", _iterate_tally),
    ("oracle", "fd_solve", "fd_solve", _fd_tally),
    ("cli", "run_scenario", "run_scenario", None),
)

LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))


def span_name(layer: str, label: str) -> str:
    return f"{layer}.{label}"


def _wavecrit_modules() -> List[object]:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "wavecrit" or name.startswith("wavecrit."))
    ]


class Tracer:
    """Installs span-recording wrappers; records only inside ``op()``."""

    def __init__(self):
        self.recording = False
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self.op_ids: List[int] = []
        self.tallies: Dict[str, Dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self._stack: List[int] = []
        self._op_id = -1
        self._patched: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter_ns())
        self.ends.append(-1)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self._op_id)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int):
        """Root span of one operation; wrapped calls inside it are recorded."""
        self._op_id = op_id
        self.recording = True
        idx = self._open(OP_SPAN)
        try:
            yield
        finally:
            self._close(idx)
            self.recording = False

    def _wrap(self, name: str, fn: Callable, tally: Optional[Callable]) -> Callable:
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if tally is not None:
                counts = tracer.tallies[name]
                for key, value in tally(args, result).items():
                    counts[key] += value
            return result

        return traced

    # -- install / restore ---------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("wrappers already installed")
        modules = _wavecrit_modules()
        for layer, label, path, tally in TARGETS:
            owner_mod = sys.modules[f"wavecrit.{layer}"]
            name = span_name(layer, label)
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner_mod, cls_name)
                original = cls.__dict__[attr]
                self._patched.append((cls, attr, original))
                setattr(cls, attr, self._wrap(name, original, tally))
                continue
            original = getattr(owner_mod, path)
            wrapper = self._wrap(name, original, tally)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    @property
    def patched(self) -> List[Tuple[object, str, object]]:
        return list(self._patched)

    # -- analysis ------------------------------------------------------------

    def spans(self) -> List[tuple]:
        return list(zip(self.names, self.starts, self.ends, self.parents, self.op_ids))


def self_times(starts: List[int], ends: List[int], parents: List[int]) -> np.ndarray:
    """Per-span self time in ns: duration minus the direct children's durations."""
    dur = np.asarray(ends, dtype=np.int64) - np.asarray(starts, dtype=np.int64)
    own = dur.copy()
    par = np.asarray(parents, dtype=np.int64)
    child = par >= 0
    np.subtract.at(own, par[child], dur[child])
    return own


def has_ancestor(parents: List[int], names: List[str], idx: int, target: str) -> bool:
    p = parents[idx]
    while p >= 0:
        if names[p] == target:
            return True
        p = parents[p]
    return False
