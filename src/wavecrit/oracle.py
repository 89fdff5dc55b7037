"""Second-order finite-difference reference solver for both radial equations.

Everything here is deliberately independent of the exact solvers: the scheme
works on the substitution w = r u, for which the radial Laplacian becomes a
plain second derivative and the origin condition is w(0, t) = 0.  Runs are
used as cross-checks only; no analytic structure of either equation enters.

The stepper writes every temporary into a few length-n buffers made once per
call, and each new level straight into its row of the energy block; no state
outlives a call.  The arrays of an FDRun are fresh: they share no memory with
each other or with any other run.
"""

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigError, ConvergenceError, GridError
from .freewave import CauchyData
from .radial import cubic_spline

__all__ = [
    "FDRun",
    "convergence_order",
    "discrete_energy",
    "fd_solve",
]

DEFAULT_THRESHOLD = 1.0e8
MAX_CFL = 0.9
_ENERGY_BLOCK = 64  # leapfrog levels per staggered-energy evaluation; bounds memory only

RhsSpec = Union[None, Tuple[str, Callable], Tuple[str, float, int]]


@dataclass(frozen=True)
class FDRun:
    """One leapfrog run on w = r u: snapshots, status, and energy history.

    status is "completed", "blew-up" (sup|u| crossed the threshold at
    t_detect), or "unstable" (non-finite values at step_index).
    """

    scheme: str
    h: float
    k: float
    radii: NDArray
    snapshot_times: NDArray
    snapshots: NDArray
    status: str
    horizon: float
    threshold: float
    t_detect: Optional[float] = None
    step_index: Optional[int] = None
    energy_times: NDArray = field(default_factory=lambda: np.zeros(0))
    energy_values: NDArray = field(default_factory=lambda: np.zeros(0))

    def sample(self, t: float) -> Tuple[float, NDArray]:
        """Snapshot nearest to time t, as (actual time, u values)."""
        idx = int(np.argmin(np.abs(self.snapshot_times - t)))
        return float(self.snapshot_times[idx]), self.snapshots[idx]

    @property
    def final(self) -> NDArray:
        return self.snapshots[-1]

    def write(self, out_dir) -> Path:
        """Emit run metadata JSON plus one CSV per snapshot time."""
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        meta = {
            "h": self.h,
            "horizon": self.horizon,
            "k": self.k,
            "n_nodes": int(self.radii.size),
            "r_max": float(self.radii[-1]),
            "scheme": self.scheme,
            "status": self.status,
            "step_index": self.step_index,
            "t_detect": self.t_detect,
            "threshold": self.threshold,
        }
        (out / "run.json").write_text(json.dumps(meta, indent=2, sort_keys=True))
        for i, (t, u) in enumerate(zip(self.snapshot_times, self.snapshots)):
            np.savetxt(
                out / f"snapshot_{i:03d}.csv",
                np.column_stack([self.radii, u]),
                delimiter=",",
                header=f"r,u at t={t!r}",
            )
        return out


def _normalize_rhs(rhs: RhsSpec):
    """Return (mode, f, exponent, sign) with mode in free | null | power."""
    if rhs is None or rhs == "free":
        return "free", None, 0.0, 0
    if not isinstance(rhs, tuple) or not rhs:
        raise ConfigError("rhs must be None, 'free', ('null', f) or ('power', N, sign)")
    if rhs[0] == "null":
        if len(rhs) != 2 or not callable(rhs[1]):
            raise ConfigError("null-form rhs needs a callable: ('null', f)")
        return "null", rhs[1], 0.0, 0
    if rhs[0] == "power":
        if len(rhs) != 3:
            raise ConfigError("power rhs needs ('power', N, sign)")
        exponent, sign = float(rhs[1]), int(rhs[2])
        if exponent <= 0:
            raise ConfigError("power rhs needs N > 0", exponent=exponent)
        if sign not in (-1, 1):
            raise ConfigError("power rhs sign must be +1 (self-amplifying) or -1")
        return "power", None, exponent, sign
    raise ConfigError(f"unknown rhs family {rhs[0]!r}")


def _u_of(w: NDArray, radii: NDArray, h: float, out: Optional[NDArray] = None) -> NDArray:
    # u(0) = (4 w_1 - w_2) / (2h) is O(h^2) and avoids 0/0; read first, as out may be w
    origin = (4.0 * w.item(1) - w.item(2)) / (2.0 * h)
    u = np.empty_like(w) if out is None else out
    np.divide(w[1:], radii[1:], out=u[1:])
    u[0] = origin
    return u


def _u_r(u: NDArray, h: float, out: Optional[NDArray] = None) -> NDArray:
    du = np.empty_like(u) if out is None else out
    np.divide(np.subtract(u[2:], u[:-2], out=du[1:-1]), 2.0 * h, out=du[1:-1])
    du[0] = 0.0
    du[-1] = (u.item(-1) - u.item(-2)) / h
    return du


def _solve_arrays(
    radii: NDArray,
    w0: NDArray,
    w1: NDArray,
    rhs: RhsSpec,
    horizon: float,
    cfl: float,
    threshold: float,
    snapshot_times,
) -> FDRun:
    mode, f, exponent, sign = _normalize_rhs(rhs)
    h = float(radii[1] - radii[0])
    if not 0.0 < cfl <= MAX_CFL:
        raise ConfigError("CFL ratio must lie in (0, 0.9]", cfl=cfl)
    if horizon <= 0:
        raise ConfigError("horizon must be positive", horizon=horizon)
    n_steps = max(1, int(np.ceil(horizon / (cfl * h) - 1e-12)))
    k = horizon / n_steps
    kk = k * k

    if snapshot_times is None:
        snapshot_times = np.linspace(0.0, horizon, 9)
    snap_steps = set()
    for t in np.atleast_1d(snapshot_times):
        step = int(round(t / k)) if np.isfinite(t) else -1
        if not 0 <= step <= n_steps:
            raise ConfigError(
                f"snapshot time {float(t)!r} is outside [0, horizon]",
                time=float(t), horizon=horizon,
            )
        snap_steps.add(step)

    # Per-call work buffers, the Laplacian's end entries 0 throughout; tmp
    # carries w_t -> u_t -> source -> acceleration in turn.
    lap, base, u, ur2, rf, tmp = np.zeros((6, radii.size))
    inner = lap[1:-1]

    # scale * (Laplacian + r * nonlinearity(u, u_t, u_r)) into tmp; the source
    # is 0 in free mode.  Overflow past the threshold is caught as non-finite.
    def accel(scale: float, w_t: Optional[NDArray] = None) -> NDArray:
        src = 0.0
        if mode == "power":
            src = np.abs(u, out=tmp)
            src **= exponent
            np.multiply(np.multiply(sign, src, out=src), w_cur, out=src)
        elif mode == "null":
            # u, u_r and f(u) are fixed within a step: only u_t varies with w_t
            src = np.square(_u_of(w_t, radii, h, out=tmp), out=tmp)
            np.multiply(rf, np.subtract(src, ur2, out=src), out=src)
        return np.multiply(scale, np.add(lap, src, out=tmp), out=tmp)

    status, t_detect, step_index = "completed", None, None
    # levels w_done .. w_{done + pending}, each stepped straight into its row;
    # their staggered energies are evaluated together once the block is full
    rows = np.empty((min(n_steps, _ENERGY_BLOCK) + 1, radii.size))
    w_cur = rows[0]
    w_cur[:] = w0
    w_cur[0] = 0.0
    energy_values, done, pending = np.empty(n_steps), 0, 0

    with np.errstate(over="ignore", invalid="ignore"):
        _u_of(w0, radii, h, out=u)
        top = np.abs(u, out=tmp).max()
        taken_times, taken = ([0.0], [u.copy()]) if 0 in snap_steps else ([], [])
        for j in range(n_steps + 1):
            # u is level j, tested before any step past it
            if top > threshold:
                status, t_detect = "blew-up", j * k
                break
            if j == n_steps:
                break
            if pending == _ENERGY_BLOCK:
                energy_values[done:j] = _pair_energy(rows, h, k)
                rows[0], done, pending = rows[-1], j, 0
            w_next = rows[pending + 1]
            np.multiply(2.0, w_cur[1:-1], out=inner)
            np.divide(np.add(np.subtract(w_cur[2:], inner, out=inner), w_cur[:-2], out=inner),
                      h * h, out=inner)
            if mode == "null":
                _u_r(u, h, out=ur2)
                np.multiply(ur2, ur2, out=ur2)
                np.multiply(radii, f(u), out=rf)
            if j == 0:
                # Taylor first step: second order, uses the prescribed velocity exactly.
                np.add(w_cur, np.multiply(k, w1, out=w_next), out=w_next)
                np.add(w_next, accel(0.5 * k * k, w1), out=w_next)
            else:
                np.subtract(np.multiply(2.0, w_cur, out=base), w_prev, out=base)
                if mode == "null":
                    # u_t enters the source: one predictor, two centered correctors.
                    np.divide(np.subtract(w_cur, w_prev, out=tmp), k, out=tmp)
                    np.add(base, accel(kk, tmp), out=w_next)
                    for _ in range(2):
                        np.divide(np.subtract(w_next, w_prev, out=tmp), 2.0 * k, out=tmp)
                        np.add(base, accel(kk, tmp), out=w_next)
                else:
                    np.add(base, accel(kk), out=w_next)
            w_next[0] = 0.0
            # Outer node frozen at its initial value: any reflection stays outside
            # probed radii when r_max >= probe + horizon, and the free scheme then
            # conserves its staggered energy exactly.
            w_next[-1] = w_cur[-1]

            _u_of(w_next, radii, h, out=u)
            top = np.abs(u, out=tmp).max()
            # each w_i, i >= 1, enters u_i: a finite sup|u| means a finite w
            if not math.isfinite(top) and not np.all(np.isfinite(w_next)):
                status, step_index = "unstable", j + 1
                break
            pending += 1
            if j + 1 in snap_steps:
                taken_times.append((j + 1) * k)
                taken.append(u.copy())
            w_prev, w_cur = w_cur, w_next
        en_count = done + pending
        energy_values[done:en_count] = _pair_energy(rows[: pending + 1], h, k)

    if not taken:
        taken_times, taken = [0.0], [_u_of(w0, radii, h)]
    return FDRun(
        scheme="leapfrog on w = r u",
        h=h,
        k=k,
        radii=radii,
        snapshot_times=np.asarray(taken_times),
        snapshots=np.asarray(taken),
        status=status,
        horizon=horizon,
        threshold=threshold,
        t_detect=t_detect,
        step_index=step_index,
        energy_times=(np.arange(en_count) + 0.5) * k,
        energy_values=energy_values[:en_count],
    )


def _pair_energy(rows: NDArray, h: float, k: float):
    # Staggered leapfrog invariant of each pair of consecutive rows, exact for
    # the free scheme; each row is differenced in space once.
    kinetic = np.sum(((rows[1:] - rows[:-1]) / k) ** 2, axis=-1)
    d = np.diff(rows, axis=-1)
    grad = np.sum(d[:-1] * d[1:], axis=-1) / (h * h)
    return 4.0 * np.pi * h * 0.5 * (kinetic + grad)


def _uniform_radii(r_top: float, h: float) -> NDArray:
    """Nodes 0, h, 2h, ... up to r_top; the leapfrog needs three of them."""
    n = int(np.floor(r_top / h + 1e-9)) + 1 if h > 0 else 0
    if n < 3:
        raise GridError(f"grid too coarse: h = {h} gives {n} nodes, the leapfrog needs 3",
                        h=h, nodes=n)
    return h * np.arange(n)


def fd_solve(
    data: CauchyData,
    rhs: RhsSpec,
    horizon: float,
    h: float,
    cfl: float = 0.8,
    threshold: float = DEFAULT_THRESHOLD,
    snapshot_times=None,
    r_max: Optional[float] = None,
) -> FDRun:
    """Leapfrog the requested equation to the horizon or until blow-up.

    The data are resampled onto a uniform step-h grid through their moment
    splines, so velocities carrying a 1/r pole are handled exactly.  Choose
    the data grid with r_max at least probe radius + horizon; the outflow
    boundary is then immaterial for probed values.  Each snapshot time is
    taken at its nearest step, which must lie in the run (0 to horizon).
    """
    if data.symmetry != "radial":
        raise ConfigError("the reference solver is radial only")
    grid_max = data.grid.r_max
    r_top = grid_max if r_max is None else float(r_max)
    if r_top > grid_max + 1e-12:
        raise ConfigError(
            "data are not resolved out to the requested domain",
            requested=r_top,
            available=grid_max,
        )
    radii = _uniform_radii(r_top, h)
    nodes = data.grid.nodes
    w0 = cubic_spline(nodes, data.u0.moment())(radii)
    w1 = cubic_spline(nodes, data.u1.moment())(radii)
    return _solve_arrays(radii, w0, w1, rhs, horizon, cfl, threshold, snapshot_times)


def discrete_energy(run: FDRun) -> dict:
    """Staggered energy history with its relative drift."""
    values = run.energy_values
    if not values.size:
        raise ConfigError(f"no energy history (status {run.status}, t_detect {run.t_detect})",
                          status=run.status, t_detect=run.t_detect)
    scale = max(abs(values[0]), 1e-300)
    return {
        "times": run.energy_times,
        "values": values,
        "drift": float(np.max(np.abs(values - values[0])) / scale),
    }


def _scenario_arrays(scenario: Mapping, radii: NDArray):
    if "w0" in scenario:
        w0 = np.asarray(scenario["w0"](radii), dtype=float)
    else:
        w0 = radii * np.asarray(scenario["u0"](radii), dtype=float)
    if "w1" in scenario:
        w1 = np.asarray(scenario["w1"](radii), dtype=float)
    else:
        w1 = radii * np.asarray(scenario["u1"](radii), dtype=float)
    return w0, w1


def convergence_order(scenario: Mapping, hs: Sequence[float]) -> float:
    """Observed order from successive errors over a decreasing h-sequence.

    The scenario maps keys u0/u1 (or moment callables w0/w1), rhs, horizon,
    r_max, and optionally probe_r, cfl, and a reference callable giving the
    exact profile at the horizon.  Without a reference the three finest runs
    are compared pairwise (Richardson style), which requires a constant
    refinement ratio.
    """
    hs = [float(h) for h in hs]
    if len(hs) < 3:
        raise ConfigError("need at least three resolutions", count=len(hs))
    for a, b in zip(hs, hs[1:]):
        if b >= a:
            raise ConfigError("resolution sequence must strictly decrease", pair=(a, b))
    horizon = float(scenario["horizon"])
    r_top = float(scenario["r_max"])
    cfl = float(scenario.get("cfl", 0.8))
    probe_r = np.asarray(
        scenario.get("probe_r", np.linspace(0.0, max(r_top - horizon, 8 * hs[-1]), 33))
    )
    reference = scenario.get("reference")

    profiles = []
    for h in hs:
        radii = _uniform_radii(r_top, h)
        w0, w1 = _scenario_arrays(scenario, radii)
        run = _solve_arrays(
            radii, w0, w1, scenario.get("rhs"), horizon, cfl,
            scenario.get("threshold", DEFAULT_THRESHOLD), [0.0, horizon],
        )
        if run.status != "completed":
            raise ConvergenceError(
                "run did not reach the horizon", h=h, status=run.status
            )
        profiles.append(np.interp(probe_r, run.radii, run.final))

    if reference is not None:
        target = np.asarray(reference(probe_r), dtype=float)
        errors = [float(np.max(np.abs(p - target))) for p in profiles]
        scales = hs
    else:
        ratios = [a / b for a, b in zip(hs, hs[1:])]
        if np.ptp(ratios) > 1e-6 * ratios[0]:
            raise ConfigError("reference-free mode needs a constant refinement ratio")
        errors = [
            float(np.max(np.abs(a - b))) for a, b in zip(profiles, profiles[1:])
        ]
        scales = hs[:-1]
    for a, b in zip(errors, errors[1:]):
        if b >= a:
            raise ConvergenceError("not in asymptotic regime", errors=tuple(errors))
    orders = [
        np.log(ea / eb) / np.log(sa / sb)
        for ea, eb, sa, sb in zip(errors, errors[1:], scales, scales[1:])
    ]
    return float(np.mean(orders))
