"""Seeded workloads of the wavecrit benchmark.

Each workload is a fixed list of strata.  One pass draws one input per
stratum and shuffles them, so every pass has the same mix of families while
no input repeats across passes (a result cache keyed on inputs gets no
hits).  The size parameters that set an op's cost (grids and horizons of
the scan, crosscheck and iteration workloads; the Kato cube is fixed) do not
depend on the seed: they cycle or step through their ranges pass by pass
(Draws.cycle, Draws.level), so runs with different seeds do the same amount
of work.  The other parameters come from a seed-rotated Kronecker sequence
(Draws.uniform), so any run of consecutive passes covers each range evenly.
The families and parameter ranges follow the regimes the package documents;
they were fixed before any outcome was looked at.

The timed operation (``op``) receives only the generated scenario dict or
CauchyData and calls the library through module attributes, so the trace
wrappers installed on those modules see every call.  ``check`` runs outside
the timed region and returns a failure message, or None when the output is
correct.  ``summary`` gives the rounded results that feed the run digest.
"""

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional, Sequence

import numpy as np

from wavecrit import cli, criteria, freewave, nullwave, oracle, transforms
from wavecrit.freewave import CauchyData
from wavecrit.radial import Field3D, RadialGrid

# Leapfrog-versus-exact tolerance in null-crosscheck: max |u_fd - u_exact|
# <= FD_TOL_COEF * h**2 on radii the outer boundary cannot reach.  The
# scheme is second order (the gap shrinks 4x per halving of h); on these
# families err / h**2 has median ~1 and reaches ~30 for sin-weight waves
# focusing at the origin.
FD_TOL_COEF = 100.0
# Lifted radial data: spherical means against the exact shell formula.
# The two differentiate different splines (u0 itself, the shell (r u0)'),
# so they agree to O(h**3); observed gap / h**3 has median 0.03, max 0.8.
ORIGIN_TOL_COEF = 5.0


# frac(sqrt(prime)): irrational steps of the Kronecker sequence, one per draw
_STEPS = np.sqrt(np.array([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53], float)) % 1.0
_GOLDEN = (5**0.5 - 1) / 2


class Draws:
    """Parameter draws for one stratum in one pass.

    The k-th draw of pass p is frac(offset_k + p * step_k), with the offsets
    drawn once from the seed.  Consecutive passes fill [0, 1) evenly in
    every draw, which keeps the mix of input sizes, and so the latency
    quantiles, nearly independent of the seed.
    """

    def __init__(self, seed: int, stratum_index: int, pass_index: int):
        self._offsets = np.random.default_rng([seed, stratum_index]).random(_STEPS.size)
        self._stratum = stratum_index
        self._pass = pass_index
        self._k = 0

    def _next(self) -> float:
        k = self._k
        self._k += 1
        return float((self._offsets[k] + self._pass * _STEPS[k]) % 1.0)

    def uniform(self, lo: float = 0.0, hi: float = 1.0, size: Optional[int] = None):
        if size is None:
            return lo + (hi - lo) * self._next()
        return np.array([self.uniform(lo, hi) for _ in range(size)])

    def choice(self, options: Sequence):
        return options[min(int(self._next() * len(options)), len(options) - 1)]

    def cycle(self, options: Sequence):
        """Option (stratum + pass) mod len: each stratum visits every option
        in turn, and the strata of one pass spread over all of them."""
        return options[(self._stratum + self._pass) % len(options)]

    def level(self, lo: float, hi: float, slot: int, slots: int) -> float:
        """The slot-th of `slots` evenly spaced points across [lo, hi), all
        shifted by one offset per pass.  It does not depend on the seed:
        size parameters take it, and strata sharing a range take different
        slots, so every pass costs about the same whatever the seed."""
        shift = (self._pass * _GOLDEN) % 1.0
        return lo + (hi - lo) * (slot + shift) / slots


@dataclass(frozen=True)
class Stratum:
    name: str
    draw: Callable[[Draws], dict]


@dataclass(frozen=True)
class Workload:
    name: str
    strata: Sequence[Stratum]
    setup: Callable[[], dict]
    op: Callable[[dict, dict, Path], object]
    check: Callable[[dict, object], Optional[str]]
    summary: Callable[[object], list]
    # Fixed per workload, so a faster commit cannot move op_ms.tail to
    # another percentile: the highest that left at least 10 samples beyond
    # it in a 15 s run on a 2-core x86-64 VM (nonradial-kato runs only 6-8
    # ops there, so its p75 has 1-2 beyond).
    tail_percentile: float
    reference: str  # the speed.KERNELS entry whose speed follows this work
    trace_passes: int  # passes of the fixed traced run

    def generate(self, seed: int, pass_index: int) -> List[dict]:
        """One pass of inputs; identical for identical (seed, pass_index)."""
        items = []
        for k, stratum in enumerate(self.strata):
            item = stratum.draw(Draws(int(seed), k, int(pass_index)))
            item["stratum"] = stratum.name
            items.append(item)
        order = np.random.default_rng([int(seed), int(pass_index)]).permutation(len(items))
        return [items[i] for i in order]


def _sig(x, digits: int = 6):
    """Round to significant digits for the digest; strings pass through."""
    if isinstance(x, bool) or x is None or isinstance(x, str):
        return x
    x = float(x)
    if not math.isfinite(x):
        return repr(x)
    return float(f"{x:.{digits}g}")


def _no_shared() -> dict:
    return {}


# ---------------------------------------------------------------------------
# null-blowup: failing null-form data through the scenario CLI


_BLOWUP_GRIDS = (161, 321, 801, 1601, 3201)
_S = np.linspace(0.0, 4.0, 4001)


def _well_slope(alpha: float) -> float:
    """max over r of r |u0'| / A for u0 = A exp(-((r - c) / w)^2), alpha = c / w."""
    return float(np.max(2.0 * (alpha + _S) * _S * np.exp(-_S * _S)))


def _blowup_doc(weight: str, u0_sign: int = 0, u1_sign: int = 0, centers=(1.5, 3.0)):
    """Failing data: a deep Gaussian well/bump or a strong velocity pulse.

    For f = const c the substitution u -> c u maps to f = 1, so amplitudes
    scale with 1/c; c > 0 has a finite upper endpoint, c < 0 a finite lower
    one.  linear f(u) = k u has both endpoints finite.  Under f = 1 the data
    fail iff r |u0'| + r |u1| >= 1 somewhere: wells reach a peak r |u0'| of
    1.25 to 2, pulses a peak r |u1| of at least 1.8 (above the linear
    weight's gap, at most 1.4).  Data with u1 = 0 or under the linear weight
    fail in both time directions, so the scan runs twice; a pulse under a
    constant weight fails in one direction only.
    """

    def draw(rng):
        kappa = rng.uniform(0.8, 1.25)
        n = int(rng.cycle(_BLOWUP_GRIDS))
        scale = 1.0 if weight == "linear" else 1.0 / kappa
        u0 = {"family": "zero"}
        u1 = {"family": "zero"}
        if u0_sign:
            center, width = rng.uniform(0.0, 1.0), rng.uniform(0.6, 1.4)
            u0 = {
                "family": "gaussian",
                "amplitude": u0_sign * rng.uniform(1.25, 2.0) / _well_slope(center / width) * scale,
                "center": center,
                "width": width,
            }
        if u1_sign:
            u1 = {
                "family": "gaussian",
                "amplitude": u1_sign * rng.uniform(1.2, 2.0) * scale,
                "center": rng.uniform(*centers),
                "width": rng.uniform(0.5, 1.0),
            }
        param = {"const+": kappa, "const-": -kappa, "linear": kappa}[weight]
        return {
            "scenario": {
                "schema": 1,
                "name": "bench-null-blowup",
                "action": "blowup",
                "equation": {"kind": "null-form", "f": weight.rstrip("+-"), "param": param},
                "grid": {"r_max": 8.0, "n": n},
                "data": {"u0": u0, "u1": u1},
            }
        }

    return draw


_NEAR, _FAR = (1.5, 2.25), (2.25, 3.0)


def _blowup_op(shared, item, out_dir: Path):
    scenario = cli.normalize_scenario(item["scenario"])
    _, classified = cli.run_scenario(scenario, "classify", out_dir)
    _, located = cli.run_scenario(scenario, "blowup", out_dir)
    return classified["results"], located["results"]


def _blowup_check(item, result) -> Optional[str]:
    classified, located = result
    if classified["holds"] is not False:
        return "criterion holds on data drawn to fail it"
    t0, window = located["t0"], located["window"]
    if not (isinstance(t0, float) and 0.0 < abs(t0) <= window):
        return f"touch time {t0!r} outside (0, window {window!r}]"
    return None


def _blowup_summary(result) -> list:
    classified, located = result
    return [
        classified["holds"],
        _sig(classified["verdict"]["margin"]),
        _sig(located["t0"]),
        _sig(located["window"]),
        located["side"],
    ]


# ---------------------------------------------------------------------------
# null-crosscheck: passing null-form data and free data, exact vs leapfrog

_CROSS_WEIGHTS = {"const": 1.0, "linear": 1.0, "sin": None, "neg_arctan": None}
_CROSS_SLOTS = 7


def _cross_setup() -> dict:
    profiles = {}
    for name, param in _CROSS_WEIGHTS.items():
        f = transforms.builtin_nonlinearity(name, param)
        profiles[name] = transforms.build_profile(f, name=name)
    return {"profiles": profiles}


def _const_amp(center: float, width: float) -> float:
    """f = 1 passes iff r u0' + r|u1| < 1.  On the inner flank of a bump
    r u0' <= 0.858 A c / w, and r|u1| <= 0.03 for these velocities, so
    this cap keeps the sum below 0.78."""
    return min(0.45, 0.87 * width / max(center, 1e-12))


def _linear_amp(center: float, width: float) -> float:
    """f = u: both gaps stay above 0.95 for |u0| <= 0.3, and |r u0'| <=
    A (0.86 c / w + 0.74) on either flank, so this cap keeps it below 0.6."""
    return min(0.3, 0.6 / (0.86 * center / width + 0.74))


def _cross_draw(
    weight: Optional[str], amp_cap: Callable[[float, float], float], signed: bool, beta: float, slot: int
):
    """Grid size and horizon, which set the cost, do not depend on the seed;
    `slot` (of _CROSS_SLOTS) places the horizon in [1, 2]."""

    def draw(rng):
        n = int(rng.cycle((401, 801, 1601)))
        grid = RadialGrid.uniform(10.0, n)
        center, width = rng.uniform(0.0, 3.0), rng.uniform(0.6, 1.4)
        amp = rng.uniform(0.25, 1.0) * amp_cap(center, width)
        if signed and rng.uniform() < 0.5:
            amp = -amp
        b, bw = rng.uniform(-beta, beta), rng.uniform(0.6, 1.4)
        data = CauchyData.from_callables(
            grid,
            lambda r: amp * np.exp(-(((r - center) / width) ** 2)),
            lambda r: b * np.exp(-((r / bw) ** 2)),
        )
        horizon = rng.level(1.0, 2.0, slot, _CROSS_SLOTS)
        return {"weight": weight, "data": data, "horizon": horizon}

    return draw


def _cross_op(shared, item, out_dir: Path):
    data, horizon, weight = item["data"], item["horizon"], item["weight"]
    h = data.grid.spacing
    probes = np.linspace(0.0, horizon, 5)[1:]
    if weight is None:
        run = oracle.fd_solve(data, None, horizon, h=h, snapshot_times=probes)
        times = [float(t) for t in run.snapshot_times]
        exact = [freewave.propagate_radial(data, t).values for t in times]
        return {"run": run, "times": times, "exact": exact}
    profile = shared["profiles"][weight]
    sol = nullwave.null_solution(data, profile)
    run = oracle.fd_solve(data, ("null", profile.f), horizon, h=h, snapshot_times=probes)
    times = [float(t) for t in run.snapshot_times]
    exact = [sol.u(t).values for t in times]
    out = {"run": run, "times": times, "exact": exact, "validity": sol.validity}
    if weight == "const":
        out["bounds"] = nullwave.verify_pointwise_bounds(sol, times)
        out["dispersion"] = nullwave.dispersion_metrics(sol, times)
    return out


def _cross_errors(item, result) -> List[float]:
    grid = item["data"].grid
    errors = []
    for t, snap, exact in zip(result["times"], result["run"].snapshots, result["exact"]):
        keep = grid.nodes <= grid.r_max - t
        errors.append(float(np.max(np.abs(snap[keep] - exact[keep]))))
    return errors


def _cross_check(item, result) -> Optional[str]:
    if item["weight"] is not None and result["validity"] != "global":
        return f"validity {result['validity']!r} on data drawn to pass"
    run = result["run"]
    if run.status != "completed" or len(result["times"]) != 4:
        return f"leapfrog status {run.status!r} with {len(result['times'])} snapshots"
    h = item["data"].grid.spacing
    worst = max(_cross_errors(item, result))
    if not worst <= FD_TOL_COEF * h * h:
        return f"leapfrog differs from the exact slice by {worst:.3e} > {FD_TOL_COEF:g} h^2"
    if "bounds" in result and result["bounds"]["violations"]:
        return f"{len(result['bounds']['violations'])} pointwise-bound violations"
    return None


def _cross_summary(result) -> list:
    out = [_sig(float(np.max(np.abs(e)))) for e in result["exact"]]
    out.append(result.get("validity"))
    if "dispersion" in result:
        out.append(_sig(result["dispersion"]["sup_state_norm"]))
        out.append(_sig(result["bounds"]["c0"]))
    return out


# ---------------------------------------------------------------------------
# focusing-iterate: scaled ground state through the scenario CLI


def _focusing_draw(slot: str, family: str, scale_range, horizon_range, case: str, above: bool, level=(0, 1)):
    """The horizon, which sets n_t and so the cost, does not depend on the
    seed: it is point level[0] of level[1] across horizon_range."""

    def draw(rng):
        scale = rng.uniform(*scale_range)
        horizon = rng.level(*horizon_range, *level)
        data = {"u0": {"family": "zero"}, "u1": {"family": "zero"}}
        data[slot] = {"family": family, "scale": scale}
        expect = [
            {"path": "results.converged", "equals": True},
            {"path": "results.case", "equals": case},
        ]
        if above:
            expect.append({"path": "results.diverged_fraction", "min": 1e-9})
        else:
            expect.append({"path": "results.diverged_fraction", "equals": 0.0})
        return {
            "scenario": {
                "schema": 1,
                "name": "bench-focusing-iterate",
                "action": "iterate",
                "equation": {"kind": "focusing", "N": 4},
                "grid": {"r_max": 8.0, "n": 161},
                "data": data,
                "horizon": horizon,
                "solver": {"tol": 1e-6},
                "expect": expect,
            }
        }

    return draw


def _focusing_op(shared, item, out_dir: Path):
    scenario = cli.normalize_scenario(item["scenario"])
    return cli.run_scenario(scenario, "iterate", out_dir)


def _focusing_check(item, result) -> Optional[str]:
    code, report = result
    if code != 0:
        failed = [a for a in report["assertions"] if not a["passed"]]
        return f"expectations failed: {failed}"
    return None


def _focusing_summary(result) -> list:
    _, report = result
    res = report["results"]
    return [res["converged"], res["iterations"], res["case"], _sig(res["diverged_fraction"])]


# ---------------------------------------------------------------------------
# nonradial-kato: general 3D data through the nonradial criteria


def _aniso_gaussian(amp: float, sigma: np.ndarray, support: float) -> Field3D:
    """amp * exp(-sum (x_i / sigma_i)^2) with closed-form gradient and Laplacian."""
    inv2 = 1.0 / sigma**2

    def fn(p):
        return amp * np.exp(-np.sum(p * p * inv2, axis=1))

    def grad(p):
        return fn(p)[:, None] * (-2.0 * p * inv2)

    def lap(p):
        return fn(p) * (np.sum(4.0 * (p * inv2) ** 2, axis=1) - 2.0 * np.sum(inv2))

    return Field3D(fn=fn, grad=grad, laplacian=lap, support_radius=support)


def _kato_times(rng) -> List[float]:
    return sorted(float(t) for t in rng.uniform(0.1, 3.0, 3))


def _kato_lift(rng):
    r_max = rng.uniform(5.0, 7.0)
    grid = RadialGrid.uniform(r_max, int(rng.choice((201, 241))))
    amp = rng.uniform(0.2, 1.0) * (1 if rng.uniform() < 0.5 else -1)
    center, width = rng.uniform(0.0, 1.5), rng.uniform(0.6, 1.2)
    b, bw = rng.uniform(-0.5, 0.5), rng.uniform(0.6, 1.2)
    radial = CauchyData.from_callables(
        grid,
        lambda r: amp * np.exp(-(((r - center) / width) ** 2)),
        lambda r: b * np.exp(-((r / bw) ** 2)),
    )
    return {"data": freewave.as_general(radial), "radial": radial, "times": _kato_times(rng)}


def _kato_aniso(rng):
    s0 = rng.uniform(0.6, 1.4, 3)
    s1 = rng.uniform(0.6, 1.4, 3)
    support = 4.0 * float(max(s0.max(), s1.max()))
    amp = rng.uniform(0.2, 1.0) * (1 if rng.uniform() < 0.5 else -1)
    data = CauchyData(
        _aniso_gaussian(amp, s0, support),
        _aniso_gaussian(rng.uniform(-0.5, 0.5), s1, support),
    )
    return {"data": data, "radial": None, "times": _kato_times(rng)}


def _kato_op(shared, item, out_dir: Path):
    data = item["data"]
    momentum = criteria.nonradial_momentum(data)
    laplacian = criteria.nonradial_laplacian(data, kato=True)
    origin = [freewave.evaluate_at_origin_nonradial(data, t) for t in item["times"]]
    return {"momentum": momentum, "laplacian": laplacian, "origin": origin}


def _kato_check(item, result) -> Optional[str]:
    bound = result["laplacian"].bounds["sup_bound"]
    for t, u in zip(item["times"], result["origin"]):
        if not abs(u) <= bound:
            return f"|u(0, {t:.3f})| = {abs(u):.6g} exceeds the Kato bound {bound:.6g}"
    if item["radial"] is not None:
        exact = freewave.FreePropagator(item["radial"]).origin(np.asarray(item["times"]))
        gap = float(np.max(np.abs(np.asarray(result["origin"]) - exact)))
        h = item["radial"].grid.spacing
        if not gap <= ORIGIN_TOL_COEF * h**3:
            return f"spherical means differ from the radial origin value by {gap:.3e} > {ORIGIN_TOL_COEF:g} h^3"
    return None


def _kato_summary(result) -> list:
    lap = result["laplacian"]
    return [
        result["momentum"].holds,
        _sig(result["momentum"].margin),
        lap.holds,
        _sig(lap.margin),
        _sig(lap.bounds["sup_bound"]),
    ] + [_sig(u) for u in result["origin"]]


# ---------------------------------------------------------------------------
# registry

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            # Wells and bumps are the classic breakdowns (both endpoint sides);
            # velocity pulses under +-const give all four side x direction
            # pairs; the linear weight has both endpoints finite.  Scans in
            # two directions are a third of the mix, so the median and the
            # tail each sit inside one cost cluster.  Grids: 161 to 3201.
            name="null-blowup",
            strata=(
                Stratum("well-upper", _blowup_doc("const+", u0_sign=-1)),
                Stratum("bump-lower", _blowup_doc("const-", u0_sign=+1)),
                Stratum("pulse-linear-up", _blowup_doc("linear", u1_sign=+1)),
                Stratum("pulse-linear-down", _blowup_doc("linear", u1_sign=-1)),
                Stratum("pulse-upper-forward-near", _blowup_doc("const+", u1_sign=+1, centers=_NEAR)),
                Stratum("pulse-upper-forward-far", _blowup_doc("const+", u1_sign=+1, centers=_FAR)),
                Stratum("pulse-upper-backward-near", _blowup_doc("const+", u1_sign=-1, centers=_NEAR)),
                Stratum("pulse-upper-backward-far", _blowup_doc("const+", u1_sign=-1, centers=_FAR)),
                Stratum("pulse-lower-forward-near", _blowup_doc("const-", u1_sign=-1, centers=_NEAR)),
                Stratum("pulse-lower-forward-far", _blowup_doc("const-", u1_sign=-1, centers=_FAR)),
                Stratum("pulse-lower-backward-near", _blowup_doc("const-", u1_sign=+1, centers=_NEAR)),
                Stratum("pulse-lower-backward-far", _blowup_doc("const-", u1_sign=+1, centers=_FAR)),
            ),
            setup=_no_shared,
            op=_blowup_op,
            check=_blowup_check,
            summary=_blowup_summary,
            tail_percentile=75.0,
            reference="interpreter",
            trace_passes=2,
        ),
        Workload(
            # One weight per endpoint class that admits global data: f = 1
            # (upper endpoint; also the bound and dispersion checks), f = u
            # (both), sin and neg_arctan (none, every datum passes); free
            # data exercise propagate_radial.
            name="null-crosscheck",
            strata=(
                Stratum("const-1", _cross_draw("const", _const_amp, False, 0.05, 0)),
                Stratum("const-2", _cross_draw("const", _const_amp, False, 0.05, 1)),
                Stratum("linear", _cross_draw("linear", _linear_amp, True, 0.05, 2)),
                Stratum("sin", _cross_draw("sin", lambda c, w: 0.8, True, 0.05, 3)),
                Stratum("neg_arctan", _cross_draw("neg_arctan", lambda c, w: 0.8, True, 0.05, 4)),
                Stratum("free-1", _cross_draw(None, lambda c, w: 1.0, True, 0.3, 5)),
                Stratum("free-2", _cross_draw(None, lambda c, w: 1.0, True, 0.3, 6)),
            ),
            setup=_cross_setup,
            op=_cross_op,
            check=_cross_check,
            summary=_cross_summary,
            tail_percentile=95.0,
            reference="interpreter",
            trace_passes=6,
        ),
        Workload(
            # Both slots of the ground-state family below threshold, crossed
            # with three scale bands (iterations) and three horizon bands
            # (n_t 41 to 121), plus position-slot data above threshold that
            # diverge into the cap: 3 inputs in 21.  A full cross per pass
            # keeps the cost mix of every pass the same.
            name="focusing-iterate",
            strata=tuple(
                Stratum(
                    f"{slot}-below-scale{i}-horizon{j}",
                    _focusing_draw(slot, family, scales, horizons, case, False, (i, 3)),
                )
                for slot, family, case in (("u0", "soliton", "ii"), ("u1", "soliton-velocity", "iii"))
                for i, scales in enumerate(((0.5, 0.65), (0.65, 0.8), (0.8, 0.95)))
                for j, horizons in enumerate(((2.0, 3.0), (3.0, 4.5), (4.5, 6.0)))
            )
            + tuple(
                Stratum(f"u0-above-horizon{j}", _focusing_draw("u0", "soliton", (1.1, 1.3), horizons, "ii", True))
                for j, horizons in enumerate(((2.0, 7 / 3), (7 / 3, 8 / 3), (8 / 3, 3.0)))
            ),
            setup=_no_shared,
            op=_focusing_op,
            check=_focusing_check,
            summary=_focusing_summary,
            tail_percentile=75.0,
            reference="interpreter",
            trace_passes=1,
        ),
        Workload(
            # Lifted radial data have an exact origin value to compare with;
            # anisotropic Gaussians are genuinely 3D.
            name="nonradial-kato",
            strata=(Stratum("lift", _kato_lift), Stratum("aniso", _kato_aniso)),
            setup=_no_shared,
            op=_kato_op,
            check=_kato_check,
            summary=_kato_summary,
            tail_percentile=75.0,
            reference="arrays",
            trace_passes=2,
        ),
    )
}
