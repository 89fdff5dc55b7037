"""Pointwise criteria for positivity, boundedness, and global existence.

Every criterion reduces to a slack function whose sign decides the verdict:
margin is the minimum slack over the evaluation set (grid nodes plus
midpoints, refined until the minimum stabilizes within 1%), and the witness
is the location where the inequality is tightest or violated.

Radial 1/r comparisons are evaluated in the multiplied-through form
(ru₀)′ vs r|u₁| so that velocity fields with a 1/r pole stay finite and the
r=0 limit ((ru₀)′(0)=u₀(0), (ru₁)(0)=origin moment) is exact.
"""

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, Optional, Tuple

import numpy as np
from numpy.typing import NDArray
from scipy.interpolate import PPoly

from .errors import AdmissibilityError, ConfigError, SolitonError
from .freewave import _SPHERE_NODES, CauchyData, reduce_to_line
from .radial import (
    Field3D,
    RadialField,
    RadialGrid,
    cubic_spline,
    differentiate,
    kato_norm,
    row_norm,
    spline_laplacian,
)
from .transforms import NonlinearityProfile

__all__ = [
    "Verdict",
    "radial_positivity",
    "radial_bounds",
    "outgoing_check",
    "oned_positivity",
    "nonradial_momentum",
    "nonradial_laplacian",
    "quadratic_global_condition",
    "local_existence_time",
    "focusing_domination",
    "supercritical_envelope",
]


@dataclass(frozen=True)
class Verdict:
    """Outcome of one criterion: margin is the minimum slack, witness the
    (location, slack) pair attaining it.  holds ⟺ margin > 0 for strict
    criteria and margin ≥ 0 for non-strict ones, except where a criterion
    documents a side condition (recorded in bounds)."""

    criterion: str
    holds: bool
    margin: float
    witness: Tuple[object, float]
    strict: bool = True
    bounds: Dict[str, object] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready mapping; non-finite floats become "inf"/"-inf"/"nan"."""
        loc, slack = self.witness
        return {
            "criterion": self.criterion,
            "holds": bool(self.holds),
            "margin": _jsonable(self.margin),
            "witness": {"location": _jsonable(loc), "slack": _jsonable(slack)},
            "strict": bool(self.strict),
            "bounds": _jsonable(self.bounds),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    if isinstance(x, (bool, np.bool_)):
        return bool(x)
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if math.isfinite(x):
            return x
        return "nan" if math.isnan(x) else ("inf" if x > 0 else "-inf")
    return x


def _make(criterion: str, margin, witness, strict: bool, bounds: dict) -> Verdict:
    margin = float(margin)
    holds = margin > 0.0 if strict else margin >= 0.0
    return Verdict(criterion, holds, margin, witness, strict, bounds)


def _require_radial(data: CauchyData, op: str) -> None:
    if data.symmetry != "radial":
        raise ConfigError(f"{op} requires radial data")


def _require_general(data: CauchyData, op: str) -> None:
    if data.symmetry != "general":
        raise ConfigError(f"{op} requires general (3D callable) data")


def _points(grid: RadialGrid, level: int) -> NDArray:
    g = grid
    for _ in range(level):
        g = g.refined()
    return np.union1d(g.nodes, g.midpoints())


def _shell_points(R: float, n: int, include_origin: bool) -> NDArray:
    radii = np.linspace(R / n, R, n)
    pts = (radii[:, None, None] * _SPHERE_NODES[None, :, :]).reshape(-1, 3)
    if include_origin:
        pts = np.vstack([np.zeros((1, 3)), pts])
    return pts


def _shell_levels(R: float, include_origin: bool = True) -> Iterator[NDArray]:
    """Spherical sample shells (26 directions each) at three radial densities."""
    return (_shell_points(R, n, include_origin) for n in (17, 33, 65))


def _levels(*pairs: CauchyData) -> Iterator[NDArray]:
    """Point sets of a criterion on the given data pairs: nodes plus midpoints
    of the first pair's grid and of its first three refinements (radial), or
    the spherical shells out to the largest support radius of all the pairs
    (general)."""
    if pairs[0].symmetry == "radial":
        return (_points(pairs[0].grid, level) for level in range(4))
    return _shell_levels(max(f.support_radius for d in pairs for f in (d.u0, d.u1)))


def _stable_min(slack: Callable[[NDArray], NDArray], point_sets: Iterable[NDArray]):
    """Min of slack over successively finer point sets, stopping once two
    consecutive minima agree within 1%; returns (min, argmin point)."""
    prev = None
    for pts in point_sets:
        with np.errstate(divide="ignore", invalid="ignore"):
            vals = np.asarray(slack(pts), dtype=float)
        k = int(np.argmin(vals))
        m = float(vals[k])
        if prev is not None and (m == prev or abs(m - prev) <= 0.01 * abs(m) + 1e-12):
            break
        prev = m
    return m, pts[k].tolist()


def _verdict(criterion: str, slack, levels: Iterable[NDArray], strict: bool, bounds: dict):
    """The verdict on the minimum of slack over levels, at its witness."""
    margin, loc = _stable_min(slack, levels)
    return _make(criterion, margin, (loc, margin), strict, bounds)


def _spline(f: RadialField) -> PPoly:
    return cubic_spline(f.grid.nodes, f.values)


def _moment_spline(f: RadialField) -> PPoly:
    return cubic_spline(f.grid.nodes, f.moment())


def _derivative_spline(f: RadialField) -> PPoly:
    return cubic_spline(f.grid.nodes, differentiate(f).values)


# -- the four positivity cases ----------------------------------------------
# In dimensions 1-3 the fundamental solution is positive, so u keeps its sign
# when the data meet one case, each a side lead ≥ Σ|term|: (i) u₀ ≥ 0 for an
# outgoing pair, (ii) (ru₀)′ ≥ r|u₁|, (iii) u₁ ≥ |∇u₀|, (iv) −Δu₀ ≥ |∇u₁|.
# A positivity verdict asks it of u; a domination verdict asks
# lead(u) ≥ Σ|term(u)| + |lead(v)| + Σ|term(v)|.


def _case_terms(data: CauchyData, case: str, shell: Optional[RadialField] = None):
    """(lead, terms) of case i–iv on data, callables on the points of
    _levels(data); shell is reduce_to_line(data.u0) when the caller has it.
    Radial case iii is pointwise, so it samples r > 0 and reads the origin
    by its limit u₁(0) ≥ 0 (∇u₀(0) = 0); a 1/r velocity pole is the
    caller's to decide."""
    if data.symmetry == "general":
        u0, u1 = data.u0, data.u1
        if case == "iii":
            return u1, [lambda p: row_norm(u0.gradient(p))]
        return (lambda p: -u0.laplace(p)), [lambda p: row_norm(u1.gradient(p))]
    if case == "i":
        return _spline(data.u0), []
    if case == "ii":
        shell = reduce_to_line(data.u0) if shell is None else shell
        return _spline(shell), [_moment_spline(data.u1)]
    if case == "iii":
        m1, d0 = _moment_spline(data.u1), _derivative_spline(data.u0)
        return _off_origin(lambda r: m1(r) / r, data.u1.values[0]), [_off_origin(d0, 0.0)]
    lap = spline_laplacian(_spline(data.u0))
    return (lambda r: -lap(r)), [_derivative_spline(data.u1)]


def _off_origin(fn: Callable[[NDArray], NDArray], at_origin: float):
    """fn on the radii r > 0, at_origin at r = 0."""

    def side(r: NDArray) -> NDArray:
        out = np.full(np.shape(r), at_origin, dtype=float)
        pos = r > 0
        out[pos] = fn(r[pos])
        return out

    return side


def _dominance(lead, terms) -> Callable[[NDArray], NDArray]:
    """The slack lead − |t₁| − |t₂| − …, one term at a time in the order
    given, which fixes its rounding."""

    def slack(pts: NDArray) -> NDArray:
        out = lead(pts)
        for term in terms:
            out = out - np.abs(term(pts))
        return out

    return slack


def radial_positivity(data: CauchyData, strict: bool = True) -> Verdict:
    """(ru₀)′ > r|u₁| at every radius ⟺ the free solution is positive on
    all of space-time (≥ with strict=False).  On failure the payload lists
    the origin times ±r₀ where the solution is provably nonpositive."""
    _require_radial(data, "radial_positivity")
    shell = reduce_to_line(data.u0)
    s0, (m1,) = _case_terms(data, "ii", shell)
    bounds: Dict[str, object] = {
        "sup_bound": float(np.max(np.abs(shell.values)) + np.max(np.abs(data.u1.moment()))),
        "validity": "all t",
    }
    verdict = _verdict("radial_positivity", _dominance(s0, [m1]), _levels(data), strict, bounds)
    if not verdict.holds:
        loc = verdict.witness[0]
        times = []
        if float(s0(loc) - m1(loc)) <= 0.0:
            times.append(-loc)
        if float(s0(loc) + m1(loc)) <= 0.0:
            times.append(loc)
        bounds["nonpositive_origin_times"] = times
    return verdict


def radial_bounds(data: CauchyData, a: float, b: float) -> Verdict:
    """a ≤ u ≤ b for all time ⟺ (ru₀)′−a ≥ r|u₁| and b−(ru₀)′ ≥ r|u₁|.
    Payload records the implied |u_t| ≤ ((b−a)/2)/r envelope."""
    _require_radial(data, "radial_bounds")
    if not a < b:
        raise ConfigError("radial_bounds needs a < b")
    s0, (m1,) = _case_terms(data, "ii")

    def slack(r):
        w = np.abs(m1(r))
        return np.minimum(s0(r) - a - w, b - s0(r) - w)

    bounds = {"ut_envelope_halfwidth": 0.5 * (b - a), "validity": "all t"}
    return _verdict("radial_bounds", slack, _levels(data), False, bounds)


def outgoing_check(data: CauchyData) -> Verdict:
    """Residual of the outgoing relation u₁ = (u₀)_r + u₀/r, evaluated in
    the multiplied form |(ru₀)′ − ru₁|.  The payload also reports the
    mirror-signed residual and which orientation (if either) the pair fits
    within the tolerance 1e-6: the printed relation propagates inward in
    forward time ("collapsing"), its sign mirror propagates outward
    ("expanding")."""
    _require_radial(data, "outgoing_check")
    return _outgoing_verdict(data, _case_terms(data, "ii"))


def _outgoing_verdict(data: CauchyData, sides) -> Verdict:
    """outgoing_check of radial data given their case-ii sides (s0, [m1])."""
    s0, (m1,) = sides
    tol = 1e-6
    pts = _points(data.grid, 1)
    res_col = np.abs(s0(pts) - m1(pts))
    res_exp = np.abs(s0(pts) + m1(pts))
    k = int(np.argmax(res_col))
    worst = float(res_col[k])
    mirror = float(np.max(res_exp))
    if worst <= tol:
        orientation = "collapsing"
    elif mirror <= tol:
        orientation = "expanding"
    else:
        orientation = "none"
    bounds = {
        "residual": worst,
        "residual_mirror": mirror,
        "orientation": orientation,
        "tolerance": tol,
    }
    return _make("outgoing_check", tol - worst, (float(pts[k]), tol - worst), False, bounds)


def oned_positivity(xs: NDArray, u0: NDArray, u1: NDArray) -> Verdict:
    """u₀ ≥ |∂_x⁻¹u₁| on the line, with the antiderivative anchored at the
    left end.  For compactly supported data positivity over all shifts of
    the anchor additionally needs ∫u₁ = 0; the payload reports ∫u₁."""
    xs = np.asarray(xs, dtype=float)
    u0 = np.asarray(u0, dtype=float)
    u1 = np.asarray(u1, dtype=float)
    if xs.ndim != 1 or xs.size < 4 or np.any(np.diff(xs) <= 0):
        raise ConfigError("oned_positivity needs at least 4 strictly increasing sample points")
    if u0.shape != xs.shape or u1.shape != xs.shape:
        raise ConfigError("sample arrays must share the grid shape")
    sp0 = cubic_spline(xs, u0)
    prim = cubic_spline(xs, u1).antiderivative()
    pts = np.union1d(xs, 0.5 * (xs[1:] + xs[:-1]))
    vals = sp0(pts) - np.abs(prim(pts))
    k = int(np.argmin(vals))
    total = float(prim(xs[-1]))
    bounds = {
        "velocity_integral": total,
        "note": "compact support requires a zero velocity integral",
    }
    return _make("oned_positivity", vals[k], (float(pts[k]), float(vals[k])), False, bounds)


def nonradial_momentum(data: CauchyData) -> Verdict:
    """u₀ > 0 and u₁ ≥ |∇u₀| everywhere imply u > 0 for t ≥ 0.  margin is
    the smaller of the two slacks; holds additionally requires min u₀ > 0
    strictly (the payload records both minima separately)."""
    _require_general(data, "nonradial_momentum")
    momentum = _dominance(*_case_terms(data, "iii"))
    last = {}  # both slacks on the final point set

    def slack(pts):
        last["u0"] = data.u0(pts)
        last["momentum"] = momentum(pts)
        return np.minimum(last["u0"], last["momentum"])

    m, loc = _stable_min(slack, _levels(data))
    u0_min = float(np.min(last["u0"]))
    mom_min = float(np.min(last["momentum"]))
    holds = u0_min > 0.0 and mom_min >= 0.0
    bounds = {"validity": "t >= 0", "min_u0": u0_min, "min_momentum": mom_min}
    return Verdict("nonradial_momentum", holds, m, (loc, m), False, bounds)


def nonradial_laplacian(data: CauchyData, strict: bool = True, kato: bool = True) -> Verdict:
    """−Δu₀ > |∇u₁| everywhere implies u > 0 on all of space-time (≥ gives
    u ≥ 0).  With kato=True the payload adds the a-priori sup bound
    (‖Δu₀‖_K + ‖∇u₁‖_K)/4π and whether those norms resolved."""
    _require_general(data, "nonradial_laplacian")
    lead, terms = _case_terms(data, "iv")
    bounds: Dict[str, object] = {"validity": "all t"}
    if kato:
        k1, k2 = (
            kato_norm(Field3D(fn=lambda p, g=g: np.abs(g(np.atleast_2d(p))), support_radius=R))
            for g, R in ((lead, data.u0.support_radius), (terms[0], data.u1.support_radius))
        )
        bounds["sup_bound"] = (k1.value + k2.value) / (4.0 * np.pi)
        bounds["kato_resolved"] = bool(k1.resolved and k2.resolved)
    return _verdict("nonradial_laplacian", _dominance(lead, terms), _levels(data), strict, bounds)


def _nirenberg_like(profile: NonlinearityProfile, lo: float, hi: float) -> bool:
    xs = np.linspace(lo, hi, 33)
    return bool(np.max(np.abs(profile.f(xs) - 1.0)) < 1e-9)


def quadratic_global_condition(data: CauchyData, profile: NonlinearityProfile) -> Verdict:
    """Sharp global-existence condition for the null-form equation: on each
    side with a finite endpoint, r(∓(u₀)_r + |u₁|) must stay below the
    integrating-factor gap (F(u₀)−a)/F′(u₀) resp. (b−F(u₀))/F′(u₀), the
    profile's lower_gap and upper_gap (exact for the closed forms, where the
    subtraction would lose every digit once F(u₀) rounds to b).  Both
    endpoints infinite means no condition (vacuous hold).  margin is the
    sharp ε; for the constant-unit nonlinearity the payload adds the c₀
    constant, the solution range, and the 1/r slope bounds."""
    _require_radial(data, "quadratic_global_condition")
    if not isinstance(profile, NonlinearityProfile):
        raise ConfigError("profile must be classified first (build_profile)")
    a, b = profile.a, profile.b
    if not (np.isfinite(a) or np.isfinite(b)):
        bounds = {"vacuous": True, "validity": "all t"}
        return Verdict(
            "quadratic_global_condition", True, float("inf"), (0.0, float("inf")), True, bounds
        )
    sp0 = _spline(data.u0)
    d0 = _derivative_spline(data.u0)
    m1 = _moment_spline(data.u1)

    def slack(r):
        x = sp0(r)
        w = np.abs(m1(r))
        vals = np.full(np.shape(r), np.inf)
        if np.isfinite(a):
            vals = np.minimum(vals, profile.lower_gap(x) - (-(r * d0(r)) + w))
        if np.isfinite(b):
            vals = np.minimum(vals, profile.upper_gap(x) - (r * d0(r) + w))
        return vals

    margin, loc = _stable_min(slack, _levels(data))
    pts = _points(data.grid, 1)
    shell_norm = float(np.max(np.abs(pts * d0(pts))) + np.max(np.abs(m1(pts))))
    u_lo, u_hi = float(np.min(data.u0.values)), float(np.max(data.u0.values))
    bounds = {"epsilon": margin, "shell_norm": shell_norm, "validity": "all t"}
    if margin > 0.0 and _nirenberg_like(profile, u_lo, u_hi):
        c0 = math.exp(u_hi - u_lo) * (1.0 + shell_norm) / margin
        bounds["c0"] = c0
        bounds["solution_range"] = [u_lo - math.log(1.0 + shell_norm), u_hi + math.log(1.0 / margin)]
        bounds["ur_plus_ut_over_inv_r"] = 1.0 - 1.0 / c0
        bounds["ur_abs_plus_ut_over_inv_r"] = c0 - 1.0
    if margin <= 0.0:
        bounds["blowup_window"] = loc  # |t₀| ≤ r₀ at the witness radius
    return _make("quadratic_global_condition", margin, (loc, margin), True, bounds)


def local_existence_time(
    data: CauchyData, profile: NonlinearityProfile, full_output: bool = False
):
    """Guaranteed existence time: (gap at the nearest finite endpoint)
    divided by (‖∇u₀‖∞ + ‖u₁‖∞)·sup F′(u₀); the smaller of the two sides
    when both endpoints are finite, +∞ when neither is (global) or when the
    data have zero slope and velocity."""
    if not isinstance(profile, NonlinearityProfile):
        raise ConfigError("profile must be classified first (build_profile)")
    info: Dict[str, object] = {}
    if data.symmetry == "radial":
        d0 = _derivative_spline(data.u0)
        pts = _points(data.grid, 1)
        grad_sup = float(np.max(np.abs(d0(pts))))
        if data.u1.origin_moment != 0.0:
            vel_sup = float("inf")
            info["flag"] = "velocity unbounded at the origin"
        else:
            vel_sup = data.u1.sup_norm()
        u_lo, u_hi = float(np.min(data.u0.values)), float(np.max(data.u0.values))
    else:
        R = max(data.u0.support_radius, data.u1.support_radius)
        pts = _shell_points(R, 65, include_origin=True)
        grad_sup = float(np.max(row_norm(data.u0.gradient(pts))))
        vel_sup = float(np.max(np.abs(data.u1(pts))))
        v0 = data.u0(pts)
        u_lo, u_hi = float(np.min(v0)), float(np.max(v0))
    a, b = profile.a, profile.b
    if not (np.isfinite(a) or np.isfinite(b)):
        info["flag"] = "global (no finite endpoint)"
        return (float("inf"), info) if full_output else float("inf")
    speed = grad_sup + vel_sup
    # spline derivatives of constants leave ~1e-14 noise, not a real slope
    if speed <= 1e-12 * max(1.0, abs(u_lo), abs(u_hi)):
        info["flag"] = "zero slope and velocity"
        return (float("inf"), info) if full_output else float("inf")
    fp_sup = float(np.max(profile.F_prime(np.linspace(u_lo, u_hi, 257))))
    # F(u_lo) - a and b - F(u_hi) as gap·F', which keeps them when F rounds to the endpoint
    candidates = {}
    if np.isfinite(a):
        candidates["lower"] = profile.lower_gap(u_lo) * profile.F_prime(u_lo) / (speed * fp_sup)
    if np.isfinite(b):
        candidates["upper"] = profile.upper_gap(u_hi) * profile.F_prime(u_hi) / (speed * fp_sup)
    side = min(candidates, key=candidates.get)
    info["side"] = side
    info["speed"] = speed
    T = float(candidates[side])
    return (T, info) if full_output else T


def _check_pair_symmetry(u_data: CauchyData, v_data: CauchyData, case: str) -> str:
    if u_data.symmetry != v_data.symmetry:
        raise ConfigError("domination needs both data sets with the same symmetry")
    sym = u_data.symmetry
    if case in ("i", "ii") and sym != "radial":
        raise ConfigError(f"case {case} requires radial data")
    if sym == "radial" and not np.array_equal(u_data.grid.nodes, v_data.grid.nodes):
        raise ConfigError("domination requires matching grids")
    return sym


def focusing_domination(u_data: CauchyData, v_data: CauchyData, case: str) -> Verdict:
    """Comparison criteria transferring global existence from u to v with
    |v| ≤ u: (i) outgoing pairs with u₀ ≥ |v₀|; (ii) shell margins
    (ru₀)′ − r|u₁| ≥ |(rv₀)′| + r|v₁|; (iii) u₁ − |∇u₀| ≥ |v₁| + |∇v₀|;
    (iv) −Δu₀ − |∇u₁| ≥ |Δv₀| + |∇v₁|.  Cases i and iii are valid for
    t ≥ 0, cases ii and iv on all of space-time."""
    case = str(case).lower()
    if case not in ("i", "ii", "iii", "iv"):
        raise ConfigError("case must be one of i, ii, iii, iv")
    sym = _check_pair_symmetry(u_data, v_data, case)
    validity = "t >= 0" if case in ("i", "iii") else "all t"
    bounds: Dict[str, object] = {"direction": "|v| <= u", "validity": validity}

    if case == "i":
        for tag, d in (("u", u_data), ("v", v_data)):
            chk = outgoing_check(d)
            if not chk.holds:
                raise AdmissibilityError(
                    f"case i requires outgoing pairs: {tag}-data residual "
                    f"{chk.bounds['residual']:.3g}",
                    residual=chk.bounds["residual"],
                )
    # radial cases iii and iv are pointwise (unmultiplied), where a 1/r
    # velocity pole diverges: the leading moments decide the origin
    u_pole, v_pole = (d.u1.origin_moment if sym == "radial" else 0.0 for d in (u_data, v_data))
    has_pole = u_pole != 0.0 or v_pole != 0.0
    if case == "iv" and has_pole:
        bounds["origin_divergence"] = "velocity pole makes a gradient term unbounded"
        return _make("focusing_domination", -float("inf"), (0.0, -float("inf")), False, bounds)
    u_lead, u_terms = _case_terms(u_data, case)
    v_lead, v_terms = _case_terms(v_data, case)
    slack = _dominance(u_lead, [*u_terms, v_lead, *v_terms])
    if case == "iii" and has_pole:
        if u_pole - abs(v_pole) < 0.0:
            bounds["origin_divergence"] = "velocity pole moments violate the inequality"
            return _make("focusing_domination", -float("inf"), (0.0, -float("inf")), False, bounds)
        slack = _off_origin(slack, np.inf)
    return _verdict("focusing_domination", slack, _levels(u_data, v_data), False, bounds)


def supercritical_envelope(data: CauchyData, N: int, alpha: float = 0.0) -> Verdict:
    """|Δu₀| + |∇u₁| ≤ C_N^{N+1}/(α+|x|)^{2+2/N} forces the solution under
    the shifted singular-soliton profile C_N(α+|x|)^{−2/N} (sup bound
    C_N α^{−2/N} for α > 0).  At α = 0 the payload adds the equivalent
    weighted-norm form sup |x|^{2+2/N}(|Δu₀|+|∇u₁|) vs C_N^{N+1}."""
    n = int(N)
    if n != N or n % 2 != 0:
        raise ConfigError("N must be an even integer")
    if n <= 2:
        raise SolitonError("no singular soliton for N <= 2")
    if alpha < 0:
        raise ConfigError("alpha must be nonnegative")
    cn = (2.0 * (n - 2) / n**2) ** (1.0 / n)
    amp = cn ** (n + 1)
    p = 2.0 + 2.0 / n

    radial = data.symmetry == "radial"
    if radial and data.u1.origin_moment != 0.0:
        raise ConfigError("supercritical_envelope requires a bounded velocity gradient")
    lead, (grad,) = _case_terms(data, "iv")
    radius = (lambda r: np.asarray(r, dtype=float)) if radial else row_norm

    def load(pts):
        return np.abs(lead(pts)) + np.abs(grad(pts))

    def slack(pts):
        return amp / (alpha + radius(pts)) ** p - load(pts)

    bounds: Dict[str, object] = {
        "C_N": cn,
        "decay_exponent": 2.0 / n,
        "pointwise_bound_scale": cn,
        "sup_bound": cn * alpha ** (-2.0 / n) if alpha > 0 else float("inf"),
        "validity": "all t",
    }
    if radial:
        levels, pts = _levels(data), _points(data.grid, 1)
    else:
        R = max(data.u0.support_radius, data.u1.support_radius)
        levels = _shell_levels(R, include_origin=alpha > 0)
        pts = _shell_points(R, 65, include_origin=False)
    if alpha == 0.0:
        bounds["weighted_data_norm"] = float(np.max(radius(pts) ** p * load(pts)))
        bounds["weighted_norm_limit"] = amp
    return _verdict("supercritical_envelope", slack, levels, False, bounds)
