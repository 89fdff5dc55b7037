"""Exact solver for the quadratic null equation by the free-wave substitution.

The change of unknown v = F(u) turns □u = f(u)(u_t² - |∇u|²) into the free
wave equation, so the solution is known globally in the v-picture and u(·, t)
exists exactly as long as v stays inside the invertibility interval (a, b) of
the profile.  Everything in this module is built on that picture: slices are
inverted pointwise, blow-up is localized by root-finding the first time the
free wave touches a finite endpoint inside the witness light cone, and the
quantitative bounds (sup/inf sandwich, slope envelopes, dispersion norms) are
checked against the propagated solution itself.
"""

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from .criteria import Verdict, _nirenberg_like, quadratic_global_condition
from .errors import (
    AdmissibilityError,
    CeasedSolutionError,
    ExtentError,
    GridError,
    WitnessError,
)
from .freewave import CauchyData, DalembertPair, FreePropagator, dalembert_split
from .radial import RadialField, differentiate, line_integral
from .transforms import NonlinearityProfile, push_forward

__all__ = [
    "BlowupReport",
    "NullSolution",
    "asymptotic_profile",
    "conserved_energy_quadratic",
    "detect_blowup",
    "dispersion_metrics",
    "null_solution",
    "solve_null",
    "verify_pointwise_bounds",
]

_RESOLVED = 1e-12  # data below this are treated as absent when sizing supports


# -- slice inversion ---------------------------------------------------------


def _invert_slice(vfield: RadialField, profile: NonlinearityProfile) -> RadialField:
    vals = vfield.values
    inside = (vals > profile.a) & (vals < profile.b)
    if not np.all(inside):
        i = int(np.argmin(inside))
        raise CeasedSolutionError(
            "solution ceased (blow-up)",
            radius=float(vfield.grid.nodes[i]),
            value=float(vals[i]),
        )
    return RadialField(vfield.grid, profile.F_inverse(vals))


def solve_null(data: CauchyData, profile: NonlinearityProfile, t: float) -> RadialField:
    """u(·, t) = F⁻¹(v(·, t)) with v the free wave of the pushed data.

    Radii beyond the trusted cone rely on the propagator's frozen-tail
    extension, which is exact when the data vanish near the outer boundary.
    Raises when the whole slice is untrusted or when v(·, t) leaves (a, b),
    i.e. the solution has ceased by time t.
    """
    vdata = push_forward(data, profile)
    prop = FreePropagator(vdata)
    if prop.trusted_radius(t) <= 0.0:
        raise ExtentError(
            "propagation extent insufficient for the requested time",
            time=float(t),
            r_max=float(data.grid.r_max),
        )
    return _invert_slice(prop.field(t), profile)


# -- blow-up localization ----------------------------------------------------


@dataclass(frozen=True)
class BlowupReport:
    """First boundary touch of the v-picture inside the witness cone.

    t0 is the touch time (signed), x0_radius the touch radius r₁, window the
    witness radius r₀ guaranteeing |t0| ≤ window, and log_rate_fit = (C, slope)
    the least-squares fit of the local sup of |u| against |ln|t - t0||.
    t0 is the first touch inside the cone r ≤ r₀ - |t|, not the solution's
    first blow-up: v may reach the endpoint earlier outside the cone, so
    the solution has ceased by t0 and |t0| only bounds the blow-up time in
    that direction from above.
    """

    t0: float
    x0_radius: float
    window: float
    log_rate_fit: Tuple[float, float]
    side: str


def _level_slack(prop: FreePropagator, side: str, a: float, b: float, sign: int):
    """Distance of u at time sign·t to the side's endpoint: the slack over
    radii, slack(rs, t), and at the origin, origin(ts)."""
    if side == "lower":
        return (lambda rs, t: prop.at(rs, sign * t) - a, lambda ts: prop.origin(sign * ts) - a)
    return (lambda rs, t: b - prop.at(rs, sign * t), lambda ts: b - prop.origin(sign * ts))


_SCAN_POINTS = 1 << 14  # (times × radii) points per _row_mins call of the cone scan
_ROUNDING = 1024 * np.finfo(float).eps  # noise of _first_touch per unit of S + |c|
_MERGE = 4  # ulps within which the edge counts as the node below it


def _refine_rows(slack, ts, rs, vals, lengths):
    """Row minima of vals (padding +inf beyond lengths) and their radii, each
    interior argmin improved by the vertex of the parabola through it and its
    two neighbours when that parabola opens upward, re-evaluated exactly.

    A node with the edge within _MERGE ulps of it counts as the row's end,
    where no parabola is fitted: the slope between two points that close is
    mostly rounding."""
    rows = np.arange(ts.size)
    i = np.argmin(vals, axis=1)
    best_v, best_r = vals[rows, i], rs[rows, i]
    inner = np.flatnonzero((i > 0) & (i < lengths - 1))
    if not inner.size:
        return best_v, best_r
    near = i[inner, None] + np.arange(-1, 2)
    x, y = rs[inner[:, None], near], vals[inner[:, None], near]
    dm, dp = x[:, 1] - x[:, 0], x[:, 2] - x[:, 1]
    s0, s1 = (y[:, 1] - y[:, 0]) / dm, (y[:, 2] - y[:, 1]) / dp
    up = (s1 > s0) & (dp > _MERGE * np.spacing(x[:, 1]))
    inner = inner[up]
    if inner.size:
        # vertex offset -c1/(2 c2) of the parabola in the centred abscissa
        offset = -(s0 * dp + s1 * dm)[up] / (2.0 * (s1 - s0)[up])
        vertex = x[up, 1] + np.clip(offset, -dm[up], dp[up])
        v = slack(vertex, ts[inner])
        better = v < best_v[inner]
        best_v[inner[better]] = v[better]
        best_r[inner[better]] = vertex[better]
    return best_v, best_r


def _row_layout(nodes, r0: float, ts):
    """Edge r0 - |t| of each cone row, the count of nodes strictly below it,
    which rows are the origin alone or 33 even points, and the row lengths."""
    edge = r0 - np.abs(ts)
    k = np.searchsorted(nodes, edge)
    origin = edge <= 0.0
    coarse = ~origin & (k + 1 < 9)
    lengths = np.where(origin, 1, np.where(coarse, 33, k + 1))
    return edge, k, origin, coarse, lengths


def _layout_rows(nodes, edge, k, origin, coarse, lengths):
    """Padded (times × radii) rows of a _row_layout and their lengths: the
    nodes below the edge then the edge itself, 33 even points on [0, edge]
    when that gives fewer than 9, the origin alone once the edge is ≤ 0.
    Padding holds the nodes beyond the edge."""
    width = int(lengths.max())
    rs = np.tile(nodes[np.minimum(np.arange(width), nodes.size - 1)], (edge.size, 1))
    rs[np.arange(edge.size), k] = edge
    rs[origin, 0] = 0.0
    if np.any(coarse):
        even = np.arange(33.0) * (edge[coarse, None] / 32.0)  # = np.linspace(0, edge, 33)
        even[:, -1] = edge[coarse]
        rs[coarse, :33] = even
    return rs, lengths


def _cone_rows(nodes, r0: float, ts):
    """Padded rows of the shrinking cone r ≤ r0 - |t| (see _layout_rows)."""
    return _layout_rows(nodes, *_row_layout(nodes, r0, ts))


def _row_mins(slack, ts, rs, lengths, zero):
    """Refined minimum of slack over each padded row and its radius, from one
    broadcast evaluation on r > 0 plus one for the vertices; zero holds each
    row's value at its first point, the origin."""
    vals = np.concatenate([zero[:, None], slack(rs[:, 1:], ts[:, None])], axis=1)
    vals[np.arange(rs.shape[1]) >= lengths[:, None]] = np.inf
    return _refine_rows(slack, ts, rs, vals, lengths)


def _cone_mins(slack, origin, nodes, r0: float, ts):
    """Refined minimum of slack over the shrinking cone and its radius, for
    each time in ts; origin gives the slack at r = 0."""
    return _row_mins(slack, ts, *_cone_rows(nodes, r0, ts), origin(ts))


def _first_touch(
    slack, origin, nodes, r0: float, lip: float, noise: float, scan: int = 1024,
    tol: float = 1e-10,
):
    """Earliest t ≥ 0 with min over the shrinking cone ≤ 0: scan then bisect.

    The scan times are those of a plain scan, ts = linspace(0, r0, scan + 1),
    and the first of them whose refined cone minimum is ≤ 0 brackets the
    bisection.  The scan runs in rounds: a round evaluates the next count
    times neither evaluated nor skipped in one _row_mins call and stops at
    the first row that touches.  Otherwise it skips (Piyavskii–Shubert) the
    later times that cannot touch: with |∂_t slack| ≤ lip and
    |∂_r slack| ≤ lip/2, a row at time t whose evaluated points have largest
    gap g and refined minimum m > 0 keeps the true slack ≥ m - ε(t) - lip·g/4
    on its whole segment, and so ≥ m - ε(t) - lip·g/4 - lip·(t' - t) on every
    later row, which lies inside it.  A time t' where the largest of these
    over the round's rows exceeds ε(t') evaluates to > 0 and is skipped.
    count then restarts at 1 when the skip passed more rows than the scan
    has evaluated so far, and doubles otherwise, up to _SCAN_POINTS over the
    widest row, a bound on memory and not a setting.  lip = ∞ skips nothing:
    the plain scan in blocks.

    ε(t) = noise·(1 + ρ/r_min(t)) bounds the rounding of every evaluated
    slack value on row t, where ρ = nodes[-1] and r_min is the row's smallest
    positive radius (node 1, or edge/32 on the 33-point rows; the origin row
    has ε = noise).  For the free-wave slack ±(u - c), u = w/r with
    w = Ψ_out(r - t) + Ψ_in(r + t): with S ≥ sup|Ψ'| + ρ·sup|Ψ''| on
    |y| ≤ ρ, |Ψ| ≤ ρS there, and a quartic piece evaluated as a sum of
    powers errs by at most about 10·eps·(|Ψ| + |Ψ'|h + 2.5 sup|Ψ''| h²),
    plus eps·ρS from rounding r ∓ t; so w errs by at most ~93·eps·ρS and
    the slack by ~93·eps·ρS/r + eps·(2S + |c|).  A parabola vertex lies at
    r ≥ r_min/2, since it falls between the midpoints next to its node.
    Hence ε ≤ 256·eps·(S + |c|)(1 + ρ/r_min); _locate_blowup passes four
    times that as noise, which also covers the rounding of lip, of the gaps,
    of the times and of the mirrored pieces of Ψ (re-expanded, so w(0, t) = 0
    holds to rounding only).

    The bisection halves the bracket [lo, hi] at mid = 0.5·(lo + hi),
    keeping [lo, mid] when mid touches (minimum ≤ 0) and [mid, hi]
    otherwise, until hi - lo ≤ tol.  It runs in rounds on a midpoint tree: a
    round computes every midpoint that its next d halvings can visit,
    2^d - 1 times in heap order, evaluates them in one _cone_mins call and
    then walks the tree by the same rule.  So it visits the same midpoints,
    in the same order, as halving one midpoint at a time, even where
    touching is not monotone in t.  d is 1 in the first round and grows by
    one per round, at most the halvings still needed and with 2^d - 1 rows
    of the bracket's widest row within _SCAN_POINTS.
    """
    ts = np.linspace(0.0, r0, scan + 1)
    layout = _row_layout(nodes, r0, ts)
    edge, k, _, coarse, lengths = layout
    r_min = np.where(coarse, edge / 32.0, nodes[1])  # smallest positive radius of each row
    eps = np.where(edge <= 0.0, noise, noise * (1.0 + nodes[-1] / r_min))
    below = np.maximum(k - 1, 0)  # the last node below the edge
    widest = np.concatenate([[0.0], np.maximum.accumulate(np.diff(nodes))])  # up to node j
    gap = np.where(coarse, edge / 32.0, np.maximum(widest[below], edge - nodes[below]))
    if math.isfinite(lip):
        # the bound of row j on a later row t' is m_j + low_j - lip·t'
        low, high = lip * ts - lip * gap / 4.0 - eps, lip * ts + eps
    else:  # nothing to skip
        low, high = np.full(ts.size, -np.inf), np.full(ts.size, np.inf)
    zero = origin(ts)
    cap = max(1, _SCAN_POINTS // int(lengths.max()))
    i = evaluated = 0
    count = 1
    while i < ts.size:
        part = slice(i, i + count)
        m, loc = _row_mins(
            slack, ts[part], *_layout_rows(nodes, *(p[part] for p in layout)), zero[part]
        )
        hit = np.flatnonzero(m <= 0.0)
        if hit.size:
            i, hi_loc = i + int(hit[0]), float(loc[hit[0]])
            break
        i += m.size
        evaluated += m.size
        clear = np.max(m + low[part]) > high[i:]
        skip = clear.size if clear.all() else int(np.argmin(clear))
        i += skip
        count = 1 if skip > evaluated else min(2 * count, cap)
    else:
        raise WitnessError(
            "criterion-failure witness inconsistent: no boundary touch inside the cone",
            window=float(r0),
        )
    lo = float(ts[max(i - 1, 0)])  # a touch at t = 0 leaves nothing to bisect
    return _bisect_touch(slack, origin, nodes, r0, lo, float(ts[i]), hi_loc, tol)


def _bisect_touch(
    slack, origin, nodes, r0: float, lo: float, hi: float, hi_loc: float, tol: float
):
    """The bisection of _first_touch on the bracket [lo, hi], hi touching at
    radius hi_loc, by rounds on a midpoint tree: (t, radius) of its last
    touching midpoint, or (hi, hi_loc) when none touches."""
    width = int(_row_layout(nodes, r0, np.array([lo]))[-1][0])  # the bracket's widest row
    deepest = max(1, (_SCAN_POINTS // width + 1).bit_length() - 1)  # 2^d - 1 rows fit
    depth = 0
    while hi - lo > tol:
        depth = min(depth + 1, deepest, math.ceil(math.log2((hi - lo) / tol)))
        tree = _midpoint_tree(lo, hi, depth)
        m, loc = _cone_mins(slack, origin, nodes, r0, tree)
        j = 0
        while j < tree.size and hi - lo > tol:
            if m[j] <= 0.0:
                hi, hi_loc, j = float(tree[j]), float(loc[j]), 2 * j + 1
            else:
                lo, j = float(tree[j]), 2 * j + 2
    return hi, hi_loc


def _midpoint_tree(lo: float, hi: float, depth: int):
    """Every midpoint the next depth halvings of [lo, hi] can visit, 2^depth - 1
    times in heap order (the children of entry j at 2j + 1 and 2j + 2), each
    the 0.5·(lo + hi) of its own bracket."""
    ends = np.array([lo, hi])
    levels = []
    for _ in range(depth):
        mids = 0.5 * (ends[:-1] + ends[1:])
        levels.append(mids)
        ends = np.sort(np.concatenate([ends, mids]))  # each mid between its ends
    return np.concatenate(levels)


def _log_rate_fit(slack, profile, side, t0, r1):
    """Least-squares (C, slope) of sup|u| near the touch vs |ln(t0 - t)|;
    slack is already signed for the time direction and t0 = |t0|."""
    tau_hi = min(0.1, 0.9 * t0) if t0 > 0 else 0.0
    if tau_hi <= 1e-5:
        return (math.nan, math.nan)
    taus = np.geomspace(1e-5, tau_hi, 17)
    ts = t0 - taus
    rs = np.broadcast_to(np.linspace(max(0.0, r1 - 0.5), r1 + 0.5, 201), (taus.size, 201))
    s_min, _ = _refine_rows(slack, ts, rs, slack(rs, ts[:, None]), np.full(taus.size, 201))
    keep = s_min > 0.0
    if np.count_nonzero(keep) < 5:
        return (math.nan, math.nan)
    level = profile.a + s_min[keep] if side == "lower" else profile.b - s_min[keep]
    us = np.abs(profile.F_inverse(level))
    slope, intercept = np.polyfit(-np.log(taus[keep]), us, 1)
    return (float(intercept), float(slope))


def detect_blowup(
    data: CauchyData, profile: NonlinearityProfile, fit_rate: bool = True
) -> BlowupReport:
    """Localize the first invertibility-boundary touch forced by a failing witness.

    Each failing mover combination pins the touch to one time direction and a
    cone |r| ≤ r₀ - |t|; the touch inside it is root-found by bisection of the
    cone minimum (the free wave is exact, so the bracket is certified).  The
    scan that brackets it skips only times the curvature bound of the free
    wave proves touch-free, so it finds the same first touching scan time,
    and the same bisection, as a scan of every time.  When several
    combinations fail the earliest |t0| wins, positive direction on a tie.
    The touch is the first inside the cones, not the first anywhere: v can
    reach the endpoint earlier at radii outside them (see BlowupReport).
    """
    pair = dalembert_split(push_forward(data, profile))
    return _locate_blowup(pair, FreePropagator(pair), profile, fit_rate)


def _locate_blowup(
    pair: DalembertPair, prop: FreePropagator, profile: NonlinearityProfile, fit_rate: bool
) -> BlowupReport:
    """detect_blowup given the split pushed data and their propagator."""
    a, b = profile.a, profile.b
    r = pair.grid.nodes

    candidates = []
    for sign, mover in ((-1, pair.plus.values), (+1, pair.minus.values)):
        if math.isfinite(a):
            bad = np.nonzero(mover - 0.5 * a <= 0.0)[0]
            if bad.size:
                candidates.append((float(r[bad[0]]), sign, "lower"))
        if math.isfinite(b):
            bad = np.nonzero(0.5 * b - mover <= 0.0)[0]
            if bad.size:
                candidates.append((float(r[bad[0]]), sign, "upper"))
    if not candidates:
        raise WitnessError("criterion holds at every node; no blow-up witness")

    lip = prop.curvature_bound()
    size = max(np.max(np.abs(pair.plus.values)), np.max(np.abs(pair.minus.values)))
    scale = size + 2.0 * pair.grid.r_max * lip  # S of _first_touch: sup|Ψ'| ≤ size + ρ·lip/2
    touches = []
    for r0, sign, side in candidates:
        if r0 == 0.0:  # the cone is its apex: the touch is at |t| = 0⁺ on the origin
            t_abs, r1 = 0.0, 0.0
        else:
            noise = _ROUNDING * (scale + abs(a if side == "lower" else b))
            t_abs, r1 = _first_touch(*_level_slack(prop, side, a, b, sign), r, r0, lip, noise)
        touches.append((t_abs, 0 if sign > 0 else 1, sign, side, r0, r1))
    touches.sort(key=lambda rec: rec[:2])
    t_abs, _, sign, side, r0, r1 = touches[0]

    rate = (math.nan, math.nan)
    if fit_rate:
        slack, _ = _level_slack(prop, side, a, b, sign)
        rate = _log_rate_fit(slack, profile, side, t_abs, r1)
    return BlowupReport(
        t0=sign * t_abs, x0_radius=r1, window=r0, log_rate_fit=rate, side=side
    )


# -- solution object ---------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NullSolution:
    """u = F⁻¹(v) with v carried exactly as a split free wave.

    validity is "global" when the pointwise criterion (verdict) holds
    strictly and "cone-limited" otherwise, in which case blowup is the
    detect_blowup report (without the rate fit) and first_zero its boundary
    touch (t0, r1).  Wherever the solution is valid, a < v < b pointwise.
    """

    profile: NonlinearityProfile
    validity: str
    data: CauchyData
    propagator: FreePropagator
    verdict: Verdict
    first_zero: Optional[Tuple[float, float]] = None
    blowup: Optional[BlowupReport] = None

    def v(self, t: float) -> RadialField:
        return self.propagator.field(t)

    def u(self, t: float) -> RadialField:
        return _invert_slice(self.propagator.field(t), self.profile)

    def u_t(self, t: float) -> RadialField:
        u, slope = self._u_slope(t)
        return RadialField(u.grid, self.propagator.field_t(t).values / slope)

    def u_r(self, t: float) -> RadialField:
        u, slope = self._u_slope(t)
        return RadialField(u.grid, self.propagator.field_r(t).values / slope, parity="odd")

    def _u_slope(self, t: float) -> Tuple[RadialField, np.ndarray]:
        """u at time t and F'(u) from one slice inversion; u_t and u_r are
        v_t and v_r over F'(u)."""
        u = self.u(t)
        return u, self.profile.F_prime(u.values)


def null_solution(data: CauchyData, profile: NonlinearityProfile) -> NullSolution:
    verdict = quadratic_global_condition(data, profile)
    pair = dalembert_split(push_forward(data, profile))
    prop = FreePropagator(pair)
    first_zero = report = None
    if verdict.holds:
        validity = "global"
    else:
        validity = "cone-limited"
        report = _locate_blowup(pair, prop, profile, fit_rate=False)
        first_zero = (report.t0, report.x0_radius)
    return NullSolution(
        profile=profile,
        validity=validity,
        data=data,
        propagator=prop,
        verdict=verdict,
        first_zero=first_zero,
        blowup=report,
    )


# -- quantitative bounds -----------------------------------------------------


def _require_unit_profile(sol: NullSolution):
    u0 = sol.data.u0.values
    lo, hi = float(np.min(u0)), float(np.max(u0))
    if not _nirenberg_like(sol.profile, lo, hi):
        raise AdmissibilityError("quantitative bounds are proved for f ≡ 1 only")
    return lo, hi


def _margin(sol: NullSolution, epsilon: Optional[float]) -> float:
    eps = sol.verdict.margin if epsilon is None else epsilon
    if not eps > 0.0:
        raise AdmissibilityError(
            "bounds require a positive criterion margin", epsilon=float(eps)
        )
    return float(eps)


def _shell_data_norm(data: CauchyData) -> float:
    r = data.grid.nodes
    slope = np.max(np.abs(r * differentiate(data.u0).values))
    return float(slope + np.max(np.abs(data.u1.moment())))


def verify_pointwise_bounds(
    sol: NullSolution,
    probes: Iterable[float],
    epsilon: Optional[float] = None,
    tol: float = 1e-8,
) -> Dict:
    """Check the two-sided sup/inf sandwich and both slope envelopes.

    At every probe time and every node the solution must satisfy
    inf u₀ - ln(1 + ‖r(u₀)_r‖ + ‖ru₁‖) ≤ u ≤ sup u₀ + ln(1/ε) together with
    u_r + |u_t| ≤ (1 - 1/c₀)/r and |u_r| + |u_t| ≤ (c₀ - 1)/r, where
    c₀ = e^{sup u₀ - inf u₀} ε⁻¹ (1 + ‖r(u₀)_r‖ + ‖ru₁‖).  Violations beyond
    tol are listed, not raised.
    """
    inf0, sup0 = _require_unit_profile(sol)
    eps = _margin(sol, epsilon)
    shell = _shell_data_norm(sol.data)
    c0 = math.exp(sup0 - inf0) / eps * (1.0 + shell)
    lower = inf0 - math.log1p(shell)
    upper = sup0 + math.log(1.0 / eps)

    r = sol.data.grid.nodes
    inv_r = 1.0 / r[1:]
    violations = []
    checked = 0
    for t in probes:
        t = float(t)
        u, slope = sol._u_slope(t)
        u = u.values
        ur = sol.propagator.field_r(t).values[1:] / slope[1:]
        ut = np.abs(sol.propagator.field_t(t).values[1:] / slope[1:])
        checked += u.size + 2 * ur.size
        for i in np.nonzero((u < lower - tol) | (u > upper + tol))[0]:
            violations.append((t, float(r[i]), "range", float(u[i])))
        for i in np.nonzero(ur + ut > (1.0 - 1.0 / c0) * inv_r + tol)[0]:
            violations.append((t, float(r[i + 1]), "signed_slope", float(ur[i] + ut[i])))
        for i in np.nonzero(np.abs(ur) + ut > (c0 - 1.0) * inv_r + tol)[0]:
            violations.append((t, float(r[i + 1]), "total_slope", float(abs(ur[i]) + ut[i])))
    return {
        "checked": checked,
        "violations": violations,
        "c0": c0,
        "epsilon": eps,
        "lower": lower,
        "upper": upper,
        "shell_norm": shell,
    }


def dispersion_metrics(sol: NullSolution, probes: Optional[Sequence[float]] = None) -> Dict:
    """Energy-space amplification and a discrete dispersive norm.

    Asserts sup_t ‖(u(t), u_t(t))‖_{Ḣ¹×L²} ≤ e^{sup u₀ - inf u₀} ε⁻¹ times the
    data norm (reported as a boolean, with the measured sup).  The Strichartz
    line carries an unspecified constant, so only the ratio of the discrete
    L²_t L∞_x norm to max(1, e^{sup u₀} ε⁻¹)·‖data‖ is reported.
    """
    inf0, sup0 = _require_unit_profile(sol)
    eps = _margin(sol, None)
    grid = sol.data.grid
    r = grid.nodes

    flux0 = r * differentiate(sol.data.u0).values
    mom0 = sol.data.u1.moment()
    integrand = flux0**2 + mom0**2
    e0, info = line_integral(grid, integrand, tail="power", full_output=True)
    # finite energy needs the integrand to have died out by the boundary, or
    # at least to carry an integrable fitted power tail
    peak = float(np.max(integrand))
    boundary = float(np.max(integrand[r >= 0.95 * grid.r_max]))
    integrable_tail = info.exponent is not None and info.exponent > 1.2
    if peak > 0.0 and boundary > 1e-10 * peak and not integrable_tail:
        raise AdmissibilityError(
            "data are not resolved as finite energy on this grid",
            boundary_fraction=boundary / peak,
        )
    norm0 = math.sqrt(max(e0, 0.0))

    if probes is None:
        probes = np.linspace(0.0, 0.45 * grid.r_max, 33)
    probes = np.asarray(list(probes), dtype=float)

    sup_state = 0.0
    amps = np.empty(probes.size)
    v_energies = np.empty(probes.size)
    for k, t in enumerate(probes):
        t = float(t)
        u, slope = sol._u_slope(t)
        flux = r * (sol.propagator.field_r(t).values / slope)
        mom = r * (sol.propagator.field_t(t).values / slope)
        energy = line_integral(grid, flux**2 + mom**2, tail="flag")
        sup_state = max(sup_state, math.sqrt(max(energy, 0.0)))
        amps[k] = np.max(np.abs(u.values))
        v_energies[k] = sol.propagator.energy(t)

    amplification = math.exp(sup0 - inf0) / eps
    bound = amplification * norm0
    l2_linf = math.sqrt(float(np.trapezoid(amps**2, probes)))
    denom = max(1.0, math.exp(sup0) / eps) * norm0
    scale = max(abs(float(np.max(v_energies))), abs(float(np.min(v_energies))))
    drift = 0.0 if scale == 0.0 else float(np.ptp(v_energies)) / scale
    return {
        "data_norm": norm0,
        "sup_state_norm": sup_state,
        "amplification_limit": bound,
        "first_line_holds": sup_state <= bound * (1.0 + 1e-9),
        "strichartz_ratio": 0.0 if denom == 0.0 else l2_linf / denom,
        "v_energy_drift": drift,
        "epsilon": eps,
    }


def conserved_energy_quadratic(u_field: RadialField, u_t_field: RadialField, full_output: bool = False):
    """∫ e^{-2u} (u_t² + u_r²) over ℝ³, the conserved quantity of the family.

    This is the free energy of the v = e^{-u} picture written in the original
    unknown.  The tail diagnostic is returned alongside when full_output is
    set; an unresolved tail flags the value rather than raising.
    """
    if not np.array_equal(u_field.grid.nodes, u_t_field.grid.nodes):
        raise GridError("fields must share one grid")
    r = u_field.grid.nodes
    u = u_field.values
    ur = differentiate(u_field).values
    integrand = np.exp(-2.0 * u) * (u_t_field.values**2 + ur**2) * r**2
    value, info = line_integral(u_field.grid, integrand, tail="flag", full_output=True)
    return (value, info) if full_output else value


# -- long-time behaviour -----------------------------------------------------


def _support_radius(vdata: CauchyData) -> float:
    r = vdata.grid.nodes
    present = (np.abs(vdata.u0.values) > _RESOLVED) | (np.abs(vdata.u1.moment()) > _RESOLVED)
    idx = np.nonzero(present)[0]
    return float(r[idx[-1]]) if idx.size else 0.0


def _slice_amplitude(prop: FreePropagator, profile, t: float, R: float) -> float:
    rs = np.linspace(0.0, R + 2.0, 129)
    cone = abs(t) + np.linspace(-(R + 2.0), R + 2.0, 257)
    rs = np.union1d(rs, cone[cone > 0.0])
    return float(np.max(np.abs(profile.F_inverse(prop.at(rs, t)))))


def asymptotic_profile(
    data: CauchyData,
    profile: NonlinearityProfile,
    fit_window: Tuple[float, float] = (5.0, 50.0),
    samples: int = 32,
) -> Dict:
    """Dichotomy for rapidly decaying data: global with 1/t decay, or blow-up.

    The v-picture extrema over a compact spacetime region decide the branch
    (strong Huygens makes the region sufficient); the criterion margin is
    cross-checked and any disagreement downgrades the classification to
    "indeterminate".  In the global branch t·‖u(t)‖_∞ is sampled over the fit
    window and the leading scattering coefficient 1/F'(0) is reported.
    """
    vdata = push_forward(data, profile)
    pair = dalembert_split(vdata)
    prop = FreePropagator(pair)
    a, b = profile.a, profile.b
    R = _support_radius(vdata)
    flags = []
    if R >= 0.9 * data.grid.r_max:
        flags.append("data tail not resolved on the grid; classification is approximate")

    verdict = quadratic_global_condition(data, profile)
    nodes = data.grid.nodes
    dense = np.union1d(nodes, 0.5 * (nodes[1:] + nodes[:-1]))
    v_min, v_max = math.inf, -math.inf
    for t in np.linspace(-(2.0 * R + 4.0), 2.0 * R + 4.0, 129):
        cone = abs(t) + np.linspace(-(R + 2.0), R + 2.0, 129)
        rs = np.union1d(dense, cone[cone > 0.0])
        vals = prop.at(rs, float(t))
        v_min = min(v_min, float(np.min(vals)))
        v_max = max(v_max, float(np.max(vals)))

    inside = v_min > a and v_max < b
    if inside and verdict.holds:
        classification = "global"
        scale = max(1.0, abs(v_min), abs(v_max))
        gap = min(v_min - a, b - v_max)
        if gap < 1e-6 * scale:
            flags.append("endpoint clearance below probe resolution")
    elif not inside and not verdict.holds:
        classification = "blow-up"
    else:
        classification = "indeterminate"
        flags.append("probe extrema disagree with the criterion margin at this resolution")

    report = {
        "classification": classification,
        "v_min": v_min,
        "v_max": v_max,
        "endpoints": (a, b),
        "criterion_margin": verdict.margin,
        "scattering_coefficient": 1.0 / float(profile.F_prime(0.0)),
        "flags": flags,
        "blowup": None,
        "decay": None,
    }
    if classification == "blow-up":
        report["blowup"] = _locate_blowup(pair, prop, profile, fit_rate=True)
    if classification == "global":
        ts = np.linspace(fit_window[0], fit_window[1], samples)
        etas = np.array([t * _slice_amplitude(prop, profile, float(t), R) for t in ts])
        top = float(np.max(etas))
        bottom = float(np.min(etas))
        report["decay"] = {
            "times": ts,
            "t_amplitude": etas,
            "eta_min": bottom,
            "eta_max": top,
            "ratio": 1.0 if top == 0.0 else top / max(bottom, 1e-300),
        }
    return report
