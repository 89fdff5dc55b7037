"""Exact propagation of radial free waves, plus nonradial point evaluation.

A radial solution of u_tt = Δu on ℝ³ is carried by its shell profile
U = T(u) = (ru)', which solves the half-line wave equation with a Neumann
condition at r = 0.  Splitting U into travelling profiles

    U_plus  = (U₀ - r u₁) / 2      (argument r - t, moves outward)
    U_minus = (U₀ + r u₁) / 2      (argument r + t, moves inward)

gives d'Alembert's form of the displacement w = r u,

    w(r, t) = Ψ_out(r - t) + Ψ_in(r + t),

where Ψ_out is the primitive of U_plus on y ≥ 0 and, for y < 0, the odd
mirror of the primitive of U_minus: the inward wave after it has passed
through the origin.  Ψ_in is the same with the profiles swapped.
FreePropagator interpolates the profiles once with cubic splines and stores
each Ψ as one piecewise polynomial on the whole line; u, u_t, u_r and the
shell at arbitrary (r, t) are then Ψ and its first two derivatives at r ∓ t,
with no further discretization error.

Two sign conventions for "outgoing" data coexist in the wild.  Here
`orientation="expanding"` means u₁ = -((u₀)_r + u₀/r), the choice for
which the forward-time solution is the pure outward translation
u(r, t) = ((r-t)/r) u₀(r-t) vanishing on 0 ≤ r ≤ t; "collapsing" is the
opposite sign, which translates outward only in reversed time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from numpy.typing import NDArray
from scipy.integrate import simpson
from scipy.interpolate import PPoly

from .errors import ExtentError
from .radial import (
    _GL_NODES,
    _GL_WEIGHTS,
    Field3D,
    RadialField,
    RadialGrid,
    cube_points,
    cubic_spline,
    row_norm,
)

__all__ = [
    "CauchyData",
    "DalembertPair",
    "FreePropagator",
    "TruncationInfo",
    "reduce_to_line",
    "lift_from_line",
    "dalembert_split",
    "propagate_radial",
    "time_translate_split",
    "outgoing_velocity",
    "wave_energy",
    "evaluate_at_origin_nonradial",
    "local_envelope",
    "as_general",
]


@dataclass(frozen=True)
class CauchyData:
    """Initial position u0 and velocity u1, radial or general.

    Radial data holds two RadialFields on one grid; general data holds two
    Field3D callables.  The velocity of radial data may carry a 1/r pole
    recorded in its origin_moment.
    """

    u0: Union[RadialField, Field3D]
    u1: Union[RadialField, Field3D]

    def __post_init__(self):
        radial = isinstance(self.u0, RadialField)
        if radial != isinstance(self.u1, RadialField):
            raise ValueError("u0 and u1 must both be radial or both general")
        if radial and not np.array_equal(self.u0.grid.nodes, self.u1.grid.nodes):
            raise ValueError("u0 and u1 must share one grid")

    @property
    def symmetry(self) -> str:
        return "radial" if isinstance(self.u0, RadialField) else "general"

    @property
    def grid(self) -> RadialGrid:
        if self.symmetry != "radial":
            raise ValueError("general data carries no radial grid")
        return self.u0.grid

    @classmethod
    def from_callables(cls, grid, f0, f1, u1_origin_moment: float = 0.0) -> "CauchyData":
        u0 = RadialField.from_callable(grid, f0)
        u1 = RadialField.from_callable(grid, f1, origin_moment=u1_origin_moment)
        return cls(u0, u1)


@dataclass(frozen=True)
class DalembertPair:
    """Travelling shell profiles: plus moves outward (r - t), minus inward (r + t).

    Reconstruction: plus + minus = T(u₀) and minus - plus = r u₁.
    """

    plus: RadialField
    minus: RadialField

    def __post_init__(self):
        if not np.array_equal(self.plus.grid.nodes, self.minus.grid.nodes):
            raise ValueError("split profiles must share one grid")

    @property
    def grid(self) -> RadialGrid:
        return self.plus.grid

    def reconstruct_shell(self) -> RadialField:
        return RadialField(self.grid, self.plus.values + self.minus.values, parity="even")

    def velocity_moment(self) -> NDArray:
        """r u₁ recovered from the split."""
        return self.minus.values - self.plus.values

    def recombine(self) -> CauchyData:
        u0 = lift_from_line(self.reconstruct_shell())
        u1 = RadialField.from_moment(self.grid, self.velocity_moment())
        return CauchyData(u0, u1)


def reduce_to_line(u: RadialField) -> RadialField:
    """Shell profile T(u) = (ru)' on the same grid; T(u)(0) = u(0)."""
    if u.parity != "even":
        raise ValueError("shell reduction expects an even radial profile")
    m = u.moment()
    vals = cubic_spline(u.grid.nodes, m).derivative()(u.grid.nodes)
    if u.origin_moment == 0.0:
        vals[0] = u.values[0]
    return RadialField(u.grid, vals, parity="even")


def lift_from_line(shell: RadialField) -> RadialField:
    """Inverse of reduce_to_line: u(r) = (1/r)∫₀^r T, u(0) = T(0)."""
    r = shell.grid.nodes
    anti = cubic_spline(r, shell.values).antiderivative()(r)
    vals = np.empty_like(anti)
    vals[1:] = anti[1:] / r[1:]
    vals[0] = shell.values[0]
    return RadialField(shell.grid, vals, parity="even")


def dalembert_split(data: CauchyData) -> DalembertPair:
    """Split radial data into outward and inward shell profiles."""
    if data.symmetry != "radial":
        raise ValueError("d'Alembert splitting needs radial data")
    shell0 = reduce_to_line(data.u0).values
    m1 = data.u1.moment()
    plus = RadialField(data.grid, (shell0 - m1) / 2, parity="none")
    minus = RadialField(data.grid, (shell0 + m1) / 2, parity="none")
    return DalembertPair(plus, minus)


def outgoing_velocity(u0: RadialField, orientation: str = "expanding") -> RadialField:
    """Velocity pairing with u0 so one travelling profile vanishes.

    expanding: u₁ = -((u₀)_r + u₀/r), the inward profile vanishes and the
    forward-time solution is ((r-t)/r)u₀(r-t), zero on 0 ≤ r ≤ t.
    collapsing: the opposite sign; outward translation happens in t < 0.
    Carries a 1/r pole (origin_moment ±u₀(0)) whenever u₀(0) ≠ 0.
    """
    if orientation not in ("expanding", "collapsing"):
        raise ValueError(f"unknown orientation {orientation!r}")
    sign = -1.0 if orientation == "expanding" else 1.0
    shell = reduce_to_line(u0)
    return RadialField.from_moment(u0.grid, sign * shell.values)


@dataclass(frozen=True)
class TruncationInfo:
    """Whether frozen profile extensions were touched, and where to trust.

    Values at r < trusted_radius are unaffected by the extension.
    """

    truncated: bool
    trusted_radius: float
    max_argument: float


def _half_lines(nodes: NDArray, values: NDArray):
    """pp coefficients (behind, ahead) of a profile's primitive: the odd
    mirror y ↦ -P(-y) on [-2ρ, 0] and P, the primitive of the profile's
    cubic spline, on [0, 2ρ].  Beyond ±ρ a straight piece freezes the
    profile at values[-1]."""
    rho = float(nodes[-1])
    P = cubic_spline(nodes, values).antiderivative()
    # mirrored piece on [-x_{i+1}, -x_i]: q(s) = -p_i(h_i - s), re-expanded
    # by a Taylor shift of p_i to h_i (Horner), then s ↦ -s
    h = np.diff(nodes)
    a = P.c[::-1].copy()  # a[k] multiplies s^k
    deg = a.shape[0] - 1
    for i in range(deg):
        for k in range(deg - 1, i - 1, -1):
            a[k] += h * a[k + 1]
    a *= -((-1.0) ** np.arange(deg + 1))[:, None]
    # straight end pieces on [-2ρ, -ρ] and [ρ, 2ρ]: slope, value at the left
    end = float(P(rho))
    left, right = np.zeros((2, deg + 1, 1))
    left[-2:, 0] = values[-1], -end - rho * values[-1]
    right[-2:, 0] = values[-1], end
    return np.hstack([left, a[::-1, ::-1]]), np.hstack([P.c, right])


class FreePropagator:
    """Evaluates the free radial wave at arbitrary (r, t) by exact shifts.

    The displacement is w(r, t) = r u(r, t) = Ψ_out(r - t) + Ψ_in(r + t),
    each Ψ one piecewise polynomial on the whole line: Ψ_out is the
    primitive of U_plus for y ≥ 0 and the odd mirror of the primitive of
    U_minus for y < 0 (the inward wave after reflection through the origin),
    Ψ_in the same with the profiles swapped.  Every state value is one
    expression in Ψ_out, Ψ_in or their first two derivatives.  Beyond the
    grid the profiles are frozen at their boundary values (Ψ continued
    linearly); truncation() reports when that extension is reachable.
    """

    def __init__(self, source: Union[CauchyData, DalembertPair]):
        pair = dalembert_split(source) if isinstance(source, CauchyData) else source
        self.grid = pair.grid
        r = self.grid.nodes
        self._rho = float(r[-1])
        # a breakpoint belongs to the piece on its right, so Ψ'(0) is the
        # front profile's value (the convention for pole velocities)
        x = np.concatenate([[-2 * self._rho], -r[:0:-1], r, [2 * self._rho]])
        plus_behind, plus_ahead = _half_lines(r, pair.plus.values)
        minus_behind, minus_ahead = _half_lines(r, pair.minus.values)
        self._psi_out = PPoly.construct_fast(np.hstack([minus_behind, plus_ahead]), x)
        self._psi_in = PPoly.construct_fast(np.hstack([plus_behind, minus_ahead]), x)
        # a 1/r pole of the velocity: Ψ' jumps at the origin by r u₁ there
        self._pole = bool(pair.plus.values[0] != pair.minus.values[0])

    def curvature_bound(self) -> float:
        """L = sup|Ψ_out''| + sup|Ψ_in''| over the whole line, in closed form
        from the quadratic pieces of Ψ'' (their ends, and the vertex where it
        lies inside the piece).

        Because w(0, t) = 0, w_t(r, t) = ∫₀^r w_tr and |w_tr| ≤ L give
        |u_t| ≤ L; because r w_r - w = ∫₀^r s w_rr ds, |u_r| ≤ L/2.  Both need
        Ψ' continuous, which fails only at the origin under a velocity with a
        1/r pole; L is then ∞.
        """
        if self._pole:
            return np.inf
        total = 0.0
        for psi in (self._psi_out, self._psi_in):
            a, b, c = psi.derivative(2).c
            h = np.diff(psi.x)
            vertex = np.divide(-b, 2.0 * a, out=np.zeros_like(a), where=a != 0.0)
            s = np.clip(vertex, 0.0, h)
            total += float(np.max(np.abs([c, (a * h + b) * h + c, (a * s + b) * s + c])))
        return total

    # -- state evaluation --------------------------------------------------

    def displacement(self, r, t: float):
        """w(r, t) = r u(r, t)."""
        r = np.asarray(r, dtype=float)
        return self._psi_out(r - t) + self._psi_in(r + t)

    def displacement_t(self, r, t: float):
        r = np.asarray(r, dtype=float)
        return -self._psi_out(r - t, 1) + self._psi_in(r + t, 1)

    def shell(self, r, t: float):
        """U(r, t) = ∂_r w = T(u(·, t))."""
        r = np.asarray(r, dtype=float)
        return self._psi_out(r - t, 1) + self._psi_in(r + t, 1)

    def at(self, r, t):
        """u(r, t), broadcasting r against t; the origin value is the shell
        limit, evaluated only when some radius is not positive."""
        r = np.asarray(r, dtype=float)
        w = self.displacement(r, t)
        positive = r > 0
        if positive.all():
            out = w / r
        else:
            out = np.where(positive, w / np.where(positive, r, 1.0), self.shell(0.0, t))
        return out if out.ndim else float(out)

    def origin(self, ts):
        """u(0, t) = Ψ_out'(-t) + Ψ_in'(t): 2 U_minus(|t|) for t ≥ 0,
        2 U_plus(|t|) for t ≤ 0."""
        ts = np.asarray(ts, dtype=float)
        out = self._psi_out(-ts, 1) + self._psi_in(ts, 1)
        return out if out.ndim else float(out)

    def origin_t(self, ts):
        """u_t(0, t) by the exact slope formula ∂_r w_t(0, t); at |t| = ρ the
        limit from inside |t| < ρ."""
        ts = np.asarray(ts, dtype=float)
        behind, ahead = self._psi_out(-ts, 2), self._psi_in(ts, 2)
        # At |t| = ρ one term is read at +ρ, where the straight end piece on
        # its right gives 0.  On 0 < y ≤ ρ, Ψ_in''(y) = −Ψ_out''(−y) and
        # Ψ_out''(y) = −Ψ_in''(−y), so that term equals the one read at −ρ.
        rim = np.where(ts > 0, -2.0 * behind, 2.0 * ahead)
        out = np.where(np.abs(ts) == self._rho, rim, -behind + ahead)
        return out if out.ndim else float(out)

    def trusted_radius(self, t: float) -> float:
        return self._rho - abs(t)

    def truncation(self, t: float) -> TruncationInfo:
        max_arg = self._rho + abs(t)
        return TruncationInfo(
            truncated=abs(t) > 1e-14 * max(1.0, self._rho),
            trusted_radius=self.trusted_radius(t),
            max_argument=max_arg,
        )

    def field(self, t: float) -> RadialField:
        return RadialField(self.grid, self.at(self.grid.nodes, t), parity="even")

    def field_t(self, t: float) -> RadialField:
        r = self.grid.nodes
        wt = self.displacement_t(r, t)
        if t == 0.0 and wt[0] != 0.0:  # the 1/r pole of the initial velocity
            return RadialField.from_moment(self.grid, wt)
        vals = np.empty_like(wt)
        vals[1:] = wt[1:] / r[1:]
        vals[0] = self.origin_t(t)
        return RadialField(self.grid, vals, parity="even")

    def field_r(self, t: float) -> RadialField:
        r = self.grid.nodes
        u = self.at(r, t)
        vals = np.empty_like(u)
        vals[1:] = (self.shell(r[1:], t) - u[1:]) / r[1:]
        vals[0] = 0.0
        return RadialField(self.grid, vals, parity="odd")

    def state(self, t: float) -> CauchyData:
        return CauchyData(self.field(t), self.field_t(t))

    def energy(self, t: float = 0.0, samples: int = 0) -> float:
        """4π ∫ (u_t² + u_r²) r² dr at time t, from the profiles directly.

        Integrates w_t² + (w_r - w/r)² on a dense uniform grid, so the only
        drift across t is quadrature error, not differencing error.
        """
        n = samples or max(4 * self.grid.n + 1, 2049)
        r = np.linspace(0.0, self._rho, n)
        wt = self.displacement_t(r, t)
        flux = np.empty_like(wt)
        w = self.displacement(r[1:], t)
        flux[1:] = self.shell(r[1:], t) - w / r[1:]
        flux[0] = 0.0
        return 4 * np.pi * float(simpson(wt**2 + flux**2, x=r))


def propagate_radial(data: CauchyData, t: float, full_output: bool = False):
    """u(·, t) on the data grid; errors out once nothing is trusted."""
    prop = FreePropagator(data)
    if prop.trusted_radius(t) <= 0:
        raise ExtentError(
            f"insufficient grid extent: |t| = {abs(t):g} exceeds r_max = {prop.grid.r_max:g}"
        )
    u = prop.field(t)
    return (u, prop.truncation(t)) if full_output else u


def time_translate_split(pair: DalembertPair, t0: float) -> DalembertPair:
    """Split profiles of the solution re-based at time t0.

    The outward profile becomes y ↦ U_plus(y - t0) and the inward one
    y ↦ U_minus(y + t0), each folded through the origin reflection where
    the shifted argument turns negative.  Exact for either sign of t0.
    """
    prop = FreePropagator(pair)
    if prop.trusted_radius(t0) <= 0:
        raise ExtentError(
            f"insufficient grid extent: |t0| = {abs(t0):g} exceeds r_max = {pair.grid.r_max:g}"
        )
    r = pair.grid.nodes
    plus = RadialField(pair.grid, prop._psi_out(r - t0, 1), parity="none")
    minus = RadialField(pair.grid, prop._psi_in(r + t0, 1), parity="none")
    return DalembertPair(plus, minus)


def wave_energy(data: CauchyData) -> float:
    """4π ∫ (u₁² + (u₀)_r²) r² dr, the squared first-order norm of the data.

    Computed in displacement form ∫ (r u₁)² + ((r u₀)' - u₀)² dr so that
    velocities with a 1/r pole still have the correct finite energy.
    """
    if data.symmetry != "radial":
        raise ValueError("wave_energy needs radial data")
    r = data.grid.nodes
    m1 = data.u1.moment()
    flux = reduce_to_line(data.u0).values - data.u0.values
    return 4 * np.pi * float(simpson(m1**2 + flux**2, x=r))


# -- nonradial evaluation by spherical means --------------------------------


def _lebedev26():
    pts, wts = [], []
    for k in range(3):
        for s in (1.0, -1.0):
            e = np.zeros(3)
            e[k] = s
            pts.append(e)
            wts.append(1.0 / 21.0)
    for i in range(3):
        for j in range(i + 1, 3):
            for si in (1.0, -1.0):
                for sj in (1.0, -1.0):
                    e = np.zeros(3)
                    e[i], e[j] = si, sj
                    pts.append(e / np.sqrt(2.0))
                    wts.append(4.0 / 105.0)
    for sx in (1.0, -1.0):
        for sy in (1.0, -1.0):
            for sz in (1.0, -1.0):
                pts.append(np.array([sx, sy, sz]) / np.sqrt(3.0))
                wts.append(9.0 / 280.0)
    return np.asarray(pts), np.asarray(wts)


_SPHERE_NODES, _SPHERE_WEIGHTS = _lebedev26()


def _sphere_mean(values: NDArray) -> float:
    return float(_SPHERE_WEIGHTS @ values)


def _mean_profile(fn, radii: NDArray) -> NDArray:
    """Spherical means of a pointwise function at each radius."""
    pts = radii[:, None, None] * _SPHERE_NODES[None, :, :]
    flat = pts.reshape(-1, 3)
    vals = fn(flat).reshape(len(radii), -1)
    return vals @ _SPHERE_WEIGHTS


def evaluate_at_origin_nonradial(
    data: CauchyData, t: float, form: str = "mean", panels_per_unit: float = 6.0
) -> float:
    """u(0, t) of the free wave from general data, by spherical means.

    mean form: u(0,t) = mean u₀ + τ mean(n·∇u₀) + t mean u₁ over |y| = τ = |t|.
    laplacian form: u(0,t) = ∫_τ^∞ ρ mean(-Δu₀) dρ - t ∫_τ^∞ mean(n·∇u₁) dρ,
    which only needs decay of the data, not smoothness at radius τ.
    Angular quadrature is the 26-node octahedral sphere rule (degree 7);
    radial integrals use composite 8-node panels out to the support radius,
    erroring out if the integrand has not decayed there.
    """
    general = as_general(data) if data.symmetry == "radial" else data
    u0, u1 = general.u0, general.u1
    tau = abs(float(t))

    if form == "mean":
        pts = tau * _SPHERE_NODES
        m0 = _sphere_mean(u0(pts))
        mg = _sphere_mean(np.sum(u0.gradient(pts) * _SPHERE_NODES, axis=1))
        m1 = _sphere_mean(u1(pts))
        return m0 + tau * mg + float(t) * m1

    if form != "laplacian":
        raise ValueError(f"unknown form {form!r}")

    outer = max(u0.support_radius, u1.support_radius)
    if tau >= outer:
        raise ExtentError(f"insufficient grid extent: |t| = {tau:g} beyond support {outer:g}")
    n_panels = max(24, int(np.ceil((outer - tau) * panels_per_unit)))
    edges = np.linspace(tau, outer, n_panels + 1)
    mid = (edges[1:] + edges[:-1]) / 2
    half = (edges[1:] - edges[:-1]) / 2
    radii = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    weights = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()

    lap = _mean_profile(lambda p: -u0.laplace(p), radii)
    slope = _mean_profile(
        lambda p: np.sum(
            u1.gradient(p) * (p / np.maximum(row_norm(p), 1e-300)[:, None]),
            axis=1,
        ),
        radii,
    )
    value = float(weights @ (radii * lap)) - float(t) * float(weights @ slope)

    tail = (abs(radii[-1] * lap[-1]) + abs(t) * abs(slope[-1])) * outer
    if tail > 1e-6 * (1.0 + abs(value)):
        raise ExtentError(
            f"unresolved tail in spherical-means integral: estimate {tail:.3e} at radius {outer:g}"
        )
    return value


def as_general(data: CauchyData) -> CauchyData:
    """Wrap radial data as 3D fields backed by splines (zero beyond the grid)."""
    if data.symmetry == "general":
        return data
    if data.u1.origin_moment != 0.0:
        raise ValueError("cannot lift a velocity with a 1/r pole to a 3D field")
    r_max = data.grid.r_max

    def lift(field: RadialField) -> Field3D:
        s = cubic_spline(field.grid.nodes, field.values)
        d1, d2 = s.derivative(), s.derivative(2)
        origin = 3 * d2(0.0)

        def fn(pts):
            rho = row_norm(pts)
            return np.where(rho <= r_max, s(np.minimum(rho, r_max)), 0.0)

        def grad(pts):
            pts = np.atleast_2d(pts)
            rho = row_norm(pts)
            scale = np.where(
                (rho > 1e-12) & (rho <= r_max),
                d1(np.minimum(rho, r_max)) / np.maximum(rho, 1e-12),
                0.0,
            )
            return pts * scale[:, None]

        def lap(pts):
            rho = row_norm(pts)
            clipped = np.minimum(rho, r_max)
            inner = d2(clipped) + 2 * d1(clipped) / np.maximum(rho, 1e-12)
            out = np.where(rho > 1e-12, inner, origin)
            return np.where(rho <= r_max, out, 0.0)

        return Field3D(fn=fn, grad=grad, laplacian=lap, support_radius=r_max)

    return CauchyData(lift(data.u0), lift(data.u1))


def local_envelope(data: CauchyData, T: float) -> tuple:
    """Range certain to contain u on |t| ≤ T:
    [inf u₀ - T(‖u₁‖_∞ + ‖∇u₀‖_∞), sup u₀ + T(‖u₁‖_∞ + ‖∇u₀‖_∞)].
    """
    tau = abs(float(T))
    if data.symmetry == "radial":
        if data.u1.origin_moment != 0.0:
            raise ValueError("velocity samples unbounded: 1/r pole at the origin")
        u0 = data.u0.values
        slope = float(
            np.max(np.abs(np.gradient(u0, data.grid.nodes, edge_order=2)))
        )
        speed = data.u1.sup_norm() + slope
        lo, hi = float(np.min(u0)), float(np.max(u0))
    else:
        L = max(data.u0.support_radius, data.u1.support_radius)
        pts = cube_points(np.linspace(-L, L, 17))
        v0 = data.u0(pts)
        g0 = row_norm(data.u0.gradient(pts))
        v1 = np.abs(data.u1(pts))
        if not (np.all(np.isfinite(v0)) and np.all(np.isfinite(g0)) and np.all(np.isfinite(v1))):
            raise ValueError("unbounded samples in envelope scan")
        speed = float(np.max(v1) + np.max(g0))
        lo, hi = float(np.min(v0)), float(np.max(v0))
    return (lo - tau * speed, hi + tau * speed)
