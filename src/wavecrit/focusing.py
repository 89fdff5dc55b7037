"""Focusing power equation: radial Duhamel kernel and monotone iteration.

The solution map is iterated in its integral form on an (r, t) lattice:
u^{n+1} = free wave of the data plus the time integral of the sine kernel
applied to |u^n|^N u^n.  The kernel is positivity-preserving, so for data
whose free wave stays nonnegative the iterates increase monotonically and
their limit solves the equation wherever it is finite.  Nodes crossing a
divergence cap are masked "presumed infinite" and absorb their forward
light cone; the limit object remains meaningful as a weak solution.

The module also carries the two stationary profiles (bounded ground state
and singular power-law), the quartic energy functional, the comparison
integrals around the ground state, the two-sided dispersion/blow-up probe,
and the static supersolution test.
"""

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

import numpy as np
from numpy.typing import NDArray
from scipy.optimize import brentq

from .criteria import (
    Verdict,
    _case_terms,
    _dominance,
    _laplacian_fn,
    _levels,
    _outgoing_verdict,
    _verdict,
)
from .errors import (
    AdmissibilityError,
    ConfigError,
    ExtentError,
    GridError,
    SolitonError,
)
from .freewave import CauchyData, FreePropagator
from .radial import RadialField, RadialGrid, differentiate, line_integral

__all__ = [
    "IterationState",
    "Soliton",
    "blowup_window_probe",
    "crossing_radii",
    "duhamel_apply",
    "energy_focusing",
    "kenig_merle_quantities",
    "monotone_iterate",
    "soliton",
    "supersolution_check",
]

DEFAULT_CAP = 1.0e6


# ---------------------------------------------------------------------------
# stationary profiles


@dataclass(frozen=True)
class Soliton:
    """Static positive solution: -ΔS = S^{N+1}.

    kind "ground" is the bounded quartic profile with S(0) = 1; kind
    "singular" is the power-law profile amplitude·r^{-2/N}.  laplacian is
    closed-form via the defining equation.
    """

    kind: str
    N: float
    amplitude: float

    def __call__(self, r) -> NDArray:
        r = np.asarray(r, dtype=float)
        if self.kind == "ground":
            return (1.0 + r * r / 3.0) ** -0.5
        return self.amplitude * r ** (-2.0 / self.N)

    def derivative(self, r) -> NDArray:
        r = np.asarray(r, dtype=float)
        if self.kind == "ground":
            return -(r / 3.0) * (1.0 + r * r / 3.0) ** -1.5
        return (-2.0 / self.N) * self.amplitude * r ** (-2.0 / self.N - 1.0)

    def laplacian(self, r) -> NDArray:
        return -self(r) ** (self.N + 1.0)

    def outgoing_moment(self, r) -> NDArray:
        """r (S_r + S/r) = (r S)', finite at the origin for the ground kind."""
        r = np.asarray(r, dtype=float)
        if self.kind == "ground":
            return (1.0 + r * r / 3.0) ** -1.5
        return (1.0 - 2.0 / self.N) * self.amplitude * r ** (-2.0 / self.N)


def soliton(kind: str, N: float) -> Soliton:
    """Stationary profile of the requested family and power."""
    if kind == "ground":
        if N != 4:
            raise SolitonError("the bounded profile solves the quartic case only", N=N)
        return Soliton("ground", 4.0, 1.0)
    if kind == "singular":
        if N <= 2:
            raise SolitonError(
                "no positive power-law profile at or below power 2", N=N
            )
        amplitude = (2.0 * (N - 2.0) / N**2) ** (1.0 / N)
        return Soliton("singular", float(N), amplitude)
    raise ConfigError(f"unknown soliton kind {kind!r}")


def crossing_radii(N: int = 4) -> Tuple[float, float]:
    """Radii where the singular profile crosses the ground profile."""
    if N != 4:
        raise ConfigError("crossing radii compare the quartic profiles", N=N)
    ground, singular = soliton("ground", 4), soliton("singular", 4)

    def gap(r: float) -> float:
        return float(singular(r) - ground(r))

    lo = brentq(gap, 1e-3, 2.0, xtol=1e-14)
    hi = brentq(gap, 3.0, 30.0, xtol=1e-14)
    return float(lo), float(hi)


# ---------------------------------------------------------------------------
# lattice Duhamel map

def _uniform_spacing(grid: RadialGrid) -> float:
    gaps = np.diff(grid.nodes)
    h = float(gaps[0])
    if np.max(np.abs(gaps - h)) > 1e-9 * h:
        raise GridError("the spacetime lattice needs a uniform radial grid")
    return h


def _lattice_times(grid: RadialGrid, horizon: float) -> NDArray:
    if horizon <= 0:
        raise ConfigError("horizon must be positive", horizon=horizon)
    if horizon > grid.r_max:
        raise ExtentError(
            "lattice horizon exceeds the resolved radius",
            horizon=horizon,
            r_max=grid.r_max,
        )
    h = _uniform_spacing(grid)
    n_t = int(np.ceil(horizon / h - 1e-9)) + 1
    return h * np.arange(n_t)


def _free_lattice(data: CauchyData, times: NDArray) -> NDArray:
    return FreePropagator(data).at(data.grid.nodes[:, None], times[None, :])


def _power_source(values: NDArray, exponent: float, cap: float) -> NDArray:
    u = np.clip(values, -cap, cap)
    return np.sign(u) * np.abs(u) ** (exponent + 1.0)


def _strided(a: NDArray, start: int, shape: Tuple[int, ...], steps: Tuple[int, ...]) -> NDArray:
    # view of a's buffer from element start, steps counted in elements;
    # numpy refuses any view that reaches outside the buffer
    offset = start * a.itemsize if min(shape) > 0 else 0
    return np.ndarray(shape, a.dtype, a, offset, [k * a.itemsize for k in steps])


# Positive quadrature weights for j uniform intervals: trapezoid (j=1),
# composite Simpson (even j), Simpson plus a 3/8 block (odd j >= 3).
# Positivity of every weight is what transfers kernel positivity to the
# iteration.


def _lattice_map(nodes: NDArray, n_t: int) -> Callable[[NDArray, NDArray, float, float], NDArray]:
    """free, source ↦ free + ∫₀^t kernel[|source|^N source](s) ds on the lattice.

    With the time step equal to the node spacing, both kernel limits land
    exactly on nodes: out[i, j] = free[i, j] + dt/(2 r_i) Σ_{m<j} w_j[m]
    (M̃[i+j-m, m] - M̃[i-j+m, m]), M̃ the cumulative moment of slice m,
    reflected at the origin and frozen at the top node in one padded buffer.
    The terms stay on the anti-diagonal k = i + j and the diagonal d = i - j,
    and the origin row sums g = r f along anti-diagonals: strided views,
    summed time-major.  Read from the left, the Simpson weights are s_m =
    1/3, 4/3, 2/3, 4/3, ... whatever j is, so with Q[p] = Σ_{m<p} s_m E[m]:
    S[1] = E[0]/2, S[j] = Q[j] for even j, and S[j] = Q[j-3] + c E[j-3] +
    9/8 (E[j-2] + E[j-1]) for odd j >= 3, c = 3/8 at j = 3, 1/3 + 3/8 beyond.
    Each call rewrites all it reads, so one map serves every iterate.
    """
    n_r = nodes.size
    off, K = n_t - 1, n_r + n_t - 1
    w, one = n_t + 2 * K, n_t  # workspace width; row of M̃[1, ·] in P and of g[1, ·] in G
    dt = nodes[1] - nodes[0]
    scale = dt * (0.5 / nodes[1:, None])
    s = np.where(np.arange(n_t - 1) % 2, 4.0 / 3.0, 2.0 / 3.0)[:, None]
    s[:1] = 1.0 / 3.0
    c = np.where(np.arange(3, n_t, 2) == 3, 3.0 / 8.0, 17.0 / 24.0)
    P = np.zeros((off + K, n_t))  # M̃[x, m] in row off + x, x = -off .. K - 1
    G = np.zeros((off + n_r, n_t))  # g[x, m] in row off + x, zero below the origin
    W = np.zeros((n_t, w))  # time-major columns: origin k, anti-diagonal k, diagonal d + off
    families = [
        (_strided(G, off * n_t, (n_t - 1, n_t), (1 - n_t, n_t)), W[1:, :n_t]),  # g[k - m, m]
        (_strided(P, off * n_t, (n_t - 1, K), (1 - n_t, n_t)), W[1:, n_t:n_t + K]),  # M̃[k - m, m]
        (_strided(P, 0, (n_t - 1, K), (n_t + 1, n_t)), W[1:, n_t + K:]),  # M̃[d + m, m]
    ]
    rows = [(W[p - 1], W[p]) for p in range(2, n_t)]
    # S[j] at (i, j) on the origin, k and d; Q[j-3], E[j-b] there for odd j >= 3
    reads, odd = [], []
    for start, step, width, lag in (
        (w + 1, w + 1, 1, lambda b: G[one + b - 1:one + b]),
        (w + n_t + 2, w + 1, n_r - 1, lambda b: P[one + b:one + n_r - 1 + b]),
        (w + n_t + K + off, w - 1, n_r - 1, lambda b: P[one - b:one + n_r - 1 - b]),
    ):
        reads.append(_strided(W, start, (width, n_t - 1), (1, step)))
        if n_t > 3:
            Q = _strided(W, start + 2 * step - 3 * w, (width, c.size), (1, 2 * step))
            odd.append((reads[-1][:, 2::2], Q, *(lag(b)[:, 3 - b:n_t - b:2] for b in (3, 2, 1))))
    origin, A, B = reads

    def apply(free: NDArray, source: NDArray, exponent: float, cap: float) -> NDArray:
        g, M = G[off:], P[one:off + n_r]
        np.multiply(nodes[:, None], _power_source(source, exponent, cap), out=g)
        np.cumsum(0.5 * (g[1:] + g[:-1]) * dt, axis=0, out=M)
        P[:off] = P[2 * off:off:-1]
        P[off + n_r:] = P[off + n_r - 1]
        for E, sums in families:
            np.multiply(E, s, out=sums)
        for prev, row in rows:
            np.add(prev, row, out=row)
        for E, sums in families:
            np.multiply(E[:1], 0.5, out=sums[:1])
        for S, Q, e3, e2, e1 in odd:
            S[...] = Q + c * e3 + 9.0 / 8.0 * (e2 + e1)
        out = free.copy()
        out[1:, 1:] += scale * (A - B)
        out[0, 1:] += dt * origin[0]
        return out

    return apply


def _duhamel_lattice(
    free: NDArray, source: NDArray, nodes: NDArray, exponent: float, cap: float
) -> NDArray:
    return _lattice_map(nodes, source.shape[1])(free, source, exponent, cap)


def _infected_mask(mask: NDArray) -> NDArray:
    # forward light cone of every masked node, one node per time step: (q, m)
    # reaches (i, j) exactly when q − m ≥ i − j and q + m ≤ i + j (the cones
    # clip at the end nodes, never reflect), so the least q + m of the masked
    # nodes on diagonals i − j and above decides node (i, j)
    q, m = np.nonzero(mask)
    if not q.size:
        return mask.copy()
    n_r, n_t = mask.shape
    least = np.full(n_r + n_t - 1, n_r + n_t)  # above every i + j
    np.minimum.at(least, q - m + n_t - 1, q + m)
    least = np.minimum.accumulate(least[::-1])[::-1]
    i, j = np.arange(n_r)[:, None], np.arange(n_t)
    return least[i - j + n_t - 1] <= i + j


def duhamel_apply(
    data: CauchyData, source: NDArray, exponent: float, cap: float = np.inf
) -> NDArray:
    """One application of the lattice Duhamel map to a source lattice.

    The source columns are read at times j·spacing; the result has the same
    shape.  Substituting a static solution for the source must return that
    solution up to quadrature error, which is the fixed-point diagnostic.
    """
    if data.symmetry != "radial":
        raise ConfigError("the lattice map is radial only")
    nodes = data.grid.nodes
    source = np.asarray(source, dtype=float)
    if source.ndim != 2 or source.shape[0] != nodes.size:
        raise ConfigError(
            "source lattice must be nodes x times", shape=source.shape
        )
    _uniform_spacing(data.grid)
    if source.shape[1] > nodes.size:
        raise ExtentError("more time columns than nodes", shape=source.shape)
    times = data.grid.spacing * np.arange(source.shape[1])
    return _duhamel_lattice(_free_lattice(data, times), source, nodes, exponent, cap)


# ---------------------------------------------------------------------------
# monotone iteration


@dataclass
class IterationState:
    """Lattice iterate with its predecessor, divergence mask, and trace; case
    is the sampled verdict of criteria's case table, not a certified one."""

    n: int
    radii: NDArray
    times: NDArray
    u_n: NDArray
    monotone_floor: NDArray
    divergence_mask: NDArray
    trusted: NDArray
    converged: bool
    case: str
    validity: str
    cap: float
    trace: List[dict] = field(default_factory=list)
    history: Optional[List[NDArray]] = None

    @property
    def live(self) -> NDArray:
        """Trusted, finite, unmasked lattice nodes."""
        return self.trusted & ~self.divergence_mask & np.isfinite(self.u_n)

    def sup_profile(self) -> NDArray:
        """Per-time sup of |u_n| over live nodes (nan where none)."""
        sups = np.max(np.where(self.live, np.abs(self.u_n), -np.inf), axis=0)
        return np.where(sups > -np.inf, sups, np.nan)

    @property
    def diverged_fraction(self) -> float:
        trusted_count = max(int(np.sum(self.trusted)), 1)
        return float(np.sum(self.divergence_mask & self.trusted) / trusted_count)


def _admissibility_case(data: CauchyData) -> Tuple[str, str]:
    """First positivity case the data meet, as (tag, validity window): the
    sampled verdict of criteria's case table, tried in the order ii, iv (no
    velocity pole), then for u₀ ≥ 0 i (an expanding outgoing pair) or iii."""

    def meets(case: str, sides=None) -> bool:
        sides = _case_terms(data, case) if sides is None else sides
        return _verdict(case, _dominance(*sides), _levels(data), strict=False, bounds={}).holds

    ii = _case_terms(data, "ii")  # also the orientation test of case i
    if meets("ii", ii):
        return "ii", "all t"
    if data.u1.origin_moment == 0.0 and meets("iv"):
        return "iv", "all t"
    if meets("i"):
        if _outgoing_verdict(data, ii).bounds["orientation"] == "expanding":
            return "i", "t >= 0"
        if meets("iii"):
            return "iii", "t >= 0"
    raise AdmissibilityError(
        "monotonicity not guaranteed: data satisfy none of the positivity cases"
    )


def monotone_iterate(
    data: CauchyData,
    N: float,
    horizon: float,
    cap: float = DEFAULT_CAP,
    tol: float = 1e-8,
    n_max: int = 200,
    keep_history: bool = False,
) -> IterationState:
    """Iterate the Duhamel map from the free wave until the lattice settles.

    Monotone growth of the iterates is guaranteed for even N >= 0 and data
    passing one of the positivity cases; other N are accepted for
    experimentation (source sign(u)|u|^{N+1}) without that guarantee.  The
    state's case is the sampled verdict of criteria's case table, tried in
    the order ii, iv, i, iii; data meeting none raise AdmissibilityError.
    Nodes whose value crosses the cap are masked presumed-infinite and
    absorb their forward light cone.
    """
    if data.symmetry != "radial":
        raise ConfigError("the lattice map is radial only")
    if N < 0:
        raise ConfigError("the source power must be nonnegative", N=N)
    if cap <= 0:
        raise ConfigError("cap must be positive", cap=cap)
    case, validity = _admissibility_case(data)
    nodes = data.grid.nodes
    times = _lattice_times(data.grid, horizon)
    trusted = nodes[:, None] + times[None, :] <= data.grid.r_max + 1e-9

    free = _free_lattice(data, times)
    u = free.copy()
    mask = _infected_mask(np.abs(u) > cap)
    u[mask] = np.inf
    floor = u.copy()
    trace: List[dict] = []
    history = [u.copy()] if keep_history else None

    apply = _lattice_map(nodes, times.size)
    n_trusted = max(int(np.sum(trusted)), 1)
    converged = False
    n = 0
    for n in range(1, n_max + 1):
        new_u = apply(free, u, N, cap)
        over = np.abs(new_u) > cap
        # the mask is cone-closed, so only a node newly over the cap can grow it
        new_mask = _infected_mask(mask | over) if np.any(over & ~mask) else mask
        new_u[new_mask] = np.inf
        live = trusted & ~new_mask  # the new mask holds the old one
        change = np.subtract(new_u, u, out=np.zeros_like(u), where=live)
        sup_change = float(np.max(np.abs(change)))
        floor, u, mask = u, new_u, new_mask
        fraction = float(np.sum(mask & trusted) / n_trusted)
        trace.append({"n": n, "sup_change": sup_change, "diverged_fraction": fraction})
        if history is not None:
            history.append(u.copy())
        if sup_change < tol:
            converged = True
            break

    return IterationState(
        n=n,
        radii=nodes,
        times=times,
        u_n=u,
        monotone_floor=floor,
        divergence_mask=mask,
        trusted=trusted,
        converged=converged,
        case=case,
        validity=validity,
        cap=cap,
        trace=trace,
        history=history,
    )


# ---------------------------------------------------------------------------
# energy and comparison integrals


def energy_focusing(u: RadialField, u_t: RadialField, full_output: bool = False):
    """Quartic-case energy: ∫ (u_t² + |∇u|²)/2 − u⁶/6.

    The velocity enters through its moment, so a 1/r pole is integrated
    exactly; the position must be smooth.  Tails are corrected by the
    fitted power law of the last decade.
    """
    if not np.array_equal(u.grid.nodes, u_t.grid.nodes):
        raise GridError("energy needs both fields on one grid")
    nodes = u.grid.nodes
    mom = u_t.moment()
    flux = nodes * differentiate(u).values
    integrand = 0.5 * (mom * mom + flux * flux) - nodes * nodes * u.values**6 / 6.0
    value, info = line_integral(u.grid, integrand, tail="power", full_output=True)
    return (float(value), info) if full_output else float(value)


def kenig_merle_quantities(N: int = 4, grid: Optional[RadialGrid] = None) -> dict:
    """Comparison integrals around the ground state, with ε-expansion.

    All integrands are closed-form in the ground profile; the variations of
    E[(1+ε)·ground] at ε = 0 are the exact derivatives of the energy
    polynomial K((1+ε)²/2 − (1+ε)⁶/6), with K the squared gradient norm:
    K(1 − 1) = 0 and K(1 − 5) = −4K.
    """
    if N != 4:
        raise ConfigError("comparison integrals are specific to the quartic case", N=N)
    if grid is None:
        grid = RadialGrid.graded(1.0e4, 6001, power=3.0)
    r = grid.nodes
    q = (1.0 + r * r / 3.0) ** -0.5
    qr = np.zeros_like(r)
    qr[1:] = -(r[1:] / 3.0) * (1.0 + r[1:] * r[1:] / 3.0) ** -1.5
    m = (1.0 + r * r / 3.0) ** -1.5  # (r q)'

    grad_sq = float(line_integral(grid, (r * qr) ** 2, tail="power"))
    velocity_sq = float(line_integral(grid, m * m, tail="power"))
    virial = float(line_integral(grid, 2.0 * qr * q * r + q * q, tail="power"))
    sixth = float(line_integral(grid, q**6 * r * r, tail="power"))

    energy_ground = 0.5 * grad_sq - sixth / 6.0
    energy_pole_velocity = 0.5 * velocity_sq

    return {
        "grad_norm_sq": grad_sq,
        "half_grad_norm_sq": 0.5 * grad_sq,
        "velocity_norm_sq": velocity_sq,
        "virial_integral": virial,
        "sixth_power": sixth,
        "energy_ground": energy_ground,
        "energy_pole_velocity": energy_pole_velocity,
        "energy_ratio": energy_pole_velocity / energy_ground,
        "first_variation": 0.0,
        "second_variation": -4.0 * grad_sq,
    }


# ---------------------------------------------------------------------------
# dispersion/blow-up window probe


def _zero_field(grid: RadialGrid) -> RadialField:
    return RadialField(grid, np.zeros(grid.n))


def _scaled_velocity_data(grid: RadialGrid, scale: float) -> CauchyData:
    # (0, scale*(S_r + S/r)) for the ground profile: pole velocity with
    # moment scale*(rS)'
    moment = scale * soliton("ground", 4).outgoing_moment(grid.nodes)
    return CauchyData(_zero_field(grid), RadialField.from_moment(grid, moment))


def _scaled_profile_data(grid: RadialGrid, scale: float) -> CauchyData:
    ground = soliton("ground", 4)
    u0 = RadialField(grid, scale * ground(grid.nodes))
    return CauchyData(u0, _zero_field(grid))


def blowup_window_probe(
    epsilon: float,
    direction: str,
    horizon: float = 10.0,
    grid: Optional[RadialGrid] = None,
    cap: float = DEFAULT_CAP,
) -> dict:
    """Two-sided sharpness probe around the ground-state threshold.

    minus: data (0, (1-ε)(S_r + S/r)) sit strictly inside the dispersive
    condition; the report carries the lattice sup series, the pointwise
    domination margin under the ground profile, and the reference-solver
    sup trend.  plus: the growth condition needs the derivative combination
    of the position slot to exceed (1+ε)(S_r + S/r), so the probe data are
    ((1+ε)S, 0), which satisfy it with equality; the report carries the
    reference-solver threshold-crossing time and the iteration's divergence
    trace.
    """
    if not 0.0 < epsilon <= 0.5:
        raise ConfigError("epsilon must lie in (0, 0.5]", epsilon=epsilon)
    if direction not in ("plus", "minus"):
        raise ConfigError(f"unknown direction {direction!r}")
    from .oracle import fd_solve

    if grid is None:
        n = int(round((horizon + 4.0) / 0.05)) + 1
        grid = RadialGrid.uniform(horizon + 4.0, n)
    ground = soliton("ground", 4)
    report = {
        "direction": direction,
        "epsilon": float(epsilon),
        "horizon": float(horizon),
        "cap": float(cap),
    }

    if direction == "minus":
        data = _scaled_velocity_data(grid, 1.0 - epsilon)
        state = monotone_iterate(data, 4, horizon, cap=cap, tol=1e-6, n_max=80)
        live = state.live
        sup_lattice = float(np.max(np.abs(state.u_n[live])))
        envelope = ground(state.radii)[:, None]
        domination = float(np.min((envelope - np.abs(state.u_n))[live]))
        sups = state.sup_profile()
        run = fd_solve(
            data,
            ("power", 4, 1),
            horizon,
            h=grid.spacing / 2.0,
            threshold=cap,
            snapshot_times=np.linspace(0.0, horizon, 21),
        )
        fd_sups = np.array([float(np.max(np.abs(s))) for s in run.snapshots])
        report.update(
            {
                "data": "(0, (1-eps) * outgoing derivative of the ground profile)",
                "iteration": {
                    "n": state.n,
                    "converged": state.converged,
                    "case": state.case,
                    "diverged_fraction": state.diverged_fraction,
                },
                "sup_lattice": sup_lattice,
                "domination_margin": domination,
                "sup_series": {
                    "times": state.times.tolist(),
                    "values": np.nan_to_num(sups, nan=0.0).tolist(),
                },
                "fd_status": run.status,
                "fd_sup_series": {
                    "times": run.snapshot_times.tolist(),
                    "values": fd_sups.tolist(),
                },
                "bounded": bool(run.status == "completed" and sup_lattice < np.inf),
                "decay_trend": bool(fd_sups[-1] < 0.5 * np.max(fd_sups)),
            }
        )
        return report

    data = _scaled_profile_data(grid, 1.0 + epsilon)
    run = fd_solve(
        data,
        ("power", 4, 1),
        horizon,
        h=min(grid.spacing / 2.0, 0.025),
        threshold=1000.0,
    )
    state = monotone_iterate(data, 4, horizon, cap=cap, tol=1e-6, n_max=25)
    first_diverged = next(
        (t["n"] for t in state.trace if t["diverged_fraction"] > 0), None
    )
    report.update(
        {
            "data": "((1+eps) * ground profile, 0)",
            "fd_status": run.status,
            "cap_crossing_time": run.t_detect,
            "iteration": {
                "n": state.n,
                "case": state.case,
                "diverged_fraction": state.diverged_fraction,
                "first_diverged_iterate": first_diverged,
            },
        }
    )
    return report


# ---------------------------------------------------------------------------
# static supersolution test


def supersolution_check(
    u0: RadialField, N: float, laplacian: Optional[RadialField] = None
) -> Verdict:
    """-Δu₀ ≥ u₀^{N+1} and u₀ ≥ 0 at every node.

    Pass the Laplacian when it is known in closed form; otherwise it is
    spline-differentiated from u₀, which carries discretization noise on
    exact-equality profiles.  A profile singular at the origin enters
    capped there (duplicate the first positive node in both fields): the
    origin check then repeats that node's inequality.
    """
    nodes = u0.grid.nodes
    vals = u0.values
    if laplacian is not None:
        if not np.array_equal(laplacian.grid.nodes, nodes):
            raise GridError("laplacian must live on the data grid")
        lap = laplacian.values
        source = "supplied"
    else:
        lap = _laplacian_fn(u0)(nodes)
        source = "spline"
    power = np.sign(vals) * np.abs(vals) ** (N + 1.0)
    gaps = np.minimum(-lap - power, vals)
    i = int(np.argmin(gaps))
    margin = float(gaps[i])
    return Verdict(
        criterion="supersolution_check",
        holds=bool(margin >= 0.0),
        margin=margin,
        witness=(float(nodes[i]), margin),
        strict=False,
        bounds={
            "domination": "|u(t)| <= u0 for data (u0, 0)",
            "laplacian_source": source,
        },
    )
