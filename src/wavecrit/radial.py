"""Radial grids, sampled fields, and weighted quadrature on ℝ³.

Everything downstream works with radial profiles f(r) sampled on a grid
0 = r₀ < r₁ < ... < r_{n-1} = r_max and integrated against the volume
measure, ∫_{ℝ³} f dx = 4π ∫₀^∞ f(r) r² dr.  This module provides

* RadialGrid / RadialField: immutable containers with parity metadata
  (even profiles have f'(0) = 0, odd profiles vanish at the origin) and
  an optional origin moment lim_{r→0} r f(r) for fields with a 1/r pole;
  RadialField.moment() and RadialField.from_moment() convert between a
  field and its moment r f(r), detecting the pole from the origin value,
* differentiate: second order, parity-aware at r = 0, one-sided at the
  outer end,
* integrate_radial / line_integral: composite Simpson (order 4) with a
  last-decade tail report and an optional power-law tail correction for
  slowly decaying integrands,
* kato_norm: sup_y ∫ |f(x)| / |x-y| dx, exact shell formula for radial
  fields, one single-precision FFT convolution over a sample cube for
  sampled 3D fields, in a workspace each thread reuses,
* row_norm / cube_points: |x| of each row of a point array, and the n³
  points of a cube,
* panel_cumulative / cubic_spline / spline_laplacian: cumulative
  Gauss-Legendre integrals, the not-a-knot cubic spline every module builds,
  and the one Laplacian of a radial spline,
* inverse_laplacian_radial: u with -Δu = g and u → 0 at infinity,
* CSV / JSON serialization for fields.

Pure functions over immutable inputs; nothing here mutates a field.
"""

from __future__ import annotations

import csv
import json
import threading
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray
from scipy.fft import dctn, fft, ifft, irfft, rfft
from scipy.integrate import cumulative_trapezoid, quad, simpson
from scipy.interpolate import PPoly
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dgtsv

from .errors import ExtentError, GridError, KatoClassError

__all__ = [
    "RadialGrid",
    "RadialField",
    "Field3D",
    "TailInfo",
    "KatoNormResult",
    "differentiate",
    "integrate_radial",
    "line_integral",
    "kato_norm",
    "inverse_laplacian_radial",
    "field_to_csv",
    "field_from_csv",
    "field_to_json",
    "field_from_json",
]

TAIL_TOLERANCE = 1e-6
# central-difference step of a Field3D without grad or laplacian
_FD_STEP = 1e-4


def _validate_nodes(nodes: NDArray) -> None:
    if nodes.ndim != 1 or nodes.size < 8:
        raise GridError("grid too coarse: need at least 8 nodes")
    if nodes[0] != 0.0:
        raise GridError("grid must start at r = 0")
    if not np.all(np.diff(nodes) > 0):
        raise GridError("grid nodes must be strictly increasing")
    if not np.all(np.isfinite(nodes)):
        raise GridError("grid nodes must be finite")


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radial nodes with nodes[0] = 0."""

    nodes: NDArray
    grading: str = "uniform"

    def __post_init__(self):
        nodes = np.asarray(self.nodes, dtype=float)
        _validate_nodes(nodes)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)

    @classmethod
    def uniform(cls, r_max: float, n: int) -> "RadialGrid":
        return cls(np.linspace(0.0, float(r_max), int(n)), grading="uniform")

    @classmethod
    def graded(cls, r_max: float, n: int, power: float = 3.0) -> "RadialGrid":
        """Power-graded nodes r_i = r_max (i/(n-1))^power, denser near 0."""
        s = np.linspace(0.0, 1.0, int(n))
        return cls(float(r_max) * s ** float(power), grading="graded")

    @property
    def n(self) -> int:
        return self.nodes.size

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def spacing(self) -> float:
        """Largest node gap (the resolution bound used in error estimates)."""
        return float(np.max(np.diff(self.nodes)))

    def midpoints(self) -> NDArray:
        return 0.5 * (self.nodes[1:] + self.nodes[:-1])

    def refined(self) -> "RadialGrid":
        """Grid with midpoints inserted (resolution doubled)."""
        merged = np.empty(2 * self.n - 1)
        merged[0::2] = self.nodes
        merged[1::2] = self.midpoints()
        return RadialGrid(merged, grading=self.grading)


@dataclass(frozen=True)
class RadialField:
    """Profile samples on a RadialGrid.

    parity
        "even" or "odd" reflection behaviour through r = 0; controls the
        one-sided derivative at the origin.
    origin_moment
        lim_{r→0} r f(r).  Zero for every regular field; nonzero only for
        fields with a 1/r pole at the origin (for example the outgoing
        velocity Q_r + Q/r), whose node-0 sample is a finite placeholder.
        Consumers that need r f(r) must call moment().
    """

    grid: RadialGrid
    values: NDArray
    parity: str = "even"
    origin_moment: float = 0.0

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != self.grid.nodes.shape:
            raise GridError("field values do not match grid shape")
        if not np.all(np.isfinite(values)):
            raise GridError("field values must be finite at all nodes")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if self.parity not in ("even", "odd", "none"):
            raise ValueError(f"unknown parity {self.parity!r}")

    @classmethod
    def from_callable(
        cls,
        grid: RadialGrid,
        fn: Callable[[NDArray], NDArray],
        parity: str = "even",
        origin_moment: float = 0.0,
    ) -> "RadialField":
        """Sample fn on the grid; for pole fields node 0 gets the r₁ sample."""
        r = grid.nodes
        if origin_moment != 0.0:
            values = np.empty_like(r)
            values[1:] = fn(r[1:])
            values[0] = values[1]
        else:
            values = np.asarray(fn(r), dtype=float)
        return cls(grid, values, parity=parity, origin_moment=origin_moment)

    @classmethod
    def from_moment(cls, grid: RadialGrid, moment: NDArray) -> "RadialField":
        """Even field with r f(r) = moment; inverse of moment().

        A nonzero moment[0] (beyond 1e-12 of the largest moment) is a 1/r
        pole: it becomes origin_moment and node 0 gets the r₁ sample.
        Otherwise f(0) is the slope of the odd moment at the origin.
        """
        r = grid.nodes
        moment = np.asarray(moment, dtype=float)
        values = np.empty_like(moment)
        values[1:] = moment[1:] / r[1:]
        scale = float(np.max(np.abs(moment))) or 1.0
        if abs(moment[0]) > 1e-12 * scale:
            values[0] = values[1]
            return cls(grid, values, origin_moment=float(moment[0]))
        values[0] = _odd_origin_slope(r, moment)
        return cls(grid, values)

    def moment(self) -> NDArray:
        """r f(r) with the exact origin limit at node 0."""
        m = self.grid.nodes * self.values
        m[0] = self.origin_moment
        return m

    def with_values(self, values: NDArray) -> "RadialField":
        return replace(self, values=np.asarray(values, dtype=float), origin_moment=0.0)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class Field3D:
    """Scalar field on ℝ³ given by callables on point arrays of shape (N, 3).

    grad and laplacian may be omitted; central differences with step 1e-4
    fill in.  support_radius bounds the region where the field is
    numerically nonnegligible and sizes the quadrature cubes.  The cubes
    pass column-major, read-only (N, 3) views of a reused buffer, which a
    callable must not keep; axis-1 sums and norms of them round as on
    row-major input, BLAS-backed reductions (p @ w, einsum) may not.
    """

    fn: Callable[[NDArray], NDArray]
    grad: Optional[Callable[[NDArray], NDArray]] = None
    laplacian: Optional[Callable[[NDArray], NDArray]] = None
    support_radius: float = 8.0

    def __call__(self, points: NDArray) -> NDArray:
        return np.asarray(self.fn(np.atleast_2d(points)), dtype=float)

    def gradient(self, points: NDArray) -> NDArray:
        points = np.atleast_2d(points)
        if self.grad is not None:
            return np.asarray(self.grad(points), dtype=float)
        h = _FD_STEP
        out = np.empty_like(points)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            out[:, k] = (self.fn(points + e) - self.fn(points - e)) / (2 * h)
        return out

    def laplace(self, points: NDArray) -> NDArray:
        points = np.atleast_2d(points)
        if self.laplacian is not None:
            return np.asarray(self.laplacian(points), dtype=float)
        h = _FD_STEP
        center = self.fn(points)
        acc = np.zeros(points.shape[0])
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            acc += self.fn(points + e) + self.fn(points - e) - 2 * center
        return acc / h**2


def _odd_origin_slope(r: NDArray, y: NDArray) -> float:
    """y'(0) of an odd profile from its first two nodes by the reflected
    elimination (y₁ h₂³ - y₂ h₁³)/(h₁ h₂ (h₂² - h₁²))."""
    h1, h2 = r[1], r[2]
    return (y[1] * h2**3 - y[2] * h1**3) / (h1 * h2 * (h2**2 - h1**2))


def differentiate(f: RadialField) -> RadialField:
    """Second-order derivative on the grid; parity decides the r = 0 value.

    Even profiles get f'(0) = 0 exactly; odd profiles use the reflected
    two-node elimination of _odd_origin_slope.
    The outer end is one-sided second order.  Parity flips under d/dr.
    """
    if f.grid.n < 4:
        raise GridError("grid too coarse for differentiation")
    r, y = f.grid.nodes, f.values
    d = np.gradient(y, r, edge_order=2)
    if f.origin_moment == 0.0:
        if f.parity == "even":
            d[0] = 0.0
        elif f.parity == "odd":
            d[0] = _odd_origin_slope(r, y)
    flipped = {"even": "odd", "odd": "even", "none": "none"}
    return RadialField(f.grid, d, parity=flipped[f.parity])


@dataclass(frozen=True)
class TailInfo:
    """Diagnostics for the outer decade [r_max/10, r_max] of an integral."""

    last_decade_fraction: float
    resolved: bool
    correction: float = 0.0
    exponent: Optional[float] = None


def _power_tail(r: NDArray, g: NDArray) -> tuple[float, Optional[float]]:
    """Fit g ~ A r^(-p) over the samples and return (∫_{r[-1]}^∞, p).

    Requires a consistent sign and |g| decreasing with p > 1; otherwise
    returns (0.0, None) so callers fall back to the flag-only behaviour.
    """
    sign = np.sign(g[np.argmax(np.abs(g))])
    gs = sign * g
    good = gs > 0
    if good.sum() < 4:
        return 0.0, None
    x, y = np.log(r[good]), np.log(gs[good])
    slope, intercept = np.polyfit(x, y, 1)
    p = -slope
    if p <= 1.05:
        return 0.0, p
    g_end = np.exp(intercept + slope * np.log(r[-1]))
    return float(sign * g_end * r[-1] / (p - 1.0)), float(p)


def integrate_radial(f: RadialField, tail: str = "flag", full_output: bool = False):
    """4π ∫₀^{r_max} f(r) r² dr.

    tail="flag" only reports the last-decade contribution (resolved means
    it is below 1e-6 of the total); tail="power" additionally fits a power
    law over the last decade and adds the analytic remainder, for fields
    such as the ground soliton that decay only like 1/r.

    Returns a float, or (float, TailInfo) when full_output is true.
    """
    return line_integral(f.grid, f.values * f.grid.nodes**2, tail, full_output)


def line_integral(grid: RadialGrid, integrand: NDArray, tail: str = "flag",
                  full_output: bool = False):
    """4π ∫ g dr for a premultiplied integrand g (already includes r²).

    Needed for products like f₁ f₂ r² where the factors separately carry a
    1/r pole and cannot be represented as RadialFields.
    """
    r, g = grid.nodes, np.asarray(integrand, dtype=float)
    total = float(simpson(g, x=r))
    start = int(np.searchsorted(r, r[-1] / 10.0))
    start = min(max(start, 0), r.size - 4)
    tail_part = float(simpson(g[start:], x=r[start:]))
    with np.errstate(divide="ignore", invalid="ignore"):
        fraction = abs(tail_part) / abs(total) if total != 0.0 else np.inf
    correction, exponent = 0.0, None
    if tail == "power":
        correction, exponent = _power_tail(r[start:], g[start:])
    elif tail != "flag":
        raise ValueError(f"unknown tail mode {tail!r}")
    resolved = bool(fraction <= TAIL_TOLERANCE or correction != 0.0)
    value = (total + correction) * (4.0 * np.pi)
    info = TailInfo(float(fraction), resolved, 4.0 * np.pi * correction, exponent)
    return (value, info) if full_output else value


@dataclass(frozen=True)
class KatoNormResult:
    """sup_y ∫ |f(x)|/|x-y| dx with the maximizing center.  For a sampled
    3D field the value comes from a single-precision transform: within 2e-6
    of the float64 transform of the same cube, far inside the cube's own
    discretization error (about 1% at n_side = 41)."""

    value: float
    center: NDArray
    resolved: bool
    tail_fraction: float


def _kato_radial(f: RadialField) -> KatoNormResult:
    r, a = f.grid.nodes, np.abs(f.values)
    # Divergence heuristic: the centered integrand is |f| r; if it fails to
    # decay faster than 1/r over the last decade the defining integral has a
    # divergent tail.
    start = int(np.searchsorted(r, r[-1] / 10.0))
    start = min(max(start, 1), r.size - 4)
    g_tail = (a * r)[start:]
    corr, p = _power_tail(r[start:], g_tail) if np.max(g_tail) > 0 else (0.0, None)
    if p is not None and p <= 1.0:
        raise KatoClassError("not in Kato class: tail of |f| r does not decay")
    if p is None and g_tail[-1] >= g_tail[0] > 0:
        raise KatoClassError("not in Kato class: tail of |f| r grows")
    # Origin heuristic: |f| r must not blow up like r^{-q}, q ≥ 1, as r → 0.
    g_head = (a * r)[1:7]
    if np.all(g_head > 0) and f.origin_moment == 0.0:
        slope = np.polyfit(np.log(r[1:7]), np.log(g_head), 1)[0]
        if slope <= -0.95 and g_head[0] > 10.0 * np.max(g_tail + 1e-300):
            raise KatoClassError("not in Kato class: |f| r diverges at the origin")
    total = float(simpson(a * r, x=r))
    k0 = 4.0 * np.pi * total
    # Newton shell sweep: k(y) = 4π [ (1/y)∫₀^y |f| s² ds + ∫_y^R |f| s ds ].
    c2 = cumulative_trapezoid(a * r**2, r, initial=0.0)
    c1 = cumulative_trapezoid(a * r, r, initial=0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        k_sweep = 4.0 * np.pi * (c2[1:] / r[1:] + (c1[-1] - c1[1:]))
    best = int(np.argmax(k_sweep))
    value, center = k0, np.zeros(3)
    if k_sweep[best] > k0:  # cannot happen in exact arithmetic; keep honest
        value, center = float(k_sweep[best]), np.array([r[best + 1], 0.0, 0.0])
    # Resolvedness: estimated remainder of ∫ |f| s ds beyond r_max, by power
    # fit over the last decade, falling back to the 1/s² bound g(R)·R (0
    # without tail mass).
    remainder = 0.0
    if total > 0:
        remainder = abs(corr) if corr != 0.0 else float(g_tail[-1] * r[-1])
    fraction = remainder / abs(total) if total != 0.0 else 0.0
    return KatoNormResult(value, center, bool(fraction <= 1e-6), float(fraction))


@lru_cache(maxsize=4)
def _cube_kernel_spectrum(n_side: int) -> NDArray:
    """Spectrum of the unit-spacing kernel 1/|m| on the (2n−2)³ periodic pad
    of an n³ cube, built in float64 and kept as float32 for the transform;
    m = 0 carries the average of 1/|x| over the ball of one cell's volume.
    The kernel is even in each axis, so its spectrum is real and offsets
    ±(n−1), which share one pad slot, do not alias."""
    m = np.arange(n_side, dtype=float) ** 2
    kernel = m[:, None, None] + m[None, :, None] + m[None, None, :]
    kernel[0, 0, 0] = 1.0
    np.sqrt(kernel, out=kernel)
    np.divide(1.0, kernel, out=kernel)
    kernel[0, 0, 0] = 2.0 * np.pi * (3.0 / (4.0 * np.pi)) ** (2.0 / 3.0)
    # The DCT-I of the octant m ≥ 0 is the DFT of its even periodic extension.
    octant = dctn(kernel, type=1)
    size = 2 * n_side - 2
    mirror = np.minimum(np.arange(size), size - np.arange(size))
    spectrum = octant[mirror][:, mirror].astype(np.float32)
    spectrum.flags.writeable = False
    return spectrum


_WORKSPACE = threading.local()


def _cube_workspace(n_side: int) -> tuple:
    """This thread's buffers for n_side cubes, made on first use and reused
    by every later cube of that size: the float64 sample points one
    coordinate after another, the float32 masses padded with zeros along the
    last axis, and the complex64 (2n−2, 2n−2, n) transform."""
    ws = getattr(_WORKSPACE, "cube", None)
    if ws is None or ws[0].shape[1] != n_side:
        size = 2 * n_side - 2
        ws = _WORKSPACE.cube = (
            np.empty((3,) + (n_side,) * 3),
            np.zeros((n_side, n_side, size), dtype=np.float32),
            np.empty((size, size, n_side), dtype=np.complex64),
        )
    return ws


def row_norm(p: NDArray) -> NDArray:
    """Euclidean norm of each row, the squares summed column by column from
    the left: on (N, 3) points bitwise np.linalg.norm(p, axis=1)."""
    p = np.atleast_2d(np.asarray(p, dtype=float))
    acc = p[:, 0] * p[:, 0]
    for k in range(1, p.shape[1]):
        acc += p[:, k] * p[:, k]
    return np.sqrt(acc, out=acc)


def cube_points(xs: NDArray, out: Optional[NDArray] = None) -> NDArray:
    """The n³ points (xs[i], xs[j], xs[k]) as rows i·n² + j·n + k of a
    read-only (N, 3) view with contiguous columns, written into out of shape
    (3, n, n, n) when given: per-coordinate work then reads unit strides."""
    if out is None:
        out = np.empty((3,) + (xs.size,) * 3)
    out[0] = xs[:, None, None]
    out[1] = xs[:, None]
    out[2] = xs
    pts = out.reshape(3, -1).T
    pts.flags.writeable = False
    return pts


def _cube_potential(masses: NDArray, spectrum: NDArray) -> NDArray:
    """Σ_x masses[x] K(x − c) at every cell c of an n³ cube of unit spacing,
    by one zero-padded real FFT convolution in single precision: K is
    1/|x − c| off the cell and the equivalent-ball average on it.  The
    masses (in [0, 1), so float32 holds them at any scale) are cast once
    into the pad; the result is the float32 potential.  Every cell is within
    2e-6 of the largest cell of a float64 transform (worst seen 6e-7, n ≤ 41)."""
    n = masses.shape[0]
    _, padded, t = _cube_workspace(n)
    padded[:, :, :n] = masses
    # Axis by axis and in place, so each axis is padded only when it is
    # transformed and cropped back to the cube as soon as it is inverted;
    # only the pad blocks need zeros again.
    t[:n, :n] = rfft(padded, axis=2)
    t[:n, n:] = 0.0
    t[n:] = 0.0
    fft(t[:n], axis=1, overwrite_x=True)
    fft(t, axis=0, overwrite_x=True)
    t *= spectrum
    ifft(t, axis=0, overwrite_x=True)
    ifft(t[:n], axis=1, overwrite_x=True)
    return irfft(t[:n, :n], n=2 * n - 2, axis=2)[:, :, :n]


def _kato_cube(f: Field3D, n_side: int) -> KatoNormResult:
    if not isinstance(n_side, (int, np.integer)) or n_side < 3:
        raise GridError(f"Kato cube needs an integer n_side >= 3, got {n_side!r}")
    # Built before the samples, so its temporaries never coexist with them.
    spectrum = _cube_kernel_spectrum(n_side)
    L = f.support_radius
    xs = np.linspace(-L, L, n_side)
    h = xs[1] - xs[0]
    pts = cube_points(xs, _cube_workspace(n_side)[0])
    samples = f(pts)
    bad = ~np.isfinite(samples)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise KatoClassError(
            f"not in Kato class: sample {samples[k]} at cell {tuple(pts[k].tolist())}",
            witness_point=pts[k].copy(),
            witness_value=float(samples[k]),
        )
    vals = np.abs(samples)
    with np.errstate(over="ignore"):
        vals *= h**3
    top = vals.max()
    if not np.isfinite(top):
        k = int(np.argmax(vals))
        raise KatoClassError(
            f"Kato norm beyond float64: mass |{samples[k]}| h³ at cell {tuple(pts[k].tolist())}",
            witness_point=pts[k].copy(),
            witness_value=float(samples[k]),
        )
    # Masses in units of 2^e ≥ the largest (exact), so no sum below overflows.
    e = int(np.frexp(top)[1])
    np.ldexp(vals, -e, out=vals)
    # |x| of every point, summed in row_norm's order (x² + y²) + z²
    sq = xs * xs
    radii = (sq[:, None, None] + sq[:, None]) + sq
    radii = np.sqrt(radii, out=radii).ravel()
    # Heuristic resolution check: outer shells that keep growing mean the
    # cube cuts the field off, whether or not the field is in the Kato class.
    edges = np.linspace(0.0, L, 6)
    shells = np.array([
        vals[(radii >= lo) & (radii < hi)].sum() for lo, hi in zip(edges, edges[1:])
    ])
    total = vals.sum()
    if shells[-1] > shells[-2] > shells[-3] > 0:
        with np.errstate(over="ignore"):
            shells = np.ldexp(shells, e)
        raise ExtentError(
            "Kato cube does not resolve the field: shell masses grow outward",
            shell_masses=shells,
            support_radius=L,
        )
    tail_fraction = float(shells[-1] / total) if total > 0 else 0.0
    del samples, radii  # the transforms need neither
    potential = _cube_potential(vals.reshape((n_side,) * 3), spectrum)
    # the argmax of the float32 cells is that of the cells over h: distinct
    # float32 values stay distinct in float64, and ties keep the first
    cell = np.unravel_index(int(np.argmax(potential)), potential.shape)
    center = xs[list(cell)]
    with np.errstate(over="ignore"):
        value = float(np.ldexp(float(potential[cell]) / h, e))
    if not np.isfinite(value):
        raise KatoClassError(
            f"Kato norm beyond float64 at cell {tuple(center.tolist())}",
            witness_point=center,
            witness_value=value,
        )
    return KatoNormResult(value, center, tail_fraction <= 0.05, tail_fraction)


def kato_norm(f, n_side: int = 41) -> KatoNormResult:
    """Kato norm sup_y ∫ |f(x)| / |x-y| dx.

    Radial fields use the exact Newton shell formula; the sweep over
    centers confirms that the origin maximizes (it always does for radial
    integrands).  Sampled 3D fields are sampled on the n_side³ cube
    [−L, L]³, L = support_radius (n_side an int ≥ 3, else GridError), and
    convolved with 1/|x| in one zero-padded FFT (Hockney & Eastwood 1988):
    the sup is taken over every cube cell, and each cell carries the average
    of 1/|x| over the ball of its own volume.  The transform runs in single
    precision on the masses divided by a power of two 2^e ≥ their maximum,
    which is exact, so it never overflows; the value is within 2e-6
    (relative) of a float64 transform of the same cube.  The points and the
    transform live in a workspace that every n_side cube on the calling
    thread reuses: fn gets a column-major, read-only (N, 3) view that it
    must not keep (rounding: see Field3D).  A non-finite sample, or a mass
    |f| h³ or a norm beyond float64, raises KatoClassError naming its cell;
    the first two before any sample is transformed.  When the mass in the
    outer shells of the cube still grows outward the cube is judged too
    small for the field (a heuristic, not a Kato-class test) and ExtentError
    is raised with the shell masses.
    """
    if isinstance(f, RadialField):
        return _kato_radial(f)
    if isinstance(f, Field3D):
        return _kato_cube(f, n_side)
    raise TypeError("kato_norm expects a RadialField or Field3D")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(8)


def panel_cumulative(fn: Callable[[NDArray], NDArray], xs: NDArray) -> NDArray:
    """Cumulative ∫_{xs[0]}^{xs[i]} fn, 8-point Gauss-Legendre per panel."""
    a, b = xs[:-1], xs[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * _GL_NODES[None, :]
    vals = fn(pts.ravel()).reshape(pts.shape)
    increments = half * (vals @ _GL_WEIGHTS)
    out = np.empty(xs.size)
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return out


def cubic_spline(x: NDArray, y: NDArray) -> PPoly:
    """Not-a-knot cubic spline through (x, y) (de Boor 1978, ch. IV).

    The coefficients are bit for bit those of scipy 1.17.1's not-a-knot
    ``CubicSpline`` on (x, y): the same tridiagonal system for the node slopes,
    solved by the same LAPACK ``dgtsv`` that ``solve_banded`` calls, and the
    same Hermite expressions in the same order.  It exists because
    ``CubicSpline`` spends about 200 µs per build on dispatch and input
    checks, two to six times the arithmetic itself on the 161-1601-node
    grids used here.  x must be 1-D, finite and strictly increasing with at least
    4 nodes, y finite and of the same length, and the node slopes must not
    overflow; otherwise ValueError.
    """
    x = np.array(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = x.size
    if x.ndim != 1 or n < 4 or y.shape != x.shape:
        raise ValueError("cubic_spline needs 1-D x and y of one length, at least 4 nodes")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("cubic_spline needs finite x and y")
    dx = x[1:] - x[:-1]
    if (dx <= 0).any():
        raise ValueError("cubic_spline needs strictly increasing x")
    slope = (y[1:] - y[:-1]) / dx
    # slopes s at the nodes: sub-, main and super-diagonal, right-hand side
    d0, d1 = x[2] - x[0], x[-1] - x[-3]
    dl, diag, du = np.empty(n - 1), np.empty(n), np.empty(n - 1)
    dl[:-1], dl[-1] = dx[1:], d1
    diag[0], diag[-1] = dx[1], dx[-2]
    diag[1:-1] = 2 * (dx[:-1] + dx[1:])
    du[0], du[1:] = d0, dx[:-1]
    b = np.empty((n, 1))
    b[1:-1, 0] = 3 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
    b[0, 0] = ((dx[0] + 2 * d0) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d0
    b[-1, 0] = (dx[-1] ** 2 * slope[-2] + (2 * d1 + dx[-1]) * dx[-2] * slope[-1]) / d1
    *_, s, info = dgtsv(dl, diag, du, b, 1, 1, 1, 1)
    if info != 0:
        raise LinAlgError(f"singular spline system (dgtsv info {info})")
    s = s[:, 0]
    if not np.isfinite(s).all():
        raise ValueError("cubic_spline: node slopes overflow")
    c = np.empty((4, n - 1))
    t = c[0]
    np.add(s[:-1], s[1:], out=t)
    t -= 2 * slope
    t /= dx
    np.subtract(slope, s[:-1], out=c[1])
    c[1] /= dx
    c[1] -= t
    t /= dx
    c[2] = s[:-1]
    c[3] = y[:-1]
    return PPoly.construct_fast(c, x)


def spline_laplacian(s: PPoly) -> Callable[[NDArray], NDArray]:
    """r ↦ Δ of the even radial profile s: s″ + 2s′/r, its limit 3s″(0) at
    r ≤ 1e-12, and 0 beyond the spline's last knot r_max."""
    d1, d2 = s.derivative(), s.derivative(2)
    r_max, origin = s.x[-1], 3 * d2(0.0)

    def lap(r: NDArray) -> NDArray:
        r = np.atleast_1d(np.asarray(r, dtype=float))
        clipped = np.minimum(r, r_max)
        inner = d2(clipped) + 2 * d1(clipped) / np.maximum(r, 1e-12)
        return np.where(r <= r_max, np.where(r > 1e-12, inner, origin), 0.0)

    return lap


def inverse_laplacian_radial(g: Callable[[NDArray], NDArray], grid: RadialGrid) -> RadialField:
    """Solve -Δu = g on ℝ³ for radial g ≥ 0 decaying at infinity.

    u(r) = (1/r) ∫₀^r s² g ds + ∫_r^∞ s g ds, with the second integral's
    [r_max, ∞) part evaluated by adaptive quadrature (fields that decay
    slowly need it to pin the absolute level of u).
    """
    r = grid.nodes
    inner = panel_cumulative(lambda s: s**2 * g(s), r)
    outer = panel_cumulative(lambda s: s * g(s), r)
    tail, _ = quad(lambda s: s * g(s), grid.r_max, np.inf, limit=200)
    values = np.empty_like(r)
    values[1:] = inner[1:] / r[1:] + (outer[-1] - outer[1:]) + tail
    values[0] = outer[-1] + tail
    return RadialField(grid, values, parity="even")


def field_to_csv(f: RadialField, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "value"])
        for r, v in zip(f.grid.nodes, f.values):
            writer.writerow([repr(float(r)), repr(float(v))])


def field_from_csv(path: str) -> RadialField:
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if [h.strip() for h in header[:2]] != ["r", "value"]:
            raise GridError("csv field file must have header r,value")
        for row in reader:
            if row:
                rows.append((float(row[0]), float(row[1])))
    if not rows:
        raise GridError("csv field file is empty")
    r = np.array([p[0] for p in rows])
    v = np.array([p[1] for p in rows])
    return RadialField(RadialGrid(r, grading="loaded"), v)


def field_to_json(f: RadialField) -> str:
    return json.dumps(
        {
            "grid": {"nodes": [float(x) for x in f.grid.nodes], "grading": f.grid.grading},
            "values": [float(x) for x in f.values],
            "parity": f.parity,
            "origin_moment": f.origin_moment,
        },
        sort_keys=True,
    )


def field_from_json(text: str) -> RadialField:
    doc = json.loads(text)
    grid = RadialGrid(np.array(doc["grid"]["nodes"], dtype=float),
                      grading=doc["grid"].get("grading", "loaded"))
    return RadialField(
        grid,
        np.array(doc["values"], dtype=float),
        parity=doc.get("parity", "even"),
        origin_moment=float(doc.get("origin_moment", 0.0)),
    )
