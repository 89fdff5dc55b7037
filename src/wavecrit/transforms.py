"""Integrating-factor profiles: F, F', F⁻¹, endpoint ranges, data transport.

For a scalar nonlinearity f the profile is

    F(t) = ∫₀^t exp(-∫₀^s f(σ) dσ) ds,

strictly increasing with F(0) = 0, mapping ℝ onto the interval (a, b) with
a = F(-∞), b = F(+∞); each endpoint may be finite or infinite and all four
combinations occur (f ≡ 1 gives (-∞, 1), f ≡ -1 gives (-1, +∞), f(u) = u
gives (-√(π/2), +√(π/2)), f(u) = -u or sin or -arctan give (-∞, +∞)).
Substituting v = F(u) linearizes the quadratic null-form equation, so data
move between pictures by v₀ = F(u₀), v₁ = F'(u₀) u₁ and back by F⁻¹.

The builtin weights const (f ≡ c) and linear (f(u) = ku, k > 0) have closed
forms: F = -expm1(-cu)/c (F = u for c = 0) and F = √(π/2k)·erf(u√(k/2)), with
exact endpoints, inverses and endpoint gaps (b - F)/F' and (F - a)/F'.  Every
other f is numeric: the inner integral is cached on a dense grid with 8-node
Gauss-Legendre panels, endpoints are classified by integrating to a cutoff
and fitting the integrand tail (exponential first, then power law), and F⁻¹
runs vectorized Newton on the tabulated spline.  A profile is immutable
after construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.typing import NDArray
from scipy.interpolate import PPoly
from scipy.optimize import brentq
from scipy.special import erf, erfcx, erfinv

from .errors import InvertibilityError
from .freewave import CauchyData
from .radial import Field3D, RadialField, _power_tail, cubic_spline, panel_cumulative

__all__ = [
    "EndpointClassification",
    "NonlinearityProfile",
    "build_profile",
    "push_forward",
    "pull_back",
    "nonradial_laplacian_push",
    "builtin_nonlinearity",
    "BUILTIN_NONLINEARITIES",
]

# exp(-g) overflows past g < -700; crop the tabulated range there
_LOG_CAP = 700.0
_DECAY_TINY = 1e-12


@dataclass(frozen=True)
class EndpointClassification:
    """Finite/infinite decision for each end of ran F, with numeric values.

    confidence is "resolved" when the caller supplied the endpoint or the
    profile is a closed form; the classification of a table is always
    "heuristic" because finiteness of an improper integral is not decidable
    from samples.
    """

    minus_infinity: str
    plus_infinity: str
    a: float
    b: float
    confidence: str

    def __post_init__(self):
        for side, value in ((self.minus_infinity, self.a), (self.plus_infinity, self.b)):
            if side not in ("finite", "infinite"):
                raise ValueError(f"unknown endpoint tag {side!r}")
            if (side == "finite") == np.isinf(value):
                raise ValueError("endpoint tag inconsistent with numeric value")

    @property
    def case(self) -> str:
        tags = (self.minus_infinity, self.plus_infinity)
        return {
            ("infinite", "finite"): "upper_finite",
            ("finite", "infinite"): "lower_finite",
            ("finite", "finite"): "both_finite",
            ("infinite", "infinite"): "both_infinite",
        }[tags]


class NonlinearityProfile:
    """F and its companions for one nonlinearity f.

    Attributes: f, a, b, classification, name, working_range (the
    t-interval of the profile; evaluation outside it raises).  F, F_prime,
    F_second, F_inverse, upper_gap and lower_gap are vectorized callables;
    F' = exp(-g) with g(t) = ∫₀^t f.  build_profile returns the closed form
    for the builtin weights const and linear (k > 0) and a table for every
    other f; each subclass gives _F (F on checked arrays) and _invert (F⁻¹
    of values inside (a, b)), and may replace the gaps' subtraction.
    """

    def __init__(self, f, g, classification: EndpointClassification, working_range, name):
        self.f = f
        self.name = name
        self.classification = classification
        self.a = classification.a
        self.b = classification.b
        self._g = g
        self.working_range = (float(working_range[0]), float(working_range[1]))

    def _check_range(self, x: NDArray) -> NDArray:
        x = np.asarray(x, dtype=float)
        lo, hi = self.working_range
        if np.any(x < lo) or np.any(x > hi):
            raise ValueError(
                f"argument outside the working range [{lo:g}, {hi:g}] of profile {self.name!r}"
            )
        return x

    def _F_prime(self, x: NDArray) -> NDArray:
        return np.exp(-self._g(x))

    def F(self, x):
        return _like(x, self._F(self._check_range(x)))

    def F_prime(self, x):
        return _like(x, self._F_prime(self._check_range(x)))

    def F_second(self, x):
        x = self._check_range(x)
        return _like(x, -np.asarray(self.f(x)) * self._F_prime(x))

    def F_inverse(self, y, rtol: float = 1e-12):
        scalar = np.ndim(y) == 0
        y = np.atleast_1d(np.asarray(y, dtype=float))
        bad = (y <= self.a) | (y >= self.b) | ~np.isfinite(y)
        if np.any(bad):
            k = int(np.argmax(bad))
            raise InvertibilityError(
                f"outside invertibility range ({self.a:g}, {self.b:g}): value {y[k]:g} at index {k}",
                witness_index=k,
                witness_value=float(y[k]),
            )
        x = self._invert(y, rtol)
        return float(x[0]) if scalar else x

    def upper_gap(self, x):
        """(b - F(x))/F'(x), the room left below b in units of the slope."""
        return _like(x, self._upper_gap(self._check_range(x)))

    def lower_gap(self, x):
        """(F(x) - a)/F'(x), the room left above a in units of the slope."""
        return _like(x, self._lower_gap(self._check_range(x)))

    def _upper_gap(self, x: NDArray) -> NDArray:
        return (self.b - self._F(x)) / self._F_prime(x)

    def _lower_gap(self, x: NDArray) -> NDArray:
        return (self._F(x) - self.a) / self._F_prime(x)


def _like(x, out):
    """out as a float when x is a scalar."""
    return float(out) if np.ndim(x) == 0 else out


class _TabulatedProfile(NonlinearityProfile):
    """F as a cubic spline of its table on the abscissae ts, g as the spline
    of the inner integral; F⁻¹ by vectorized Newton on the spline."""

    def __init__(self, f, ts: NDArray, g: PPoly, f_table: NDArray, classification, name):
        super().__init__(f, g, classification, (ts[0], ts[-1]), name)
        self._ts = ts
        self._F = cubic_spline(ts, f_table)
        self._Fp = self._F.derivative()
        self._F_table = f_table
        # strictly increasing up to saturation: increments near a finite
        # endpoint fall below double resolution and may tie, never decrease
        if np.any(np.diff(f_table) < 0):
            raise ValueError("quadrature failure: tabulated F is not monotone")

    def _invert(self, y: NDArray, rtol: float) -> NDArray:
        lo, hi = self.working_range
        yc = np.clip(y, self._F_table[0], self._F_table[-1])
        x = np.interp(yc, self._F_table, self._ts)
        # an element stops once it meets rtol, so its digits do not depend
        # on the other elements of the call
        moving = np.ones(y.shape, dtype=bool)
        for _ in range(6):
            res = self._F(x) - y
            moving &= np.abs(res) > rtol * (1.0 + np.abs(y))
            if not np.any(moving):
                break
            x = np.where(moving, np.clip(x - res / np.maximum(self._Fp(x), 1e-300), lo, hi), x)
        res = np.abs(self._F(x) - y)
        stubborn = res > rtol * (1.0 + np.abs(y))
        for k in np.nonzero(stubborn)[0]:
            x[k] = brentq(lambda s: self._F(s) - y[k], lo, hi, xtol=1e-14)
        return x


@dataclass(frozen=True)
class _ClosedForm:
    """g, F, F⁻¹, the endpoints and the gap on each finite side of one
    weight, as exact formulas; an infinite side has no gap (None)."""

    g: Callable[[NDArray], NDArray]
    F: Callable[[NDArray], NDArray]
    inverse: Callable[[NDArray], NDArray]
    a: float
    b: float
    upper_gap: Optional[Callable[[NDArray], NDArray]] = None
    lower_gap: Optional[Callable[[NDArray], NDArray]] = None


def _closed_form(f) -> Optional[_ClosedForm]:
    """The exact profile of the builtin const(c) and linear(k > 0) weights,
    read from the (name, param) that builtin_nonlinearity records on f;
    None for every other f."""
    name, p = getattr(f, "builtin", (None, None))
    if name == "const" and p == 0.0:
        return _ClosedForm(np.zeros_like, lambda t: 1.0 * t, lambda y: 1.0 * y, -np.inf, np.inf)
    if name == "const":
        gap = lambda t: np.full_like(t, 1.0 / abs(p))
        return _ClosedForm(
            lambda t: p * t,
            lambda t: -np.expm1(-p * t) / p,
            lambda y: -np.log1p(-p * y) / p,
            *((-np.inf, 1.0 / p, gap, None) if p > 0.0 else (1.0 / p, np.inf, None, gap)),
        )
    if name == "linear" and p > 0.0:
        s, half = math.sqrt(0.5 * p), math.sqrt(0.5 * math.pi / p)
        return _ClosedForm(
            lambda t: 0.5 * p * t * t,
            lambda t: half * erf(s * t),
            lambda y: erfinv(y / half) / s,
            -half,
            half,
            upper_gap=lambda t: half * erfcx(s * t),
            lower_gap=lambda t: half * erfcx(-s * t),
        )
    return None


class _ClosedFormProfile(NonlinearityProfile):
    """A profile whose F, F⁻¹ and gaps are exact formulas; a gap keeps the
    subtraction when an endpoints override moved its endpoint."""

    def __init__(self, f, form: _ClosedForm, classification, working_range, name):
        super().__init__(f, form.g, classification, working_range, name)
        self._F = form.F
        self._inverse = form.inverse
        self._reach = form.F(np.array(self.working_range))  # F at the ends of the range
        if form.upper_gap is not None and self.b == form.b:
            self._upper_gap = form.upper_gap
        if form.lower_gap is not None and self.a == form.a:
            self._lower_gap = form.lower_gap

    def _invert(self, y: NDArray, rtol: float) -> NDArray:
        if np.any(y < self._reach[0]) or np.any(y > self._reach[1]):
            raise ValueError(f"value beyond F of the working range of profile {self.name!r}")
        return np.clip(self._inverse(y), *self.working_range)


def _classify_side(ts: NDArray, w: NDArray, slope_end: float, cropped: bool):
    """Remainder of ∫ w beyond ts[-1] along one direction, or None if divergent.

    ts are distances from 0 (increasing), w the integrand samples along the
    direction, slope_end = d(-log w)/d|t| at the end.  Tries the exponential
    tail model first, then a power-law fit over the last decade.
    """
    if cropped:
        return None
    w_end = float(w[-1])
    if w_end < _DECAY_TINY and slope_end > 1e-8:
        return w_end / slope_end
    start = int(np.searchsorted(ts, ts[-1] / 10.0))
    start = min(max(start, 1), ts.size - 4)
    corr, p = _power_tail(ts[start:], w[start:])
    if corr != 0.0:
        return float(corr)
    return None


def _crop(g: NDArray) -> Tuple[int, bool]:
    """Length of one side of the working range and whether it was cut by
    overflow: a side stops where exp(-g) would overflow (that side is then
    surely infinite) or underflow to exact zero (a table would go flat and
    non-monotone)."""
    over = np.nonzero(g < -_LOG_CAP)[0]
    under = np.nonzero(g > _LOG_CAP)[0]
    if over.size and (not under.size or over[0] <= under[0]):
        return int(over[0]), True
    if under.size:
        return int(under[0]), False
    return g.size, False


def build_profile(
    f: Callable[[NDArray], NDArray],
    t_cut: float = 50.0,
    samples_per_unit: int = 64,
    endpoints: Optional[Tuple[Optional[float], Optional[float]]] = None,
    name: str = "custom",
) -> NonlinearityProfile:
    """The profile of f and its endpoint interval (a, b).

    The working range is a dense grid on [-t_cut, t_cut], each side stopping
    early where exp(-g) would overflow or underflow.  The builtin weights
    const (every c) and linear (k > 0) get their closed forms, with exact
    endpoints marked "resolved".  For every other f the inner integral
    g(t) = ∫₀^t f is accumulated on that grid with 8-node panels, F is
    tabulated from it, and the endpoints get a heuristic classification
    from the integrand tail at |t| = t_cut.  Passing endpoints=(a, b)
    (either entry may be None) overrides the matching side and marks the
    classification "resolved".
    """
    fa = _as_array_fn(f)
    form = _closed_form(f)
    n_right = max(8, int(round(t_cut * samples_per_unit)))
    ts_right = np.linspace(0.0, t_cut, n_right + 1)
    ts_left = -ts_right
    inner = (lambda ts: panel_cumulative(fa, ts)) if form is None else form.g
    try:
        g_right = inner(ts_right)
        g_left = inner(ts_left)
    except Exception as exc:
        raise ValueError(f"nonlinearity not evaluable on the working range: {exc}") from exc
    if not (np.all(np.isfinite(g_right)) and np.all(np.isfinite(g_left))):
        raise ValueError("nonlinearity produced non-finite inner integral")

    end_r, overflow_r = _crop(g_right)
    end_l, overflow_l = _crop(g_left)
    if end_r < 9 or end_l < 9:
        raise ValueError("integrand overflows too close to 0; rescale the nonlinearity")
    ts_right, g_right = ts_right[:end_r], g_right[:end_r]
    ts_left, g_left = ts_left[:end_l], g_left[:end_l]

    if form is None:
        ts = np.concatenate([ts_left[::-1][:-1], ts_right])
        g_values = np.concatenate([g_left[::-1][:-1], g_right])
        g_spline = cubic_spline(ts, g_values)
        f_table = panel_cumulative(lambda s: np.exp(-g_spline(s)), ts_right)
        f_table_left = panel_cumulative(lambda s: np.exp(-g_spline(s)), ts_left)
        full_table = np.concatenate([f_table_left[::-1][:-1], f_table])

        rem_b = _classify_side(
            ts_right, np.exp(-g_right), float(fa(ts_right[-1:])[0]), cropped=overflow_r
        )
        rem_a = _classify_side(
            -ts_left, np.exp(-g_left), -float(fa(ts_left[-1:])[0]), cropped=overflow_l
        )
        b = np.inf if rem_b is None else float(f_table[-1] + rem_b)
        a = -np.inf if rem_a is None else float(f_table_left[-1] - rem_a)
        confidence = "heuristic"
    else:
        a, b, confidence = form.a, form.b, "resolved"
    if endpoints is not None:
        user_a, user_b = endpoints
        if user_a is not None:
            a = float(user_a)
        if user_b is not None:
            b = float(user_b)
        confidence = "resolved"
    classification = EndpointClassification(
        minus_infinity="finite" if np.isfinite(a) else "infinite",
        plus_infinity="finite" if np.isfinite(b) else "infinite",
        a=a,
        b=b,
        confidence=confidence,
    )
    if form is None:
        return _TabulatedProfile(f, ts, g_spline, full_table, classification, name)
    return _ClosedFormProfile(f, form, classification, (ts_left[-1], ts_right[-1]), name)


def _as_array_fn(f: Callable) -> Callable[[NDArray], NDArray]:
    def fn(x):
        return np.asarray(f(np.asarray(x, dtype=float)), dtype=float)

    return fn


def _builtin(name: str, f: Callable, param: Optional[float] = None):
    """f as an array function that records (name, param) for build_profile."""
    fn = _as_array_fn(f)
    fn.builtin = (name, param)
    return fn


BUILTIN_NONLINEARITIES = {
    "const": lambda c=1.0: _builtin("const", lambda u: np.full_like(u, float(c)), float(c)),
    "linear": lambda k=1.0: _builtin("linear", lambda u: float(k) * u, float(k)),
    "sin": lambda: _builtin("sin", np.sin),
    "neg_arctan": lambda: _builtin("neg_arctan", lambda u: -np.arctan(u)),
}


def builtin_nonlinearity(name: str, param: Optional[float] = None):
    """Named nonlinearity for config files: const(c), linear(k), sin, neg_arctan."""
    if name not in BUILTIN_NONLINEARITIES:
        raise KeyError(f"unknown nonlinearity {name!r}; builtins: {sorted(BUILTIN_NONLINEARITIES)}")
    factory = BUILTIN_NONLINEARITIES[name]
    return factory() if param is None else factory(param)


def _oriented(profile: NonlinearityProfile, orientation: str):
    """(map, velocity sign) for the chosen picture of v.

    canonical: v = F(u).  exp: v = b - F(u), the decreasing picture
    (equal to e^{-u} when f ≡ 1); requires finite b.
    """
    if orientation == "canonical":
        return (lambda x: profile.F(x)), 1.0
    if orientation == "exp":
        if not np.isfinite(profile.b):
            raise ValueError("exp orientation needs a finite upper endpoint")
        return (lambda x: profile.b - profile.F(x)), -1.0
    raise ValueError(f"unknown orientation {orientation!r}")


def push_forward(
    data: CauchyData, profile: NonlinearityProfile, orientation: str = "canonical"
) -> CauchyData:
    """Transport data to the transformed picture: v₀ = F(u₀), v₁ = F'(u₀)u₁."""
    vmap, sign = _oriented(profile, orientation)
    if data.symmetry == "radial":
        u0, u1 = data.u0, data.u1
        v0 = RadialField(u0.grid, vmap(u0.values), parity="even")
        fp = profile.F_prime(u0.values)
        v1 = RadialField(
            u0.grid,
            sign * fp * u1.values,
            parity=u1.parity,
            origin_moment=sign * float(fp[0]) * u1.origin_moment,
        )
        return CauchyData(v0, v1)

    u0, u1 = data.u0, data.u1

    def v0_fn(p):
        return vmap(u0(p))

    def v0_grad(p):
        return sign * profile.F_prime(u0(p))[:, None] * u0.gradient(p)

    def v0_lap(p):
        vals = u0(p)
        grads = u0.gradient(p)
        return sign * (
            profile.F_prime(vals) * u0.laplace(p)
            + profile.F_second(vals) * np.sum(grads**2, axis=1)
        )

    def v1_fn(p):
        return sign * profile.F_prime(u0(p)) * u1(p)

    def v1_grad(p):
        vals = u0(p)
        return sign * (
            profile.F_prime(vals)[:, None] * u1.gradient(p)
            + (profile.F_second(vals) * u1(p))[:, None] * u0.gradient(p)
        )

    return CauchyData(
        Field3D(fn=v0_fn, grad=v0_grad, laplacian=v0_lap, support_radius=u0.support_radius),
        Field3D(fn=v1_fn, grad=v1_grad, support_radius=u1.support_radius),
    )


def pull_back(
    v: Union[NDArray, float, RadialField, CauchyData],
    profile: NonlinearityProfile,
    orientation: str = "canonical",
):
    """Invert the transport pointwise: u = F⁻¹(v) (or F⁻¹(b - v) for exp).

    Values at or beyond an endpoint raise InvertibilityError with the
    witness node.  CauchyData also recovers u₁ = v₁ / F'(u₀).
    """
    _, sign = _oriented(profile, orientation)

    def invert(values):
        y = values if orientation == "canonical" else profile.b - np.asarray(values)
        return profile.F_inverse(y)

    if isinstance(v, CauchyData):
        if v.symmetry != "radial":
            raise ValueError("pull_back of general data is not supported; pull fields")
        u0_vals = invert(v.u0.values)
        fp = profile.F_prime(u0_vals)
        u0 = RadialField(v.u0.grid, u0_vals, parity="even")
        u1 = RadialField(
            v.u0.grid,
            sign * v.u1.values / fp,
            parity=v.u1.parity,
            origin_moment=sign * v.u1.origin_moment / float(fp[0]),
        )
        return CauchyData(u0, u1)
    if isinstance(v, RadialField):
        return RadialField(v.grid, invert(v.values), parity=v.parity)
    return invert(np.asarray(v, dtype=float))


def nonradial_laplacian_push(data: CauchyData, profile: NonlinearityProfile):
    """(Δv₀, ∇v₁) of the pushed picture from general data.

    Δv₀ = F'(u₀)Δu₀ + F''(u₀)|∇u₀|² as a Field3D; ∇v₁ = F'(u₀)∇u₁ +
    F''(u₀)u₁∇u₀ as a callable of points returning vectors.
    """
    if data.symmetry != "general":
        raise ValueError("laplacian push expects general (3D) data")
    pushed = push_forward(data, profile)
    lap_field = Field3D(
        fn=lambda p: pushed.u0.laplace(p),
        support_radius=data.u0.support_radius,
    )
    return lap_field, pushed.u1.gradient
