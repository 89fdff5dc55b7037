"""Integrating-factor profiles: F, F', F⁻¹, endpoint ranges, data transport.

For a scalar nonlinearity f the profile is

    F(t) = ∫₀^t exp(-∫₀^s f(σ) dσ) ds,

strictly increasing with F(0) = 0, mapping ℝ onto the interval (a, b) with
a = F(-∞), b = F(+∞); each endpoint may be finite or infinite and all four
combinations occur (f ≡ 1 gives (-∞, 1), f ≡ -1 gives (-1, +∞), f(u) = u
gives (-√(π/2), +√(π/2)), f(u) = -u or sin or -arctan give (-∞, +∞)).
Substituting v = F(u) linearizes the quadratic null-form equation, so data
move between pictures by v₀ = F(u₀), v₁ = F'(u₀) u₁ and back by F⁻¹.

Every weight gets the same NonlinearityProfile, which reads one form
record: g, F, F⁻¹, the endpoints a and b, and the endpoint gaps
(b - F)/F' and (F - a)/F' where an exact one exists.  The builtin weights
const (f ≡ c) and linear (f(u) = ku, k > 0) fill it with closed forms:
F = -expm1(-cu)/c (F = u for c = 0) and F = √(π/2k)·erf(u√(k/2)), with exact
endpoints, inverses and gaps.  Every other f fills it with a table: the
inner integral is cached on a dense grid with 8-node Gauss-Legendre panels,
endpoints are classified by integrating to a cutoff and fitting the
integrand tail (exponential first, then power law), F⁻¹ runs vectorized
Newton on the tabulated spline, and each gap is the subtraction.  A profile
is immutable after construction and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Tuple, Union

import numpy as np
from numpy.typing import NDArray
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
    "builtin_nonlinearity",
    "BUILTIN_NONLINEARITIES",
]

# exp(-g) overflows past g < -700; crop the tabulated range there
_LOG_CAP = 700.0
# the working range: t in [-_T_CUT, _T_CUT], _SAMPLES_PER_UNIT nodes per unit
_T_CUT = 50.0
_SAMPLES_PER_UNIT = 64
_DECAY_TINY = 1e-12


@dataclass(frozen=True)
class EndpointClassification:
    """Finite/infinite decision for each end of ran F, with numeric values.

    confidence is "resolved" exactly when the profile is a closed form, whose
    endpoints are exact; the classification of a table is always
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
    F' = exp(-g) with g(t) = ∫₀^t f.  Every profile reads one form record
    that build_profile fills: the closed form for the builtin weights const
    and linear (k > 0), a table for every other f.
    """

    def __init__(self, f, form: _Form, classification: EndpointClassification, working_range, name):
        self.f = f
        self.name = name
        self.classification = classification
        self.a = classification.a
        self.b = classification.b
        self._form = form
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
        return np.exp(-self._form.g(x))

    def F(self, x):
        return _like(x, self._form.F(self._check_range(x)))

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
        x = self._form.inverse(y, rtol)
        return float(x[0]) if scalar else x

    def upper_gap(self, x):
        """(b - F(x))/F'(x), the room left below b in units of the slope."""
        x, gap = self._check_range(x), self._form.upper_gap
        return _like(x, (self.b - self._form.F(x)) / self._F_prime(x) if gap is None else gap(x))

    def lower_gap(self, x):
        """(F(x) - a)/F'(x), the room left above a in units of the slope."""
        x, gap = self._check_range(x), self._form.lower_gap
        return _like(x, (self._form.F(x) - self.a) / self._F_prime(x) if gap is None else gap(x))


def _like(x, out):
    """out as a float when x is a scalar."""
    return float(out) if np.ndim(x) == 0 else out


@dataclass(frozen=True)
class _Form:
    """How a profile computes: g, F, F⁻¹ (of values inside (a, b), with a
    relative tolerance), the endpoints, and an exact gap on each side where
    one exists; a side without one (None) takes the subtraction."""

    g: Callable[[NDArray], NDArray]
    F: Callable[[NDArray], NDArray]
    inverse: Callable[[NDArray, float], NDArray]
    a: float
    b: float
    upper_gap: Optional[Callable[[NDArray], NDArray]] = None
    lower_gap: Optional[Callable[[NDArray], NDArray]] = None


def _closed_form(f) -> Optional[_Form]:
    """The exact form of the builtin const(c) and linear(k > 0) weights,
    read from the (name, param) that builtin_nonlinearity records on f;
    None for every other f.  The inverse is exact, so it ignores rtol;
    build_profile holds it to the working range."""
    name, p = getattr(f, "builtin", (None, None))
    if name == "const" and p == 0.0:
        return _Form(np.zeros_like, lambda t: 1.0 * t, lambda y, rtol: 1.0 * y, -np.inf, np.inf)
    if name == "const":
        gap = lambda t: np.full_like(t, 1.0 / abs(p))
        return _Form(
            lambda t: p * t,
            lambda t: -np.expm1(-p * t) / p,
            lambda y, rtol: -np.log1p(-p * y) / p,
            *((-np.inf, 1.0 / p, gap, None) if p > 0.0 else (1.0 / p, np.inf, None, gap)),
        )
    if name == "linear" and p > 0.0:
        s, half = math.sqrt(0.5 * p), math.sqrt(0.5 * math.pi / p)
        return _Form(
            lambda t: 0.5 * p * t * t,
            lambda t: half * erf(s * t),
            lambda y, rtol: erfinv(y / half) / s,
            -half,
            half,
            upper_gap=lambda t: half * erfcx(s * t),
            lower_gap=lambda t: half * erfcx(-s * t),
        )
    return None


def _held(form: _Form, working_range: Tuple[float, float], name: str) -> _Form:
    """form with its exact inverse held to the working range: a value beyond
    F of the range raises, and rounding cannot leave the range."""
    reach = form.F(np.array(working_range))

    def inverse(y: NDArray, rtol: float) -> NDArray:
        if np.any(y < reach[0]) or np.any(y > reach[1]):
            raise ValueError(f"value beyond F of the working range of profile {name!r}")
        return np.clip(form.inverse(y, rtol), *working_range)

    return replace(form, inverse=inverse)


def _table(fa, ts_left, g_left, cut_left, ts_right, g_right, cut_right) -> _Form:
    """The numeric form of f on the cropped sides of the working range: g
    and F as cubic splines of their tables, endpoints classified from the
    integrand tail, F⁻¹ by vectorized Newton on the spline."""
    ts = np.concatenate([ts_left[::-1][:-1], ts_right])
    g_spline = cubic_spline(ts, np.concatenate([g_left[::-1][:-1], g_right]))
    f_right = panel_cumulative(lambda s: np.exp(-g_spline(s)), ts_right)
    f_left = panel_cumulative(lambda s: np.exp(-g_spline(s)), ts_left)
    table = np.concatenate([f_left[::-1][:-1], f_right])

    rem_b = _classify_side(
        ts_right, np.exp(-g_right), float(fa(ts_right[-1:])[0]), cropped=cut_right
    )
    rem_a = _classify_side(
        -ts_left, np.exp(-g_left), -float(fa(ts_left[-1:])[0]), cropped=cut_left
    )
    b = np.inf if rem_b is None else float(f_right[-1] + rem_b)
    a = -np.inf if rem_a is None else float(f_left[-1] - rem_a)

    F = cubic_spline(ts, table)
    Fp = F.derivative()
    # strictly increasing up to saturation: increments near a finite
    # endpoint fall below double resolution and may tie, never decrease
    if np.any(np.diff(table) < 0):
        raise ValueError("quadrature failure: tabulated F is not monotone")
    lo, hi = ts[0], ts[-1]

    def inverse(y: NDArray, rtol: float) -> NDArray:
        x = np.interp(np.clip(y, table[0], table[-1]), table, ts)
        # an element stops once it meets rtol, so its digits do not depend
        # on the other elements of the call
        moving = np.ones(y.shape, dtype=bool)
        for _ in range(6):
            res = F(x) - y
            moving &= np.abs(res) > rtol * (1.0 + np.abs(y))
            if not np.any(moving):
                break
            x = np.where(moving, np.clip(x - res / np.maximum(Fp(x), 1e-300), lo, hi), x)
        stubborn = np.abs(F(x) - y) > rtol * (1.0 + np.abs(y))
        for k in np.nonzero(stubborn)[0]:
            x[k] = brentq(lambda s: F(s) - y[k], lo, hi, xtol=1e-14)
        return x

    return _Form(g_spline, F, inverse, a, b)


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


def build_profile(f: Callable[[NDArray], NDArray], name: str = "custom") -> NonlinearityProfile:
    """The profile of f and its endpoint interval (a, b).

    The working range is a dense grid on [-50, 50], 64 samples per unit,
    each side stopping early where exp(-g) would overflow or underflow.  The
    builtin weights const (every c) and linear (k > 0) get their closed
    forms, with exact endpoints marked "resolved".  For every other f the
    inner integral g(t) = ∫₀^t f is accumulated on that grid with 8-node
    panels, F is tabulated from it, and the endpoints get a heuristic
    classification from the integrand tail at the ends of the range.
    """
    fa = _as_array_fn(f)
    exact = _closed_form(f)
    ts_right = np.linspace(0.0, _T_CUT, int(_T_CUT * _SAMPLES_PER_UNIT) + 1)
    ts_left = -ts_right
    inner = (lambda ts: panel_cumulative(fa, ts)) if exact is None else exact.g
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
    working_range = (float(ts_left[-1]), float(ts_right[-1]))

    if exact is None:
        form = _table(fa, ts_left, g_left, overflow_l, ts_right, g_right, overflow_r)
    else:
        form = _held(exact, working_range, name)
    classification = EndpointClassification(
        minus_infinity="finite" if np.isfinite(form.a) else "infinite",
        plus_infinity="finite" if np.isfinite(form.b) else "infinite",
        a=form.a,
        b=form.b,
        confidence="heuristic" if exact is None else "resolved",
    )
    return NonlinearityProfile(f, form, classification, working_range, name)


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
    """(map, inverse, velocity sign) for the chosen picture of v.

    canonical: v = F(u).  exp: v = b - F(u), the decreasing picture
    (equal to e^{-u} when f ≡ 1); requires finite b.
    """
    if orientation == "canonical":
        return profile.F, profile.F_inverse, 1.0
    if orientation == "exp":
        if not np.isfinite(profile.b):
            raise ValueError("exp orientation needs a finite upper endpoint")
        return (
            lambda x: profile.b - profile.F(x),
            lambda v: profile.F_inverse(profile.b - np.asarray(v)),
            -1.0,
        )
    raise ValueError(f"unknown orientation {orientation!r}")


def push_forward(
    data: CauchyData, profile: NonlinearityProfile, orientation: str = "canonical"
) -> CauchyData:
    """Transport data to the transformed picture: v₀ = F(u₀), v₁ = F'(u₀)u₁."""
    vmap, _, sign = _oriented(profile, orientation)
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
    _, invert, sign = _oriented(profile, orientation)
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

