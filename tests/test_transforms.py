"""Profile construction, endpoint classification, and u ↔ v transport."""

from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx

from wavecrit import CauchyData, InvertibilityError, RadialField, RadialGrid, as_general
from wavecrit.transforms import (
    NonlinearityProfile,
    build_profile,
    builtin_nonlinearity,
    pull_back,
    push_forward,
)

ROOT_HALF_PI = float(np.sqrt(np.pi / 2))


@pytest.fixture(scope="module")
def exp_profile():
    return build_profile(builtin_nonlinearity("const", 1.0), name="const:1")


@pytest.fixture(scope="module")
def linear_profile():
    return build_profile(builtin_nonlinearity("linear", 1.0), name="linear:1")


class TestEndpoints:
    @pytest.mark.parametrize(
        "name,param,a,b",
        [
            ("const", 1.0, -np.inf, 1.0),
            ("const", -1.0, -1.0, np.inf),
            ("linear", 1.0, -ROOT_HALF_PI, ROOT_HALF_PI),
            ("linear", -1.0, -np.inf, np.inf),
            ("sin", None, -np.inf, np.inf),
            ("neg_arctan", None, -np.inf, np.inf),
        ],
    )
    def test_table(self, name, param, a, b):
        p = build_profile(builtin_nonlinearity(name, param))
        for got, want in ((p.a, a), (p.b, b)):
            if np.isfinite(want):
                assert got == pytest.approx(want, abs=1e-8)
            else:
                assert got == want

    def test_identity_profile(self):
        p = build_profile(builtin_nonlinearity("const", 0.0))
        assert p.classification.case == "both_infinite"
        ts = np.linspace(-10, 10, 21)
        np.testing.assert_allclose(p.F(ts), ts, atol=1e-12)

    def test_confidence_heuristic_by_default(self):
        # a custom f is tabulated, and a tabulated endpoint is a heuristic
        p = build_profile(lambda u: np.ones_like(u))
        assert p.classification.confidence == "heuristic"

    def test_polynomial_tail(self):
        # f(u) = 2u/(1+u²): g = ln(1+t²), integrand (1+t²)^{-1} has finite limits
        p = build_profile(lambda u: 2 * u / (1 + u**2))
        assert p.classification.case == "both_finite"
        assert p.b == pytest.approx(np.pi / 2, rel=1e-3)

    def test_unevaluable_rejected(self):
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            build_profile(lambda u: np.sqrt(u - 100.0))  # NaN on the working range


class TestProfileInvariants:
    def test_exponential_closed_form(self, exp_profile):
        ts = np.linspace(-6, 6, 25)
        np.testing.assert_allclose(exp_profile.F(ts), 1 - np.exp(-ts), atol=1e-12)
        np.testing.assert_allclose(exp_profile.F_prime(ts), np.exp(-ts), rtol=1e-12)

    def test_f_zero_and_positive_slope(self, linear_profile):
        assert linear_profile.F(0.0) == 0.0
        ts = np.linspace(-8, 8, 33)
        assert np.all(linear_profile.F_prime(ts) > 0)
        assert np.all(np.diff(linear_profile.F(ts)) > 0)

    def test_gaussian_slope(self, linear_profile):
        ts = np.linspace(-4, 4, 17)
        np.testing.assert_allclose(linear_profile.F_prime(ts), np.exp(-(ts**2) / 2), rtol=1e-10)

    def test_second_derivative_ratio(self, linear_profile):
        # F''/F' = -f by construction; check through the public surface
        ts = np.linspace(-5, 5, 21)
        ratio = linear_profile.F_second(ts) / linear_profile.F_prime(ts)
        np.testing.assert_allclose(ratio, -ts, atol=1e-12)

    def test_inverse_roundtrip(self, linear_profile):
        ts = np.linspace(-5, 5, 41)
        back = linear_profile.F_inverse(linear_profile.F(ts))
        np.testing.assert_allclose(back, ts, atol=1e-9)

    def test_inverse_residual_near_saturation(self, linear_profile):
        # t-accuracy degrades like 1/F' near the endpoints; the y-residual
        # stays at machine level, which is what the inverse promises
        ts = np.linspace(-8, 8, 33)
        y = linear_profile.F(ts)
        again = linear_profile.F(linear_profile.F_inverse(y))
        np.testing.assert_allclose(again, y, atol=1e-12)

    def test_inverse_rejects_endpoint(self, exp_profile):
        with pytest.raises(InvertibilityError):
            exp_profile.F_inverse(1.0)
        with pytest.raises(InvertibilityError):
            exp_profile.F_inverse(1.5)

    def test_working_range_guard(self, linear_profile):
        with pytest.raises(ValueError):
            linear_profile.F(1e3)


BUILTIN_WEIGHTS = [
    ("const", 1.0),
    ("const", -1.0),
    ("linear", 1.0),
    ("linear", -1.0),
    ("sin", None),
    ("neg_arctan", None),
]


@lru_cache(maxsize=None)
def builtin_profile(name, param):
    return build_profile(builtin_nonlinearity(name, param))


@settings(max_examples=160, deadline=None)
@given(
    weight=st.sampled_from(BUILTIN_WEIGHTS),
    ts=st.lists(st.floats(-6.0, 6.0), min_size=17, max_size=17),
)
def test_inverse_of_a_batch_is_the_inverse_of_each_value(weight, ts):
    # each value keeps the digits it gets alone, whatever else is in the call
    profile = builtin_profile(*weight)
    y = profile.F(np.array(ts))
    y = y[(y > profile.a) & (y < profile.b)]
    one_by_one = np.array([profile.F_inverse(v) for v in y])
    assert np.array_equal(profile.F_inverse(y), one_by_one)


# -- closed forms of the builtin const and linear weights ----------------------

EXACT_WEIGHTS = [("const", 1.0), ("const", -0.8), ("const", 0.0), ("linear", 1.0), ("linear", 0.8)]


def equivalent_lambda(name, param):
    # the same f as a custom callable, which build_profile tabulates
    if name == "const":
        return lambda u: np.full_like(u, param)
    return lambda u: param * u


@settings(max_examples=40, deadline=None)
@given(
    weight=st.one_of(
        st.tuples(st.just("const"), st.floats(-1.25, 1.25)),
        st.tuples(st.just("linear"), st.floats(0.25, 1.5)),
    ),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
)
def test_closed_form_matches_the_table_of_the_same_f(weight, fractions):
    exact = build_profile(builtin_nonlinearity(*weight))
    table = build_profile(equivalent_lambda(*weight))
    assert exact.classification.confidence == "resolved"
    assert table.classification.confidence == "heuristic"
    assert exact.working_range == table.working_range
    lo, hi = exact.working_range
    x = lo + (hi - lo) * np.array(fractions)
    for method in ("F_prime", "F_second"):
        np.testing.assert_allclose(
            getattr(exact, method)(x), getattr(table, method)(x), rtol=1e-10, atol=0.0
        )
    # the table's F carries its spline error, about 2e-9 c⁴ of max(|F|, F')
    scale = np.maximum(np.abs(exact.F(x)), exact.F_prime(x))
    assert np.all(np.abs(exact.F(x) - table.F(x)) <= 1e-8 * scale)


@pytest.mark.parametrize("c", [5e-324, -5e-324, 1e-310, -2.2e-308])
def test_const_with_subnormal_products_is_the_identity(c):
    # where c·u is subnormal, F(u) = u(1 - cu/2 + ...) rounds to u; the
    # quotient -expm1(-cu)/c gave F(37.5) = 38 at c = 5e-324
    p = build_profile(builtin_nonlinearity("const", c))
    u = np.array([-50.0, -37.5, -1e-300, 0.0, 1e-300, 0.1, 37.5, 50.0])
    assert np.array_equal(p.F(u), u)
    assert np.array_equal(p.F_inverse(u), u)


@pytest.mark.parametrize("weight", EXACT_WEIGHTS)
def test_closed_form_inverse_residual_up_to_the_endpoints(weight):
    p = build_profile(builtin_nonlinearity(*weight))
    lo, hi = p.working_range
    y = p.F(np.linspace(lo, hi, 4001))
    for end in (p.a, p.b):
        if np.isfinite(end):
            y = np.concatenate([y, end * (1.0 - 2.0 ** -np.arange(1.0, 53.0))])
    y = y[(y > p.a) & (y < p.b)]
    assert np.all(np.abs(p.F(p.F_inverse(y)) - y) <= 1e-12 * (1.0 + np.abs(y)))


def test_closed_form_endpoints_are_exact_and_resolved():
    for c in (1.0, 0.8, 1.25):
        p = build_profile(builtin_nonlinearity("const", c))
        assert (p.a, p.b) == (-np.inf, 1.0 / c)
        q = build_profile(builtin_nonlinearity("const", -c))
        assert (q.a, q.b) == (-1.0 / c, np.inf)
    for k in (1.0, 0.8, 1.25):
        p = build_profile(builtin_nonlinearity("linear", k))
        assert p.b == -p.a == np.sqrt(np.pi / (2.0 * k))
        assert p.classification.confidence == "resolved"


@pytest.mark.parametrize("weight", [*EXACT_WEIGHTS, ("const", 20.0)])
def test_closed_form_keeps_the_working_range_guards(weight):
    p = build_profile(builtin_nonlinearity(*weight))
    assert p.working_range == build_profile(equivalent_lambda(*weight)).working_range
    lo, hi = p.working_range
    for method in ("F", "F_prime", "F_second", "upper_gap", "lower_gap"):
        for x in (lo - 1e-9, hi + 1e-9):
            with pytest.raises(ValueError):
                getattr(p, method)(x)
    with pytest.raises(InvertibilityError):
        p.F_inverse(p.b if np.isfinite(p.b) else np.nan)
    if not np.isfinite(p.b):  # beyond F of the working range, yet below b
        with pytest.raises(ValueError):
            p.F_inverse(2.0 * p.F(hi))


def test_table_inverse_keeps_the_working_range_guard():
    # b = 1.57105 is finite, but F(50) = 1.55080 at the end of the working
    # range: values between the two have no preimage there
    p = build_profile(lambda u: 2.0 * u / (1.0 + u**2))
    hi = p.working_range[1]
    for y in (1.56, p.F(hi) * (1.0 + 1e-13)):
        with pytest.raises(ValueError, match="beyond F of the working range"):
            p.F_inverse(y)
    assert p.F_inverse(p.F(hi)) == hi


def test_gaps_of_the_closed_forms():
    # f ≡ 1: (b - F)/F' = 1 everywhere, where b - F alone rounds to 0
    p = build_profile(builtin_nonlinearity("const", 1.0))
    assert np.array_equal(p.upper_gap(np.array([0.0, 10.0, 36.0, 45.0])), np.ones(4))
    assert np.all(p.lower_gap(np.array([-3.0, 0.0, 3.0])) == np.inf)
    q = build_profile(builtin_nonlinearity("const", -0.8))
    assert q.lower_gap(40.0) == 1.25 and q.upper_gap(0.0) == np.inf
    # f(u) = u: the gaps are √(π/2)·erfcx(±u/√2)
    lin = build_profile(builtin_nonlinearity("linear", 1.0))
    u = np.linspace(-9.0, 9.0, 37)
    np.testing.assert_allclose(lin.upper_gap(u), ROOT_HALF_PI * erfcx(u / np.sqrt(2.0)), rtol=1e-13)
    np.testing.assert_allclose(lin.lower_gap(u), ROOT_HALF_PI * erfcx(-u / np.sqrt(2.0)), rtol=1e-13)


def test_closed_forms_and_tables_are_one_class():
    for f in (builtin_nonlinearity("linear", 1.0), builtin_nonlinearity("sin")):
        assert type(build_profile(f)) is NonlinearityProfile


TABLE_WEIGHTS = [
    builtin_nonlinearity("sin"),
    builtin_nonlinearity("neg_arctan"),
    builtin_nonlinearity("linear", -1.0),
    lambda u: 2 * u / (1 + u**2),  # a custom f with both endpoints finite
]


@lru_cache(maxsize=None)
def table_profile(k):
    return build_profile(TABLE_WEIGHTS[k])


@settings(max_examples=60, deadline=None)
@given(
    k=st.integers(0, len(TABLE_WEIGHTS) - 1),
    fractions=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
)
def test_table_gaps_are_the_subtraction(k, fractions):
    # a table has no exact gap: each side divides the subtraction by F'
    # (an infinite side gives +inf both ways)
    p = table_profile(k)
    lo, hi = p.working_range
    x = lo + (hi - lo) * np.array(fractions)
    assert np.array_equal(p.upper_gap(x), (p.b - p.F(x)) / p.F_prime(x))
    assert np.array_equal(p.lower_gap(x), (p.F(x) - p.a) / p.F_prime(x))


def radial_data(n=401, r_max=8.0):
    g = RadialGrid.uniform(r_max, n)
    return CauchyData.from_callables(
        g,
        lambda r: 0.8 * np.exp(-((r - 2.0) ** 2)),
        lambda r: -0.5 * np.exp(-((r - 3.0) ** 2) / 2),
    )


class TestPushPull:
    def test_zero_data(self, exp_profile):
        g = RadialGrid.uniform(4.0, 65)
        data = CauchyData.from_callables(g, lambda r: np.zeros_like(r), lambda r: np.zeros_like(r))
        v = push_forward(data, exp_profile)
        np.testing.assert_allclose(v.u0.values, 0.0, atol=1e-15)
        np.testing.assert_allclose(v.u1.values, 0.0, atol=1e-15)

    def test_pointwise_formulas(self, exp_profile):
        data = radial_data()
        v = push_forward(data, exp_profile)
        u0 = data.u0.values
        np.testing.assert_allclose(v.u0.values, 1 - np.exp(-u0), atol=1e-12)
        np.testing.assert_allclose(v.u1.values, np.exp(-u0) * data.u1.values, atol=1e-12)

    def test_exp_orientation_matches_nirenberg(self, exp_profile):
        # v = b - F(u) = e^{-u} for f ≡ 1
        data = radial_data()
        v = push_forward(data, exp_profile, orientation="exp")
        np.testing.assert_allclose(v.u0.values, np.exp(-data.u0.values), atol=1e-12)
        back = pull_back(v, exp_profile, orientation="exp")
        np.testing.assert_allclose(back.u0.values, data.u0.values, atol=1e-9)

    def test_exp_orientation_needs_finite_top(self):
        p = build_profile(builtin_nonlinearity("const", -1.0))
        with pytest.raises(ValueError):
            push_forward(radial_data(), p, orientation="exp")

    def test_roundtrip(self, linear_profile):
        data = radial_data()
        back = pull_back(push_forward(data, linear_profile), linear_profile)
        np.testing.assert_allclose(back.u0.values, data.u0.values, atol=1e-9)
        np.testing.assert_allclose(back.u1.values, data.u1.values, atol=1e-9)

    def test_closed_form_inverse(self, exp_profile):
        # v = 1 - e^{-c}  →  u = c
        assert pull_back(np.array([1 - np.exp(-2.0)]), exp_profile)[0] == pytest.approx(2.0)

    def test_pull_back_witness(self, exp_profile):
        g = RadialGrid.uniform(4.0, 65)
        vals = np.full(65, 0.5)
        vals[17] = 1.0  # exactly the endpoint
        with pytest.raises(InvertibilityError) as err:
            pull_back(RadialField(g, vals), exp_profile)
        assert err.value.witness_index == 17

    def test_pole_velocity_moment_scales(self, exp_profile):
        g = RadialGrid.uniform(8.0, 401)
        u0 = RadialField.from_callable(g, lambda r: np.exp(-(r**2)))
        vals = np.empty(g.n)
        vals[1:] = 1.0 / g.nodes[1:]
        vals[0] = vals[1]
        u1 = RadialField(g, vals, origin_moment=1.0)
        v = push_forward(CauchyData(u0, u1), exp_profile)
        assert v.u1.origin_moment == pytest.approx(np.exp(-1.0))  # F'(u0(0)) = e^{-1}


class TestLaplacianPush:
    def test_identity_profile_passthrough(self):
        p = build_profile(builtin_nonlinearity("const", 0.0))
        data = as_general(radial_data())
        v = push_forward(data, p)
        lap, grad = v.u0.laplace, v.u1.gradient
        pts = np.array([[0.5, 0.2, -0.1], [1.0, 1.0, 0.5], [2.5, 0.0, 0.0]])
        np.testing.assert_allclose(lap(pts), data.u0.laplace(pts), rtol=1e-8)
        np.testing.assert_allclose(grad(pts), data.u1.gradient(pts), rtol=1e-8)

    def test_constant_data_vanishes(self, exp_profile):
        from wavecrit import Field3D

        const = Field3D(
            fn=lambda p: np.full(np.atleast_2d(p).shape[0], 0.7),
            grad=lambda p: np.zeros_like(np.atleast_2d(p)),
            laplacian=lambda p: np.zeros(np.atleast_2d(p).shape[0]),
            support_radius=4.0,
        )
        zero = Field3D(
            fn=lambda p: np.zeros(np.atleast_2d(p).shape[0]),
            grad=lambda p: np.zeros_like(np.atleast_2d(p)),
            laplacian=lambda p: np.zeros(np.atleast_2d(p).shape[0]),
            support_radius=4.0,
        )
        v = push_forward(CauchyData(const, zero), exp_profile)
        lap, grad = v.u0.laplace, v.u1.gradient
        pts = np.array([[0.1, 0.0, 0.0], [1.0, -1.0, 0.3]])
        np.testing.assert_allclose(lap(pts), 0.0, atol=1e-12)
        np.testing.assert_allclose(grad(pts), 0.0, atol=1e-12)

    def test_chain_rule_fields(self, linear_profile):
        # Δv₀ = F'(u₀)Δu₀ + F''(u₀)|∇u₀|², ∇v₁ = F'(u₀)∇u₁ + F''(u₀)u₁∇u₀
        data = as_general(radial_data())
        v = push_forward(data, linear_profile)
        lap, grad = v.u0.laplace, v.u1.gradient
        pts = np.array([[1.2, 0.4, -0.3], [0.0, 2.0, 1.0], [3.0, 0.0, 0.2]])
        u0 = data.u0(pts)
        g0 = data.u0.gradient(pts)
        expect_lap = linear_profile.F_prime(u0) * data.u0.laplace(pts) + linear_profile.F_second(
            u0
        ) * np.sum(g0**2, axis=1)
        np.testing.assert_allclose(lap(pts), expect_lap, rtol=1e-8)
        expect_grad = (
            linear_profile.F_prime(u0)[:, None] * data.u1.gradient(pts)
            + (linear_profile.F_second(u0) * data.u1(pts))[:, None] * g0
        )
        np.testing.assert_allclose(grad(pts), expect_grad, rtol=1e-8)

    def test_pushed_gradient_consistency(self, linear_profile):
        # ∇v₀ = F'(u₀)∇u₀ through the pushed Field3D
        data = as_general(radial_data())
        v = push_forward(data, linear_profile)
        pts = np.array([[0.7, 0.1, 0.5], [2.0, 1.0, 0.0]])
        expect = linear_profile.F_prime(data.u0(pts))[:, None] * data.u0.gradient(pts)
        np.testing.assert_allclose(v.u0.gradient(pts), expect, rtol=1e-10)
