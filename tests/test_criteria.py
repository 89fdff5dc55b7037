"""Verdicts: positivity, boundedness, global existence, domination."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import erfcx

from wavecrit import (
    AdmissibilityError,
    CauchyData,
    ConfigError,
    Field3D,
    FreePropagator,
    RadialField,
    RadialGrid,
    SolitonError,
    build_profile,
    builtin_nonlinearity,
    evaluate_at_origin_nonradial,
    inverse_laplacian_radial,
    outgoing_velocity,
    reduce_to_line,
)
from wavecrit import criteria, freewave
from wavecrit.criteria import (
    Verdict,
    _check_pair_symmetry,
    _derivative_spline,
    _laplacian_fn,
    _make,
    _moment_spline,
    _points,
    _shell_levels,
    _shell_points,
    _spline,
    _stable_min,
    focusing_domination,
    local_existence_time,
    nonradial_laplacian,
    nonradial_momentum,
    oned_positivity,
    outgoing_check,
    quadratic_global_condition,
    radial_bounds,
    radial_positivity,
    supercritical_envelope,
)
from wavecrit.radial import kato_norm, row_norm

GRID = RadialGrid.uniform(8.0, 401)


def radial_pair(f0, f1, grid=GRID):
    return CauchyData.from_callables(grid, f0, f1)


def zeros(r):
    return np.zeros_like(r)


@pytest.fixture(scope="module")
def nirenberg():
    return build_profile(builtin_nonlinearity("const", 1.0))


def soliton_field(grid=GRID):
    return RadialField.from_callable(grid, lambda r: 1.0 / np.sqrt(1.0 + r**2 / 3.0))


def soliton_velocity(grid=GRID):
    # Q_r + Q/r = (rQ)'/r carries a 1/r pole with moment Q(0) = 1
    shell = 3.0 * np.sqrt(3.0) * (3.0 + grid.nodes**2) ** -1.5
    vals = np.empty(grid.n)
    vals[1:] = shell[1:] / grid.nodes[1:]
    vals[0] = vals[1]
    return RadialField(grid, vals, origin_moment=1.0)


class TestRadialPositivity:
    def test_constant_holds(self):
        v = radial_positivity(radial_pair(lambda r: np.ones_like(r), zeros))
        assert v.holds
        assert v.margin == pytest.approx(1.0, abs=1e-9)

    def test_boundary_needs_nonstrict(self):
        data = radial_pair(zeros, zeros)
        assert not radial_positivity(data, strict=True).holds
        assert radial_positivity(data, strict=False).holds

    def test_failure_witness_hits_origin(self):
        data = radial_pair(zeros, lambda r: np.exp(-((r - 2.0) ** 2)))
        v = radial_positivity(data)
        assert not v.holds
        times = v.bounds["nonpositive_origin_times"]
        assert times, "failing verdict must name origin times"
        prop = FreePropagator(data)
        for t in times:
            assert prop.origin(np.array([t]))[0] <= 1e-8

    def test_sup_bound_respected(self):
        data = radial_pair(
            lambda r: 1.0 + 0.2 * np.exp(-(r**2)),
            lambda r: 0.05 * np.exp(-((r - 1.0) ** 2)),
        )
        v = radial_positivity(data)
        assert v.holds
        prop = FreePropagator(data)
        seen = max(
            float(np.max(np.abs(prop.field(t).values))) for t in (0.0, 0.5, 1.0, 2.0)
        )
        assert seen <= v.bounds["sup_bound"] + 1e-9

    @pytest.mark.parametrize("t", [0.5, 1.0, 1.5])
    def test_time_persistence(self, t):
        data = radial_pair(
            lambda r: 1.0 + 0.3 * np.exp(-(r**2)),
            lambda r: -0.1 * r * np.exp(-(r**2)),
        )
        assert radial_positivity(data).holds
        v = radial_positivity(FreePropagator(data).state(t))
        assert v.holds

    def test_velocity_scaling_monotone(self):
        u1 = lambda r: 0.4 * np.exp(-((r - 1.5) ** 2))
        margins = []
        for lam in (1.0, 0.6, 0.3, 0.0):
            data = radial_pair(lambda r: 1.0 + 0.1 * np.exp(-(r**2)), lambda r: lam * u1(r))
            margins.append(radial_positivity(data).margin)
        assert all(b >= a - 1e-12 for a, b in zip(margins, margins[1:]))


class TestRadialBounds:
    def test_constant_inside(self):
        v = radial_bounds(radial_pair(lambda r: 0.5 * np.ones_like(r), zeros), 0.0, 2.0)
        assert v.holds
        assert v.margin == pytest.approx(0.5, abs=1e-9)

    def test_rejects_empty_interval(self):
        with pytest.raises(ConfigError):
            radial_bounds(radial_pair(zeros, zeros), 1.0, 1.0)

    def test_solution_stays_in_band(self):
        data = radial_pair(
            lambda r: 1.0 + 0.2 * np.exp(-(r**2)),
            lambda r: 0.1 * np.exp(-((r - 1.0) ** 2)),
        )
        a, b = 0.0, 2.0
        assert radial_bounds(data, a, b).holds
        prop = FreePropagator(data)
        for t in (0.0, 0.7, 1.4, 2.0):
            vals = prop.field(t).values
            assert np.all(vals >= a - 1e-8) and np.all(vals <= b + 1e-8)

    def test_velocity_envelope(self):
        data = radial_pair(
            lambda r: 1.0 + 0.2 * np.exp(-(r**2)),
            lambda r: 0.1 * np.exp(-((r - 1.0) ** 2)),
        )
        a, b = 0.0, 2.0
        v = radial_bounds(data, a, b)
        assert v.holds
        prop = FreePropagator(data)
        half = v.bounds["ut_envelope_halfwidth"]
        r = GRID.nodes[1:]
        for t in (0.0, 0.5, 1.5):
            ut = prop.field_t(t).values[1:]
            assert np.all(np.abs(ut) <= half / r + 1e-8)


class TestOutgoingCheck:
    def test_zero_data(self):
        v = outgoing_check(radial_pair(zeros, zeros))
        assert v.holds

    def test_soliton_pair_by_construction(self):
        v = outgoing_check(CauchyData(soliton_field(), soliton_velocity()))
        assert v.holds
        assert v.bounds["orientation"] == "collapsing"

    def test_zero_velocity_nonconstant_fails(self):
        v = outgoing_check(CauchyData(soliton_field(), RadialField.from_callable(GRID, zeros)))
        assert not v.holds
        assert v.bounds["orientation"] == "none"
        assert v.witness[0] >= 0.0

    def test_mirror_orientation_detected(self):
        u0 = soliton_field()
        mirror = soliton_velocity()
        flipped = RadialField(GRID, -mirror.values, origin_moment=-1.0)
        v = outgoing_check(CauchyData(u0, flipped))
        assert not v.holds
        assert v.bounds["orientation"] == "expanding"


class TestOnedPositivity:
    def test_rest_data(self):
        xs = np.linspace(-5, 5, 201)
        v = oned_positivity(xs, np.exp(-(xs**2)), np.zeros_like(xs))
        assert v.holds

    def test_pure_velocity_fails(self):
        xs = np.linspace(-5, 5, 201)
        v = oned_positivity(xs, np.zeros_like(xs), np.exp(-(xs**2)))
        assert not v.holds
        assert v.bounds["velocity_integral"] == pytest.approx(math.sqrt(math.pi), rel=1e-6)

    def test_line_solution_stays_nonnegative(self):
        # u(x,t) = (u0(x-t)+u0(x+t))/2 + (P(x+t)-P(x-t))/2 with P = ∫u1
        xs = np.linspace(-10, 10, 801)
        psi = lambda x: np.exp(-(x**2))
        dpsi = lambda x: -2 * x * np.exp(-(x**2))
        u0 = psi(xs) + 0.01
        v = oned_positivity(xs, u0, dpsi(xs))
        assert v.holds
        probe = np.linspace(-4, 4, 41)
        for t in (0.5, 1.0, 2.0):
            left, right = probe - t, probe + t
            p = lambda x: psi(x) - psi(xs[0])
            u = 0.5 * (np.interp(left, xs, u0) + np.interp(right, xs, u0)) + 0.5 * (
                p(right) - p(left)
            )
            assert np.all(u >= -1e-9)


def ball(value, R=8.0):
    return Field3D(
        fn=lambda p: np.full(np.atleast_2d(p).shape[0], float(value)),
        grad=lambda p: np.zeros_like(np.atleast_2d(p)),
        laplacian=lambda p: np.zeros(np.atleast_2d(p).shape[0]),
        support_radius=R,
    )


def gaussian3d(R=8.0):
    def fn(p):
        return np.exp(-np.sum(np.atleast_2d(p) ** 2, axis=1))

    return Field3D(
        fn=fn,
        grad=lambda p: -2.0 * np.atleast_2d(p) * fn(p)[:, None],
        laplacian=lambda p: (4.0 * np.sum(np.atleast_2d(p) ** 2, axis=1) - 6.0) * fn(p),
        support_radius=R,
    )


def soliton3d(R=8.0):
    def s2(p):
        return np.sum(np.atleast_2d(p) ** 2, axis=1)

    return Field3D(
        fn=lambda p: (1.0 + s2(p) / 3.0) ** -0.5,
        grad=lambda p: -(1.0 / 3.0) * np.atleast_2d(p) * ((1.0 + s2(p) / 3.0) ** -1.5)[:, None],
        laplacian=lambda p: -((1.0 + s2(p) / 3.0) ** -2.5),
        support_radius=R,
    )


class TestNonradialMomentum:
    def test_constant_boundary_case(self):
        v = nonradial_momentum(CauchyData(ball(1.0), ball(0.0)))
        assert v.holds
        assert v.bounds["min_momentum"] == pytest.approx(0.0, abs=1e-12)

    def test_gaussian_with_slack(self):
        g = gaussian3d()

        def vel(p):
            return np.linalg.norm(g.gradient(p), axis=1) + 0.1

        v = nonradial_momentum(CauchyData(g, Field3D(fn=vel, support_radius=8.0)))
        assert v.holds
        assert v.bounds["min_momentum"] == pytest.approx(0.1, abs=1e-9)

    def test_origin_values_nonnegative_forward(self):
        g = gaussian3d()

        def vel(p):
            return np.linalg.norm(g.gradient(p), axis=1) + 0.1

        data = CauchyData(g, Field3D(fn=vel, support_radius=8.0))
        assert nonradial_momentum(data).holds
        for t in (0.3, 1.0, 2.5):
            assert evaluate_at_origin_nonradial(data, t) >= -1e-6

    def test_requires_general_data(self):
        with pytest.raises(ConfigError):
            nonradial_momentum(radial_pair(lambda r: np.ones_like(r), zeros))


class TestNonradialLaplacian:
    def test_inverse_laplacian_construction(self):
        # u0 = (-Δ)⁻¹ e^{-|x|²} = √π erf(|x|)/(4|x|); the source is the
        # laplacian by construction, and its Kato norm is 2π, so the sup
        # bound lands on u0(0) = 1/2
        from scipy.special import erf

        def s(p):
            return np.sqrt(np.sum(np.atleast_2d(p) ** 2, axis=1))

        def fn(p):
            r = s(p)
            out = np.full_like(r, 0.5)
            pos = r > 1e-12
            out[pos] = 0.25 * math.sqrt(math.pi) * erf(r[pos]) / r[pos]
            return out

        data = CauchyData(
            Field3D(fn=fn, laplacian=lambda p: -np.exp(-s(p) ** 2), support_radius=8.0),
            ball(0.0),
        )
        v = nonradial_laplacian(data)
        assert v.holds
        assert v.bounds["sup_bound"] == pytest.approx(0.5, rel=0.05)
        assert fn(np.zeros((1, 3)))[0] <= v.bounds["sup_bound"] * 1.05

    def test_soliton_source(self):
        data = CauchyData(soliton3d(), ball(0.0))
        v = nonradial_laplacian(data)
        assert v.holds
        assert v.bounds["kato_resolved"]
        # -ΔQ has Kato norm 4π Q(0), so the sup bound is close to Q(0) = 1
        assert v.bounds["sup_bound"] == pytest.approx(1.0, rel=0.05)

    def test_sup_bound_respected_at_origin(self):
        data = CauchyData(soliton3d(), ball(0.0))
        v = nonradial_laplacian(data)
        peak = max(abs(evaluate_at_origin_nonradial(data, t)) for t in (0.0, 0.5, 1.5, 3.0))
        assert peak <= v.bounds["sup_bound"] * 1.05


class TestQuadraticGlobalCondition:
    def test_constant_data_hold(self, nirenberg):
        v = quadratic_global_condition(
            radial_pair(lambda r: 0.7 * np.ones_like(r), zeros), nirenberg
        )
        assert v.holds
        assert v.margin == pytest.approx(1.0, abs=1e-6)
        lo, hi = v.bounds["solution_range"]
        assert lo <= 0.7 <= hi + 1e-9

    def test_gaussian_well_fails_at_unit_radius(self, nirenberg):
        v = quadratic_global_condition(
            radial_pair(lambda r: -1.5 * np.exp(-(r**2)), zeros), nirenberg
        )
        assert not v.holds
        # refinement stabilizes the margin to 1%, not to machine accuracy
        assert v.margin == pytest.approx(1.0 - 3.0 / math.e, abs=2e-3)
        assert v.witness[0] == pytest.approx(1.0, abs=1e-2)
        assert v.bounds["blowup_window"] == pytest.approx(1.0, abs=1e-2)

    def test_large_data_pass(self, nirenberg):
        v = quadratic_global_condition(
            radial_pair(lambda r: -np.log1p(r**2), zeros), nirenberg
        )
        assert v.holds
        assert v.margin == pytest.approx(1.0, abs=1e-6)

    def test_vacuous_when_both_endpoints_infinite(self):
        profile = build_profile(builtin_nonlinearity("sin"))
        v = quadratic_global_condition(
            radial_pair(lambda r: -1.5 * np.exp(-(r**2)), zeros), profile
        )
        assert v.holds
        assert v.margin == math.inf
        assert v.bounds["vacuous"]

    def test_reduces_to_inverse_radius_condition(self, nirenberg):
        # unit nonlinearity: the gap (b-F)/F' is identically 1, so the
        # condition is r((u0)_r + |u1|) < 1 node for node
        data = radial_pair(
            lambda r: 0.4 * np.exp(-((r - 1.0) ** 2)),
            lambda r: 0.1 * np.exp(-(r**2)),
        )
        r = GRID.nodes
        u0 = data.u0.values
        x = nirenberg.F(u0)
        gap = (nirenberg.b - x) / nirenberg.F_prime(u0)
        np.testing.assert_allclose(gap, 1.0, atol=1e-8)
        v = quadratic_global_condition(data, nirenberg)
        du0 = -2.0 * (r - 1.0) * 0.4 * np.exp(-((r - 1.0) ** 2))
        direct = np.min(1.0 - r * (du0 + np.abs(data.u1.values)))
        assert v.margin == pytest.approx(direct, rel=1e-3)

    def test_gap_near_the_endpoint_keeps_its_digits(self):
        # f(u) = u at u₀(0) = 9: F(9) rounds to b, but the gap
        # √(π/2)·erfcx(9/√2) = 0.10979 still decides the verdict
        data = radial_pair(
            lambda r: 9.0 / np.sqrt(1.0 + (r / 5.0) ** 2), zeros, RadialGrid.uniform(40.0, 801)
        )
        v = quadratic_global_condition(data, build_profile(builtin_nonlinearity("linear", 1.0)))
        assert v.holds
        exact = math.sqrt(math.pi / 2.0) * erfcx(9.0 / math.sqrt(2.0))  # 0.109787
        assert v.margin == pytest.approx(exact, abs=1e-6)

    def test_rejects_raw_callable(self):
        with pytest.raises(ConfigError):
            quadratic_global_condition(radial_pair(zeros, zeros), lambda u: 1.0)

    def test_velocity_scaling_monotone(self, nirenberg):
        margins = []
        for lam in (1.0, 0.5, 0.0):
            data = radial_pair(
                lambda r: 0.3 * np.exp(-(r**2)),
                lambda r: lam * 0.2 * np.exp(-((r - 1.0) ** 2)),
            )
            margins.append(quadratic_global_condition(data, nirenberg).margin)
        assert all(b >= a - 1e-12 for a, b in zip(margins, margins[1:]))


class TestLocalExistenceTime:
    def test_static_data_flagged_infinite(self, nirenberg):
        T, info = local_existence_time(
            radial_pair(lambda r: np.ones_like(r), zeros), nirenberg, full_output=True
        )
        assert T == math.inf
        assert "flag" in info

    def test_unit_velocity_mirror_case(self, nirenberg):
        T = local_existence_time(radial_pair(zeros, lambda r: np.ones_like(r)), nirenberg)
        assert T == pytest.approx(1.0, rel=1e-9)

    def test_both_endpoints_take_minimum(self):
        profile = build_profile(builtin_nonlinearity("linear", 1.0))
        data = radial_pair(lambda r: 0.5 * np.ones_like(r), lambda r: np.ones_like(r))
        T, info = local_existence_time(data, profile, full_output=True)
        b = profile.b
        expected = (b - profile.F(0.5)) / profile.F_prime(0.5)
        assert info["side"] == "upper"
        assert T == pytest.approx(float(expected), rel=1e-9)

    def test_gap_survives_where_F_rounds_to_the_endpoint(self, nirenberg):
        # F(40) rounds to b = 1, but the gap b - F(40) = e^{-40} does not
        data = radial_pair(lambda r: 40.0 * np.exp(-(r**2)), zeros, RadialGrid.uniform(8.0, 161))
        T, info = local_existence_time(data, nirenberg, full_output=True)
        assert info["side"] == "upper"
        assert T == pytest.approx(math.exp(-40.0) / info["speed"], rel=1e-12, abs=0.0)
        assert T == pytest.approx(1.24e-19, rel=1e-2, abs=0.0)

    def test_global_profile_flag(self):
        profile = build_profile(builtin_nonlinearity("neg_arctan"))
        T, info = local_existence_time(
            radial_pair(zeros, lambda r: np.ones_like(r)), profile, full_output=True
        )
        assert T == math.inf
        assert info["flag"] == "global (no finite endpoint)"


class TestFocusingDomination:
    def test_case_i_identical_outgoing(self):
        data = CauchyData(soliton_field(), soliton_velocity())
        v = focusing_domination(data, data, "i")
        assert v.holds
        assert v.bounds["validity"] == "t >= 0"

    def test_case_i_rejects_non_outgoing(self):
        data = CauchyData(soliton_field(), RadialField.from_callable(GRID, zeros))
        with pytest.raises(AdmissibilityError):
            focusing_domination(data, data, "i")

    def test_case_ii_scaled_soliton_margin(self):
        eps = 0.1
        zero = RadialField.from_callable(GRID, zeros)
        u = CauchyData(soliton_field(), zero)
        v_data = CauchyData(RadialField(GRID, (1 - eps) * soliton_field().values), zero)
        v = focusing_domination(u, v_data, "ii")
        assert v.holds
        smallest_shell = 3.0 * math.sqrt(3.0) * (3.0 + GRID.r_max**2) ** -1.5
        assert v.margin == pytest.approx(eps * smallest_shell, rel=1e-4)

    def test_case_iii_pole_ordering(self):
        zero = RadialField.from_callable(GRID, zeros)
        strong = CauchyData(zero, soliton_velocity())
        weak_vals = 0.5 * soliton_velocity().values
        weak = CauchyData(zero, RadialField(GRID, weak_vals, origin_moment=0.5))
        assert focusing_domination(strong, weak, "iii").holds
        rev = focusing_domination(weak, strong, "iii")
        assert not rev.holds
        assert rev.margin == -math.inf

    def test_case_iv_zero_comparison(self):
        u = CauchyData(soliton3d(), ball(0.0))
        v_zero = CauchyData(ball(0.0), ball(0.0))
        v = focusing_domination(u, v_zero, "iv")
        assert v.holds
        base = nonradial_laplacian(u, kato=False)
        assert v.margin == pytest.approx(base.margin, rel=1e-9)

    def test_symmetry_mismatch_rejected(self):
        radial = CauchyData(soliton_field(), RadialField.from_callable(GRID, zeros))
        general = CauchyData(soliton3d(), ball(0.0))
        with pytest.raises(ConfigError):
            focusing_domination(radial, general, "iii")
        with pytest.raises(ConfigError):
            focusing_domination(general, general, "ii")

    def test_grid_mismatch_rejected(self):
        other = RadialGrid.uniform(8.0, 201)
        zero_a = CauchyData(soliton_field(), RadialField.from_callable(GRID, zeros))
        zero_b = CauchyData(soliton_field(other), RadialField.from_callable(other, zeros))
        with pytest.raises(ConfigError):
            focusing_domination(zero_a, zero_b, "ii")

    def test_unknown_case_rejected(self):
        data = CauchyData(soliton_field(), RadialField.from_callable(GRID, zeros))
        with pytest.raises(ConfigError):
            focusing_domination(data, data, "v")


def envelope3d(scale, N=4, R=10.0):
    # |Δu0| = scale·C_N^{N+1}(1+|x|)^{-2-2/N} exactly; u0 recovered in
    # closed form from -Δu0 = g via the radial Newton formula
    cn = (2.0 * (N - 2) / N**2) ** (1.0 / N)
    amp = scale * cn ** (N + 1)

    def s(p):
        return np.sqrt(np.sum(np.atleast_2d(p) ** 2, axis=1))

    def inner(r):
        # ∫0^r s²(1+s)^{-5/2} ds
        u = 1.0 + r
        return (2.0 * u**0.5 + 4.0 * u**-0.5 - (2.0 / 3.0) * u**-1.5) - (2.0 + 4.0 - 2.0 / 3.0)

    def outer(r):
        # ∫r^∞ s(1+s)^{-5/2} ds
        u = 1.0 + r
        return 2.0 * u**-0.5 - (2.0 / 3.0) * u**-1.5

    def fn(p):
        r = s(p)
        out = np.full_like(r, amp * (outer(0.0)))
        pos = r > 0
        out[pos] = amp * (inner(r[pos]) / r[pos] + outer(r[pos]))
        return out

    return Field3D(
        fn=fn,
        laplacian=lambda p: -amp * (1.0 + s(p)) ** -2.5,
        support_radius=R,
    )


class TestSupercriticalEnvelope:
    def test_zero_data_holds(self):
        v = supercritical_envelope(radial_pair(zeros, zeros), 4, 1.0)
        assert v.holds

    def test_no_soliton_below_threshold(self):
        with pytest.raises(SolitonError):
            supercritical_envelope(radial_pair(zeros, zeros), 2, 1.0)

    def test_odd_exponent_rejected(self):
        with pytest.raises(ConfigError):
            supercritical_envelope(radial_pair(zeros, zeros), 5, 1.0)

    def test_envelope_with_headroom(self):
        data = CauchyData(envelope3d(0.9), ball(0.0, R=10.0))
        v = supercritical_envelope(data, 4, 1.0)
        assert v.holds
        cn = (2.0 * 2.0 / 16.0) ** 0.25
        floor = 0.1 * cn**5 * (1.0 + 10.0) ** -2.5
        assert v.margin == pytest.approx(floor, rel=1e-6)
        assert v.bounds["sup_bound"] == pytest.approx(cn, rel=1e-12)

    def test_radial_route_agrees(self):
        g = RadialGrid.uniform(10.0, 801)
        cn = (2.0 * 2.0 / 16.0) ** 0.25
        u0 = inverse_laplacian_radial(lambda r: 0.9 * cn**5 * (1.0 + r) ** -2.5, g)
        data = CauchyData(u0, RadialField.from_callable(g, zeros))
        v = supercritical_envelope(data, 4, 1.0)
        assert v.holds
        floor = 0.1 * cn**5 * (1.0 + 10.0) ** -2.5
        assert v.margin == pytest.approx(floor, rel=0.05)

    def test_scaling_invariance(self):
        lam = 2.0
        base = CauchyData(envelope3d(0.9), ball(0.0, R=10.0))
        inner_field = envelope3d(0.9)

        def scaled_fn(p):
            return lam**0.5 * inner_field(lam * np.atleast_2d(p))

        def scaled_lap(p):
            return lam**2.5 * inner_field.laplace(lam * np.atleast_2d(p))

        scaled = CauchyData(
            Field3D(fn=scaled_fn, laplacian=scaled_lap, support_radius=10.0 / lam),
            ball(0.0, R=10.0 / lam),
        )
        v1 = supercritical_envelope(base, 4, 1.0)
        v2 = supercritical_envelope(scaled, 4, 1.0 / lam)
        assert v1.holds == v2.holds

    def test_weighted_norm_at_zero_shift(self):
        cn = (2.0 * 2.0 / 16.0) ** 0.25

        def s(p):
            return np.sqrt(np.sum(np.atleast_2d(p) ** 2, axis=1))

        data = CauchyData(
            Field3D(
                fn=lambda p: 2.0 * 0.9 * cn**5 * s(p) ** -0.5,
                laplacian=lambda p: -0.9 * cn**5 * s(p) ** -2.5,
                support_radius=10.0,
            ),
            ball(0.0, R=10.0),
        )
        v = supercritical_envelope(data, 4, 0.0)
        assert v.holds
        assert v.bounds["weighted_data_norm"] == pytest.approx(0.9 * cn**5, rel=1e-9)
        assert v.bounds["weighted_norm_limit"] == pytest.approx(cn**5, rel=1e-12)


class TestVerdictSerialization:
    def test_json_fields(self):
        v = radial_positivity(radial_pair(lambda r: np.ones_like(r), zeros))
        doc = json.loads(v.to_json())
        assert set(doc) == {"criterion", "holds", "margin", "witness", "strict", "bounds"}
        assert doc["criterion"] == "radial_positivity"
        assert doc["holds"] is True

    def test_infinities_encoded_as_strings(self):
        profile = build_profile(builtin_nonlinearity("sin"))
        v = quadratic_global_condition(radial_pair(zeros, zeros), profile)
        doc = json.loads(v.to_json())
        assert doc["margin"] == "inf"


# -- the case table against the per-verdict slacks it replaced --------------
#
# The _reference_* verdicts below write each case's inequality out in full,
# one slack per verdict, case and symmetry; the case table must give the
# same verdicts bit for bit and build the same number of splines.


def _reference_grid_levels(grid):
    return (_points(grid, level) for level in range(4))


def _reference_radial_positivity(data, strict=True):
    shell = reduce_to_line(data.u0)
    s0 = _spline(shell)
    m1 = _moment_spline(data.u1)
    margin, loc = _stable_min(lambda r: s0(r) - np.abs(m1(r)), _reference_grid_levels(data.grid))
    bounds = {
        "sup_bound": float(np.max(np.abs(shell.values)) + np.max(np.abs(data.u1.moment()))),
        "validity": "all t",
    }
    holds = margin > 0.0 if strict else margin >= 0.0
    if not holds:
        times = []
        if float(s0(loc) - m1(loc)) <= 0.0:
            times.append(-loc)
        if float(s0(loc) + m1(loc)) <= 0.0:
            times.append(loc)
        bounds["nonpositive_origin_times"] = times
    return _make("radial_positivity", margin, (loc, margin), strict, bounds)


def _reference_radial_bounds(data, a, b):
    s0 = _spline(reduce_to_line(data.u0))
    m1 = _moment_spline(data.u1)

    def slack(r):
        w = np.abs(m1(r))
        return np.minimum(s0(r) - a - w, b - s0(r) - w)

    margin, loc = _stable_min(slack, _reference_grid_levels(data.grid))
    bounds = {"ut_envelope_halfwidth": 0.5 * (b - a), "validity": "all t"}
    return _make("radial_bounds", margin, (loc, margin), False, bounds)


def _reference_outgoing_check(data, tol=1e-6):
    s0 = _spline(reduce_to_line(data.u0))
    m1 = _moment_spline(data.u1)
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


def _reference_nonradial_momentum(data):
    R = max(data.u0.support_radius, data.u1.support_radius)
    last = {}

    def slack(pts):
        last["u0"] = data.u0(pts)
        last["momentum"] = data.u1(pts) - row_norm(data.u0.gradient(pts))
        return np.minimum(last["u0"], last["momentum"])

    m, loc = _stable_min(slack, _shell_levels(R))
    u0_min = float(np.min(last["u0"]))
    mom_min = float(np.min(last["momentum"]))
    holds = u0_min > 0.0 and mom_min >= 0.0
    bounds = {"validity": "t >= 0", "min_u0": u0_min, "min_momentum": mom_min}
    return Verdict("nonradial_momentum", holds, m, (loc, m), False, bounds)


def _reference_nonradial_laplacian(data, strict=True, kato=True):
    R = max(data.u0.support_radius, data.u1.support_radius)

    def slack(pts):
        return -data.u0.laplace(pts) - row_norm(data.u1.gradient(pts))

    margin, loc = _stable_min(slack, _shell_levels(R))
    bounds = {"validity": "all t"}
    if kato:
        lap_abs = Field3D(
            fn=lambda p: np.abs(data.u0.laplace(np.atleast_2d(p))),
            support_radius=data.u0.support_radius,
        )
        grad_abs = Field3D(
            fn=lambda p: row_norm(data.u1.gradient(np.atleast_2d(p))),
            support_radius=data.u1.support_radius,
        )
        k1 = kato_norm(lap_abs)
        k2 = kato_norm(grad_abs)
        bounds["sup_bound"] = (k1.value + k2.value) / (4.0 * np.pi)
        bounds["kato_resolved"] = bool(k1.resolved and k2.resolved)
    return _make("nonradial_laplacian", margin, (loc, margin), strict, bounds)


def _reference_focusing_domination(u_data, v_data, case):
    case = str(case).lower()
    if case not in ("i", "ii", "iii", "iv"):
        raise ConfigError("case must be one of i, ii, iii, iv")
    sym = _check_pair_symmetry(u_data, v_data, case)
    validity = "t >= 0" if case in ("i", "iii") else "all t"
    bounds = {"direction": "|v| <= u", "validity": validity}

    if case == "i":
        for tag, d in (("u", u_data), ("v", v_data)):
            chk = outgoing_check(d)
            if not chk.holds:
                raise AdmissibilityError(
                    f"case i requires outgoing pairs: {tag}-data residual "
                    f"{chk.bounds['residual']:.3g}",
                    residual=chk.bounds["residual"],
                )
        su, sv = _spline(u_data.u0), _spline(v_data.u0)
        margin, loc = _stable_min(
            lambda r: su(r) - np.abs(sv(r)), _reference_grid_levels(u_data.grid)
        )
        return _make("focusing_domination", margin, (loc, margin), False, bounds)

    if case == "ii":
        tu = _spline(reduce_to_line(u_data.u0))
        tv = _spline(reduce_to_line(v_data.u0))
        mu = _moment_spline(u_data.u1)
        mv = _moment_spline(v_data.u1)

        def slack(r):
            return tu(r) - np.abs(mu(r)) - np.abs(tv(r)) - np.abs(mv(r))

        margin, loc = _stable_min(slack, _reference_grid_levels(u_data.grid))
        return _make("focusing_domination", margin, (loc, margin), False, bounds)

    if sym == "general":
        if case == "iii":

            def slack(pts):
                return (
                    u_data.u1(pts)
                    - row_norm(u_data.u0.gradient(pts))
                    - np.abs(v_data.u1(pts))
                    - row_norm(v_data.u0.gradient(pts))
                )

        else:

            def slack(pts):
                return (
                    -u_data.u0.laplace(pts)
                    - row_norm(u_data.u1.gradient(pts))
                    - np.abs(v_data.u0.laplace(pts))
                    - row_norm(v_data.u1.gradient(pts))
                )

        R = max(
            u_data.u0.support_radius,
            u_data.u1.support_radius,
            v_data.u0.support_radius,
            v_data.u1.support_radius,
        )
        margin, loc = _stable_min(slack, _shell_levels(R))
        return _make("focusing_domination", margin, (loc, margin), False, bounds)

    u_pole = u_data.u1.origin_moment
    v_pole = v_data.u1.origin_moment
    if case == "iv":
        if u_pole != 0.0 or v_pole != 0.0:
            bounds["origin_divergence"] = "velocity pole makes a gradient term unbounded"
            return _make("focusing_domination", -float("inf"), (0.0, -float("inf")), False, bounds)
        lu, lv = _laplacian_fn(u_data.u0), _laplacian_fn(v_data.u0)
        du1, dv1 = _derivative_spline(u_data.u1), _derivative_spline(v_data.u1)

        def slack(r):
            return -lu(r) - np.abs(du1(r)) - np.abs(lv(r)) - np.abs(dv1(r))

        margin, loc = _stable_min(slack, _reference_grid_levels(u_data.grid))
        return _make("focusing_domination", margin, (loc, margin), False, bounds)

    du0, dv0 = _derivative_spline(u_data.u0), _derivative_spline(v_data.u0)
    mu1, mv1 = _moment_spline(u_data.u1), _moment_spline(v_data.u1)
    has_pole = u_pole != 0.0 or v_pole != 0.0
    if has_pole and u_pole - abs(v_pole) < 0.0:
        bounds["origin_divergence"] = "velocity pole moments violate the inequality"
        return _make("focusing_domination", -float("inf"), (0.0, -float("inf")), False, bounds)

    def slack(r):
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        pos = r > 0
        rp = r[pos]
        out[pos] = mu1(rp) / rp - np.abs(du0(rp)) - np.abs(mv1(rp)) / rp - np.abs(dv0(rp))
        if np.any(~pos):
            if has_pole:
                out[~pos] = np.inf
            else:
                out[~pos] = u_data.u1.values[0] - np.abs(v_data.u1.values[0])
        return out

    margin, loc = _stable_min(slack, _reference_grid_levels(u_data.grid))
    return _make("focusing_domination", margin, (loc, margin), False, bounds)


def _reference_supercritical_envelope(data, N, alpha=0.0):
    n = int(N)
    cn = (2.0 * (n - 2) / n**2) ** (1.0 / n)
    amp = cn ** (n + 1)
    p = 2.0 + 2.0 / n

    if data.symmetry == "radial":
        if data.u1.origin_moment != 0.0:
            raise ConfigError("supercritical_envelope requires a bounded velocity gradient")
        lap = _laplacian_fn(data.u0)
        d1 = _derivative_spline(data.u1)

        def load(r):
            return np.abs(lap(r)) + np.abs(d1(r))

        def slack(r):
            return amp / (alpha + np.asarray(r, dtype=float)) ** p - load(r)

        margin, loc = _stable_min(slack, _reference_grid_levels(data.grid))
        pts = _points(data.grid, 1)
        radii = pts
        load_vals = load(pts)
    else:

        def load_pts(pts):
            return np.abs(data.u0.laplace(pts)) + row_norm(data.u1.gradient(pts))

        def slack(pts):
            s = row_norm(pts)
            return amp / (alpha + s) ** p - load_pts(pts)

        R = max(data.u0.support_radius, data.u1.support_radius)
        margin, loc = _stable_min(slack, _shell_levels(R, include_origin=alpha > 0))
        pts = _shell_points(R, 65, include_origin=False)
        radii = row_norm(pts)
        load_vals = load_pts(pts)

    bounds = {
        "C_N": cn,
        "decay_exponent": 2.0 / n,
        "pointwise_bound_scale": cn,
        "sup_bound": cn * alpha ** (-2.0 / n) if alpha > 0 else float("inf"),
        "validity": "all t",
    }
    if alpha == 0.0:
        bounds["weighted_data_norm"] = float(np.max(radii**p * load_vals))
        bounds["weighted_norm_limit"] = amp
    return _make("supercritical_envelope", margin, (loc, margin), False, bounds)


def _splines_and_outcome(verdict, *args):
    """(cubic_spline calls, outcome) of one verdict: the outcome is the JSON of
    to_dict() and the repr of the margin, or the type and text of the error."""
    calls = [0]
    build = criteria.cubic_spline

    def counted(*a):
        calls[0] += 1
        return build(*a)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(criteria, "cubic_spline", counted)
        mp.setattr(freewave, "cubic_spline", counted)
        try:
            v = verdict(*args)
            outcome = (json.dumps(v.to_dict(), sort_keys=True), repr(v.margin))
        except (AdmissibilityError, ConfigError) as exc:
            outcome = (type(exc).__name__, str(exc))
    return calls[0], outcome


def _assert_same_verdicts(pairs):
    """Each (new, reference, args) gives the same outcome from the same
    number of splines."""
    for new, ref, args in pairs:
        got = _splines_and_outcome(new, *args)
        want = _splines_and_outcome(ref, *args)
        assert got == want, (new.__name__, args[2:])


_CASES = ("i", "ii", "iii", "iv")


@st.composite
def _radial_data(draw, grid):
    """Gaussian bump plus offset; the velocity a bump, a 1/r pole or the
    outgoing velocity of u₀ in either orientation."""
    r = grid.nodes
    amp0 = draw(st.floats(-2.0, 2.0))
    c0 = draw(st.sampled_from([0.0, 0.5, 2.0]))
    w0 = draw(st.floats(0.4, 2.0))
    offset = draw(st.sampled_from([0.0, 0.0, 0.3, 1.0]))
    u0 = RadialField(grid, amp0 * np.exp(-(((r - c0) / w0) ** 2)) + offset)
    kind = draw(st.sampled_from(["bump", "pole", "expanding", "collapsing"]))
    if kind in ("expanding", "collapsing"):
        return CauchyData(u0, outgoing_velocity(u0, kind))
    amp1 = draw(st.floats(-2.0, 2.0))
    w1 = draw(st.floats(0.4, 2.0))
    if kind == "pole":
        pole = draw(st.sampled_from([-1.0, 0.5, 1.0]))
        u1 = RadialField.from_moment(grid, pole * np.exp(-(r**2)) + amp1 * r * np.exp(-((r / w1) ** 2)))
    else:
        u1 = RadialField(grid, amp1 * np.exp(-(((r - c0) / w1) ** 2)))
    return CauchyData(u0, u1)


def _aniso_gaussian(amp, centre, widths, radius, analytic):
    centre, inv = np.asarray(centre), 1.0 / np.asarray(widths) ** 2

    def fn(p):
        d = np.atleast_2d(p) - centre
        return amp * np.exp(-np.sum(d * d * inv, axis=1))

    def grad(p):
        d = np.atleast_2d(p) - centre
        return -2.0 * d * inv * fn(p)[:, None]

    def lap(p):
        d = np.atleast_2d(p) - centre
        return (np.sum(4.0 * (d * inv) ** 2, axis=1) - 2.0 * np.sum(inv)) * fn(p)

    if analytic:
        return Field3D(fn=fn, grad=grad, laplacian=lap, support_radius=radius)
    return Field3D(fn=fn, support_radius=radius)


@st.composite
def _general_data(draw):
    """Anisotropic Gaussians (analytic or finite-difference derivatives, an
    offset on the velocity) with support radii 4, 6 or 8 drawn per field."""
    u0, u1 = (
        _aniso_gaussian(
            draw(st.floats(-2.0, 2.0)),
            draw(st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3)),
            draw(st.lists(st.floats(0.5, 2.0), min_size=3, max_size=3)),
            draw(st.sampled_from([4.0, 6.0, 8.0])),
            draw(st.booleans()),
        )
        for _ in range(2)
    )
    if draw(st.booleans()):
        u1 = Field3D(
            fn=lambda p, f=u1: f(p) + 0.5,
            grad=u1.gradient,
            laplacian=u1.laplace,
            support_radius=u1.support_radius,
        )
    return CauchyData(u0, u1)


class TestCaseTable:
    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([41, 81, 161]), st.sampled_from([4.0, 8.0]))
    def test_radial_verdicts_equal_per_verdict_slacks(self, data, n, r_max):
        grid = RadialGrid.uniform(r_max, n)
        u, v = data.draw(_radial_data(grid)), data.draw(_radial_data(grid))
        a = data.draw(st.floats(-3.0, 0.0))
        pairs = [
            (radial_positivity, _reference_radial_positivity, (u, True)),
            (radial_positivity, _reference_radial_positivity, (u, False)),
            (radial_bounds, _reference_radial_bounds, (u, a, a + 4.0)),
            (outgoing_check, _reference_outgoing_check, (u,)),
            (supercritical_envelope, _reference_supercritical_envelope, (u, 4, 0.0)),
            (supercritical_envelope, _reference_supercritical_envelope, (u, 6, 0.5)),
        ]
        pairs += [(focusing_domination, _reference_focusing_domination, (u, v, c)) for c in _CASES]
        pairs += [(focusing_domination, _reference_focusing_domination, (u, u, c)) for c in _CASES]
        _assert_same_verdicts(pairs)

    @settings(max_examples=15, deadline=None)
    @given(_general_data(), _general_data())
    def test_general_verdicts_equal_per_verdict_slacks(self, u, v):
        pairs = [
            (nonradial_momentum, _reference_nonradial_momentum, (u,)),
            (nonradial_laplacian, _reference_nonradial_laplacian, (u, True, False)),
            (supercritical_envelope, _reference_supercritical_envelope, (u, 4, 0.0)),
            (supercritical_envelope, _reference_supercritical_envelope, (u, 4, 0.5)),
            (focusing_domination, _reference_focusing_domination, (u, v, "iii")),
            (focusing_domination, _reference_focusing_domination, (u, v, "iv")),
        ]
        _assert_same_verdicts(pairs)

    def test_domination_samples_to_the_largest_support_radius(self):
        # only v's velocity reaches past u's support radius 4, and only there
        # does it beat u₁ = 1: shells out to u's radius alone would pass
        u = CauchyData(ball(0.0, R=4.0), ball(1.0, R=4.0))
        far = _aniso_gaussian(2.0, [0.0, 0.0, 5.0], [0.5, 0.5, 0.5], 8.0, True)
        v = CauchyData(ball(0.0, R=4.0), far)
        _assert_same_verdicts(
            [(focusing_domination, _reference_focusing_domination, (u, v, c)) for c in ("iii", "iv")]
        )
        verdict = focusing_domination(u, v, "iii")
        assert not verdict.holds
        assert np.linalg.norm(verdict.witness[0]) > 4.0

    def test_kato_bound_equals_per_verdict_fields(self):
        data = CauchyData(soliton3d(R=6.0), gaussian3d(R=4.0))
        _assert_same_verdicts(
            [(nonradial_laplacian, _reference_nonradial_laplacian, (data, True, True))]
        )

    def test_pole_rules(self):
        # iv refuses a pole at once (no spline); iii compares the moments
        # after building its splines, then reads the origin as +inf
        smooth = radial_pair(lambda r: np.exp(-(r**2)), lambda r: 0.1 * np.exp(-(r**2)))
        pole = CauchyData(soliton_field(), soliton_velocity())
        half = RadialField.from_moment(GRID, 0.5 * np.exp(-(GRID.nodes**2)))
        weak = CauchyData(soliton_field(), half)
        pairs = [
            (focusing_domination, _reference_focusing_domination, (x, y, c))
            for x, y in ((pole, smooth), (smooth, pole), (pole, pole), (pole, weak))
            for c in ("iii", "iv")
        ]
        _assert_same_verdicts(pairs)
        assert focusing_domination(smooth, pole, "iii").margin == -math.inf
        assert focusing_domination(pole, weak, "iii").margin > -math.inf
        assert _splines_and_outcome(focusing_domination, pole, smooth, "iv")[0] == 0
        assert _splines_and_outcome(focusing_domination, smooth, pole, "iii")[0] == 4
