"""Shell reduction, d'Alembert splitting, exact transport, spherical means."""

import numpy as np
import pytest
from scipy.interpolate import CubicSpline, PPoly
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavecrit import (
    CauchyData,
    ExtentError,
    Field3D,
    FreePropagator,
    GridError,
    RadialField,
    RadialGrid,
    as_general,
    build_profile,
    builtin_nonlinearity,
    dalembert_split,
    evaluate_at_origin_nonradial,
    kato_norm,
    lift_from_line,
    local_envelope,
    outgoing_velocity,
    propagate_radial,
    reduce_to_line,
    solve_null,
    time_translate_split,
    wave_energy,
)


def grid(r_max=12.0, n=1201):
    return RadialGrid.uniform(r_max, n)


def bump_at(center, width=4.0):
    return lambda r: np.exp(-width * (r - center) ** 2)


def zero(r):
    return np.zeros_like(r)


class TestShellReduction:
    def test_constant(self):
        u = RadialField.from_callable(grid(), lambda r: np.ones_like(r))
        np.testing.assert_allclose(reduce_to_line(u).values, 1.0, atol=1e-12)

    def test_gaussian(self):
        g = grid()
        u = RadialField.from_callable(g, lambda r: np.exp(-(r**2)))
        expect = (1 - 2 * g.nodes**2) * np.exp(-(g.nodes**2))
        np.testing.assert_allclose(reduce_to_line(u).values, expect, atol=1e-6)

    def test_roundtrip(self):
        g = grid()
        u = RadialField.from_callable(g, lambda r: np.cos(r) * np.exp(-r / 2))
        back = lift_from_line(reduce_to_line(u))
        np.testing.assert_allclose(back.values, u.values, atol=1e-6)

    def test_rejects_odd_profile(self):
        u = RadialField(grid(n=9, r_max=4.0), np.arange(9.0), parity="odd")
        with pytest.raises(ValueError):
            reduce_to_line(u)


class TestLift:
    def test_constant(self):
        U = RadialField.from_callable(grid(), lambda r: np.ones_like(r))
        np.testing.assert_allclose(lift_from_line(U).values, 1.0, atol=1e-12)

    def test_cubic(self):
        g = grid(4.0, 401)
        U = RadialField.from_callable(g, lambda r: 3 * r**2)
        np.testing.assert_allclose(lift_from_line(U).values, g.nodes**2, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-2, 2), b=st.floats(-2, 2),
        c=st.floats(0.3, 2), rho=st.floats(0.5, 6),
    )
    def test_roundtrip_random_smooth(self, a, b, c, rho):
        g = grid()
        U = RadialField.from_callable(
            g, lambda r: a * np.exp(-c * (r - rho) ** 2) + b / (1 + r**2)
        )
        back = reduce_to_line(lift_from_line(U))
        np.testing.assert_allclose(back.values, U.values, atol=1e-6)


class TestDalembertSplit:
    def test_zero_velocity_halves(self):
        g = grid()
        data = CauchyData.from_callables(g, bump_at(4.0), zero)
        pair = dalembert_split(data)
        shell = reduce_to_line(data.u0).values
        np.testing.assert_allclose(pair.plus.values, shell / 2, atol=1e-12)
        np.testing.assert_allclose(pair.minus.values, shell / 2, atol=1e-12)

    def test_expanding_data_is_pure_outward(self):
        g = grid()
        u0 = RadialField.from_callable(g, bump_at(5.0))
        data = CauchyData(u0, outgoing_velocity(u0, "expanding"))
        pair = dalembert_split(data)
        np.testing.assert_allclose(pair.minus.values, 0.0, atol=1e-10)
        np.testing.assert_allclose(
            pair.plus.values, reduce_to_line(u0).values, atol=1e-10
        )

    def test_collapsing_data_is_pure_inward(self):
        g = grid()
        u0 = RadialField.from_callable(g, bump_at(5.0))
        data = CauchyData(u0, outgoing_velocity(u0, "collapsing"))
        pair = dalembert_split(data)
        np.testing.assert_allclose(pair.plus.values, 0.0, atol=1e-10)

    @settings(max_examples=25, deadline=None)
    @given(
        a=st.floats(-3, 3), rho=st.floats(0.0, 6.0),
        b=st.floats(-3, 3), sig=st.floats(0.5, 3),
    )
    def test_reconstruction_identity(self, a, rho, b, sig):
        g = grid()
        data = CauchyData.from_callables(
            g,
            lambda r: a * np.exp(-((r - rho) ** 2)),
            lambda r: b * np.exp(-((r / sig) ** 2)),
        )
        pair = dalembert_split(data)
        total = pair.plus.values + pair.minus.values
        np.testing.assert_allclose(total, reduce_to_line(data.u0).values, atol=1e-12)
        np.testing.assert_allclose(
            pair.velocity_moment(), data.u1.moment(), atol=1e-12
        )

    def test_recombine_inverts_split(self):
        g = grid()
        data = CauchyData.from_callables(g, bump_at(3.0), bump_at(5.0, 2.0))
        back = dalembert_split(data).recombine()
        np.testing.assert_allclose(back.u0.values, data.u0.values, atol=1e-8)
        np.testing.assert_allclose(back.u1.values, data.u1.values, atol=1e-8)

    def test_pole_velocity_roundtrip(self):
        # velocity with a 1/r pole: r·u1 → u0(0) as r → 0
        g = grid()
        u0 = RadialField.from_callable(g, bump_at(0.0, 1.0))
        u1 = outgoing_velocity(u0, "expanding")
        assert u1.origin_moment == pytest.approx(-1.0)
        back = dalembert_split(CauchyData(u0, u1)).recombine()
        assert back.u1.origin_moment == pytest.approx(-1.0, rel=1e-8)
        np.testing.assert_allclose(back.u1.values[1:], u1.values[1:], atol=1e-7)


class TestPropagation:
    def test_constant_solution(self):
        data = CauchyData.from_callables(grid(), lambda r: np.ones_like(r), zero)
        for t in (0.5, 3.0, -2.0):
            u = propagate_radial(data, t)
            np.testing.assert_allclose(u.values, 1.0, atol=1e-12)

    def test_expanding_translation(self):
        # pure outward transport: u(r,t) = ((r-t)/r) u0(r-t), zero inside the cone
        g = grid()
        f0 = bump_at(4.0)
        u0 = RadialField.from_callable(g, f0)
        data = CauchyData(u0, outgoing_velocity(u0, "expanding"))
        prop = FreePropagator(data)
        t = 2.5
        r_out = g.nodes[g.nodes > t]
        np.testing.assert_allclose(
            prop.at(r_out, t), (r_out - t) / r_out * f0(r_out - t), atol=1e-6
        )
        r_in = g.nodes[(g.nodes > 0) & (g.nodes <= t)]
        np.testing.assert_allclose(prop.at(r_in, t), 0.0, atol=1e-12)

    def test_initial_state_reproduced(self):
        data = CauchyData.from_callables(grid(), bump_at(3.0), bump_at(4.0, 2.0))
        prop = FreePropagator(data)
        st0 = prop.state(0.0)
        np.testing.assert_allclose(st0.u0.values, data.u0.values, atol=1e-8)
        np.testing.assert_allclose(st0.u1.values, data.u1.values, atol=1e-8)

        # pole velocities: u(0, 0) = u0(0) pins the y = 0 reflection convention
        u0 = RadialField.from_callable(grid(), lambda r: np.exp(-(r**2)))
        for orientation in ("expanding", "collapsing"):
            data = CauchyData(u0, outgoing_velocity(u0, orientation))
            assert data.u1.origin_moment != 0.0
            prop = FreePropagator(data)
            assert prop.origin(0.0) == pytest.approx(u0.values[0], abs=1e-12)
            st0 = prop.state(0.0)
            np.testing.assert_allclose(st0.u0.values, u0.values, atol=1e-8)
            np.testing.assert_allclose(st0.u1.moment(), data.u1.moment(), atol=1e-8)
            assert st0.u1.origin_moment == pytest.approx(
                data.u1.origin_moment, abs=1e-12
            )
            assert wave_energy(st0) == pytest.approx(wave_energy(data), rel=1e-6)

    def test_velocity_sign_forward_in_time(self):
        # u_t(·,0⁺) must match u1, not -u1
        data = CauchyData.from_callables(grid(), bump_at(3.0), bump_at(3.0, 2.0))
        prop = FreePropagator(data)
        eps = 1e-5
        probe = 3.0
        ut = (prop.at(probe, eps) - prop.at(probe, -eps)) / (2 * eps)
        assert ut == pytest.approx(np.exp(0.0), rel=1e-4)  # u1(3) = 1

    def test_neumann_at_origin(self):
        data = CauchyData.from_callables(grid(), bump_at(2.0), bump_at(1.5, 2.0))
        prop = FreePropagator(data)
        for t in (0.3, 1.0, 2.7):
            h = 1e-4
            slope = (-3 * prop.shell(0.0, t) + 4 * prop.shell(h, t) - prop.shell(2 * h, t)) / (
                2 * h
            )
            assert abs(slope) < 1e-6

    def test_energy_conserved(self):
        data = CauchyData.from_callables(grid(), bump_at(3.0), bump_at(4.0, 2.0))
        prop = FreePropagator(data)
        e0 = prop.energy(0.0)
        for t in (0.5, 1.0, 2.0, -1.5):
            assert abs(prop.energy(t) - e0) < 1e-8 * e0

    def test_group_property(self):
        data = CauchyData.from_callables(grid(), bump_at(4.0), bump_at(5.0, 2.0))
        one_hop = propagate_radial(data, 1.7)
        two_hop = propagate_radial(FreePropagator(data).state(0.9), 0.8)
        np.testing.assert_allclose(two_hop.values, one_hop.values, atol=1e-7)

    def test_extent_error(self):
        data = CauchyData.from_callables(grid(4.0, 101), bump_at(1.0), zero)
        with pytest.raises(ExtentError):
            propagate_radial(data, 5.0)

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("check", ["propagate_radial", "time_translate_split", "solve_null"])
    def test_extent_checks_agree(self, check, sign):
        # every check of the trusted radius raises one message and payload
        # from the time on where nothing is trusted, |t| = r_max
        data = CauchyData.from_callables(grid(4.0, 101), bump_at(1.0), zero)
        run = {
            "propagate_radial": lambda t: propagate_radial(data, t),
            "time_translate_split": lambda t: time_translate_split(dalembert_split(data), t),
            "solve_null": lambda t: solve_null(
                data, build_profile(builtin_nonlinearity("const", 1.0)), t),
        }[check]
        run(sign * np.nextafter(4.0, 0.0))  # one node is trusted
        with pytest.raises(ExtentError) as info:
            run(sign * 4.0)
        assert str(info.value) == "insufficient grid extent: |t| = 4 reaches r_max = 4"
        assert (info.value.time, info.value.r_max) == (sign * 4.0, 4.0)

    def test_truncation_flagged(self):
        data = CauchyData.from_callables(grid(4.0, 101), bump_at(1.0), zero)
        _, info = propagate_radial(data, 1.0, full_output=True)
        assert info.truncated
        assert info.trusted_radius == pytest.approx(3.0)

    def test_wave_energy_matches_propagator(self):
        data = CauchyData.from_callables(grid(), bump_at(3.0), bump_at(4.0, 2.0))
        assert wave_energy(data) == pytest.approx(FreePropagator(data).energy(0.0), rel=1e-6)

    def test_pole_velocity_energy(self):
        # (0, c(Q_r + Q/r)) has finite energy ∫ (r u1)² dr despite the pole
        g = grid()
        u0 = RadialField(g, np.zeros(g.n))
        moment = 3 * np.sqrt(3) * (3 + g.nodes**2) ** -1.5  # (rQ)'
        vals = np.empty(g.n)
        vals[1:] = moment[1:] / g.nodes[1:]
        vals[0] = vals[1]
        u1 = RadialField(g, vals, origin_moment=1.0)
        e = wave_energy(CauchyData(u0, u1))
        assert np.isfinite(e) and e > 0
        prop = FreePropagator(CauchyData(u0, u1))
        assert prop.energy(0.0) == pytest.approx(e, rel=1e-5)


class TestTimeTranslate:
    def test_identity_at_zero(self):
        u0 = RadialField.from_callable(grid(), lambda r: np.exp(-(r**2)))
        for data in (
            CauchyData.from_callables(grid(), bump_at(4.0), bump_at(3.0, 2.0)),
            CauchyData(u0, outgoing_velocity(u0, "expanding")),
            CauchyData(u0, outgoing_velocity(u0, "collapsing")),
        ):
            pair = dalembert_split(data)
            out = time_translate_split(pair, 0.0)
            np.testing.assert_allclose(out.plus.values, pair.plus.values, atol=1e-10)
            np.testing.assert_allclose(out.minus.values, pair.minus.values, atol=1e-10)

    def test_inward_profile_advances(self):
        # for t0 > 0 the inward profile is sampled at r + t0
        g = grid()
        pair = dalembert_split(
            CauchyData.from_callables(g, bump_at(6.0), bump_at(6.0, 2.0))
        )
        t0 = 1.25
        out = time_translate_split(pair, t0)
        r = g.nodes[g.nodes + t0 <= g.r_max]
        expect = np.interp(r + t0, g.nodes, pair.minus.values)
        np.testing.assert_allclose(out.minus.values[: r.size], expect, atol=1e-6)

    def test_consistency_with_propagation(self):
        g = grid()
        data = CauchyData.from_callables(g, bump_at(4.0), bump_at(5.0, 2.0))
        for t0 in (1.4, -2.2):
            translated = time_translate_split(dalembert_split(data), t0).recombine()
            direct = propagate_radial(data, t0)
            keep = g.nodes < g.r_max - abs(t0)
            np.testing.assert_allclose(
                translated.u0.values[keep], direct.values[keep], atol=1e-7
            )

    def test_composes(self):
        pair = dalembert_split(
            CauchyData.from_callables(grid(), bump_at(5.0), bump_at(4.0, 2.0))
        )
        twice = time_translate_split(time_translate_split(pair, 0.7), 0.6)
        once = time_translate_split(pair, 1.3)
        keep = slice(0, 1000)  # away from the frozen outer edge
        np.testing.assert_allclose(
            twice.plus.values[keep], once.plus.values[keep], atol=1e-6
        )


class _HalfProfile:
    """Reference evaluation (the former propagator): one split profile on
    y ≥ 0 from cubic splines on [0, ρ] (value, primitive, slope), frozen at
    the boundary value beyond ρ.  The kinds value_size and slope_size give
    Σ_k |c_k| (y - y_i)^k, the size of the terms a spline value sums."""

    def __init__(self, nodes, values):
        self.rho = float(nodes[-1])
        self.value = CubicSpline(nodes, values)
        self.primitive = self.value.antiderivative()
        self.slope = self.value.derivative()
        self.value_size = PPoly(np.abs(self.value.c), self.value.x)
        self.slope_size = PPoly(np.abs(self.slope.c), self.slope.x)
        self.end = float(values[-1])
        self.primitive_end = float(self.primitive(self.rho))

    def __call__(self, y, kind):
        inside = y <= self.rho
        x = np.minimum(y, self.rho)
        if kind == "value":
            return np.where(inside, self.value(x), self.end)
        if kind == "primitive":
            beyond = self.primitive_end + (y - self.rho) * self.end
            return np.where(inside, self.primitive(x), beyond)
        if kind == "value_size":
            return np.where(inside, self.value_size(x), abs(self.end))
        if kind == "slope_size":
            return np.where(inside, self.slope_size(x), 0.0)
        return np.where(inside, self.slope(x), 0.0)


def _reflected(y, front, back, kind="value"):
    """front(y) for y ≥ 0, back(|y|) through the origin for y < 0, odd for
    the primitive and the slope."""
    y = np.asarray(y, dtype=float)
    a = np.abs(y)
    behind = back(a, kind)
    if kind != "value":
        behind = -behind
    return np.where(y >= 0, front(a, kind), behind)


def _reference_evaluators(pair):
    p = _HalfProfile(pair.grid.nodes, pair.plus.values)
    m = _HalfProfile(pair.grid.nodes, pair.minus.values)
    return {
        "displacement": lambda r, t: _reflected(r - t, p, m, "primitive")
        + _reflected(r + t, m, p, "primitive"),
        "displacement_t": lambda r, t: -_reflected(r - t, p, m) + _reflected(r + t, m, p),
        "shell": lambda r, t: _reflected(r - t, p, m) + _reflected(r + t, m, p),
        "origin": lambda ts: _reflected(-ts, p, m) + _reflected(ts, m, p),
        "origin_t": lambda ts: -_reflected(-ts, p, m, "slope")
        + _reflected(ts, m, p, "slope"),
        "origin_size": lambda ts: np.abs(_reflected(-ts, p, m, "value_size"))
        + np.abs(_reflected(ts, m, p, "value_size")),
        "origin_t_size": lambda ts: np.abs(_reflected(-ts, p, m, "slope_size"))
        + np.abs(_reflected(ts, m, p, "slope_size")),
    }


def _random_data(n, r_max, kind, a, b, c, width, graded=False):
    g = RadialGrid.graded(r_max, n, 2.0) if graded else RadialGrid.uniform(r_max, n)
    u0 = RadialField.from_callable(
        g, lambda r: a * np.exp(-(((r - c) / width) ** 2)) + b / (1 + r**2)
    )
    if kind == "regular":
        u1 = RadialField.from_callable(g, lambda r: b * np.exp(-((r - a) ** 2)))
    else:  # a 1/r pole whenever u0(0) != 0
        u1 = outgoing_velocity(u0, kind)
    return CauchyData(u0, u1)


def _line_tolerance(size):
    """2e-15 of the largest size (of the reference values, or of the terms
    they sum), at least of the smallest normal number, and at least 16
    subnormal steps: below the smallest normal number each rounding errs by
    up to half of 5e-324 whatever the size of its operands, so on subnormal
    data the few dozen roundings of both evaluations together can exceed
    the relative bound.  Seen: 12 steps for origin_t of
    a = 1.1125369292536007e-308."""
    scale = max(float(np.max(np.abs(size))) or 1.0, np.finfo(float).tiny)
    return max(2e-15 * scale, 16 * 5e-324)


class TestLinePrimitives:
    """Ψ_out and Ψ_in against the half-line reference evaluation."""

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(161, 1601),
        r_max=st.floats(2.0, 12.0),
        kind=st.sampled_from(["regular", "expanding", "collapsing"]),
        a=st.floats(-2.0, 2.0),
        b=st.floats(-2.0, 2.0),
        c=st.floats(0.0, 4.0),
        width=st.floats(0.3, 2.0),
        graded=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # subnormal amplitudes: the relative tolerance needs a floor at the
    # smallest normal number, and an absolute one of a few subnormal steps
    @example(n=161, r_max=2.0, kind="regular", a=0.0, b=5e-324, c=0.0, width=1.0,
             graded=False, seed=0)
    @example(n=161, r_max=2.0, kind="regular", a=1.1125369292536007e-308, b=0.0, c=0.0,
             width=1.0, graded=False, seed=0)
    # outgoing data: at t = 2.878, u(0, t) = 2 U_minus(t) = -2.2e-18 sums
    # spline terms of size 6.4e-16, and the evaluations differ by 6.2e-33
    @example(n=161, r_max=8.0, kind="expanding", a=1.0, b=0.0, c=3.0, width=0.3125,
             graded=True, seed=754)
    def test_matches_half_line_reference(self, n, r_max, kind, a, b, c, width, graded, seed):
        data = _random_data(n, r_max, kind, a, b, c, width, graded)
        prop = FreePropagator(data)
        ref = _reference_evaluators(dalembert_split(data))
        rho = data.grid.r_max
        rng = np.random.default_rng(seed)
        # nodes, zero and random radii; r ± t reaches beyond ±2ρ, where the
        # straight end pieces are extrapolated
        r = np.concatenate([[0.0], data.grid.nodes[:: max(1, n // 50)],
                            rng.uniform(0.0, 1.5 * rho, 200)])
        ts = np.concatenate([[0.0, rho, -rho, 0.5 * rho, 2.5 * rho, -2.5 * rho],
                             rng.uniform(-1.5 * rho, 1.5 * rho, 8)])
        R, T = r[None, :], ts[:, None]
        for name in ("displacement", "displacement_t", "shell"):
            got, want = getattr(prop, name)(R, T), ref[name](R, T)
            assert np.max(np.abs(got - want)) <= _line_tolerance(want), name
        w, w_ref = prop.displacement(R, T), ref["displacement"](R, T)
        ahead = np.broadcast_to(R >= np.abs(T), w.shape)
        assert np.array_equal(w[ahead], w_ref[ahead])
        for name in ("origin", "origin_t"):
            # u_t(0, ·) jumps at |t| = ρ, where the frozen extension starts;
            # both give the inside limit there.  Each value sums spline terms
            # that cancel to a rounding residue for outgoing data, so the bound
            # scales with those terms, not with the residue
            got, want = getattr(prop, name)(ts), ref[name](ts)
            assert np.max(np.abs(got - want)) <= _line_tolerance(ref[name + "_size"](ts)), name

    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(161, 801),
        kind=st.sampled_from(["regular", "expanding", "collapsing"]),
        a=st.floats(-2.0, 2.0),
        b=st.floats(-2.0, 2.0),
        c=st.floats(0.0, 4.0),
        t=st.floats(-15.0, 15.0),
    )
    def test_time_mirror_is_exact(self, n, kind, a, b, c, t):
        # (u0, -u1) evolves as (u0, u1) run backwards, bit for bit
        data = _random_data(n, 8.0, kind, a, b, c, 1.0)
        u1 = data.u1
        mirrored = CauchyData(
            data.u0, RadialField(data.grid, -u1.values, origin_moment=-u1.origin_moment)
        )
        r = np.concatenate([data.grid.nodes, np.linspace(0.0, 12.0, 97)])
        assert np.array_equal(FreePropagator(mirrored).at(r, -t), FreePropagator(data).at(r, t))

    @pytest.mark.parametrize("orientation", ["expanding", "collapsing"])
    def test_field_t_keeps_origin_slope_off_zero(self, orientation):
        # the 1/r pole of a pole velocity lives at t = 0 only
        u0 = RadialField.from_callable(RadialGrid.uniform(8.0, 801), lambda r: np.exp(-(r**2)))
        prop = FreePropagator(CauchyData(u0, outgoing_velocity(u0, orientation)))
        for t in (0.5, -0.7, 1.3):
            ut = prop.field_t(t)
            assert ut.values[0] == prop.origin_t(t)
            assert ut.origin_moment == 0.0
        assert prop.field_t(0.0).origin_moment != 0.0


def test_origin_t_at_the_grid_end_is_the_inside_limit():
    # u_t(0, ·) jumps to 0 at |t| = ρ; exactly there it keeps the inside
    # limit, not half of it
    data = CauchyData.from_callables(
        RadialGrid.uniform(8.0, 801),
        lambda r: np.exp(-((r - 6) ** 2)),
        lambda r: np.exp(-((r - 7) ** 2)),
    )
    prop = FreePropagator(data)
    for t, inside in ((8.0, -3.614), (-8.0, -7.423)):
        assert prop.origin_t(t) == pytest.approx(inside, abs=5e-4)
        assert prop.origin_t(t - np.sign(t) * 1e-9) == pytest.approx(prop.origin_t(t), rel=1e-8)
        assert prop.origin_t(t + np.sign(t) * 1e-9) == 0.0
        assert prop.field_t(t).values[0] == prop.origin_t(t)


def _at_with_origin_limit(prop, r, t):
    """FreePropagator.at as it was before it skipped the origin limit on
    positive radii: the oracle of that skip."""
    r = np.asarray(r, dtype=float)
    w = prop.displacement(r, t)
    out = np.where(r > 0, w / np.where(r > 0, r, 1.0), prop.shell(0.0, t))
    return out if out.ndim else float(out)


class TestPositiveRadii:
    @settings(max_examples=30, deadline=None)
    @given(
        n=st.integers(161, 801),
        kind=st.sampled_from(["regular", "expanding", "collapsing"]),
        a=st.floats(-2.0, 2.0),
        b=st.floats(-2.0, 2.0),
        c=st.floats(0.0, 4.0),
        t=st.floats(-15.0, 15.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_at_equals_the_origin_limit_form(self, n, kind, a, b, c, t, seed):
        # strictly positive radii skip the origin limit shell(0, t); radii
        # with the origin keep it; both bitwise equal to the np.where form,
        # scalars, rows and (times × radii) broadcasts alike
        data = _random_data(n, 8.0, kind, a, b, c, 1.0)
        prop = FreePropagator(data)
        rng = np.random.default_rng(seed)
        positive = np.concatenate([[1e-300, 1e-12], data.grid.nodes[1:],
                                   rng.uniform(0.0, 12.0, 200)])
        positive = positive[positive > 0.0]
        times = np.concatenate([[t, 0.0, -t], rng.uniform(-12.0, 12.0, 5)])
        cases = [
            (positive, t),
            (positive[None, :], times[:, None]),
            (float(positive[-1]), t),
            (data.grid.nodes, t),
            (np.append(positive, 0.0)[None, :], times[:, None]),
        ]
        for r, at_t in cases:
            got, want = prop.at(r, at_t), _at_with_origin_limit(prop, r, at_t)
            assert type(got) is type(want)
            assert np.array_equal(got, want)


_AMPLITUDE = st.one_of(st.just(0.0), st.floats(0.01, 2.0), st.floats(-2.0, -0.01))


class TestLattice:
    """FreePropagator.lattice: the free wave at the nodes and the times j·h,
    read from the pieces at the characteristic feet."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(8, 401),
        r_max=st.floats(0.5, 12.0),
        fill=st.floats(0.0, 1.0),
        kind=st.sampled_from(["regular", "expanding", "collapsing"]),
        a=_AMPLITUDE,
        b=_AMPLITUDE,
        c=st.floats(0.0, 4.0),
        width=st.floats(0.3, 2.0),
    )
    def test_matches_at_on_the_lattice(self, n, r_max, fill, kind, a, b, c, width):
        # horizons from 0 to r_max; expanding and collapsing data carry a 1/r
        # velocity pole when u0(0) != 0.  at() evaluates the piece its search
        # finds for r ± t, which rounding may put on either side of the
        # breakpoint; the difference, a few roundings of Ψ = O(ρ max|u|), is
        # magnified by 1/r_1 = (n - 1)/ρ, so the bound is 8 n ε max|u|
        data = _random_data(n, r_max, kind, a, b, c, width)
        n_t = 1 + round(fill * (n - 1))
        prop = FreePropagator(data)
        times = data.grid.nodes[1] * np.arange(n_t)
        want = prop.at(data.grid.nodes[:, None], times[None, :])
        got = prop.lattice(n_t)
        assert got.shape == want.shape == (n, n_t)
        assert np.array_equal(got[:, 0], want[:, 0])  # feet on the nodes, s = 0
        bound = 8 * n * np.finfo(float).eps * np.max(np.abs(want))
        assert np.max(np.abs(got - want)) <= bound

    def test_needs_a_uniform_grid_and_no_more_times_than_nodes(self):
        graded = FreePropagator(_random_data(161, 8.0, "regular", 1.0, 0.5, 1.0, 1.0, graded=True))
        with pytest.raises(GridError, match="uniform radial grid"):
            graded.lattice(10)
        prop = FreePropagator(_random_data(41, 2.0, "expanding", 1.0, 0.5, 1.0, 1.0))
        assert prop.lattice(41).shape == (41, 41)
        with pytest.raises(ExtentError, match="more time columns than nodes"):
            prop.lattice(42)


def ball_one() -> Field3D:
    return Field3D(
        fn=lambda p: np.where(np.linalg.norm(np.atleast_2d(p), axis=1) < 2.0, 1.0, 0.0),
        grad=lambda p: np.zeros_like(np.atleast_2d(p)),
        laplacian=lambda p: np.zeros(np.atleast_2d(p).shape[0]),
        support_radius=2.0,
    )


def zero3d() -> Field3D:
    return Field3D(
        fn=lambda p: np.zeros(np.atleast_2d(p).shape[0]),
        grad=lambda p: np.zeros_like(np.atleast_2d(p)),
        laplacian=lambda p: np.zeros(np.atleast_2d(p).shape[0]),
        support_radius=2.0,
    )


class TestOriginEvaluation:
    def test_locally_constant(self):
        data = CauchyData(ball_one(), zero3d())
        for t in (0.0, 0.25, -0.5):
            assert evaluate_at_origin_nonradial(data, t, form="mean") == pytest.approx(1.0)

    def test_mean_matches_radial_propagation(self):
        g = grid(10.0, 1001)
        data = CauchyData.from_callables(g, bump_at(2.0, 1.0), bump_at(1.0, 1.0))
        prop = FreePropagator(data)
        for t in (0.4, 1.3, -0.8):
            val = evaluate_at_origin_nonradial(data, t, form="mean")
            assert val == pytest.approx(prop.origin(t), abs=1e-6)

    def test_laplacian_form_agrees(self):
        g = grid(10.0, 1001)
        data = CauchyData.from_callables(g, bump_at(2.0, 1.0), bump_at(1.0, 1.0))
        prop = FreePropagator(data)
        for t in (0.0, 0.7, -1.1):
            val = evaluate_at_origin_nonradial(data, t, form="laplacian")
            assert val == pytest.approx(prop.origin(t), abs=5e-5)

    def test_unknown_form_rejected(self):
        data = CauchyData(ball_one(), zero3d())
        with pytest.raises(ValueError):
            evaluate_at_origin_nonradial(data, 0.1, form="kirchhoff")

    def test_sup_bound_by_kato_norms(self):
        # |u(0,t)| ≤ (1/4π)(‖Δu₀‖_K + ‖∇u₁‖_K) along a time probe
        g = grid(10.0, 1001)
        data = CauchyData.from_callables(g, bump_at(2.0, 1.0), bump_at(1.0, 1.0))
        general = as_general(data)
        lap_field = Field3D(fn=lambda p: general.u0.laplace(p), support_radius=10.0)
        grad_field = Field3D(
            fn=lambda p: np.linalg.norm(general.u1.gradient(p), axis=1),
            support_radius=10.0,
        )
        bound = (kato_norm(lap_field, n_side=61).value + kato_norm(grad_field, n_side=61).value) / (
            4 * np.pi
        )
        prop = FreePropagator(data)
        ts = np.linspace(-3, 3, 41)
        assert np.max(np.abs(prop.origin(ts))) <= bound


class TestLocalEnvelope:
    def test_constant_data(self):
        g = grid(4.0, 101)
        data = CauchyData.from_callables(g, lambda r: 2.5 * np.ones_like(r), zero)
        lo, hi = local_envelope(data, 3.0)
        assert lo == pytest.approx(2.5, abs=1e-9)
        assert hi == pytest.approx(2.5, abs=1e-9)

    def test_zero_horizon(self):
        g = grid(6.0, 301)
        data = CauchyData.from_callables(g, bump_at(2.0), bump_at(3.0, 2.0))
        lo, hi = local_envelope(data, 0.0)
        assert lo == pytest.approx(float(np.min(data.u0.values)))
        assert hi == pytest.approx(float(np.max(data.u0.values)))

    def test_contains_solution(self):
        g = grid()
        data = CauchyData.from_callables(g, bump_at(2.0), bump_at(3.0, 2.0))
        lo, hi = local_envelope(data, 1.0)
        prop = FreePropagator(data)
        for t in np.linspace(-1, 1, 9):
            u = prop.at(g.nodes, t)
            assert lo - 1e-9 <= np.min(u) and np.max(u) <= hi + 1e-9

    def test_pole_velocity_rejected(self):
        g = grid()
        u0 = RadialField.from_callable(g, bump_at(0.0, 1.0))
        data = CauchyData(u0, outgoing_velocity(u0, "expanding"))
        with pytest.raises(ValueError):
            local_envelope(data, 1.0)

    def test_callable_writing_its_points_raises(self):
        # the cube points are read-only: a fn that doubles them after sampling
        # would have the gradient and u1 sampled at doubled points, moving the
        # envelope to (-1.736, 2.736) without a word
        def gauss(p):
            return np.exp(-np.sum(p * p, axis=1))

        def doubling(p):
            v = gauss(p)
            p *= 2.0
            return v

        def grad(p):
            return -2.0 * p * gauss(p)[:, None]

        u1 = Field3D(fn=gauss, support_radius=4.0)
        clean = CauchyData(Field3D(fn=gauss, grad=grad, support_radius=4.0), u1)
        assert local_envelope(clean, 1.0) == pytest.approx((-1.858, 2.858), abs=1e-3)
        with pytest.raises(ValueError, match="read-only"):
            local_envelope(CauchyData(Field3D(fn=doubling, grad=grad, support_radius=4.0), u1), 1.0)
