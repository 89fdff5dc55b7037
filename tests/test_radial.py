"""Grids, fields, quadrature, Kato norms, and the radial inverse Laplacian."""

import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st
from scipy.fft import fft, ifft, irfft, rfft
from scipy.interpolate import CubicSpline
from scipy.special import erf

from wavecrit import (
    CauchyData,
    ExtentError,
    Field3D,
    GridError,
    KatoClassError,
    RadialField,
    RadialGrid,
    as_general,
    differentiate,
    field_from_csv,
    field_from_json,
    field_to_csv,
    field_to_json,
    integrate_radial,
    inverse_laplacian_radial,
    kato_norm,
    line_integral,
)
from wavecrit.criteria import _case_terms
from wavecrit.errors import WavecritError
from wavecrit.radial import (
    _cube_kernel_spectrum,
    _cube_potential,
    cube_points,
    cubic_spline,
    panel_cumulative,
    row_norm,
)

PI32 = np.pi ** 1.5  # 4π ∫₀^∞ e^{-r²} r² dr


def gaussian_field(r_max=10.0, n=801):
    g = RadialGrid.uniform(r_max, n)
    return RadialField.from_callable(g, lambda r: np.exp(-(r**2)))


class TestRadialGrid:
    def test_uniform_nodes(self):
        g = RadialGrid.uniform(5.0, 11)
        assert g.nodes[0] == 0.0
        assert g.r_max == 5.0
        np.testing.assert_allclose(np.diff(g.nodes), 0.5)

    def test_graded_concentrates_near_origin(self):
        g = RadialGrid.graded(100.0, 101, power=3.0)
        gaps = np.diff(g.nodes)
        assert gaps[0] < gaps[-1] / 100

    def test_refined_doubles_resolution(self):
        g = RadialGrid.uniform(1.0, 9)
        f = g.refined()
        assert f.n == 17
        np.testing.assert_allclose(f.nodes[::2], g.nodes)

    def test_rejects_bad_nodes(self):
        with pytest.raises(GridError):
            RadialGrid(np.array([0.0, 1.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
        with pytest.raises(GridError):
            RadialGrid(np.array([0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0]))


class TestRadialField:
    def test_moment_uses_origin_limit(self):
        g = RadialGrid.uniform(4.0, 9)
        f = RadialField.from_callable(g, lambda r: 1.0 / r, origin_moment=1.0)
        m = f.moment()
        assert m[0] == 1.0
        np.testing.assert_allclose(m[1:], 1.0)

    def test_rejects_nonfinite(self):
        g = RadialGrid.uniform(4.0, 9)
        vals = np.zeros(9)
        vals[3] = np.inf
        with pytest.raises(GridError):
            RadialField(g, vals)

    def test_values_read_only(self):
        f = gaussian_field(n=9, r_max=4.0)
        with pytest.raises(ValueError):
            f.values[0] = 2.0

    @settings(max_examples=40, deadline=None)
    @given(
        a=st.floats(-2, 2), b=st.floats(-2, 2), c=st.floats(0.3, 2),
        pole=st.one_of(st.just(0.0), st.floats(0.1, 3), st.floats(-3, -0.1)),
    )
    def test_from_moment_inverts_moment(self, a, b, c, pole):
        # even smooth part plus an optional 1/r pole of moment `pole`
        g = RadialGrid.uniform(8.0, 401)
        r = g.nodes
        values = a * np.exp(-c * r**2) + b / (1 + r**2)
        if pole != 0.0:
            values[1:] += pole / r[1:]
            values[0] = values[1]
        f = RadialField(g, values, origin_moment=pole)
        back = RadialField.from_moment(g, f.moment())
        assert back.origin_moment == f.origin_moment
        assert back.parity == "even"
        np.testing.assert_allclose(back.moment(), f.moment(), rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(back.values[1:], f.values[1:], rtol=1e-13, atol=1e-13)
        if pole == 0.0:
            # f(0) is the origin slope of the odd moment, exact to O(h^4)
            assert back.values[0] == pytest.approx(f.values[0], abs=1e-5)
        else:
            assert back.values[0] == back.values[1]


class TestDifferentiate:
    def test_gaussian(self):
        f = gaussian_field()
        d = differentiate(f)
        r = f.grid.nodes
        np.testing.assert_allclose(d.values, -2 * r * np.exp(-(r**2)), atol=5e-4)
        assert d.values[0] == 0.0
        assert d.parity == "odd"

    def test_odd_origin_slope(self):
        g = RadialGrid.uniform(2.0, 201)
        f = RadialField(g, g.nodes * np.exp(-g.nodes**2), parity="odd")
        d = differentiate(f)
        assert abs(d.values[0] - 1.0) < 1e-5

    def test_second_order_convergence(self):
        errs = []
        for n in (101, 201):
            g = RadialGrid.uniform(3.0, n)
            f = RadialField.from_callable(g, lambda r: np.cos(r))
            d = differentiate(f)
            errs.append(np.max(np.abs(d.values + np.sin(g.nodes))))
        order = np.log2(errs[0] / errs[1])
        assert 1.7 < order < 2.5


class TestIntegration:
    def test_gaussian_volume(self):
        val = integrate_radial(gaussian_field())
        np.testing.assert_allclose(val, PI32, rtol=1e-9)

    def test_ground_state_sextic(self):
        # 4π ∫ (1+r²/3)^{-3} r² dr = 3√3 π²/4
        g = RadialGrid.graded(1e4, 4001)
        q6 = RadialField.from_callable(g, lambda r: (1 + r**2 / 3) ** -3)
        val, info = integrate_radial(q6, tail="power", full_output=True)
        np.testing.assert_allclose(val, 3 * np.sqrt(3) * np.pi**2 / 4, rtol=1e-6)
        assert info.resolved

    def test_slow_tail_flagged(self):
        g = RadialGrid.uniform(50.0, 2001)
        f = RadialField.from_callable(g, lambda r: (1 + r) ** -4)
        val, info = integrate_radial(f, full_output=True)
        assert not info.resolved
        assert info.last_decade_fraction > 1e-6

    def test_power_tail_correction(self):
        g = RadialGrid.graded(200.0, 2001)
        f = RadialField.from_callable(g, lambda r: (1 + r**2) ** -2)
        plain = integrate_radial(f)
        fixed, info = integrate_radial(f, tail="power", full_output=True)
        exact = np.pi**2  # 4π ∫₀^∞ r²/(1+r²)² dr = 4π · π/4
        assert abs(fixed - exact) < abs(plain - exact)
        np.testing.assert_allclose(fixed, exact, rtol=1e-4)
        assert info.correction != 0.0

    def test_line_integral_premultiplied(self):
        g = RadialGrid.uniform(10.0, 801)
        val = line_integral(g, np.exp(-g.nodes))
        np.testing.assert_allclose(val, 4 * np.pi * (1 - np.exp(-10.0)), rtol=1e-8)


class TestPanelCumulative:
    def test_cosine(self):
        xs = np.linspace(0.0, 3.0, 31)
        vals = panel_cumulative(np.cos, xs)
        np.testing.assert_allclose(vals, np.sin(xs), atol=1e-12)

    def test_monotone_for_positive(self):
        xs = np.linspace(0.0, 5.0, 23)
        vals = panel_cumulative(lambda x: np.exp(-x), xs)
        assert np.all(np.diff(vals) > 0)


def _spline_grid(kind, n, seed):
    rng = np.random.default_rng(seed)
    span = 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "uniform":
        return np.linspace(0.0, span, n)
    if kind == "graded":
        return span * np.linspace(0.0, 1.0, n) ** rng.uniform(1.5, 4.0)
    gaps = rng.exponential(1.0, n - 1) + 1e-3
    return rng.uniform(-100.0, 100.0) + span * np.concatenate([[0.0], np.cumsum(gaps)])


class TestCubicSpline:
    """cubic_spline is scipy's not-a-knot CubicSpline, bit for bit: scipy
    stays the oracle, so a scipy release that changes its arithmetic fails
    here first."""

    @settings(max_examples=120, deadline=None)
    @given(
        kind=st.sampled_from(["uniform", "graded", "random"]),
        n=st.one_of(
            st.integers(4, 12), st.integers(13, 7000), st.sampled_from([161, 801, 1601, 6401])
        ),
        seed=st.integers(0, 2**32 - 1),
        lo=st.floats(-323.0, 300.0),
        width=st.floats(0.0, 300.0),
    )
    def test_equals_scipy(self, kind, n, seed, lo, width):
        x = _spline_grid(kind, n, seed)
        rng = np.random.default_rng(seed + 1)
        exponents = rng.uniform(lo, min(lo + width, 300.0), n)
        y = rng.standard_normal(n) * 10.0**exponents
        mids = 0.5 * (x[1:] + x[:-1])
        event(f"{kind}, n {'< 100' if n < 100 else '>= 100'}")
        with np.errstate(all="ignore"):
            try:
                want = CubicSpline(x, y)
            except ValueError:  # node slopes overflow
                event("slopes overflow")
                with pytest.raises(ValueError):
                    cubic_spline(x, y)
                return
            got = cubic_spline(x, y)
            assert got.x.tobytes() == want.x.tobytes()
            assert got.c.tobytes() == want.c.tobytes()
            for pts in (x, mids):
                assert got(pts).tobytes() == want(pts).tobytes()
            for a, b in (
                (got.derivative(1), want.derivative(1)),
                (got.derivative(2), want.derivative(2)),
                (got.antiderivative(), want.antiderivative()),
            ):
                assert a.c.tobytes() == b.c.tobytes()

    @pytest.mark.parametrize(
        "x, y",
        [
            ([0.0, 1.0, 2.0, 3.0], [0.0, np.nan, 1.0, 2.0]),
            ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, np.inf, 2.0]),
            ([0.0, 1.0, np.inf, 3.0], [0.0, 1.0, 2.0, 3.0]),
            ([0.0, 1.0, 2.0], [0.0, 1.0, 2.0]),
            ([0.0, 1.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0]),
            ([0.0, 2.0, 1.0, 3.0], [0.0, 1.0, 2.0, 3.0]),
            ([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 2.0]),
            ([[0.0, 1.0, 2.0, 3.0]], [[0.0, 1.0, 2.0, 3.0]]),
        ],
        ids=["nan-y", "inf-y", "inf-x", "three-nodes", "repeated-x", "decreasing-x",
             "short-y", "2d"],
    )
    def test_rejects_bad_input(self, x, y):
        with pytest.raises(ValueError):
            cubic_spline(np.asarray(x), np.asarray(y))

    def test_overflowing_slopes_raise_as_in_scipy(self):
        x, y = np.linspace(0.0, 1e-10, 6), 1e300 * (-1.0) ** np.arange(6)
        with np.errstate(all="ignore"):
            with pytest.raises(ValueError):
                CubicSpline(x, y)
            with pytest.raises(ValueError):
                cubic_spline(x, y)

    def test_leaves_inputs_unshared(self):
        x, y = np.linspace(0.0, 1.0, 9), np.arange(9.0)
        s = cubic_spline(x, y)
        x[:] = 0.0
        assert s.x[-1] == 1.0 and s.c[3, -1] == 7.0


def _reference_potential(masses, h):
    # O(n^6) direct sum: one pass over every sample per cell, the cell itself
    # weighted by the average of 1/|x| over the ball of one cell's volume
    n = masses.shape[0]
    xs = h * np.arange(n)
    X, Y, Z = np.meshgrid(xs, xs, xs, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])
    ball_radius = h * (3.0 / (4.0 * np.pi)) ** (1.0 / 3.0)
    singular_weight = 2.0 * np.pi * ball_radius**2 / h**3
    flat = masses.ravel()
    out = np.empty(flat.size)
    for k, c in enumerate(pts):
        dist = np.linalg.norm(pts - c, axis=1)
        near = dist < 0.5 * h
        inv = np.empty_like(dist)
        inv[~near] = 1.0 / dist[~near]
        inv[near] = singular_weight
        out[k] = np.dot(flat, inv)
    return out.reshape(masses.shape)


def _cube_lookup(values, L):
    # Field3D returning values[i, j, k] at the cube node nearest to each point
    h = 2.0 * L / (values.shape[0] - 1)

    def fn(p):
        i = np.rint((np.atleast_2d(p) + L) / h).astype(int)
        return values[i[:, 0], i[:, 1], i[:, 2]]

    return Field3D(fn=fn, support_radius=L)


class TestKatoNorm:
    def test_radial_gaussian(self):
        # sup at the origin: 4π ∫ e^{-r²} r dr = 2π
        res = kato_norm(gaussian_field())
        np.testing.assert_allclose(res.value, 2 * np.pi, rtol=1e-6)
        np.testing.assert_allclose(res.center, 0.0, atol=1e-12)
        assert res.resolved

    def test_origin_dominates_for_radial(self):
        # Newton: (1/y)∫₀^y f s² ds ≤ ∫₀^y f s ds, so the origin attains the sup
        g = RadialGrid.uniform(12.0, 1201)
        f = RadialField.from_callable(g, lambda r: np.exp(-8 * (r - 5.0) ** 2))
        res = kato_norm(f)
        np.testing.assert_allclose(res.center, 0.0, atol=1e-12)
        shell_mass = 4 * np.pi * np.trapezoid(f.values * g.nodes, g.nodes)
        np.testing.assert_allclose(res.value, shell_mass, rtol=1e-6)

    def test_nonintegrable_tail_rejected(self):
        # |f| r ~ 1/r over the last decade: the defining integral diverges
        g = RadialGrid.graded(10.0, 801)
        vals = np.empty_like(g.nodes)
        vals[1:] = 1.0 / g.nodes[1:] ** 2
        vals[0] = vals[1]
        with pytest.raises(KatoClassError):
            kato_norm(RadialField(g, vals))

    def test_nonintegrable_origin_rejected(self):
        # integrable volume but ∫₀ |f| s ds diverges at the origin
        g = RadialGrid.graded(10.0, 801)
        vals = np.empty_like(g.nodes)
        vals[1:] = np.exp(-g.nodes[1:]) / g.nodes[1:] ** 2
        vals[0] = vals[1]
        with pytest.raises(KatoClassError):
            kato_norm(RadialField(g, vals))

    def test_cube_matches_radial(self):
        f3 = Field3D(
            fn=lambda p: np.exp(-np.sum(np.atleast_2d(p) ** 2, axis=1)),
            support_radius=6.0,
        )
        res = kato_norm(f3, n_side=41)
        np.testing.assert_allclose(res.value, 2 * np.pi, rtol=0.05)

    def test_cube_finds_off_center_sup(self):
        # translation invariance: the sup is 2π, attained at the Gaussian's center
        c = np.array([0.7, -0.4, 0.2])
        f3 = Field3D(
            fn=lambda p: np.exp(-np.sum((np.atleast_2d(p) - c) ** 2, axis=1)),
            support_radius=6.0,
        )
        res = kato_norm(f3, n_side=41)
        np.testing.assert_allclose(res.value, 2 * np.pi, rtol=0.05)
        h = 12.0 / 40
        assert np.linalg.norm(res.center - c) <= np.sqrt(3.0) * h

    def test_cube_too_small_for_field_is_extent_error(self):
        # exp(-|x|²) is in the Kato class (norm 2π); a cube of half-side 1
        # cuts it off, so the outer shells grow and the cube says so
        f3 = Field3D(
            fn=lambda p: np.exp(-np.sum(np.atleast_2d(p) ** 2, axis=1)),
            support_radius=1.0,
        )
        with pytest.raises(ExtentError) as info:
            kato_norm(f3, n_side=41)
        masses = info.value.shell_masses
        assert masses.shape == (5,)
        assert masses[-1] > masses[-2] > masses[-3] > 0.0
        assert info.value.support_radius == 1.0

    @pytest.mark.parametrize("bad,cell", [
        (np.inf, (0.0, 0.0, 0.0)),
        (np.nan, (1.2, -0.6, 3.0)),
    ])
    def test_cube_rejects_nonfinite_samples(self, bad, cell):
        def fn(p):
            p = np.atleast_2d(p)
            out = np.exp(-np.sum(p**2, axis=1))
            out[np.linalg.norm(p - np.array(cell), axis=1) < 1e-9] = bad
            return out

        with pytest.raises(KatoClassError) as info:
            kato_norm(Field3D(fn=fn, support_radius=6.0), n_side=41)
        np.testing.assert_allclose(info.value.witness_point, cell, atol=1e-12)
        assert np.array_equal([info.value.witness_value], [bad], equal_nan=True)

    @settings(max_examples=40, deadline=None)
    @given(
        n_side=st.integers(3, 15),
        L=st.floats(0.5, 10.0),
        keep=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cube_potential_matches_direct_sum(self, n_side, L, keep, seed):
        rng = np.random.default_rng(seed)
        xs = np.linspace(-L, L, n_side)
        h = xs[1] - xs[0]
        r = np.sqrt(xs[:, None, None] ** 2 + xs[None, :, None] ** 2 + xs[None, None, :] ** 2)
        # the envelope keeps outer shells lighter, as the growth check asks
        shape = (n_side,) * 3
        values = rng.random(shape) * (rng.random(shape) < keep) * np.exp(-((r / (0.4 * L)) ** 2))
        masses = values * h**3
        ref = _reference_potential(masses, h)
        potential = _cube_potential(masses, h, _cube_kernel_spectrum(n_side))
        np.testing.assert_allclose(potential, ref, rtol=1e-12, atol=0.0)
        res = kato_norm(_cube_lookup(values, L), n_side=n_side)
        np.testing.assert_allclose(res.value, ref.max(), rtol=1e-12, atol=0.0)


def _reference_cube_potential(masses, h, spectrum):
    # each axis padded by a fresh copy as it is transformed: the oracle of
    # the in-place transforms in a reused workspace
    n = masses.shape[0]
    size = 2 * n - 2
    t = rfft(masses, n=size, axis=2)
    t = fft(t, n=size, axis=1)
    t = fft(t, n=size, axis=0)
    t *= spectrum
    t = ifft(t, axis=0, overwrite_x=True)[:n]
    t = ifft(t, axis=1)[:, :n]
    return irfft(t, n=size, axis=2)[:, :, :n] / h


def _reference_kato_cube(f, n_side):
    # the cube with its points by meshgrid and its radii by np.linalg.norm
    spectrum = _cube_kernel_spectrum(n_side)
    L = f.support_radius
    xs = np.linspace(-L, L, n_side)
    h = xs[1] - xs[0]
    pts = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1).reshape(-1, 3)
    samples = f(pts)
    bad = ~np.isfinite(samples)
    if np.any(bad):
        k = int(np.argmax(bad))
        raise KatoClassError(
            f"not in Kato class: sample {samples[k]} at cell {tuple(pts[k].tolist())}",
            witness_point=pts[k].copy(),
            witness_value=float(samples[k]),
        )
    vals = np.abs(samples) * h**3
    radii = np.linalg.norm(pts, axis=1)
    edges = np.linspace(0.0, L, 6)
    shells = np.array([
        vals[(radii >= lo) & (radii < hi)].sum() for lo, hi in zip(edges, edges[1:])
    ])
    total = vals.sum()
    if shells[-1] > shells[-2] > shells[-3] > 0:
        raise ExtentError(
            "Kato cube does not resolve the field: shell masses grow outward",
            shell_masses=shells,
            support_radius=L,
        )
    tail_fraction = float(shells[-1] / total) if total > 0 else 0.0
    potential = _reference_cube_potential(vals.reshape((n_side,) * 3), h, spectrum)
    cell = np.unravel_index(int(np.argmax(potential)), potential.shape)
    return (float(potential[cell]), xs[list(cell)], tail_fraction <= 0.05, tail_fraction)


def _outcome(run):
    # every field of a result, or the class, message and payload of an error
    try:
        res = run()
    except WavecritError as exc:
        return repr((type(exc).__name__, str(exc), sorted(
            (k, np.asarray(v).tolist()) for k, v in vars(exc).items())))
    if not isinstance(res, tuple):
        res = (res.value, res.center, res.resolved, res.tail_fraction)
    return repr((res[0], np.asarray(res[1]).tolist(), *res[2:]))


def _gaussian(center=(0.0, 0.0, 0.0), L=6.0):
    c = np.asarray(center)
    return Field3D(fn=lambda p: np.exp(-np.sum((p - c) ** 2, axis=1)), support_radius=L)


class TestCubeWorkspace:
    """The cube reuses one workspace per thread; results are bitwise those of
    fresh buffers."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_side=st.integers(3, 41),
        L=st.floats(0.5, 10.0),
        keep=st.floats(0.0, 1.0),
        exponent=st.floats(-300.0, 300.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_potential_equals_pad_by_copy(self, n_side, L, keep, exponent, seed):
        rng = np.random.default_rng(seed)
        shape = (n_side,) * 3
        h = 2.0 * L / (n_side - 1)
        spectrum = _cube_kernel_spectrum(n_side)
        _cube_potential(rng.random(shape), h, spectrum)  # leaves the workspace dirty
        masses = rng.random(shape) * (rng.random(shape) < keep) * 10.0**exponent
        with np.errstate(over="ignore", invalid="ignore"):
            want = _reference_cube_potential(masses, h, spectrum)
            got = _cube_potential(masses, h, spectrum)
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=30, deadline=None)
    @given(
        n_side=st.integers(3, 41),
        L=st.floats(0.5, 9.0),
        center=st.tuples(*[st.floats(-2.0, 2.0)] * 3),
        width=st.floats(0.2, 3.0),
        kind=st.sampled_from(["gaussian", "holes", "ring", "nonfinite"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kato_norm_equals_fresh_buffers(self, n_side, L, center, width, kind, seed):
        def fn(p):
            rng = np.random.default_rng(seed)
            v = np.exp(-np.sum(((p - np.asarray(center)) / width) ** 2, axis=1))
            if kind == "holes":
                v *= rng.random(v.size) < 0.5
            elif kind == "ring":
                v += np.sum(p * p, axis=1) > 0.5 * L * L
            elif kind == "nonfinite":
                v[rng.integers(0, v.size)] = rng.choice([np.nan, np.inf, -np.inf])
            return v

        f = Field3D(fn=fn, support_radius=L)
        assert _outcome(lambda: kato_norm(f, n_side)) == _outcome(
            lambda: _reference_kato_cube(f, n_side)
        )

    def test_cube_points_is_the_meshgrid_stack(self):
        xs = np.linspace(-3.0, 3.0, 7)
        want = np.stack(np.meshgrid(xs, xs, xs, indexing="ij"), axis=-1).reshape(-1, 3)
        for pts in (cube_points(xs), cube_points(xs, np.full((3, 7, 7, 7), np.nan))):
            assert np.array_equal(pts, want)
            assert pts.flags.f_contiguous and not pts.flags.writeable

    @settings(max_examples=15, deadline=None)
    @given(
        r_max=st.floats(5.0, 7.0),
        n=st.sampled_from([201, 241]),
        amp=st.floats(0.2, 1.0),
        sign=st.sampled_from([-1.0, 1.0]),
        center=st.floats(0.0, 1.5),
        width=st.floats(0.6, 1.2),
        b=st.floats(-0.5, 0.5),
        bw=st.floats(0.6, 1.2),
    )
    def test_lifted_kato_terms_equal_meshgrid_points(self, r_max, n, amp, sign, center, width, b, bw):
        # the two cubes of nonradial_laplacian on lifted radial data: the
        # column-major points give the bits of C-order meshgrid points
        radial = CauchyData.from_callables(
            RadialGrid.uniform(r_max, n),
            lambda r: sign * amp * np.exp(-(((r - center) / width) ** 2)),
            lambda r: b * np.exp(-((r / bw) ** 2)),
        )
        data = as_general(radial)
        lead, (term,) = _case_terms(data, "iv")
        for g, R in ((lead, data.u0.support_radius), (term, data.u1.support_radius)):
            f = Field3D(fn=lambda p, g=g: np.abs(g(np.atleast_2d(p))), support_radius=R)
            assert _outcome(lambda: kato_norm(f)) == _outcome(lambda: _reference_kato_cube(f, 41))

    def test_threads_get_the_serial_results(self):
        fields = [_gaussian((0.3 * k, -0.2 * k, 0.1), 5.0 + k) for k in range(4)]
        serial = [_outcome(lambda f=f: kato_norm(f, 41)) for f in fields]
        results = [[] for _ in fields]
        barrier = threading.Barrier(len(fields))

        def run(k):
            barrier.wait(timeout=30)
            for _ in range(3):
                results[k].append(_outcome(lambda: kato_norm(fields[k], 41)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(k,)) for k in range(len(fields))]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert results == [[want] * 3 for want in serial]

    def test_cached_sample_array_is_left_unmodified(self):
        cached = np.exp(-np.sum(cube_points(np.linspace(-6.0, 6.0, 41)) ** 2, axis=1))
        before = cached.copy()
        f = Field3D(fn=lambda p: cached, support_radius=6.0)
        first, second = _outcome(lambda: kato_norm(f, 41)), _outcome(lambda: kato_norm(f, 41))
        assert np.array_equal(cached, before)
        assert first == second == _outcome(lambda: kato_norm(_gaussian(), 41))

    def test_warm_cube_allocates_little(self):
        # the parent's pad-by-copy transforms peaked at 6.65 MiB here
        f = _gaussian()
        kato_norm(f, 41)  # builds this thread's workspace and the spectrum
        tracemalloc.start()
        try:
            kato_norm(f, 41)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 3.5 * 2**20


class TestRowNorm:
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bitwise_linalg_norm(self, order):
        rng = np.random.default_rng(3)
        p = rng.standard_normal((500, 3)) * 10.0 ** rng.uniform(-200.0, 200.0, (500, 3))
        special = [
            [0.0, 0.0, 0.0],
            [-0.0, 0.0, -0.0],
            [5e-324, 1e-310, -2e-308],
            [np.inf, 1.0, 0.0],
            [1.0, -np.inf, np.nan],
            [np.nan, 0.0, 0.0],
            [1e300, 1e300, 1e300],
        ]
        p = np.asarray(np.vstack([p, special]), order=order)
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = row_norm(p), np.linalg.norm(p, axis=1)
        assert got.tobytes() == want.tobytes()

    def test_one_row(self):
        for p in ([3.0, 4.0, 12.0], [[3.0, 4.0, 12.0]]):
            assert row_norm(np.asarray(p)).tobytes() == np.linalg.norm(
                np.atleast_2d(p), axis=1
            ).tobytes()


class TestInverseLaplacian:
    def test_gaussian_potential(self):
        # -Δu = e^{-r²} has u(r) = √π erf(r) / (4r), u(0) = 1/2
        g = RadialGrid.uniform(10.0, 801)
        u = inverse_laplacian_radial(lambda r: np.exp(-(r**2)), g)
        r = g.nodes[1:]
        exact = np.sqrt(np.pi) * erf(r) / (4 * r)
        np.testing.assert_allclose(u.values[1:], exact, atol=1e-8)
        np.testing.assert_allclose(u.values[0], 0.5, atol=1e-8)

    def test_recovers_laplacian(self):
        g = RadialGrid.uniform(8.0, 1601)
        u = inverse_laplacian_radial(lambda r: (1 + r**2) ** -3, g)
        r = g.nodes
        lap = np.gradient(np.gradient(u.values, r), r)
        lap[1:] += 2 * np.gradient(u.values, r)[1:] / r[1:]
        mid = slice(10, 1000)
        np.testing.assert_allclose(-lap[mid], (1 + r[mid] ** 2) ** -3, atol=2e-4)


class TestSerialization:
    def test_csv_roundtrip(self, tmp_path):
        f = gaussian_field(n=65, r_max=4.0)
        path = tmp_path / "f.csv"
        field_to_csv(f, path)
        back = field_from_csv(path)
        np.testing.assert_allclose(back.values, f.values, rtol=1e-15)
        np.testing.assert_allclose(back.grid.nodes, f.grid.nodes, rtol=1e-15)

    def test_json_roundtrip(self):
        g = RadialGrid.uniform(4.0, 65)
        f = RadialField.from_callable(g, lambda r: 1.0 / (1 + r))
        text = field_to_json(f)
        back = field_from_json(text)
        assert back.parity == f.parity
        np.testing.assert_allclose(back.values, f.values, rtol=1e-15)
        doc = json.loads(text)
        assert sorted(doc) == ["grid", "origin_moment", "parity", "values"]
