"""Exact null-equation solver: slices, blow-up localization, bounds, decay."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavecrit import (
    AdmissibilityError,
    CauchyData,
    CeasedSolutionError,
    ExtentError,
    GridError,
    RadialField,
    RadialGrid,
    WitnessError,
    build_profile,
    builtin_nonlinearity,
    propagate_radial,
    push_forward,
    wave_energy,
)
from wavecrit import nullwave
from wavecrit.nullwave import (
    _cone_mins,
    _cone_rows,
    _first_touch,
    asymptotic_profile,
    conserved_energy_quadratic,
    detect_blowup,
    dispersion_metrics,
    null_solution,
    solve_null,
    verify_pointwise_bounds,
)

GRID = RadialGrid.uniform(8.0, 801)


def zeros(r):
    return np.zeros_like(r)


def pair(f0, f1, grid=GRID):
    return CauchyData.from_callables(grid, f0, f1)


@pytest.fixture(scope="module")
def unit():
    return build_profile(builtin_nonlinearity("const", 1.0))


@pytest.fixture(scope="module")
def identity():
    return build_profile(builtin_nonlinearity("const", 0.0))


def gaussian_well(beta, grid=GRID):
    return pair(lambda r: -beta * np.exp(-(r**2)), zeros, grid)


def passing_data(grid=GRID):
    return pair(
        lambda r: 0.3 * np.exp(-((r - 2.0) ** 2)),
        lambda r: -0.1 * np.exp(-(r**2)),
        grid,
    )


class TestSolveNull:
    @pytest.mark.parametrize("t", [0.0, 1.0, 3.0])
    def test_constant_stays_constant(self, unit, t):
        u = solve_null(pair(lambda r: 0.4 * np.ones_like(r), zeros), unit, t)
        np.testing.assert_allclose(u.values, 0.4, atol=1e-12)

    def test_zero_weight_is_free_wave(self, identity):
        data = passing_data()
        u = solve_null(data, identity, 0.8)
        free = propagate_radial(data, 0.8)
        np.testing.assert_allclose(u.values, free.values, atol=1e-12)

    def test_ceased_solution_reports_location(self, unit):
        with pytest.raises(CeasedSolutionError) as err:
            solve_null(gaussian_well(1.5), unit, 1.0)
        assert err.value.radius >= 0.0

    def test_extent_guard(self, unit):
        with pytest.raises(ExtentError):
            solve_null(passing_data(), unit, 10.0)

    def test_equation_residual_second_order(self, unit):
        # centered differences of exact slices must satisfy the equation
        # u_tt - u_rr - 2u_r/r = u_t² - u_r² to truncation accuracy
        def residual(n):
            grid = RadialGrid.uniform(8.0, n)
            data = passing_data(grid)
            h = grid.nodes[1] - grid.nodes[0]
            t = 0.7
            um = solve_null(data, unit, t - h).values
            uc = solve_null(data, unit, t).values
            up = solve_null(data, unit, t + h).values
            r = grid.nodes
            sel = slice(2, -2)
            utt = (up - 2 * uc + um)[sel] / h**2
            ut = (up - um)[sel] / (2 * h)
            ur = (uc[3:-1] - uc[1:-3]) / (2 * h)
            urr = (uc[3:-1] - 2 * uc[2:-2] + uc[1:-3]) / h**2
            res = utt - urr - 2 * ur / r[sel] - (ut**2 - ur**2)
            keep = (r[sel] > 0.5) & (r[sel] < 5.0)
            return float(np.max(np.abs(res[keep])))

        coarse, fine = residual(401), residual(801)
        assert fine <= 1e-3
        assert coarse / fine > 2.5


class TestDetectBlowup:
    def test_gaussian_well_window(self, unit):
        report = detect_blowup(gaussian_well(1.5), unit)
        assert 0.0 < report.t0 <= 1.0
        assert abs(report.t0) <= report.window + 1e-8
        assert report.side == "upper"
        assert report.x0_radius == pytest.approx(0.0, abs=0.05)

    def test_log_rate_slope_near_one(self, unit):
        report = detect_blowup(gaussian_well(1.5), unit)
        _, slope = report.log_rate_fit
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_equality_case_touches_at_witness(self, unit):
        # (ru0)'(1) = 1 exactly for beta = e/2, so the touch is at the
        # cone apex: t0 = r0 = 1, x0 = 0
        report = detect_blowup(gaussian_well(math.e / 2.0), unit, fit_rate=False)
        assert report.window == pytest.approx(1.0, abs=1e-9)
        assert report.t0 == pytest.approx(1.0, abs=1e-3)
        assert report.x0_radius == pytest.approx(0.0, abs=1e-3)

    def test_symmetric_data_prefer_forward_time(self, unit):
        assert detect_blowup(gaussian_well(1.5), unit, fit_rate=False).t0 > 0.0

    def test_passing_data_rejected(self, unit):
        with pytest.raises(WitnessError):
            detect_blowup(passing_data(), unit)

    def test_fit_can_be_skipped(self, unit):
        report = detect_blowup(gaussian_well(1.5), unit, fit_rate=False)
        assert math.isnan(report.log_rate_fit[1])


# -- the row-by-row cone scan, kept as the oracle of the blocked scan --------


def _reference_refine_min(rs, vals, slack, t):
    i = int(np.argmin(vals))
    best_r, best_v = float(rs[i]), float(vals[i])
    if 0 < i < len(rs) - 1:
        c2, c1, _ = np.polyfit(rs[i - 1 : i + 2] - rs[i], vals[i - 1 : i + 2], 2)
        if c2 > 0.0:
            vertex = rs[i] + float(np.clip(-c1 / (2.0 * c2), rs[i - 1] - rs[i], rs[i + 1] - rs[i]))
            v = float(slack(np.array([vertex]), t)[0])
            if v < best_v:
                best_r, best_v = vertex, v
    return best_v, best_r


def _reference_cone_row(nodes, r0, t):
    edge = r0 - abs(t)
    if edge <= 0.0:
        return np.array([0.0])
    rs = np.append(nodes[nodes < edge], edge)
    return np.linspace(0.0, edge, 33) if rs.size < 9 else rs


def _reference_cone_min(slack, nodes, r0, t):
    rs = _reference_cone_row(nodes, r0, t)
    return _reference_refine_min(rs, slack(rs, t), slack, t)


def _reference_first_touch(slack, nodes, r0, scan=1024, tol=1e-10):
    m, loc = _reference_cone_min(slack, nodes, r0, 0.0)
    if m <= 0.0:
        return 0.0, loc
    lo = 0.0
    hi = hi_loc = None
    for t in np.linspace(0.0, r0, scan + 1)[1:]:
        m, loc = _reference_cone_min(slack, nodes, r0, t)
        if m <= 0.0:
            hi, hi_loc = float(t), loc
            break
        lo = float(t)
    if hi is None:
        raise WitnessError("no boundary touch inside the cone", window=float(r0))
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        m, loc = _reference_cone_min(slack, nodes, r0, mid)
        if m <= 0.0:
            hi, hi_loc = mid, loc
        else:
            lo = mid
    return hi, hi_loc


def _rounding_noise(slack, r, t):
    """Spread of slack over 21 radii within 1e-12 of r once its straight-line
    trend is removed: how far two evaluations at nearly the same point differ
    by rounding alone.  For the free-wave slack near the origin, u = w/r
    magnifies the rounding of w."""
    dr = np.maximum(r + 1e-12 * np.linspace(-1.0, 1.0, 21), 0.0) - r
    vals = slack(r + dr, t)
    return float(np.ptp(vals - np.polyval(np.polyfit(dr, vals, 1), dr)))


def _assert_scan_matches_reference(slack, nodes, r0):
    """Rows, node minima and refined minima of the blocked scan against the
    row-by-row oracle at every scan time.  Where the oracle's minimum is a
    refined parabola vertex, the blocked scan places its vertex by another
    formula, so the two minima may also differ by the rounding of slack
    there."""
    ts = np.linspace(0.0, r0, 1025)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rs, lengths = _cone_rows(nodes, r0, ts)
        vals = slack(rs, ts[:, None])
        mins, _ = _cone_mins(slack, nodes, r0, ts)
    for j, t in enumerate(ts):
        row = _reference_cone_row(nodes, r0, t)
        row_vals = slack(row, t)
        assert lengths[j] == row.size
        assert np.array_equal(rs[j, : row.size], row)
        assert np.array_equal(vals[j, : row.size], row_vals)
        ref, ref_r = _reference_refine_min(row, row_vals, slack, t)
        tol = 1e-14 * float(np.max(np.abs(row_vals)))
        if ref_r != row[np.argmin(row_vals)]:
            tol += _rounding_noise(slack, ref_r, t)
        assert abs(mins[j] - ref) <= tol


def _touch_or_error(find, *args):
    try:
        return find(*args)
    except WitnessError:
        return None


class TestConeScan:
    def test_refine_quiet_when_edge_within_an_ulp_of_a_node(self):
        # 161 nodes on [0, 8], r0 = 1.1, t = 0.75: the edge lies 5.55e-17
        # beyond node 7, which holds the minimum
        nodes = np.linspace(0.0, 8.0, 161)
        r0, t = 1.1, 0.75
        gap = (r0 - t) - nodes[7]
        assert 0.0 < gap <= np.spacing(nodes[7])

        def slack(rs, ts):
            return (rs - nodes[7]) ** 2 + 0.25

        with pytest.warns(np.exceptions.RankWarning):
            _reference_cone_min(slack, nodes, r0, t)
        rs, lengths = _cone_rows(nodes, r0, np.array([t]))
        assert rs[0, lengths[0] - 2] == nodes[7]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m, _ = _cone_mins(slack, nodes, r0, np.array([t]))
        assert m[0] <= np.min(slack(rs[0, : lengths[0]], t))

    # the oracle's polyfit warns on near-degenerate rows; the blocked scan
    # runs with every warning raised
    @pytest.mark.filterwarnings("ignore::numpy.exceptions.RankWarning")
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(161, 1601),
        k=st.integers(0, 160),
        mode=st.sampled_from(["free", "at_zero", "last_row", "never"]),
        level=st.floats(-0.2, 1.5),
        drop=st.floats(0.01, 1.5),
        curve=st.floats(0.0, 4.0),
        centre=st.floats(0.0, 1.0),
        wiggle=st.floats(0.0, 0.3),
        freq=st.floats(0.5, 20.0),
        block=st.one_of(st.just(1), st.integers(2, 1 << 15)),
    )
    def test_first_touch_matches_reference_on_model_slack(
        self, n, k, mode, level, drop, curve, centre, wiggle, freq, block
    ):
        # slack = level - drop·t/r0 + curve·(r - rc)² + wiggle·(1 - cos(freq (r - t))):
        # minima inside the cone that move with t; "at_zero" touches at t = 0,
        # "last_row" only at t = r0 (edge 0), "never" not at all; small k
        # gives cones of fewer than 9 nodes and k = 0 the origin alone
        nodes = np.linspace(0.0, 8.0, n)
        r0 = float(nodes[k])
        rc = centre * r0
        if mode == "at_zero":
            level = -abs(level)
        elif mode == "last_row":
            level, rc, wiggle = drop, 0.0, 0.0
        elif mode == "never":
            level = drop + 0.1

        def slack(rs, ts):
            frac = ts / r0 if r0 > 0.0 else 0.0 * ts
            bump = curve * (rs - rc) ** 2 + wiggle * (1.0 - np.cos(freq * (rs - ts)))
            return level - drop * frac + bump

        ref = _touch_or_error(_reference_first_touch, slack, nodes, r0)
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            mp.setattr(nullwave, "_SCAN_POINTS", block)
            got = _touch_or_error(_first_touch, slack, nodes, r0)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert abs(got[0] - ref[0]) <= 1e-10
        _assert_scan_matches_reference(slack, nodes, r0)


def _failing_data(n, weight, kappa, amp, center, width, pulse, pulse_center):
    """Deep well (const, f > 0), bump (const, f < 0) or either (linear),
    optionally with a velocity pulse that picks one time direction."""
    grid = RadialGrid.uniform(8.0, n)
    sign = {"const+": -1.0, "const-": 1.0, "linear": math.copysign(1.0, amp)}[weight]
    data = pair(
        lambda r: sign * abs(amp) / kappa * np.exp(-(((r - center) / width) ** 2)),
        lambda r: pulse / kappa * np.exp(-(((r - pulse_center) / 0.7) ** 2)),
        grid,
    )
    param = -kappa if weight == "const-" else kappa
    return data, build_profile(builtin_nonlinearity(weight.rstrip("+-"), param))


class TestBlowupMatchesReferenceScan:
    @pytest.mark.filterwarnings("ignore::numpy.exceptions.RankWarning")
    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(161, 1601),
        weight=st.sampled_from(["const+", "const-", "linear"]),
        kappa=st.floats(0.8, 1.25),
        amp=st.floats(-2.2, 2.2),
        center=st.floats(0.0, 2.0),
        width=st.floats(0.6, 1.4),
        pulse=st.sampled_from([0.0, -2.0, 2.0]),
        pulse_center=st.floats(1.5, 3.0),
        block=st.one_of(st.just(1), st.integers(2, 1 << 15)),
    )
    # the minima at t = 0.885 lie at r = 0.022, where the two vertices
    # 2.4e-12 apart evaluate 8.9e-16 apart amid ±3e-15 of rounding
    @example(n=161, weight="linear", kappa=1.109375, amp=1.125, center=0.0, width=0.75,
             pulse=-2.0, pulse_center=1.5, block=1)
    def test_detect_blowup_matches_reference(
        self, n, weight, kappa, amp, center, width, pulse, pulse_center, block
    ):
        data, profile = _failing_data(n, weight, kappa, amp, center, width, pulse, pulse_center)
        scans = []

        def spy(slack, nodes, r0):
            scans.append((slack, nodes, r0))
            return _first_touch(slack, nodes, r0)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(nullwave, "_SCAN_POINTS", block)
            mp.setattr(nullwave, "_first_touch", spy)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _touch_or_error(detect_blowup, data, profile, False)
            mp.setattr(nullwave, "_first_touch", _reference_first_touch)
            ref = _touch_or_error(detect_blowup, data, profile, False)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert abs(got.t0 - ref.t0) <= 1e-10
            assert (got.window, got.side) == (ref.window, ref.side)
        for slack, nodes, r0 in scans:
            _assert_scan_matches_reference(slack, nodes, r0)


class TestTimeReversal:
    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(161, 1601),
        weight=st.sampled_from(["const+", "const-", "linear"]),
        kappa=st.floats(0.8, 1.25),
        amp=st.floats(-2.2, 2.2),
        center=st.floats(0.0, 2.0),
        width=st.floats(0.6, 1.4),
        pulse=st.sampled_from([0.0, -2.0, 2.0]),
        pulse_center=st.floats(1.5, 3.0),
    )
    # u0 = 0 with a velocity pulse: the rate fit once ran on the wrong time side
    @example(n=801, weight="const+", kappa=1.0, amp=0.0, center=0.0, width=1.0,
             pulse=2.0, pulse_center=2.0)
    def test_reversed_velocity_mirrors_the_report(
        self, n, weight, kappa, amp, center, width, pulse, pulse_center
    ):
        # (u0, -u1) is (u0, u1) run backwards: the touch moves to -t0 and
        # every other field of the report stays, NaN rate fits included;
        # on a tie between the directions both give +|t0|
        data, profile = _failing_data(n, weight, kappa, amp, center, width, pulse, pulse_center)
        mirrored = CauchyData(data.u0, RadialField(data.grid, -data.u1.values))
        fwd = _touch_or_error(detect_blowup, data, profile)
        bwd = _touch_or_error(detect_blowup, mirrored, profile)
        assert (fwd is None) == (bwd is None)
        if fwd is None:
            return
        if fwd.t0 == bwd.t0 and fwd.t0 >= 0.0:
            return
        assert bwd.t0 == -fwd.t0
        assert (bwd.x0_radius, bwd.window, bwd.side) == (fwd.x0_radius, fwd.window, fwd.side)
        np.testing.assert_array_equal(bwd.log_rate_fit, fwd.log_rate_fit)


class TestNullSolution:
    def test_global_validity(self, unit):
        sol = null_solution(passing_data(), unit)
        assert sol.validity == "global"
        assert sol.first_zero is None
        assert sol.blowup is None

    def test_cone_limited_records_touch(self, unit):
        sol = null_solution(gaussian_well(1.5), unit)
        assert sol.validity == "cone-limited"
        report = detect_blowup(gaussian_well(1.5), unit, fit_rate=False)
        assert sol.first_zero[0] == pytest.approx(report.t0, abs=1e-12)
        assert sol.first_zero == (sol.blowup.t0, sol.blowup.x0_radius)
        assert (sol.blowup.window, sol.blowup.side) == (report.window, report.side)

    def test_pushes_and_propagates_once(self, unit, monkeypatch):
        # the blow-up report of cone-limited data and the solution itself
        # share one pushed data set and one propagator
        calls = {"push_forward": 0, "FreePropagator": 0}
        push, init = nullwave.push_forward, nullwave.FreePropagator.__init__

        def counted_push(*args):
            calls["push_forward"] += 1
            return push(*args)

        def counted_init(self, *args):
            calls["FreePropagator"] += 1
            init(self, *args)

        monkeypatch.setattr(nullwave, "push_forward", counted_push)
        monkeypatch.setattr(nullwave.FreePropagator, "__init__", counted_init)
        sol = null_solution(gaussian_well(1.5), unit)
        assert sol.validity == "cone-limited"
        assert calls == {"push_forward": 1, "FreePropagator": 1}

    def test_bounds_invert_each_probe_slice_once(self, unit, monkeypatch):
        sol = null_solution(passing_data(), unit)
        calls = []
        invert = unit.F_inverse
        monkeypatch.setattr(unit, "F_inverse", lambda v: calls.append(v) or invert(v))
        verify_pointwise_bounds(sol, [0.2, 0.4])
        dispersion_metrics(sol, [0.2, 0.4])
        assert len(calls) == 4

    def test_v_range_before_touch(self, unit):
        sol = null_solution(gaussian_well(1.5), unit)
        t0 = sol.first_zero[0]
        for t in (0.0, 0.5 * t0):
            v = sol.v(t).values
            assert np.max(v) < unit.b

    def test_slice_derivatives_consistent(self, unit):
        from wavecrit import differentiate

        sol = null_solution(passing_data(), unit)
        u = sol.u(0.6)
        np.testing.assert_allclose(
            sol.u_r(0.6).values, differentiate(u).values, atol=1e-3
        )


class TestVerifyPointwiseBounds:
    def test_constant_solution_all_slack(self, unit):
        sol = null_solution(pair(lambda r: 0.2 * np.ones_like(r), zeros), unit)
        report = verify_pointwise_bounds(sol, np.linspace(0.0, 2.0, 8))
        assert report["checked"] > 0
        assert report["violations"] == []

    def test_gaussian_probe_sweep_clean(self, unit):
        sol = null_solution(passing_data(), unit)
        report = verify_pointwise_bounds(sol, np.linspace(0.0, 2.5, 32))
        assert report["checked"] >= 1000
        assert report["violations"] == []
        assert report["lower"] <= 0.0 <= report["upper"]

    def test_c0_formula(self, unit):
        sol = null_solution(passing_data(), unit)
        report = verify_pointwise_bounds(sol, [0.0], epsilon=0.5)
        u0 = sol.data.u0.values
        expected = (
            math.exp(float(np.max(u0)) - float(np.min(u0)))
            / 0.5
            * (1.0 + report["shell_norm"])
        )
        assert report["c0"] == pytest.approx(expected, rel=1e-12)

    def test_requires_unit_weight(self):
        profile = build_profile(builtin_nonlinearity("sin"))
        sol = null_solution(passing_data(), profile)
        with pytest.raises(AdmissibilityError):
            verify_pointwise_bounds(sol, [0.0])

    def test_requires_positive_margin(self, unit):
        sol = null_solution(gaussian_well(1.5), unit)
        with pytest.raises(AdmissibilityError):
            verify_pointwise_bounds(sol, [0.0])


class TestDispersionMetrics:
    def test_zero_data(self, unit):
        sol = null_solution(pair(zeros, zeros), unit)
        report = dispersion_metrics(sol)
        assert report["data_norm"] == 0.0
        assert report["sup_state_norm"] == 0.0
        assert report["v_energy_drift"] == 0.0
        assert report["first_line_holds"]

    def test_first_line_on_passing_scenario(self, unit):
        sol = null_solution(passing_data(), unit)
        report = dispersion_metrics(sol)
        assert report["first_line_holds"]
        assert report["sup_state_norm"] <= report["amplification_limit"]
        assert report["strichartz_ratio"] > 0.0

    def test_v_energy_constancy(self, unit):
        grid = RadialGrid.uniform(8.0, 12801)
        sol = null_solution(passing_data(grid), unit)
        report = dispersion_metrics(sol, probes=np.linspace(0.0, 2.0, 9))
        assert report["v_energy_drift"] <= 1e-6

    def test_infinite_energy_rejected(self, unit):
        sol = null_solution(pair(zeros, lambda r: 0.1 * np.ones_like(r)), unit)
        with pytest.raises(AdmissibilityError):
            dispersion_metrics(sol)


class TestConservedEnergy:
    def test_constant_field_zero(self, unit):
        data = pair(lambda r: 0.7 * np.ones_like(r), zeros)
        assert conserved_energy_quadratic(data.u0, data.u1) == pytest.approx(0.0, abs=1e-15)

    def test_matches_transformed_picture(self, unit):
        sol = null_solution(passing_data(), unit)
        u, ut = sol.u(0.7), sol.u_t(0.7)
        direct = conserved_energy_quadratic(u, ut)
        pushed = wave_energy(push_forward(CauchyData(u, ut), unit, orientation="exp"))
        assert direct == pytest.approx(pushed, rel=1e-4)

    def test_conservation_sweep(self, unit):
        grid = RadialGrid.uniform(8.0, 12801)
        sol = null_solution(passing_data(grid), unit)
        values = [
            conserved_energy_quadratic(sol.u(t), sol.u_t(t)) for t in (0.0, 0.5, 1.0, 2.0)
        ]
        drift = (max(values) - min(values)) / max(values)
        assert drift <= 1e-6

    def test_grid_mismatch(self):
        a = pair(zeros, zeros)
        b = pair(zeros, zeros, RadialGrid.uniform(8.0, 201))
        with pytest.raises(GridError):
            conserved_energy_quadratic(a.u0, b.u1)


class TestAsymptoticProfile:
    def test_free_wave_global(self, identity):
        grid = RadialGrid.uniform(10.0, 1001)
        data = pair(lambda r: 0.05 * np.exp(-(r**2)), zeros, grid)
        report = asymptotic_profile(data, identity)
        assert report["classification"] == "global"
        assert report["decay"]["ratio"] < 2.0
        assert report["scattering_coefficient"] == pytest.approx(1.0, rel=1e-12)

    def test_small_data_decay_band(self, unit):
        grid = RadialGrid.uniform(10.0, 1001)
        data = pair(lambda r: 0.05 * np.exp(-(r**2)), zeros, grid)
        report = asymptotic_profile(data, unit)
        assert report["classification"] == "global"
        assert report["decay"]["eta_max"] > 0.0
        assert report["decay"]["ratio"] < 2.0

    def test_failing_data_takes_blowup_branch(self, unit):
        data = gaussian_well(1.5)
        report = asymptotic_profile(data, unit)
        assert report["classification"] == "blow-up"
        direct = detect_blowup(data, unit)
        assert report["blowup"].t0 == pytest.approx(direct.t0, abs=1e-12)
        assert report["decay"] is None

    def test_near_boundary_excursion_flagged(self, unit):
        # margin fails by 1e-3 but the boundary excursion lives in a
        # spacetime ball smaller than the probe stride, so the extrema
        # disagree with the criterion and the verdict is downgraded
        report = asymptotic_profile(gaussian_well(1.001 * math.e / 2.0), unit)
        assert report["classification"] == "indeterminate"
        assert report["flags"]
