"""Exact null-equation solver: slices, blow-up localization, bounds, decay."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import event, example, given, settings
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
    outgoing_velocity,
    propagate_radial,
    push_forward,
    wave_energy,
)
from wavecrit import nullwave
from wavecrit.freewave import FreePropagator, dalembert_split
from wavecrit.nullwave import (
    _ROUNDING,
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

    @pytest.mark.parametrize("k", [-2, -1, 0, 1, 2])
    @pytest.mark.parametrize("beta, pulse", [(1.5, 0.0), (2.0, 2.0), (1.2, -2.0)])
    def test_scaling_property(self, unit, k, beta, pulse):
        # u(λt, λr) solves the same equation: data u₀(λr), λ·u₁(λr) on the
        # grid scaled by 1/λ touch at t0/λ.  λ = 2^k scales the nodes and
        # the samples exactly, so the witness radius scales bit for bit; t0
        # is each run's bisection to 1e-10 in its own time units.
        def data(lam):
            return pair(
                lambda r: -beta * np.exp(-((lam * r) ** 2)),
                lambda r: lam * pulse * np.exp(-(((lam * r - 2.0) / 0.7) ** 2)),
                RadialGrid.uniform(8.0 / lam, 801),
            )

        lam = 2.0**k
        base = detect_blowup(data(1.0), unit, fit_rate=False)
        scaled = detect_blowup(data(lam), unit, fit_rate=False)
        assert scaled.window * lam == base.window
        assert scaled.side == base.side
        assert abs(scaled.t0 - base.t0 / lam) <= 1e-10 * (1.0 + 1.0 / lam)

    @pytest.mark.parametrize("weight", [("const", 1.0), ("const", -1.0), ("linear", 1.0)])
    @pytest.mark.parametrize("orientation", ["expanding", "collapsing"])
    def test_witness_at_the_origin_touches_at_once(self, weight, orientation):
        # the outgoing velocity has a 1/r pole and a mover fails at node 0:
        # the cone is its apex, and u(0, t) is past the endpoint at |t| = 0⁺
        # although u₀(0) is not
        profile = build_profile(builtin_nonlinearity(*weight))
        u0 = gaussian_well(1.5).u0
        data = CauchyData(u0, outgoing_velocity(u0, orientation))
        report = detect_blowup(data, profile)
        assert (report.t0, report.x0_radius, report.window) == (0.0, 0.0, 0.0)
        assert all(math.isnan(x) for x in report.log_rate_fit)
        assert null_solution(data, profile).first_zero == (0.0, 0.0)
        prop = FreePropagator(push_forward(data, profile))
        v = prop.origin(np.array([math.copysign(1e-12, report.t0)]))[0]
        assert (v <= profile.a) if report.side == "lower" else (v >= profile.b)


# -- the row-by-row cone scan, kept as the oracle of the blocked scan --------


def _reference_refine_min(rs, vals, slack, t):
    i = int(np.argmin(vals))
    best_r, best_v = float(rs[i]), float(vals[i])
    # a node with the edge within _MERGE ulps of it ends the row
    if 0 < i < len(rs) - 1 and rs[i + 1] - rs[i] > nullwave._MERGE * np.spacing(rs[i]):
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


def _whole_row_mins(slack, nodes, r0, ts):
    """_cone_mins from one slack evaluation of each whole row, origin
    included, kept as the oracle of the rows evaluated on r > 0 beside a
    separate origin column."""
    rs, lengths = _cone_rows(nodes, r0, ts)
    vals = slack(rs, ts[:, None])
    vals[np.arange(rs.shape[1]) >= lengths[:, None]] = np.inf
    return nullwave._refine_rows(slack, ts, rs, vals, lengths)


def _origin_of(slack):
    """The origin argument of _first_touch for a slack over (r, t)."""
    return lambda ts: slack(np.zeros_like(ts), ts)


def _blocked_first_touch(slack, nodes, r0, scan=1024, tol=1e-10):
    """The scan over every time in blocks of cone rows, kept as the oracle of
    the certified scan."""
    ts = np.linspace(0.0, r0, scan + 1)
    step = max(1, nullwave._SCAN_POINTS // (int(np.searchsorted(nodes, r0)) + 1))
    for start in range(0, ts.size, step):
        m, loc = _whole_row_mins(slack, nodes, r0, ts[start : start + step])
        hit = np.flatnonzero(m <= 0.0)
        if hit.size:
            break
    else:
        raise WitnessError("no boundary touch inside the cone", window=float(r0))
    i = start + int(hit[0])
    hi, hi_loc = float(ts[i]), float(loc[hit[0]])
    if i == 0:
        return hi, hi_loc
    return _plain_bisection(slack, nodes, r0, float(ts[i - 1]), hi, hi_loc, tol)


def _plain_bisection(slack, nodes, r0, lo, hi, hi_loc, tol):
    """One midpoint per _cone_mins call, kept as the oracle of the midpoint
    tree."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        m, loc = _whole_row_mins(slack, nodes, r0, np.array([mid]))
        if m[0] <= 0.0:
            hi, hi_loc = mid, float(loc[0])
        else:
            lo = mid
    return hi, hi_loc


def _without_bounds(find):
    """find in the place of _first_touch, ignoring the Lipschitz bound and
    rounding noise that detect_blowup passes."""
    return lambda slack, origin, nodes, r0, lip, noise: find(slack, nodes, r0)


def _rounding_noise(slack, r, t):
    """Spread of slack over 21 radii within 1e-12 of r once its straight-line
    trend is removed: how far two evaluations at nearly the same point differ
    by rounding alone.  For the free-wave slack near the origin, u = w/r
    magnifies the rounding of w."""
    dr = np.maximum(r + 1e-12 * np.linspace(-1.0, 1.0, 21), 0.0) - r
    vals = slack(r + dr, t)
    return float(np.ptp(vals - np.polyval(np.polyfit(dr, vals, 1), dr)))


def _assert_scan_matches_reference(slack, origin, nodes, r0):
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
        mins, _ = _cone_mins(slack, origin, nodes, r0, ts)
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


# _SCAN_POINTS for the scan and tree properties, in rows of a given width:
# one point, 3, 8 or 40 rows, or the default.  So rounds of one row and
# trees of depth 1, doubling capped at 3, 8 and 40 rows (trees of depth 2,
# 3 and 5), and the default cap
_ROWS = st.sampled_from([0, 3, 8, 40, None])


def _set_scan_points(mp, rows, width):
    if rows is not None:
        mp.setattr(nullwave, "_SCAN_POINTS", max(1, rows * width))


class TestConeScan:
    def test_refine_quiet_when_edge_within_an_ulp_of_a_node(self):
        # 161 nodes on [0, 8], r0 = 1.1, t = 0.75: the edge lies 5.55e-17
        # beyond node 7, which holds the row's least value; the true minimum
        # lies 0.3 spacings below node 7
        nodes = np.linspace(0.0, 8.0, 161)
        r0, t = 1.1, 0.75
        gap = (r0 - t) - nodes[7]
        assert 0.0 < gap <= np.spacing(nodes[7])

        def slack(rs, ts):
            return (rs - (nodes[7] - 0.015)) ** 2

        rs, lengths = _cone_rows(nodes, r0, np.array([t]))
        assert rs[0, lengths[0] - 2] == nodes[7]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m, loc = _cone_mins(slack, _origin_of(slack), nodes, r0, np.array([t]))
            ref = _reference_cone_min(slack, nodes, r0, t)
        # the edge counts as node 7, the row's end: no parabola there
        assert (m[0], loc[0]) == ref == (slack(nodes[7], t), nodes[7])

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
        rows=_ROWS,
    )
    # row 736 ends 1 ulp past node 27, which holds its minimum: the edge
    # counts as node 27, the row's end, where neither scan fits a parabola
    # (a polyfit through two points an ulp apart put its vertex anywhere in
    # [node 26, edge], once 4e-4 below the node)
    @example(n=1024, k=96, mode="free", level=1.0, drop=0.5, curve=2.0, centre=0.0,
             wiggle=0.1875, freq=19.625, rows=0)
    def test_first_touch_matches_reference_on_model_slack(
        self, n, k, mode, level, drop, curve, centre, wiggle, freq, rows
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

        # |slack_t| ≤ drop/r0 + wiggle·freq and |slack_r| ≤ 2 curve r0 + wiggle·freq
        lip = math.inf
        if r0 > 0.0:
            lip = max(drop / r0 + wiggle * freq, 2.0 * (2.0 * curve * r0 + wiggle * freq))
        noise = 64 * np.finfo(float).eps * (abs(level) + drop + curve * r0**2 + 2.0 * wiggle)
        ref = _touch_or_error(_reference_first_touch, slack, nodes, r0)
        width = int(nullwave._row_layout(nodes, r0, np.linspace(0.0, r0, 1025))[-1].max())
        with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
            warnings.simplefilter("error")
            _set_scan_points(mp, rows, width)
            got = _touch_or_error(_first_touch, slack, _origin_of(slack), nodes, r0, lip, noise)
            blocked = _touch_or_error(_blocked_first_touch, slack, nodes, r0)
        assert (got is None) == (ref is None)
        assert got == blocked
        if ref is not None:
            assert abs(got[0] - ref[0]) <= 1e-10
        _assert_scan_matches_reference(slack, _origin_of(slack), nodes, r0)


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


# the parameters of _failing_data
_FAILING = dict(
    n=st.integers(161, 1601),
    weight=st.sampled_from(["const+", "const-", "linear"]),
    kappa=st.floats(0.8, 1.25),
    amp=st.floats(-2.2, 2.2),
    center=st.floats(0.0, 2.0),
    width=st.floats(0.6, 1.4),
    pulse=st.sampled_from([0.0, -2.0, 2.0]),
    pulse_center=st.floats(1.5, 3.0),
)


class TestBlowupMatchesReferenceScan:
    @pytest.mark.filterwarnings("ignore::numpy.exceptions.RankWarning")
    @settings(max_examples=10, deadline=None)
    @given(**_FAILING, rows=_ROWS)
    # the minima at t = 0.885 lie at r = 0.022, where the two vertices
    # 2.4e-12 apart evaluate 8.9e-16 apart amid ±3e-15 of rounding
    @example(n=161, weight="linear", kappa=1.109375, amp=1.125, center=0.0, width=0.75,
             pulse=-2.0, pulse_center=1.5, rows=0)
    def test_detect_blowup_matches_reference(
        self, n, weight, kappa, amp, center, width, pulse, pulse_center, rows
    ):
        # rows of n points: no cone row is wider
        data, profile = _failing_data(n, weight, kappa, amp, center, width, pulse, pulse_center)
        scans = []

        def spy(slack, origin, nodes, r0, lip, noise):
            scans.append((slack, origin, nodes, r0))
            return _first_touch(slack, origin, nodes, r0, lip, noise)

        with pytest.MonkeyPatch.context() as mp:
            _set_scan_points(mp, rows, n)
            mp.setattr(nullwave, "_first_touch", spy)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = _touch_or_error(detect_blowup, data, profile, False)
            mp.setattr(nullwave, "_first_touch", _without_bounds(_reference_first_touch))
            ref = _touch_or_error(detect_blowup, data, profile, False)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert abs(got.t0 - ref.t0) <= 1e-10
            assert (got.window, got.side) == (ref.window, ref.side)
        for scan in scans:
            _assert_scan_matches_reference(*scan)


class TestCertifiedScan:
    @settings(max_examples=30, deadline=None)
    @given(**_FAILING, rows=_ROWS)
    @example(n=161, weight="linear", kappa=1.109375, amp=1.125, center=0.0, width=0.75,
             pulse=-2.0, pulse_center=1.5, rows=0)
    # touches at the cone tip, t0 = 0.9964 r0, after skipping nearly every row
    @example(n=801, weight="const+", kappa=1.0, amp=2.0, center=0.0, width=1.0,
             pulse=0.0, pulse_center=2.0, rows=None)
    def test_detect_blowup_equals_blocked_scan(
        self, n, weight, kappa, amp, center, width, pulse, pulse_center, rows
    ):
        # rows of n points: no cone row is wider
        data, profile = _failing_data(n, weight, kappa, amp, center, width, pulse, pulse_center)
        with pytest.MonkeyPatch.context() as mp:
            _set_scan_points(mp, rows, n)
            got = _touch_or_error(detect_blowup, data, profile, False)
            mp.setattr(nullwave, "_first_touch", _without_bounds(_blocked_first_touch))
            ref = _touch_or_error(detect_blowup, data, profile, False)
        assert (got is None) == (ref is None)
        if ref is not None:
            assert (got.t0, got.x0_radius, got.window, got.side) == (
                ref.t0, ref.x0_radius, ref.window, ref.side
            )

    def test_skips_all_but_a_few_rows_before_a_tip_touch(self, monkeypatch):
        data, profile = _failing_data(801, "const+", 1.0, 2.0, 0.0, 1.0, 0.0, 2.0)
        cones = _scan_rounds(monkeypatch, data, profile)
        assert len(cones) == 2  # u1 = 0 fails in both time directions
        for _, rows, t0, window in cones:
            assert t0 >= 0.99 * window
            # of 1025 scan times; doubling after every round without a
            # restart at one row evaluates 40
            assert 1 <= sum(rows) <= 24

    def test_few_rounds_under_a_large_curvature_bound(self, monkeypatch):
        # L = 124: each row's bound clears few rows, and rounds restart at one
        # row only while a skip passes more rows than the scan has evaluated
        data, profile = _failing_data(
            801, "const+", 0.828896496790486, 2.1037544599064097, 1.7401770046550067,
            0.7818548201287264, 0.0, 2.0,
        )
        lip = FreePropagator(dalembert_split(push_forward(data, profile))).curvature_bound()
        assert 120.0 <= lip <= 130.0
        rounds = []
        evaluate = nullwave._row_mins
        monkeypatch.setattr(nullwave, "_row_mins", lambda *a: rounds.append(1) or evaluate(*a))
        detect_blowup(data, profile, False)
        assert len(rounds) <= 64  # scans and bisections of both time directions

    @pytest.mark.parametrize("rows", [0, 8, None])
    def test_pole_velocity_scans_in_doubling_rounds(self, monkeypatch, rows):
        # L = ∞ skips nothing: rounds of 1, 2, 4, ... rows up to the cap,
        # then the cap, through every time before the touch at t0 = 0.999 r0
        u0 = RadialField.from_callable(GRID, lambda r: 0.5 * np.exp(-(r**2)))
        pulse = 2.0 * GRID.nodes * np.exp(-(((GRID.nodes - 2.0) / 0.7) ** 2))
        u1 = outgoing_velocity(u0, "collapsing").moment() + pulse
        data = CauchyData(u0, RadialField.from_moment(GRID, u1))
        profile = build_profile(builtin_nonlinearity("const", 1.0))
        prop = FreePropagator(dalembert_split(push_forward(data, profile)))
        assert prop.curvature_bound() == math.inf
        _set_scan_points(monkeypatch, rows, GRID.nodes.size)
        ((ts, rows_per_round, t0, window),) = _scan_rounds(monkeypatch, data, profile)
        assert t0 >= 0.99 * window
        widest = int(nullwave._row_layout(GRID.nodes, window, ts)[-1].max())
        cap = max(1, nullwave._SCAN_POINTS // widest)
        doubling = [min(2**j, cap) for j in range(cap.bit_length() + 1)]
        assert rows_per_round[: len(doubling)] == doubling
        assert sum(rows_per_round) >= np.searchsorted(ts, t0)  # no time skipped
        assert len(rows_per_round) <= math.ceil(ts.size / cap) + math.ceil(math.log2(cap)) + 1

    def test_pole_velocity_has_no_curvature_bound(self):
        # a 1/r pole of u1 puts a kink in Ψ' at the origin, where no finite
        # L bounds u_t, so every scan time is evaluated
        u0 = RadialField.from_callable(GRID, lambda r: np.exp(-(r**2)))
        pole = FreePropagator(CauchyData(u0, outgoing_velocity(u0)))
        assert pole.curvature_bound() == math.inf
        smooth = FreePropagator(pair(lambda r: np.exp(-(r**2)), zeros))
        assert math.isfinite(smooth.curvature_bound())

    @settings(max_examples=15, deadline=None)
    @given(**_FAILING, seed=st.integers(0, 2**32 - 1))
    def test_curvature_bound_holds(
        self, n, weight, kappa, amp, center, width, pulse, pulse_center, seed
    ):
        data, profile = _failing_data(n, weight, kappa, amp, center, width, pulse, pulse_center)
        pair = dalembert_split(push_forward(data, profile))
        prop = FreePropagator(pair)
        lip = prop.curvature_bound()
        rho = data.grid.r_max
        comb = np.union1d(np.linspace(-2.0 * rho, 2.0 * rho, 40001), prop._psi_out.x)
        sampled = np.max(np.abs(prop._psi_out(comb, 2))) + np.max(np.abs(prop._psi_in(comb, 2)))
        assert sampled <= lip * (1.0 + 1e-12)

        # the rounding scale S of _first_touch, and ε(r) for u (no endpoint)
        size = max(np.max(np.abs(pair.plus.values)), np.max(np.abs(pair.minus.values)))
        scale = size + 2.0 * rho * lip
        rng = np.random.default_rng(seed)
        t, t2 = rng.uniform(-rho, rho, (2, 400))
        r = rng.uniform(data.grid.nodes[1], rho, 400)
        eps = _ROUNDING * scale * (1.0 + rho / r)
        dt = np.abs(prop.at(r, t2) - prop.at(r, t))
        assert np.all(dt <= lip * np.abs(t2 - t) + 2.0 * eps)
        u_r = (prop.shell(r, t) - prop.at(r, t)) / r
        assert np.all(np.abs(u_r) <= lip / 2.0 + 2.0 * eps / r)


class TestOriginColumn:
    @settings(max_examples=20, deadline=None)
    @given(**_FAILING, pole=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_origin_is_the_value_at_radius_zero(
        self, n, weight, kappa, amp, center, width, pulse, pulse_center, pole, seed
    ):
        # the scan takes the origin column from FreePropagator.origin and the
        # rest of each row from at on r > 0; both must give what one at call
        # on the whole row gives, also under a velocity with a 1/r pole
        data, profile = _failing_data(n, weight, kappa, amp, center, width, pulse, pulse_center)
        if pole:
            u1 = data.u1.moment() + outgoing_velocity(data.u0).moment()
            data = CauchyData(data.u0, RadialField.from_moment(data.grid, u1))
        prop = FreePropagator(dalembert_split(push_forward(data, profile)))
        rho = data.grid.r_max
        rng = np.random.default_rng(seed)
        rim = rho * np.array([0.0, 1.0, 1.5, 2.0, 3.0])
        ts = np.concatenate([rim, -rim, rng.uniform(-2.0 * rho, 2.0 * rho, 64)])
        assert np.array_equal(prop.origin(ts), prop.at(np.zeros_like(ts), ts))

        side = "lower" if math.isfinite(profile.a) else "upper"
        for sign in (1, -1):
            slack, origin = nullwave._level_slack(prop, side, profile.a, profile.b, sign)
            r0 = rng.uniform(0.0, rho)
            times = np.append(rng.uniform(0.0, r0, 40), r0)  # r0: the origin row
            rs, lengths = _cone_rows(data.grid.nodes, r0, times)
            got = nullwave._row_mins(slack, times, rs, lengths, origin(times))
            assert np.array_equal(got, _whole_row_mins(slack, data.grid.nodes, r0, times))


def _scan_rounds(monkeypatch, data, profile):
    """Scan times, rows per _row_mins round, first touching scan time and r0
    of each cone detect_blowup scans, without the bisection."""
    cones = []
    find, evaluate = nullwave._first_touch, nullwave._row_mins

    def counted_find(slack, origin, nodes, r0, lip, noise):
        cones.append((np.linspace(0.0, r0, 1025), [], None, r0))
        return find(slack, origin, nodes, r0, lip, noise)

    def counted_rows(slack, ts, *rest):
        cones[-1][1].append(ts.size)
        return evaluate(slack, ts, *rest)

    def end_of_scan(slack, origin, nodes, r0, lo, hi, hi_loc, tol):
        ts, rows, _, r0 = cones[-1]
        cones[-1] = (ts, rows, hi, r0)
        return hi, hi_loc

    monkeypatch.setattr(nullwave, "_first_touch", counted_find)
    monkeypatch.setattr(nullwave, "_row_mins", counted_rows)
    monkeypatch.setattr(nullwave, "_bisect_touch", end_of_scan)
    detect_blowup(data, profile, False)
    return cones


class TestTreeBisection:
    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(161, 1601),
        k=st.integers(0, 160),
        start=st.floats(0.0, 0.999),
        decades=st.floats(2.0, 9.0),
        tol=st.sampled_from([1e-10, 1e-12]),
        level=st.floats(-0.95, -0.05),
        cycles=st.floats(0.0, 40.0),
        rows=_ROWS,
    )
    # one bracket of 33-point rows, touching not monotone in t, under trees
    # of depth at most 1, 2, 3 and 5
    @example(n=801, k=100, start=0.99, decades=3.0, tol=1e-10, level=-0.3, cycles=10.0, rows=0)
    @example(n=801, k=100, start=0.99, decades=3.0, tol=1e-10, level=-0.3, cycles=10.0, rows=3)
    @example(n=801, k=100, start=0.99, decades=3.0, tol=1e-10, level=-0.3, cycles=10.0, rows=8)
    @example(n=801, k=100, start=0.99, decades=3.0, tol=1e-10, level=-0.3, cycles=10.0, rows=40)
    def test_walks_the_path_of_plain_bisection(
        self, n, k, start, decades, tol, level, cycles, rows
    ):
        # a bracket of 10^-decades·r0; the cone minimum is at r = 0, where
        # slack is level plus a triangle wave in t of 2^cycles periods over
        # the bracket: touching (≤ 0) is not monotone in t down to the
        # period; _SCAN_POINTS in rows of the bracket's row width
        nodes = np.linspace(0.0, 8.0, n)
        r0 = float(nodes[k]) if k else 1.0
        lo = start * r0
        hi = min(lo + 10.0**-decades * r0, r0)
        freq = 2.0 ** cycles / (hi - lo)

        def slack(rs, ts):
            return rs**2 + level + np.abs(np.mod(freq * (ts - lo), 2.0) - 1.0)

        width = int(nullwave._row_layout(nodes, r0, np.array([lo]))[-1][0])
        depths = []
        tree = nullwave._midpoint_tree

        def spy(lo, hi, depth):
            depths.append(depth)
            return tree(lo, hi, depth)

        with pytest.MonkeyPatch.context() as mp:
            _set_scan_points(mp, rows, width)
            mp.setattr(nullwave, "_midpoint_tree", spy)
            got = nullwave._bisect_touch(slack, _origin_of(slack), nodes, r0, lo, hi, -1.0, tol)
        want = _plain_bisection(slack, nodes, r0, lo, hi, -1.0, tol)
        assert got == want
        comb = np.linspace(lo, hi, 4097)
        touch = _whole_row_mins(slack, nodes, r0, comb)[0] <= 0.0
        event(f"touching is monotone in t: {not np.any(touch[:-1] & ~touch[1:])}")
        deepest = max(depths, default=0)
        event(f"deepest tree: {min(deepest, 5)}{'+' if deepest >= 5 else ''}")

    def test_stops_where_plain_bisection_stops(self, monkeypatch):
        # trees of depth 1 to 4 take [lo0, hi0] to [lo, hi] in ten halvings;
        # there rounding leaves the bracket at exactly tol after four more,
        # although log2((hi - lo)/tol) = 4 + 5e-13 gives the next tree a
        # fifth level; the fifth midpoint would touch (slack ≤ 0 from t_star
        # on)
        lo0, hi0 = 0.014094353468197318, 0.9874199036809322
        lo, hi = 0.5606394622302311, 0.5615899754628607
        a = lo
        for _ in range(4):
            a = 0.5 * (a + hi)
        tol, t_star = hi - a, 0.5 * (a + hi)
        assert math.ceil(math.log2((hi - lo) / tol)) == 5
        nodes = np.linspace(0.0, 8.0, 161)

        def slack(rs, ts):
            return rs + (t_star - ts)

        trees = []
        tree = nullwave._midpoint_tree
        monkeypatch.setattr(
            nullwave, "_midpoint_tree", lambda *args: trees.append(args) or tree(*args)
        )
        got = nullwave._bisect_touch(slack, _origin_of(slack), nodes, 1.0, lo0, hi0, -1.0, tol)
        assert [depth for _, _, depth in trees] == [1, 2, 3, 4, 5]
        assert trees[-1] == (lo, hi, 5)
        # hi became a touching midpoint, with the cone minimum at r = 0
        assert got == _plain_bisection(slack, nodes, 1.0, lo0, hi0, -1.0, tol) == (hi, 0.0)

    @pytest.mark.parametrize(
        "width, halvings, depth, rows, depths",
        [pytest.param(w, h, d, (2**d - 1), depths, id=f"{w}-{h}-{d}") for w, h, d, depths in [
            (33, 24, 4, [1, 2, 3] + [4] * 4 + [2]),
            (33, 3, 3, [1, 2]),
            (33, 1, 1, [1]),
            (61, 24, 4, [1, 2, 3] + [4] * 4 + [2]),
            (239, 24, 3, [1, 2] + [3] * 7),
            (1299, 24, 2, [1] + [2] * 11 + [1]),
            (1300, 24, 1, [1] * 24),
            (3201, 24, 1, [1] * 24),
        ]]
        + [pytest.param(26, 24, 9, None, [1, 2, 3, 4, 5, 6, 3], id="default"),
           pytest.param(26, 24, 1, 0, [1] * 24, id="one-point")],
    )
    def test_depth_grows_by_one_per_round(self, monkeypatch, width, halvings, depth, rows, depths):
        # a bracket of 2^-10 that never touches, on rows of width points, and
        # tol = 2^-(10 + halvings); _SCAN_POINTS holds 2^depth - 1 rows (the
        # default a tree of depth 9 on 26-point rows, one point one of depth
        # 1), so the trees grow 1, 2, 3, ... up to depth, the last one holding
        # only the halvings left
        nodes = np.linspace(0.0, 8.0, 4001)
        lo, hi, tol = 0.5, 0.5 + 2.0**-10, 2.0 ** -(10 + halvings)
        r0 = lo + (width - 1.5) * (nodes[1] - nodes[0])  # edge between nodes width - 2 and width - 1
        assert int(nullwave._row_layout(nodes, r0, np.array([lo]))[-1][0]) == width

        def slack(rs, ts):
            return rs + 1.0

        seen = []
        tree = nullwave._midpoint_tree
        monkeypatch.setattr(
            nullwave, "_midpoint_tree", lambda lo, hi, depth: seen.append(depth) or tree(lo, hi, depth)
        )
        _set_scan_points(monkeypatch, rows, width)
        got = nullwave._bisect_touch(slack, _origin_of(slack), nodes, r0, lo, hi, -1.0, tol)
        assert seen == depths
        assert sum(seen) == halvings
        assert got == (hi, -1.0)

    def test_tree_holds_each_bracket_midpoint_in_heap_order(self):
        lo, hi = 0.1, 0.7
        tree = nullwave._midpoint_tree(lo, hi, 4)
        assert tree.size == 15
        brackets = {0: (lo, hi)}
        for j, mid in enumerate(tree):
            a, b = brackets.pop(j)
            assert mid == 0.5 * (a + b)
            brackets[2 * j + 1], brackets[2 * j + 2] = (a, mid), (mid, b)


class TestTimeReversal:
    @settings(max_examples=20, deadline=None)
    @given(**_FAILING)
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
