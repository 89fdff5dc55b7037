"""Finite-difference reference solver: accuracy, energy, blow-up brackets."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from wavecrit import (
    CauchyData,
    ConfigError,
    ConvergenceError,
    Field3D,
    GridError,
    RadialField,
    RadialGrid,
    build_profile,
    builtin_nonlinearity,
    convergence_order,
    discrete_energy,
    fd_solve,
    propagate_radial,
)
from wavecrit.focusing import soliton
from wavecrit.nullwave import detect_blowup, solve_null
from wavecrit.oracle import (
    _ENERGY_BLOCK,
    FDRun,
    MAX_CFL,
    _normalize_rhs,
    _solve_arrays,
    _u_of,
    _u_r,
)

GRID = RadialGrid.uniform(8.0, 801)


def zeros(r):
    return np.zeros_like(r)


def pair(f0, f1, grid=GRID):
    return CauchyData.from_callables(grid, f0, f1)


def gaussian(grid=GRID):
    return pair(lambda r: np.exp(-((r - 2.0) ** 2)), zeros, grid)


def probe(run, radii):
    return np.interp(radii, run.radii, run.final)


# ---------------------------------------------------------------------------
# free-mode accuracy


def test_constant_data_reproduced_to_machine_precision():
    run = fd_solve(pair(lambda r: np.ones_like(r), zeros), None, 1.0, h=0.02, r_max=4.0)
    assert run.status == "completed"
    assert np.max(np.abs(run.final - 1.0)) < 1e-12


def test_free_gaussian_matches_exact_propagator_at_second_order():
    data = gaussian()
    exact = propagate_radial(data, 1.0)
    rs = np.linspace(0.0, 5.0, 41)
    target = np.interp(rs, exact.grid.nodes, exact.values)
    errors = []
    for h in (0.04, 0.02, 0.01):
        run = fd_solve(data, None, 1.0, h=h, r_max=7.0)
        errors.append(np.max(np.abs(probe(run, rs) - target)))
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 1.7) and np.all(orders < 2.3)


def test_staggered_energy_conserved_in_free_mode():
    run = fd_solve(gaussian(), None, 10.0, h=0.05, r_max=8.0)
    report = discrete_energy(run)
    assert report["drift"] < 1e-4  # measured 1.3e-15: exact for frozen boundary
    assert report["values"].size > 100


# ---------------------------------------------------------------------------
# null-form mode against the exact solver


@pytest.fixture(scope="module")
def unit_profile():
    return build_profile(builtin_nonlinearity("const", 1.0))


@pytest.fixture(scope="module")
def sin_profile():
    return build_profile(builtin_nonlinearity("sin"))


def small_data(grid=GRID):
    return pair(
        lambda r: 0.3 * np.exp(-((r - 2.0) ** 2)),
        lambda r: -0.1 * np.exp(-(r**2)),
        grid,
    )


def test_null_mode_converges_to_exact_solution(unit_profile):
    data = small_data()
    exact = solve_null(data, unit_profile, 1.0)
    rs = np.linspace(0.0, 5.0, 41)
    target = np.interp(rs, exact.grid.nodes, exact.values)
    errors = []
    for h in (0.04, 0.02, 0.01):
        run = fd_solve(data, ("null", lambda u: np.ones_like(u)), 1.0, h=h, r_max=7.0)
        errors.append(np.max(np.abs(probe(run, rs) - target)))
    assert errors[0] < 3e-4  # frozen: 1.6e-4 / 4.0e-5 / 9.5e-6
    orders = np.log2(np.array(errors[:-1]) / np.array(errors[1:]))
    assert np.all(orders > 1.7) and np.all(orders < 2.3)


def test_null_mode_sin_weight(sin_profile):
    data = small_data()
    exact = solve_null(data, sin_profile, 1.0)
    rs = np.linspace(0.0, 5.0, 41)
    target = np.interp(rs, exact.grid.nodes, exact.values)
    errs = []
    for h in (0.02, 0.01):
        run = fd_solve(data, ("null", np.sin), 1.0, h=h, r_max=7.0)
        errs.append(np.max(np.abs(probe(run, rs) - target)))
    assert errs[0] < 2e-4 and errs[1] < 0.35 * errs[0]  # frozen: 7.0e-5 -> 1.7e-5


# ---------------------------------------------------------------------------
# convergence_order


FREE_SCENARIO = {
    "u0": lambda r: np.exp(-((r - 2.0) ** 2)),
    "u1": lambda r: np.zeros_like(r),
    "rhs": None,
    "horizon": 1.0,
    "r_max": 7.0,
}


def test_convergence_order_with_reference():
    exact = propagate_radial(gaussian(), 1.0)
    scenario = dict(
        FREE_SCENARIO,
        reference=lambda r: np.interp(r, exact.grid.nodes, exact.values),
    )
    p = convergence_order(scenario, [0.04, 0.02, 0.01])
    assert 1.8 < p < 2.2  # frozen: 2.001


def test_convergence_order_reference_free():
    scenario = dict(FREE_SCENARIO)
    p = convergence_order(scenario, [0.08, 0.04, 0.02, 0.01])
    assert 1.7 < p < 2.3


def test_convergence_order_needs_three_resolutions():
    with pytest.raises(ConfigError):
        convergence_order(FREE_SCENARIO, [0.04, 0.02])


def test_convergence_order_rejects_non_decreasing_sequence():
    with pytest.raises(ConfigError):
        convergence_order(FREE_SCENARIO, [0.04, 0.04, 0.02])


def test_convergence_order_reference_free_needs_constant_ratio():
    with pytest.raises(ConfigError):
        convergence_order(FREE_SCENARIO, [0.04, 0.02, 0.012])


def test_degenerate_study_rejected_as_out_of_regime():
    # constant data are reproduced exactly; errors are rounding noise with
    # no order, and the study must refuse to quote one
    scenario = {
        "u0": lambda r: np.ones_like(r),
        "u1": lambda r: np.zeros_like(r),
        "rhs": None,
        "horizon": 1.0,
        "r_max": 4.0,
        "reference": lambda r: np.ones_like(r),
    }
    with pytest.raises(ConvergenceError, match="asymptotic"):
        convergence_order(scenario, [0.04, 0.02, 0.01])


# ---------------------------------------------------------------------------
# blow-up detection


@pytest.fixture(scope="module")
def ground():
    return soliton("ground", 4)


def grown_soliton_data(scale, grid):
    g = soliton("ground", 4)
    return CauchyData(
        RadialField(grid, scale * g(grid.nodes)),
        RadialField(grid, np.zeros(grid.n)),
    )


def test_detection_time_nondecreasing_in_threshold():
    grid = RadialGrid.uniform(12.0, 481)
    data = grown_soliton_data(1.2, grid)
    detections = []
    for threshold in (1e2, 1e4, 1e6, 1e8):
        run = fd_solve(data, ("power", 4, 1), 10.0, h=0.025, threshold=threshold)
        assert run.status == "blew-up"
        detections.append(run.t_detect)
    assert all(a <= b + 1e-12 for a, b in zip(detections, detections[1:]))
    assert detections[-1] < 10.0


def test_power_runs_without_threshold_go_unstable_not_silent():
    grid = RadialGrid.uniform(12.0, 241)
    run = fd_solve(grown_soliton_data(1.2, grid), ("power", 4, 1), 10.0, h=0.05,
                   threshold=np.inf)
    assert run.status == "unstable"
    assert run.step_index is not None


def test_threshold_tested_on_the_data():
    # sup u0 = 10 is over the threshold before any step is taken
    grid = RadialGrid.uniform(8.0, 161)
    data = pair(lambda r: 10.0 * np.exp(-(r**2)), zeros, grid)
    run = fd_solve(data, None, 1.0, h=0.05, threshold=5.0)
    assert (run.status, run.t_detect, run.step_index) == ("blew-up", 0.0, None)
    assert run.energy_values.size == 0


def test_threshold_tested_after_the_taylor_step():
    # u0 = 0, so only the Taylor first step can cross a threshold of half its sup
    grid = RadialGrid.uniform(8.0, 161)
    data = pair(zeros, lambda r: 50.0 * np.exp(-(r**2)), grid)
    free = fd_solve(data, None, 1.0, h=0.05, threshold=np.inf, snapshot_times=[0.0, 0.04])
    assert free.k == 0.04 and np.max(np.abs(free.snapshots[0])) == 0.0
    run = fd_solve(data, None, 1.0, h=0.05, threshold=0.5 * np.max(np.abs(free.snapshots[1])))
    assert (run.status, run.t_detect) == ("blew-up", free.k)
    np.testing.assert_array_equal(run.energy_values, free.energy_values[:1])


def test_detection_brackets_exact_blowup_time(unit_profile):
    # the exact solver puts the first touch at t0 inside a window radius r0;
    # detection must land in [t0 - delta, r0 + delta] with delta shrinking
    data = pair(lambda r: -2.2 * np.exp(-(r**2)), zeros)
    report = detect_blowup(data, unit_profile)
    t0, r0 = report.t0, report.window
    overshoots = []
    for h in (0.02, 0.01):
        run = fd_solve(data, ("null", lambda u: np.ones_like(u)), 1.0, h=h, r_max=4.0)
        assert run.status == "blew-up"
        assert run.t_detect >= t0 - 0.05
        overshoots.append(max(run.t_detect - r0, t0 - run.t_detect, 0.0))
    assert overshoots[1] < overshoots[0]  # frozen: 0.030 -> 0.016
    assert overshoots[0] < 0.05


def test_defocusing_sign_stays_bounded():
    grid = RadialGrid.uniform(12.0, 241)
    run = fd_solve(grown_soliton_data(1.2, grid), ("power", 4, -1), 6.0, h=0.05)
    assert run.status == "completed"
    assert np.max(np.abs(run.final)) < 1.3


# ---------------------------------------------------------------------------
# validation and serialization


def test_cfl_cap_enforced():
    with pytest.raises(ConfigError):
        fd_solve(gaussian(), None, 1.0, h=0.02, cfl=0.95)


def test_rhs_specs_validated():
    data = gaussian()
    for bad in ("banana", ("power", -1, 1), ("power", 4, 3), ("null",), 42):
        with pytest.raises(ConfigError):
            fd_solve(data, bad, 1.0, h=0.04)


def test_horizon_and_extent_validated():
    with pytest.raises(ConfigError):
        fd_solve(gaussian(), None, 0.0, h=0.04)
    with pytest.raises(ConfigError):
        fd_solve(gaussian(), None, 1.0, h=0.04, r_max=20.0)


def test_radial_data_required():
    bump = Field3D(fn=lambda p: np.exp(-np.sum(p * p, axis=1)), support_radius=6.0)
    with pytest.raises(ConfigError):
        fd_solve(CauchyData(bump, bump), None, 1.0, h=0.04)


@pytest.mark.parametrize("h, nodes", [(20.0, 1), (5.0, 2)])
def test_grid_of_fewer_than_three_nodes_rejected(h, nodes):
    with pytest.raises(GridError, match="too coarse") as exc:
        fd_solve(gaussian(), None, 1.0, h=h)
    assert (exc.value.h, exc.value.nodes) == (h, nodes)
    with pytest.raises(GridError) as exc:
        convergence_order(dict(FREE_SCENARIO, r_max=8.0), [4 * h, 2 * h, h])
    assert (exc.value.h, exc.value.nodes) == (4 * h, 1)


def test_energy_of_a_run_stopped_at_its_data_rejected():
    grid = RadialGrid.uniform(8.0, 161)
    data = pair(lambda r: 10.0 * np.exp(-(r**2)), zeros, grid)
    run = fd_solve(data, None, 1.0, h=0.05, threshold=5.0)
    with pytest.raises(ConfigError, match="no energy history") as exc:
        discrete_energy(run)
    assert (exc.value.status, exc.value.t_detect) == ("blew-up", 0.0)


@pytest.mark.parametrize("times, bad", [([-0.5, 0.3, 2.0], -0.5), ([2.0], 2.0), ([0.5, np.nan], np.nan)])
def test_snapshot_times_outside_the_run_rejected(times, bad):
    with pytest.raises(ConfigError, match="outside") as exc:
        fd_solve(gaussian(), None, 1.0, h=0.04, r_max=6.0, snapshot_times=times)
    np.testing.assert_equal(exc.value.time, bad)


def test_snapshot_sampling_and_write(tmp_path):
    run = fd_solve(gaussian(), None, 1.0, h=0.04, r_max=6.0,
                   snapshot_times=[0.0, 0.5, 1.0])
    t, u = run.sample(0.5)
    assert abs(t - 0.5) < run.k
    assert u.shape == run.radii.shape

    first, second = tmp_path / "a", tmp_path / "b"
    run.write(first)
    run.write(second)
    meta = json.loads((first / "run.json").read_text())
    assert meta["status"] == "completed"
    assert (first / "run.json").read_bytes() == (second / "run.json").read_bytes()
    csvs = sorted(first.glob("snapshot_*.csv"))
    assert len(csvs) == len(run.snapshot_times)
    loaded = np.loadtxt(csvs[0], delimiter=",", skiprows=1)
    assert loaded.shape[1] == 2


# ---------------------------------------------------------------------------
# the leapfrog loop against the per-step loop it replaced


def _reference_pair_energy(w_a, w_b, h, k):
    kinetic = np.sum(((w_b - w_a) / k) ** 2)
    grad = np.sum(np.diff(w_a) * np.diff(w_b)) / (h * h)
    return 4.0 * np.pi * h * 0.5 * (kinetic + grad)


def _reference_solve_arrays(radii, w0, w1, rhs, horizon, cfl, threshold, snapshot_times):
    """The leapfrog as one pass per step: every per-step quantity recomputed
    by each predictor and corrector, one energy per step."""
    mode, f, exponent, sign = _normalize_rhs(rhs)
    h = float(radii[1] - radii[0])
    if not 0.0 < cfl <= MAX_CFL:
        raise ConfigError("CFL ratio must lie in (0, 0.9]", cfl=cfl)
    if horizon <= 0:
        raise ConfigError("horizon must be positive", horizon=horizon)
    n_steps = max(1, int(np.ceil(horizon / (cfl * h) - 1e-12)))
    k = horizon / n_steps

    if snapshot_times is None:
        snapshot_times = np.linspace(0.0, horizon, 9)
    snap_steps = sorted({int(round(t / k)) for t in np.atleast_1d(snapshot_times)})

    def rhs_w(w, w_t):
        if mode == "free":
            return 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            u = _u_of(w, radii, h)
            if mode == "power":
                return sign * np.abs(u) ** exponent * w
            ut = _u_of(w_t, radii, h)
            ur = _u_r(u, h)
            return radii * f(u) * (ut * ut - ur * ur)

    def lap(w):
        out = np.zeros_like(w)
        out[1:-1] = (w[2:] - 2.0 * w[1:-1] + w[:-2]) / (h * h)
        return out

    taken_times, taken = [], []
    if 0 in snap_steps:
        taken_times.append(0.0)
        taken.append(_u_of(w0, radii, h))

    w_prev = w0.copy()
    w_prev[0] = 0.0
    w_cur = w_prev + k * w1 + 0.5 * k * k * (lap(w_prev) + rhs_w(w_prev, w1))
    w_cur[0] = 0.0
    w_cur[-1] = w_prev[-1]

    status, t_detect, step_index = "completed", None, None
    energy_times = np.empty(n_steps)
    energy_values = np.empty(n_steps)
    energy_times[0] = 0.5 * k
    energy_values[0] = _reference_pair_energy(w_prev, w_cur, h, k)
    en_count = 1
    if 1 in snap_steps:
        taken_times.append(k)
        taken.append(_u_of(w_cur, radii, h))

    for j in range(1, n_steps):
        with np.errstate(over="ignore", invalid="ignore"):
            w_t = (w_cur - w_prev) / k
            accel = lap(w_cur) + rhs_w(w_cur, w_t)
            w_next = 2.0 * w_cur - w_prev + k * k * accel
            if mode == "null":
                for _ in range(2):
                    w_t = (w_next - w_prev) / (2.0 * k)
                    accel = lap(w_cur) + rhs_w(w_cur, w_t)
                    w_next = 2.0 * w_cur - w_prev + k * k * accel
        w_next[0] = 0.0
        w_next[-1] = w_cur[-1]

        t_next = (j + 1) * k
        if not np.all(np.isfinite(w_next)):
            status, step_index = "unstable", j + 1
            break
        energy_times[j] = (j + 0.5) * k
        energy_values[j] = _reference_pair_energy(w_cur, w_next, h, k)
        en_count = j + 1
        u_next = _u_of(w_next, radii, h)
        if j + 1 in snap_steps:
            taken_times.append(t_next)
            taken.append(u_next)
        if np.max(np.abs(u_next)) > threshold:
            status, t_detect = "blew-up", t_next
            break
        w_prev, w_cur = w_cur, w_next

    if not taken:
        taken_times = [0.0]
        taken = [_u_of(w0, radii, h)]
    return FDRun(
        scheme="leapfrog on w = r u",
        h=h,
        k=k,
        radii=radii,
        snapshot_times=np.asarray(taken_times),
        snapshots=np.asarray(taken),
        status=status,
        horizon=horizon,
        threshold=threshold,
        t_detect=t_detect,
        step_index=step_index,
        energy_times=energy_times[:en_count],
        energy_values=energy_values[:en_count],
    )


RHS_MODES = {
    "free": None,
    "null-const": ("null", lambda u: np.ones_like(u)),
    "null-linear": ("null", lambda u: u),
    "null-sin": ("null", np.sin),
    "power+1": ("power", 4, 1),
    "power-1": ("power", 3, -1),
}
B = _ENERGY_BLOCK


def assert_same_run(got: FDRun, want: FDRun):
    for fld in dataclasses.fields(FDRun):
        a, b = getattr(got, fld.name), getattr(want, fld.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and np.array_equal(a, b, equal_nan=True), fld.name
        else:
            assert a == b, fld.name


def _threshold_exiting_at(args, exit_step):
    """A threshold that stops the run at exit_step, or inf when sup|u| sets
    no new record there (the threshold is tested at every level)."""
    radii, w0, w1, rhs, horizon, cfl = args
    unbounded = _reference_solve_arrays(radii, w0, w1, rhs, horizon, cfl, np.inf,
                                        horizon * np.arange(1000) / 999)
    sups = np.max(np.abs(unbounded.snapshots), axis=1)
    steps = np.rint(unbounded.snapshot_times / unbounded.k).astype(int)
    at = np.flatnonzero(steps == exit_step)
    if not at.size:
        return np.inf
    before = sups[steps < exit_step]
    record = float(np.max(before)) if before.size else 0.0
    top = float(sups[at[0]])
    return record + 0.5 * (top - record) if top > record else np.inf


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestBlockedLoop:
    """Each step's quantities computed once, energies by block of levels:
    every FDRun field equals the per-step loop's, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(41, 801),
        r_max=st.floats(2.0, 12.0),
        mode=st.sampled_from(sorted(RHS_MODES)),
        n_steps=st.one_of(
            st.sampled_from([1, 2, B - 1, B, B + 1, 2 * B, 2 * B + 1]),
            st.integers(1, 3 * B + 7),
        ),
        cfl=st.floats(0.1, MAX_CFL),
        amp=st.floats(-3.0, 3.0),
        center=st.floats(0.0, 3.0),
        width=st.floats(0.4, 1.5),
        vel=st.floats(-2.0, 2.0),
        snaps=st.one_of(st.none(), st.lists(st.floats(0.0, 1.0), max_size=6)),
        exit_step=st.one_of(
            st.none(), st.sampled_from([2, B - 1, B, B + 1, 2 * B]), st.integers(2, 3 * B + 7)
        ),
    )
    def test_matches_per_step_reference(
        self, n, r_max, mode, n_steps, cfl, amp, center, width, vel, snaps, exit_step
    ):
        h = r_max / (n - 1)
        radii = h * np.arange(n)
        w0 = radii * amp * np.exp(-(((radii - center) / width) ** 2))
        w1 = radii * vel * np.exp(-(radii**2))
        horizon = n_steps * cfl * h
        args = (radii, w0, w1, RHS_MODES[mode], horizon, cfl)
        threshold = 1e8 if exit_step is None else _threshold_exiting_at(args, exit_step)
        times = None if snaps is None else horizon * np.asarray(snaps)
        want = _reference_solve_arrays(*args, threshold, times)
        event(f"{want.status}, {min(want.energy_values.size // B, 2)}+ full blocks")
        assert_same_run(_solve_arrays(*args, threshold, times), want)

    @pytest.mark.parametrize("mode", sorted(RHS_MODES))
    def test_each_mode_over_several_blocks(self, mode):
        radii = 0.01 * np.arange(801)
        args = (radii, radii * 0.3 * np.exp(-((radii - 2.0) ** 2)),
                radii * -0.1 * np.exp(-(radii**2)), RHS_MODES[mode], 2.0, 0.8, 1e8, None)
        want = _reference_solve_arrays(*args)
        assert want.status == "completed" and want.energy_values.size == 250
        assert_same_run(_solve_arrays(*args), want)

    @pytest.mark.parametrize("exit_step", [B - 1, B, B + 1, 2 * B])
    def test_blowup_exit_at_a_block_edge(self, exit_step):
        grid = RadialGrid.uniform(12.0, 241)
        data = grown_soliton_data(1.2, grid)
        args = (grid.nodes, grid.nodes * data.u0.values, np.zeros(grid.n),
                ("power", 4, 1), 2.0, 0.1)
        threshold = _threshold_exiting_at(args, exit_step)
        want = _reference_solve_arrays(*args, threshold, [0.0, 1.0])
        assert want.status == "blew-up" and want.energy_values.size == exit_step
        assert_same_run(_solve_arrays(*args, threshold, [0.0, 1.0]), want)

    @pytest.mark.parametrize(
        "amp, cfl, energies",
        [(1.88, 0.2, B - 1), (1.87, 0.2, B), (1.8621, 0.2, B + 1), (1.86, 0.1, 2 * B)],
    )
    def test_unstable_exit_at_a_block_edge(self, amp, cfl, energies):
        # amplitudes bisected so that u overflows right after that many levels
        radii = 0.04 * np.arange(201)
        args = (radii, radii * amp * np.exp(-(radii**2)), np.zeros(201),
                ("power", 4, 1), 20.0, cfl, np.inf, [0.0, 0.5])
        want = _reference_solve_arrays(*args)
        assert want.status == "unstable" and want.energy_values.size == energies
        assert_same_run(_solve_arrays(*args), want)


@pytest.mark.filterwarnings("ignore:(overflow|invalid value) encountered:RuntimeWarning")
class TestBufferedStep:
    """Exits of the buffered step loop: a NaN-only level, and u = w / r
    overflowing while w is finite (sup|u| is not finite, w is).  Exits at
    level 0 or 1 are tested at the data and after the Taylor step, which the
    per-step reference does not do; there the reference run is compared with
    that exit put in."""

    @staticmethod
    def _stopped_early(args, status, t_detect=None, step_index=None):
        radii, w0 = args[:2]
        run = _reference_solve_arrays(*args)
        return dataclasses.replace(
            run, status=status, t_detect=t_detect, step_index=step_index,
            snapshot_times=np.zeros(1), snapshots=_u_of(w0, radii, run.h)[None],
            energy_times=np.zeros(0), energy_values=np.zeros(0),
        )

    def test_nan_without_inf_in_the_taylor_source(self):
        # at nodes m +- 1 both u_t^2 and u_r^2 overflow, so the null source is
        # inf - inf, and no other node overflows: the first step is NaN, not inf
        radii, m = 0.01 * np.arange(201), 100
        w0, w1 = np.zeros(201), np.zeros(201)
        w0[m], w1[[m - 1, m + 1]] = 1e155, 1e156
        ut2, ur2 = _u_of(w1, radii, 0.01) ** 2, _u_r(_u_of(w0, radii, 0.01), 0.01) ** 2
        assert np.array_equal(np.flatnonzero(np.isinf(ut2)), [m - 1, m + 1])
        assert np.array_equal(np.flatnonzero(np.isinf(ur2)), [m - 1, m + 1])
        args = (radii, w0, w1, RHS_MODES["null-const"], 1.0, 0.8, np.inf, None)
        assert_same_run(_solve_arrays(*args), self._stopped_early(args, "unstable", step_index=1))

    def test_nan_without_inf_in_a_leapfrog_step(self):
        # level 1 is finite with w_10 = 1.09e308, so at the next step 2 w_10 is
        # +inf and the Laplacian there -inf: their sum is NaN, every other node
        # stays finite (h = 1 keeps the Laplacian finite elsewhere)
        radii, w0, w1 = np.arange(21.0), np.zeros(21), np.zeros(21)
        w0[10], w1[10] = 8e307, 1e308
        args = (radii, w0, w1, None, 8.0, 0.8, np.inf, [0.0, 0.8])
        want = _reference_solve_arrays(*args)
        assert (want.status, want.step_index) == ("unstable", 2)
        assert 9e307 < want.snapshots[1, 10] * radii[10] < np.inf
        assert_same_run(_solve_arrays(*args), want)

    @pytest.mark.parametrize("threshold, exit", [(1e8, ("blew-up", 0.0, None)),
                                                 (np.inf, ("unstable", None, 1))])
    def test_u_overflowing_at_r_h_in_the_data(self, threshold, exit):
        # w_1 = 1e307 is finite, u_1 = w_1 / 0.01 is not; at threshold inf the
        # Taylor step's Laplacian overflows
        radii, w0 = 0.01 * np.arange(201), np.zeros(201)
        w0[1] = 1e307
        args = (radii, w0, np.zeros(201), None, 1.0, 0.8, threshold, None)
        got = _solve_arrays(*args)
        assert np.isinf(got.snapshots[0, 1])
        assert_same_run(got, self._stopped_early(args, *exit))

    @pytest.mark.parametrize("threshold, exit", [(1e8, ("blew-up", 3.2, None)),
                                                 (np.inf, ("unstable", None, 3))])
    def test_u_overflowing_at_the_origin_after_two_steps(self, threshold, exit):
        # amplitude bisected so that level 2 has 4.5e307 < w_1 < 9e307: finite,
        # but u_0 = (4 w_1 - w_2) / 2h overflows in 4 w_1.  Below the threshold
        # the run must go on, to go unstable at step 3
        radii = 2.0 * np.arange(21)
        w0 = radii * 1.66748046875 * np.exp(-((radii / 3.0) ** 2))
        args = (radii, w0, np.zeros(21), ("power", 100, 1), 12.8, 0.8, threshold,
                1.6 * np.arange(3))
        want = _reference_solve_arrays(*args)
        assert (want.status, want.t_detect, want.step_index) == exit
        assert np.isinf(want.snapshots[2, 0]) and 4.5e307 < want.snapshots[2, 1] * 2.0 < 9e307
        assert_same_run(_solve_arrays(*args), want)

    def test_run_arrays_are_fresh(self):
        data = small_data()
        first = fd_solve(data, ("null", lambda u: np.ones_like(u)), 1.0, h=0.02, r_max=7.0)
        fields = ("snapshots", "energy_values", "energy_times")
        kept = {name: getattr(first, name).copy() for name in fields}
        for i, a in enumerate(fields):
            for b in fields[i + 1:]:
                assert not np.shares_memory(getattr(first, a), getattr(first, b)), (a, b)
        second = fd_solve(pair(lambda r: np.exp(-(r**2)), zeros), ("null", np.sin), 1.0,
                          h=0.02, r_max=7.0)
        for name in fields:
            assert not np.shares_memory(getattr(first, name), getattr(second, name)), name
            assert np.array_equal(getattr(first, name), kept[name]), name
