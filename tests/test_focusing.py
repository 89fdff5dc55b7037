"""Focusing equation: kernel, monotone iteration, solitons, probes."""

import math
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wavecrit import (
    AdmissibilityError,
    CauchyData,
    ConfigError,
    ExtentError,
    FreePropagator,
    GridError,
    RadialField,
    RadialGrid,
    SolitonError,
    blowup_window_probe,
    crossing_radii,
    duhamel_apply,
    energy_focusing,
    focusing_domination,
    inverse_laplacian_radial,
    kenig_merle_quantities,
    monotone_iterate,
    outgoing_check,
    outgoing_velocity,
    soliton,
    supercritical_envelope,
    supersolution_check,
)
from wavecrit import focusing
from wavecrit.focusing import (
    DEFAULT_CAP,
    _infected_mask,
    _lattice_map,
    _lattice_times,
    _power_source,
    _scaled_velocity_data,
)

GRID = RadialGrid.uniform(8.0, 161)  # h = 0.05, lattice-sized
FINE = RadialGrid.uniform(10.0, 501)

HALF_GRAD = 3.0 * np.sqrt(3.0) * np.pi**2 / 8.0
ENERGY_Q = np.sqrt(3.0) * np.pi**2 / 4.0


def zero(grid=GRID):
    return RadialField(grid, np.zeros(grid.n))


def ground_data(scale=1.0, grid=GRID):
    q = soliton("ground", 4)
    return CauchyData(RadialField(grid, scale * q(grid.nodes)), zero(grid))


def trusted_sup(state):
    return float(np.max(np.abs(state.u_n[state.live])))


# ---------------------------------------------------------------------------
# stationary profiles


def test_ground_profile_plugs_in():
    q = soliton("ground", 4)
    assert q(0.0) == 1.0
    assert abs(q(np.sqrt(3.0)) - 2.0**-0.5) < 1e-15
    r = np.linspace(0.0, 12.0, 601)
    assert np.max(np.abs(q.laplacian(r) + q(r) ** 5)) == 0.0  # closed form


def test_singular_profile_amplitude_and_value():
    s4 = soliton("singular", 4)
    assert abs(s4.amplitude - 2.0**-0.5) < 1e-15
    assert abs(s4(1.0) - 2.0**-0.5) < 1e-15


def fd_radial_laplacian(s, r, h):
    d2 = (-s(r + 2 * h) + 16 * s(r + h) - 30 * s(r) + 16 * s(r - h) - s(r - 2 * h)) / (
        12 * h * h
    )
    d1 = (s(r - 2 * h) - 8 * s(r - h) + 8 * s(r + h) - s(r + 2 * h)) / (12 * h)
    return d2 + 2.0 * d1 / r


@pytest.mark.parametrize("kind,N", [("ground", 4), ("singular", 4), ("singular", 6)])
def test_profiles_satisfy_equation_by_finite_differences(kind, N):
    # independent of the closed-form laplacian: Richardson-extrapolated
    # 5-point derivatives (the pole needs the extra order)
    s = soliton(kind, N)
    r = np.linspace(0.1, 10.0, 331)
    h = 1e-2 * r
    lap = (16.0 * fd_radial_laplacian(s, r, 0.5 * h) - fd_radial_laplacian(s, r, h)) / 15.0
    residual = lap + s(r) ** (N + 1)
    assert np.max(np.abs(residual)) < 1e-8


def test_outgoing_moment_is_shell_derivative():
    for s in (soliton("ground", 4), soliton("singular", 6)):
        r = np.linspace(0.2, 9.0, 101)
        h = 1e-6
        fd = ((r + h) * s(r + h) - (r - h) * s(r - h)) / (2 * h)
        assert np.max(np.abs(s.outgoing_moment(r) - fd)) < 1e-7


def test_soliton_argument_validation():
    with pytest.raises(SolitonError):
        soliton("ground", 6)
    with pytest.raises(SolitonError):
        soliton("singular", 2)
    with pytest.raises(ConfigError):
        soliton("breather", 4)


def test_crossing_radii_closed_form():
    lo, hi = crossing_radii()
    assert abs(lo - (3.0 - np.sqrt(6.0))) < 1e-10
    assert abs(hi - (3.0 + np.sqrt(6.0))) < 1e-10
    q, s4 = soliton("ground", 4), soliton("singular", 4)
    for r in (0.2, 9.0):
        assert s4(r) > q(r)  # singular wins outside the crossings
    for r in (1.0, 3.0):
        assert s4(r) < q(r)


# ---------------------------------------------------------------------------
# lattice Duhamel map against the slice-by-slice double loop


@lru_cache(maxsize=None)
def _time_weights(j):
    # trapezoid (j = 1), composite Simpson (even j), Simpson plus a 3/8
    # block (odd j >= 3), over j uniform intervals
    if j == 1:
        return np.array([0.5, 0.5])
    w = np.zeros(j + 1)
    end = j if j % 2 == 0 else j - 3
    if end >= 2:
        w[0] += 1.0 / 3.0
        w[end] += 1.0 / 3.0
        w[1:end:2] += 4.0 / 3.0
        w[2:end:2] += 2.0 / 3.0
    if j % 2 == 1:
        w[j - 3] += 3.0 / 8.0
        w[j - 2] += 9.0 / 8.0
        w[j - 1] += 9.0 / 8.0
        w[j] += 3.0 / 8.0
    return w


def _reference_duhamel(free, source, nodes, exponent, cap):
    # O(n_r n_t^2): every output column sums its source slices one by one
    n_r, n_t = source.shape
    dt = nodes[1] - nodes[0]
    g = nodes[:, None] * _power_source(source, exponent, cap)
    M = np.vstack(  # the moment above each node, summed from the top node inward
        [-np.cumsum((0.5 * (g[1:] + g[:-1]) * dt)[::-1], axis=0)[::-1], np.zeros((1, n_t))]
    )
    idx = np.arange(n_r)
    out = free.copy()
    inv2r = np.zeros(n_r)
    inv2r[1:] = 0.5 / nodes[1:]
    for j in range(1, n_t):
        w = _time_weights(j)
        acc = np.zeros(n_r)
        for m in range(j):  # the j-th slice has kernel radius zero
            shift = j - m
            hi = np.minimum(idx + shift, n_r - 1)
            lo = np.abs(idx - shift)
            col = (M[hi, m] - M[lo, m]) * inv2r
            col[0] = g[shift, m] if shift < n_r else g[-1, m]
            acc += w[m] * col
        out[:, j] = free[:, j] + dt * acc
    return out


def test_time_weights_positive_and_exact_on_parabolas():
    for j in range(1, 12):
        w = _time_weights(j)
        assert w.size == j + 1
        assert np.min(w) >= 0.0
        if j >= 2:  # Simpson blocks integrate s^2 exactly
            s = np.arange(j + 1.0)
            assert abs(np.dot(w, s * s) - j**3 / 3.0) < 1e-10 * j**3


# ---------------------------------------------------------------------------
# lattice fixed point


def lattice(grid, horizon, profile):
    n_t = int(round(horizon / grid.spacing)) + 1
    return np.tile(profile(grid.nodes)[:, None], (1, n_t))


def trusted_mask(grid, n_t):
    times = grid.spacing * np.arange(n_t)
    return grid.nodes[:, None] + times[None, :] <= grid.r_max + 1e-9


def test_ground_state_is_lattice_fixed_point():
    q = soliton("ground", 4)
    residuals = []
    for n in (201, 401):  # h = 0.04, 0.02
        grid = RadialGrid.uniform(8.0, n)
        src = lattice(grid, 4.0, q)
        out = duhamel_apply(ground_data(1.0, grid), src, 4.0)
        tr = trusted_mask(grid, src.shape[1])
        residuals.append(float(np.max(np.abs(out - src)[tr])))
    assert residuals[0] < 5e-3  # frozen: 1.7e-4
    assert residuals[1] < 0.5 * residuals[0]  # frozen: 4.3e-5, clean O(h^2)


def _duhamel_lattice(free, source, nodes, exponent, cap):
    return _lattice_map(nodes, source.shape[1])(free, source, exponent, cap)


@settings(max_examples=60, deadline=None)
@given(
    n_r=st.integers(2, 40),
    fill=st.floats(0.0, 1.0),
    N=st.sampled_from([0.0, 4.0]),
    cap=st.sampled_from([np.inf, 1.5]),
    seed=st.integers(0, 2**32 - 1),
)
def test_lattice_apply_matches_double_loop(n_r, fill, N, cap, seed):
    # n_t runs from 2 (the trapezoid rule alone) to n_r (the clamped top row)
    n_t = 2 + int(round(fill * (n_r - 2)))
    rng = np.random.default_rng(seed)
    nodes = 0.05 * np.arange(n_r)
    free = rng.normal(size=(n_r, n_t))
    source = rng.normal(size=(n_r, n_t))
    ref = _reference_duhamel(free, source, nodes, N, cap)
    out = _duhamel_lattice(free, source, nodes, N, cap)
    assert np.array_equal(out[:, 0], free[:, 0])
    assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))


def _gather_time_sums(E):
    # S[:, j] = Σ_{m<j} w_j[m] E[:, m] for every j, from one prefix sum
    n_t = E.shape[1]
    s = np.where(np.arange(n_t - 1) % 2, 4.0 / 3.0, 2.0 / 3.0)
    s[:1] = 1.0 / 3.0
    S = np.zeros_like(E)
    np.cumsum(E[:, :-1] * s, axis=1, out=S[:, 1:])
    if n_t > 1:
        S[:, 1] = 0.5 * E[:, 0]
    if n_t > 3:  # odd j >= 3, reading m = j - 3, j - 2, j - 1
        c = np.where(np.arange(3, n_t, 2) == 3, 3.0 / 8.0, 17.0 / 24.0)
        m3, m2, m1 = (slice(k, n_t - 3 + k, 2) for k in range(3))
        S[:, 3::2] = S[:, m3] + c * E[:, m3] + 9.0 / 8.0 * (E[:, m2] + E[:, m1])
    return S


def _gather_duhamel(free, source, nodes, exponent, cap):
    # the lattice map as it was before its workspace: the anti-diagonal,
    # diagonal and origin families gathered by index arrays on every call,
    # summed along their rows and read back at column j; kept as the oracle
    # whose every bit the map keeps
    n_r, n_t = source.shape
    dt = nodes[1] - nodes[0]
    g = nodes[:, None] * _power_source(source, exponent, cap)
    M = np.zeros((n_r, n_t))
    np.cumsum(((g[1:] + g[:-1]) * (-0.5 * dt))[::-1], axis=0, out=M[-2::-1])
    m = np.arange(n_t)
    row = np.arange(n_r + n_t - 1)[:, None]
    along = np.minimum(np.abs(row - m), n_r - 1) * n_t + m
    across = np.minimum(np.abs(row - (n_t - 1) + m), n_r - 1) * n_t + m
    i, j = np.arange(1, n_r)[:, None], m[1:]
    A = _gather_time_sums(M.ravel()[along]).ravel()[(i + j) * n_t + j]
    B = _gather_time_sums(M.ravel()[across]).ravel()[(i - j + n_t - 1) * n_t + j]
    out = free.copy()
    out[1:, 1:] += dt * (0.5 / nodes[1:, None]) * (A - B)
    out[0, 1:] += dt * np.diagonal(_gather_time_sums(g.ravel()[along[:n_t]]))[1:]
    return out


@settings(max_examples=80, deadline=None)
@given(
    n_r=st.integers(2, 60),
    fill=st.floats(0.0, 1.0),
    N=st.sampled_from([0.0, 4.0]),
    cap=st.sampled_from([np.inf, 1.5]),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_r=161, fill=0.5, N=4.0, cap=1.0e6, seed=0)
def test_lattice_map_keeps_every_bit_of_the_gathers(n_r, fill, N, cap, seed):
    # n_t from 1 to n_r; sources over the cap and ±inf; one map applied to
    # several sources, so no value may outlive the call that wrote it
    n_t = 1 + int(round(fill * (n_r - 1)))
    rng = np.random.default_rng(seed)
    nodes = 0.05 * np.arange(n_r)
    apply = _lattice_map(nodes, n_t)
    for infinite in (0.0, 0.03, 0.0):
        free = rng.normal(size=(n_r, n_t))
        source = rng.normal(scale=2.0, size=(n_r, n_t))
        source[rng.random(source.shape) < infinite] = np.inf
        source[rng.random(source.shape) < infinite] = -np.inf
        with np.errstate(over="ignore", invalid="ignore"):
            want = _gather_duhamel(free, source, nodes, N, cap)
            got = apply(free, source, N, cap)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@settings(max_examples=40, deadline=None)
@given(N=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_integer_powers_match_the_float_power(N, seed):
    rng = np.random.default_rng(seed)
    u = rng.choice([-1.0, 1.0], 500) * 10.0 ** rng.uniform(-50.0, 50.0, 500)
    want = np.sign(u) * np.abs(u) ** (N + 1.0)
    got = _power_source(u, float(N), np.inf)
    assert np.all(np.abs(got - want) <= 4 * np.spacing(np.abs(want)))
    assert np.array_equal(np.signbit(got), np.signbit(u))
    assert np.array_equal(_power_source(u, N + 0.5, np.inf), np.sign(u) * np.abs(u) ** (N + 1.5))


@pytest.mark.parametrize("N", [0.0, 1.0, 4.0, 2.5])
def test_sources_over_the_cap_are_zero_and_an_infinite_cap_keeps_infinities(N):
    u = np.array([-np.inf, -3.0, -1.5, 0.0, 1.5, 3.0, np.inf])
    capped = _power_source(u, N, 2.0)
    assert np.array_equal(capped[[0, 1, 5, 6]], np.zeros(4))
    assert np.array_equal(capped[2:5], np.sign(u[2:5]) * np.abs(u[2:5]) ** (N + 1.0))
    assert np.array_equal(_power_source(u[[0, 6]], N, np.inf), [-np.inf, np.inf])


def _local_segment_apply(free, source, nodes, exponent, cap, live):
    # the lattice map at the live nodes with each kernel's segment sum taken
    # by math.fsum over its own segments only: no cumulative moment, so no
    # source outside the kernel support enters, and the sums are exact
    n_r = nodes.size
    dt = nodes[1] - nodes[0]
    g = nodes[:, None] * _power_source(source, exponent, cap)
    seg, gt = (0.5 * (g[1:] + g[:-1]) * dt).T.tolist(), g.T.tolist()
    want = np.full(source.shape, np.nan)
    for i, j in zip(*np.nonzero(live)):
        w = _time_weights(j).tolist() if j else []
        if i == 0:
            terms = [w[m] * gt[m][min(j - m, n_r - 1)] for m in range(j)]
            want[i, j] = free[i, j] + dt * math.fsum(terms)
        else:
            terms = [w[m] * math.fsum(seg[m][abs(i - j + m):min(i + j - m, n_r - 1)]) for m in range(j)]
            want[i, j] = free[i, j] + dt * (0.5 / nodes[i]) * math.fsum(terms)
    return want


@pytest.mark.parametrize("scale, horizon", [(1.2, 2.5), (1.25, 2.9)])
def test_apply_is_exact_at_the_live_nodes_above_threshold(scale, horizon):
    # sources of nodes near the cap (|u|^5 up to 1e30) sit near the origin;
    # summed from the origin outward they cancelled in every difference above
    # them: on (1.2, 2.5), 2606 live nodes lost more than 1e-9, many all digits
    data = ground_data(scale)
    state = monotone_iterate(data, 4, horizon, tol=1e-6, keep_history=True)
    assert state.diverged_fraction > 0.0
    free = FreePropagator(data).lattice(state.times.size)
    apply = _lattice_map(state.radii, state.times.size)
    masked = [np.any(np.isinf(u)) for u in state.history]
    for u in (state.history[masked.index(True)], state.history[-1]):
        live = state.trusted & np.isfinite(u)
        want = _local_segment_apply(free, u, state.radii, 4.0, DEFAULT_CAP, live)
        got = apply(free, u, 4.0, DEFAULT_CAP)
        assert np.all(np.abs(got - want)[live] <= 1e-12 * np.abs(want[live]))


@pytest.mark.parametrize("direction", [-np.inf, np.inf])
def test_above_threshold_verdict_holds_under_one_ulp_of_the_free_wave(direction, monkeypatch):
    # with the moments summed from the origin outward, one ulp moved this
    # draw from 18 iterations to 22 (down) or 19 (up), and its fraction by 1e-4
    data = ground_data(1.2)
    state = monotone_iterate(data, 4, 2.5, tol=1e-6)
    lattice = FreePropagator.lattice
    monkeypatch.setattr(
        FreePropagator, "lattice", lambda self, n_t: np.nextafter(lattice(self, n_t), direction)
    )
    nudged = monotone_iterate(data, 4, 2.5, tol=1e-6)
    assert state.diverged_fraction > 0.0
    assert (nudged.n, nudged.diverged_fraction) == (state.n, state.diverged_fraction)


@pytest.mark.parametrize(
    "q,m", [(0, 0), (1, 0), (7, 3), (20, 0), (20, 9), (12, 10)]
)
def test_unit_impulse_stays_in_its_forward_cone(q, m):
    # what masking relies on: a source node reaches only its forward cone;
    # and the kernel is positive with no tolerance, since the cumulative
    # moment is nondecreasing and i + s >= |i - s|
    n_r, n_t = 21, 11
    nodes = 0.05 * np.arange(n_r)
    source = np.zeros((n_r, n_t))
    source[q, m] = 1.0
    out = _duhamel_lattice(np.zeros((n_r, n_t)), source, nodes, 0.0, np.inf)
    cone = _infected_mask(source > 0)
    assert np.all(out[~cone] == 0.0)
    assert np.all(out >= 0.0)
    if 0 < q and m < n_t - 1:
        assert np.any(out[cone] != 0.0)


def _reference_infected_mask(mask):
    # the sweep over every column, kept as the oracle of _infected_mask
    out = mask.copy()
    front = mask[:, 0].copy()
    for j in range(1, mask.shape[1]):
        spread = front.copy()
        spread[1:] |= front[:-1]
        spread[:-1] |= front[1:]
        front = spread | mask[:, j]
        out[:, j] |= front
    return out


@settings(max_examples=150, deadline=None)
@given(
    n_r=st.integers(1, 30),
    n_t=st.integers(1, 30),
    cells=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=8),
    place=st.sampled_from(["anywhere", "first_column", "last_column", "edge_rows", "scattered"]),
)
@example(n_r=161, n_t=121, cells=[], place="anywhere")
def test_infected_mask_matches_full_sweep(n_r, n_t, cells, place):
    mask = np.zeros((n_r, n_t), dtype=bool)
    if place == "scattered":
        rng = np.random.default_rng(sum(a + b for a, b in cells))
        mask = rng.random((n_r, n_t)) < rng.uniform(0.0, 0.2)
    for a, b in cells:
        q, m = a % n_r, b % n_t
        if place == "first_column":
            m = 0
        elif place == "last_column":
            m = n_t - 1
        elif place == "edge_rows":
            q = (n_r - 1) * (a % 2)
        mask[q, m] = True
    out = _infected_mask(mask)
    assert out is not mask
    np.testing.assert_array_equal(out, _reference_infected_mask(mask))


def test_duhamel_apply_validates_shape_and_grid():
    data = ground_data()
    with pytest.raises(ConfigError):
        duhamel_apply(data, np.zeros((3, 4)), 4.0)
    graded = RadialGrid.graded(8.0, 161)
    gdata = CauchyData(RadialField(graded, np.zeros(161)), RadialField(graded, np.zeros(161)))
    with pytest.raises(GridError):
        duhamel_apply(gdata, np.zeros((161, 10)), 4.0)


def test_duhamel_apply_refuses_more_columns_than_nodes():
    grid = RadialGrid.uniform(0.5, 11)
    data = CauchyData(zero(grid), zero(grid))
    assert duhamel_apply(data, np.ones((11, 11)), 4.0).shape == (11, 11)
    with pytest.raises(ExtentError):
        duhamel_apply(data, np.ones((11, 12)), 4.0)


# ---------------------------------------------------------------------------
# monotone iteration


def test_zero_data_converge_immediately():
    state = monotone_iterate(CauchyData(zero(), zero()), 4, 3.0)
    assert state.converged and state.n == 1
    assert trusted_sup(state) == 0.0


def test_ground_data_converge_to_ground_state():
    q = soliton("ground", 4)
    state = monotone_iterate(ground_data(), 4, 3.0, tol=1e-8, keep_history=True)
    assert state.converged and state.case == "ii"
    envelope = q(state.radii)[:, None]
    gap = (state.u_n - envelope)[state.live]
    assert np.max(np.abs(gap)) < 5e-3  # lattice fixed point is Q + O(h^2)
    assert np.max(gap) < 1e-4  # iterates stay (essentially) below Q
    for older, newer in zip(state.history, state.history[1:]):
        live = state.trusted & np.isfinite(older) & np.isfinite(newer)
        assert np.min((newer - older)[live]) > -1e-12  # pointwise nondecreasing


def _reference_iterate(data, N, horizon, cap, tol, n_max):
    # the iteration loop before the lattice map: gathers on every iterate,
    # and the mask recomputed in full every time
    nodes = data.grid.nodes
    times = _lattice_times(data.grid, horizon)
    trusted = nodes[:, None] + times[None, :] <= data.grid.r_max + 1e-9
    free = FreePropagator(data).lattice(times.size)
    u = free.copy()
    mask = _infected_mask(np.abs(u) > cap)
    u[mask] = np.inf
    trace = []
    for n in range(1, n_max + 1):
        new_u = _gather_duhamel(free, u, nodes, N, cap)
        new_mask = _infected_mask(mask | (np.abs(new_u) > cap))
        new_u[new_mask] = np.inf
        live = trusted & ~new_mask & ~mask
        sup_change = float(np.max(np.abs(new_u[live] - u[live]))) if np.any(live) else 0.0
        u, mask = new_u, new_mask
        fraction = float(np.sum(mask & trusted) / max(int(np.sum(trusted)), 1))
        trace.append({"n": n, "sup_change": sup_change, "diverged_fraction": fraction})
        if sup_change < tol:
            break
    return u, mask, trace


@pytest.mark.parametrize("scale, horizon", [(0.8, 3.0), (1.2, 2.5)])
def test_iterate_builds_one_map_and_masks_only_on_growth(scale, horizon, monkeypatch):
    # below the threshold the mask never grows past the initial one; above it
    # the iterates, mask and trace are those of the loop before the map
    data = ground_data(scale)
    u, mask, trace = _reference_iterate(data, 4.0, horizon, DEFAULT_CAP, 1e-6, 200)
    calls = {"_lattice_map": 0, "_infected_mask": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(focusing, name)):
            calls[_name] += 1
            return _inner(*args)

        monkeypatch.setattr(focusing, name, counted)
    state = monotone_iterate(data, 4, horizon, tol=1e-6)
    assert state.converged and state.n == len(trace) > 2
    assert state.trace == trace
    assert np.array_equal(state.u_n, u) and np.array_equal(state.divergence_mask, mask)
    assert calls["_lattice_map"] == 1
    if scale < 1.0:
        assert state.diverged_fraction == 0.0 and calls["_infected_mask"] == 1
    else:
        assert state.diverged_fraction == trace[-1]["diverged_fraction"] > 0.0
        assert 1 < calls["_infected_mask"] <= state.n


def random_case_ii_family(rng, grid=GRID):
    # (r u0)' = m >= 0 by construction, r|u1| = |beta| m with |beta| < 1,
    # so the shell margin is m (1 - |beta|) >= 0: case ii data
    q = soliton("ground", 4)
    nodes = grid.nodes
    m = 0.05 * q.outgoing_moment(nodes)
    for _ in range(rng.integers(1, 4)):
        a = rng.uniform(0.05, 0.2)
        c = rng.uniform(0.0, 3.0)
        w = rng.uniform(0.4, 1.2)
        m = m + a * np.exp(-((nodes - c) ** 2) / w**2)
    beta = rng.uniform(-0.3, 0.3)
    shell = np.concatenate(
        ([0.0], np.cumsum(0.5 * (m[1:] + m[:-1]) * np.diff(nodes)))
    )
    u0 = np.empty_like(nodes)
    u0[1:] = shell[1:] / nodes[1:]
    u0[0] = m[0]
    vel = np.empty_like(nodes)
    vel[1:] = beta * m[1:] / nodes[1:]
    vel[0] = vel[1]
    u1 = RadialField(grid, vel, origin_moment=float(beta * m[0]))
    return CauchyData(RadialField(grid, u0), u1)


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_random_admissible_families_iterate_monotonically(seed):
    rng = np.random.default_rng(seed)
    data = random_case_ii_family(rng)
    state = monotone_iterate(data, 4, 2.5, tol=1e-8, keep_history=True)
    assert state.converged and state.case == "ii"
    for older, newer in zip(state.history, state.history[1:]):
        live = state.trusted & np.isfinite(older) & np.isfinite(newer)
        assert np.min((newer - older)[live]) > -1e-12


@pytest.mark.parametrize("seed", [5, 23])
def test_ordered_data_give_ordered_iterates(seed):
    rng = np.random.default_rng(seed)
    upper = random_case_ii_family(rng)
    gamma = rng.uniform(0.2, 0.5)
    lower = CauchyData(
        upper.u0.with_values(gamma * upper.u0.values),
        RadialField(
            upper.u1.grid,
            gamma * upper.u1.values,
            origin_moment=gamma * upper.u1.origin_moment,
        ),
    )
    hi = monotone_iterate(upper, 4, 2.5, tol=1e-8, keep_history=True)
    lo = monotone_iterate(lower, 4, 2.5, tol=1e-8, keep_history=True)
    assert hi.case == lo.case == "ii"
    steps = min(len(hi.history), len(lo.history))
    for a, b in zip(hi.history[:steps], lo.history[:steps]):
        live = hi.trusted & np.isfinite(a) & np.isfinite(b)
        assert np.min((a - b)[live]) > -1e-12  # u_n >= v_n
        assert np.min(b[live]) > -1e-12  # v_n >= 0


def _gaussian(grid=GRID):
    return RadialField(grid, np.exp(-(grid.nodes**2)))


CASE_DATA = {
    "ii": lambda: ground_data(0.7),
    "iii": lambda: _scaled_velocity_data(GRID, 0.7),  # a 1/r velocity pole
    "i": lambda: CauchyData(_gaussian(), outgoing_velocity(_gaussian(), "expanding")),
    "iv": lambda: CauchyData(
        inverse_laplacian_radial(lambda s: (1.0 + s * s) ** -2.0, GRID),
        RadialField(GRID, np.full(GRID.n, 0.05)),
    ),
}


@pytest.mark.parametrize("tag", sorted(CASE_DATA))
def test_case_is_the_first_case_the_data_meet(tag):
    # one datum per tag of the case table; the refusal is the next test
    state = monotone_iterate(CASE_DATA[tag](), 4, 0.5)
    assert state.case == tag
    assert state.validity == ("all t" if tag in ("ii", "iv") else "t >= 0")


def test_case_table_builds_the_case_ii_sides_once(monkeypatch):
    # the orientation test of case i shares the case-ii sides of the ii verdict
    from wavecrit import criteria

    calls = []
    reduce = criteria.reduce_to_line
    monkeypatch.setattr(criteria, "reduce_to_line", lambda f: calls.append(f) or reduce(f))
    assert focusing._admissibility_case(CASE_DATA["iii"]()) == ("iii", "t >= 0")
    assert len(calls) == 1


def test_inadmissible_data_are_refused():
    bump = RadialField(GRID, -np.exp(-(GRID.nodes**2)))
    with pytest.raises(AdmissibilityError, match="monotonicity not guaranteed"):
        monotone_iterate(CauchyData(bump, zero()), 4, 2.0)


def test_lattice_needs_uniform_grid_and_contained_horizon():
    graded = RadialGrid.graded(8.0, 161)
    q = soliton("ground", 4)
    data = CauchyData(RadialField(graded, q(graded.nodes)), RadialField(graded, np.zeros(161)))
    with pytest.raises(GridError):
        monotone_iterate(data, 4, 2.0)
    with pytest.raises(ExtentError):
        monotone_iterate(ground_data(), 4, 9.0)  # horizon > r_max


def test_cap_crossing_masks_forward_cone():
    state = monotone_iterate(ground_data(1.2), 4, 6.0, cap=50.0, tol=1e-6, n_max=12)
    mask = state.divergence_mask
    assert state.diverged_fraction > 0.0
    assert np.all(np.isinf(state.u_n[mask]))
    # infection: once masked, a node's forward cone stays masked
    for j in range(mask.shape[1] - 1):
        spread = mask[:, j].copy()
        spread[1:] |= mask[:-1, j]
        spread[:-1] |= mask[1:, j]
        assert np.all(mask[:, j + 1] >= spread)
    fractions = [t["diverged_fraction"] for t in state.trace]
    assert all(a <= b + 1e-15 for a, b in zip(fractions, fractions[1:]))


# ---------------------------------------------------------------------------
# energy and comparison integrals


def test_energy_examples():
    big = RadialGrid.graded(1.0e4, 6001)
    q = soliton("ground", 4)
    assert energy_focusing(zero(big), zero(big)) == 0.0
    e_ground = energy_focusing(RadialField(big, q(big.nodes)), zero(big))
    assert abs(e_ground - ENERGY_Q) < 1e-4 * ENERGY_Q
    vel = _scaled_velocity_data(big, 1.0)
    e_vel, info = energy_focusing(vel.u0, vel.u1, full_output=True)
    assert abs(e_vel - 1.5 * ENERGY_Q) < 1e-8 * ENERGY_Q
    assert info.resolved
    with pytest.raises(GridError):
        energy_focusing(zero(big), zero())


def test_comparison_integrals_hit_closed_forms():
    km = kenig_merle_quantities()
    assert abs(km["half_grad_norm_sq"] - HALF_GRAD) < 1e-5 * HALF_GRAD
    assert abs(km["half_grad_norm_sq"] - 6.41053) < 1e-4  # quoted value
    assert abs(km["energy_pole_velocity"] - HALF_GRAD) < 1e-5 * HALF_GRAD
    assert abs(km["virial_integral"]) < 1e-6 * km["grad_norm_sq"]
    assert abs(km["energy_ground"] - ENERGY_Q) < 1e-5 * ENERGY_Q
    assert abs(km["energy_ratio"] - 1.5) < 1e-6
    assert abs(km["first_variation"]) < 1e-5
    assert abs(km["second_variation"] + 4.0 * km["grad_norm_sq"]) < 1e-5


# ---------------------------------------------------------------------------
# window probe


def test_probe_minus_direction_bounded_and_decaying():
    report = blowup_window_probe(0.2, "minus", horizon=4.0)
    assert report["bounded"]
    assert report["sup_lattice"] <= 1.0  # never exceeds the ground peak
    assert report["domination_margin"] > 0.0
    assert report["fd_status"] == "completed"
    assert report["decay_trend"]
    assert report["iteration"]["converged"]


def test_probe_plus_direction_crosses_threshold():
    grid = RadialGrid.uniform(8.0, 161)
    report = blowup_window_probe(0.2, "plus", horizon=6.0, grid=grid)
    assert report["fd_status"] == "blew-up"
    assert report["cap_crossing_time"] < 6.0  # frozen: 1.12
    assert report["iteration"]["first_diverged_iterate"] is not None


def test_probe_validates_arguments():
    for eps in (0.0, -0.1, 0.6):
        with pytest.raises(ConfigError):
            blowup_window_probe(eps, "minus")
    with pytest.raises(ConfigError):
        blowup_window_probe(0.2, "sideways")


def test_threshold_boundary_has_zero_margin_and_outgoing_structure():
    # at the window's edge the comparison margin vanishes and the edge data
    # are exactly the collapsing outgoing pair of the ground profile
    data_u = ground_data(1.0, FINE)
    data_v = _scaled_velocity_data(FINE, 1.0)
    verdict = focusing_domination(data_u, data_v, "ii")
    assert abs(verdict.margin) < 1e-7
    edge = CauchyData(data_u.u0, data_v.u1)
    chk = outgoing_check(edge)
    assert chk.holds and chk.bounds["orientation"] == "collapsing"


# ---------------------------------------------------------------------------
# supersolution and envelope


def test_supersolution_equality_and_homogeneity():
    q = soliton("ground", 4)
    u0 = RadialField(GRID, q(GRID.nodes))
    lap = RadialField(GRID, q.laplacian(GRID.nodes))
    v = supersolution_check(u0, 4, laplacian=lap)
    assert v.holds and v.margin == 0.0
    assert "domination" in v.bounds
    v = supersolution_check(
        u0.with_values(1.1 * u0.values),
        4,
        laplacian=RadialField(GRID, 1.1 * q.laplacian(GRID.nodes)),
    )
    assert not v.holds  # -Δ scales linearly, the right side by 1.1^5
    assert supersolution_check(zero(), 4).holds


def test_supersolution_singular_profile_capped_at_origin():
    s6 = soliton("singular", 6)
    vals = s6(np.maximum(GRID.nodes, GRID.nodes[1]))
    lap = s6.laplacian(np.maximum(GRID.nodes, GRID.nodes[1]))
    v = supersolution_check(
        RadialField(GRID, vals), 6, laplacian=RadialField(GRID, lap)
    )
    assert v.holds and abs(v.margin) < 1e-14


def test_supersolution_spline_laplacian_on_strict_case():
    # a strictly interior supersolution survives spline differentiation
    q = soliton("ground", 4)
    u0 = RadialField(GRID, 0.5 * q(GRID.nodes))
    v = supersolution_check(u0, 4)
    assert v.holds and v.bounds["laplacian_source"] == "spline"


C6 = (2.0 / 9.0) ** (1.0 / 6.0)


def envelope_load_data(grid):
    # -Δ u0 = 0.9 C6^7 (1+r)^{-7/3}, u1 = 0: strictly inside the envelope
    amp = 0.9 * C6**7
    return CauchyData(
        inverse_laplacian_radial(lambda s: amp * (1.0 + s) ** (-7.0 / 3.0), grid),
        zero(grid),
    )


def test_envelope_data_keep_every_iterate_under_the_singular_profile():
    data = envelope_load_data(GRID)
    verdict = supercritical_envelope(data, 6, alpha=1.0)
    assert verdict.holds
    state = monotone_iterate(data, 6, 4.0, keep_history=True, tol=1e-8)
    assert state.converged
    bound = C6 * (1.0 + state.radii) ** (-1.0 / 3.0)
    for u in state.history:
        live = state.trusted & np.isfinite(u)
        assert np.max((np.abs(u) - bound[:, None])[live]) < 0.0
