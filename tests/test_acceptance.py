"""Acceptance gate: one test and one printed pass/fail line per guarantee.

Each test re-derives its target from closed forms or from the independent
reference solver, enforces the stated tolerance, and checks its wall-clock
cap.  Run with -s (or read captured output) to see the checklist.
"""

import time

import numpy as np

from wavecrit import (
    CauchyData,
    RadialField,
    RadialGrid,
    blowup_window_probe,
    build_profile,
    builtin_nonlinearity,
    crossing_radii,
    duhamel_apply,
    inverse_laplacian_radial,
    kenig_merle_quantities,
    monotone_iterate,
    propagate_radial,
    push_forward,
    soliton,
    supercritical_envelope,
)
from wavecrit.freewave import FreePropagator, dalembert_split
from wavecrit.nullwave import (
    asymptotic_profile,
    conserved_energy_quadratic,
    detect_blowup,
    null_solution,
    solve_null,
)
from wavecrit.oracle import convergence_order, fd_solve

GRID = RadialGrid.uniform(8.0, 801)
HALF_GRAD = 3.0 * np.sqrt(3.0) * np.pi**2 / 8.0


def report(num, label, checks, elapsed, cap, note=""):
    """Print the checklist line, then fail with the offending clauses."""
    bad = [msg for ok, msg in checks if not ok]
    status = "PASS" if not bad and elapsed < cap else "FAIL"
    extra = f" [{note}]" if note else ""
    print(
        f"[criterion {num:02d}] {label}: {status} "
        f"({elapsed:.2f}s, cap {cap:.0f}s){extra}",
        flush=True,
    )
    assert not bad, f"criterion {num}: " + "; ".join(bad)
    assert elapsed < cap, f"criterion {num}: {elapsed:.2f}s over the {cap:.0f}s cap"


def unit_profile():
    return build_profile(builtin_nonlinearity("const", 1.0))


def gaussian_data(amplitude, center=0.0, width=1.0, grid=GRID):
    return CauchyData.from_callables(
        grid,
        lambda r: amplitude * np.exp(-((r - center) ** 2) / width**2),
        lambda r: np.zeros_like(r),
    )


def scaled_velocity_data(grid, scale):
    # (0, scale * (S_r + S/r)): the velocity slot carries the 1/r pole
    m = scale * soliton("ground", 4).outgoing_moment(grid.nodes)
    return CauchyData(RadialField(grid, np.zeros(grid.n)), RadialField.from_moment(grid, m))


def test_01_closed_form_ground_state_integrals():
    start = time.perf_counter()
    q = kenig_merle_quantities()
    half = q["half_grad_norm_sq"]
    pole = q["energy_pole_velocity"]
    virial = q["virial_integral"]
    checks = [
        # frozen: rel 1.1e-9
        (abs(half - HALF_GRAD) <= 1e-5 * HALF_GRAD,
         f"half gradient norm {half} vs {HALF_GRAD}"),
        # energy of the pole-velocity datum is 3/2 the static energy, which
        # collapses to the same closed form; frozen: rel 3.6e-10
        (abs(pole - HALF_GRAD) <= 1e-5 * HALF_GRAD,
         f"pole-velocity energy {pole} vs {HALF_GRAD}"),
        # frozen: -1.9e-8 against a 1.3e-4 allowance
        (abs(virial) <= 1e-5 * q["grad_norm_sq"],
         f"virial integral {virial} not within tolerance of zero"),
        (abs(q["energy_ratio"] - 1.5) <= 1e-3,
         f"energy ratio {q['energy_ratio']} vs 3/2"),
    ]
    report(1, "closed-form integrals of the static profile", checks,
           time.perf_counter() - start, 1.0)


def test_02_criterion_sharpness_on_randomized_families():
    start = time.perf_counter()
    unit = unit_profile()
    rng = np.random.default_rng(20260814)
    held = failed = 0
    checks = []
    probe_r = np.linspace(0.0, 10.0, 501)
    for i in range(20):
        # alternate small bumps (pass) with deep wells (fail)
        amp = rng.uniform(0.05, 0.45) if i % 2 == 0 else rng.uniform(-2.2, -1.2)
        center, width = rng.uniform(0.0, 3.0), rng.uniform(0.6, 1.4)
        beta = rng.uniform(-0.05, 0.05)
        data = CauchyData.from_callables(
            GRID,
            lambda r: amp * np.exp(-((r - center) ** 2) / width**2),
            lambda r: beta * np.exp(-(r**2)),
        )
        sol = null_solution(data, unit)
        if sol.validity == "global":
            held += 1
            vdata = push_forward(data, unit, orientation="exp")
            prop = FreePropagator(dalembert_split(vdata))
            v_min = min(
                float(np.min(prop.at(probe_r, float(t))))
                for t in np.linspace(-2.0, 2.0, 17)
            )
            checks.append((v_min > 0.0, f"family {i}: transformed picture "
                           f"reached {v_min} on [-2, 2]"))
            finite = all(
                np.all(np.isfinite(solve_null(data, unit, t).values))
                for t in (-2.0, 2.0)
            )
            checks.append((finite, f"family {i}: slice not finite at |t|=2"))
        else:
            failed += 1
            rep = sol.blowup
            checks.append(
                (abs(rep.t0) <= rep.window + 1e-8,
                 f"family {i}: touch at {rep.t0} outside window {rep.window}"),
            )
    checks.append((held == 10 and failed == 10,
                   f"branch coverage {held}/{failed} is not 10/10"))
    report(2, "criterion sharpness over 20 random families", checks,
           time.perf_counter() - start, 30.0)


def test_03_blowup_log_rate_slope():
    start = time.perf_counter()
    rep = detect_blowup(gaussian_data(-1.5), unit_profile())
    slope = rep.log_rate_fit[1]
    checks = [
        (0.0 < rep.t0 <= 1.0, f"touch time {rep.t0} outside (0, 1]"),
        (abs(slope - 1.0) <= 0.1, f"log-rate slope {slope} outside 1 +- 0.1"),
    ]
    report(3, "logarithmic growth rate at the touch time", checks,
           time.perf_counter() - start, 10.0)


def test_04_reference_solver_matches_exact_solutions_at_second_order():
    start = time.perf_counter()
    u0 = lambda r: 0.4 * np.exp(-((r - 2.0) ** 2))
    u1 = lambda r: np.zeros_like(r)
    data = CauchyData.from_callables(GRID, u0, u1)
    base = {"u0": u0, "u1": u1, "horizon": 1.0, "r_max": 8.0}
    hs = [0.08, 0.04, 0.02]

    def ref(field):
        return lambda r: np.interp(r, field.grid.nodes, field.values)

    orders = {}
    free = propagate_radial(data, 1.0)
    orders["zero"] = convergence_order(
        dict(base, rhs=None, reference=ref(free)), hs)
    unit = unit_profile()
    orders["unit"] = convergence_order(
        dict(base, rhs=("null", lambda u: np.ones_like(u)),
             reference=ref(solve_null(data, unit, 1.0))), hs)
    sine = build_profile(builtin_nonlinearity("sin"))
    orders["sine"] = convergence_order(
        dict(base, rhs=("null", np.sin),
             reference=ref(solve_null(data, sine, 1.0))), hs)
    # frozen: zero 1.974, unit 2.091, sine 1.976
    checks = [
        (1.7 <= p <= 2.3, f"{name} weight: observed order {p}")
        for name, p in orders.items()
    ]
    report(4, "reference solver at second order against exact slices", checks,
           time.perf_counter() - start, 120.0)


def test_05_conserved_energy_drift_on_a_passing_scenario():
    start = time.perf_counter()
    grid = RadialGrid.uniform(8.0, 12801)
    data = CauchyData.from_callables(
        grid,
        lambda r: 0.3 * np.exp(-((r - 2.0) ** 2)),
        lambda r: -0.1 * np.exp(-(r**2)),
    )
    sol = null_solution(data, unit_profile())
    values = [
        conserved_energy_quadratic(sol.u(t), sol.u_t(t))
        for t in (0.0, 0.5, 1.0, 2.0)
    ]
    drift = (max(values) - min(values)) / max(values)
    checks = [
        (sol.validity == "global", "scenario unexpectedly fails the criterion"),
        (drift <= 1e-6, f"relative energy drift {drift}"),  # frozen: 2.2e-7
    ]
    report(5, "conserved energy drift across slices", checks,
           time.perf_counter() - start, 5.0)


def test_06_static_profile_is_a_lattice_fixed_point():
    start = time.perf_counter()
    q = soliton("ground", 4)
    residuals = []
    for n in (201, 401):  # h = 0.04 (default lattice scale), then half
        grid = RadialGrid.uniform(8.0, n)
        src = np.tile(q(grid.nodes)[:, None], (1, int(round(4.0 / grid.spacing)) + 1))
        data = CauchyData.from_callables(grid, q, lambda r: np.zeros_like(r))
        out = duhamel_apply(data, src, 4.0)
        times = grid.spacing * np.arange(src.shape[1])
        trusted = grid.nodes[:, None] + times[None, :] <= grid.r_max + 1e-9
        residuals.append(float(np.max(np.abs(out - src)[trusted])))
    checks = [
        (residuals[0] <= 5e-3, f"residual {residuals[0]} at default spacing"),
        (residuals[1] < residuals[0],
         f"residuals {residuals} do not decrease under refinement"),
    ]  # frozen: 1.7e-4 then 4.3e-5
    report(6, "static profile fixed under one integral application", checks,
           time.perf_counter() - start, 30.0)


def random_admissible_family(rng, grid=GRID):
    # (r u0)' = m >= 0 and r|u1| = |beta| m with |beta| < 1: shell margin
    # m (1 - |beta|) >= 0, so the all-time positivity case applies
    nodes = grid.nodes
    m = 0.05 * soliton("ground", 4).outgoing_moment(nodes)
    for _ in range(rng.integers(1, 4)):
        a = rng.uniform(0.05, 0.2)
        c = rng.uniform(0.0, 3.0)
        w = rng.uniform(0.4, 1.2)
        m = m + a * np.exp(-((nodes - c) ** 2) / w**2)
    beta = rng.uniform(-0.3, 0.3)
    shell = np.concatenate(([0.0], np.cumsum(0.5 * (m[1:] + m[:-1]) * np.diff(nodes))))
    u0 = np.empty_like(nodes)
    u0[1:] = shell[1:] / nodes[1:]
    u0[0] = m[0]
    return CauchyData(RadialField(grid, u0), RadialField.from_moment(grid, beta * m))


def test_07_monotone_iteration_and_comparison_property():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    checks = []
    lattice_grid = RadialGrid.uniform(8.0, 161)
    for i in range(10):
        upper = random_admissible_family(rng, lattice_grid)
        hi = monotone_iterate(upper, 4, 2.5, tol=1e-8, keep_history=True)
        checks.append((hi.converged and hi.case == "ii",
                       f"family {i}: case {hi.case}, converged {hi.converged}"))
        worst = 0.0
        for older, newer in zip(hi.history, hi.history[1:]):
            live = hi.trusted & np.isfinite(older) & np.isfinite(newer)
            worst = min(worst, float(np.min((newer - older)[live])))
        checks.append((worst > -1e-12, f"family {i}: monotonicity slack {worst}"))

        gamma = rng.uniform(0.2, 0.5)
        lower = CauchyData(
            upper.u0.with_values(gamma * upper.u0.values),
            RadialField(lattice_grid, gamma * upper.u1.values,
                        origin_moment=gamma * upper.u1.origin_moment),
        )
        lo = monotone_iterate(lower, 4, 2.5, tol=1e-8, keep_history=True)
        order_gap, floor_gap = 0.0, 0.0
        for a, b in zip(hi.history, lo.history):
            live = hi.trusted & np.isfinite(a) & np.isfinite(b)
            order_gap = min(order_gap, float(np.min((a - b)[live])))
            floor_gap = min(floor_gap, float(np.min(b[live])))
        checks.append((order_gap > -1e-12 and floor_gap > -1e-12,
                       f"family {i}: ordering {order_gap}, floor {floor_gap}"))
    report(7, "monotone iteration with ordered comparisons", checks,
           time.perf_counter() - start, 120.0)


def test_08_dispersion_and_blowup_window():
    start = time.perf_counter()
    minus = blowup_window_probe(0.2, "minus", horizon=10.0)
    checks = [
        (minus["iteration"]["converged"], "below threshold: iteration did not converge"),
        # frozen: margin 0.123, lattice sup 0.799
        (minus["domination_margin"] > 0.0,
         f"below threshold: profile domination margin {minus['domination_margin']}"),
        (minus["bounded"] and minus["fd_status"] == "completed",
         "below threshold: reference run did not stay bounded"),
        (max(minus["fd_sup_series"]["values"]) < 2.0,  # frozen: 0.719
         "below threshold: reference sup reached 2"),
    ]

    # The forced-growth hypothesis reads on the derivative combination of the
    # position slot: (u0)_r + u0/r - |u1| must exceed the scaled profile
    # derivative.  A datum carrying the excess in the velocity slot makes that
    # combination negative, so no growth conclusion applies to it; its run is
    # asserted dispersive below as a regression.  The profile-scaled datum
    # ((1+eps) S, 0) satisfies the hypothesis and must blow up.
    grid = RadialGrid.uniform(14.0, 281)
    literal = fd_solve(
        scaled_velocity_data(grid, 1.2), ("power", 4, 1), 10.0,
        h=0.025, threshold=1000.0, snapshot_times=np.linspace(0.0, 10.0, 21),
    )
    sups = np.array([float(np.max(np.abs(s))) for s in literal.snapshots])
    checks.append((literal.status == "completed",
                   f"velocity-scaled datum: status {literal.status}"))
    checks.append((sups[-1] < 0.5 * np.max(sups),  # frozen: peak 1.14, final 0.106
                   f"velocity-scaled datum did not disperse: {sups[-1]} vs {np.max(sups)}"))

    plus = blowup_window_probe(0.2, "plus", horizon=10.0)
    checks.append((plus["fd_status"] == "blew-up",
                   f"above threshold: status {plus['fd_status']}"))
    t_detect = plus["cap_crossing_time"]
    checks.append((t_detect is not None and t_detect < 10.0,  # frozen: 1.12
                   f"above threshold: crossing at {t_detect}"))
    checks.append((plus["iteration"]["first_diverged_iterate"] is not None,
                   "above threshold: no iterate diverged"))
    report(8, "dispersion/blow-up window around the threshold", checks,
           time.perf_counter() - start, 180.0,
           note="blow-up leg uses the profile-scaled datum; the velocity-scaled "
                "one violates the growth hypothesis by sign and disperses")


def test_09_supercritical_envelope_confines_every_iterate():
    start = time.perf_counter()
    grid = RadialGrid.uniform(8.0, 161)
    c6 = soliton("singular", 6).amplitude
    amp = 0.9 * c6**7
    data = CauchyData(
        inverse_laplacian_radial(lambda s: amp * (1.0 + s) ** (-7.0 / 3.0), grid),
        RadialField(grid, np.zeros(grid.n)),
    )
    verdict = supercritical_envelope(data, 6, alpha=1.0)
    state = monotone_iterate(data, 6, 4.0, tol=1e-8, keep_history=True)
    bound = c6 * (1.0 + state.radii) ** (-1.0 / 3.0)
    overshoot = -np.inf
    for u in state.history:
        live = state.trusted & np.isfinite(u)
        overshoot = max(overshoot, float(np.max((np.abs(u) - bound[:, None])[live])))
    checks = [
        (abs(c6 - (8.0 / 36.0) ** (1.0 / 6.0)) <= 1e-12,
         f"envelope amplitude {c6} is off its closed form"),
        (verdict.holds, "data do not sit inside the envelope condition"),
        (state.converged, "iteration did not converge"),
        (overshoot < 0.0, f"an iterate overshot the envelope by {overshoot}"),
    ]
    report(9, "supercritical envelope confines all iterates", checks,
           time.perf_counter() - start, 120.0)


def test_10_endpoint_classification_table():
    start = time.perf_counter()
    root = np.sqrt(np.pi / 2.0)
    rows = [
        ("const", 1.0, "upper_finite", None, 1.0),
        ("const", -1.0, "lower_finite", -1.0, None),
        ("linear", 1.0, "both_finite", -root, root),
        ("linear", -1.0, "both_infinite", None, None),
    ]
    checks = []
    for name, param, case, a, b in rows:
        cls = build_profile(builtin_nonlinearity(name, param)).classification
        label = f"{name}({param:+g})"
        checks.append((cls.case == case, f"{label}: case {cls.case} != {case}"))
        if a is not None:  # frozen: endpoint error 2.9e-15
            checks.append((abs(cls.a - a) <= 1e-8, f"{label}: a = {cls.a}"))
        if b is not None:
            checks.append((abs(cls.b - b) <= 1e-8, f"{label}: b = {cls.b}"))
    report(10, "endpoint classification table", checks,
           time.perf_counter() - start, 1.0)


def test_11_crossing_radii_of_the_two_profiles():
    start = time.perf_counter()
    inner, outer = crossing_radii()
    sqrt6 = np.sqrt(6.0)
    checks = [
        (abs(inner - (3.0 - sqrt6)) <= 1e-10, f"inner radius {inner}"),
        (abs(outer - (3.0 + sqrt6)) <= 1e-10, f"outer radius {outer}"),
    ]
    report(11, "profile crossing radii", checks, time.perf_counter() - start, 1.0)


def test_12_small_data_decay_band():
    start = time.perf_counter()
    rep = asymptotic_profile(gaussian_data(0.05), unit_profile())
    ratio = rep["decay"]["ratio"] if rep["decay"] else np.inf
    checks = [
        (rep["classification"] == "global",
         f"classification {rep['classification']}"),
        (ratio <= 2.0, f"t-weighted amplitude band ratio {ratio}"),  # frozen: 1.16
    ]
    report(12, "small-data decay inside a factor-two band", checks,
           time.perf_counter() - start, 60.0)
