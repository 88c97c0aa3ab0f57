"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Solves are shared through module-scoped fixtures so the constancy checks of
criterion 9 re-use the stationary points produced by criteria 1-6.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""
import time

import numpy as np
import pytest
import scipy.linalg
from conftest import random_problem

from deltavar import (
    NoStationaryPointFound,
    SolveOptions,
    Trajectory,
    decision_indices,
    delta_derivative,
    delta_integral,
    el_residual,
    fd_gradient,
    functional_gradient,
    make_timescale,
    natural_bc_left,
    natural_bc_right,
    rayleigh_pencil,
    refine_study,
    scan_low_dim,
    solve_isoperimetric,
    solve_unconstrained,
    value,
)
from deltavar.cli import resolve_problem

PI_SQ = np.pi**2


def _report(num: int, label: str, checks):
    failed = [c for c in checks if not c[1]]
    status = "PASS" if not failed else "FAIL"
    print(f"\nACCEPTANCE {num} ({label}): {status}")
    for name, ok, detail in checks:
        print(f"    {'ok    ' if ok else 'FAILED'} {name}: {detail}")
    assert not failed, f"criterion {num} failed: " + "; ".join(c[0] for c in failed)


def _spec(name, h_override=None):
    return resolve_problem(name).build(h_override=h_override)


# -- shared solves ------------------------------------------------------------


@pytest.fixture(scope="module")
def product_r_solution():
    spec = _spec("product_R")
    # The discrete stationarity system of this product functional is a
    # perturbed perfect square with no exact root at any positive step; the
    # gradient bottoms out at ~2 h^2, so the solve runs at a grid-matched
    # tolerance (well inside the 0.01 acceptance bars).
    opts = SolveOptions(restarts=2, tol_residual=1e-3, dedup_distance=1e-2)
    t0 = time.perf_counter()
    points = solve_unconstrained(spec, opts)
    return spec, points, time.perf_counter() - t0


@pytest.fixture(scope="module")
def quotient2_3pt_solution():
    spec = _spec("quotient2_3pt")
    opts = SolveOptions(restarts=48, tol_residual=1e-12)
    t0 = time.perf_counter()
    points = solve_unconstrained(spec, opts)
    return spec, points, time.perf_counter() - t0


@pytest.fixture(scope="module")
def iso_solutions():
    spec_grid = _spec("iso_R")
    t0 = time.perf_counter()
    grid_points = solve_isoperimetric(
        spec_grid, SolveOptions(restarts=3, tol_residual=1e-9)
    )
    spec_3pt = _spec("iso_3pt")
    finite_points = solve_isoperimetric(
        spec_3pt, SolveOptions(restarts=12, tol_residual=1e-12)
    )
    elapsed = time.perf_counter() - t0
    return spec_grid, grid_points, spec_3pt, finite_points, elapsed


@pytest.fixture(scope="module")
def quotient2_fine_solution():
    spec = _spec("quotient2_R", h_override=0.01)
    opts = SolveOptions(restarts=24, tol_residual=1e-12)
    points = solve_unconstrained(spec, opts)
    return spec, points


@pytest.fixture(scope="module")
def sl_solution():
    spec = _spec("sturm_liouville")
    opts = SolveOptions(restarts=8, tol_residual=1e-12)
    t0 = time.perf_counter()
    points = solve_unconstrained(spec, opts)
    return spec, points, time.perf_counter() - t0


# -- criteria ------------------------------------------------------------------


def test_criterion_1_product_continuum(product_r_solution):
    spec, points, elapsed = product_r_solution
    best = min(points, key=lambda p: p.residual)
    t = spec.ts.points
    x_err = float(np.max(np.abs(best.trajectory.x - (-(t**2) + 2 * t))))
    checks = [
        ("found a stationary point", len(points) >= 1, f"{len(points)} point(s)"),
        ("|Q1 - 4/3| <= 0.01", abs(best.inner[0] - 4 / 3) <= 0.01,
         f"Q1 = {best.inner[0]:.6f}"),
        ("|Q2 - 1/3| <= 0.01", abs(best.inner[1] - 1 / 3) <= 0.01,
         f"Q2 = {best.inner[1]:.6f}"),
        ("max |x - (-t^2 + 2t)| <= 0.01", x_err <= 0.01, f"max err = {x_err:.2e}"),
        ("runtime < 10 s", elapsed < 10.0, f"{elapsed:.2f} s"),
    ]
    _report(1, "product functional, fine grid on [0,1]", checks)


def test_criterion_2_product_three_point():
    spec = _spec("product_3pt")
    t0 = time.perf_counter()
    raised = False
    try:
        solve_unconstrained(spec, SolveOptions(restarts=16))
    except NoStationaryPointFound:
        raised = True
    scan = scan_low_dim(spec, [(-10.0, 10.0)], resolution=401)
    elapsed = time.perf_counter() - t0
    checks = [
        ("solver reports no stationary point", raised, "NoStationaryPointFound"),
        ("scan has zero sign changes", not scan.has_roots,
         f"{len(scan.brackets)} bracket(s) on [-10, 10]"),
        ("runtime < 1 s", elapsed < 1.0, f"{elapsed:.2f} s"),
    ]
    _report(2, "product functional on {0, 1/2, 1}", checks)


def test_criterion_3_quotient_line():
    t0 = time.perf_counter()
    spec = _spec("quotient1")
    tr = Trajectory(spec.ts, 2 * spec.ts.points)
    el_finite = float(np.max(np.abs(el_residual(spec, tr))))
    val = value(spec.lagrangian, tr)

    h = 0.01
    spec_grid = _spec("quotient1", h_override=h)
    tr_grid = Trajectory(spec_grid.ts, 2 * spec_grid.ts.points)
    el_grid = float(np.max(np.abs(el_residual(spec_grid, tr_grid))))
    elapsed = time.perf_counter() - t0
    checks = [
        ("el residual <= 1e-9 on {0,1,2}", el_finite <= 1e-9, f"{el_finite:.2e}"),
        ("value equals 2/3 exactly", val == 2 / 3, f"{val!r}"),
        ("el residual <= 1e-2 * h on the grid", el_grid <= 1e-2 * h,
         f"{el_grid:.2e} vs {1e-2 * h:.0e}"),
        ("runtime < 1 s", elapsed < 1.0, f"{elapsed:.2f} s"),
    ]
    _report(3, "quotient functional, straight-line solution", checks)


def test_criterion_4_quotient2_three_point(quotient2_3pt_solution):
    spec, points, elapsed = quotient2_3pt_solution
    pts = sorted(points, key=lambda p: p.value)
    q_lo_target = 1 / 8 - np.sqrt(2) / 8
    q_hi_target = 1 / 8 + np.sqrt(2) / 8
    checks = [("exactly two points", len(pts) == 2, f"{len(pts)} point(s)")]
    if len(pts) == 2:
        lo, hi = pts
        checks += [
            ("Q(min branch) within 1e-9 of 1/8 - sqrt(2)/8",
             abs(lo.value - q_lo_target) <= 1e-9, f"{lo.value:.12f}"),
            ("Q(max branch) within 1e-9 of 1/8 + sqrt(2)/8",
             abs(hi.value - q_hi_target) <= 1e-9, f"{hi.value:.12f}"),
            ("x(1/2) of min branch within 1e-9 of (2 + sqrt(2))/2",
             abs(lo.trajectory.x[1] - (2 + np.sqrt(2)) / 2) <= 1e-9,
             f"{lo.trajectory.x[1]:.12f}"),
            ("x(1/2) of max branch within 1e-9 of (2 - sqrt(2))/2",
             abs(hi.trajectory.x[1] - (2 - np.sqrt(2)) / 2) <= 1e-9,
             f"{hi.trajectory.x[1]:.12f}"),
            ("classifications are local_min / local_max",
             lo.classification == "local_min" and hi.classification == "local_max",
             f"{lo.classification}, {hi.classification}"),
        ]
    checks.append(("runtime < 1 s", elapsed < 1.0, f"{elapsed:.2f} s"))
    _report(4, "quotient functional on {0, 1/2, 1}, min/max pair", checks)


def test_criterion_5_quotient2_refinement():
    problem = resolve_problem("quotient2_R")
    t0 = time.perf_counter()
    study = refine_study(
        lambda h: problem.build(h_override=h),
        [0.1, 0.01, 0.001],
        SolveOptions(restarts=32, tol_residual=1e-11),
    )
    elapsed = time.perf_counter() - t0
    targets = (0.25 - np.sqrt(3) / 6, 0.25 + np.sqrt(3) / 6)
    checks = [
        ("both branches at every step",
         all(row.error is None and len(row.points) == 2 for row in study.rows),
         "; ".join(str(len(r.points)) for r in study.rows)),
    ]
    for branch, target in enumerate(targets):
        vals = study.branch_values(branch)
        errs = [abs(v - target) for _, v in vals]
        if len(errs) == 3 and all(e > 0 for e in errs):
            orders = [
                np.log(errs[i] / errs[i + 1]) / np.log(vals[i][0] / vals[i + 1][0])
                for i in range(2)
            ]
            order_ok = all(o >= 0.9 for o in orders)
            order_txt = ", ".join(f"{o:.2f}" for o in orders)
        else:
            order_ok = False
            order_txt = "missing rows"
        checks += [
            (f"branch {branch} converges with order >= 0.9", order_ok, order_txt),
            (f"branch {branch} final error <= 0.01",
             bool(errs and errs[-1] <= 0.01),
             f"{errs[-1]:.2e}" if errs else "n/a"),
        ]
    checks.append(("runtime < 30 s", elapsed < 30.0, f"{elapsed:.2f} s"))
    _report(5, "quotient functional refinement to the continuum pair", checks)


def test_criterion_6_isoperimetric(iso_solutions):
    spec_grid, grid_points, spec_3pt, finite_points, elapsed = iso_solutions
    t = spec_grid.ts.points
    normal = [p for p in grid_points if p.lam0 == 1.0]
    best = min(normal, key=lambda p: p.residual)
    x_err = float(np.max(np.abs(best.trajectory.x - (3 * t**2 - 2 * t))))
    abnormal = [p for p in finite_points if p.lam0 == 0.0]
    interior = [p.trajectory.x[1] for p in finite_points if p.lam0 == 1.0]
    checks = [
        ("normal point with max |x - (3t^2 - 2t)| <= 0.01", x_err <= 0.01,
         f"max err = {x_err:.2e}"),
        ("|lambda - 8| <= 0.05", abs(best.lam - 8.0) <= 0.05,
         f"lambda = {best.lam:.6f}"),
        ("three-point solution has x(1/2) = -1",
         len(interior) >= 1 and min(abs(w + 1.0) for w in interior) <= 1e-9,
         f"x(1/2) = {interior[0]:.12f}" if interior else "none"),
        ("zero abnormal points", len(abnormal) == 0, f"{len(abnormal)} abnormal"),
        ("runtime < 10 s", elapsed < 10.0, f"{elapsed:.2f} s"),
    ]
    _report(6, "isoperimetric problem, fine grid and {0, 1/2, 1}", checks)


def test_criterion_7_gradient_el_identities():
    rng = np.random.default_rng(20240810)
    t0 = time.perf_counter()
    worst_identity = 0.0
    worst_fd = 0.0
    for _ in range(200):
        spec, tr = random_problem(rng)
        g = functional_gradient(spec, tr)
        el = el_residual(spec, tr)
        steps = spec.ts.steps
        idx = decision_indices(spec)
        for pos, point_index in enumerate(idx):
            if point_index == 0:
                expected = -natural_bc_left(spec, tr)
            elif point_index == len(spec.ts) - 1:
                expected = natural_bc_right(spec, tr)
            elif point_index - 1 < el.size:
                expected = -steps[point_index - 1] * el[point_index - 1]
            else:
                continue
            rel = abs(g[pos] - expected) / (1 + abs(g[pos]) + abs(expected))
            worst_identity = max(worst_identity, rel)
        fd = fd_gradient(spec, tr, 1e-6)
        scale = 1 + float(np.max(np.abs(g)))
        worst_fd = max(worst_fd, float(np.max(np.abs(fd - g))) / scale)
    elapsed = time.perf_counter() - t0
    checks = [
        ("gradient/EL and endpoint identities at 1e-10",
         worst_identity <= 1e-10, f"worst rel = {worst_identity:.2e}"),
        ("exact vs central-difference gradient at 1e-6",
         worst_fd <= 1e-6, f"worst rel = {worst_fd:.2e}"),
        ("runtime < 20 s", elapsed < 20.0, f"{elapsed:.2f} s"),
    ]
    _report(7, "200 random specs: gradient certifies EL and natural BCs", checks)


def test_criterion_8_calculus_identities():
    rng = np.random.default_rng(88)
    t0 = time.perf_counter()
    worst_single = 0.0
    worst_parts = 0.0
    trials = 0
    while trials < 100:
        n = int(rng.integers(4, 25))
        pts = np.sort(rng.uniform(-1, 3, size=n))
        if np.any(np.diff(pts) < 1e-5):
            continue
        trials += 1
        ts = make_timescale("points", values=pts)
        f = np.polyval(rng.uniform(-2, 2, size=4), ts.points)
        g = np.polyval(rng.uniform(-2, 2, size=4), ts.points)
        fd = delta_derivative(ts, f)
        gd = delta_derivative(ts, g)

        # Property (i): the one-step integral equals graininess times value.
        k = int(rng.integers(0, n - 1))
        one_step = delta_integral(ts, f[:-1] * 1.0, start=k, stop=k + 1)
        expected = ts.graininess(k) * f[k]
        worst_single = max(
            worst_single, abs(one_step - expected) / (1 + abs(expected))
        )

        boundary = f[-1] * g[-1] - f[0] * g[0]
        scale = 1 + abs(boundary) + float(np.max(np.abs(f)) * np.max(np.abs(g)))
        lhs1 = delta_integral(ts, f[1:] * gd)
        rhs1 = boundary - delta_integral(ts, fd * g[:-1])
        lhs2 = delta_integral(ts, f[:-1] * gd)
        rhs2 = boundary - delta_integral(ts, fd * g[1:])
        worst_parts = max(
            worst_parts, abs(lhs1 - rhs1) / scale, abs(lhs2 - rhs2) / scale
        )
    elapsed = time.perf_counter() - t0
    checks = [
        ("one-step integral identity at 1e-10", worst_single <= 1e-10,
         f"worst rel = {worst_single:.2e}"),
        ("both integration-by-parts forms at 1e-10", worst_parts <= 1e-10,
         f"worst rel = {worst_parts:.2e}"),
        ("runtime < 5 s", elapsed < 5.0, f"{elapsed:.2f} s"),
    ]
    _report(8, "100 random scales: integral identities", checks)


def test_criterion_9_dr_constancy(
    product_r_solution, quotient2_3pt_solution, iso_solutions,
    quotient2_fine_solution,
):
    checks = []

    def add(label, points, bound):
        for i, p in enumerate(points):
            checks.append(
                (f"{label}[{i}] spread <= {bound:.0e}", p.dr_spread <= bound,
                 f"{p.dr_spread:.2e}")
            )

    spec, points, _ = product_r_solution
    add("product fine grid", points, 10 * spec.ts.steps[0])
    _, q3_points, _ = quotient2_3pt_solution
    add("quotient three-point", q3_points, 1e-6)
    spec_grid, iso_grid, _, iso_3pt, _ = iso_solutions
    add("isoperimetric fine grid", iso_grid, 10 * spec_grid.ts.steps[0])
    add("isoperimetric three-point", iso_3pt, 1e-6)
    spec_fine, q_fine = quotient2_fine_solution
    add("quotient refined grid", q_fine, 10 * spec_fine.ts.steps[0])

    _report(9, "constancy-of-motion spread at every stationary point", checks)


def test_criterion_10_sturm_liouville(sl_solution):
    spec, points, solve_elapsed = sl_solution
    t0 = time.perf_counter()
    A, B = rayleigh_pencil(spec)
    eig = scipy.linalg.eigh(A, B, eigvals_only=True)[0]
    best = min(points, key=lambda p: p.value)
    q = best.value
    x = best.trajectory.x
    xd = best.trajectory.x_delta
    xdd = np.diff(xd) / spec.ts.steps[:-1]
    sl_residual = float(np.max(np.abs(xdd + q * best.trajectory.x_sigma[:-2])))
    elapsed = solve_elapsed + (time.perf_counter() - t0)
    checks = [
        ("solver Q equals pencil eigenvalue within 1e-8",
         abs(q - eig) <= 1e-8, f"|{q:.12f} - {eig:.12f}| = {abs(q - eig):.2e}"),
        ("solver Q within 2% of pi^2", abs(q - PI_SQ) <= 0.02 * PI_SQ,
         f"Q = {q:.6f}, pi^2 = {PI_SQ:.6f}"),
        ("eigenvalue within 2% of pi^2", abs(eig - PI_SQ) <= 0.02 * PI_SQ,
         f"{eig:.6f}"),
        ("second-difference equation residual <= 1e-8", sl_residual <= 1e-8,
         f"{sl_residual:.2e}"),
        ("runtime < 20 s", elapsed < 20.0, f"{elapsed:.2f} s"),
    ]
    _report(10, "smallest Rayleigh value, solver vs eigensolver", checks)
