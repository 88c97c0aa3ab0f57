import dataclasses
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from conftest import graded_timescale, random_constraint, random_problem
from hypothesis import assume, given, settings, strategies as st
from scipy.sparse.linalg import splu

from deltavar import (
    BoundarySpec,
    CompositeFunctional,
    ConstraintInfeasible,
    DenominatorVanished,
    IsoConstraint,
    NoStationaryPointFound,
    ProblemSpec,
    SolveOptions,
    StationaryPoint,
    Trajectory,
    c1rd_distance,
    classify,
    constraint_gradient,
    make_timescale,
    refine_study,
    residual_report,
    solve_isoperimetric,
    solve_unconstrained,
    value,
)
from deltavar import euler_lagrange, solver
from deltavar.cli import resolve_problem
from deltavar.euler_lagrange import decision_indices, hessian_parts
from deltavar.oracle import fd_gradient, fd_hessian
from deltavar.solver import (
    DEGENERATE_RELATIVE,
    _Hessian,
    _LevelJacobian,
    _NormalJacobian,
    _hessian,
    _negative_inertia,
    _output_order,
    constraint_hessian,
    functional_hessian,
)

THREE_PT = make_timescale("points", values=[0, 0.5, 1])
PROBLEMS = Path(__file__).parent / "problems"


def quotient2_spec(ts=THREE_PT):
    F = CompositeFunctional.from_strings(["t*v", "v^2"], "u1 / u2")
    return ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 1))


def product_spec(ts=THREE_PT):
    F = CompositeFunctional.from_strings(["v^2", "t*v"], "u1 * u2")
    return ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 1))


def abnormal_spec(ts=THREE_PT):
    # K = sum of v^2 with x = 0 and 1 at the ends has one extremal, x = t,
    # where K = 1 and grad K = 0: the only extremal is abnormal.
    L = CompositeFunctional.from_strings(["t*v^2 + y"], "u1")
    K = IsoConstraint(CompositeFunctional.from_strings(["v^2"], "u1"), 1.0)
    return ProblemSpec(ts=ts, lagrangian=L, bc=BoundarySpec.fixed(0, 1), constraint=K)


def iso_spec(ts=THREE_PT):
    L = CompositeFunctional.from_strings(["v^2", "t*v"], "u1 / u2")
    K = IsoConstraint(CompositeFunctional.from_strings(["t*v"], "u1"), 1.0)
    return ProblemSpec(ts=ts, lagrangian=L, bc=BoundarySpec.fixed(0, 1), constraint=K)


class TestSolveOptions:
    def test_defaults(self):
        opts = SolveOptions()
        assert opts.restarts == 64
        assert opts.tol_residual == 1e-9
        assert solver.MAX_ITERS == 100

    def test_validation(self):
        with pytest.raises(ValueError):
            SolveOptions(restarts=0)
        with pytest.raises(ValueError):
            SolveOptions(tol_residual=-1.0)

    @pytest.mark.parametrize("name", ["tol_residual", "dedup_distance"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_rejected(self, name, bad):
        # NaN passes a "<= 0" test; an infinite tolerance accepts any iterate.
        with pytest.raises(ValueError, match=name):
            SolveOptions(**{name: bad})

    def test_fields(self):
        assert [f.name for f in dataclasses.fields(SolveOptions)] == [
            "restarts", "seed", "tol_residual", "dedup_distance"]

    @pytest.mark.parametrize("name", ["tol_step", "init_spread", "tol_abnormal", "max_iters"])
    def test_fixed_settings_refused(self, name):
        # The step floor, start spread, abnormal-seed bound and iteration cap
        # are constants.
        with pytest.raises(TypeError, match=name):
            SolveOptions(**{name: 1.0})


class TestUnconstrained:
    def test_quotient2_three_point_pair(self):
        opts = SolveOptions(restarts=48, tol_residual=1e-12)
        pts = sorted(solve_unconstrained(quotient2_spec(), opts), key=lambda p: p.value)
        assert len(pts) == 2
        lo, hi = pts
        assert lo.value == pytest.approx(1 / 8 - np.sqrt(2) / 8, abs=1e-11)
        assert hi.value == pytest.approx(1 / 8 + np.sqrt(2) / 8, abs=1e-11)
        assert lo.trajectory.x[1] == pytest.approx((2 + np.sqrt(2)) / 2, abs=1e-10)
        assert hi.trajectory.x[1] == pytest.approx((2 - np.sqrt(2)) / 2, abs=1e-10)

    def test_product_three_point_has_no_root(self):
        with pytest.raises(NoStationaryPointFound):
            solve_unconstrained(product_spec(), SolveOptions(restarts=12))

    def test_rejects_constrained_spec(self):
        with pytest.raises(ValueError):
            solve_unconstrained(iso_spec())

    def test_all_zero_denominators_reported(self):
        # Zero boundary values: every restart of this quotient starts and
        # stays exactly where the denominator integral vanishes.
        ts = THREE_PT
        F = CompositeFunctional.from_strings(["v^2", "0*t"], "u1 / u2")
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 0))
        with pytest.raises(DenominatorVanished):
            solve_unconstrained(spec, SolveOptions(restarts=3))

    def test_determinism(self):
        opts = SolveOptions(restarts=24, seed=7, tol_residual=1e-12)
        a = solve_unconstrained(quotient2_spec(), opts)
        b = solve_unconstrained(quotient2_spec(), opts)
        assert len(a) == len(b)
        for pa, pb in zip(a, b):
            assert np.array_equal(pa.trajectory.x, pb.trajectory.x)
            assert pa.value == pb.value
            assert pa.basin_count == pb.basin_count

    def test_dedup_soundness(self):
        opts = SolveOptions(restarts=48, tol_residual=1e-12)
        pts = solve_unconstrained(quotient2_spec(), opts)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                dist = c1rd_distance(pts[i].trajectory, pts[j].trajectory)
                assert dist >= opts.dedup_distance

    def test_certificate_property(self):
        # Independent re-verification through the residual module.
        opts = SolveOptions(restarts=32, tol_residual=1e-12)
        for p in solve_unconstrained(quotient2_spec(), opts):
            report = residual_report(quotient2_spec(), p.trajectory)
            # el = gradient / mu at interior points, so certify at tol/mu.
            assert report.el_max <= 10 * opts.tol_residual / 0.5

    def test_scale_invariance_decided_once_per_solve(self):
        # Restart 0 dies on x = 0; the other four converge only if every
        # iterate takes the sphere step, including those near a root where
        # rounding hides the identity gradient . x = 0.
        spec = resolve_problem("sturm_liouville").build(h_override=1e-3)
        pts = solve_unconstrained(spec, SolveOptions(restarts=5, seed=20000))
        assert sum(p.basin_count for p in pts) == 4
        assert max(p.residual for p in pts) <= SolveOptions().tol_residual

    def test_points_in_ascending_value(self):
        # Both eigenpairs converge to residuals near 1e-13, which once
        # decided the order (39.478 was listed before 9.8696).
        spec = resolve_problem("sturm_liouville").build(h_override=1e-3)
        pts = solve_unconstrained(spec, SolveOptions(restarts=5, seed=2))
        assert [round(p.value, 3) for p in pts] == [9.870, 39.478]

    def test_normal_points_before_abnormal(self):
        ts = THREE_PT
        tr = Trajectory(ts, ts.points)
        pts = [StationaryPoint(tr, np.zeros(1), v, 0.0, lam0=lam0)
               for v, lam0 in [(3.0, 0.0), (2.0, 1.0), (-1.0, 0.0), (5.0, 1.0)]]
        ordered = sorted(pts, key=_output_order)
        assert [(p.lam0, p.value) for p in ordered] == [
            (1.0, 2.0), (1.0, 5.0), (0.0, -1.0), (0.0, 3.0)
        ]

    def test_basin_counts_sum_to_convergent_restarts(self):
        opts = SolveOptions(restarts=24, tol_residual=1e-12)
        pts = solve_unconstrained(quotient2_spec(), opts)
        assert sum(p.basin_count for p in pts) <= opts.restarts
        assert all(p.basin_count >= 1 for p in pts)


class TestSharedEvaluation:
    @pytest.mark.parametrize("problem", ["quotient2_3pt", "quotient2_R", "iso_3pt"])
    def test_hessians_reuse_the_residual_partials(self, monkeypatch, problem):
        # Every Newton Jacobian (and classify) builds its Hessian on the
        # trajectory whose residual was just evaluated, so hessian_parts
        # evaluates no first partials of its own.
        inner_calls = [0]
        real_record = euler_lagrange._Partials

        def counting_record(F, tr):
            inner_calls[0] += 1
            return real_record(F, tr)

        added = []
        real_parts = solver.hessian_parts

        def watched_parts(F, spec, tr):
            before = inner_calls[0]
            out = real_parts(F, spec, tr)
            added.append(inner_calls[0] - before)
            return out

        monkeypatch.setattr(euler_lagrange, "_Partials", counting_record)
        monkeypatch.setattr(solver, "hessian_parts", watched_parts)
        spec = resolve_problem(problem).build()
        solve = solve_isoperimetric if spec.constraint is not None else solve_unconstrained
        solve(spec, SolveOptions(restarts=3, seed=0))
        assert added and not any(added)

    def test_isoperimetric_start_evaluated_once(self, monkeypatch):
        # Every start is first restored onto K = k along grad K.  The
        # restoration's last step, the multiplier guess and Newton's first
        # residual share one trajectory, so each functional is evaluated once
        # at each start trajectory; at z0 the restoration reads K alone.
        calls, starts = [], []
        real_record, real_run = euler_lagrange._Partials, solver._run_newton

        def counting_record(F, tr):
            calls.append((F, tr.x.tobytes()))
            return real_record(F, tr)

        def recording(evaluate, w0, opts, pin_scale=False):
            starts.append(w0[:-1])
            return real_run(evaluate, w0, opts, pin_scale)

        monkeypatch.setattr(euler_lagrange, "_Partials", counting_record)
        monkeypatch.setattr(solver, "_run_newton", recording)
        spec = resolve_problem("iso_R").build(h_override=1e-2)
        L, K = spec.lagrangian, spec.constraint.functional
        opts = SolveOptions(restarts=4, seed=0)
        solve_isoperimetric(spec, opts)
        assert len(starts) == opts.restarts
        for restart, z in enumerate(starts):
            tr = euler_lagrange.embed_decision(spec, z)
            assert value(K, tr) == pytest.approx(1.0, abs=opts.tol_residual)
            for F in (L, K):
                assert calls.count((F, tr.x.tobytes())) == 1
            z0 = solver._initial_decision(spec, opts, restart)
            x0 = euler_lagrange.embed_decision(spec, z0).x.tobytes()
            assert (calls.count((L, x0)), calls.count((K, x0))) == (0, 1)

    # The solve keeps two trajectories.  iso_R at h = 1e-2 builds 5 in its
    # one restart, and the dedup of its converged run one more.  iso_3pt
    # has d = 1, so every restart restores onto the same single point of
    # K = k, which two entries do not keep from one restart to the next:
    # 15 builds in 8 restarts, plus 8 in the dedup.
    @pytest.mark.parametrize("problem, h, restarts, builds",
                             [("iso_R", 1e-2, 1, 6), ("iso_3pt", None, 8, 23)])
    def test_isoperimetric_trajectory_builds(self, monkeypatch, problem, h, restarts, builds):
        calls = [0]
        real = solver.embed_decision

        def counting(spec, z):
            calls[0] += 1
            return real(spec, z)

        monkeypatch.setattr(solver, "embed_decision", counting)
        solve_isoperimetric(resolve_problem(problem).build(h), SolveOptions(restarts=restarts))
        assert calls[0] == builds


class TestIsoperimetric:
    def test_three_point_constraint_pins_interior(self):
        opts = SolveOptions(restarts=16, tol_residual=1e-12)
        pts = solve_isoperimetric(iso_spec(), opts)
        assert len(pts) == 1
        p = pts[0]
        assert p.lam0 == 1.0
        assert p.trajectory.x[1] == pytest.approx(-1.0, abs=1e-10)
        assert p.constraint_value == pytest.approx(1.0, abs=1e-12)
        assert p.lam == pytest.approx(14.0, abs=1e-8)

    def test_no_abnormal_points_when_constraint_gradient_nonzero(self):
        opts = SolveOptions(restarts=16, tol_residual=1e-12)
        pts = solve_isoperimetric(iso_spec(), opts)
        assert all(p.lam0 == 1.0 for p in pts)

    def test_feasibility_of_returned_points(self):
        opts = SolveOptions(restarts=8, tol_residual=1e-10)
        for p in solve_isoperimetric(iso_spec(), opts):
            assert abs(p.constraint_value - 1.0) <= opts.tol_residual

    def test_infeasible_constraint_detected(self):
        # The weighted-velocity integral of trajectories pinned at 0 and 0 on
        # {0, 1/2, 1} equals -x(1/2)/2 + 1/2... with both ends 0 it is
        # -w/2, which can never reach a target under an amplitude bound; use
        # an unreachable target for a bounded integrand instead.
        ts = THREE_PT
        L = CompositeFunctional.from_strings(["v^2", "1 + y^2"], "u1 / u2")
        K = IsoConstraint(
            CompositeFunctional.from_strings(["y^2/(1 + y^2)"], "u1"), 5.0
        )
        spec = ProblemSpec(
            ts=ts, lagrangian=L, bc=BoundarySpec.fixed(0, 0), constraint=K
        )
        from deltavar import ConstraintInfeasible

        with pytest.raises(ConstraintInfeasible):
            solve_isoperimetric(spec, SolveOptions(restarts=6))

    def test_all_zero_denominators_reported(self):
        # The quotient's denominator integral is 0 for every trajectory, so
        # every normal run dies on it; K = sum of mu * y has a constant
        # nonzero gradient, so no abnormal run converges either.
        L = CompositeFunctional.from_strings(["v^2", "0*t"], "u1 / u2")
        K = IsoConstraint(CompositeFunctional.from_strings(["y"], "u1"), 0.25)
        spec = ProblemSpec(ts=THREE_PT, lagrangian=L, bc=BoundarySpec.fixed(0, 0), constraint=K)
        with pytest.raises(DenominatorVanished):
            solve_isoperimetric(spec, SolveOptions(restarts=3))

    def test_rejects_unconstrained_spec(self):
        with pytest.raises(ValueError):
            solve_isoperimetric(product_spec())

    @pytest.mark.parametrize("h", [None, 1e-2])
    def test_abnormal_extremal(self, h):
        ts = THREE_PT if h is None else make_timescale("interval", a=0, b=1, h=h)
        pts = solve_isoperimetric(abnormal_spec(ts), SolveOptions(restarts=4))
        assert len(pts) == 1
        p = pts[0]
        assert (p.lam0, p.lam) == (0.0, 1.0)
        assert p.value == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(p.trajectory.x, ts.points, atol=1e-10)
        assert p.classification == "local_max"

    @pytest.mark.parametrize("h", [None, 1e-2, 4e-3])
    def test_every_newton_system_is_square(self, monkeypatch, h):
        # Every Newton system reaches _newton_solver as the structured
        # Hessian at every size; it alone steps densely up to
        # DENSE_NEWTON_LIMIT unknowns (h = 1e-2: d = 99) and by block
        # elimination above it (h = 4e-3: d = 249).  Abnormal Newton runs on
        # K's own gradient system, unbordered.  Each normal step
        # (_NormalJacobian) offers the Hessian of L - lam K bordered by
        # -grad K, never a (d+1)^2 array; where grad K = 0 the system
        # decouples and the step offers that Hessian unbordered.
        ts = THREE_PT if h is None else make_timescale("interval", a=0, b=1, h=h)
        spec = abnormal_spec(ts)
        d = decision_indices(spec).size
        systems, normal, gradients = [], [], []
        real_solver, real_step = solver._newton_solver, _NormalJacobian.step
        real_gradient = solver.constraint_gradient

        def watched_solver(H, border=None):
            systems.append((H, border))
            return real_solver(H, border)

        def watched_step(J, r):
            normal.append((J, len(systems)))
            return real_step(J, r)

        def watched_gradient(spec, tr):
            gradients.append(real_gradient(spec, tr))
            return gradients[-1]

        monkeypatch.setattr(solver, "_newton_solver", watched_solver)
        monkeypatch.setattr(_NormalJacobian, "step", watched_step)
        monkeypatch.setattr(solver, "constraint_gradient", watched_gradient)
        solve_isoperimetric(spec, SolveOptions(restarts=2))
        assert all(isinstance(H, _Hessian) and H.diag.size == d for H, _ in systems)
        assert normal and any(border is None for _, border in systems)
        for J, at in normal:
            assert systems[at][0] is J.H
            assert systems[at][1] is (J.b if J.b.any() else None)
            assert any(np.array_equal(J.b, -g) for g in gradients)

    def test_zero_gradient_normal_step_stays_linear(self):
        # Restart 0 starts on x = t, where grad K = 0: its normal step solves
        # with the Hessian of L - lam K alone.  A dense (d+1)^2 least-squares
        # solve of the bordered system took 32 MB here (d = 999).
        ts = make_timescale("interval", a=0, b=1, h=1e-3)
        tracemalloc.start()
        try:
            pts = solve_isoperimetric(abnormal_spec(ts), SolveOptions(restarts=4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(p.lam0, p.lam, p.basin_count) for p in pts] == [(0.0, 1.0, 4)]
        assert pts[0].value == pytest.approx(1.0, abs=1e-12)
        assert pts[0].classification == "local_max"
        assert peak < 4e6

    def test_zero_gradient_normal_step_is_minimum_norm(self):
        # With b = 0 the bordered matrix [[H, 0], [0, 0]] is singular; the
        # step is its minimum-norm least-squares solution, dlam = 0.
        rng = np.random.default_rng(5)
        for _ in range(10):
            spec, tr = random_problem(rng)
            H = _hessian(spec, tr, 1.0, None)
            d = H.diag.size
            r = rng.standard_normal(d + 1)
            want = np.linalg.lstsq(H.dense(np.zeros(d)), -r, rcond=None)[0]
            step = _NormalJacobian(H, np.zeros(d)).step(r)
            assert step[-1] == 0.0
            assert np.linalg.norm(step - want) <= 1e-7 * np.linalg.norm(want)

    @pytest.mark.parametrize("h", [4e-3, 1e-2])
    def test_one_factorization_per_level_step(self, monkeypatch, h):
        # q = H^-1 g and p = H^-1 q share one factorization of K's Hessian:
        # one splu of T above DENSE_NEWTON_LIMIT (h = 4e-3: d = 249), one
        # dense LU of order d at or below it (h = 1e-2: d = 99).
        ts = make_timescale("interval", a=0, b=1, h=h)
        spec = abnormal_spec(ts)
        d = decision_indices(spec).size
        factors, per_step = [], []
        real_splu, real_lu, real_step = solver.splu, scipy.linalg.lu_factor, _LevelJacobian.step

        def recording_splu(A, *args, **kwargs):
            factors.append(("splu", A.shape[0]))
            return real_splu(A, *args, **kwargs)

        def recording_lu(a, *args, **kwargs):
            factors.append(("lu_factor", a.shape[0]))
            return real_lu(a, *args, **kwargs)

        def watched_step(J, r, border=None):
            before = len(factors)
            out = real_step(J, r, border)
            per_step.append(factors[before:])
            return out

        monkeypatch.setattr(solver, "splu", recording_splu)
        monkeypatch.setattr(scipy.linalg, "lu_factor", recording_lu)
        monkeypatch.setattr(_LevelJacobian, "step", watched_step)
        pts = solve_isoperimetric(spec, SolveOptions(restarts=4))
        assert [p.lam0 for p in pts] == [0.0]
        want = ("splu" if d > solver.DENSE_NEWTON_LIMIT else "lu_factor", d)
        assert per_step and all(made.count(want) == 1 for made in per_step)

    def test_fine_grid_normal_steps_stay_linear(self, monkeypatch):
        # iso_R at d = 9999: one dense (d+1)^2 Jacobian alone would take
        # 800 MB.  The normal steps factor the tridiagonal block (splu) and
        # the (k+1)^2 capacitance matrix, nothing of order d on dense form.
        h = 1e-4
        spec = resolve_problem("iso_R").build(h_override=h)
        d = decision_indices(spec).size
        k = spec.lagrangian.n + spec.constraint.functional.n
        factors, lu_orders = [], []
        real_lu = scipy.linalg.lu_factor

        def recording_splu(*args, **kwargs):
            lu = splu(*args, **kwargs)
            factors.append((lu.shape[0], lu.nnz))
            return lu

        def recording_lu(a, *args, **kwargs):
            lu_orders.append(a.shape[0])
            return real_lu(a, *args, **kwargs)

        monkeypatch.setattr("deltavar.solver.splu", recording_splu)
        monkeypatch.setattr(scipy.linalg, "lu_factor", recording_lu)
        tracemalloc.start()
        try:
            pts = solve_isoperimetric(spec, SolveOptions(restarts=3))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The discrete solution x = 3t^2 - 2t + O(h) has these closed forms
        # (they hold at h = 1e-3 and 5e-4 too).  TestClassify pins the label.
        assert [p.lam0 for p in pts] == [1.0]
        excess = 6.0 * h / (1.0 - h)
        assert pts[0].value == pytest.approx(4.0 + excess, rel=1e-9)
        assert pts[0].lam == pytest.approx(8.0 + excess, rel=1e-9)
        assert factors and all(order == d for order, _ in factors)
        assert max(nnz for _, nnz in factors) <= 10 * (d + k)
        assert lu_orders and max(lu_orders) <= k + 1
        assert peak < 50e6

    def test_abnormal_starts_are_drawn_onto_the_level_set(self):
        # K = sum of (v^2 - 1)^2 = 0 with x = 0 and 1 at the ends holds only
        # at x = t, an abnormal extremal.  Newton on grad K alone stalls in
        # valleys of ||grad K||^2 off that level from 10 of these 16 starts
        # (6 basins); the level defect in the residual draws 13 to x = t.
        ts = make_timescale("interval", a=0, b=1, h=0.1)
        L = CompositeFunctional.from_strings(["v^2 + y^2"], "u1")
        K = IsoConstraint(CompositeFunctional.from_strings(["(v^2 - 1)^2"], "u1"), 0.0)
        spec = ProblemSpec(ts=ts, lagrangian=L, bc=BoundarySpec.fixed(0, 1), constraint=K)
        pts = solve_isoperimetric(spec, SolveOptions(restarts=16))
        assert len(pts) == 1
        assert (pts[0].lam0, pts[0].lam) == (0.0, 1.0)
        np.testing.assert_allclose(pts[0].trajectory.x, ts.points, atol=1e-10)
        assert pts[0].basin_count >= 13

    def test_level_step_is_the_least_squares_step(self):
        # Two square solves with H give the least-squares step of [H; g^T],
        # on the dense form at d = 7 and by block elimination at d = 250.
        rng = np.random.default_rng(3)
        for d in (7, 250):
            H = _Hessian(rng.uniform(2.0, 4.0, d), rng.uniform(-1.0, 1.0, d - 1),
                         rng.standard_normal((2, d)), np.diag([0.5, -0.3]))
            g = rng.standard_normal(d)
            r = np.append(g, 0.7)
            stacked = np.vstack([H.dense(), g])
            want = np.linalg.lstsq(stacked, -r, rcond=None)[0]
            level = _LevelJacobian(H, g)
            np.testing.assert_allclose(level.step(r), want, rtol=1e-10, atol=1e-12)
            np.testing.assert_allclose(level.rmatvec(r), stacked.T @ r, rtol=1e-12)


class TestClassify:
    def test_quotient2_min_max_labels(self):
        opts = SolveOptions(restarts=32, tol_residual=1e-12)
        pts = sorted(solve_unconstrained(quotient2_spec(), opts), key=lambda p: p.value)
        assert pts[0].classification == "local_min"
        assert pts[1].classification == "local_max"

    def test_convex_energy_is_local_min(self):
        ts = make_timescale("uniform", a=0, b=1, h=0.25)
        F = CompositeFunctional.from_strings(["v^2"], "u1")
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 1))
        pts = solve_unconstrained(spec, SolveOptions(restarts=4, tol_residual=1e-12))
        assert len(pts) == 1
        assert pts[0].classification == "local_min"
        assert np.allclose(pts[0].trajectory.x, ts.points, atol=1e-10)

    # M^-1 H is the discrete second variation, whose low spectrum converges
    # as h -> 0 (8 pi^2 for iso_R), so the labels must hold on every grid.
    @pytest.mark.parametrize("problem, h, label", [
        ("iso_R", 1e-3, "local_min"),
        ("iso_R", 5e-4, "local_min"),
        ("iso_R", 2.5e-4, "local_min"),
        ("iso_R", 1e-4, "local_min"),
        ("sturm_liouville", 1e-4, "degenerate"),  # scale invariant
    ])
    def test_fine_grid_labels(self, problem, h, label):
        spec = resolve_problem(problem).build(h_override=h)
        solve = solve_isoperimetric if spec.constraint is not None else solve_unconstrained
        pts = solve(spec, SolveOptions(restarts=2))
        assert pts and [p.classification for p in pts] == [label] * len(pts)

    def test_convex_energy_is_local_min_on_a_fine_grid(self):
        ts = make_timescale("uniform", a=0, b=1, h=1e-4)
        F = CompositeFunctional.from_strings(["v^2"], "u1")
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 1))
        tr = Trajectory(ts, ts.points.copy())  # the exact discrete minimizer x = t
        point = StationaryPoint(trajectory=tr, inner=np.ones(1), value=1.0, residual=0.0)
        assert classify(spec, point) == "local_min"

    def test_mass_is_the_weight_of_x_sigma(self, monkeypatch):
        # Each decision sample carries mu(rho(t_j)) as x^sigma in the
        # Delta-sum, so M is half the Hessian of the sum of y^2.  A free left
        # end is never an x^sigma: it takes the first step, and its zero
        # curvature makes the point degenerate.
        masses = []
        real = _Hessian.count_below
        monkeypatch.setattr(_Hessian, "count_below",
                            lambda H, s, mass, g=None: masses.append(mass) or real(H, s, mass, g))
        ts = make_timescale("qscale", q=1.5, kmin=0, kmax=6)
        F = CompositeFunctional.from_strings(["y^2"], "u1")
        tr = Trajectory(ts, np.zeros(len(ts)))
        point = StationaryPoint(trajectory=tr, inner=np.zeros(1), value=0.0, residual=0.0)
        for left in (0.0, None):
            spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec(left=left, right=None))
            assert classify(spec, point) == ("local_min" if left == 0.0 else "degenerate")
            want = np.diag(functional_hessian(spec, tr)) / 2
            if left is None:
                want[0] = ts.steps[0]
            np.testing.assert_allclose(masses[-1], want, rtol=1e-12)


def decision_mass(spec):
    """The graininess mu(rho(t_j)) at each decision sample; a free left end takes the first step."""
    return spec.ts.steps[np.maximum(decision_indices(spec) - 1, 0)]


def pencil_eigs(hess, mass, border=None):
    """Eigenvalues of the pencil (hess, diag(mass)) by dense generalized eigh.

    With a border the pencil is first restricted to its orthogonal
    complement through a complete QR factorization.
    """
    basis = np.eye(mass.size)
    if border is not None and np.linalg.norm(border) > 0.0:
        basis = np.linalg.qr(border[:, None], mode="complete")[0][:, 1:]
    if basis.shape[1] == 0:
        return np.zeros(0)
    return scipy.linalg.eigh(basis.T @ hess @ basis, basis.T @ (mass[:, None] * basis),
                             eigvals_only=True)


def dense_label(spec, hess, border=None):
    """(label, eigenvalues, eps) by the pencil rule of classify from a dense Hessian.

    eps is DEGENERATE_RELATIVE times the largest |Rayleigh quotient| of the
    pencil on the first four sine modes of [a, b].
    """
    mass = decision_mass(spec)
    eigs = pencil_eigs(hess, mass, border)
    ts = spec.ts
    s = (ts.points[decision_indices(spec)] - ts.a) / ts.span
    modes = [np.sin(m * np.pi * s) for m in range(1, 5)]
    eps = DEGENERATE_RELATIVE * max(abs(v @ hess @ v) / (v @ (mass * v)) for v in modes)
    if eigs.size == 0 or not eps > 0.0 or np.any(np.abs(eigs) <= eps):
        return "degenerate", eigs, eps
    if np.all(eigs > eps):
        return "local_min", eigs, eps
    if np.all(eigs < -eps):
        return "local_max", eigs, eps
    return "saddle", eigs, eps


class TestClassifyProperties:
    @settings(max_examples=240, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["plain", "normal", "abnormal"]),
           st.booleans())
    def test_label_matches_dense_and_fd_hessians(self, seed, kind, graded):
        # Graded steps spread the pencil's masses over decades, where a rule
        # on the Euclidean spectrum (unit masses, eps from its spectral
        # radius) labels differently; their FD Hessians are rarely close
        # enough to compare.
        rng = np.random.default_rng(seed)
        ts = graded_timescale(rng) if graded else None
        spec, tr = random_problem(rng, allow_free_ends=kind == "plain", ts=ts)
        lam0, lam, border = 1.0, None, None
        hess = functional_hessian(spec, tr)
        if kind != "plain":
            spec = dataclasses.replace(spec, constraint=random_constraint(rng))
            lam0, lam = (0.0, 1.0) if kind == "abnormal" else (1.0, float(rng.uniform(-2, 2)))
            hess = lam0 * hess - lam * constraint_hessian(spec, tr)
            border = constraint_gradient(spec, tr)
        terms = [(lam0, spec.lagrangian)]
        if border is not None:
            terms.append((-lam, spec.constraint.functional))
        label, eigs, eps = dense_label(spec, hess, border)
        assume(not np.any((np.abs(eigs) > eps / 10) & (np.abs(eigs) < 10 * eps)))
        # Rounding in the Hessian's parts moves pencil eigenvalues by about
        # 1e-16 of their size over the smallest mass; an eps below a hundred
        # times that (a Hessian that vanishes up to rounding) tells nothing.
        mass = decision_mass(spec)
        assume(not 0.0 < eps < 1e-14 * parts_size(spec, tr, terms) / mass.min())
        point = StationaryPoint(
            trajectory=tr, inner=np.zeros(1), value=0.0, residual=0.0, lam0=lam0, lam=lam
        )
        assert classify(spec, point) == label
        # Weyl for the pencil: the FD error moves each eigenvalue by at most
        # its 2-norm over the smallest mass, so the FD label is comparable
        # only where that stays below eps / 10.
        fd = fd_hessian(spec, tr, lam0, lam or 0.0)
        fd_error = np.abs(fd - hess).max() * hess.shape[0] / mass.min()
        if eigs.size == 0 or fd_error < eps / 10:
            assert dense_label(spec, fd, border)[0] == label


# Normal points of L = 0.719 (int -0.682 t y^2)^2 with a constraint u1 * u2 on
# 12 decision points whose steps fall geometrically from 1 to 1.7e-4: two of
# the outer rows U differ in norm by about 1e5 and are coupled by C.
GRADED_CASES = [
    (["-1.805*t^2*v^2 + 0.05*y^2*v^2", "-1.753*t*y^2"],
     [0.46, 0.29, -0.26, -0.23, 0.34, -0.03, -0.01, -0.65, -0.09, -0.34, 0.61, -0.25, 0.65, -0.41],
     9, "saddle"),
    (["-0.723*v^2 + -1.234*t^2*v^2", "0.033*t^2*y^2"],
     [0.73, 0.14, 0.7, -0.35, -1.0, 0.98, 0.51, -0.69, 0.28, 0.71, -0.59, 0.71, -0.67, 0.61],
     1, "saddle"),
]


@pytest.mark.parametrize("inner, x, below, label", GRADED_CASES, ids=["nine", "one"])
def test_count_below_with_outer_rows_of_graded_size(inner, x, below, label):
    # Diagonalizing C before scaling U's rows to unit length gave mu of about
    # +-5e9 on two nearly parallel directions, and the Schur corner of the
    # inertia pass lost a sign: 10 and 0 eigenvalues below -100 instead of 9
    # and 1, and the second point labeled local_min.
    steps = np.geomspace(1.0, 1.7e-4, 13)
    ts = make_timescale("points", values=np.concatenate([[0.0], np.cumsum(steps)]) - 0.5)
    K = IsoConstraint(CompositeFunctional.from_strings(inner, "u1 * u2"), 0.0)
    spec = ProblemSpec(ts=ts, lagrangian=CompositeFunctional.from_strings(
        ["-0.682*t*y^2"], "0.719*u1^2"), bc=BoundarySpec.fixed(x[0], x[-1]), constraint=K)
    tr, lam = Trajectory(ts, x), 1.777
    gK = constraint_gradient(spec, tr)
    hess = functional_hessian(spec, tr) - lam * constraint_hessian(spec, tr)
    eigs = pencil_eigs(hess, decision_mass(spec), gK)
    assert np.count_nonzero(eigs < -100.0) == below
    assert _hessian(spec, tr, 1.0, lam).count_below(
        -100.0, decision_mass(spec), gK / np.linalg.norm(gK)) == below
    point = StationaryPoint(tr, np.zeros(2), 0.0, 0.0, lam0=1.0, lam=lam)
    assert classify(spec, point) == dense_label(spec, hess, gK)[0] == label


def parts_size(spec, tr, terms):
    """The size of the tridiagonal and low-rank parts of sum(coef * Hessian(F)).

    Entries of the Hessian can cancel far below it, so it sets the scale of
    rounding errors.
    """
    size = 0.0
    for coef, F in terms:
        diag, off, rows, outer = hessian_parts(F, spec, tr)
        size += abs(coef) * (np.abs(diag).max() + np.abs(off).max(initial=0.0)
                             + (np.abs(rows).T @ np.abs(outer) @ np.abs(rows)).max())
    return size


class TestHessianProperties:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from([0.0, 1.0]))
    def test_hessian_is_the_derivative_of_the_gradient(self, seed, constrained, lam0):
        rng = np.random.default_rng(seed)
        spec, tr = random_problem(rng, allow_free_ends=not constrained)
        lam, terms = None, [(lam0, spec.lagrangian)]
        if constrained:
            spec = dataclasses.replace(spec, constraint=random_constraint(rng))
            lam = 1.0 if lam0 == 0.0 else float(rng.uniform(-2, 2))
            terms.append((-lam, spec.constraint.functional))
        fd = fd_hessian(spec, tr, lam0, lam or 0.0)
        # Central differences of step 1e-6 are off by about 2e-7 of the
        # parts' size at worst over 12,000 draws.
        tol = 1e-5 * (1.0 + parts_size(spec, tr, terms))
        assert np.abs(_hessian(spec, tr, lam0, lam).dense() - fd).max() <= tol

    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_normal_matrix_is_the_derivative_of_the_normal_residual(self, seed):
        # The normal Newton matrix is the Jacobian in (z, lam) of
        # r = [grad L - lam grad K; k - K]: the Hessian of L - lam K, bordered
        # by -grad K in its last row and column.
        rng = np.random.default_rng(seed)
        spec, tr = random_problem(rng, allow_free_ends=False)
        spec = dataclasses.replace(spec, constraint=random_constraint(rng))
        lam = float(rng.uniform(-2, 2))
        K = spec.constraint.functional
        J = _NormalJacobian(_hessian(spec, tr, 1.0, lam), -constraint_gradient(spec, tr))
        n = decision_indices(spec).size
        dense = np.column_stack([J @ e for e in np.eye(n + 1)])
        size = parts_size(spec, tr, [(1.0, spec.lagrangian), (-lam, K), (1.0, K)])
        assert np.abs(dense - dense.T).max() <= 1e-12 * (1.0 + size)
        tol = 1e-5 * (1.0 + size)
        assert np.abs(dense[:n, :n] - fd_hessian(spec, tr, 1.0, lam)).max() <= tol
        d_level = -fd_gradient(dataclasses.replace(spec, lagrangian=K, constraint=None), tr)
        assert np.abs(dense[n, :n] - d_level).max() <= tol
        assert np.abs(dense[:n, n] - d_level).max() <= tol
        assert dense[n, n] == 0.0


class TestHessianSolve:
    @settings(max_examples=120, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_structured_solves_match_dense(self, seed, constrained):
        rng = np.random.default_rng(seed)
        spec, tr = random_problem(rng, allow_free_ends=not constrained)
        lam = None
        dense = functional_hessian(spec, tr)
        terms = [(1.0, spec.lagrangian)]
        # The sphere step borders with the iterate, the isoperimetric step
        # with the constraint gradient.
        border = tr.x[decision_indices(spec)]
        if constrained:
            spec = dataclasses.replace(spec, constraint=random_constraint(rng))
            lam = float(rng.uniform(-2, 2))
            dense = dense - lam * constraint_hessian(spec, tr)
            terms.append((-lam, spec.constraint.functional))
            border = constraint_gradient(spec, tr)
        size = parts_size(spec, tr, terms)
        hess = _hessian(spec, tr, 1.0, lam)
        assert np.abs(hess.dense() - dense).max() <= 1e-12 * size
        # A fixed extra input: tridiag(0, 1) of odd order is singular, so its
        # tridiagonal block cannot be factored alone; the rank-one outer term
        # e1 e1^T (not orthogonal to the null vector (1, 0, -1, 0, ...)) makes
        # H nonsingular.
        singular = _Hessian(np.zeros(7), np.ones(6), np.eye(7)[:1], np.ones((1, 1)))
        assert singular.factor() is None
        assert singular.factor(np.linspace(1.0, 2.0, 7)) is None
        cases = [
            (hess, dense, border, size, rng.standard_normal(dense.shape[0]),
             rng.standard_normal()),
            (singular, singular.dense(), np.linspace(1.0, 2.0, 7), 2.0, np.arange(7.0) - 2.0,
             0.5),
        ]
        for op, plain, b, size, rhs, last in cases:
            n = rhs.size
            bordered = np.block([[plain, b[:, None]], [b[None, :], np.zeros((1, 1))]])
            np.testing.assert_array_equal(op.dense(b), np.block(
                [[op.dense(), b[:, None]], [b[None, :], np.zeros((1, 1))]]))
            systems = [(None, plain, rhs, 0.0, size)]
            # The bordered system with a zero last right-hand side (the sphere
            # step) and a nonzero one (the normal isoperimetric step).
            systems += [(b, bordered, np.append(rhs, g), g, size + np.abs(b).max())
                        for g in (0.0, last)]
            for border, matrix, full_rhs, g, scale in systems:
                # Compare only where rounding at that scale cannot move the solution.
                if scale >= 1e6 * np.linalg.svd(matrix, compute_uv=False).min():
                    continue
                want = np.linalg.solve(matrix, full_rhs)
                tol = 1e-7 * np.linalg.norm(want)  # the border's multiplier included
                # Block elimination either declines or gives the dense
                # solution, the border's multiplier included.
                factored = op.factor(border)
                got = None if factored is None else factored(rhs, g)
                if got is not None:
                    assert np.linalg.norm(got - want) <= tol
                # The Newton steps always do, whether they start from the
                # structured solve (limit 0) or step on the dense form.
                for limit in (0, solver.DENSE_NEWTON_LIMIT):
                    with mock.patch.object(solver, "DENSE_NEWTON_LIMIT", limit):
                        if border is None or g == 0.0:
                            step = op.step(-rhs, border)
                            assert np.linalg.norm(step - want[:n]) <= tol
                        if border is not None:
                            # The normal step against the dense Newton step of
                            # the residual [grad L - lam b; k - K], b = grad K:
                            # its Jacobian [[H, -b], [-b^T, 0]] in (z, lam).
                            normal = _NormalJacobian(op, -b)
                            jac = bordered.copy()
                            jac[:n, n] = jac[n, :n] = -b
                            want_normal = np.linalg.solve(jac, full_rhs)
                            step = normal.step(-full_rhs)
                            assert np.linalg.norm(step - want_normal) <= (
                                1e-7 * np.linalg.norm(want_normal))
                            # J^T r for the damped gradient step.
                            atol = 1e-12 * scale * np.abs(full_rhs).sum()
                            assert np.abs(normal.rmatvec(full_rhs) - jac.T @ full_rhs).max() <= atol

    # sturm_liouville is scale invariant, so its steps take the sphere border.
    @pytest.mark.parametrize("problem", ["quotient2_R", "sturm_liouville"])
    def test_fine_grid_factors_stay_linear(self, monkeypatch, problem):
        # d = 9999: a dense Hessian alone would take 800 MB, and a sparse LU
        # of the arrowhead system [[T, U^T C], [U, -I]] fills in to about
        # d^2 / 2 entries; the tridiagonal block T alone stays banded.
        spec = resolve_problem(problem).build(h_override=1e-4)
        d, k = decision_indices(spec).size, spec.lagrangian.n
        factors = []

        def recording_splu(*args, **kwargs):
            lu = splu(*args, **kwargs)
            factors.append((lu.shape[0], lu.nnz))
            return lu

        monkeypatch.setattr("deltavar.solver.splu", recording_splu)
        pts = solve_unconstrained(spec, SolveOptions(restarts=4))
        assert pts and factors
        assert max(nnz for _, nnz in factors) <= 10 * (d + k)
        # splu factors the order-d tridiagonal block and nothing else.
        assert all(order == d for order, _ in factors)

    @pytest.mark.parametrize("problem", ["quotient2_R", "iso_R"])
    def test_block_steps_below_old_dense_limit_find_the_same_points(self, problem):
        # h = 6e-3 gives d = 166, between DENSE_NEWTON_LIMIT and the former
        # limit of 200: block elimination there finds the points, labels and
        # basins of the dense LU steps, with values equal to rounding.
        spec = resolve_problem(problem).build(h_override=6e-3)
        assert solver.DENSE_NEWTON_LIMIT < decision_indices(spec).size <= 200
        solve = solve_isoperimetric if spec.constraint is not None else solve_unconstrained
        opts = SolveOptions(restarts=4, seed=0)
        with mock.patch.object(solver, "DENSE_NEWTON_LIMIT", 200):
            dense = solve(spec, opts)
        block = solve(spec, opts)
        assert [(p.classification, p.basin_count) for p in block] == [
            (p.classification, p.basin_count) for p in dense
        ]
        for p, q in zip(block, dense):
            assert p.value == pytest.approx(q.value, rel=1e-12)
            np.testing.assert_allclose(p.trajectory.x, q.trajectory.x, atol=1e-10)


class TestInertia:
    def test_bordered_counts_match_dense(self):
        rng = np.random.default_rng(2024)
        # tridiag(0, 1) of order 6: every 1x1 pivot is zero, so only 2x2
        # pivots apply; its eigenvalues come in +- pairs.
        cases = [(np.zeros(6), np.ones(5), np.zeros((6, 0)), np.zeros((0, 0)))]
        for _ in range(400):
            n = int(rng.integers(1, 25))
            m = int(rng.integers(0, 4))
            diag = rng.standard_normal(n)
            off = rng.standard_normal(n - 1)
            # Zero diagonal entries force 2x2 pivots; zero couplings leave
            # zero pivots that only the border reaches.
            diag[rng.random(n) < 0.5] = 0.0
            off[rng.random(n - 1) < 0.2] = 0.0
            border = rng.standard_normal((n, m))
            corner = rng.standard_normal((m, m))
            cases.append((diag, off, border, corner + corner.T))
        checked = 0
        for diag, off, border, corner in cases:
            n = diag.size
            tri = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            for s in (-0.7, 0.0, 1.3):
                full = np.block([[tri - s * np.eye(n), border], [border.T, corner]])
                eigs = np.linalg.eigvalsh(full)
                if np.min(np.abs(eigs)) < 1e-8:
                    continue
                got = _negative_inertia(diag - s, off, border, corner)
                assert got == np.count_nonzero(eigs < 0.0)
                checked += 1
        assert checked > 600

    def test_pencil_counts_match_dense(self):
        rng = np.random.default_rng(7)
        for trial in range(300):
            n = int(rng.integers(2, 25))
            k = int(rng.integers(0, 4))
            diag = rng.standard_normal(n)
            diag[rng.random(n) < 0.5] = 0.0
            off = rng.standard_normal(n - 1)
            v = rng.standard_normal((k, n))
            v /= np.linalg.norm(v, axis=1, keepdims=True)
            mu = rng.standard_normal(k)
            mass = rng.uniform(0.05, 2.0, n)
            g = None
            if trial % 2:
                g = rng.standard_normal(n)
                g /= np.linalg.norm(g)
            hess = _Hessian(diag, off, v, np.diag(mu))
            dense = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1) + v.T @ (mu[:, None] * v)
            eigs = pencil_eigs(dense, mass, g)
            assert hess.diag.size - (g is not None) == eigs.size
            for s in (-1.0, -1e-3, 0.0, 0.5, 2.0):
                if np.min(np.abs(eigs - s)) < 1e-8:
                    continue
                assert hess.count_below(s, mass, g) == np.count_nonzero(eigs < s)

    def test_classify_memory_is_linear(self):
        # d = 9999: a dense Hessian alone would take 800 MB.
        spec = resolve_problem("sturm_liouville").build(h_override=1e-4)
        tr = Trajectory(spec.ts, np.sin(np.pi * spec.ts.points))
        point = StationaryPoint(trajectory=tr, inner=np.zeros(2), value=0.0, residual=0.0)
        tracemalloc.start()
        try:
            label = classify(spec, point)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert label in ("local_min", "local_max", "saddle", "degenerate")
        assert peak < 50e6


class TestDuplicateDraws:
    """Multi-start draws that returned one branch more than once."""

    def test_antisymmetric_ray_is_one_point(self):
        # Copies of the antisymmetric second eigenfunction were normalized
        # to opposite signs and never compared as one ray.
        spec = resolve_problem("sturm_liouville").build(h_override=1e-2)
        pts = solve_unconstrained(spec, SolveOptions(restarts=64, seed=0))
        values = sorted(p.value for p in pts)
        assert len(values) == 3
        assert max(p.residual for p in pts) <= SolveOptions().tol_residual
        assert np.all(np.diff(values) > 1.0)

    def test_polished_roots_merge(self):
        spec = resolve_problem("quotient2_R").build(h_override=1e-2)
        pts = solve_unconstrained(spec, SolveOptions(restarts=64, seed=4))
        assert sorted(p.classification for p in pts) == ["local_max", "local_min"]
        assert sum(p.basin_count for p in pts) == 4
        assert max(p.residual for p in pts) <= SolveOptions().tol_residual


def _recorded_runs(monkeypatch, problem, h, opts):
    """The points of one solve and every Newton run it made, in order."""
    runs, run_newton = [], solver._run_newton

    def recording(*args, **kwargs):
        runs.append(run_newton(*args, **kwargs))
        return runs[-1]

    monkeypatch.setattr(solver, "_run_newton", recording)
    return solve_unconstrained(resolve_problem(problem).build(h_override=h), opts), runs


class TestEscapingRestarts:
    """Restarts that escape toward the flat far field of a quotient."""

    def test_escapes_end_within_the_window(self, monkeypatch):
        # The ||w|| > 1e3 * (1 + ||w0||) backstop alone took 21-26 iterations.
        pts, runs = _recorded_runs(monkeypatch, "quotient1", 1e-2,
                                   SolveOptions(restarts=16, seed=7))
        failed = [run.iterations for run in runs if not run.converged]
        assert len(failed) == 15
        assert max(failed) <= solver.ESCAPE_STEPS + 2
        assert [(p.basin_count, p.classification) for p in pts] == [(1, "local_min")]
        assert pts[0].value == pytest.approx(2 / 3, rel=1e-9)

    # Converged restart masks from before the escape rule: ending an escape
    # early must never end a run that would have converged.
    @pytest.mark.parametrize("problem, h, restarts, seed, mask", [
        ("quotient1", 1e-2, 16, 7, "1000000000000000"),
        ("quotient2_3pt", None, 64, 1,
         "1000011100011010110011101000100110011100000110100010100101000101"),
        ("quotient2_R", 1e-2, 64, 4,
         "1000000001000000000000000000000000000000000000010000000000010000"),
    ])
    def test_converged_restarts_are_pinned(self, monkeypatch, problem, h, restarts, seed,
                                           mask):
        _, runs = _recorded_runs(monkeypatch, problem, h,
                                 SolveOptions(restarts=restarts, seed=seed))
        assert "".join("01"[run.converged] for run in runs) == mask


class TestStagnatingRestarts:
    """Runs whose damping fails end after STAGNATION_STEPS deep steps."""

    def test_root_less_product_restarts_end_early(self, monkeypatch):
        # Failing product_3pt runs crawled along a merit valley to MAX_ITERS:
        # 3,218 residual evaluations before the rule, 1,826 with it.
        count, real = [0], solver._gradient_system

        def counting(spec, level=None):
            evaluate, scale_invariant = real(spec, level)

            def counted(z):
                count[0] += 1
                return evaluate(z)

            return counted, scale_invariant

        monkeypatch.setattr(solver, "_gradient_system", counting)
        with pytest.raises(NoStationaryPointFound):
            solve_unconstrained(resolve_problem("product_3pt").build(),
                                SolveOptions(restarts=24, seed=2))
        assert count[0] <= 2200

    def test_slow_converging_saddle_is_kept(self):
        # Its only converging restart takes two deep steps in a row before it
        # converges; ending runs after two such steps loses the point.
        rng = np.random.default_rng(7)
        for _ in range(4):
            spec, _ = random_problem(rng)
        pts = solve_unconstrained(spec, SolveOptions(restarts=12, seed=3))
        assert [(round(p.value, 7), p.classification) for p in pts] == [(3.3411157, "saddle")]

    def test_damped_gradient_step_reaches_the_only_root(self, monkeypatch):
        # A random constraint draw (conftest.random_problem) whose one root
        # no pure Newton route reaches: without the damped-gradient step
        # every restart ends off the constraint.
        spec = resolve_problem(str(PROBLEMS / "damped_rescue.dvp")).build()
        opts = SolveOptions(restarts=6, seed=321)
        pts = solve_isoperimetric(spec, opts)
        assert [p.normal for p in pts] == [True]
        assert pts[0].value == pytest.approx(3.814312715944558, rel=1e-10)
        monkeypatch.setattr(solver, "DAMPED_STEP", 0.0)
        with pytest.raises(ConstraintInfeasible, match=r"best defect 0\.164"):
            solve_isoperimetric(spec, opts)


class TestRestoredStarts:
    """Normal isoperimetric runs start on K = k, restored along grad K."""

    @pytest.mark.parametrize("problem, h, restarts", [
        ("iso_3pt", None, 16), ("iso_R", 1e-2, 8),
    ])
    def test_every_restart_converges(self, problem, h, restarts):
        spec = resolve_problem(problem).build(h_override=h)
        pts = solve_isoperimetric(spec, SolveOptions(restarts=restarts, seed=5))
        assert len(pts) == 1 and pts[0].basin_count == restarts

    def test_failed_restored_run_falls_back_to_the_start(self, monkeypatch):
        # A restart whose restored run fails runs from z0 as without the
        # restoration, so it converges wherever it did before.
        spec = resolve_problem("iso_R").build(h_override=1e-2)
        opts = SolveOptions(restarts=4, seed=0)
        inits = [solver._initial_decision(spec, opts, r).tobytes() for r in range(4)]
        runs, real = [], solver._run_newton

        def failing_restored(evaluate, w0, opts, pin_scale=False):
            runs.append(w0[:-1].tobytes() in inits)
            if not runs[-1]:
                return solver._NewtonResult(w0, np.full_like(w0, np.inf), False, 0)
            return real(evaluate, w0, opts, pin_scale)

        monkeypatch.setattr(solver, "_run_newton", failing_restored)
        fallback = solve_isoperimetric(spec, opts)
        assert runs == [False, True] * opts.restarts
        monkeypatch.setattr(solver, "_run_newton", real)
        monkeypatch.setattr(solver, "RESTORE_ITERS", 0)
        unrestored = solve_isoperimetric(spec, opts)
        assert [(p.value, p.lam, p.basin_count) for p in fallback] == [
            (p.value, p.lam, p.basin_count) for p in unrestored]

    def test_degenerate_level_set_is_left_to_the_abnormal_branch(self, monkeypatch):
        # Every line z0 + s grad K(z0) meets K = 1 only at x = t, a double
        # root where grad K = 0.  Restored there, the normal runs converged
        # to spurious points with |lambda| of 1e3 to 1e5 at ||grad K|| ~ 1e-6.
        opts = SolveOptions(restarts=4)
        pts = solve_isoperimetric(abnormal_spec(), opts)
        assert [(p.lam0, p.lam) for p in pts] == [(0.0, 1.0)]
        monkeypatch.setattr(solver, "RESTORE_GRADIENT", 0.0)
        unguarded = solve_isoperimetric(abnormal_spec(), opts)
        assert any(p.lam0 == 1.0 and abs(p.lam) > 1e3 for p in unguarded)


class TestRefineStudy:
    def test_orders_and_branch_tracking(self):
        def make_spec(h):
            return quotient2_spec(make_timescale("interval", a=0, b=1, h=h))

        opts = SolveOptions(restarts=24, tol_residual=1e-11)
        study = refine_study(
            make_spec,
            [0.2, 0.1, 0.05],
            opts,
            reference=lambda t: 3 / (3 + 2 * np.sqrt(3)) * t**2
            + 2 * np.sqrt(3) / (2 * np.sqrt(3) + 3) * t,
        )
        assert study.branch_count() == 2
        assert all(row.error is None for row in study.rows)
        vals_hi = study.branch_values(1)
        assert len(vals_hi) == 3
        # Errors against the closed-form limit shrink roughly like h.
        target = 0.25 + np.sqrt(3) / 6
        errs = [abs(v - target) for _, v in vals_hi]
        assert errs[0] > errs[1] > errs[2]
        table = study.format_table()
        assert "branch" in table and "0.05" in table

    def test_failure_rows_marked(self):
        def make_spec(h):
            return product_spec(make_timescale("interval", a=0, b=1, h=h))

        study = refine_study(make_spec, [0.5], SolveOptions(restarts=4))
        assert study.rows[0].error is not None
        assert "FAILED" in study.format_table()

    def test_trivial_family_keeps_linear_solution(self):
        def make_spec(h):
            ts = make_timescale("interval", a=0, b=1, h=h)
            F = CompositeFunctional.from_strings(["v^2"], "u1")
            return ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 1))

        study = refine_study(
            make_spec,
            [0.25, 0.125],
            SolveOptions(restarts=2, tol_residual=1e-12),
            reference=lambda t: t,
        )
        for row in study.rows:
            assert row.error is None
            assert row.points[0].reference_distance <= 1e-9
