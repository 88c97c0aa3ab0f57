import dataclasses
import itertools
import tracemalloc
import warnings
import weakref
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from conftest import graded_timescale, random_constraint, random_problem
from hypothesis import assume, given, settings, strategies as st
from scipy.linalg import lapack
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

    def test_root_near_the_pole_is_returned(self):
        # The local maximum sits where the denominator integral u2 is 1.4e-3.
        # Only H's own division is tested there; H'' divides by u2^4 = 3.5e-12
        # and must not stop the Newton run.
        spec = resolve_problem(str(PROBLEMS / "pole_adjacent.dvp")).build()
        lo, hi = solve_unconstrained(spec, SolveOptions(restarts=64, seed=0))
        assert (lo.classification, hi.classification) == ("local_min", "local_max")
        assert lo.trajectory.x[1] == pytest.approx(0.28996, abs=1e-5)
        assert lo.value == pytest.approx(0.408848827154, rel=1e-10)
        assert hi.trajectory.x[1] == pytest.approx(-0.15359, abs=1e-5)
        assert hi.value == pytest.approx(80.4258418078, rel=1e-10)

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
        real_records = euler_lagrange._fill_partials

        def counting_records(F, trs, *bindings):
            inner_calls[0] += len(trs)
            return real_records(F, trs, *bindings)

        added = []
        real_parts = solver.hessian_parts

        def watched_parts(F, spec, tr):
            before = inner_calls[0]
            out = real_parts(F, spec, tr)
            added.append(inner_calls[0] - before)
            return out

        monkeypatch.setattr(euler_lagrange, "_fill_partials", counting_records)
        monkeypatch.setattr(solver, "_fill_partials", counting_records)
        monkeypatch.setattr(solver, "hessian_parts", watched_parts)
        spec = resolve_problem(problem).build()
        solve = solve_isoperimetric if spec.constraint is not None else solve_unconstrained
        solve(spec, SolveOptions(restarts=3, seed=0))
        assert added and not any(added)

    def test_isoperimetric_start_evaluated_once(self, monkeypatch):
        # Every start is first restored onto K = k along grad K.  The
        # restoration's last step reads K at the start; the normal row there,
        # evaluated in its round's batch, reads L and K again, and the
        # multiplier guess and Newton's first residual share its trajectory.
        # So L is evaluated once at each start and K twice; at z0 the
        # restoration reads K alone.  Records are counted in batches and alone.
        calls, starts = [], []
        real_records, real_run = euler_lagrange._fill_partials, solver._run_newton

        def counting_records(F, trs, *bindings):
            calls.extend((F, tr.x.tobytes()) for tr in trs)
            return real_records(F, trs, *bindings)

        def recording(w0, *args):
            starts.append(w0[:-1])
            return real_run(w0, *args)

        monkeypatch.setattr(euler_lagrange, "_fill_partials", counting_records)
        monkeypatch.setattr(solver, "_fill_partials", counting_records)
        monkeypatch.setattr(solver, "_run_newton", recording)
        spec = resolve_problem("iso_R").build(h_override=1e-2)
        L, K = spec.lagrangian, spec.constraint.functional
        opts = SolveOptions(restarts=4, seed=0)
        solve_isoperimetric(spec, opts)
        assert len(starts) == opts.restarts
        for restart, z in enumerate(starts):
            tr = euler_lagrange.embed_decision(spec, z)
            assert value(K, tr) == pytest.approx(1.0, abs=opts.tol_residual)
            assert (calls.count((L, tr.x.tobytes())), calls.count((K, tr.x.tobytes()))) == (1, 2)
            z0 = solver._initial_decision(spec, opts, restart)
            x0 = euler_lagrange.embed_decision(spec, z0).x.tobytes()
            assert (calls.count((L, x0)), calls.count((K, x0))) == (0, 1)

    @pytest.mark.parametrize("system", ["normal", "level"])
    def test_batch_defects_take_one_outer_pass(self, monkeypatch, system):
        # The constraint defect of a batch of iterates is one pass of K's outer
        # map over the batch, in the normal system [grad L - lam grad K; k - K]
        # and in the level system [grad K; K - k]; each residual is still the
        # bits of its iterate evaluated alone.
        spec = resolve_problem("iso_R").build(h_override=1e-1)
        K, opts = spec.constraint.functional, SolveOptions(restarts=5, seed=0)
        Z = np.array([solver._initial_decision(spec, opts, r) for r in range(opts.restarts)])
        if system == "normal":
            evaluate, _ = solver._gradient_system(spec)
            W = np.column_stack([Z, np.linspace(-1.0, 1.0, len(Z))])
        else:
            kspec = dataclasses.replace(spec, lagrangian=K, constraint=None)
            evaluate, W = solver._gradient_system(kspec, spec.constraint.target)[0], Z
        lone = [evaluate([w])[0][0] for w in W]
        passes, real = [], CompositeFunctional._outer_values

        def watched(F, exprs, us):
            if F is K and exprs is not K.outer_grad_exprs:
                passes.append(len(us))
            return real(F, exprs, us)

        monkeypatch.setattr(CompositeFunctional, "_outer_values", watched)
        batch = evaluate(W)
        assert passes == [len(W)]
        for (r, _), alone in zip(batch, lone):
            assert r.tobytes() == alone.tobytes()

    def test_mixed_multiplier_round_takes_one_hessian_pass_per_functional(self, monkeypatch):
        # A round of normal Jacobians whose multipliers include lam = 0 assembles
        # every Hessian of L - lam K in one pass of hessian_parts per functional:
        # each carries K's rows, at weight -lam, and equals its batch of one.
        spec = resolve_problem("iso_R").build(h_override=1e-1)
        L, K = spec.lagrangian, spec.constraint.functional
        opts = SolveOptions(restarts=5, seed=0)
        Z = np.array([solver._initial_decision(spec, opts, r) for r in range(opts.restarts)])
        evaluate, _ = solver._gradient_system(spec)
        batch = evaluate(np.column_stack([Z, [0.0, 1.5, 0.0, -2.0, 0.7]]))
        no_pin = np.empty((Z.shape[1] + 1, 0))
        (newton, _), asks = batch[0][1], [(key, r, no_pin) for r, (_, key) in batch]
        passes, real_parts = [], solver.hessian_parts

        def watched_parts(F, spec, trs):
            passes.append((F, len(trs)))
            return real_parts(F, spec, trs)

        monkeypatch.setattr(solver, "hessian_parts", watched_parts)
        normals = newton(asks)
        assert passes == [(L, len(asks)), (K, len(asks))]
        for (J, step), ask in zip(normals, asks):
            (alone, alone_step), = newton([ask])
            assert J.H.U.shape[0] == L.n + K.n
            for part in ("diag", "off", "U", "C"):
                assert getattr(J.H, part).tobytes() == getattr(alone.H, part).tobytes()
            assert step.tobytes() == alone_step.tobytes()
            assert J.b.tobytes() == alone.b.tobytes()

    def test_restored_starts_take_no_lone_constraint_value(self, monkeypatch):
        # The restoration's last residual ends with K - k at the restored
        # start, and the run's first residual takes that defect, so no
        # restart evaluates K's outer map alone; the solve's only lone passes
        # of an outer map H are its one point's values of L and K.
        lone, real = [], CompositeFunctional._outer_values

        def watched(F, exprs, us):
            if exprs == (F.outer,) and len(us) == 1:
                lone.append(F)
            return real(F, exprs, us)

        monkeypatch.setattr(CompositeFunctional, "_outer_values", watched)
        spec = resolve_problem("iso_3pt").build()
        pts = solve_isoperimetric(spec, SolveOptions(restarts=64, seed=0))
        assert len(pts) == 1
        assert lone == [spec.lagrangian, spec.constraint.functional]

    @pytest.mark.parametrize("problem, h", [("iso_3pt", None), ("iso_R", 1e-2)])
    def test_restarts_fill_no_record_alone(self, monkeypatch, problem, h):
        # Every normal start is a row of its round's batch, so the solve's
        # only records filled alone are its one point's L and K (an earlier
        # design filled L alone at each of the 64 starts as well).
        lone, real = [], euler_lagrange._fill_partials

        def counting(F, trs, *bindings):  # solver's own batch calls are not patched
            lone.append((F, len(trs)))
            return real(F, trs, *bindings)

        monkeypatch.setattr(euler_lagrange, "_fill_partials", counting)
        spec = resolve_problem(problem).build(h_override=h)
        assert len(solve_isoperimetric(spec, SolveOptions(restarts=64, seed=0))) == 1
        assert lone == [(spec.lagrangian, 1), (spec.constraint.functional, 1)]

    # Every trajectory is built once per system that evaluates it, as a row
    # of a batch (each restart's z0, restoration steps, normal start row,
    # Newton iterates and abnormal-seed check) or by embed_decision (the
    # dedup of each converged run).  The restored start is a row of the
    # level system and again of the normal one.  iso_R at h = 1e-2 builds 7
    # rows in its one restart and 1 in the dedup.  iso_3pt has d = 1: each
    # restart restores in one step onto the single point of K = k, and its
    # polish step and seed check meet that z again, so it builds 5 rows, 40
    # in 8 restarts, plus 8 in the dedup.
    @pytest.mark.parametrize("problem, h, restarts, builds",
                             [("iso_R", 1e-2, 1, 8), ("iso_3pt", None, 8, 48)])
    def test_isoperimetric_trajectory_builds(self, monkeypatch, problem, h, restarts, builds):
        calls = [0]
        real_embed, real_rows = solver.embed_decision, Trajectory._rows.__func__

        def counting(spec, z):
            calls[0] += 1
            return real_embed(spec, z)

        def counting_rows(cls, ts, X):
            calls[0] += len(X)
            return real_rows(cls, ts, X)

        monkeypatch.setattr(solver, "embed_decision", counting)
        monkeypatch.setattr(Trajectory, "_rows", classmethod(counting_rows))
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
        # Every round's Newton systems reach _newton_solver together, as
        # structured Hessians at every size; it alone steps densely up to
        # DENSE_NEWTON_LIMIT unknowns (three points: d = 1) and by block
        # elimination above it (h = 1e-2: d = 99; h = 4e-3: d = 249).
        # Abnormal Newton runs on K's own gradient system, with an empty
        # (d, 0) border.  The normal steps of a round (_NormalJacobian) offer
        # each run's Hessian of L - lam K bordered by the one column -grad K,
        # never a (d+1)^2 array; where grad K = 0 the system decouples and the
        # step offers that Hessian with no column.
        ts = THREE_PT if h is None else make_timescale("interval", a=0, b=1, h=h)
        spec = abnormal_spec(ts)
        d = decision_indices(spec).size
        systems, normal, gradients = [], [], []
        real_solver, real_steps = solver._newton_solver, _NormalJacobian.steps
        real_gradient = solver.constraint_gradient

        def watched_solver(hessians, borders):
            systems.extend(zip(hessians, borders))
            return real_solver(hessians, borders)

        def watched_steps(normals, rs, pins):
            before = len(systems)
            out = real_steps(normals, rs, pins)
            normal.append((normals, systems[before:]))
            return out

        def watched_gradient(spec, tr):
            gradients.append(real_gradient(spec, tr))
            return gradients[-1]

        monkeypatch.setattr(solver, "_newton_solver", watched_solver)
        monkeypatch.setattr(_NormalJacobian, "steps", staticmethod(watched_steps))
        monkeypatch.setattr(solver, "constraint_gradient", watched_gradient)
        solve_isoperimetric(spec, SolveOptions(restarts=2))
        assert all(isinstance(H, _Hessian) and H.diag.size == d for H, _ in systems)
        assert all(B.ndim == 2 and B.shape[0] == d for _, B in systems)
        assert normal and any(B.shape[1] == 0 for _, B in systems)
        for normals, solved in normal:
            assert len(solved) == len(normals)
            for J in normals:
                B, = [B for H, B in solved if H is J.H]
                assert np.array_equal(B, J.b[:, None] if J.b.any() else np.zeros((d, 0)))
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
            want = np.linalg.lstsq(H.dense(np.zeros((d, 1))), -r, rcond=None)[0]
            normal = _NormalJacobian(H, np.zeros(d))
            step = _NormalJacobian.steps([normal], [r], [np.zeros((d + 1, 0))])[0]
            assert step[-1] == 0.0
            assert np.linalg.norm(step - want) <= 1e-7 * np.linalg.norm(want)

    @pytest.mark.parametrize("h", [4e-3, 1e-2])
    def test_one_factorization_per_level_step(self, monkeypatch, h):
        # The q = H^-1 g and p = H^-1 q of every run asking in a round share
        # one factorization of their Hessians of K, above DENSE_NEWTON_LIMIT
        # (h = 1e-2: d = 99; h = 4e-3: d = 249): one splu of the b runs'
        # tridiagonal blocks stacked, of order b * d, and one LU of each
        # run's k x k capacitance matrix (unpinned: m = 0); no LU of order d.
        ts = make_timescale("interval", a=0, b=1, h=h)
        spec = abnormal_spec(ts)
        d, k = decision_indices(spec).size, spec.constraint.functional.n
        assert d > solver.DENSE_NEWTON_LIMIT
        factors, per_round = [], []
        real_splu, real_lu, real_steps = solver.splu, scipy.linalg.lu_factor, _LevelJacobian.steps

        def recording_splu(A, *args, **kwargs):
            factors.append(("splu", A.shape[0]))
            return real_splu(A, *args, **kwargs)

        def recording_lu(a, *args, **kwargs):
            factors.append(("lu_factor", a.shape[0]))
            return real_lu(a, *args, **kwargs)

        def watched_steps(levels, rs, pins):
            before = len(factors)
            out = real_steps(levels, rs, pins)
            per_round.append((len(levels), factors[before:]))
            return out

        monkeypatch.setattr(solver, "splu", recording_splu)
        monkeypatch.setattr(scipy.linalg, "lu_factor", recording_lu)
        monkeypatch.setattr(_LevelJacobian, "steps", staticmethod(watched_steps))
        pts = solve_isoperimetric(spec, SolveOptions(restarts=4))
        assert [p.lam0 for p in pts] == [0.0]
        assert max(b for b, _ in per_round) > 1
        for b, made in per_round:
            assert made == [("splu", b * d)] + [("lu_factor", k)] * b

    def test_fine_grid_normal_steps_stay_linear(self, monkeypatch):
        # iso_R at d = 9999: one dense (d+1)^2 Jacobian alone would take
        # 800 MB.  The normal steps of the b runs asking in a round share one
        # factorization, as the level steps do: one splu of their tridiagonal
        # blocks stacked, of order b * d, and one LU of each run's (k+1)^2
        # capacitance matrix, nothing of order d on dense form.
        h = 1e-4
        spec = resolve_problem("iso_R").build(h_override=h)
        d = decision_indices(spec).size
        k = spec.lagrangian.n + spec.constraint.functional.n
        factors, per_round = [], []
        real_lu, real_steps = scipy.linalg.lu_factor, _NormalJacobian.steps

        def recording_splu(*args, **kwargs):
            lu = splu(*args, **kwargs)
            factors.append(("splu", lu.shape[0], lu.nnz))
            return lu

        def recording_lu(a, *args, **kwargs):
            factors.append(("lu_factor", a.shape[0], None))
            return real_lu(a, *args, **kwargs)

        def watched_steps(normals, rs, pins):
            before = len(factors)
            out = real_steps(normals, rs, pins)
            per_round.append((len(normals), factors[before:]))
            return out

        monkeypatch.setattr("deltavar.solver.splu", recording_splu)
        monkeypatch.setattr(scipy.linalg, "lu_factor", recording_lu)
        monkeypatch.setattr(_NormalJacobian, "steps", staticmethod(watched_steps))
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
        assert all(order % d == 0 if kind == "splu" else order <= k + 1
                   for kind, order, _ in factors)
        assert max(b for b, _ in per_round) > 1
        for b, made in per_round:
            assert [(kind, order) for kind, order, _ in made] == (
                [("splu", b * d)] + [("lu_factor", k + 1)] * b)
            assert made[0][2] <= 10 * (d + k) * b
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

    def test_abnormal_rays_come_back_once(self):
        # L and K are both Rayleigh quotients, so K's extremals are rays.  Six
        # of these restarts land on the ray of x(3/4), at six amplitudes;
        # deduplicated as points rather than rays they were six extremals.
        spec = resolve_problem(str(PROBLEMS / "abnormal_rays.dvp")).build()
        pts = solve_isoperimetric(spec, SolveOptions(restarts=16, seed=0))
        assert [(p.lam0, p.lam, p.basin_count) for p in pts] == [(0.0, 1.0, 6)]
        assert pts[0].value == pytest.approx(32.0, rel=1e-12)
        x = pts[0].trajectory.x
        np.testing.assert_allclose(np.abs(x) / np.linalg.norm(x), [0, 0, 0, 1, 0], atol=1e-12)

    def test_normal_rays_pin_their_norm(self):
        # L and K are both Rayleigh quotients, and no single-sample ray lies on
        # K = 0.4: the extremals are normal rays.  Normal runs that did not pin
        # ||z|| slid along them, and this solve raised ConstraintInfeasible.
        spec = resolve_problem(str(PROBLEMS / "normal_rays.dvp")).build()
        pts = solve_isoperimetric(spec, SolveOptions(restarts=16, seed=0))
        assert [p.lam0 for p in pts] == [1.0, 1.0]
        assert [p.value for p in pts] == pytest.approx([13.8980664016, 50.1019335984], abs=1e-9)
        assert [p.lam for p in pts] == pytest.approx([67.8822509939, -67.8822509939], abs=1e-9)
        L, K = spec.lagrangian, spec.constraint.functional
        k_spec = dataclasses.replace(spec, lagrangian=K, constraint=None)
        for p in pts:
            # Stationary by central differences, at every amplitude of the ray.
            for c in (1.0, -3.0):
                tr = Trajectory(spec.ts, c * p.trajectory.x)
                assert value(K, tr) == pytest.approx(0.4, abs=1e-12)
                gL, gK = fd_gradient(spec, tr), fd_gradient(k_spec, tr)
                assert np.abs(gL - p.lam * gK).max() <= 1e-6 * (1.0 + np.abs(gL).max())
        # L sampled on the level set, by bisection of K along random
        # segments, stays between the two points and comes within 1% of each.
        rng, samples = np.random.default_rng(0), []
        for a, b in rng.standard_normal((300, 2, 3)):
            def defect(s):
                return value(K, euler_lagrange.embed_decision(spec, a + s * (b - a))) - 0.4
            lo, hi = 0.0, 1.0
            if defect(lo) * defect(hi) > 0.0:
                continue
            for _ in range(45):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if (defect(mid) > 0.0) == (defect(lo) > 0.0) else (lo, mid)
            samples.append(value(L, euler_lagrange.embed_decision(spec, a + lo * (b - a))))
        assert pts[0].value - 1e-9 <= min(samples) <= 1.01 * pts[0].value
        assert 0.99 * pts[1].value <= max(samples) <= pts[1].value + 1e-9

    def test_level_step_is_the_least_squares_step(self):
        # Two square solves with H give the least-squares step of [H; g^T],
        # on the dense form at d = 7 and by block elimination at d = 250.
        rng = np.random.default_rng(3)
        for d in (7, 250):
            H = _Hessian(rng.uniform(2.0, 4.0, d), rng.uniform(-1.0, 1.0, d - 1),
                         rng.standard_normal((2, d)), np.diag([0.5, -0.3]))
            g = rng.standard_normal(d)
            r = np.append(g, 0.7)
            stacked = np.vstack([H.dense(np.zeros((d, 0))), g])
            want = np.linalg.lstsq(stacked, -r, rcond=None)[0]
            level = _LevelJacobian(H, g)
            step = _LevelJacobian.steps([level], [r], [np.zeros((d, 0))])[0]
            np.testing.assert_allclose(step, want, rtol=1e-10, atol=1e-12)
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
        -100.0, decision_mass(spec), gK[:, None] / np.linalg.norm(gK)) == below
    point = StationaryPoint(tr, np.zeros(2), 0.0, 0.0, lam0=1.0, lam=lam)
    assert classify(spec, point) == dense_label(spec, hess, gK)[0] == label


def tridiagonal(hess):
    """The tridiagonal block T of a structured Hessian, as a dense array."""
    return np.diag(hess.diag) + np.diag(hess.off, 1) + np.diag(hess.off, -1)


def solved(systems, F):
    """Block elimination of the systems (H, B) as one batch, row i of F the right-hand
    side of system i: each row's [x; nu], None where the row declines."""
    V, ok = solver._block_factor(*zip(*systems))(F)
    return [v if accepted else None for v, accepted in zip(V, ok)]


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
        plain = np.zeros((fd.shape[0], 0))
        assert np.abs(_hessian(spec, tr, lam0, lam).dense(plain) - fd).max() <= tol

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
        assert np.abs(hess.dense(np.zeros((dense.shape[0], 0))) - dense).max() <= 1e-12 * size
        # A fixed extra input: tridiag(0, 1) of odd order is singular, so its
        # tridiagonal block cannot be factored alone; the rank-one outer term
        # e1 e1^T (not orthogonal to the null vector (1, 0, -1, 0, ...)) makes
        # H nonsingular.
        singular = _Hessian(np.zeros(7), np.ones(6), np.eye(7)[:1], np.ones((1, 1)))
        for B in (np.zeros((7, 0)), np.linspace(1.0, 2.0, 7)[:, None]):
            assert solved([(singular, B)], np.ones((1, 7 + B.shape[1]))) == [None]
        cases = [
            (hess, dense, border, size, rng.standard_normal(dense.shape[0]),
             rng.standard_normal()),
            (singular, singular.dense(np.zeros((7, 0))), np.linspace(1.0, 2.0, 7), 2.0,
             np.arange(7.0) - 2.0, 0.5),
        ]
        # The pinned normal step borders by [-grad K, z] with the iterate z;
        # beside the sphere border's iterate, z is a random direction.
        pins = [tr.x[decision_indices(spec)] if constrained
                else rng.standard_normal(dense.shape[0]), np.cos(np.arange(7.0))]
        for (op, plain, b, size, rhs, last), z in zip(cases, pins):
            n = rhs.size
            # Borders of every width: none (the plain step), one column (the
            # sphere step, or the normal step's -grad K) and two (the pinned
            # normal step).
            for B in (np.zeros((n, 0)), b[:, None], np.column_stack([-b, z])):
                m = B.shape[1]
                matrix = np.block([[plain, B], [B.T, np.zeros((m, m))]])
                np.testing.assert_array_equal(op.dense(B), np.block(
                    [[op.dense(B[:, :0]), B], [B.T, np.zeros((m, m))]]))
                # Compare only where rounding at that scale cannot move the solution.
                scale = size + np.abs(B).max(initial=0.0)
                if scale >= 1e6 * np.linalg.svd(matrix, compute_uv=False).min():
                    continue
                # A zero last right-hand side (the pinned steps) and a nonzero
                # first entry (the normal step's constraint row).
                for tail in (np.zeros(m), np.append(last, np.zeros(m))[:m]):
                    full_rhs = np.append(rhs, tail)
                    want = np.linalg.solve(matrix, full_rhs)
                    tol = 1e-7 * np.linalg.norm(want)  # the border's multipliers included
                    # Block elimination gives the dense solution, the border's
                    # multipliers included, and declines no system whose
                    # tridiagonal block T is conditioned as well: it factors T.
                    got, = solved([(op, B)], full_rhs[None])
                    if scale < 1e6 * np.linalg.svd(tridiagonal(op), compute_uv=False).min():
                        assert got is not None
                    if got is not None:
                        assert np.linalg.norm(got - want) <= tol
                    # The Newton solves and steps always do, whether they start
                    # from the structured solve (limit 0) or step on the dense form.
                    for limit in (0, solver.DENSE_NEWTON_LIMIT):
                        with mock.patch.object(solver, "DENSE_NEWTON_LIMIT", limit):
                            got = solver._newton_solver([op], [B])(full_rhs[None])[0]
                            assert np.linalg.norm(got - want) <= tol
                            if not tail.any():
                                step = _Hessian.steps([op], [-rhs], [B])[0]
                                assert np.linalg.norm(step - want[:n]) <= tol
                            if m:
                                # The normal step against the dense Newton step
                                # of the residual [grad L - lam b; k - K], whose
                                # Jacobian in (z, lam) is bordered by B's first
                                # column b = -grad K; the other columns pin z.
                                normal = _NormalJacobian(op, B[:, 0])
                                pin = np.vstack([B[:, 1:], np.zeros((1, m - 1))])
                                r = -full_rhs[: n + 1]
                                step = _NormalJacobian.steps([normal], [r], [pin])[0]
                                assert np.linalg.norm(step - want[: n + 1]) <= tol
                                # J^T r for the damped gradient step.
                                jac, r = matrix[: n + 1, : n + 1], full_rhs[: n + 1]
                                atol = 1e-12 * scale * np.abs(r).sum()
                                assert np.abs(normal.rmatvec(r) - jac.T @ r).max() <= atol
        # One more input: the drawn system solved in one batch with a random
        # system of its sizes, at every border width, and again with a third
        # whose T = 0 is exactly singular.  Every row keeps the bits of its
        # batch of one, so no row meets another's factors; the singular row
        # declines alone, and the others meet the dense solution as above.
        d, k = hess.diag.size, hess.C.shape[0]
        C = rng.standard_normal((k, k))
        batch = [hess, _Hessian(rng.uniform(-4.0, 4.0, d), rng.uniform(-1.0, 1.0, d - 1),
                                rng.standard_normal((k, d)), C + C.T),
                 _Hessian(np.zeros(d), np.zeros(d - 1), hess.U, hess.C)]
        sizes = [size] + [np.abs(op.diag).max() + np.abs(op.off).max(initial=0.0)
                          + (np.abs(op.U).T @ np.abs(op.C) @ np.abs(op.U)).max()
                          for op in batch[1:]]
        for m in range(3):
            borders = [np.column_stack([border, pins[0]])[:, :m],
                       *rng.standard_normal((2, d, m))]
            F = rng.standard_normal((3, d + m))
            for rows in (2, 3):
                answers = solved(list(zip(batch, borders))[:rows], F[:rows])
                assert rows == 2 or answers[2] is None
                for op, B, f, size, got in zip(batch, borders, F, sizes, answers):
                    alone, = solved([(op, B)], f[None])
                    assert (got is None) == (alone is None)
                    if got is not None:
                        np.testing.assert_array_equal(got, alone)
                    matrix = op.dense(B)
                    scale = size + np.abs(B).max(initial=0.0)
                    if scale >= 1e6 * np.linalg.svd(matrix, compute_uv=False).min():
                        continue
                    want = np.linalg.solve(matrix, f)
                    if scale < 1e6 * np.linalg.svd(tridiagonal(op), compute_uv=False).min():
                        assert got is not None
                    if got is not None:
                        assert np.linalg.norm(got - want) <= 1e-7 * np.linalg.norm(want)

    # sturm_liouville is scale invariant, so its steps take the sphere border.
    @pytest.mark.parametrize("problem", ["quotient2_R", "sturm_liouville"])
    def test_fine_grid_factors_stay_linear(self, monkeypatch, problem):
        # d = 9999: a dense Hessian alone would take 800 MB, and a sparse LU
        # of the arrowhead system [[T, U^T C], [U, -I]] fills in to about
        # d^2 / 2 entries; the tridiagonal blocks T alone stay banded, also
        # stacked down one diagonal for the b runs of a round.
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
        # splu factors the rounds' order-d tridiagonal blocks and nothing else.
        assert all(order % d == 0 for order, _ in factors)
        assert max(order for order, _ in factors) > d
        assert max(nnz / (order // d) for order, nnz in factors) <= 10 * (d + k)

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

    def test_fine_grid_declined_row_forms_no_dense_system(self, monkeypatch):
        # sturm_liouville at h = 2e-5 (d = 49,999): one block-elimination row
        # declines at a Rayleigh-quotient solution, where T = stiffness -
        # lam * mass is nearly singular.  Above DENSE_FALLBACK_LIMIT its step
        # is NaN and its run takes the damped gradient step; no dense form is
        # built (it would take 18.6 GiB).  The points are the grid's first two
        # pencil eigenvalues, (4 / h^2) sin^2(k pi h / 2).
        h, declined = 2e-5, []
        real_dense, real_block = _Hessian.dense, solver._block_factor

        def guarded_dense(H, B):
            if H.diag.size > solver.DENSE_FALLBACK_LIMIT:
                raise AssertionError(f"dense form of order {H.diag.size}")
            return real_dense(H, B)

        def watched_block(hessians, borders):
            solve = real_block(hessians, borders)

            def watched_solve(F):
                V, ok = solve(F)
                declined.append(int(np.count_nonzero(~ok)))
                return V, ok

            return watched_solve

        monkeypatch.setattr(_Hessian, "dense", guarded_dense)
        monkeypatch.setattr(solver, "_block_factor", watched_block)
        spec = resolve_problem("sturm_liouville").build(h_override=h)
        assert decision_indices(spec).size > solver.DENSE_FALLBACK_LIMIT >= 999
        pts = solve_unconstrained(spec, SolveOptions(restarts=4, seed=0))
        assert sum(declined) > 0
        want = [4.0 / h**2 * np.sin(k * np.pi * h / 2.0) ** 2 for k in (1, 2)]
        assert [p.value for p in pts] == pytest.approx(want, rel=1e-9)


def reference_dense_solve(M, f):
    """_dense_solver's answer through scipy's lu_factor wrapper, with no closed form."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(M, check_finite=False)
    rcond, info = lapack.dgecon(lu, np.abs(M).sum(axis=0).max(), norm="1")
    if info == 0 and rcond > solver.RCOND_LIMIT:
        return lapack.dgetrs(lu, piv, f)[0]
    return scipy.linalg.lstsq(M, f, cond=1e-10, lapack_driver="gelsy", check_finite=False)[0]


class TestDenseSolver:
    # _dense_solver calls LAPACK's dgetrf itself and solves 1x1 systems in
    # closed form; both give the bits of the lu_factor route.
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.booleans(),
           st.sampled_from([0, -300, 300]))
    def test_matches_the_lu_factor_route(self, seed, n, deficient, exponent):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n))
        if deficient:  # rank r < n: the rcond gate sends it to least squares
            r = int(rng.integers(0, n))
            M = rng.standard_normal((n, r)) @ rng.standard_normal((r, n))
        M *= 10.0**exponent
        for f in (rng.standard_normal(n), np.zeros(n)):
            assert solver._dense_solver(M)(f).tobytes() == reference_dense_solve(M, f).tobytes()

    @pytest.mark.parametrize("a", [0.0, -0.0, 5e-324, -2e-310, np.inf, -np.inf, np.nan,
                                   3.0, -1e-300, 1e300])
    def test_one_by_one_systems_match_the_lu_factor_route(self, a):
        M = np.array([[a]])
        for f in (1.5, -2.0, 0.0, -0.0):
            got = solver._dense_solver(M)(np.array([f]))
            assert got.tobytes() == reference_dense_solve(M, np.array([f])).tobytes()

    def test_factor_holds_one_copy_of_the_matrix(self):
        # The LU factors are M's one copy: the 1-norm's |M| temporary is gone
        # before dgetrf copies M (both at once peaked at 2x M).
        n = 600
        M = np.random.default_rng(0).standard_normal((n, n)) + n * np.eye(n)
        tracemalloc.start()
        try:
            solve = solver._dense_solver(M)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * M.nbytes
        f = np.ones(n)
        assert solve(f).tobytes() == reference_dense_solve(M, f).tobytes()


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
            B = np.zeros((n, 0)) if g is None else g[:, None]
            assert hess.diag.size - B.shape[1] == eigs.size
            for s in (-1.0, -1e-3, 0.0, 0.5, 2.0):
                if np.min(np.abs(eigs - s)) < 1e-8:
                    continue
                assert hess.count_below(s, mass, B) == np.count_nonzero(eigs < s)

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


class TestLockstep:
    """Restarts advance as one batch per round, as if each ran alone."""

    FIXTURES = ["iso_3pt", "iso_R", "product_3pt", "product_R", "quotient1",
                "quotient2_3pt", "quotient2_R", "sturm_liouville"]
    # Each on its own grid, with 16 restarts: 64 take 1.7-5 s on the first two.  At seed 0
    # some brachistochrone batches fail mid-solve, in their sampling pass (sqrt(y), y < 0).
    PROBLEM_FILES = ["abnormal_line", "abnormal_rays", "normal_rays", "brachistochrone"]

    @pytest.mark.parametrize("seed", [0, 3])
    def test_groups_of_one_give_the_same_output(self, monkeypatch, capsys, tmp_path, seed):
        # With a batch budget of one sample every group holds one run.  The
        # rows of every system are seen: plain, level and normal.
        from deltavar.cli import main

        rows, real, solving = [], solver._gradient_system, [None]

        def watched(spec, level=None):
            evaluate, row = real(spec, level)
            normal = spec.constraint is not None
            return lambda Z: rows.append((*solving[0], normal, len(Z))) or evaluate(Z), row

        monkeypatch.setattr(solver, "_gradient_system", watched)
        out, path, default = {}, tmp_path / "out.json", solver._BATCH_SAMPLES
        cases = [(name, ["--restarts", "64", "--h-override", "1e-2"]) for name in self.FIXTURES] + [
            (str(PROBLEMS / f"{name}.dvp"), ["--restarts", "16"]) for name in self.PROBLEM_FILES]
        for budget in (default, 1):
            monkeypatch.setattr(solver, "_BATCH_SAMPLES", budget)
            for name, argv in cases:
                solving[0] = budget, name
                path.unlink(missing_ok=True)
                code = main(["solve", name, "--seed", str(seed), *argv, "--json", str(path)])
                text = path.read_bytes() if path.exists() else None
                out[budget, name] = code, capsys.readouterr(), text
        assert max(n for budget, *_, n in rows if budget == default) == 64
        assert max(n for budget, *_, n in rows if budget == 1) == 1
        # iso_R's normal runs advance together.
        assert max(n for budget, name, normal, n in rows
                   if budget == default and name == "iso_R" and normal) > 1
        for name, _ in cases:
            assert out[default, name] == out[1, name], name


class TestFailingBatches:
    """A failing lockstep batch is answered as two halves, recursively, so only the rows near
    a failing one are evaluated alone, once each."""

    @staticmethod
    def lone_fills(monkeypatch, problem, opts, h=None):
        """The rows that the evaluation of one solve filled one at a time."""
        lone, real = [], solver._fill_partials

        def counting(F, trs, b=None):
            if len(trs) == 1:
                lone.append(trs[0].x)
            return real(F, trs, b)

        monkeypatch.setattr(solver, "_fill_partials", counting)
        spec = resolve_problem(problem).build(h_override=h)
        solve_unconstrained(spec, opts)
        return spec, lone

    def test_one_failing_start_fills_two_rows_alone(self, monkeypatch):
        # Restart 0 starts at x = 0, where the Rayleigh quotient's denominator vanishes: the
        # round of the 64 starts fails.  Its halves locate that row with two lone fills, where
        # answering each row again alone made 64.
        opts = SolveOptions(restarts=64, seed=0)
        spec, lone = self.lone_fills(monkeypatch, "sturm_liouville", opts, h=1e-2)
        starts = {solver._initial_decision(spec, opts, r).tobytes() for r in range(64)}
        idx = decision_indices(spec)
        assert 1 <= sum(x[idx].tobytes() in starts for x in lone) <= 2

    @pytest.mark.parametrize("seed, most", [(0, 160), (1, 100)])
    def test_failing_steps_keep_their_batches(self, monkeypatch, seed, most):
        # Newton steps to y < 0 fail the sampling pass of sqrt(y) mid-solve (27 failing batches
        # at seed 0, 11 at seed 1).  Answering each row of them alone made 318 and 251 lone
        # fills; halving makes 142 and 79.
        _, lone = self.lone_fills(monkeypatch, str(PROBLEMS / "brachistochrone.dvp"),
                                  SolveOptions(restarts=64, seed=seed))
        assert len(lone) < most

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("problem", ["normal_rays", "abnormal_rays"])
    def test_failing_start_row_raises_once(self, monkeypatch, problem, seed):
        # A normal start row that raises in its round's batch is found by halves and raises
        # once alone, which ends its run.  Handing that row on to the run raised it twice.  The
        # level system is not counted: the restoration and the abnormal branch are two phases.
        raised, real = Counter(), solver._gradient_system

        def watched(spec, level=None):
            evaluate, row = real(spec, level)

            def counting(W):
                try:
                    return evaluate(W)
                except solver._EVAL_ERRORS:
                    if len(W) == 1:
                        raised[np.asarray(W[0]).tobytes()] += 1
                    raise

            return (evaluate if spec.constraint is None else counting), row

        monkeypatch.setattr(solver, "_gradient_system", watched)
        spec = resolve_problem(str(PROBLEMS / f"{problem}.dvp")).build()
        solve_isoperimetric(spec, SolveOptions(restarts=64, seed=seed))
        assert raised and max(raised.values()) == 1


class TestRoundScope:
    """Batch rows are views, so nothing of a lockstep round may outlive it: a run keeps only its
    iterate, residual and Jacobian, and the (B, N) arrays its trajectories view die with it."""

    @pytest.mark.parametrize("problem, fail_restored", [
        ("sturm_liouville", False),  # restart 0 dies on a vanishing denominator
        ("iso_R", False),  # every restart is restored onto K = k
        ("iso_R", True),  # every restored run fails, so every restart falls back to z0
    ])
    def test_no_batch_outlives_the_next_round(self, monkeypatch, problem, fail_restored):
        spec = resolve_problem(problem).build(h_override=1e-2)
        opts = SolveOptions(restarts=8, seed=0)
        inits = {solver._initial_decision(spec, opts, r).tobytes() for r in range(opts.restarts)}
        batches = []  # (round, weak references to the batch's (B, N) arrays)
        # The evaluate functions called in this round; None after a Newton round, so that the
        # next evaluation starts a new round.  "retry" counts the halves of a failed
        # evaluation of more than one row, each evaluated again in its round.
        state = {"round": 0, "called": [], "retry": 0}
        evaluations = set()
        restart = _restart_tags(monkeypatch)  # [the restart being advanced]
        starts, solved = [], []  # per Newton run (restart, starts at z0); the runs given _points
        real_system, real_answers = solver._gradient_system, solver._answers
        real_points, real_rows, real_run = solver._points, Trajectory._rows.__func__, solver._run_newton

        def new_round():
            state["round"] += 1
            alive = [(r, refs) for r, refs in batches if any(ref() is not None for ref in refs)]
            assert [r for r, _ in alive if r <= state["round"] - 2] == []
            if state["called"] is None:  # the Jacobians and steps are made: no run needs a row
                assert [r for r, _ in alive] == []
            batches[:] = alive

        def system(gspec, level=None):
            evaluate, row = real_system(gspec, level)

            def watched(W):
                retry = state["retry"] > 0
                if retry:
                    state["retry"] -= 1
                elif state["called"] is None or evaluate in state["called"]:
                    new_round()
                    state["called"] = []
                state["called"].append(evaluate)
                try:
                    return evaluate(W)
                except solver._EVAL_ERRORS:
                    state["retry"] += 2 if len(W) > 1 else 0
                    raise

            evaluations.add(watched)
            return watched, row

        def answers(answer, keys):
            if answer not in evaluations:  # a Newton round: only this round's rows are needed
                state["called"] = None
                assert [r for r, refs in batches if r < state["round"]
                        and any(ref() is not None for ref in refs)] == []
            return real_answers(answer, keys)

        def rows(cls, ts, X):  # X is _embedded's (B, N) array; the rows view it and y and v
            trs, b = real_rows(cls, ts, X)
            batches.append((state["round"], [weakref.ref(a) for a in (X, b["y"].base, b["v"])]))
            return trs, b

        def failing_restored(w0, *args):
            starts.append((restart[0], w0[:-1].tobytes() in inits))
            if not starts[-1][1]:
                return solver._NewtonResult(w0, np.full_like(w0, np.inf), False, 0)
            # args holds the first residual's row, a view of its batch: the run alone keeps it
            run, args = real_run(w0, *args), None
            return (yield from run)

        def points(gspec, runs, *args, **kwargs):
            solved.append(runs)
            return real_points(gspec, runs, *args, **kwargs)

        monkeypatch.setattr(solver, "_gradient_system", system)
        monkeypatch.setattr(solver, "_answers", answers)
        monkeypatch.setattr(solver, "_points", points)
        monkeypatch.setattr(Trajectory, "_rows", classmethod(rows))
        if fail_restored:
            monkeypatch.setattr(solver, "_run_newton", failing_restored)
        solve = solve_unconstrained if spec.constraint is None else solve_isoperimetric
        assert solve(spec, opts) and state["round"] >= 4 and state["retry"] == 0
        new_round()
        assert not batches  # none outlives the solve
        if problem == "sturm_liouville":
            assert solved[0][0].failure is DenominatorVanished
        assert [[at_z0 for k, at_z0 in starts if k == r] for r in range(opts.restarts)] == (
            [[False, True] if fail_restored else []] * opts.restarts)


def _restart_tags(monkeypatch):
    """A list whose one item names, during a solve, the run of _lockstep being advanced (its
    index among that _lockstep's runs), so a restart's Newton runs can be told apart."""
    current, real = [None], solver._lockstep

    def tagged(k, run):
        answer = None
        while True:
            current[0] = k
            try:
                send = run.throw if isinstance(answer, Exception) else run.send
                request, answer = send(answer), None
            except StopIteration as stop:
                return stop.value
            try:
                answer = yield request
            except solver._EVAL_ERRORS as exc:  # an evaluation error, thrown on into the run
                answer = exc

    monkeypatch.setattr(solver, "_lockstep", lambda runs, *args: real(
        map(tagged, itertools.count(), runs), *args))
    return current


def _recorded_runs(monkeypatch, problem, h, opts):
    """The points of one solve and every Newton run it made, in order of start."""
    runs, run_newton = [], solver._run_newton

    def recording(*args, **kwargs):
        k = len(runs)
        runs.append(None)
        runs[k] = yield from run_newton(*args, **kwargs)
        return runs[k]

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
        # 3,218 residual evaluations before the rule, 1,826 with it, counted
        # as evaluated rows of the lockstep batches.
        count, real = [0], solver._gradient_system

        def counting(spec, level=None):
            evaluate, row = real(spec, level)

            def counted(Z):
                count[0] += len(Z)
                return evaluate(Z)

            return counted, row

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
        runs, real, restart = [], solver._run_newton, _restart_tags(monkeypatch)

        def failing_restored(w0, *args):
            runs.append((restart[0], w0[:-1].tobytes() == inits[restart[0]]))
            if not runs[-1][1]:
                return solver._NewtonResult(w0, np.full_like(w0, np.inf), False, 0)
            return (yield from real(w0, *args))

        monkeypatch.setattr(solver, "_run_newton", failing_restored)
        fallback = solve_isoperimetric(spec, opts)
        # Each restart runs from its restored start, then from its own z0.
        assert [[at_z0 for k, at_z0 in runs if k == r] for r in range(opts.restarts)] == [
            [False, True]] * opts.restarts
        monkeypatch.setattr(solver, "_run_newton", real)
        monkeypatch.setattr(solver, "RESTORE_ITERS", 0)
        unrestored = solve_isoperimetric(spec, opts)
        assert [(p.value, p.lam, p.basin_count) for p in fallback] == [
            (p.value, p.lam, p.basin_count) for p in unrestored]

    def test_fallback_starts_share_one_batch(self, monkeypatch):
        # With every restored run failing, the restarts fall back to their z0
        # in the same round, so L's records at the 4 starts are one batch.
        spec = resolve_problem("iso_R").build(h_override=1e-2)
        opts = SolveOptions(restarts=4, seed=0)
        inits = [solver._initial_decision(spec, opts, r) for r in range(4)]
        starts = {euler_lagrange.embed_decision(spec, z).x.tobytes() for z in inits}
        fills, real_fill, real_run = [], euler_lagrange._fill_partials, solver._run_newton

        def counting(F, trs, *bindings):
            if F is spec.lagrangian:
                fills.append(sum(tr.x.tobytes() in starts for tr in trs))
            return real_fill(F, trs, *bindings)

        def failing_restored(w0, *args):
            if not any(np.array_equal(w0[:-1], z) for z in inits):
                return solver._NewtonResult(w0, np.full_like(w0, np.inf), False, 0)
            return (yield from real_run(w0, *args))

        monkeypatch.setattr(euler_lagrange, "_fill_partials", counting)
        monkeypatch.setattr(solver, "_fill_partials", counting)
        monkeypatch.setattr(solver, "_run_newton", failing_restored)
        solve_isoperimetric(spec, opts)
        assert [n for n in fills if n] == [4]

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
