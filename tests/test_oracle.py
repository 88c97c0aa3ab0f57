import dataclasses
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from conftest import graded_timescale, random_constraint, random_problem, random_timescale
from hypothesis import given, settings, strategies as st

from deltavar import (
    BoundarySpec,
    CompositeFunctional,
    DenominatorVanished,
    IsoConstraint,
    ProblemSpec,
    ScanBudgetExhausted,
    SolveOptions,
    TooManyDecisionVariables,
    embed_decision,
    fd_gradient,
    functional_gradient,
    make_timescale,
    quadratic_form_matrix,
    rayleigh_pencil,
    scan_low_dim,
    solve_unconstrained,
    value,
)
from deltavar import oracle
from deltavar.cli import resolve_problem
from deltavar.euler_lagrange import decision_indices
from deltavar.expr import DivisionByZero, DomainError
from deltavar.oracle import BISECTION_TOL, ScanReport, _values, inner_integral_form

THREE_PT = make_timescale("points", values=[0, 0.5, 1])
PROBLEMS = Path(__file__).parent / "problems"
EVAL_ERRORS = (DenominatorVanished, DomainError, DivisionByZero)


def per_point_value(F, spec, z):
    """value(F, embed_decision(spec, z)), NaN where it raises a typed evaluation error."""
    try:
        return value(F, embed_decision(spec, z))
    except EVAL_ERRORS:
        return np.nan


def reference_scan(spec, lo, hi, resolution, step=1e-6):
    """The 1-D scan evaluated point by point: one trajectory per value, one
    bisection at a time.  scan_low_dim must reproduce it bit for bit."""

    def field(w):
        if spec.constraint is not None:
            F, target = spec.constraint.functional, spec.constraint.target
            out = per_point_value(F, spec, [w]) - target
        else:
            F = spec.lagrangian
            vp, vm = per_point_value(F, spec, [w + step]), per_point_value(F, spec, [w - step])
            out = (vp - vm) / (2.0 * step)
        return out if np.isfinite(out) else np.nan

    def bisect(lo, hi):
        flo = field(lo)
        while hi - lo > BISECTION_TOL:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                break
            fmid = field(mid)
            if not np.isfinite(fmid):
                return None
            if fmid == 0.0:
                return mid
            if flo * fmid < 0:
                hi = mid
            else:
                lo, flo = mid, fmid
        return 0.5 * (lo + hi)

    grid = np.linspace(lo, hi, resolution)
    vals = np.array([field(w) for w in grid])
    brackets, roots = [], []
    for i in range(grid.size - 1):
        g0, g1 = vals[i], vals[i + 1]
        if not (np.isfinite(g0) and np.isfinite(g1)):
            continue
        if g0 == 0.0:
            brackets.append((float(grid[i]), float(grid[i])))
            roots.append(float(grid[i]))
        elif g0 * g1 < 0.0:
            root = bisect(float(grid[i]), float(grid[i + 1]))
            if root is not None:
                brackets.append((float(grid[i]), float(grid[i + 1])))
                roots.append(float(root))
    if np.isfinite(vals[-1]) and vals[-1] == 0.0:
        brackets.append((float(grid[-1]), float(grid[-1])))
        roots.append(float(grid[-1]))
    return grid, vals, tuple(brackets), tuple(roots)


def serial_bisect(spec, lo, hi, flo):
    """The 1-D scan's bisection with one field batch per step, at the open
    brackets' midpoints, which look-ahead replaced.  oracle._bisect must
    reproduce its roots bit for bit."""
    lo, hi, flo, roots = lo.copy(), hi.copy(), flo.copy(), np.full(lo.size, np.nan)
    open_ = np.arange(lo.size)
    while True:
        mid = 0.5 * (lo[open_] + hi[open_])
        done = (hi[open_] - lo[open_] <= BISECTION_TOL) | (mid == lo[open_]) | (mid == hi[open_])
        roots[open_[done]] = mid[done]
        open_, mid = open_[~done], mid[~done]
        if not open_.size:
            return roots
        fmid = oracle._field(spec, mid)
        roots[open_[fmid == 0.0]] = mid[fmid == 0.0]
        keep = np.isfinite(fmid) & (fmid != 0.0)
        left = keep & (flo[open_] * fmid < 0)
        right = keep & ~left
        hi[open_[left]] = mid[left]
        lo[open_[right]], flo[open_[right]] = mid[right], fmid[right]
        open_ = open_[keep]


def random_integrand_text(rng, depth=3):
    """A random integrand over t, y, v that can use every operator and function."""
    if depth == 0 or rng.random() < 0.25:
        if rng.random() < 0.8:
            return str(rng.choice(["t", "y", "v"]))
        return repr(round(float(rng.uniform(-2.0, 2.0)), 3))
    arg = random_integrand_text(rng, depth - 1)
    kind = int(rng.integers(0, 4))
    if kind == 0:
        op = str(rng.choice(["+", "-", "*", "/"]))
        return f"({arg}) {op} ({random_integrand_text(rng, depth - 1)})"
    if kind == 1:
        return f"({arg})^{int(rng.integers(2, 6))}"
    if kind == 2:
        return f"{rng.choice(['sin', 'cos', 'exp', 'log', 'sqrt'])}({arg})"
    return f"-({arg})"


class TestBatchedValues:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["objective", "constraint", "any_function"]),
           st.booleans())
    def test_rows_match_per_point_values_bit_for_bit(self, seed, which, graded):
        # Graded scales, free ends and constraint functionals; the last kind
        # uses every function, so some rows raise in the integrand pass and
        # a failing batch is evaluated as two halves, recursively, down to them.
        rng = np.random.default_rng(seed)
        spec, tr = random_problem(rng, ts=graded_timescale(rng) if graded else None)
        F = spec.lagrangian
        if which == "constraint":
            F = random_constraint(rng).functional
        elif which == "any_function":
            n = int(rng.integers(1, 3))
            F = CompositeFunctional.from_strings(
                [random_integrand_text(rng) for _ in range(n)], "u1 / u2" if n == 2 else "u1")
        d = decision_indices(spec).size
        Z = np.concatenate([
            tr.x[decision_indices(spec)][None],
            rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 12)), d)),
            np.zeros((1, d)),
        ])
        want = np.array([per_point_value(F, spec, z) for z in Z])
        got = _values(spec, F, Z)
        assert np.where(np.isnan(got), np.nan, got).tobytes() == (
            np.where(np.isnan(want), np.nan, want).tobytes())
        # Strict: the first row that raises alone raises the same there.  A
        # NaN row need not raise (an outer map inf/inf is NaN).
        expected = None
        for z in Z:
            try:
                value(F, embed_decision(spec, z))
            except EVAL_ERRORS as exc:
                expected = (type(exc), str(exc))
                break
        try:
            _values(spec, F, Z, strict=True)
            raised = None
        except EVAL_ERRORS as exc:
            raised = (type(exc), str(exc))
        assert raised == expected

    @pytest.mark.parametrize("budget", [None, 40])
    def test_failing_rows_are_found_by_halves(self, monkeypatch, budget):
        # Rows 0, 17 and 40 of 41 raise alone: a denominator vanishing (v = 0 everywhere)
        # and sqrt of a negative y twice.  With a budget of 40 samples a batch holds 4
        # rows, so the halving also splits the rows into batches.  Every value comes from
        # the batch path, and at most two rows per failing one are evaluated alone.
        if budget is not None:
            monkeypatch.setattr("deltavar.oracle._BATCH_SAMPLES", budget)
        batches, real = [], oracle._samples
        monkeypatch.setattr(oracle, "_samples", lambda exprs, b: batches.append(len(b["y"]))
                            or real(exprs, b))
        monkeypatch.setattr(oracle, "value", None)
        ts = make_timescale("uniform", a=0, b=1, h=0.1)
        F = CompositeFunctional.from_strings(["sqrt(y) * v^2", "v^2"], "u1 / u2")
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(1.0, 1.0))
        Z = np.random.default_rng(3).uniform(0.5, 2.0, size=(41, 9))
        Z[0], Z[17, 4], Z[40, 8] = 1.0, -0.25, -1.0
        errors = {}
        for i, z in enumerate(Z):
            try:
                value(F, embed_decision(spec, z))
            except EVAL_ERRORS as exc:
                errors[i] = (type(exc), str(exc))
        assert sorted(errors) == [0, 17, 40] and errors[0][0] is DenominatorVanished
        got = _values(spec, F, Z)
        assert np.flatnonzero(np.isnan(got)).tolist() == [0, 17, 40]
        ok = np.setdiff1d(np.arange(len(Z)), [0, 17, 40])
        want = np.array([value(F, embed_decision(spec, Z[i])) for i in ok])
        assert got[ok].tobytes() == want.tobytes() and batches.count(1) <= 6
        with pytest.raises(EVAL_ERRORS) as raised:
            _values(spec, F, Z, strict=True)
        assert (type(raised.value), str(raised.value)) == errors[0]
        with pytest.raises(EVAL_ERRORS) as raised:
            _values(spec, F, Z[1:], strict=True)
        assert (type(raised.value), str(raised.value)) == errors[17]

    def test_batches_split_long_inputs(self, monkeypatch):
        # Rows beyond one batch's samples give the same bits as one batch.
        spec = resolve_problem("quotient2_3pt").build()
        Z = np.linspace(-3.0, 3.0, 101)[:, None]
        whole = _values(spec, spec.lagrangian, Z)
        monkeypatch.setattr("deltavar.oracle._BATCH_SAMPLES", 10)
        assert _values(spec, spec.lagrangian, Z).tobytes() == whole.tobytes()


def product_spec(ts=THREE_PT):
    F = CompositeFunctional.from_strings(["v^2", "t*v"], "u1 * u2")
    return ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 1))


def quotient2_spec(ts=THREE_PT):
    F = CompositeFunctional.from_strings(["t*v", "v^2"], "u1 / u2")
    return ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 1))


class TestFdGradient:
    def test_matches_exact_gradient_on_random_specs(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            spec, tr = random_problem(rng)
            fd = fd_gradient(spec, tr, 1e-6)
            exact = functional_gradient(spec, tr)
            scale = 1 + float(np.max(np.abs(exact)))
            assert np.all(np.abs(fd - exact) <= 1e-6 * scale)

    def test_time_only_integrand_has_zero_gradient(self):
        ts = make_timescale("uniform", a=0, b=1, h=0.25)
        F = CompositeFunctional.from_strings(["t"], "u1")
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 1))
        tr = embed_decision(spec, [0.3, 0.1, -0.2])
        assert np.max(np.abs(fd_gradient(spec, tr, 1e-6))) <= 1e-10

    def test_product_fixture_polynomial_value(self):
        spec = product_spec()
        tr = embed_decision(spec, [0.5])
        g = fd_gradient(spec, tr, 1e-6)
        # d/dw [(w^2 + (1-w)^2) * (1-w)] at w = 1/2 equals -1/2.
        assert g[0] == pytest.approx(-0.5, abs=1e-8)

    def test_step_validation(self):
        spec = product_spec()
        with pytest.raises(ValueError):
            fd_gradient(spec, embed_decision(spec, [0.5]), step=0.0)

    def test_step_robustness(self):
        rng = np.random.default_rng(12)
        spec, tr = random_problem(rng, allow_free_ends=False)
        grads = [fd_gradient(spec, tr, s) for s in (1e-5, 1e-6, 1e-7)]
        scale = 1 + float(np.max(np.abs(grads[1])))
        for g in grads:
            assert np.all(np.abs(g - grads[1]) <= 1e-6 * scale)


class TestScanLowDim:
    def test_product_three_point_no_roots(self):
        report = scan_low_dim(product_spec(), [(-10.0, 10.0)], resolution=401)
        assert isinstance(report, ScanReport)
        assert not report.has_roots
        assert report.brackets == ()

    def test_quotient2_three_point_roots(self):
        report = scan_low_dim(quotient2_spec(), [(-10.0, 10.0)], resolution=401)
        roots = sorted(report.roots)
        assert len(roots) == 2
        assert roots[0] == pytest.approx((2 - np.sqrt(2)) / 2, abs=1e-10)
        assert roots[1] == pytest.approx((2 + np.sqrt(2)) / 2, abs=1e-10)

    def test_range_whose_width_overflows_is_rejected(self):
        # Its grid would start at nan (linspace forms hi - lo).
        with pytest.raises(ValueError, match="finite width"):
            scan_low_dim(quotient2_spec(), [(-1e308, 1e308)], resolution=5)

    def test_overflowing_difference_quotients_warn_nowhere(self):
        # Samples near the largest float: the delta derivative of the
        # embedded trajectory and of the batched values overflow to inf, as
        # a value's delta integral does, and the scan still runs (the suite
        # turns a RuntimeWarning into an error).
        report = scan_low_dim(quotient2_spec(), [(-1e308, 1e307)], resolution=5)
        assert report.grid[0] == -1e308 and report.grid[-1] == 1e307

    def test_far_range_has_no_zero_width_roots(self):
        # From |w| = 2^34 (1.7e10) on, w +- FD_STEP rounds to w: both values are equal and
        # the difference would be an exact 0, a root at every grid point.  The field is NaN.
        report = scan_low_dim(quotient2_spec(), [(-1e12, 1.1e12)], resolution=5)
        assert np.isnan(report.values).all() and not report.has_roots

    def test_roots_lie_in_brackets(self):
        report = scan_low_dim(quotient2_spec(), [(-10.0, 10.0)], resolution=401)
        for (lo, hi), root in zip(report.brackets, report.roots):
            assert lo <= root <= hi

    def test_constrained_scan_tracks_feasibility(self):
        L = CompositeFunctional.from_strings(["v^2", "t*v"], "u1 / u2")
        K = IsoConstraint(CompositeFunctional.from_strings(["t*v"], "u1"), 1.0)
        spec = ProblemSpec(
            ts=THREE_PT, lagrangian=L, bc=BoundarySpec.fixed(0, 1), constraint=K
        )
        report = scan_low_dim(spec, [(-10.0, 10.0)], resolution=201)
        assert report.field_name == "constraint defect"
        assert len(report.roots) == 1
        assert report.roots[0] == pytest.approx(-1.0, abs=1e-10)

    def test_too_many_decision_variables(self):
        ts = make_timescale("uniform", a=0, b=1, h=0.25)
        spec = ProblemSpec(
            ts=ts,
            lagrangian=CompositeFunctional.from_strings(["v^2"], "u1"),
            bc=BoundarySpec.fixed(0, 1),
        )
        with pytest.raises(TooManyDecisionVariables):
            scan_low_dim(spec, [(-1, 1)] * 3)

    def test_two_dimensional_scan_finds_candidate(self):
        # The pure-energy problem is stationary only at the linear
        # interpolant; its refined cells once came out as hundreds of copies.
        ts = make_timescale("points", values=[0.0, 0.4, 0.7, 1.0])
        F = CompositeFunctional.from_strings(["v^2"], "u1")
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 1))
        for resolution in (21, 31):
            boxes = scan_low_dim(spec, [(-1.0, 2.0), (-1.0, 2.0)], resolution=resolution)
            assert len(boxes) == 1
            (w0, w1), = boxes
            assert w0 == pytest.approx(0.4, abs=1e-6)
            assert w1 == pytest.approx(0.7, abs=1e-6)

    def test_two_dimensional_scan_reports_an_exhausted_budget(self):
        # The candidate cells grow 52 -> 578 over six levels; the scan once
        # returned 37 groups of cells 3e-3 wide, with gradients up to 1.1e3.
        rng = np.random.default_rng(0)
        for _ in range(8):
            ts = make_timescale("points", values=np.sort(rng.uniform(-1.0, 2.0, size=4)))
            spec, _ = random_problem(rng, allow_free_ends=False, ts=ts)
        assert str(spec.lagrangian.outer).startswith("1.319*u1")
        with pytest.raises(ScanBudgetExhausted) as info:
            scan_low_dim(spec, [(-2.0, 2.0), (-2.0, 2.0)], resolution=21)
        assert info.value.cells == 578
        assert info.value.width == pytest.approx(4.0 / 20 / 2**6)

    @pytest.mark.parametrize("problem", ["product_3pt", "quotient2_3pt", "iso_3pt"])
    @pytest.mark.parametrize("resolution", [201, 401])
    @pytest.mark.parametrize("lo, hi", [(-10.0, 10.0), (-1.0, 1.0)])
    def test_matches_per_point_reference(self, problem, resolution, lo, hi):
        spec = resolve_problem(problem).build()
        report = scan_low_dim(spec, [(lo, hi)], resolution=resolution)
        grid, vals, brackets, roots = reference_scan(spec, lo, hi, resolution)
        assert report.grid.tobytes() == grid.tobytes()
        assert report.values.tobytes() == vals.tobytes()
        assert report.brackets == brackets
        assert report.roots == roots

    def test_matches_reference_where_the_field_fails(self):
        # A quotient whose denominator vanishes at x(1/2) = 0 and 1: NaN
        # values split the grid, and the brackets next to them are dropped.
        spec = dataclasses.replace(
            quotient2_spec(),
            lagrangian=CompositeFunctional.from_strings(["t*v", "(y*(y - 1))^2"], "u1 / u2"),
        )
        report = scan_low_dim(spec, [(-2.0, 2.0)], resolution=41)
        grid, vals, brackets, roots = reference_scan(spec, -2.0, 2.0, 41)
        assert np.isnan(vals).any()
        assert report.values.tobytes() == vals.tobytes()
        assert (report.brackets, report.roots) == (brackets, roots)

    @pytest.mark.parametrize("constrained", [False, True])
    def test_lookahead_bisection_matches_serial_bisection(self, constrained, monkeypatch):
        # Random problems with one decision variable: the gradient field,
        # or the defect of a random constraint.
        rng = np.random.default_rng(7 + constrained)
        found = 0
        for _ in range(30):
            spec, _ = random_problem(rng, allow_free_ends=False, ts=random_timescale(rng, 3, 3))
            if constrained:
                spec = dataclasses.replace(spec, constraint=random_constraint(rng))
            report = scan_low_dim(spec, [(-3.0, 3.0)], resolution=41)
            with monkeypatch.context() as m:
                m.setattr(oracle, "_bisect", serial_bisect)
                serial = scan_low_dim(spec, [(-3.0, 3.0)], resolution=41)
            assert report.brackets == serial.brackets
            assert np.array(report.roots).tobytes() == np.array(serial.roots).tobytes()
            found += len(report.roots)
        assert found >= 30

    def test_lookahead_bisection_drops_a_bracket_at_a_failing_midpoint(self):
        # The field is positive for w < 0 and NaN at w = 0 and 1, where the
        # denominator vanishes.  Walking right from [-63, 1] meets w = 0 at
        # the sixth step, in the second field batch; [-1, 1] meets it at
        # once; [2, 6] walks left, and [1, 3] right, to roots at the ends.
        spec = dataclasses.replace(
            quotient2_spec(),
            lagrangian=CompositeFunctional.from_strings(["t*v", "(y*(y - 1))^2"], "u1 / u2"),
        )
        lo, hi = np.array([-63.0, -1.0, 2.0, 1.0]), np.array([1.0, 1.0, 6.0, 3.0])
        flo = np.array([1.0, 1.0, -1.0, 1.0])
        roots = oracle._bisect(spec, lo, hi, flo)
        assert roots.tobytes() == serial_bisect(spec, lo, hi, flo).tobytes()
        assert np.isnan(roots[:2]).all() and np.isfinite(roots[2:]).all()

    def test_bisection_takes_lookahead_steps_per_field_batch(self, monkeypatch):
        batches, field = [], oracle._field

        def counted(spec, w):
            batches.append(w.size)
            return field(spec, w)

        monkeypatch.setattr(oracle, "_field", counted)
        report = scan_low_dim(quotient2_spec(), [(-10.0, 10.0)], resolution=401)
        assert len(report.roots) == 2
        # The grid, then 2**LOOKAHEAD - 1 midpoints per open bracket per
        # batch: 8 batches in all, where one batch per step took 35.
        assert batches[0] == 401 and len(batches) == 8
        assert {size % (2**oracle.LOOKAHEAD - 1) for size in batches[1:]} == {0}

    def test_csv_rows(self):
        report = scan_low_dim(product_spec(), [(-1.0, 1.0)], resolution=11)
        rows = list(report.csv_rows())
        assert rows[0] == ("value", "field")
        assert len(rows) == 12


class TestQuadraticFormMatrix:
    def test_recovers_tridiagonal_form(self):
        rng = np.random.default_rng(3)
        d = 12
        diag = rng.uniform(1, 2, size=d)
        off = rng.uniform(-0.5, 0.5, size=d - 1)
        M = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)

        def form(z):
            return float(z @ M @ z)

        got = quadratic_form_matrix(form, d)
        assert np.allclose(got, M, atol=1e-9)

    def test_rejects_dense_coupling(self):
        d = 8
        M = np.full((d, d), 0.3) + np.eye(d)

        def form(z):
            return float(z @ M @ z)

        with pytest.raises(ValueError):
            quadratic_form_matrix(form, d)

    def test_linear_part_cancels(self):
        d = 6
        M = np.diag(np.arange(1.0, d + 1))
        b = np.linspace(-1, 1, d)

        def form(z):
            return float(z @ M @ z + b @ z + 4.2)

        got = quadratic_form_matrix(form, d)
        assert np.allclose(got, M, atol=1e-9)


class TestGeneralizedEig:
    def test_dirichlet_pencil_trends_to_pi_squared(self):
        # Coarse-to-fine check of the smallest Rayleigh value against the
        # classical continuum limit pi^2.
        vals = []
        for h in (0.05, 0.02):
            ts = make_timescale("interval", a=0, b=1, h=h)
            F = CompositeFunctional.from_strings(["v^2", "y^2"], "u1 / u2")
            spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 0))
            A, B = rayleigh_pencil(spec)
            vals.append(scipy.linalg.eigh(A, B, eigvals_only=True)[0])
        err = [abs(v - np.pi**2) for v in vals]
        assert err[1] < err[0]
        assert err[1] <= 0.02 * np.pi**2

    def test_pencil_matches_solver_on_coarse_grid(self):
        ts = make_timescale("interval", a=0, b=1, h=0.05)
        F = CompositeFunctional.from_strings(["v^2", "y^2"], "u1 / u2")
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 0))
        A, B = rayleigh_pencil(spec)
        val = scipy.linalg.eigh(A, B, eigvals_only=True)[0]
        pts = solve_unconstrained(spec, SolveOptions(restarts=6, tol_residual=1e-12))
        best = min(p.value for p in pts)
        assert best == pytest.approx(val, abs=1e-9)

    @pytest.mark.parametrize("name, points, kind", [
        ("sl_qscale", 61, "qscale"),
        ("sl_union", 255, "union"),
    ])
    def test_graded_scale_values_are_pencil_eigenvalues(self, name, points, kind):
        # Sturm-Liouville on scales whose graininess varies: the solved values
        # are the two smallest eigenvalues of the pencil.
        spec = resolve_problem(str(PROBLEMS / f"{name}.dvp")).build()
        assert (len(spec.ts), spec.ts.kind) == (points, kind)
        pts = solve_unconstrained(spec, SolveOptions(restarts=8, seed=0))
        eig = scipy.linalg.eigh(*rayleigh_pencil(spec), eigvals_only=True)
        assert sorted(p.value for p in pts) == pytest.approx(eig[:2], rel=1e-10, abs=0.0)

    def test_inner_form_evaluates_single_integral(self):
        spec = quotient2_spec()
        phi = inner_integral_form(spec, 1)
        tr = embed_decision(spec, [0.3])
        from deltavar import inner_values

        assert phi(np.array([0.3])) == inner_values(spec.lagrangian, tr)[1]
