import dataclasses
import warnings
from collections import Counter

import numpy as np
import pytest
from conftest import graded_timescale, random_constraint, random_problem
from hypothesis import given, settings, strategies as st

from deltavar import euler_lagrange, solver
from deltavar.euler_lagrange import hessian_parts

from deltavar import (
    BothMultipliersZero,
    BoundarySpec,
    CompositeFunctional,
    DenominatorVanished,
    EndpointNotFree,
    IsoConstraint,
    ProblemSpec,
    Trajectory,
    decision_indices,
    dubois_reymond_quantity,
    el_residual,
    embed_decision,
    extract_decision,
    functional_gradient,
    functional_hessian,
    inner_values,
    isoperimetric_residual,
    make_timescale,
    natural_bc_left,
    natural_bc_right,
    residual_report,
    value,
)
from deltavar.expr import DomainError, ExprError, evaluate
from deltavar.oracle import fd_gradient
from deltavar.solver import _hessian

THREE_PT = make_timescale("points", values=[0, 0.5, 1])
PRODUCT = CompositeFunctional.from_strings(["v^2", "t*v"], "u1 * u2")


def product_spec(ts=THREE_PT):
    return ProblemSpec(ts=ts, lagrangian=PRODUCT, bc=BoundarySpec.fixed(0, 1))


class TestDecisionEmbedding:
    def test_interior_only_when_both_fixed(self):
        spec = product_spec()
        assert list(decision_indices(spec)) == [1]

    def test_free_ends_extend_decisions(self):
        spec = ProblemSpec(
            ts=THREE_PT, lagrangian=PRODUCT, bc=BoundarySpec(left=None, right=1.0)
        )
        assert list(decision_indices(spec)) == [0, 1]

    def test_embed_extract_round_trip(self):
        spec = product_spec()
        tr = embed_decision(spec, [0.25])
        assert list(tr.x) == [0.0, 0.25, 1.0]
        assert extract_decision(spec, tr) == pytest.approx([0.25])


class TestElResidual:
    def test_linear_trajectory_of_simple_energy(self):
        ts = make_timescale("uniform", a=0, b=1, h=0.25)
        F = CompositeFunctional.from_strings(["v^2"], "u1")
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 1))
        res = el_residual(spec, Trajectory(ts, ts.points))
        assert np.max(np.abs(res)) == 0.0

    def test_quotient_line_is_stationary(self):
        ts = make_timescale("points", values=[0, 1, 2])
        F = CompositeFunctional.from_strings(["v^2", "v + v^2"], "u1 / u2")
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 4))
        res = el_residual(spec, Trajectory(ts, 2 * ts.points))
        assert np.max(np.abs(res)) <= 1e-14

    def test_three_point_product_formula(self):
        # Single residual: 2 * xdd(0) * F2 + F1 with both inner integrals.
        spec = product_spec()
        for w in (-0.5, 0.4, 1.3):
            tr = embed_decision(spec, [w])
            F = inner_values(PRODUCT, tr)
            xdd = (tr.x_delta[1] - tr.x_delta[0]) / 0.5
            expected = 2 * xdd * F[1] + F[0]
            res = el_residual(spec, tr)
            assert res.shape == (1,)
            assert res[0] == pytest.approx(expected, rel=1e-12)

    def test_length_is_kappa_count_minus_one(self):
        rng = np.random.default_rng(0)
        spec, tr = random_problem(rng)
        assert el_residual(spec, tr).size == spec.ts.kappa_count() - 1

    def test_identity_outer_map_reduces_to_classical_residual(self):
        # With H = u1 the residual is f_v^Delta - f_y sampled pointwise.
        ts = make_timescale("points", values=[0.0, 0.4, 1.0, 1.5, 2.1])
        F = CompositeFunctional.from_strings(["v^2 + t*y^2"], "u1")
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 1))
        rng = np.random.default_rng(6)
        x = rng.standard_normal(len(ts))
        tr = Trajectory(ts, x)
        fv = 2 * tr.x_delta
        fy = 2 * ts.points[:-1] * tr.x_sigma[:-1]
        classical = (fv[1:] - fv[:-1]) / ts.steps[:-1] - fy[:-1]
        assert np.allclose(el_residual(spec, tr), classical, rtol=0, atol=1e-14)


class TestNaturalBoundaryConditions:
    def test_left_requires_free_end(self):
        with pytest.raises(EndpointNotFree):
            natural_bc_left(product_spec(), embed_decision(product_spec(), [0.5]))

    def test_left_simple_energy(self):
        ts = make_timescale("uniform", a=0, b=1, h=0.25)
        F = CompositeFunctional.from_strings(["v^2 - y"], "u1")
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec(left=None, right=1.0))
        tr = Trajectory(ts, ts.points)
        # residual = 2 x^delta(a); zero iff the slope vanishes at a.
        assert natural_bc_left(spec, tr) == pytest.approx(2.0)
        flat = Trajectory(ts, np.concatenate([[ts.points[1]], ts.points[1:]]))
        assert natural_bc_left(spec, flat) == 0.0

    def test_right_without_y_dependence(self):
        ts = make_timescale("points", values=[0, 0.4, 1.1, 2.0])
        F = CompositeFunctional.from_strings(["v^2"], "u1")
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec(left=0.0, right=None))
        tr = Trajectory(ts, ts.points**2)
        assert natural_bc_right(spec, tr) == pytest.approx(2 * tr.x_delta[-1])

    def test_vanishing_objective_weight_kills_left_residual(self):
        # With the first inner integral equal to zero the product weight
        # H'_2 = F1 vanishes, so only the F2-weighted term survives.
        ts = make_timescale("points", values=[0, 0.5, 1])
        spec = ProblemSpec(
            ts=ts, lagrangian=PRODUCT, bc=BoundarySpec(left=None, right=None)
        )
        tr = Trajectory(ts, [1.0, 1.0, 1.0])  # x^delta = 0 -> F1 = 0, f1v = 0
        assert natural_bc_left(spec, tr) == 0.0

    def test_fd_oracle_for_both_endpoints(self):
        rng = np.random.default_rng(42)
        checked = 0
        while checked < 25:
            spec, tr = random_problem(rng)
            step = 1e-6
            if not (spec.bc.left_fixed and spec.bc.right_fixed):
                g = fd_gradient(spec, tr, step)
                scale = 1 + float(np.max(np.abs(g)))
            if not spec.bc.left_fixed:
                assert abs(natural_bc_left(spec, tr) + g[0]) <= 1e-5 * scale
                checked += 1
            if not spec.bc.right_fixed:
                assert abs(natural_bc_right(spec, tr) - g[-1]) <= 1e-5 * scale
                checked += 1


class TestFunctionalGradient:
    def test_three_point_product_polynomial(self):
        spec = product_spec()
        for w in (-1.0, 0.0, 0.5, 1.7):
            g = functional_gradient(spec, embed_decision(spec, [w]))
            assert g[0] == pytest.approx(-6 * w**2 + 8 * w - 3, rel=1e-12, abs=1e-14)

    def test_constant_trajectory_of_pure_energy(self):
        ts = make_timescale("uniform", a=0, b=2, h=0.5)
        F = CompositeFunctional.from_strings(["v^2"], "u1")
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec(left=None, right=None))
        g = functional_gradient(spec, Trajectory(ts, np.full(len(ts), 0.8)))
        assert np.max(np.abs(g)) == 0.0

    def test_matches_fd_oracle_on_random_specs(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            spec, tr = random_problem(rng)
            exact = functional_gradient(spec, tr)
            fd = fd_gradient(spec, tr, 1e-6)
            scale = 1 + float(np.max(np.abs(exact)))
            assert np.all(np.abs(exact - fd) <= 1e-6 * scale)


class TestGradientElIdentity:
    def test_el_residual_matches_pointwise_formula(self):
        # The pointwise formula sum_i H'_i (f_iv^Delta - f_iy), evaluated
        # here on its own, is the reference for the residual that
        # el_residual reads off the gradient.
        rng = np.random.default_rng(7)
        for _ in range(40):
            spec, tr = random_problem(rng)
            F = spec.lagrangian
            b = {"t": spec.ts.points[:-1], "y": tr.x_sigma[:-1], "v": tr.x_delta}
            w = F.outer_gradient(inner_values(F, tr))
            steps = spec.ts.steps
            expected = np.zeros(len(spec.ts) - 2)
            for i in range(F.n):
                fy = np.broadcast_to(evaluate(F.inner_y[i], b), steps.shape)
                fv = np.broadcast_to(evaluate(F.inner_v[i], b), steps.shape)
                expected += w[i] * ((fv[1:] - fv[:-1]) / steps[:-1] - fy[:-1])
            scale = 1 + float(np.max(np.abs(expected), initial=0.0))
            assert np.all(np.abs(el_residual(spec, tr) - expected) <= 1e-10 * scale)

    def test_interior_identity_and_endpoints(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            spec, tr = random_problem(rng)
            g = functional_gradient(spec, tr)
            el = el_residual(spec, tr)
            idx = decision_indices(spec)
            steps = spec.ts.steps
            for pos, point_index in enumerate(idx):
                if point_index == 0:
                    expected = -natural_bc_left(spec, tr)
                elif point_index == len(spec.ts) - 1:
                    expected = natural_bc_right(spec, tr)
                elif point_index - 1 < el.size:
                    expected = -steps[point_index - 1] * el[point_index - 1]
                else:
                    continue
                assert abs(g[pos] - expected) <= 1e-10 * (
                    1 + abs(g[pos]) + abs(expected)
                )


class TestHessian:
    def test_matches_fd_of_gradient(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            spec, tr = random_problem(rng)
            H = functional_hessian(spec, tr)
            z = extract_decision(spec, tr)
            step = 1e-6
            for j in range(z.size):
                zp = z.copy()
                zp[j] += step
                zm = z.copy()
                zm[j] -= step
                col = (
                    functional_gradient(spec, embed_decision(spec, zp))
                    - functional_gradient(spec, embed_decision(spec, zm))
                ) / (2 * step)
                scale = 1 + float(np.max(np.abs(H)))
                assert np.all(np.abs(H[:, j] - col) <= 2e-5 * scale)


class TestDuboisReymond:
    def test_stationary_line_constant(self):
        ts = make_timescale("points", values=[0, 1, 2])
        F = CompositeFunctional.from_strings(["v^2", "v + v^2"], "u1 / u2")
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 4))
        E = dubois_reymond_quantity(spec, Trajectory(ts, 2 * ts.points))
        assert E.max() - E.min() <= 1e-10

    def test_no_y_dependence_constant_slope(self):
        ts = make_timescale("points", values=[0, 0.3, 1.1, 2.0])
        F = CompositeFunctional.from_strings(["v^2"], "u1")
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 2))
        E = dubois_reymond_quantity(spec, Trajectory(ts, ts.points))
        assert E.max() - E.min() == 0.0

    def test_non_stationary_has_positive_spread(self):
        spec = product_spec()
        E = dubois_reymond_quantity(spec, embed_decision(spec, [0.9]))
        assert E.max() - E.min() > 1e-3


class TestIsoperimetricResidual:
    def iso_spec(self, ts):
        L = CompositeFunctional.from_strings(["v^2", "t*v"], "u1 / u2")
        K = IsoConstraint(CompositeFunctional.from_strings(["t*v"], "u1"), 1.0)
        return ProblemSpec(ts=ts, lagrangian=L, bc=BoundarySpec.fixed(0, 1), constraint=K)

    def test_both_multipliers_zero_rejected(self):
        spec = self.iso_spec(THREE_PT)
        with pytest.raises(BothMultipliersZero):
            isoperimetric_residual(spec, embed_decision(spec, [-1.0]), 0.0, 0.0)

    def test_fine_grid_candidate_with_multiplier_eight(self):
        ts = make_timescale("interval", a=0, b=1, h=1e-3)
        spec = self.iso_spec(ts)
        t = ts.points
        tr = Trajectory(ts, 3 * t**2 - 2 * t)
        res = isoperimetric_residual(spec, tr, 1.0, 8.0)
        assert np.max(np.abs(res)) <= 0.05

    def test_lambda_zero_reduces_to_objective_residual(self):
        spec = self.iso_spec(THREE_PT)
        tr = embed_decision(spec, [-1.0])
        assert np.array_equal(
            isoperimetric_residual(spec, tr, 1.0, 0.0), el_residual(spec, tr)
        )

    def test_lambda0_zero_is_constraint_extremal_test(self):
        spec = self.iso_spec(THREE_PT)
        tr = embed_decision(spec, [-1.0])
        res = isoperimetric_residual(spec, tr, 0.0, 1.0)
        expected = -el_residual(spec, tr, functional=spec.constraint.functional)
        assert np.array_equal(res, expected)

    def test_combination_is_linear(self):
        spec = self.iso_spec(THREE_PT)
        tr = embed_decision(spec, [0.4])
        lam = 2.75
        combo = isoperimetric_residual(spec, tr, 1.0, lam)
        manual = el_residual(spec, tr) - lam * el_residual(
            spec, tr, functional=spec.constraint.functional
        )
        assert np.array_equal(combo, manual)

    def test_requires_constraint(self):
        spec = product_spec()
        with pytest.raises(ValueError):
            isoperimetric_residual(spec, embed_decision(spec, [0.5]), 1.0, 1.0)

    def test_constraint_requires_fixed_ends(self):
        K = IsoConstraint(CompositeFunctional.from_strings(["t*v"], "u1"), 1.0)
        with pytest.raises(ValueError):
            ProblemSpec(
                ts=THREE_PT,
                lagrangian=PRODUCT,
                bc=BoundarySpec(left=None, right=1.0),
                constraint=K,
            )


class TestResidualReport:
    def test_report_shapes_and_norms(self):
        spec = product_spec()
        tr = embed_decision(spec, [0.5])
        report = residual_report(spec, tr)
        assert report.el.size == spec.ts.kappa_count() - 1
        assert report.nat_left is None and report.nat_right is None
        assert report.el_max == np.max(np.abs(report.el))
        assert report.max_residual == report.el_max

    def test_report_includes_free_bcs(self):
        ts = make_timescale("uniform", a=0, b=1, h=0.25)
        F = CompositeFunctional.from_strings(["v^2 + y^2"], "u1")
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec(left=None, right=None))
        report = residual_report(spec, Trajectory(ts, ts.points))
        assert report.nat_left is not None and report.nat_right is not None

    @pytest.mark.parametrize("constrained", [True, False])
    def test_one_evaluation_per_functional(self, monkeypatch, constrained):
        # The residuals, both natural conditions and the constancy quantity
        # all read one evaluation of each functional's sampled partials.
        ts = make_timescale("uniform", a=0, b=1, h=0.25)
        L = CompositeFunctional.from_strings(["v^2 + y^2", "t*v + 2"], "u1 / u2")
        if constrained:
            K = IsoConstraint(CompositeFunctional.from_strings(["t*v"], "u1"), 1.0)
            spec = ProblemSpec(ts=ts, lagrangian=L, bc=BoundarySpec.fixed(0, 1), constraint=K)
            expected = {L: 1, K.functional: 1}
        else:
            spec = ProblemSpec(ts=ts, lagrangian=L, bc=BoundarySpec(left=None, right=None))
            expected = {L: 1}
        calls = Counter()
        real = euler_lagrange._fill_partials

        def counting(F, trs):
            calls[F] += len(trs)
            return real(F, trs)

        monkeypatch.setattr(euler_lagrange, "_fill_partials", counting)
        residual_report(spec, Trajectory(ts, ts.points**2), lam0=1.0, lam=2.0)
        assert calls == expected


class TestBatchedEvaluation:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_record_inner_values_match_inner_values(self, seed, graded):
        # The record sums the rows of its one sampling pass; inner_values
        # sums each integrand by delta_integral.  Bit for bit the same.
        rng = np.random.default_rng(seed)
        spec, tr = random_problem(rng, ts=graded_timescale(rng) if graded else None)
        for F in (spec.lagrangian, random_constraint(rng).functional):
            want = inner_values(F, tr)
            assert euler_lagrange._partials(F, tr).us.tobytes() == want.tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.booleans())
    def test_batch_records_match_lone_records(self, seed, graded):
        # A batch of trajectories on one scale gives each the record it
        # gets alone, bit for bit, where every row has one alone; otherwise
        # it raises and fills none, and each row then builds alone, with its
        # lone bits or its lone error.  Rows with a negative sample make the
        # sqrt functional's batch pass raise; rows with x(b) = x(a) make the
        # last functional's denominator vanish in a batch pass that holds.
        # A random subset of rows then asks for its Hessians, assembled
        # together as a lockstep round's Jacobians are: each row gets its
        # lone pieces and dense Hessian byte for byte, and a row whose record
        # raises gets none but its lone error, with no traceback or context.
        # So do the Hessians of F - lam_i K, one multiplier per row as in a
        # round of normal Jacobians, with one lam_i = 0, whose Hessian carries
        # K's rows too.
        rng = np.random.default_rng(seed)
        spec, tr = random_problem(rng, ts=graded_timescale(rng) if graded else None)
        scales = rng.choice([0.0, 0.3, 3.0], size=int(rng.integers(2, 7)))
        X = tr.x + scales[:, None] * rng.standard_normal((scales.size, len(tr.ts)))
        X[rng.random(scales.size) < 0.5] **= 2
        X[rng.random(scales.size) < 0.3, -1] = X[0, 0]
        X[:, 0] = X[0, 0]
        root = CompositeFunctional.from_strings(["sqrt(y) + v^2", "y - 0.5"], "u1 / u2")
        last = CompositeFunctional.from_strings(["y^2 + v^2", "v"], "u1 / u2")
        plain = np.zeros((decision_indices(spec).size, 0))
        for F in (spec.lagrangian, root, last):
            batch = [Trajectory(tr.ts, x) for x in X]
            try:
                euler_lagrange._fill_partials(F, batch)
                filled = True
            except (ArithmeticError, ExprError):
                filled = False
            assert [F in got.partials for got in batch] == [filled] * len(batch)
            holds = []
            for got, x in zip(batch, X):
                try:
                    want = euler_lagrange._partials(F, Trajectory(tr.ts, x))
                except Exception as exc:
                    holds.append(False)
                    assert F not in got.partials
                    with pytest.raises(type(exc)) as raised:
                        euler_lagrange._partials(F, got)
                    assert str(raised.value) == str(exc)
                    continue
                holds.append(True)
                got = euler_lagrange._partials(F, got)
                for name in ("us", "w", "g", "rows", "fy", "fv"):
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
            assert filled == all(holds)
            asks = [i for i in range(len(X)) if rng.random() < 0.6] or [len(X) - 1]
            fspec = dataclasses.replace(spec, lagrangian=F)
            hessians = solver._answers(lambda trs: _hessian(fspec, trs, 1.0, None),
                                       [batch[i] for i in asks])
            lone = []
            for i in asks:
                alone = Trajectory(tr.ts, X[i])
                try:
                    lone.append((hessian_parts(F, fspec, alone), _hessian(fspec, alone, 1.0, None)))
                except Exception as exc:
                    lone.append(exc)
            for H, want in zip(hessians, lone):
                if isinstance(want, Exception):
                    assert isinstance(H, type(want)) and str(H) == str(want)
                    assert H.__traceback__ is None and H.__context__ is None
                else:
                    assert H.dense(plain).tobytes() == want[1].dense(plain).tobytes()
            held = [k for k, want in enumerate(lone) if not isinstance(want, Exception)]
            if held:
                parts = hessian_parts(F, fspec, [batch[asks[k]] for k in held])
                for j, k in enumerate(held):
                    for a, b in zip(parts, lone[k][0]):
                        assert a[j].tobytes() == b.tobytes()
            cspec = ProblemSpec(ts=tr.ts, lagrangian=F, bc=BoundarySpec.fixed(0.0, 0.0),
                                constraint=IsoConstraint(last, 1.0))
            lams = rng.uniform(-2.0, 2.0, len(asks))
            lams[rng.integers(len(asks))] = 0.0
            hessians = solver._answers(
                lambda keys: _hessian(cspec, [t for t, _ in keys], 1.0, [lam for _, lam in keys]),
                [(batch[i], lam) for i, lam in zip(asks, lams)])
            for H, i, lam in zip(hessians, asks, lams):
                try:
                    want = _hessian(cspec, Trajectory(tr.ts, X[i]), 1.0, lam)
                except Exception as exc:
                    assert isinstance(H, type(exc)) and str(H) == str(exc)
                    assert H.__traceback__ is None and H.__context__ is None
                else:
                    for part in ("diag", "off", "U", "C"):
                        assert getattr(H, part).tobytes() == getattr(want, part).tobytes(), part

    @pytest.mark.parametrize("rows", [1, 5])
    def test_records_keep_no_f_samples(self, rows):
        # A batch's records keep its arrays alive, so each array they reach
        # must be covered by the records' own fields: no byte of it, such as
        # the f samples that only the inner values' running sum reads, is
        # kept for nothing.
        rng = np.random.default_rng(11)
        spec, tr = random_problem(rng, ts=graded_timescale(rng))
        F = CompositeFunctional.from_strings(["y^2*v^2 + t", "1 + y^2", "v"], "u1 * u2 + u3")
        batch = [Trajectory(tr.ts, tr.x + rng.standard_normal(len(tr.ts))) for _ in range(rows)]
        euler_lagrange._fill_partials(F, batch)
        owners, covered = {}, Counter()
        for record in (got.partials[F] for got in batch):
            for field in record:
                owner = field if field.base is None else field.base
                owners[id(owner)] = owner
                covered[id(owner)] += field.nbytes
        assert {key: owner.nbytes for key, owner in owners.items()} == dict(covered)

    def test_second_partials_of_a_failed_batch_pass_come_row_by_row(self, monkeypatch):
        # Where the batch's pass over the second partials raises, each row's
        # Hessian is assembled alone, as it is alone.  The Hessian of this F
        # depends on x, so a row given another row's Hessian fails.
        rng = np.random.default_rng(3)
        spec, tr = random_problem(rng, ts=graded_timescale(rng))
        F = CompositeFunctional.from_strings(["y^2*v^2 + y^3", "1 + y^2"], "u1 / u2")
        spec = dataclasses.replace(spec, lagrangian=F)
        X = tr.x + rng.standard_normal((4, len(tr.ts)))
        batch = [Trajectory(tr.ts, x) for x in X]
        euler_lagrange._fill_partials(F, batch)
        real = euler_lagrange._samples

        def failing(exprs, b):
            if b["y"].shape[0] > 1:
                raise DomainError(exprs[0], "some row of the batch raises")
            return real(exprs, b)

        monkeypatch.setattr(euler_lagrange, "_samples", failing)
        plain = np.zeros((decision_indices(spec).size, 0))
        for H, x in zip(solver._answers(lambda trs: _hessian(spec, trs, 1.0, None), batch), X):
            want = _hessian(spec, Trajectory(tr.ts, x), 1.0, None).dense(plain)
            assert H.dense(plain).tobytes() == want.tobytes()

    def test_record_raises_the_outer_error_before_the_partials_error(self):
        # f = sqrt(y) is finite at y = 0 where f_y divides by zero, and
        # u2 = 0 makes H'(u) = (1/u2, -u1/u2^2) vanish: the outer map's error
        # comes first, as when f and its partials were sampled apart.
        F = CompositeFunctional.from_strings(["sqrt(y)", "y - y"], "u1 / u2")
        tr = Trajectory(THREE_PT, [0.0, 0.0, 1.0])
        with pytest.raises(DenominatorVanished):
            euler_lagrange._partials(F, tr)

    def test_opposite_infinite_samples_sum_to_nan_quietly(self):
        # On quotient1's [0, 2] at h = 0.5 the integrand overflows to -inf at
        # t = 0 and to +inf at t = 1.5.  Both left-to-right sums, value's
        # (delta_integral) and the gradient record's, give nan without a
        # RuntimeWarning.
        ts = make_timescale("interval", a=0, b=2, h=0.5)
        F = CompositeFunctional.from_strings(["exp(1000*(t - 0.5)) - exp(1000*(1 - t))"], "u1")
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(0, 4))
        tr = Trajectory(ts, ts.points)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(value(F, tr))
            np.testing.assert_array_equal(functional_gradient(spec, tr), np.zeros(3))
            assert np.isnan(euler_lagrange._partials(F, tr).us).all()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_record_evaluates_in_four_stages(self, monkeypatch, n):
        # The integrands, the outer gradient, the integrands' first partials
        # (the order in which a lone value raises), the second partials and
        # the outer Hessian: one evaluate call each, five in all, whatever the
        # number of inner integrands.
        from deltavar import expr, functional

        ts = make_timescale("uniform", a=0, b=1, h=0.25)
        inner = [f"v^2 + {i + 1}*t*y^2" for i in range(n)]
        outer = " + ".join(f"u{i + 1}^2" for i in range(n)) + " + u1*u" + str(n)
        F = CompositeFunctional.from_strings(inner, outer)
        calls = [0]
        real = expr.evaluate

        def counting(*args, **kwargs):
            calls[0] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(expr, "evaluate", counting)
        monkeypatch.setattr(functional, "evaluate", counting)
        tr = Trajectory(ts, 1.0 + ts.points**2)
        record = euler_lagrange._partials(F, tr)
        spec = ProblemSpec(ts=ts, lagrangian=F, bc=BoundarySpec.fixed(1.0, 2.0))
        diag, off, rows, outer_hess = hessian_parts(F, spec, tr)
        assert calls[0] == 5
        assert record.fy.shape == record.fv.shape == (n, len(ts) - 1)
        assert diag.size == off.size + 1 == len(ts) - 2 and rows.shape == (n, len(ts) - 2)
        assert outer_hess.shape == (n, n)
