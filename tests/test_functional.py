import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_polynomial, random_problem
from deltavar import functional, oracle
from deltavar.cli import resolve_problem
from deltavar.euler_lagrange import decision_indices, embed_decision
from deltavar.expr import Div, DivisionByZero, DomainError
from deltavar.functional import INNER_VARS
from deltavar import (
    CompositeFunctional,
    DenominatorVanished,
    ExprError,
    ScaleMismatch,
    Trajectory,
    c1rd_distance,
    evaluate,
    inner_values,
    make_timescale,
    value,
)

THREE_PT = make_timescale("points", values=[0, 0.5, 1])
PRODUCT = CompositeFunctional.from_strings(["v^2", "t*v"], "u1 * u2")
QUOTIENT = CompositeFunctional.from_strings(["v^2", "v + v^2"], "u1 / u2")


class TestConstruction:
    def test_outer_variable_count_enforced(self):
        with pytest.raises(Exception):
            CompositeFunctional.from_strings(["v^2"], "u1 + u2")

    def test_inner_variable_set_enforced(self):
        from deltavar import UnknownVariable

        with pytest.raises(UnknownVariable):
            CompositeFunctional.from_strings(["v^2 + w"], "u1")

    def test_partials_cached(self):
        assert len(PRODUCT.inner_y) == 2
        assert len(PRODUCT.inner_v) == 2
        assert len(PRODUCT.outer_grad_exprs) == 2


class TestTrajectory:
    def test_caches(self):
        tr = Trajectory(THREE_PT, [0.0, 0.25, 1.0])
        assert list(tr.x_sigma) == [0.25, 1.0, 1.0]
        assert list(tr.x_delta) == [0.5, 1.5]

    def test_arrays_read_only(self):
        tr = Trajectory(THREE_PT, [0.0, 0.25, 1.0])
        with pytest.raises(ValueError):
            tr.x[0] = 5.0

    def test_length_checked(self):
        with pytest.raises(ValueError):
            Trajectory(THREE_PT, [0.0, 1.0])


class TestInnerValues:
    def test_energy_of_linear_trajectory_is_exact(self):
        # Exact binary grid so every quantity is exact in floating point.
        ts = make_timescale("uniform", a=0, b=1, h=0.25)
        F = CompositeFunctional.from_strings(["v^2"], "u1")
        tr = Trajectory(ts, ts.points)
        assert inner_values(F, tr)[0] == 1.0

    def test_three_point_hand_expansion(self):
        for w in (-1.0, 0.0, 0.7, 2.5):
            tr = Trajectory(THREE_PT, [0.0, w, 1.0])
            F = inner_values(PRODUCT, tr)
            assert F[0] == pytest.approx(2 * w**2 + 2 * (1 - w) ** 2, rel=1e-15)
            assert F[1] == pytest.approx((1 - w) / 2, rel=1e-15)

    def test_matches_direct_summation_bit_for_bit(self):
        rng = np.random.default_rng(2)
        pts = np.sort(rng.uniform(0, 2, size=9))
        ts = make_timescale("points", values=pts)
        x = rng.standard_normal(len(ts))
        tr = Trajectory(ts, x)
        got = inner_values(QUOTIENT, tr)
        for i, f in enumerate(QUOTIENT.inner):
            expected = 0.0
            for j in range(len(ts) - 1):
                sample = evaluate(
                    f,
                    {
                        "t": ts.points[j],
                        "y": tr.x_sigma[j],
                        "v": tr.x_delta[j],
                    },
                )
                expected += ts.steps[j] * sample
            assert got[i] == expected

    def test_weighted_velocity_integral_on_fine_grid(self):
        ts = make_timescale("interval", a=0, b=1, h=1e-3)
        t = ts.points
        tr = Trajectory(ts, -(t**2) + 2 * t)
        F = inner_values(PRODUCT, tr)
        assert F[0] == pytest.approx(4.0 / 3.0, abs=5e-3)
        assert F[1] == pytest.approx(1.0 / 3.0, abs=5e-3)


class TestValue:
    def test_product_value_near_four_ninths(self):
        ts = make_timescale("interval", a=0, b=1, h=1e-3)
        t = ts.points
        tr = Trajectory(ts, -(t**2) + 2 * t)
        assert value(PRODUCT, tr) == pytest.approx(4.0 / 9.0, abs=5e-3)

    def test_quotient_value_exact_on_integer_scale(self):
        ts = make_timescale("points", values=[0, 1, 2])
        tr = Trajectory(ts, 2 * ts.points)
        assert value(QUOTIENT, tr) == 2.0 / 3.0

    def test_identity_outer_map(self):
        F = CompositeFunctional.from_strings(["t*v"], "u1")
        tr = Trajectory(THREE_PT, [0.0, 0.5, 1.0])
        assert value(F, tr) == inner_values(F, tr)[0]

    def test_denominator_vanished(self):
        tr = Trajectory(THREE_PT, [0.0, 0.0, 0.0])
        with pytest.raises(DenominatorVanished):
            value(QUOTIENT, tr)

    def test_quotient_scaling_invariance(self):
        rng = np.random.default_rng(4)
        scaled = CompositeFunctional.from_strings(
            ["3.7*(v^2)", "3.7*(v + v^2)"], "u1 / u2"
        )
        for _ in range(20):
            pts = np.sort(rng.uniform(0, 2, size=7))
            ts = make_timescale("points", values=pts)
            x = rng.uniform(0.5, 2.0, size=len(ts))
            tr = Trajectory(ts, np.cumsum(x))
            assert value(QUOTIENT, tr) == pytest.approx(
                value(scaled, tr), rel=1e-14
            )

    def test_value_invariant_under_recanonicalization(self):
        ts = make_timescale("points", values=[0, 0.5, 1])
        ts2 = make_timescale("points", values=list(ts.points))
        tr = Trajectory(ts, [0.0, 0.3, 1.0])
        tr2 = Trajectory(ts2, [0.0, 0.3, 1.0])
        assert value(PRODUCT, tr) == value(PRODUCT, tr2)

    def test_value_converges_first_order(self):
        # Closed-form value of the product functional at the parabola is 4/9.
        errs = []
        for h in (0.02, 0.01, 0.005):
            ts = make_timescale("interval", a=0, b=1, h=h)
            t = ts.points
            tr = Trajectory(ts, -(t**2) + 2 * t)
            errs.append(abs(value(PRODUCT, tr) - 4.0 / 9.0))
        order = np.log(errs[0] / errs[2]) / np.log(4.0)
        assert order >= 0.9


class TestC1rdDistance:
    def test_identical(self):
        tr = Trajectory(THREE_PT, [0.0, 0.5, 1.0])
        assert c1rd_distance(tr, tr) == 0.0

    def test_constant_shift(self):
        tr1 = Trajectory(THREE_PT, [0.0, 0.5, 1.0])
        tr2 = Trajectory(THREE_PT, [0.7, 1.2, 1.7])
        assert c1rd_distance(tr1, tr2) == pytest.approx(0.7)

    def test_spike(self):
        tr1 = Trajectory(THREE_PT, [0.0, 0.0, 0.0])
        tr2 = Trajectory(THREE_PT, [0.0, 1.0, 0.0])
        assert c1rd_distance(tr1, tr2) == pytest.approx(3.0)

    def test_scale_mismatch(self):
        other = make_timescale("points", values=[0, 1, 2])
        with pytest.raises(ScaleMismatch):
            c1rd_distance(
                Trajectory(THREE_PT, [0, 0, 0]), Trajectory(other, [0, 0, 0])
            )


def random_outer_text(rng: np.random.Generator, n: int, depth: int = 3) -> str:
    """A random outer map over u1..un that can use every operator and function."""
    if depth == 0 or rng.random() < 0.2:
        if rng.random() < 0.8:
            return f"u{int(rng.integers(1, n + 1))}"
        return repr(round(float(rng.uniform(-2.0, 2.0)), 3))
    arg = random_outer_text(rng, n, depth - 1)
    kind = int(rng.integers(0, 4))
    if kind == 0:
        op = str(rng.choice(["+", "-", "*", "/", "/"]))
        return f"({arg}) {op} ({random_outer_text(rng, n, depth - 1)})"
    if kind == 1:
        return f"({arg})^{int(rng.integers(2, 6))}"
    if kind == 2:
        return f"{rng.choice(['sin', 'cos', 'exp', 'log', 'sqrt'])}({arg})"
    return f"-({arg})"


# Inner values that reach every branch of the outer map's evaluation: signed zeros,
# NaN, infinities, near-vanishing denominators and powers that overflow.
OUTER_INPUTS = st.one_of(
    st.floats(width=64),
    st.sampled_from([0.0, -0.0, 1e-12, -1e-300, 5e-10, 1e200, -1e200, np.nan, np.inf]),
)


def outcome(fn):
    """('ok', bytes of the result) or (error type, message): what a caller sees.

    Every NaN counts as one value: the sign bit of a NaN depends on the
    power routine that made it, and nothing reads it.
    """
    try:
        values = np.asarray(fn(), dtype=float)
        return "ok", np.where(np.isnan(values), np.nan, values).tobytes()
    except (DenominatorVanished, ExprError) as exc:
        return type(exc), str(exc)


def own_divisions(e):
    """(numerator, denominator) of each division in e, in the order a tree walk completes them."""
    children = [getattr(e, a) for a in ("arg", "base", "lhs", "rhs") if hasattr(e, a)]
    pairs = [pair for child in children for pair in own_divisions(child)]
    return pairs + [(e.lhs, e.rhs)] if isinstance(e, Div) else pairs


def fails_rule(num, den) -> bool:
    return bool(np.abs(den) < functional.EPS_DENOMINATOR * (1.0 + np.abs(num)))


def numpy_reference_values(F, exprs, us):
    """The expressions' values at the (n,) inner values us, bound as numpy (1,) arrays,
    after testing H's own divisions.

    Each division of H that evaluates is tested innermost first; the
    expressions themselves then raise only at an exact zero denominator.
    """
    b = {u: np.array([x]) for u, x in zip(F.outer_vars, np.asarray(us, dtype=float))}
    for pair in own_divisions(F.outer):
        try:
            num, den = (np.asarray(v).item() for v in evaluate(pair, b))
        except ExprError:
            continue
        if fails_rule(num, den):
            raise DenominatorVanished(
                f"outer-map denominator {den} vanishes (|den| < "
                f"{functional.EPS_DENOMINATOR:g}*(1+|num|) with num={num})"
            )
    return np.array([np.asarray(v).item() for v in evaluate(exprs, b)])


def outer_exprs(F):
    return (F.outer,), F.outer_grad_exprs, F.second_partials[3]


class TestFloatOuterMap:
    """H, H' and H'' on (B, n) arrays of inner values, a lone value being a batch of one."""

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_matches_numpy_reference_bit_for_bit(self, seed, data):
        # Values, gradients and the typed error (DenominatorVanished,
        # DivisionByZero, DomainError) agree at every input, and so does outer_value.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        F = CompositeFunctional.from_strings(["v"] * n, random_outer_text(rng, n))
        us = np.array(data.draw(st.lists(OUTER_INPUTS, min_size=n, max_size=n)))
        for exprs in outer_exprs(F):
            want = outcome(lambda: numpy_reference_values(F, exprs, us))
            assert outcome(lambda: F._outer_values(exprs, us[None])[0]) == want
        want = outcome(lambda: numpy_reference_values(F, (F.outer,), us)[0])
        assert outcome(lambda: F.outer_value(us)) == want

    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_vanished_exactly_when_an_own_division_fails(self, seed, data):
        # Whatever the order of evaluation: H, H' and H'' raise
        # DenominatorVanished exactly when a division of H itself evaluates
        # and fails the EPS_DENOMINATOR rule.  The divisions of the partials
        # (by powers of H's denominators) are not tested.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        F = CompositeFunctional.from_strings(["v"] * n, random_outer_text(rng, n))
        us = np.array(data.draw(st.lists(OUTER_INPUTS, min_size=n, max_size=n)))
        b = {u: np.array([x]) for u, x in zip(F.outer_vars, us)}
        fails = False
        for num, den in own_divisions(F.outer):
            try:
                fails |= fails_rule(evaluate(num, b), evaluate(den, b))
            except ExprError:
                pass
        for exprs in outer_exprs(F):
            got = outcome(lambda: F._outer_values(exprs, us[None]))
            assert (got[0] is DenominatorVanished) == fails

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([7, 64]), st.data())
    def test_batch_rows_match_batches_of_one(self, seed, rows, data):
        # Each row of a batch is bit for bit its batch of one.  A batch raises
        # exactly where some row raises alone, and then what one of those rows
        # raises alone.  A few inputs per batch come from OUTER_INPUTS.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        F = CompositeFunctional.from_strings(["v"] * n, random_outer_text(rng, n))
        us = rng.standard_normal((rows, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (rows, n))
        for _ in range(data.draw(st.integers(0, 3))):
            us[int(rng.integers(rows)), int(rng.integers(n))] = data.draw(OUTER_INPUTS)
        for exprs in outer_exprs(F):
            lone = [outcome(lambda: F._outer_values(exprs, us[i : i + 1])) for i in range(rows)]
            failed = [got for got in lone if got[0] != "ok"]
            got = outcome(lambda: F._outer_values(exprs, us))
            if failed:
                assert got in failed
            else:
                assert got == ("ok", b"".join(bits for _, bits in lone))

    @pytest.mark.parametrize("rows", [[0, 2], [1, 2], [0, 1, 2], [2, 0, 2, 1]])
    def test_division_that_some_rows_cannot_evaluate(self, rows):
        # Row 0 cannot evaluate H's division (log of -1), row 1 fails its EPS
        # rule (num = e^30), row 2 passes.  H' = (1/u1/2, e^u2/2) has no log,
        # so row 0 alone gives H' and row 1 alone raises: so does any batch
        # holding row 1, and only such a batch.
        F = CompositeFunctional.from_strings(["v", "v"], "(log(u1) + exp(u2))/2")
        us = np.array([[-1.0, 0.0], [1.0, 30.0], [2.0, 1.0]])[rows]
        lone = [outcome(lambda: F.outer_gradient(u)) for u in us]
        assert [got[0] for got in lone] == [("ok", DenominatorVanished, "ok")[r] for r in rows]
        got = outcome(lambda: F.outer_gradient(us))
        if 1 in rows:
            assert got == lone[rows.index(1)]
        else:
            assert got == ("ok", b"".join(bits for _, bits in lone))

    @pytest.mark.parametrize(
        "us, vanished",
        [
            ((1.0, 1.0, 0.0), True),  # the inner division by u3
            ((1.0, 2.0, 1e-12), True),
            ((1.0, 1e-12, 1.0), True),  # the outer division by u2/u3
            ((1.0, np.nan, 0.0), False),  # NaN fails no rule; u2/u3 divides by 0
            ((1.0, 1e-4, 1.0), False),
        ],
    )
    def test_nested_division(self, us, vanished):
        F = CompositeFunctional.from_strings(["v"] * 3, "u1/(u2/u3)")
        for exprs in outer_exprs(F):
            got = outcome(lambda: F._outer_values(exprs, np.array([us]))[0])
            assert (got[0] is DenominatorVanished) == vanished
            assert got == outcome(lambda: numpy_reference_values(F, exprs, us))

    def test_partials_near_the_pole_are_finite(self):
        # H'' of u1/u2 divides by u2^4 = 1e-16; H's own denominator u2 = 1e-4
        # is far above the rule, so neither partial raises.
        F = CompositeFunctional.from_strings(["v", "v"], "u1/u2")
        us = np.array([1.0, 1e-4])
        np.testing.assert_allclose(F.outer_gradient(us), [1e4, -1e8])
        np.testing.assert_allclose(F.outer_hessian(us), [[0.0, -1e8], [-1e8, 2e12]])

    @pytest.mark.parametrize("den", [0.0, -0.0, 1e-12, -1e-300, np.nan])
    def test_denominators_near_zero_and_nan(self, den):
        F = CompositeFunctional.from_strings(["v", "v"], "u1 / u2")
        for us in (np.array([1.0, den]), np.array([np.nan, den])):
            for exprs in ((F.outer,), F.outer_grad_exprs):
                want = outcome(lambda: numpy_reference_values(F, exprs, us))
                assert outcome(lambda: F._outer_values(exprs, us[None])[0]) == want

    def test_overflowing_power_is_infinite(self):
        F = CompositeFunctional.from_strings(["v"], "u1^3")
        assert F.outer_value(np.array([-1e200])) == -np.inf
        assert F.outer_gradient(np.array([1e200]))[0] == np.inf


class TestBatchedOuterMap:
    """The oracle's values take one pass of the outer map per batch of trajectories."""

    def test_scan_makes_one_outer_pass_per_batch(self, monkeypatch):
        # Each batch's integrand pass is followed by one outer pass over the
        # batch's rows, for the grid and for every bisection step.
        spec = resolve_problem("quotient2_3pt").build()
        batches, passes = [], []
        real_samples, real_outer = oracle._samples, CompositeFunctional._outer_values

        def samples(exprs, b, *shape):
            batches.append(len(b["y"]))
            return real_samples(exprs, b, *shape)

        def outer(F, exprs, us):
            passes.append(len(us))
            return real_outer(F, exprs, us)

        monkeypatch.setattr(oracle, "_samples", samples)
        monkeypatch.setattr(CompositeFunctional, "_outer_values", outer)
        assert oracle.scan_low_dim(spec, [(-10.0, 10.0)], 401).has_roots
        assert len(batches) > 1 and passes == batches

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_values_match_value_under_any_outer_map(self, seed):
        # Random outer maps with powers and every function, such as
        # u1^3 - exp(u2)/u1: each row of oracle._values is bit for bit value
        # along that row, NaN where value raises.
        rng = np.random.default_rng(seed)
        spec, tr = random_problem(rng)
        n = int(rng.integers(1, 4))
        F = CompositeFunctional.from_strings(
            [random_polynomial(rng, INNER_VARS) for _ in range(n)], random_outer_text(rng, n))
        idx = decision_indices(spec)
        rows = rng.uniform(-2.0, 2.0, (int(rng.integers(1, 12)), idx.size))
        Z = np.concatenate([tr.x[idx][None], rows])
        want = []
        for z in Z:
            try:
                want.append(value(F, embed_decision(spec, z)))
            except (DenominatorVanished, DivisionByZero, DomainError):
                want.append(np.nan)
        got = oracle._values(spec, F, Z)
        assert np.where(np.isnan(got), np.nan, got).tobytes() == (
            np.where(np.isnan(want), np.nan, want).tobytes())
