import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from deltavar import functional
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


# Inner values that reach every branch of the float evaluation: signed zeros,
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


def numpy_scalar_values(F, exprs, us):
    """The outer-map values as evaluated on numpy scalars, one per inner value."""
    b = dict(zip(F.outer_vars, np.asarray(us, dtype=float)))
    values = evaluate(exprs, b, division_guard=functional._outer_division_guard)
    return np.array([float(v) for v in values])


class TestFloatOuterMap:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_matches_numpy_scalars_bit_for_bit(self, seed, data):
        # Values, gradients and the typed error (DenominatorVanished,
        # DivisionByZero, DomainError) agree at every input.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 4))
        F = CompositeFunctional.from_strings(["v"] * n, random_outer_text(rng, n))
        us = np.array(data.draw(st.lists(OUTER_INPUTS, min_size=n, max_size=n)))
        for exprs in ((F.outer,), F.outer_grad_exprs):
            want = outcome(lambda: numpy_scalar_values(F, exprs, us))
            assert outcome(lambda: F._outer_values(exprs, us)) == want

    @pytest.mark.parametrize("den", [0.0, -0.0, 1e-12, -1e-300, np.nan])
    def test_denominators_near_zero_and_nan(self, den):
        F = CompositeFunctional.from_strings(["v", "v"], "u1 / u2")
        for us in (np.array([1.0, den]), np.array([np.nan, den])):
            for exprs in ((F.outer,), F.outer_grad_exprs):
                want = outcome(lambda: numpy_scalar_values(F, exprs, us))
                assert outcome(lambda: F._outer_values(exprs, us)) == want

    def test_overflowing_power_is_infinite(self):
        F = CompositeFunctional.from_strings(["v"], "u1^3")
        assert F.outer_value(np.array([-1e200])) == -np.inf
        assert F.outer_gradient(np.array([1e200]))[0] == np.inf
