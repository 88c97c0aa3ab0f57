import numpy as np
import pytest
from conftest import random_timescale

from deltavar import (
    FewerThanThreePoints,
    NonPositiveStep,
    PointNotFound,
    QNotGreaterThanOne,
    delta_derivative,
    delta_integral,
    make_timescale,
)
from deltavar.timescale import LOOKUP_REL_TOL, TimeScale


class TestMakeTimescale:
    def test_three_point_scale(self):
        ts = make_timescale("points", values=[0, 0.5, 1])
        assert list(ts.points) == [0, 0.5, 1]
        assert [ts.graininess(i) for i in range(3)] == [0.5, 0.5, 0.0]

    def test_uniform_rejects_two_points(self):
        with pytest.raises(FewerThanThreePoints):
            make_timescale("uniform", a=0, b=1, h=1)

    def test_uniform_rejects_misfit_step(self):
        with pytest.raises(ValueError):
            make_timescale("uniform", a=0, b=1, h=0.3)

    def test_qscale_powers(self):
        ts = make_timescale("qscale", q=2, kmin=0, kmax=3)
        assert list(ts.points) == [1, 2, 4, 8]

    def test_qscale_requires_q_above_one(self):
        with pytest.raises(QNotGreaterThanOne):
            make_timescale("qscale", q=1.0, kmax=4)

    def test_nonpositive_step(self):
        with pytest.raises(NonPositiveStep):
            make_timescale("interval", a=0, b=1, h=0)

    @pytest.mark.parametrize("kind", ["interval", "uniform"])
    @pytest.mark.parametrize("h", [float("nan"), float("inf")])
    def test_non_finite_step(self, kind, h):
        # nan once failed in int(round(...)); inf gave a three-point grid.
        with pytest.raises(NonPositiveStep):
            make_timescale(kind, a=0, b=1, h=h)

    def test_points_deduplicated_and_sorted(self):
        ts = make_timescale("points", values=[1, 0, 0.5, 0.5 + 1e-16])
        assert len(ts) == 3
        assert list(ts.points) == [0, 0.5, 1]

    def test_points_far_below_the_span_are_kept(self):
        # A span-relative merge tolerance (1e-3 here) once kept only 3 of these.
        values = [0, 1e-4, 2e-4, 1, 1e9]
        assert list(make_timescale("points", values=values).points) == values

    def test_points_too_few_after_dedup(self):
        with pytest.raises(FewerThanThreePoints):
            make_timescale("points", values=[0, 0, 1])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_points_reject_non_finite(self, bad):
        # Non-finite values once made every neighbour comparison false and
        # were reported as "need at least 3 distinct points, got 1".
        with pytest.raises(ValueError, match=f"must be finite, got {bad!r}") as err:
            make_timescale("points", values=[0, bad, 1, 2])
        assert not isinstance(err.value, FewerThanThreePoints)

    def test_union_merges(self):
        ts = make_timescale(
            "union",
            parts=[make_timescale("points", values=[0, 1, 2]), [1.5, 2, 3]],
        )
        assert list(ts.points) == [0, 1, 1.5, 2, 3]
        assert ts.kind == "union"

    def test_interval_adjusts_step(self):
        ts = make_timescale("interval", a=0, b=1, h=0.3)
        assert ts.a == 0 and ts.b == 1
        assert len(ts) >= 3


class TestJumpOperators:
    def test_sigma_forward(self):
        ts = make_timescale("uniform", a=0, b=4, h=1)
        assert ts.sigma(3) == 4
        assert ts.points[ts.sigma(3)] == ts.points[3] + 1

    def test_sigma_fixes_maximum(self):
        ts = make_timescale("points", values=[0, 0.5, 1])
        assert ts.sigma(2) == 2

    def test_sigma_qscale_doubles(self):
        ts = make_timescale("qscale", q=2, kmax=3)
        i = ts.index_of(4.0)
        assert ts.points[ts.sigma(i)] == 8.0

    def test_rho_backward(self):
        ts = make_timescale("uniform", a=0, b=4, h=1)
        assert ts.points[ts.rho(3)] == 2.0

    def test_rho_fixes_minimum(self):
        ts = make_timescale("points", values=[0, 0.5, 1])
        assert ts.rho(0) == 0

    def test_rho_qscale_halves(self):
        ts = make_timescale("qscale", q=2, kmax=3)
        i = ts.index_of(8.0)
        assert ts.points[ts.rho(i)] == 4.0

    def test_graininess_integer_scale(self):
        ts = make_timescale("uniform", a=0, b=5, h=1)
        assert all(ts.graininess(i) == 1.0 for i in range(5))

    def test_graininess_qscale(self):
        ts = make_timescale("qscale", q=2, kmax=3)
        assert ts.graininess(ts.index_of(4.0)) == 4.0

    def test_graininess_zero_at_maximum(self):
        ts = make_timescale("points", values=[0, 0.5, 1])
        assert ts.graininess(2) == 0.0

    def test_jump_consistency_interior(self):
        rng = np.random.default_rng(7)
        pts = np.sort(rng.uniform(0, 10, size=12))
        ts = make_timescale("points", values=pts)
        for i in range(1, len(ts) - 1):
            assert ts.rho(ts.sigma(i)) == i
            assert ts.sigma(ts.rho(i)) == i


class TestKappaAndRegularity:
    @pytest.mark.parametrize(
        "ts, expected",
        [
            (make_timescale("points", values=[0, 0.5, 1]), 2),
            (make_timescale("uniform", a=0, b=4, h=1), 4),
            (make_timescale("qscale", q=2, kmax=3), 3),
        ],
    )
    def test_kappa_count(self, ts, expected):
        assert ts.kappa_count() == expected

    def test_regularity_report(self):
        ts = make_timescale("points", values=[0, 0.5, 1])
        report = ts.is_regular()
        # sigma(rho(min)) jumps past the minimum; rho(sigma(max)) falls short.
        assert not report.sigma_rho[0]
        assert not report.rho_sigma[-1]
        assert report.sigma_rho[1] and report.rho_sigma[1]
        assert not report.regular

    def test_interior_regular_on_uniform(self):
        ts = make_timescale("uniform", a=0, b=1, h=0.25)
        report = ts.is_regular()
        assert report.sigma_rho[1:].all()
        assert report.rho_sigma[:-1].all()


class TestLookup:
    def test_index_of_exact(self):
        ts = make_timescale("points", values=[0, 0.5, 1])
        assert ts.index_of(0.5) == 1

    def test_index_of_tolerant(self):
        ts = make_timescale("points", values=[0, 0.5, 1])
        assert ts.index_of(0.5 + 1e-14) == 1

    def test_index_of_missing(self):
        ts = make_timescale("points", values=[0, 0.5, 1])
        with pytest.raises(PointNotFound):
            ts.index_of(0.25)

    def test_index_of_on_a_wide_q_scale(self):
        # The span is about 1.1e15: a span-relative tolerance once took t = 2 for t = 1.
        ts = make_timescale("qscale", q=2, kmax=50)
        assert [ts.index_of(2.0**k) for k in range(51)] == list(range(51))
        assert ts.indices_of(ts.points * (1 + 1e-13)).tolist() == list(range(51))
        with pytest.raises(PointNotFound):
            ts.index_of(2.0 * (1 + 1e-11))

    def test_indices_of_matches_scalar_lookup(self):
        # Random scales, plus one whose first two points lie inside one
        # span-relative tolerance, so that the tie rule decides the match.
        rng = np.random.default_rng(5)
        scales = [TimeScale([0.0, 8e-13, 0.5])]
        scales += [random_timescale(rng) for _ in range(40)]
        for ts in scales:
            tol = LOOKUP_REL_TOL * max(ts.span, 1.0)
            picks = ts.points[rng.integers(0, len(ts), 30)]
            t = picks + rng.choice([-1.5, -0.5, 0.0, 0.5, 1.5], 30) * tol
            t = np.append(t, [4e-13, np.nan])
            expected = [_scalar_index_of(ts, v) for v in t]
            found = np.array([i is not None for i in expected])
            assert ts.indices_of(t[found]).tolist() == [i for i in expected if i is not None]
            with pytest.raises(PointNotFound) as err:
                ts.indices_of(t)
            first_missing = t[np.argmin(found)]
            assert err.value.value == first_missing or np.isnan(first_missing)


def _scalar_index_of(ts, t):
    """The nearest point, ties to the lower one, within its tolerance; None when unmatched."""
    if np.isnan(t):
        return None
    i = min(range(len(ts)), key=lambda k: (abs(ts.points[k] - t), k))
    near = min(ts.steps[max(i - 1, 0)], ts.steps[min(i, len(ts) - 2)])
    return i if abs(ts.points[i] - t) <= LOOKUP_REL_TOL * max(abs(ts.points[i]), near) else None


class TestDeltaDerivative:
    def test_square_on_integers(self):
        ts = make_timescale("uniform", a=0, b=5, h=1)
        t = ts.points
        xd = delta_derivative(ts, t**2)
        assert np.allclose(xd, 2 * t[:-1] + 1)

    def test_identity_on_qscale(self):
        ts = make_timescale("qscale", q=2, kmax=4)
        xd = delta_derivative(ts, ts.points)
        assert np.allclose(xd, 1.0)

    def test_three_point_formula(self):
        ts = make_timescale("points", values=[0, 0.5, 1])
        for w in (-1.0, 0.3, 2.0):
            xd = delta_derivative(ts, [0.0, w, 1.0])
            assert xd == pytest.approx([2 * w, 2 * (1 - w)], abs=1e-15)

    def test_length_mismatch(self):
        ts = make_timescale("points", values=[0, 0.5, 1])
        with pytest.raises(ValueError):
            delta_derivative(ts, [0.0, 1.0])

    def test_overflow_gives_inf_without_warning(self):
        # The suite turns a RuntimeWarning into an error.
        ts = make_timescale("points", values=[0, 0.5, 1, 1.5])
        xd = delta_derivative(ts, [-1e308, 1e308, np.inf, np.inf])
        assert xd[:2].tolist() == [np.inf, np.inf] and np.isnan(xd[2])

    def test_first_order_convergence_to_derivative(self):
        # Sampled smooth function: the forward quotient converges at rate h.
        errs = []
        for h in (0.01, 0.005, 0.0025):
            ts = make_timescale("uniform", a=0.0, b=1.0, h=h)
            t = ts.points
            xd = delta_derivative(ts, np.sin(t))
            errs.append(np.max(np.abs(xd - np.cos(t[:-1]))))
        order = np.log(errs[0] / errs[2]) / np.log(4.0)
        assert 0.9 <= order <= 1.1


class TestDeltaIntegral:
    def test_integer_scale_sum(self):
        ts = make_timescale("uniform", a=0, b=3, h=1)
        assert delta_integral(ts, ts.points[:-1]) == 3.0

    def test_single_step_equals_mu_times_value(self):
        ts = make_timescale("points", values=[0, 0.5, 1])
        samples = np.array([4.0, 7.0])
        assert delta_integral(ts, samples, start=0, stop=1) == 0.5 * 4.0

    def test_qscale_measure(self):
        ts = make_timescale("qscale", q=2, kmax=3)
        assert delta_integral(ts, np.ones(3)) == pytest.approx(7.0)

    def test_additivity_random_scales(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = int(rng.integers(5, 30))
            pts = np.sort(rng.uniform(0, 5, size=n))
            if np.any(np.diff(pts) < 1e-6):
                continue
            ts = make_timescale("points", values=pts)
            f = rng.standard_normal(n - 1)
            c = int(rng.integers(1, n - 1))
            whole = delta_integral(ts, f)
            split = delta_integral(ts, f, 0, c) + delta_integral(ts, f, c)
            assert abs(whole - split) <= 1e-12 * (1 + abs(whole))

    def test_left_to_right_summation_matches_plain_loop(self):
        rng = np.random.default_rng(11)
        pts = np.sort(rng.uniform(0, 1, size=40))
        ts = make_timescale("points", values=pts)
        f = rng.standard_normal(len(ts) - 1) * 1e6
        expected = 0.0
        for k in range(len(ts) - 1):
            expected += ts.steps[k] * f[k]
        assert delta_integral(ts, f) == expected


def _poly_samples(rng, ts):
    coeffs = rng.uniform(-2, 2, size=4)
    return np.polyval(coeffs, ts.points)


class TestIntegrationByParts:
    def test_both_forms_on_random_scales(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            n = int(rng.integers(4, 25))
            pts = np.sort(rng.uniform(-1, 3, size=n))
            if np.any(np.diff(pts) < 1e-5):
                continue
            ts = make_timescale("points", values=pts)
            f = _poly_samples(rng, ts)
            g = _poly_samples(rng, ts)
            fd = delta_derivative(ts, f)
            gd = delta_derivative(ts, g)
            boundary = f[-1] * g[-1] - f[0] * g[0]
            scale = 1 + abs(boundary) + np.max(np.abs(f)) * np.max(np.abs(g))

            lhs1 = delta_integral(ts, f[1:] * gd)
            rhs1 = boundary - delta_integral(ts, fd * g[:-1])
            assert abs(lhs1 - rhs1) <= 1e-10 * scale

            lhs2 = delta_integral(ts, f[:-1] * gd)
            rhs2 = boundary - delta_integral(ts, fd * g[1:])
            assert abs(lhs2 - rhs2) <= 1e-10 * scale
