"""Shared helpers: random problem generation for the property suites."""
from __future__ import annotations

import sys

import numpy as np
import pytest

from deltavar import (
    BoundarySpec,
    CompositeFunctional,
    IsoConstraint,
    ProblemSpec,
    Trajectory,
    inner_values,
    make_timescale,
)


def random_polynomial(rng: np.random.Generator, vars: tuple[str, ...],
                      max_terms: int = 3, max_degree: int = 2) -> str:
    """A random polynomial over `vars` as parseable text, e.g. '1.25*t^2*v - 0.5'."""
    terms = []
    n_terms = int(rng.integers(1, max_terms + 1))
    for _ in range(n_terms):
        coeff = round(float(rng.uniform(-2.0, 2.0)), 3)
        if coeff == 0.0:
            coeff = 0.5
        factors = [f"{coeff}"]
        for name in vars:
            deg = int(rng.integers(0, max_degree + 1))
            if deg == 1:
                factors.append(name)
            elif deg > 1:
                factors.append(f"{name}^{deg}")
        terms.append("*".join(factors))
    return " + ".join(terms)


def random_timescale(rng: np.random.Generator, min_points: int = 3,
                     max_points: int = 20):
    kind = rng.choice(["points", "uniform", "qscale"])
    n = int(rng.integers(min_points, max_points + 1))
    if kind == "points":
        pts = np.sort(rng.uniform(-1.0, 2.0, size=n))
        while np.any(np.diff(pts) < 1e-3):
            pts = np.sort(rng.uniform(-1.0, 2.0, size=n))
        return make_timescale("points", values=pts)
    if kind == "uniform":
        a = float(rng.uniform(-1.0, 0.0))
        h = float(rng.uniform(0.05, 0.4))
        return make_timescale("uniform", a=a, b=a + (n - 1) * h, h=h)
    # Keep q**kmax modest so random polynomial integrands stay well scaled.
    n = min(n, 10)
    q = float(rng.uniform(1.1, 1.4))
    return make_timescale("qscale", q=q, kmin=0, kmax=max(n - 1, 2))


def graded_timescale(rng: np.random.Generator):
    """3 to 60 random points whose steps are log-uniform over two to four decades."""
    n = int(rng.integers(3, 61))
    decades = float(rng.uniform(2.0, 4.0))
    steps = 10.0 ** rng.uniform(-decades, 0.0, size=n - 1)
    return make_timescale("points", values=np.concatenate([[0.0], np.cumsum(steps)]) - 0.5)


def random_problem(rng: np.random.Generator, allow_free_ends: bool = True, ts=None):
    """A random (spec, trajectory) pair safe for gradient identities.

    The time scale is ``ts`` if given, else a random one.  Quotient outer
    maps are retried until the denominator integral is well away from zero
    at the sampled trajectory.
    """
    if ts is None:
        ts = random_timescale(rng)
    family = rng.choice(["identity", "product", "quotient", "poly"])
    for _ in range(40):
        if family == "identity":
            inner = [random_polynomial(rng, ("t", "y", "v"))]
            outer = "u1"
        elif family == "product":
            inner = [random_polynomial(rng, ("t", "y", "v")) for _ in range(2)]
            outer = "u1 * u2"
        elif family == "quotient":
            inner = [random_polynomial(rng, ("t", "y", "v")) for _ in range(2)]
            outer = "u1 / u2"
        else:
            n = int(rng.integers(1, 4))
            inner = [random_polynomial(rng, ("t", "y", "v")) for _ in range(n)]
            outer = random_polynomial(rng, tuple(f"u{i + 1}" for i in range(n)))
        functional = CompositeFunctional.from_strings(inner, outer)

        x = rng.uniform(-1.0, 1.0, size=len(ts))
        if allow_free_ends:
            left = None if rng.random() < 0.3 else float(x[0])
            right = None if rng.random() < 0.3 else float(x[-1])
        else:
            left, right = float(x[0]), float(x[-1])
        spec = ProblemSpec(
            ts=ts, lagrangian=functional, bc=BoundarySpec(left=left, right=right)
        )
        tr = Trajectory(ts, x)
        if family == "quotient":
            us = inner_values(functional, tr)
            if abs(us[1]) < 0.2:
                continue
        try:
            from deltavar import value

            value(functional, tr)
        except Exception:
            continue
        return spec, tr
    raise RuntimeError("could not generate a well-posed random problem")


def random_constraint(rng: np.random.Generator) -> IsoConstraint:
    """A random isoperimetric constraint with a polynomial outer map."""
    inner = [random_polynomial(rng, ("t", "y", "v")) for _ in range(2)]
    outer = str(rng.choice(["u1", "u1 * u2", "u1 + u2^2"]))
    return IsoConstraint(CompositeFunctional.from_strings(inner, outer), 0.0)


@pytest.fixture
def recursion_limit():
    """Python's default recursion limit of 1000 for one test, whatever a runner set.

    Tests of expressions too deep to process build trees deeper than this.
    """
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield 1000
    sys.setrecursionlimit(old)
