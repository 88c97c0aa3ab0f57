"""Composite functionals H(F_1[x], ..., F_n[x]) on time-scale trajectories.

Each inner value F_i[x] is the delta integral over [a, b) of an integrand
f_i(t, y, v) sampled with y = x^sigma (the forward-shifted trajectory) and
v = x^delta (the delta derivative).  The outer map H combines the inner
values into the scalar objective.  The same type doubles for constraint
functionals P(G_1[x], ..., G_m[x]).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .expr import Div, DivisionByZero, DomainError, Expr, ExprError, _nodes, differentiate, evaluate
from .expr import expr_variables, parse
from .timescale import TimeScale, delta_derivative, delta_integral

__all__ = [
    "INNER_VARS",
    "CompositeFunctional",
    "Trajectory",
    "BoundarySpec",
    "DenominatorVanished",
    "ScaleMismatch",
    "inner_values",
    "value",
    "c1rd_distance",
]

INNER_VARS = ("t", "y", "v")

# H's own divisions fail loudly where |den| < EPS_DENOMINATOR*(1 + |num|), as
# quotient objectives are only meaningful away from that set.  H's partials
# divide by powers of these denominators and raise only at an exact zero.
EPS_DENOMINATOR = 1e-9
# Embedded samples per batch of trajectories (oracle._values, lockstep Newton runs).
_BATCH_SAMPLES = 1 << 16


class DenominatorVanished(ArithmeticError):
    """One of the outer map's own divisions was evaluated too close to a zero denominator."""


# What evaluating a functional may raise: a failure of that trajectory alone.
_EVAL_ERRORS = (DenominatorVanished, DomainError, DivisionByZero)


class ScaleMismatch(ValueError):
    """Two trajectories live on different time scales."""


class CompositeFunctional:
    """Inner integrands over (t, y, v) plus an outer map over (u1..un).

    First partial derivatives of the integrands with respect to y and v and
    of the outer map with respect to each u_i are differentiated once at
    construction and cached; second partials (needed for exact Newton
    matrices) are derived lazily on first use.
    """

    __slots__ = (
        "inner",
        "outer",
        "n",
        "outer_vars",
        "inner_y",
        "inner_v",
        "outer_grad_exprs",
        "_divisions",
        "_second",
    )

    def __init__(self, inner: Sequence[Expr], outer: Expr):
        inner = tuple(inner)
        if not inner:
            raise ValueError("need at least one inner integrand")
        self.inner = inner
        self.outer = outer
        self.n = len(inner)
        self.outer_vars = tuple(f"u{i + 1}" for i in range(self.n))
        for f in inner:
            extra = expr_variables(f) - set(INNER_VARS)
            if extra:
                raise ValueError(
                    f"inner integrand uses unknown variables {sorted(extra)}"
                )
        extra = expr_variables(outer) - set(self.outer_vars)
        if extra:
            raise ValueError(
                f"outer map uses variables {sorted(extra)} outside u1..u{self.n}"
            )
        self.inner_y = tuple(differentiate(f, "y") for f in inner)
        self.inner_v = tuple(differentiate(f, "v") for f in inner)
        self.outer_grad_exprs = tuple(
            differentiate(outer, u) for u in self.outer_vars
        )
        # (numerator, denominator) of H's own divisions, innermost first.
        self._divisions = [(d.lhs, d.rhs) for d in reversed(_nodes(outer)) if isinstance(d, Div)]
        self._second = None

    @classmethod
    def from_strings(cls, inner: Sequence[str], outer: str) -> "CompositeFunctional":
        inner_exprs = [parse(text, INNER_VARS) for text in inner]
        outer_vars = tuple(f"u{i + 1}" for i in range(len(inner_exprs)))
        return cls(inner_exprs, parse(outer, outer_vars))

    # -- cached second partials -------------------------------------------

    @property
    def second_partials(self):
        """(f_yy, f_yv, f_vv, outer Hessian exprs row by row), derived on first use."""
        if self._second is None:
            inner_yy = tuple(differentiate(g, "y") for g in self.inner_y)
            inner_yv = tuple(differentiate(g, "v") for g in self.inner_y)
            inner_vv = tuple(differentiate(g, "v") for g in self.inner_v)
            outer_hess = tuple(
                differentiate(g, u) for g in self.outer_grad_exprs for u in self.outer_vars
            )
            self._second = (inner_yy, inner_yv, inner_vv, outer_hess)
        return self._second

    # -- outer-map evaluation (guarded) -------------------------------------

    def _outer_values(self, exprs, us: np.ndarray):
        """The expressions at each row of the (B, n) inner values us, as (B, len(exprs))
        arrays; with no expressions (None), only the test of H's own divisions.

        Each of H's divisions that evaluates is tested first, innermost first, on the whole
        batch, one array comparison each, so a batch raises where some row raises alone and
        a batch of one raises what value raises; a division that some row cannot evaluate
        is tested on each half of the batch, recursively."""
        b = dict(zip(self.outer_vars, us.T))
        for pair in self._divisions:
            try:
                num, den = evaluate(pair, b)
            except ExprError:
                if len(us) == 1:
                    continue  # alone, the trees themselves raise what applies
                for half in np.array_split(us, 2):
                    self._outer_values(None, half)
                break
            bad = abs(den) < EPS_DENOMINATOR * (1.0 + abs(num))
            if np.count_nonzero(bad):  # report the first failing row
                i = np.argmax(bad) if np.ndim(bad) else 0
                num, den = (float(np.broadcast_to(v, len(us))[i]) for v in (num, den))
                raise DenominatorVanished(f"outer-map denominator {den} vanishes (|den| < "
                                          f"{EPS_DENOMINATOR:g}*(1+|num|) with num={num})")
        return _samples(exprs, b, us.shape[:1]) if exprs else None

    def outer_value(self, us) -> float:
        """H at the (n,) inner values us: a batch of one."""
        us = np.asarray(us, dtype=float).reshape(1, -1)
        return float(self._outer_values((self.outer,), us)[0, 0])

    def outer_gradient(self, us) -> np.ndarray:
        """H' at the (n,) or (B, n) inner values us, one row per trajectory, on arrays."""
        return self._outer_values(self.outer_grad_exprs, np.atleast_2d(us)).reshape(np.shape(us))

    def outer_hessian(self, us) -> np.ndarray:
        """H'' at the (n,) or (B, n) inner values us, (n, n) per trajectory, on arrays."""
        hess = self._outer_values(self.second_partials[3], np.atleast_2d(us))
        return hess.reshape(np.shape(us) + (self.n,))

    def __repr__(self) -> str:
        inner = ", ".join(str(f) for f in self.inner)
        return f"CompositeFunctional([{inner}], {self.outer})"


class Trajectory:
    """Candidate trajectory: one value per scale point plus derived caches.

    ``x_sigma[i] = x[sigma(i)]`` and ``x_delta`` is the delta derivative on
    the kappa points.  All arrays are read-only, so trajectories can be
    shared freely.  ``partials`` caches one evaluation record of the sampled
    partials per functional (see :mod:`deltavar.euler_lagrange`); filling it
    under a race only builds an equal record twice, so it is idempotent.
    """

    __slots__ = ("ts", "x", "x_sigma", "x_delta", "partials")

    def __init__(self, ts: TimeScale, values):
        x = np.asarray(values, dtype=float).ravel().copy()
        if x.size != len(ts):
            raise ValueError(
                f"trajectory has {x.size} samples, scale has {len(ts)} points"
            )
        self._own(ts, x, np.concatenate([x[1:], x[-1:]]), delta_derivative(ts, x))

    def _own(self, ts: TimeScale, x, x_sigma, x_delta) -> "Trajectory":
        for arr in (x, x_sigma, x_delta):
            arr.setflags(write=False)
        self.ts, self.x, self.x_sigma, self.x_delta, self.partials = ts, x, x_sigma, x_delta, {}
        return self

    @classmethod
    def _rows(cls, ts: TimeScale, X: np.ndarray) -> tuple[list["Trajectory"], dict]:
        """One trajectory per row of the (B, N) samples X, viewing its row of the batch (which
        it keeps alive), and the rows' integrand bindings (see :func:`_integrand_bindings`)."""
        sigma = np.concatenate((X[:, 1:], X[:, -1:]), axis=1)
        delta = (X[:, 1:] - X[:, :-1]) / ts.steps  # delta_derivative, row by row
        trs = [cls.__new__(cls)._own(ts, *rows) for rows in zip(X, sigma, delta)]
        return trs, {"t": ts.points[:-1], "y": sigma[:, :-1], "v": delta}

    def __repr__(self) -> str:
        return f"Trajectory(n={len(self.ts)}, x[0]={self.x[0]:g}, x[-1]={self.x[-1]:g})"


@dataclass(frozen=True)
class BoundarySpec:
    """End-point conditions: a float pins the value, None leaves it free."""

    left: Optional[float] = None
    right: Optional[float] = None

    def __post_init__(self):
        for side, v in (("left", self.left), ("right", self.right)):
            if v is not None and not np.isfinite(v):
                raise ValueError(f"{side} boundary value must be finite, got {v!r}")

    @classmethod
    def fixed(cls, x_a: float, x_b: float) -> "BoundarySpec":
        return cls(left=float(x_a), right=float(x_b))

    @property
    def left_fixed(self) -> bool:
        return self.left is not None

    @property
    def right_fixed(self) -> bool:
        return self.right is not None


def _integrand_bindings(trs: Sequence[Trajectory]) -> dict:
    """t, y and v over [a, b) (the maximal point dropped), y and v one (B, N - 1) row
    per trajectory of trs, on one scale, stacked: a lone trajectory is a batch of one."""
    return {"t": trs[0].ts.points[:-1], "y": np.array([tr.x_sigma[:-1] for tr in trs]),
            "v": np.array([tr.x_delta for tr in trs])}


def _samples(exprs: tuple, b: dict, shape: Optional[tuple] = None) -> np.ndarray:
    """Each expression sampled over the bindings, broadcast to ``shape`` (B, ...) (the
    integrands': y's (B, N - 1)) and stacked on axis 1, so row i is trajectory i's."""
    shape = shape or b["y"].shape
    out = np.empty((shape[0], len(exprs), *shape[1:]))
    # Assignment broadcasts constant expressions, which give scalars.
    for i, values in enumerate(evaluate(exprs, b)):
        out[:, i] = values
    return out


def inner_values(functional: CompositeFunctional, tr: Trajectory) -> np.ndarray:
    """The vector of inner integrals F_i[x], summed left to right."""
    samples = _samples(functional.inner, _integrand_bindings([tr]))[0]
    return np.array([delta_integral(tr.ts, row) for row in samples])


def value(functional: CompositeFunctional, tr: Trajectory) -> float:
    """The composite value H(F_1[x], ..., F_n[x]).

    Raises :class:`DenominatorVanished` when one of the outer map's own
    divisions fails the ``EPS_DENOMINATOR`` rule at the inner values, and
    propagates the evaluator's DivisionByZero and DomainError otherwise.
    """
    us = inner_values(functional, tr)
    return functional.outer_value(us)


def c1rd_distance(tr1: Trajectory, tr2: Trajectory) -> float:
    """Distance in the weak norm: sup |x1^sigma - x2^sigma| + sup |x1^delta - x2^delta|.

    The sigma part ranges over all points, the delta part over the kappa
    points (the delta derivative does not exist at the maximal point).
    """
    if tr1.ts is not tr2.ts and tr1.ts != tr2.ts:
        raise ScaleMismatch("trajectories live on different time scales")
    d_sigma = float(np.max(np.abs(tr1.x_sigma - tr2.x_sigma)))
    d_delta = float(np.max(np.abs(tr1.x_delta - tr2.x_delta)))
    return d_sigma + d_delta
