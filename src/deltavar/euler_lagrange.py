"""First-order stationarity residuals and the exact finite-dimensional gradient.

For a composite functional H(F_1, ..., F_n) on a finite scale the value is a
smooth function of the sample values x_0..x_{N-1}; the decision variables
are all interior samples plus any free endpoint.  The chain rule gives the
exact gradient, and the classical residuals follow from it:

* interior point t_j:  d(value)/dx_j = -mu(rho(t_j)) * EL(rho(t_j)), where
  EL(t) = sum_i H'_i(F) * (f_iv^Delta(t) - f_iy(t)) is the Euler-Lagrange
  expression sampled along the trajectory;
* free left endpoint:  d(value)/dx_a = -sum_i H'_i(F) * f_iv(a);
* free right endpoint: d(value)/dx_b = +sum_i H'_i(F) *
  (f_iv(rho(b)) + mu(rho(b)) * f_iy(rho(b))).

Those identities are the implementation: the sampled partials of each
functional are evaluated once per trajectory into a record cached on it,
the gradient is H'(F) times the inner-integral gradients, and the
Euler-Lagrange residual and both natural conditions are read off the
gradient's entries.  A vanishing gradient is thus a certificate for the
Euler-Lagrange equation at every interior point together with the natural
boundary conditions at free endpoints.  The Hessian and the
constancy-of-motion quantity read the same record.  The constancy quantity
E(t) = sum_i H'_i * (f_iv(t) - integral_a^t f_iy) is exposed as a further
stationarity diagnostic: its spread over the kappa points vanishes at
stationary trajectories.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .expr import ExprError
from .functional import (
    BoundarySpec,
    CompositeFunctional,
    Trajectory,
    _integrand_bindings,
    _samples,
    inner_values,
)
from .timescale import TimeScale

__all__ = [
    "IsoConstraint",
    "ProblemSpec",
    "ResidualReport",
    "EndpointNotFree",
    "BothMultipliersZero",
    "decision_indices",
    "embed_decision",
    "extract_decision",
    "el_residual",
    "natural_bc_left",
    "natural_bc_right",
    "functional_gradient",
    "hessian_parts",
    "constraint_gradient",
    "dubois_reymond_quantity",
    "dubois_reymond_spread",
    "isoperimetric_residual",
    "residual_report",
]


class EndpointNotFree(ValueError):
    """A natural boundary condition was requested at a fixed endpoint."""


class BothMultipliersZero(ValueError):
    """The multiplier pair (lambda0, lambda) must not be identically zero."""


@dataclass(frozen=True)
class IsoConstraint:
    """An isoperimetric side condition: P(G_1[x], ..., G_m[x]) = target."""

    functional: CompositeFunctional
    target: float


@dataclass(frozen=True)
class ProblemSpec:
    """A variational problem: scale, objective, boundary data, optional constraint."""

    ts: TimeScale
    lagrangian: CompositeFunctional
    bc: BoundarySpec
    constraint: Optional[IsoConstraint] = None

    def __post_init__(self):
        if self.constraint is not None and not (
            self.bc.left_fixed and self.bc.right_fixed
        ):
            raise ValueError(
                "isoperimetric problems require both endpoint values fixed"
            )
        # decision_indices, made once per spec (read-only; not a field).
        idx = np.arange(int(self.bc.left_fixed), len(self.ts) - int(self.bc.right_fixed))
        idx.setflags(write=False)
        object.__setattr__(self, "_decision", idx)


@dataclass(frozen=True)
class ResidualReport:
    """Stationarity residuals for one trajectory.

    ``el`` holds the Euler-Lagrange residual at the first kappa_count - 1
    points (the last kappa point is dropped because the residual there would
    reference the delta derivative at the maximum, which does not exist on a
    finite scale).  ``nat_left``/``nat_right`` are None at fixed endpoints.
    """

    el: np.ndarray
    nat_left: Optional[float]
    nat_right: Optional[float]
    dr_constancy_spread: float

    @property
    def el_max(self) -> float:
        return float(np.max(np.abs(self.el))) if self.el.size else 0.0

    @property
    def max_residual(self) -> float:
        worst = self.el_max
        for v in (self.nat_left, self.nat_right):
            if v is not None:
                worst = max(worst, abs(v))
        return worst


# -- decision-variable bookkeeping -------------------------------------------


def decision_indices(spec: ProblemSpec) -> np.ndarray:
    """Indices of the sample values the solver may move (always contiguous)."""
    return spec._decision


def embed_decision(spec: ProblemSpec, z) -> Trajectory:
    """Expand a decision vector into a full trajectory (fixed ends filled in)."""
    idx = decision_indices(spec)
    z = np.asarray(z, dtype=float).ravel()
    if z.size != idx.size:
        raise ValueError(f"expected {idx.size} decision values, got {z.size}")
    x = np.empty(len(spec.ts))
    x[idx] = z
    if spec.bc.left_fixed:
        x[0] = spec.bc.left
    if spec.bc.right_fixed:
        x[-1] = spec.bc.right
    return Trajectory(spec.ts, x)


def extract_decision(spec: ProblemSpec, tr: Trajectory) -> np.ndarray:
    """The decision sub-vector of a trajectory's samples."""
    return tr.x[decision_indices(spec)].copy()


# -- sampled partial derivatives ----------------------------------------------


class _Partials:
    """One evaluation of a functional's sampled partials along one trajectory.

    One sampling pass gives f and the samples ``fy``/``fv`` (one row per
    inner integrand); the inner values ``us`` sum mu * f left to right, bit
    for bit :func:`inner_values`.  The record holds ``us``, the outer weights
    ``w = H'(us)``, the inner-integral gradients ``rows`` over all N samples
    and ``g = w @ rows``; second partials and outer Hessian come on first
    use.  It keeps the trajectory's arrays but not the trajectory, so the
    trajectory's cache forms no reference cycle.
    """

    __slots__ = ("us", "w", "fy", "fv", "rows", "g", "_F", "_bindings", "_second")

    def __init__(self, F: CompositeFunctional, tr: Trajectory):
        b, n = _integrand_bindings(tr), F.n
        try:
            samples = _samples(F.inner + F.inner_y + F.inner_v, b)
        except ExprError:  # raise what passes over f, H'(us), then f_y and f_v raised first
            F.outer_gradient(inner_values(F, tr))
            raise
        self.fy, self.fv = samples[n : 2 * n], samples[2 * n :]
        with np.errstate(over="ignore", invalid="ignore"):  # +inf and -inf sum to nan, as in value
            weighted = tr.ts.steps * samples[: 2 * n]  # mu * f, then mu * f_y
            self.us = weighted[:n].cumsum(axis=1)[:, -1].copy()
        self.w = F.outer_gradient(self.us)
        # Sample x_{j+1} enters interval j through y = x_{j+1} and
        # v = (x_{j+1} - x_j)/mu_j; sample x_j only through v.
        rows = self.rows = np.zeros((n, len(tr.ts)))
        rows[:, 1:] = weighted[n:] + self.fv
        rows[:, :-1] -= self.fv
        self.g = self.w @ rows
        self._F, self._bindings, self._second = F, b, None

    def second(self):
        """(f_yy, f_yv, f_vv, outer Hessian), evaluated on first use."""
        if self._second is None:
            fyy, fyv, fvv, _ = self._F.second_partials
            self._second = (
                *_samples(fyy + fyv + fvv, self._bindings).reshape(3, self._F.n, -1),
                self._F.outer_hessian(self.us),
            )
        return self._second


def _partials(F: CompositeFunctional, tr: Trajectory) -> _Partials:
    """The cached evaluation record of F along tr, built on first use."""
    record = tr.partials.get(F)
    if record is None:
        record = tr.partials[F] = _Partials(F, tr)
    return record


# -- residuals ------------------------------------------------------------------


def el_residual(
    spec: ProblemSpec, tr: Trajectory, functional: CompositeFunctional | None = None
) -> np.ndarray:
    """Euler-Lagrange residual sum_i H'_i (f_iv^Delta - f_iy) on the kappa points.

    The delta derivative of f_iv is taken along the trajectory, so the
    residual is computable at indices 0..N-3 of an N-point scale; the vector
    has ``kappa_count() - 1`` entries.  It is read off the interior
    gradient entries, -g_j / mu(rho(t_j)).
    """
    F = functional if functional is not None else spec.lagrangian
    return -_partials(F, tr).g[1:-1] / tr.ts.steps[:-1]


def natural_bc_left(spec: ProblemSpec, tr: Trajectory) -> float:
    """Transversality residual sum_i H'_i f_iv(a) = -g_0 for a free left endpoint."""
    if spec.bc.left_fixed:
        raise EndpointNotFree("left endpoint is fixed; no natural condition applies")
    return -float(_partials(spec.lagrangian, tr).g[0])


def natural_bc_right(spec: ProblemSpec, tr: Trajectory) -> float:
    """Transversality residual sum_i H'_i (f_iv(rho(b)) + mu(rho(b)) f_iy(rho(b))) = g_{N-1}."""
    if spec.bc.right_fixed:
        raise EndpointNotFree("right endpoint is fixed; no natural condition applies")
    return float(_partials(spec.lagrangian, tr).g[-1])


def functional_gradient(spec: ProblemSpec, tr: Trajectory) -> np.ndarray:
    """Exact partial derivatives of the objective value w.r.t. each decision sample."""
    return _partials(spec.lagrangian, tr).g[decision_indices(spec)]


def constraint_gradient(spec: ProblemSpec, tr: Trajectory) -> np.ndarray:
    """Exact gradient of the constraint functional w.r.t. the decision samples."""
    if spec.constraint is None:
        raise ValueError("problem has no isoperimetric constraint")
    return _partials(spec.constraint.functional, tr).g[decision_indices(spec)]


def hessian_parts(
    F: CompositeFunctional, spec: ProblemSpec, tr: Trajectory
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Structured pieces of the exact Hessian over the decision samples.

    Returns ``(diag, off, rows, outer_hess)`` with the Hessian equal to
    ``tridiag(diag, off) + rows.T @ outer_hess @ rows``: each interval j
    couples only the samples x_j and x_{j+1} through y = x_{j+1} and
    v = (x_{j+1} - x_j)/mu_j, while the outer map contributes curvature of
    rank at most n through the inner-integral gradients (the rows).
    """
    record = _partials(F, tr)
    fyy, fyv, fvv, outer_hess = record.second()
    w, steps = record.w, tr.ts.steps
    curv_v = w @ (fvv / steps)
    diag = np.zeros(len(spec.ts))
    diag[:-1] = curv_v
    diag[1:] += w @ (steps * fyy + 2.0 * fyv) + curv_v
    off = -(w @ fyv) - curv_v

    idx = decision_indices(spec)
    lo, hi = int(idx[0]), int(idx[-1])
    return diag[lo : hi + 1], off[lo:hi], record.rows[:, idx], outer_hess


def _dr_quantity_of(F: CompositeFunctional, tr: Trajectory) -> np.ndarray:
    record = _partials(F, tr)
    running = np.zeros_like(record.fy)
    np.cumsum(tr.ts.steps[:-1] * record.fy[:, :-1], axis=1, out=running[:, 1:])
    return record.w @ (record.fv - running)


def dubois_reymond_quantity(
    spec: ProblemSpec,
    tr: Trajectory,
    lam0: float = 1.0,
    lam: float | None = None,
) -> np.ndarray:
    """Constancy quantity E(t) = sum_i H'_i (f_iv(t) - integral_a^t f_iy) per kappa point.

    At a stationary trajectory E is constant; its spread (max - min) is the
    reported diagnostic.  For constrained problems pass the multipliers to
    get the combined quantity lam0 * E_objective - lam * E_constraint.
    """
    E = lam0 * _dr_quantity_of(spec.lagrangian, tr)
    if lam is not None and spec.constraint is not None and lam != 0.0:
        E = E - lam * _dr_quantity_of(spec.constraint.functional, tr)
    return E


def dubois_reymond_spread(
    spec: ProblemSpec,
    tr: Trajectory,
    lam0: float = 1.0,
    lam: float | None = None,
) -> float:
    """max E - min E of :func:`dubois_reymond_quantity`, 0 with no kappa point."""
    E = dubois_reymond_quantity(spec, tr, lam0, lam)
    return float(E.max() - E.min()) if E.size else 0.0


def isoperimetric_residual(
    spec: ProblemSpec, tr: Trajectory, lam0: float, lam: float
) -> np.ndarray:
    """Pointwise residual lam0 * EL(objective) - lam * EL(constraint)."""
    if spec.constraint is None:
        raise ValueError("problem has no isoperimetric constraint")
    if lam0 == 0.0 and lam == 0.0:
        raise BothMultipliersZero("lambda0 and lambda must not both vanish")
    res = lam0 * el_residual(spec, tr)
    if lam != 0.0:
        res = res - lam * el_residual(spec, tr, functional=spec.constraint.functional)
    return res


def residual_report(
    spec: ProblemSpec,
    tr: Trajectory,
    lam0: float = 1.0,
    lam: float | None = None,
) -> ResidualReport:
    """Bundle of all stationarity residuals for one trajectory."""
    if spec.constraint is not None and lam is not None:
        el = isoperimetric_residual(spec, tr, lam0, lam)
    else:
        el = el_residual(spec, tr)
    nat_left = None if spec.bc.left_fixed else natural_bc_left(spec, tr)
    nat_right = None if spec.bc.right_fixed else natural_bc_right(spec, tr)
    return ResidualReport(
        el=el, nat_left=nat_left, nat_right=nat_right,
        dr_constancy_spread=dubois_reymond_spread(spec, tr, lam0, lam),
    )
