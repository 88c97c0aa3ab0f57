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

from collections import namedtuple
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .functional import (
    BoundarySpec,
    CompositeFunctional,
    Trajectory,
    _integrand_bindings,
    _samples,
    inner_values,  # not used here: importable by name, as bench/tracer.py patches it
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
        # decision_indices, made once per spec (read-only; not a field): it is read several
        # times per Newton iteration, and at h = 1e-6 each fresh arange would be 8 MB.
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
    return Trajectory(spec.ts, _embedded(spec, z[None])[0])


def _embedded(spec: ProblemSpec, Z) -> np.ndarray:
    """The (B, N) samples of the B decision vectors Z, fixed ends filled in."""
    X, lo = np.empty((len(Z), len(spec.ts))), int(spec.bc.left_fixed)
    X[:, lo : lo + decision_indices(spec).size] = Z  # a slice: the indices are contiguous
    if spec.bc.left_fixed:
        X[:, 0] = spec.bc.left
    if spec.bc.right_fixed:
        X[:, -1] = spec.bc.right
    return X


def extract_decision(spec: ProblemSpec, tr: Trajectory) -> np.ndarray:
    """The decision sub-vector of a trajectory's samples."""
    return tr.x[decision_indices(spec)].copy()


# -- sampled partial derivatives ----------------------------------------------


# One evaluation of a functional's sampled partials along one trajectory, made a batch at
# a time by _fill_partials: views of its row of inner values us (bit for bit inner_values),
# samples fy/fv, inner-integral gradients rows over all N samples, w = H'(us) and g = w @ rows.
# It keeps its batch's partials alive, as its trajectory keeps its batch's samples, but not
# the f samples and no trajectory (no reference cycle).
_Partials = namedtuple("_Partials", "us w fy fv rows g")


def _fill_partials(F: CompositeFunctional, trs: list, b: Optional[dict] = None) -> None:
    """Cache F's record on each trajectory of trs, on one scale, from passes of f, H'(us),
    then f_y and f_v over their bindings ``b`` (stacked from trs where not given), or raise.

    A row-wise cumsum of mu * f gives the inner values, one pass of H' over (B,) arrays
    (after one array test of each of H's own divisions) the weights w, and one batched
    matmul each row's g.  The passes go in the order in which a lone value raises, each
    raising where some row raises alone, so a batch of any size fills every row or raises,
    and a batch of one raises what its record raises (:func:`deltavar.solver._answers`
    splits a failed batch to learn which rows fail)."""
    n, ts, b = F.n, trs[0].ts, b or _integrand_bindings(trs)
    with np.errstate(over="ignore", invalid="ignore"):  # +inf and -inf sum to nan, as in value
        f = _samples(F.inner, b)
        us = np.multiply(ts.steps, f, out=f).cumsum(axis=-1, out=f)[..., -1].copy()  # f is not kept
        w = F._outer_values(F.outer_grad_exprs, us)  # F.outer_gradient of the (B, n) us
        partials = _samples(F.inner_y + F.inner_v, b)
        # Sample x_{j+1} enters interval j through y = x_{j+1} and v = (x_{j+1} - x_j)/mu_j,
        # sample x_j only through v.  Products and sums go in place, into f and rows.
        fy, fv, rows = partials[:, :n], partials[:, n:], np.zeros((len(trs), n, len(ts)))
        np.multiply(ts.steps, fy, out=rows[..., 1:])
        rows[..., 1:] += fv
        rows[..., :-1] -= fv
    g = np.matmul(w[:, None], rows)[:, 0]  # each row's w @ rows, bit for bit
    for tr, *record in zip(trs, us, w, fy, fv, rows, g):
        tr.partials[F] = _Partials(*record)


def _partials(F: CompositeFunctional, tr: Trajectory) -> _Partials:
    """The cached evaluation record of F along tr, built on first use as a batch of one."""
    if F not in tr.partials:
        _fill_partials(F, [tr])
    return tr.partials[F]


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


def hessian_parts(F: CompositeFunctional, spec: ProblemSpec, tr) -> tuple[np.ndarray, ...]:
    """Structured pieces of the exact Hessian over the decision samples.

    Returns ``(diag, off, rows, outer_hess)`` with the Hessian equal to
    ``tridiag(diag, off) + rows.T @ outer_hess @ rows``: each interval j
    couples only the samples x_j and x_{j+1} through y = x_{j+1} and
    v = (x_{j+1} - x_j)/mu_j, while the outer map contributes curvature of
    rank at most n through the inner-integral gradients (the rows).
    Given a list of trajectories, each piece gains a leading axis, one entry each, from
    one pass of the second partials, one of H'' over (B,) arrays and batched matmuls: a
    lone trajectory is a batch of one, so each gets its lone bits.  Raises where any does.
    """
    trs = [tr] if isinstance(tr, Trajectory) else tr
    records = [_partials(F, t) for t in trs]
    fyy, fyv, fvv, _ = F.second_partials
    samples = _samples(fyy + fyv + fvv, _integrand_bindings(trs))
    outer_hess = F.outer_hessian(np.array([record.us for record in records]))
    n, steps = F.n, spec.ts.steps
    fyy, fyv, fvv = samples[:, :n], samples[:, n : 2 * n], samples[:, 2 * n :]
    w = np.array([record.w for record in records])[:, None]
    curv_v = np.matmul(w, fvv / steps)[:, 0]
    diag = np.zeros((len(trs), len(spec.ts)))
    diag[:, :-1] = curv_v
    diag[:, 1:] += np.matmul(w, steps * fyy + 2.0 * fyv)[:, 0] + curv_v
    off = -np.matmul(w, fyv)[:, 0] - curv_v

    idx = decision_indices(spec)
    lo, hi = int(idx[0]), int(idx[-1])
    rows = np.array([record.rows[:, lo : hi + 1] for record in records])
    parts = diag[:, lo : hi + 1], off[:, lo:hi], rows, outer_hess
    return tuple(part[0] for part in parts) if tr is not trs else parts


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
