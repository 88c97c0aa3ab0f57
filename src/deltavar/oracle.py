"""Independent verification machinery for the main solve path.

Everything here checks the library without trusting it: gradients come from
central differences of the functional value, low-dimensional stationarity
systems are enclosed by sign brackets and refined by bisection, and the
Rayleigh-quotient eigenvalue problems hiding in quotient functionals are
assembled purely by differencing the two quadratic forms.  Apart from the
expression evaluator these code paths share no logic with the residual
module.  The one exception is :func:`fd_hessian`, which differences the exact
gradient to check the second-order machinery (the structured Hessian and
the classification built on it) in tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg

from .euler_lagrange import (
    ProblemSpec,
    constraint_gradient,
    decision_indices,
    embed_decision,
    functional_gradient,
)
from .expr import parse
from .functional import (
    CompositeFunctional,
    DenominatorVanished,
    Trajectory,
    value,
)
from .expr import DomainError, DivisionByZero

__all__ = [
    "TooManyDecisionVariables",
    "SingularB",
    "ScanReport",
    "fd_gradient",
    "fd_hessian",
    "scan_low_dim",
    "generalized_eig_smallest",
    "quadratic_form_matrix",
    "inner_integral_form",
    "rayleigh_pencil",
]

_EVAL_ERRORS = (DenominatorVanished, DomainError, DivisionByZero)

BISECTION_TOL = 1e-12
FD_HESSIAN_STEP = 1e-6


class TooManyDecisionVariables(ValueError):
    """Dense scanning only supports one or two decision variables."""


class SingularB(ValueError):
    """The right-hand matrix of the eigenvalue pencil is not positive definite."""


def fd_gradient(spec: ProblemSpec, tr: Trajectory, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of the functional value per decision sample."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    idx = decision_indices(spec)
    z = tr.x[idx].copy()
    grad = np.empty(z.size)
    for j in range(z.size):
        zp = z.copy()
        zp[j] += step
        zm = z.copy()
        zm[j] -= step
        vp = value(spec.lagrangian, embed_decision(spec, zp))
        vm = value(spec.lagrangian, embed_decision(spec, zm))
        grad[j] = (vp - vm) / (2.0 * step)
    return grad


def fd_hessian(
    spec: ProblemSpec,
    tr: Trajectory,
    lam0: float = 1.0,
    lam: float = 0.0,
) -> np.ndarray:
    """Dense Hessian of lam0 * value - lam * constraint by central differences.

    Column j differences the exact gradient at
    x_j +- FD_HESSIAN_STEP * (1 + |x_j|),
    so it costs 2d gradient evaluations and d x d memory; the result is
    symmetrized.  A cross-check for tests, never used by the solver.
    """
    z = tr.x[decision_indices(spec)].copy()

    def grad(zz: np.ndarray) -> np.ndarray:
        trz = embed_decision(spec, zz)
        g = lam0 * functional_gradient(spec, trz)
        if spec.constraint is not None and lam != 0.0:
            g = g - lam * constraint_gradient(spec, trz)
        return g

    dim = z.size
    hess = np.empty((dim, dim))
    for j in range(dim):
        h = FD_HESSIAN_STEP * (1.0 + abs(z[j]))
        zp = z.copy()
        zp[j] += h
        zm = z.copy()
        zm[j] -= h
        hess[:, j] = (grad(zp) - grad(zm)) / (2.0 * h)
    return 0.5 * (hess + hess.T)


@dataclass(frozen=True)
class ScanReport:
    """Dense 1-D scan of a scalar stationarity field.

    ``grid``/``values`` record the sampled field (NaN where evaluation
    failed), ``brackets`` the sign-change intervals, and ``roots`` the
    bisection-refined root inside each bracket, index for index.
    """

    field_name: str
    grid: np.ndarray
    values: np.ndarray
    brackets: tuple
    roots: tuple

    @property
    def has_roots(self) -> bool:
        return len(self.roots) > 0

    def csv_rows(self):
        yield ("value", "field")
        for w, g in zip(self.grid, self.values):
            yield (w, g)


def _bisect(field: Callable[[float], float], lo: float, hi: float) -> Optional[float]:
    flo = field(lo)
    fhi = field(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if not (np.isfinite(flo) and np.isfinite(fhi)) or flo * fhi > 0:
        return None
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
            hi, fhi = mid, fmid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def scan_low_dim(
    spec: ProblemSpec,
    ranges: Sequence[tuple[float, float]],
    resolution: int = 201,
    fd_step: float = 1e-6,
) -> ScanReport | tuple:
    """Exhaustive stationarity scan over one or two decision variables.

    For unconstrained problems the scanned field per variable is the
    central-difference gradient of the value; for constrained problems with
    one decision variable it is the constraint defect, whose roots are the
    feasible candidates.  1-D scans return a ScanReport with guaranteed
    sign-change enclosures refined by bisection; 2-D scans return a tuple of
    candidate boxes where both gradient components change sign, refined by
    recursive subdivision.
    """
    idx = decision_indices(spec)
    d = idx.size
    if d > 2:
        raise TooManyDecisionVariables(f"{d} decision variables; scans support <= 2")
    if len(ranges) != d:
        raise ValueError(f"need {d} ranges, got {len(ranges)}")
    if not np.all(np.isfinite(np.asarray(ranges, dtype=float))):
        raise ValueError(f"scan ranges must be finite, got {list(ranges)}")
    if any(lo >= hi for lo, hi in ranges):
        raise ValueError(f"scan ranges need lo < hi, got {list(ranges)}")
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")

    if d == 1:
        if spec.constraint is not None:
            name = "constraint defect"

            def field(w: float) -> float:
                tr = embed_decision(spec, np.array([w]))
                return value(spec.constraint.functional, tr) - spec.constraint.target

        else:
            name = "value gradient"

            def field(w: float) -> float:
                tr = embed_decision(spec, np.array([w]))
                return float(fd_gradient(spec, tr, fd_step)[0])

        def safe_field(w: float) -> float:
            try:
                out = field(w)
            except _EVAL_ERRORS:
                return np.nan
            return out if np.isfinite(out) else np.nan

        lo, hi = map(float, ranges[0])
        grid = np.linspace(lo, hi, int(resolution))
        vals = np.array([safe_field(w) for w in grid])
        brackets = []
        roots = []
        for i in range(grid.size - 1):
            g0, g1 = vals[i], vals[i + 1]
            if not (np.isfinite(g0) and np.isfinite(g1)):
                continue
            if g0 == 0.0:
                brackets.append((float(grid[i]), float(grid[i])))
                roots.append(float(grid[i]))
                continue
            if g0 * g1 < 0.0:
                root = _bisect(safe_field, float(grid[i]), float(grid[i + 1]))
                if root is not None:
                    brackets.append((float(grid[i]), float(grid[i + 1])))
                    roots.append(float(root))
        if grid.size and np.isfinite(vals[-1]) and vals[-1] == 0.0:
            brackets.append((float(grid[-1]), float(grid[-1])))
            roots.append(float(grid[-1]))
        return ScanReport(
            field_name=name,
            grid=grid,
            values=vals,
            brackets=tuple(brackets),
            roots=tuple(roots),
        )

    # Two decision variables: unconstrained gradient field only.
    if spec.constraint is not None:
        raise ValueError("2-D scans support unconstrained problems only")

    def field2(w0: float, w1: float) -> np.ndarray:
        tr = embed_decision(spec, np.array([w0, w1]))
        return fd_gradient(spec, tr, fd_step)

    def safe_field2(w0: float, w1: float) -> np.ndarray:
        try:
            out = field2(w0, w1)
        except _EVAL_ERRORS:
            return np.array([np.nan, np.nan])
        return np.where(np.isfinite(out), out, np.nan)

    (lo0, hi0), (lo1, hi1) = ranges
    g0 = np.linspace(float(lo0), float(hi0), int(resolution))
    g1 = np.linspace(float(lo1), float(hi1), int(resolution))

    def cell_candidate(x0, x1, y0, y1) -> bool:
        corners = [safe_field2(a, b) for a in (x0, x1) for b in (y0, y1)]
        vals = np.array(corners)
        if not np.all(np.isfinite(vals)):
            return False
        return all(
            vals[:, c].min() <= 0.0 <= vals[:, c].max() for c in range(2)
        )

    boxes = []
    for i in range(g0.size - 1):
        for j in range(g1.size - 1):
            if cell_candidate(g0[i], g0[i + 1], g1[j], g1[j + 1]):
                boxes.append((g0[i], g0[i + 1], g1[j], g1[j + 1]))

    refined = []
    budget = 4096
    for box in boxes:
        stack = [box]
        while stack and budget > 0:
            x0, x1, y0, y1 = stack.pop()
            budget -= 1
            if max(x1 - x0, y1 - y0) <= BISECTION_TOL:
                refined.append((0.5 * (x0 + x1), 0.5 * (y0 + y1)))
                continue
            xm, ym = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
            for sub in (
                (x0, xm, y0, ym),
                (xm, x1, y0, ym),
                (x0, xm, ym, y1),
                (xm, x1, ym, y1),
            ):
                if cell_candidate(*sub):
                    stack.append(sub)
    return tuple(refined)


def generalized_eig_smallest(
    apply_a: Callable[[np.ndarray], np.ndarray],
    apply_b: Callable[[np.ndarray], np.ndarray],
    dim: int,
    tol: float = 1e-10,
    max_iters: int = 500,
) -> tuple[float, np.ndarray]:
    """Smallest eigenvalue of A x = Q B x by inverse power iteration.

    The operators are materialized by applying them to the standard basis
    (all pencils here are desk scale), B must be positive definite, and the
    iterate is normalized in the B inner product.  Iteration stops when the
    Rayleigh quotient moves by less than ``tol`` relatively.
    """
    eye = np.eye(dim)
    A = np.column_stack([np.asarray(apply_a(eye[:, j]), dtype=float) for j in range(dim)])
    B = np.column_stack([np.asarray(apply_b(eye[:, j]), dtype=float) for j in range(dim)])
    A = 0.5 * (A + A.T)
    B = 0.5 * (B + B.T)
    try:
        np.linalg.cholesky(B)
    except np.linalg.LinAlgError:
        raise SingularB("B is not positive definite on the decision space") from None

    lu_piv = scipy.linalg.lu_factor(A)
    x = np.ones(dim)
    x = x / np.sqrt(x @ B @ x)
    rho = float(x @ A @ x)
    for _ in range(max_iters):
        y = scipy.linalg.lu_solve(lu_piv, B @ x)
        norm_sq = float(y @ B @ y)
        if norm_sq <= 0.0 or not np.isfinite(norm_sq):
            raise SingularB("B norm degenerated during iteration")
        x = y / np.sqrt(norm_sq)
        rho_new = float(x @ A @ x)
        if abs(rho_new - rho) <= tol * (1.0 + abs(rho_new)):
            return rho_new, x
        rho = rho_new
    raise RuntimeError(
        f"inverse power iteration did not reach tol={tol:g} in {max_iters} steps"
    )


def quadratic_form_matrix(
    form: Callable[[np.ndarray], float],
    dim: int,
    probe_scale: float = 1.0,
    offband_checks: int = 32,
    seed: int = 0,
) -> np.ndarray:
    """Matrix M with form(z) = z M z, recovered by exact second differencing.

    Second differences annihilate constant and linear parts, so the formulas
    are exact (up to rounding) for any quadratic form.  Only the tridiagonal
    band is probed, which matches forms assembled from nearest-neighbor
    integrand samples; the band assumption is verified on randomly chosen
    off-band pairs and a violation raises ValueError.
    """
    s = float(probe_scale)
    phi0 = float(form(np.zeros(dim)))

    def unit(j: int, scale: float) -> np.ndarray:
        z = np.zeros(dim)
        z[j] = scale
        return z

    diag = np.empty(dim)
    for j in range(dim):
        diag[j] = (form(unit(j, 2 * s)) - 2.0 * form(unit(j, s)) + phi0) / (2.0 * s * s)

    off = np.empty(max(dim - 1, 0))
    singles = np.array([form(unit(j, s)) for j in range(dim)])
    for j in range(dim - 1):
        z = unit(j, s)
        z[j + 1] = s
        off[j] = (form(z) - singles[j] - singles[j + 1] + phi0) / (2.0 * s * s)

    M = np.zeros((dim, dim))
    np.fill_diagonal(M, diag)
    if dim > 1:
        M[np.arange(dim - 1), np.arange(1, dim)] = off
        M[np.arange(1, dim), np.arange(dim - 1)] = off

    scale = max(float(np.max(np.abs(M))), 1.0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    pairs = set()
    limit = min(offband_checks, max(0, (dim - 2) * (dim - 1) // 2))
    guard = 0
    while len(pairs) < limit and guard < 50 * offband_checks:
        guard += 1
        i = int(rng.integers(0, dim))
        j = int(rng.integers(0, dim))
        if abs(i - j) >= 2:
            pairs.add((min(i, j), max(i, j)))
    for i, j in sorted(pairs):
        z = unit(i, s)
        z[j] = s
        coupling = (form(z) - singles[i] - singles[j] + phi0) / (2.0 * s * s)
        if abs(coupling) > 1e-7 * scale:
            raise ValueError(
                f"form couples non-adjacent samples ({i}, {j}): {coupling!r}"
            )
    return M


def inner_integral_form(spec: ProblemSpec, index: int) -> Callable[[np.ndarray], float]:
    """One inner integral of the objective as a function of the decision vector."""
    single = CompositeFunctional(
        [spec.lagrangian.inner[index]], parse("u1", ("u1",))
    )

    def phi(z: np.ndarray) -> float:
        return value(single, embed_decision(spec, np.asarray(z, dtype=float)))

    return phi


def rayleigh_pencil(spec: ProblemSpec) -> tuple[np.ndarray, np.ndarray]:
    """Matrices (A, B) of a quotient-of-quadratic-forms objective.

    For specs whose objective is u1/u2 with quadratic inner integrands, the
    value restricted to the decision space is the generalized Rayleigh
    quotient z A z / z B z; both matrices are assembled by differencing the
    forms, independent of the residual machinery.
    """
    if spec.lagrangian.n != 2:
        raise ValueError("rayleigh_pencil expects exactly two inner integrands")
    dim = decision_indices(spec).size
    A = quadratic_form_matrix(inner_integral_form(spec, 0), dim)
    B = quadratic_form_matrix(inner_integral_form(spec, 1), dim)
    return A, B
