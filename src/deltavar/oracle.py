"""Independent verification machinery for the main solve path.

Everything here checks the library without trusting it: gradients come from
central differences of the functional value, low-dimensional stationarity
systems are enclosed by sign brackets and refined by bisection, and the
Rayleigh-quotient eigenvalue problems hiding in quotient functionals are
assembled purely by differencing the two quadratic forms.  Scans take the
value of a batch of trajectories at once, bit for bit the value of each:
one pass for the grid, one per bisection step.  Apart from the expression
evaluator these code paths share no logic with the residual module.  The
one exception is :func:`fd_hessian`, which differences the exact
gradient to check the second-order machinery (the structured Hessian and
the classification built on it) in tests.
"""
from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .euler_lagrange import (
    ProblemSpec,
    constraint_gradient,
    decision_indices,
    embed_decision,
    functional_gradient,
)
from .expr import parse
from .functional import (
    _BATCH_SAMPLES, _EVAL_ERRORS, CompositeFunctional, Trajectory, _samples, value,
)

__all__ = [
    "TooManyDecisionVariables",
    "ScanBudgetExhausted",
    "ScanReport",
    "fd_gradient",
    "fd_hessian",
    "scan_low_dim",
    "quadratic_form_matrix",
    "inner_integral_form",
    "rayleigh_pencil",
]

BISECTION_TOL = 1e-12
# Central-difference step of fd_gradient's default and of every scan.
FD_STEP = 1e-6
FD_HESSIAN_STEP = 1e-6
# Rounding error of one value relative to its size.  2-D scans widen each
# central difference by it, so the cells around a root stay one touching group.
FD_ROUNDING = 64 * np.finfo(float).eps
# Sub-cells a 2-D scan may evaluate over all its subdivision levels.
SCAN_CELL_BUDGET = 4096
# Off-band pairs quadratic_form_matrix differences to check its band assumption.
OFFBAND_CHECKS = 32


class TooManyDecisionVariables(ValueError):
    """Dense scanning only supports one or two decision variables."""


class ScanBudgetExhausted(RuntimeError):
    """A 2-D scan ran out of its cell budget before its candidate cells were refined.

    ``cells`` candidate cells ``width`` wide were left; none is reported as a root.
    """

    def __init__(self, cells: int, width: float):
        super().__init__(
            f"2-D scan budget of {SCAN_CELL_BUDGET} cells exhausted with {cells} "
            f"candidate cells {width:.3g} wide left unrefined"
        )
        self.cells, self.width = cells, width


def _values(spec: ProblemSpec, F: CompositeFunctional, Z: np.ndarray, strict: bool = False):
    """value(F, embed_decision(spec, z)) for each row z of Z, bit for bit.

    One integrand pass per batch of rows, a row-wise cumsum per inner integral
    (delta_integral's sum), then one pass of the outer map over the batch's inner
    values, a lone value being a batch of one.  A row that raises gets NaN, or
    re-raises if ``strict``; a batch whose integrand or outer pass raises is
    evaluated row by row."""
    out, per, steps = np.empty(len(Z)), max(1, _BATCH_SAMPLES // len(spec.ts)), spec.ts.steps
    for start in range(0, len(Z), per):
        rows = Z[start : start + per]
        X = np.repeat(embed_decision(spec, rows[0]).x[None], len(rows), axis=0)
        X[:, decision_indices(spec)] = rows
        with suppress(*_EVAL_ERRORS), np.errstate(invalid="ignore", over="ignore"):
            b = {"t": spec.ts.points[:-1], "y": X[:, 1:], "v": (X[:, 1:] - X[:, :-1]) / steps}
            us = (steps * _samples(F.inner, b)).cumsum(axis=2)[:, :, -1]
            out[start : start + len(rows)] = F._outer_values((F.outer,), us)[:, 0]
            continue
        for i, z in enumerate(rows, start):
            try:
                out[i] = value(F, embed_decision(spec, z))
            except _EVAL_ERRORS:
                if strict:
                    raise
                out[i] = np.nan
    return out


def _central_differences(spec: ProblemSpec, W: np.ndarray, step: float, strict: bool = False):
    """Central-difference gradients of the value at the rows of W, (P, d), as
    one batch whose rows come in fd_gradient's order (+step, then -step, per
    variable), and the bound FD_ROUNDING * (|v+| + |v-|) / (2 step) on their
    rounding error."""
    P, d = W.shape
    Z = np.repeat(W, 2 * d, axis=0).reshape(P, d, 2, d)
    for j in range(d):
        Z[:, j, 0, j] += step
        Z[:, j, 1, j] -= step
    v, h2 = _values(spec, spec.lagrangian, Z.reshape(-1, d), strict).reshape(P, d, 2), 2.0 * step
    with np.errstate(over="ignore", invalid="ignore"):
        return (v[..., 0] - v[..., 1]) / h2, FD_ROUNDING * (abs(v[..., 0]) + abs(v[..., 1])) / h2


def fd_gradient(spec: ProblemSpec, tr: Trajectory, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of the functional value per decision sample."""
    if step <= 0.0:
        raise ValueError("step must be positive")
    return _central_differences(spec, tr.x[decision_indices(spec)][None], step, True)[0][0]


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


def _field(spec: ProblemSpec, w: np.ndarray) -> np.ndarray:
    """The 1-D scan's field at the points w; NaN where it fails or is not finite."""
    if spec.constraint is not None:
        out = _values(spec, spec.constraint.functional, w[:, None]) - spec.constraint.target
    else:
        out = _central_differences(spec, w[:, None], FD_STEP)[0][:, 0]
    return np.where(np.isfinite(out), out, np.nan)


def _bisect(spec: ProblemSpec, lo, hi, flo) -> np.ndarray:
    """Roots of the 1-D field in the sign-change brackets [lo_k, hi_k], f(lo_k) = flo_k.

    The brackets advance in lockstep, one field batch per step at the open
    ones' midpoints, each with the midpoints and root of bisecting it alone.
    A root is NaN where a midpoint's field value is not finite.
    """
    lo, hi, flo, roots = lo.copy(), hi.copy(), flo.copy(), np.full(lo.size, np.nan)
    open_ = np.arange(lo.size)
    while True:
        mid = 0.5 * (lo[open_] + hi[open_])
        done = (hi[open_] - lo[open_] <= BISECTION_TOL) | (mid == lo[open_]) | (mid == hi[open_])
        roots[open_[done]] = mid[done]
        open_, mid = open_[~done], mid[~done]
        if not open_.size:
            return roots
        fmid = _field(spec, mid)
        roots[open_[fmid == 0.0]] = mid[fmid == 0.0]
        keep = np.isfinite(fmid) & (fmid != 0.0)
        left = keep & (flo[open_] * fmid < 0)
        right = keep & ~left
        hi[open_[left]] = mid[left]
        lo[open_[right]], flo[open_[right]] = mid[right], fmid[right]
        open_ = open_[keep]


def _straddling(spec: ProblemSpec, lattice: np.ndarray) -> np.ndarray:
    """Cells of a lattice of points (..., m, m, 2) whose four corners have finite
    gradients straddling zero in both components, each within its rounding bound."""
    g, noise = _central_differences(spec, lattice.reshape(-1, 2), FD_STEP)
    g = np.where(np.isfinite(g), g, np.nan)  # NaN straddles nothing
    lo, hi = (sliding_window_view((g + sign * noise).reshape(lattice.shape), (2, 2), (-3, -2))
              for sign in (-1.0, 1.0))
    return ((lo.min((-2, -1)) <= 0.0) & (hi.max((-2, -1)) >= 0.0)).all(-1)


def scan_low_dim(
    spec: ProblemSpec,
    ranges: Sequence[tuple[float, float]],
    resolution: int = 201,
) -> ScanReport | tuple:
    """Exhaustive stationarity scan over one or two decision variables.

    For unconstrained problems the scanned field per variable is the
    central-difference gradient of the value; for constrained problems with
    one decision variable it is the constraint defect, whose roots are the
    feasible candidates.  1-D scans return a ScanReport with guaranteed
    sign-change enclosures refined by bisection; 2-D scans return a tuple of
    candidate points where both gradient components change sign, refined by
    subdivision, one per group of touching cells.  The grid is one batch of
    field values, and so is each bisection step or subdivision level.  A 2-D
    scan whose next level would outgrow SCAN_CELL_BUDGET before its cells
    are BISECTION_TOL wide returns its groups only if each spans at most
    FD_STEP, and otherwise raises :class:`ScanBudgetExhausted`: it never
    returns coarse cells as candidates.
    """
    d = decision_indices(spec).size
    if d > 2:
        raise TooManyDecisionVariables(f"{d} decision variables; scans support <= 2")
    if len(ranges) != d:
        raise ValueError(f"need {d} ranges, got {len(ranges)}")
    if not np.all(np.isfinite(np.asarray(ranges, dtype=float))):
        raise ValueError(f"scan ranges must be finite, got {list(ranges)}")
    if any(lo >= hi for lo, hi in ranges):
        raise ValueError(f"scan ranges need lo < hi, got {list(ranges)}")
    if not all(np.isfinite(float(hi) - float(lo)) for lo, hi in ranges):
        raise ValueError(f"scan ranges need a finite width hi - lo, got {list(ranges)}")
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    if d == 2 and spec.constraint is not None:
        raise ValueError("2-D scans support unconstrained problems only")
    grids = [np.linspace(float(lo), float(hi), int(resolution)) for lo, hi in ranges]

    if d == 1:
        # A bracket is a sign change to the next point or a zero there (the
        # last point pairs with itself), between finite values.
        grid = grids[0]
        vals = _field(spec, grid)
        finite = np.isfinite(vals)
        both = np.append(finite[:-1] & finite[1:], finite[-1])
        roots = np.where(both & (vals == 0.0), grid, np.nan)
        with np.errstate(over="ignore"):
            change = np.flatnonzero(both[:-1] & (vals[:-1] * vals[1:] < 0.0))
            roots[change] = _bisect(spec, grid[change], grid[change + 1], vals[change])
        at = np.flatnonzero(np.isfinite(roots))
        brackets = tuple((float(grid[i]), float(grid[i + (vals[i] != 0.0)])) for i in at)
        name = "value gradient" if spec.constraint is None else "constraint defect"
        return ScanReport(name, grid, vals, brackets, tuple(float(r) for r in roots[at]))

    # Two decision variables: cells (i, j) of the grid, then of each halving,
    # with corners lo and hi, subdivided while wider than BISECTION_TOL.
    lattice = np.stack(np.meshgrid(*grids, indexing="ij"), -1)
    cells = np.argwhere(_straddling(spec, lattice))
    lo, hi = (np.stack([g[c + s] for g, c in zip(grids, cells.T)], 1) for s in (0, 1))
    budget = SCAN_CELL_BUDGET
    while len(cells) and (hi - lo).max() > BISECTION_TOL:
        budget -= 4 * len(cells)
        if budget < 0:
            break
        pts = np.stack([lo, 0.5 * (lo + hi), hi], -1)  # (cell, axis, 3)
        lattice = np.stack(np.broadcast_arrays(pts[:, 0, :, None], pts[:, 1, None, :]), -1)
        k, *sub = np.nonzero(_straddling(spec, lattice))
        sub = np.stack(sub, 1)
        lo, hi = (np.take_along_axis(pts[k], sub[:, :, None] + s, 2)[..., 0] for s in (0, 1))
        cells = 2 * cells[k] + sub
    # Touching cells (an edge or a corner in common) make one candidate, their
    # union's centre.  Out of budget, only unions within FD_STEP count: there
    # rounding of the differences, not a coarse cell, makes neighbours straddle.
    todo, found = {cell: n for n, cell in enumerate(map(tuple, cells.tolist()))}, []
    while todo:
        stack, group = [todo.popitem()], []
        while stack:
            (i, j), n = stack.pop()
            group.append(n)
            near = [(i + a, j + c) for a in (-1, 0, 1) for c in (-1, 0, 1)]
            stack += [(cell, todo.pop(cell)) for cell in near if cell in todo]
        box_lo, box_hi = lo[group].min(0), hi[group].max(0)
        if budget < 0 and (box_hi - box_lo).max() > FD_STEP:
            raise ScanBudgetExhausted(len(cells), float((hi - lo).max()))
        found.append((min(group), 0.5 * (box_lo + box_hi)))
    return tuple((float(w0), float(w1)) for _, (w0, w1) in sorted(found, key=lambda f: f[0]))


def quadratic_form_matrix(form: Callable[[np.ndarray], float], dim: int) -> np.ndarray:
    """Matrix M with form(z) = z M z, recovered by exact second differencing.

    Second differences of unit and doubled unit probes annihilate constant and
    linear parts, so the formulas are exact (up to rounding) for any quadratic
    form.  Only the tridiagonal band is probed, which matches forms assembled
    from nearest-neighbor integrand samples; the band assumption is verified
    on OFFBAND_CHECKS off-band pairs drawn with a fixed key, and a violation
    raises ValueError.
    """
    phi0 = float(form(np.zeros(dim)))

    def probe(*js: int, scale: float = 1.0) -> float:
        z = np.zeros(dim)
        z[list(js)] = scale
        return float(form(z))

    singles = np.array([probe(j) for j in range(dim)])
    diag = np.array([(probe(j, scale=2.0) - 2.0 * singles[j] + phi0) / 2.0 for j in range(dim)])

    def coupling(i: int, j: int) -> float:
        return (probe(i, j) - singles[i] - singles[j] + phi0) / 2.0

    off = np.array([coupling(j, j + 1) for j in range(dim - 1)])
    M, band = np.diag(diag), np.arange(dim - 1)
    M[band, band + 1] = M[band + 1, band] = off

    scale = max(float(np.max(np.abs(M))), 1.0)
    rng = np.random.Generator(np.random.Philox(key=0))
    pairs = set()
    limit = min(OFFBAND_CHECKS, max(0, (dim - 2) * (dim - 1) // 2))
    guard = 0
    while len(pairs) < limit and guard < 50 * OFFBAND_CHECKS:
        guard += 1
        i = int(rng.integers(0, dim))
        j = int(rng.integers(0, dim))
        if abs(i - j) >= 2:
            pairs.add((min(i, j), max(i, j)))
    for i, j in sorted(pairs):
        c = coupling(i, j)
        if abs(c) > 1e-7 * scale:
            raise ValueError(f"form couples non-adjacent samples ({i}, {j}): {c!r}")
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
