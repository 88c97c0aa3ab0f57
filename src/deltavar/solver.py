"""Stationary-trajectory search by multi-start damped Newton iteration.

Unconstrained problems are solved as the nonlinear system "exact functional
gradient = 0" over the decision samples; by the gradient identities of
:mod:`deltavar.euler_lagrange` a root certifies the Euler-Lagrange equation
at every interior point and the natural conditions at free endpoints.
Isoperimetric problems are solved as "gradient of L - lambda * (K - k) = 0"
in the decision samples and the multiplier lambda.  Restarts are seeded
with a counter-based generator so runs are reproducible regardless of
execution order, and the returned list is deduplicated in the weak
trajectory norm.
"""
from __future__ import annotations

import dataclasses
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from .expr import DivisionByZero, DomainError
from .euler_lagrange import (
    ProblemSpec,
    _partials,
    constraint_gradient,
    decision_indices,
    dubois_reymond_spread,
    embed_decision,
    functional_gradient,
    hessian_parts,
)
from .functional import (
    DenominatorVanished,
    Trajectory,
    c1rd_distance,
    inner_values,
    value,
)

__all__ = [
    "SolveOptions",
    "StationaryPoint",
    "NoStationaryPointFound",
    "ConstraintInfeasible",
    "solve_unconstrained",
    "solve_isoperimetric",
    "classify",
    "fit_multipliers",
    "refine_study",
    "functional_hessian",
    "constraint_hessian",
    "RefinePoint",
    "RefineRow",
    "RefineStudy",
    "LOCAL_MIN",
    "LOCAL_MAX",
    "SADDLE",
    "DEGENERATE",
]

LOCAL_MIN = "local_min"
LOCAL_MAX = "local_max"
SADDLE = "saddle"
DEGENERATE = "degenerate"

# _newton_solver factors a Newton system (plain, sphere-bordered or the
# normal isoperimetric KKT system) of at most this many unknowns on its
# dense form, by LAPACK; larger ones go through the block elimination of
# _Hessian.factor (banded LU of the tridiagonal block plus a small
# capacitance system), with the dense LU as the fallback.  No Newton system
# forms a d x d array above this size unless that fallback fires.  Per plain
# step (one factorization and solve, one BLAS thread) dense LU takes 0.19 ms
# at d = 99 and 1.1 ms at d = 199, block elimination 0.34-0.39 ms at both:
# they cross near d = 150, so the limit sits there.
DENSE_NEWTON_LIMIT = 150

# Newton matrices with a 1-norm condition estimate beyond 1/RCOND_LIMIT are
# treated as near-singular; the step then comes from the minimum-norm
# least-squares solution, with a small damped gradient step as last resort.
RCOND_LIMIT = 1e-12
DAMPED_STEP = 1e-3
ARMIJO_SLOPE = 1e-4
MAX_BACKTRACKS = 30

# A root is only accepted when the Newton step at it is small relative to
# the iterate.  Quotient objectives flatten out toward infinity, where the
# gradient drops below any tolerance while the Newton step stays of the
# order of the iterate itself; the contraction test rejects those drifts.
CONTRACTION_LIMIT = 1e-2

# Newton corrections shrink inside the convergence region (Deuflhard, Newton
# Methods for Nonlinear Problems, 2004, ch. 2-3); this many growing full
# steps in a row that also grow ||w|| mark an escape toward that far field.
ESCAPE_STEPS = 3

# A run whose damping has failed is over (Deuflhard 2004, ch. 3): with the
# residual still above tolerance, this many accepted steps in a row that each
# needed alpha <= STAGNATION_ALPHA or fell back to the damped gradient end it.
# A run still going after MAX_ITERS iterations has failed.
STAGNATION_STEPS, STAGNATION_ALPHA = 3, 2.0**-11
MAX_ITERS = 100

# An accepted step whose relative merit improvement falls below
# STALL_RELATIVE_PROGRESS, or whose length relative to 1 + ||w|| falls below
# STEP_TOLERANCE, marks a stalled iteration (a local minimum of ||residual||^2).
STALL_RELATIVE_PROGRESS = 1e-8
STEP_TOLERANCE = 1e-12

# Converged normal points with max |grad K| below this seed the abnormal branch.
ABNORMAL_GRADIENT = 1e-8

# solve_isoperimetric moves each normal start z0 onto K = k by at most
# RESTORE_ITERS scalar Newton steps along grad K(z0), and keeps the restored
# start only where ||grad K|| is at least RESTORE_GRADIENT * ||grad K(z0)||:
# a vanishing gradient there marks a degenerate level set (abnormal branch).
RESTORE_ITERS, RESTORE_GRADIENT = 30, 1e-3

_EVAL_ERRORS = (DenominatorVanished, DomainError, DivisionByZero)


class NoStationaryPointFound(RuntimeError):
    """Every restart failed to converge; a legitimate outcome for some problems."""


class ConstraintInfeasible(RuntimeError):
    """No restart produced a trajectory meeting the isoperimetric constraint."""


@dataclass(frozen=True)
class SolveOptions:
    """Settings of the multi-start Newton search.

    ``restarts`` runs start from the line through the fixed end values (0 at
    a free end) and from random perturbations of it keyed by ``seed``.  A run
    converges at residual max-norm ``tol_residual`` and fails after
    MAX_ITERS iterations; converged points closer than ``dedup_distance``
    in the discrete C1_rd norm are one point.
    """

    restarts: int = 64
    seed: int = 0
    tol_residual: float = 1e-9
    dedup_distance: float = 1e-6

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if not 0 <= self.seed < 2**128:  # the key range of Philox
            raise ValueError(f"seed must be in [0, 2**128), got {self.seed}")
        for name in ("tol_residual", "dedup_distance"):
            v = getattr(self, name)
            if not (np.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and positive, got {v}")


@dataclass
class StationaryPoint:
    """One converged stationary trajectory with its certificates."""

    trajectory: Trajectory
    inner: np.ndarray
    value: float
    residual: float
    lam0: float = 1.0
    lam: Optional[float] = None
    constraint_value: Optional[float] = None
    classification: str = DEGENERATE
    basin_count: int = 1
    dr_spread: float = 0.0

    @property
    def normal(self) -> bool:
        return self.lam0 != 0.0


# -- restart initialization ---------------------------------------------------


def _restart_rng(seed: int, restart: int) -> np.random.Generator:
    # Philox is counter based: keying the counter by the restart index gives
    # identical streams no matter in which order restarts execute.
    return np.random.Generator(np.random.Philox(key=seed, counter=restart << 128))


def _initial_decision(spec: ProblemSpec, opts: SolveOptions, restart: int) -> np.ndarray:
    ts = spec.ts
    x_a = spec.bc.left if spec.bc.left_fixed else 0.0
    x_b = spec.bc.right if spec.bc.right_fixed else 0.0
    s = (ts.points - ts.a) / ts.span
    base = x_a + (x_b - x_a) * s
    if restart > 0:
        rng = _restart_rng(opts.seed, restart)
        scale = 1.0 + abs(x_a) + abs(x_b)
        # Smooth perturbation: one Gaussian amplitude applied to a random
        # low-frequency unit shape (zero at both ends), plus a random affine
        # offset at any free endpoint.  Keeping the amplitude in a single
        # Gaussian rather than per mode keeps the derivative energy of the
        # start trajectory comparable to its height, so restarts sample
        # basins instead of the flat far field.
        weights = rng.standard_normal(4) / np.arange(1.0, 5.0) ** 2
        shape = np.zeros_like(s)
        for m, wm in enumerate(weights, start=1):
            shape = shape + wm * np.sin(m * np.pi * s)
        peak = float(np.max(np.abs(shape)))
        if peak > 0.0:
            shape = shape / peak
        base = base + (rng.standard_normal() * scale) * shape
        ramp = rng.standard_normal(2) * scale
        if not spec.bc.left_fixed:
            base = base + ramp[0] * (1.0 - s)
        if not spec.bc.right_fixed:
            base = base + ramp[1] * s
    return base[decision_indices(spec)]


# -- damped Newton core ---------------------------------------------------------


@dataclass
class _NewtonResult:
    w: np.ndarray
    residual: np.ndarray
    converged: bool
    iterations: int
    failure: Optional[BaseException] = None

    @property
    def residual_norm(self) -> float:
        return float(np.max(np.abs(self.residual)))


class _Hessian:
    """Exact Hessian tridiag(diag, off) + U^T C U of lam0 * L - lam * K.

    Linear solves, plain or bordered by one vector b as
    [[H, b], [b^T, 0]] with any last right-hand side, eliminate by blocks:
    T alone is factored in natural order, which keeps its LU banded (O(d)
    entries), and the k outer-map unknowns U x with the border's
    multiplier come from a (k+1)x(k+1) capacitance system, LU-factored
    once per :meth:`factor`.  Solutions are refined and verified against
    the exact matvec; where T alone is singular or the check fails, the
    solver returns None and :func:`_newton_solver` takes the dense LU of
    ``dense``, the one array form of H, which :func:`functional_hessian` and
    :func:`constraint_hessian` return too.  ``count_below`` serves
    :func:`classify`.
    """

    def __init__(self, diag: np.ndarray, off: np.ndarray, U: np.ndarray, C: np.ndarray):
        self.diag, self.off, self.U, self.C = diag, off, U, C

    @property
    def finite(self) -> bool:
        parts = (self.diag, self.off, self.U.ravel(), self.C.ravel())
        return bool(np.isfinite(np.concatenate(parts)).all())  # one pass over all four

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        out[:-1] += self.off * v[1:]
        out[1:] += self.off * v[:-1]
        out += self.U.T @ (self.C @ (self.U @ v))
        return out

    rmatvec = __matmul__  # H^T r, for the damped gradient step: H is symmetric

    def dense(self, border: Optional[np.ndarray] = None) -> np.ndarray:
        """H as a d x d array, or with a border b the (d+1)^2 array [[H, b], [b^T, 0]]."""
        d = self.diag.size
        n = d if border is None else d + 1
        M = np.empty((n, n))
        np.matmul(self.U.T @ self.C, self.U, out=M[:d, :d])
        if border is not None:
            M[:d, d] = M[d, :d] = border
            M[d, d] = 0.0
        flat = M.reshape(-1)  # a view: M is a fresh contiguous array
        flat[: n * d : n + 1] += self.diag
        flat[1 : n * (d - 1) : n + 1] += self.off
        flat[n : n * d : n + 1] += self.off
        return M

    def _defect(self, x, nu, rhs, border, last):
        """Residuals (r, g) of [[H, b], [b^T, 0]] [x; nu] = [rhs; last] and their size."""
        r = rhs - self @ x
        if border is None:
            return r, 0.0, float(np.linalg.norm(r))
        r -= nu * border
        g = last - float(border @ x)
        return r, g, float(np.linalg.norm(r)) + abs(g)

    def factor(self, border: Optional[np.ndarray] = None):
        """A solver of H x = f, or with a border of [[H, b], [b^T, 0]] [x; nu] = [f; g].

        T and the capacitance matrix are factored once.  The returned
        ``solve(f, g=0.0)`` gives x, or [x; nu] with a border, and None when
        the verified defect is too large; ``factor`` itself returns None
        when T or the capacitance matrix is exactly singular.
        """
        # With z = [U x; nu], R = [U; b^T] and E = diag(I_k, 0) the system
        # with right-hand side [f; g] reads T x + [U^T C, b] z = f and
        # R x - E z = [0; g], so x = T^-1 f - Y z with Y = T^-1 [U^T C, b]
        # and the capacitance system (R Y + E) z = R T^-1 f - [0; g].
        d = self.diag.size
        # T in compressed columns, column j holding rows j-1, j and j+1:
        # built directly, this costs less than half of scipy.sparse.diags.
        data = np.column_stack([np.append(0.0, self.off), self.diag, np.append(self.off, 0.0)])
        rows = np.arange(d)[:, None] + np.arange(-1, 2)
        starts = np.concatenate([[0], np.arange(2, 3 * d - 2, 3), [3 * d - 2]])
        T = scipy.sparse.csc_matrix(
            (data.ravel()[1:-1], rows.ravel()[1:-1], starts), shape=(d, d)
        )
        try:
            lu = splu(T, permc_spec="NATURAL")
        except RuntimeError:
            return None  # T alone is exactly singular
        cols, R = self.U.T @ self.C, self.U
        if border is not None:
            cols = np.column_stack([cols, border])
            R = np.vstack([R, border])
        Y = lu.solve(cols)
        if not np.all(np.isfinite(Y)):
            return None
        k = self.C.shape[0]
        cap = R @ Y
        cap[:k, :k] += np.eye(k)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            cap_lu = scipy.linalg.lu_factor(cap, check_finite=False)
        if not np.all(np.diag(cap_lu[0])):
            return None  # singular capacitance matrix

        def eliminate(y0, g):
            """(x, nu) for the right-hand side [f; g], given y0 = T^-1 f."""
            rz = R @ y0
            if border is not None:
                rz[-1] -= g
            z = lapack.dgetrs(*cap_lu, rz)[0]
            return y0 - Y @ z, z[-1] if border is not None else 0.0

        def solve(rhs: np.ndarray, last: float = 0.0) -> Optional[np.ndarray]:
            y0 = lu.solve(rhs)
            if not np.all(np.isfinite(y0)):
                return None
            x, nu = eliminate(y0, last)
            r, g, defect = self._defect(x, nu, rhs, border, last)
            # Iterative refinement: T may be nearly singular (it is at
            # Rayleigh-quotient solutions), where elimination loses digits
            # that a step on the exact residual recovers.
            for _ in range(2):
                if not defect > 0.0:
                    break
                dx, dnu = eliminate(lu.solve(r), g)
                r_new, g_new, defect_new = self._defect(x + dx, nu + dnu, rhs, border, last)
                if not defect_new < defect:
                    break
                x, nu, r, g, defect = x + dx, nu + dnu, r_new, g_new, defect_new
            scale = np.linalg.norm(rhs) + abs(last) + np.linalg.norm(x) + (border is not None)
            if not defect <= 1e-8 * scale:
                return None
            return x if border is None else np.append(x, nu)

        return solve

    def step(self, r: np.ndarray, border: Optional[np.ndarray] = None) -> np.ndarray:
        """The Newton step H s = -r; with a border b also b . s = 0.

        Bordered by the iterate, this is a Newton step on the sphere; the
        multiplier is dropped.
        """
        return _newton_solver(self, border)(-r)[: r.size]

    @cached_property  # both count_below calls of a classification share one eigh
    def _outer_directions(self) -> tuple[np.ndarray, np.ndarray]:
        """(V, mu) with U^T C U = V^T diag(mu) V, unit rows, null directions dropped."""
        # Unit rows of U before C is diagonalized: rows of very different size
        # would mix into nearly parallel directions of huge opposite mu.
        lengths = np.linalg.norm(self.U, axis=1)
        scale = np.where(lengths > 0.0, lengths, 1.0)
        mu, q = np.linalg.eigh(scale[:, None] * self.C * scale)
        v = q.T @ (self.U / scale[:, None])
        lengths = np.linalg.norm(v, axis=1)
        mu = mu * lengths**2
        size = max(float(np.max(np.abs(self.diag), initial=0.0))
                   + 2.0 * float(np.max(np.abs(self.off), initial=0.0)),
                   float(np.max(np.abs(mu), initial=0.0)))
        keep = np.abs(mu) > _NULL_RELATIVE * size
        return v[keep] / lengths[keep, None], mu[keep]

    def count_below(self, s: float, mass: np.ndarray, g: Optional[np.ndarray] = None) -> int:
        """Eigenvalues below s of the pencil (H, diag(mass)) on the complement of g.

        With the outer curvature diagonalized as V^T diag(mu) V (mu
        nonsingular), the bordered matrix
        [[T - s M, V^T, g], [V, -diag(1/mu), 0], [g^T, 0, 0]] has the
        negative inertia of the restricted H - s M, plus one per positive
        mu, plus one for the border (Haynsworth additivity).  M is positive
        definite, so by Sylvester's law that inertia counts the pencil's
        eigenvalues below s.
        """
        v, mu = self._outer_directions
        border = v.T if g is None else np.hstack([v.T, g[:, None]])
        corner = np.zeros((border.shape[1], border.shape[1]))
        corner[np.arange(mu.size), np.arange(mu.size)] = -1.0 / mu
        inertia = _negative_inertia(self.diag - s * mass, self.off, border, corner)
        return inertia - int(np.count_nonzero(mu > 0.0)) - (g is not None)


def _hessian(spec: ProblemSpec, tr: Trajectory, lam0: float, lam: Optional[float]) -> _Hessian:
    """The Hessian of lam0 * L - lam * K over the decision samples at tr."""
    terms = [(lam0, spec.lagrangian)]
    if spec.constraint is not None and lam:
        terms.append((-lam, spec.constraint.functional))
    d = decision_indices(spec).size
    diag, off = np.zeros(d), np.zeros(max(d - 1, 0))
    rows, blocks = [np.zeros((0, d))], []
    for coef, F in terms:
        if coef == 0.0:
            continue
        t_diag, t_off, t_rows, t_outer = hessian_parts(F, spec, tr)
        diag += coef * t_diag
        off += coef * t_off
        rows.append(t_rows)
        blocks.append(coef * t_outer)
    # Block-diagonal C by hand: scipy.linalg.block_diag costs more than the
    # dense Hessian assembly of a small problem.
    sizes = [b.shape[0] for b in blocks]
    C = np.zeros((sum(sizes), sum(sizes)))
    for b, at in zip(blocks, (0, *sizes)):  # at most two blocks
        C[at : at + b.shape[0], at : at + b.shape[0]] = b
    return _Hessian(diag, off, np.concatenate(rows), C)


def functional_hessian(spec: ProblemSpec, tr: Trajectory) -> np.ndarray:
    """Exact second derivative matrix of the objective over the decision samples."""
    return _hessian(spec, tr, 1.0, None).dense()


def constraint_hessian(spec: ProblemSpec, tr: Trajectory) -> np.ndarray:
    """Exact second derivative matrix of the constraint functional over the decision samples."""
    if spec.constraint is None:
        raise ValueError("problem has no isoperimetric constraint")
    return _hessian(spec, tr, 0.0, -1.0).dense()


def _newton_solver(H: _Hessian, border: Optional[np.ndarray] = None):
    """Newton systems with H, or with a border b [[H, b], [b^T, 0]], factored once.

    Returns ``solve(f, g=0.0)``: x with H x = f, or [x; nu] with the
    bordered matrix times [x; nu] = [f; g].  Above DENSE_NEWTON_LIMIT
    unknowns each right-hand side is first solved by block elimination
    (:meth:`_Hessian.factor`); at most that size, or where the elimination
    fails, by one dense LU of the same matrix, made on first need.
    """
    structured = H.factor(border) if H.diag.size > DENSE_NEWTON_LIMIT else None
    dense = None

    def solve(rhs: np.ndarray, last: float = 0.0) -> np.ndarray:
        nonlocal dense
        if structured is not None:
            x = structured(rhs, last)
            if x is not None:
                return x
        if dense is None:
            dense = _dense_solver(H.dense(border))
        return dense(rhs if border is None else np.append(rhs, last))

    return solve


def _dense_solver(M: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Solves with the square matrix M from one LU factorization.

    The factors are used only if their 1-norm condition estimate passes;
    otherwise each solve is the minimum-norm least-squares solution.
    """
    try:
        with warnings.catch_warnings():
            # Singular factorizations are expected here; the rcond gate
            # decides whether the factors are used.
            warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
            factors = scipy.linalg.lu_factor(M, check_finite=False)
        rcond, info = lapack.dgecon(factors[0], np.abs(M).sum(axis=0).max(), norm="1")
        if info == 0 and rcond > RCOND_LIMIT:
            return lambda f: lapack.dgetrs(*factors, f)[0]
    except (scipy.linalg.LinAlgError, ValueError):
        pass
    # Near-singular: least-squares solution (QR with pivoting; rank-deficient
    # systems get the minimum-norm solution of the truncated problem, which
    # projects out near-null components).
    return lambda f: scipy.linalg.lstsq(
        M, f, cond=1e-10, lapack_driver="gelsy", check_finite=False
    )[0]


class _LevelJacobian:
    """[H; g^T], the Jacobian of the abnormal residual [g; K - k], g = grad K.

    H is K's structured Hessian.  Since the level row's gradient
    is g itself, the least-squares (Gauss-Newton) step takes two square
    solves with one factorization of H: q = H^-1 g and p = H^-1 q give
    s = -q - p (K - k - g.q) / (1 + q.q).  A border pins both solves.
    """

    def __init__(self, H: _Hessian, g: np.ndarray):
        self.H, self.g = H, g
        self.finite = H.finite and np.isfinite(g).all()

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """[H; g^T]^T r = H r[:-1] + g r[-1], for the damped gradient step."""
        return self.H @ r[:-1] + self.g * r[-1]

    def step(self, r: np.ndarray, border: Optional[np.ndarray] = None) -> np.ndarray:
        solve, n = _newton_solver(self.H, border), self.g.size
        q = solve(self.g)[:n]
        p = solve(q)[:n]
        return -q - p * ((r[-1] - self.g @ q) / (1.0 + q @ q))


class _NormalJacobian:
    """[[H, b], [b^T, 0]] with b = -grad K, the Hessian of L - lam (K - k) in (z, lam).

    H is the Hessian of L - lam K.  This symmetric matrix is the Jacobian
    of the normal residual [grad L - lam grad K; k - K], and one bordered
    solve by :func:`_newton_solver` gives its Newton step (dz, dlam).
    """

    def __init__(self, H: _Hessian, b: np.ndarray):
        self.H, self.b = H, b
        self.finite = H.finite and np.isfinite(b).all()

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return np.append(self.H @ v[:-1] + self.b * v[-1], self.b @ v[:-1])

    rmatvec = __matmul__  # J^T r, for the damped gradient step: J is symmetric

    def step(self, r: np.ndarray) -> np.ndarray:
        if not self.b.any():
            # grad K = 0 decouples the system; dlam = 0 is the minimum-norm
            # answer, and H alone keeps the step free of (d+1)^2 arrays.
            return np.append(self.H.step(r[:-1]), 0.0)
        return _newton_solver(self.H, self.b)(-r[:-1], -r[-1])


def _run_newton(
    evaluate: Callable[[np.ndarray], tuple[np.ndarray, Callable[[], object]]],
    w0: np.ndarray,
    opts: SolveOptions,
    pin_scale: bool = False,
) -> _NewtonResult:
    """Damped Newton from w0; with ``pin_scale`` every step keeps ||w||.

    ``evaluate(w)`` returns the residual at w and a thunk that builds the
    Jacobian there from the same trajectory, and so from the same
    evaluation of the sampled partials; only accepted iterates call it.
    Scale-invariant gradient systems (r(c*w) = r(w)/c) have rays of roots
    along which an unpinned Newton step escapes instead of converging.
    A run escapes once ESCAPE_STEPS full Newton steps in a row each outgrow
    the previous Newton step and grow ||w||, well before the backstop
    ||w|| > 1e3 * (1 + ||w0||), which takes quotients 15-25 iterations.
    A run stagnates, and ends unconverged, once STAGNATION_STEPS accepted
    steps in a row each needed alpha <= STAGNATION_ALPHA or the damped
    gradient while max |r| stays above ``opts.tol_residual``: such runs
    otherwise crawl along a merit valley to MAX_ITERS.  A run already
    below tolerance is never cut there, since it may still stall onto a root.
    """
    w = np.asarray(w0, dtype=float).copy()
    try:
        r, jacobian = evaluate(w)
    except _EVAL_ERRORS as exc:
        return _NewtonResult(w, np.full_like(w, np.inf), False, 0, failure=exc)
    if not np.isfinite(r).all():
        return _NewtonResult(w, r, False, 0)

    def contracting(d: np.ndarray, w: np.ndarray) -> bool:
        return np.isfinite(d).all() and float(np.linalg.norm(d)) <= (
            CONTRACTION_LIMIT * (1.0 + float(np.linalg.norm(w)))
        )

    # A point is accepted as a root in two ways: the residual is below
    # tolerance and the Newton step there contracts (a genuine root), or the
    # line search stalls with the residual below tolerance (a merit minimum,
    # reaching the smallest residual the discretization admits).  Running out
    # of iterations while the merit is still descending does NOT qualify:
    # that is the signature of a drift toward an asymptotic flat, where the
    # gradient shrinks without any stationary point nearby.
    last_failure: Optional[BaseException] = None
    stalled = False
    it = 0
    w_norm, newton_norm, growing, deep = float(np.linalg.norm(w)), np.inf, 0, 0
    escape_norm = 1e3 * (1.0 + w_norm)
    for it in range(MAX_ITERS):
        r_inf = float(np.abs(r).max())
        try:
            J = jacobian()
        except _EVAL_ERRORS as exc:
            # Residual is known but the matrix is not evaluable here.
            return _NewtonResult(w, r, r_inf <= opts.tol_residual, it, failure=exc)
        if not J.finite:
            return _NewtonResult(w, r, False, it)

        d_newton = J.step(r, w) if pin_scale else J.step(r)
        if r_inf <= opts.tol_residual and contracting(d_newton, w):
            # Polish with the contracting step: unpolished roots of one branch
            # sit further apart than the dedup distance.  The polished point
            # must keep the acceptance bound on the largest residual entry.
            try:
                r_next, _ = evaluate(w + d_newton)
            except _EVAL_ERRORS:
                r_next = None
            if r_next is not None and np.isfinite(r_next).all() and (
                float(r_next @ r_next) <= float(r @ r)
                and float(np.max(np.abs(r_next))) <= opts.tol_residual
            ):
                w, r = w + d_newton, r_next
            return _NewtonResult(w, r, True, it)

        merit0 = float(r @ r)
        accepted = False
        for d in (d_newton, None):
            if d is None:  # the damped gradient step, formed only when needed
                d = -DAMPED_STEP * J.rmatvec(r)
            if not np.isfinite(d).all() or not d.any():
                continue
            alpha = 1.0
            for _ in range(MAX_BACKTRACKS):
                w_trial = w + alpha * d
                try:
                    r_trial, jacobian_trial = evaluate(w_trial)
                except _EVAL_ERRORS as exc:
                    last_failure = exc
                    r_trial = None
                if r_trial is not None and np.isfinite(r_trial).all():
                    merit = float(r_trial @ r_trial)
                    if merit <= merit0 * (1.0 - ARMIJO_SLOPE * alpha):
                        accepted = True
                        break
                alpha *= 0.5
            if accepted:
                step_norm = float(np.linalg.norm(alpha * d))
                w, r, jacobian = w_trial, r_trial, jacobian_trial
                break
        if not accepted:
            stalled = True
            break
        if merit0 - merit <= STALL_RELATIVE_PROGRESS * merit0:
            stalled = True
            break
        w_norm, w_norm_prev = float(np.linalg.norm(w)), w_norm
        if step_norm <= STEP_TOLERANCE * (1.0 + w_norm):
            stalled = True
            break
        outgrew = d is d_newton and alpha == 1.0 and step_norm > newton_norm
        growing = growing + 1 if outgrew and w_norm > w_norm_prev else 0
        newton_norm = step_norm if d is d_newton else newton_norm
        if w_norm > escape_norm or growing == ESCAPE_STEPS:
            # Runaway amplitude: the iterate is escaping toward the flat far
            # field where no stationary point exists.
            return _NewtonResult(w, r, False, it, failure=last_failure)
        deep = deep + 1 if d is not d_newton or alpha <= STAGNATION_ALPHA else 0
        if deep >= STAGNATION_STEPS and float(np.abs(r).max()) > opts.tol_residual:
            return _NewtonResult(w, r, False, it, failure=last_failure)

    r_inf = float(np.abs(r).max())
    converged = r_inf <= opts.tol_residual and stalled
    return _NewtonResult(w, r, converged, it, failure=last_failure)


# -- assembling and deduplicating stationary points ------------------------------


def _output_order(point: StationaryPoint):
    """Normal before abnormal, then by value; never by residuals (rounding noise)."""
    return (not point.normal, point.value)


def _detect_scale_invariance(spec: ProblemSpec) -> bool:
    """True when the objective value is invariant under scaling trajectories.

    Scale-invariant objectives satisfy Euler's identity gradient(x) . x = 0
    at every x, so two generic probes suffice.  Their stationary sets are
    rays; the solver then pins the iterate norm and deduplicates rays by
    their normalized representatives.
    """
    idx = decision_indices(spec)
    s = np.linspace(0.3, 1.0, idx.size)
    for probe in (np.sin(2.0 + 3.0 * s) + 0.5, 0.25 * s * s - 0.75):
        try:
            tr = embed_decision(spec, probe)
            g = functional_gradient(spec, tr)
        except _EVAL_ERRORS:
            return False
        norm = float(np.linalg.norm(g)) * float(np.linalg.norm(probe))
        if norm == 0.0 or abs(float(g @ probe)) > 1e-10 * norm:
            return False
    return True


def _ray_keys(tr: Trajectory) -> tuple[Trajectory, ...]:
    """Both unit-norm representatives of a trajectory's ray.

    A sign rule cannot pick one of them: antisymmetric trajectories have two
    extremes of equal size, and rounding decides which one is larger.
    """
    norm = float(np.linalg.norm(tr.x))
    if norm == 0.0:
        return (tr,)
    xn = tr.x / norm
    return Trajectory(tr.ts, xn), Trajectory(tr.ts, -xn)


def _dedup(
    raw: list[tuple[np.ndarray, float, object]],
    spec: ProblemSpec,
    opts: SolveOptions,
    ray_normalize: bool = False,
) -> list[tuple[Trajectory, float, int, object]]:
    """Greedy clustering of converged decision vectors in the weak norm.

    ``raw`` holds (decision vector, residual, payload) triples; a cluster
    keeps the payload (the isoperimetric multiplier) of its representative.
    With ``ray_normalize`` points are compared as rays, by both signs.
    """
    # The best-converged candidate of a cluster represents it.
    raw_sorted = sorted(raw, key=lambda item: (item[1], tuple(item[0].tolist())))
    clusters: list[list] = []  # [representative, key, residual, count, payload]
    for z, res, payload in raw_sorted:
        tr = embed_decision(spec, z)
        keys = _ray_keys(tr) if ray_normalize else (tr,)
        for cluster in clusters:
            if any(c1rd_distance(cluster[1], key) < opts.dedup_distance for key in keys):
                cluster[3] += 1
                break
        else:
            clusters.append([tr, keys[0], res, 1, payload])
    return [(rep, res, count, payload) for rep, _key, res, count, payload in clusters]


def _finish_point(
    spec: ProblemSpec,
    tr: Trajectory,
    residual: float,
    basin: int,
    lam0: float = 1.0,
    lam: Optional[float] = None,
) -> StationaryPoint:
    F = inner_values(spec.lagrangian, tr)
    val = value(spec.lagrangian, tr)
    g_val = None if spec.constraint is None else value(spec.constraint.functional, tr)
    point = StationaryPoint(
        trajectory=tr,
        inner=F,
        value=val,
        residual=residual,
        lam0=lam0,
        lam=lam,
        constraint_value=g_val,
        basin_count=basin,
        dr_spread=dubois_reymond_spread(spec, tr, lam0, lam),
    )
    point.classification = classify(spec, point)
    return point


def _points(spec: ProblemSpec, runs: list[_NewtonResult], opts: SolveOptions, lam0: float = 1.0,
            lam: Optional[float] = None, ray_normalize: bool = False) -> list[StationaryPoint]:
    """The deduplicated, finished stationary points of the runs that converged.

    Normal isoperimetric runs (a constraint and lam0 = 1) solve for
    (z, lam), and each of their points keeps its own multiplier.
    """
    normal = spec.constraint is not None and lam0 == 1.0
    converged = [(out.w[:-1], out.residual_norm, float(out.w[-1])) if normal
                 else (out.w, out.residual_norm, lam) for out in runs if out.converged]
    return [_finish_point(spec, tr, res, count, lam0, multiplier)
            for tr, res, count, multiplier in _dedup(converged, spec, opts, ray_normalize)]


def _no_point(
    runs: list[_NewtonResult], opts: SolveOptions, target: Optional[float] = None
) -> Exception:
    """The exception to raise when none of the runs converged.

    Given the constraint value ``target``, the runs are normal
    isoperimetric ones, whose last residual entry is the constraint defect.
    """
    if all(isinstance(out.failure, DenominatorVanished) for out in runs):
        return DenominatorVanished(
            f"every one of {opts.restarts} restarts hit a vanishing denominator"
        )
    if target is not None:
        best = min((abs(float(out.residual[-1])) for out in runs
                    if np.all(np.isfinite(out.residual))), default=np.inf)
        if best > max(1e-6, 10.0 * opts.tol_residual) * (1.0 + abs(target)):
            return ConstraintInfeasible(
                f"no restart reached the constraint value {target!r} (best defect {best:.3g})"
            )
    return NoStationaryPointFound(f"no stationary trajectory found in {opts.restarts} restarts")


# -- public solvers ---------------------------------------------------------------


def _gradient_system(spec: ProblemSpec, level: Optional[float] = None):
    """(evaluate, scale_invariant) of Newton on the gradient of spec's objective F.

    The residual is grad F; with a ``level`` it is [grad F; F - level], whose
    Gauss-Newton steps (_LevelJacobian) draw runs onto that level set.  Runs
    on a scale-invariant F pin ||w||.
    """
    F = spec.lagrangian

    def evaluate(z):
        tr = embed_decision(spec, z)
        g = functional_gradient(spec, tr)
        if level is None:
            return g, lambda: _hessian(spec, tr, 1.0, None)
        defect = F.outer_value(_partials(F, tr).us) - level  # the record g just filled
        return np.append(g, defect), lambda: _LevelJacobian(_hessian(spec, tr, 1.0, None), g)

    return evaluate, _detect_scale_invariance(spec)


def solve_unconstrained(
    spec: ProblemSpec, opts: SolveOptions | None = None
) -> list[StationaryPoint]:
    """All distinct stationary trajectories found by multi-start Newton.

    Every returned point satisfies ||gradient||_inf <= opts.tol_residual.
    Raises :class:`NoStationaryPointFound` when no restart converges and
    :class:`DenominatorVanished` when every restart dies on a vanishing
    outer-map denominator.
    """
    if spec.constraint is not None:
        raise ValueError("spec has a constraint; use solve_isoperimetric")
    opts = opts or SolveOptions()
    evaluate, scale_invariant = _gradient_system(spec)
    runs = [_run_newton(evaluate, _initial_decision(spec, opts, restart), opts, scale_invariant)
            for restart in range(opts.restarts)]
    points = _points(spec, runs, opts, ray_normalize=scale_invariant)
    if not points:
        raise _no_point(runs, opts)
    return sorted(points, key=_output_order)


def _fit_multiplier(gL: np.ndarray, gK: np.ndarray) -> float:
    denom = float(gK @ gK)
    if denom <= 0.0 or not np.isfinite(denom):
        return 0.0
    return float(gL @ gK) / denom


def fit_multipliers(gL: np.ndarray, gK: np.ndarray) -> tuple[float, float]:
    """The multiplier pair (lam0, lam) of a trajectory with gradients gL and gK.

    Of the two pairs normalized as the solver reports them, the normal
    (1, least-squares lam) and the abnormal (0, 1), this is the one whose
    gradient lam0 * gL - lam * gK is smaller; a tie is normal.
    """
    lam = _fit_multiplier(gL, gK)
    if np.linalg.norm(gK) < np.linalg.norm(gL - lam * gK):
        return 0.0, 1.0
    return 1.0, lam


def solve_isoperimetric(
    spec: ProblemSpec, opts: SolveOptions | None = None
) -> list[StationaryPoint]:
    """Stationary trajectories of the constrained problem, normal and abnormal.

    The normal branch (lambda0 = 1) finds the stationary points of
    L - lambda * (K - k) in (decision samples, lambda), the roots of
    [grad L - lambda * grad K; k - K].  Its Newton matrix is that
    Lagrangian's symmetric bordered Hessian [[H, -grad K], [-grad K^T, 0]],
    H the Hessian of L - lambda * K (_NormalJacobian), and a step gives the
    change of lambda directly, by block elimination above
    DENSE_NEWTON_LIMIT unknowns, so in O(d) time and memory.  Each normal
    run starts on the constraint (Nocedal & Wright, Numerical Optimization,
    2nd ed., ch. 15 and 18): a scalar Newton on K(z0 + s grad K(z0)) = k
    restores the start z0, and lambda is the least-squares multiplier there.
    The restored start is kept only if that Newton converged and ||grad K||
    there is at least RESTORE_GRADIENT times ||grad K(z0)|| (else the level
    set is degenerate, a case for the abnormal branch); if the run from it
    fails, the restart runs from z0 with the multiplier fitted at z0, as
    it would without the restoration.  Where a normal point has a nearly
    vanishing grad K, or no normal run converges, the abnormal branch
    (lambda0 = 0) seeks extremals of K itself that meet the constraint
    value, by the unconstrained Newton system for K.
    Points are labeled through ``lam0``.
    """
    if spec.constraint is None:
        raise ValueError("spec has no constraint; use solve_unconstrained")
    opts = opts or SolveOptions()
    K, target = spec.constraint.functional, spec.constraint.target
    # The last two trajectories built, by decision bytes.  Every reuse hands
    # one z to its next consumer: the restored start to the multiplier fit
    # and Newton's first residual, the current iterate to a step (a trial or
    # the polish) that moves only lambda, and a run's last iterate to the
    # abnormal-seed check.
    embed = lru_cache(maxsize=2)(lambda key: embed_decision(spec, np.frombuffer(key)))

    def trajectory(z):
        return embed(z.tobytes())

    def constraint(tr):
        """(grad K, K - k) at tr, from one record of K."""
        gK = constraint_gradient(spec, tr)
        return gK, K.outer_value(_partials(K, tr).us) - target  # the record gK just filled

    def evaluate(w):
        z, lam = w[:-1], w[-1]
        tr = trajectory(z)
        gL = functional_gradient(spec, tr)
        gK, defect = constraint(tr)
        return np.append(gL - lam * gK, -defect), lambda: _NormalJacobian(
            _hessian(spec, tr, 1.0, lam), -gK
        )

    def restored(z0):
        """z0 + s grad K(z0) with K = k there, by scalar Newton in s; None where that fails.

        Also None where ||grad K|| at that point fell below RESTORE_GRADIENT
        times its size at z0 (a degenerate level set).
        """
        try:
            g0, defect = constraint(trajectory(z0))
            if abs(defect) <= opts.tol_residual:
                return None  # z0 is on the level set: its own run is the restored one
            g0_norm, s, gK = float(np.linalg.norm(g0)), 0.0, g0
            for _ in range(RESTORE_ITERS):
                slope = float(gK @ g0)
                if not (np.isfinite(slope) and slope != 0.0):
                    return None
                s -= defect / slope
                z = z0 + s * g0
                gK, defect = constraint(trajectory(z))
                if abs(defect) <= opts.tol_residual:
                    return z if np.linalg.norm(gK) >= RESTORE_GRADIENT * g0_norm else None
        except _EVAL_ERRORS:
            pass
        return None

    def start(z):
        """[z; the least-squares multiplier at z], 0 where it cannot be evaluated."""
        tr = trajectory(z)
        try:
            return np.append(z, _fit_multiplier(functional_gradient(spec, tr),
                                                constraint_gradient(spec, tr)))
        except _EVAL_ERRORS:
            return np.append(z, 0.0)

    inits = [_initial_decision(spec, opts, restart) for restart in range(opts.restarts)]
    runs, seeds = [], []
    for z0 in inits:
        z = restored(z0)
        out = None if z is None else _run_newton(evaluate, start(z), opts)
        if out is None or not out.converged:
            out = _run_newton(evaluate, start(z0), opts)
        runs.append(out)
        if out.converged:
            # Newton evaluated gK at this z already, so this cannot raise.
            gK = constraint_gradient(spec, trajectory(out.w[:-1]))
            if float(np.max(np.abs(gK))) < ABNORMAL_GRADIENT:
                seeds.append(out.w[:-1])
    if not any(out.converged for out in runs):
        # The normal system's Jacobian degenerates exactly when abnormal
        # extremals exist, so retry the lambda0 = 0 branch from every start.
        seeds = inits

    # Abnormal extremals are the extremals of K itself that lie on K = k:
    # the objective's Newton system for K, drawn onto that level set.
    abnormal = []
    if seeds:
        kspec = dataclasses.replace(spec, lagrangian=K, constraint=None)
        evaluate_k, scale_invariant = _gradient_system(kspec, level=target)
        abnormal = [_run_newton(evaluate_k, z0, opts, scale_invariant) for z0 in seeds]

    points = _points(spec, runs, opts) + _points(spec, abnormal, opts, lam0=0.0, lam=1.0)
    if not points:
        raise _no_point(runs, opts, target)
    return sorted(points, key=_output_order)


# -- classification -----------------------------------------------------------------

# Bunch's pivot threshold for the block LDL^T of a symmetric tridiagonal
# matrix; it bounds the element growth of both pivot sizes.
_BUNCH_ALPHA = (5.0 ** 0.5 - 1.0) / 2.0

# Pencil eigenvalues within this fraction of the pencil's largest Rayleigh
# quotient on the first four sine modes count as zero; that scale converges
# as h -> 0, so the threshold does not shrink with the grid.
DEGENERATE_RELATIVE = 1e-6

# Outer-map curvature directions whose rank-one term is below this fraction
# of the operator's size are rounding noise and are dropped.
_NULL_RELATIVE = 1e-13


def _negative_inertia(
    diag: np.ndarray, off: np.ndarray, border: np.ndarray, corner: np.ndarray
) -> int:
    """Number of negative eigenvalues of [[tridiag(diag, off), border], [border.T, corner]].

    One block LDL^T pass over the tridiagonal block with Bunch's 1x1/2x2
    pivoting (no fill, stable where the block is singular) carries the
    dense border along; by Sylvester's law the count is the negative
    pivots plus the negative eigenvalues of the small Schur corner.  The
    sign of a 2x2 pivot comes from its determinant.  A zero pivot with no
    coupling ahead touches only the border, so it joins the corner.
    """
    n = diag.size
    a = diag.tolist()
    b = off.tolist()
    sigma = max(max(map(abs, a), default=0.0), max(map(abs, b), default=0.0))
    sub1 = [0.0] * n  # L[i + 1, i]
    sub2 = [0.0] * n  # L[i + 2, i]
    ones, ones_piv = [], []  # 1x1 pivot positions and values
    twos, twos_lead = [], []  # 2x2 pivot positions and updated leading entries
    deferred = []
    neg = 0
    i = 0
    c = a[0] if n else 0.0
    while i < n:
        e = b[i] if i + 1 < n else 0.0
        if sigma * abs(c) >= _BUNCH_ALPHA * e * e:
            if c == 0.0:
                deferred.append(i)
            else:
                neg += c < 0.0
                ones.append(i)
                ones_piv.append(c)
                sub1[i] = e / c
            if i + 1 < n:
                c = a[i + 1] - sub1[i] * e
            i += 1
        else:
            det = c * a[i + 1] - e * e
            neg += 1 if det < 0.0 else (2 if c < 0.0 else 0)
            twos.append(i)
            twos_lead.append(c)
            if i + 2 < n:
                f = b[i + 1]
                sub2[i] = -f * e / det
                sub1[i + 1] = f * c / det
                c = a[i + 2] - f * sub1[i + 1]
            i += 2

    schur = np.array(corner, dtype=float)
    if border.shape[1] and n:
        band = np.array([np.ones(n), sub1, sub2])
        reduced, _ = lapack.dtbtrs(band, border, uplo="L", diag="U")
        if ones:
            x = reduced[ones]
            schur -= x.T @ (x / np.array(ones_piv)[:, None])
        if twos:
            p = np.array(twos)
            x, y = reduced[p], reduced[p + 1]
            lead, e, tail = np.array(twos_lead), off[p], diag[p + 1]
            det = (lead * tail - e * e)[:, None]
            schur -= x.T @ ((tail[:, None] * x - e[:, None] * y) / det)
            schur -= y.T @ ((lead[:, None] * y - e[:, None] * x) / det)
        if deferred:
            z = reduced[deferred]
            schur = np.block([[np.zeros((len(deferred), len(deferred))), z], [z.T, schur]])
    return neg + int(np.count_nonzero(np.linalg.eigvalsh(schur) < 0.0))


def classify(spec: ProblemSpec, point: StationaryPoint) -> str:
    """Advisory min/max/saddle/degenerate label from the inertia of the pencil (H, M).

    H is the exact Hessian of the multiplier-corrected value lam0 * L - lam * K,
    the structured operator of :func:`hessian_parts` (tridiagonal plus low
    rank).  M = diag(mu(rho(t_j))) holds the graininess that each decision
    sample carries as x^sigma in the Delta-sum (a free left end takes the
    first step), so M^-1 H is the discrete second variation, whose low
    spectrum converges as h -> 0.  For constrained problems the pencil is
    restricted to the tangent space of the constraint.  Eigenvalues below
    +-eps are counted by Sylvester's law from one LDL^T pass per shift;
    eps is DEGENERATE_RELATIVE times the largest |v^T H v| / v^T M v over
    the first four sine modes of [a, b], and any eigenvalue within eps of
    zero marks the point degenerate.  Time and memory are O(d): no d x d
    array is formed.
    """
    try:
        tr = point.trajectory
        hess = _hessian(spec, tr, point.lam0, point.lam)
        g = None
        if spec.constraint is not None:
            gK = constraint_gradient(spec, tr)
            if not np.all(np.isfinite(gK)):
                return DEGENERATE
            norm = float(np.linalg.norm(gK))
            g = gK / norm if norm > 0.0 else None
        dim = hess.diag.size - (g is not None)
        if not hess.finite or dim == 0:
            return DEGENERATE
        ts, idx = spec.ts, decision_indices(spec)
        mass = ts.steps[np.maximum(idx - 1, 0)]
        modes = np.sin(np.pi * np.arange(1, 5)[:, None] * (ts.points[idx] - ts.a) / ts.span)
        eps = DEGENERATE_RELATIVE * max(abs(v @ (hess @ v)) / (v @ (mass * v)) for v in modes)
        if not eps > 0.0:
            return DEGENERATE
        below_lo = hess.count_below(-eps, mass, g)
        below_hi = hess.count_below(eps, mass, g)
        if below_hi > below_lo:
            return DEGENERATE
        if below_hi == 0:
            return LOCAL_MIN
        if below_lo == dim:
            return LOCAL_MAX
        return SADDLE
    except _EVAL_ERRORS:
        return DEGENERATE


# -- grid refinement study -------------------------------------------------------------


@dataclass(frozen=True)
class RefinePoint:
    value: float
    inner: tuple
    reference_distance: Optional[float]


@dataclass(frozen=True)
class RefineRow:
    h: float
    points: tuple
    error: Optional[str] = None


@dataclass(frozen=True)
class RefineStudy:
    """Solve results across a decreasing list of grid steps.

    Stationary points in each row are sorted by functional value so that
    branch k of one row continues branch k of the next.  ``branch_orders``
    estimates the convergence order of branch values from successive
    differences.
    """

    rows: tuple

    def branch_count(self) -> int:
        return max((len(r.points) for r in self.rows), default=0)

    def branch_values(self, branch: int) -> list[tuple[float, float]]:
        return [(row.h, row.points[branch].value) for row in self.rows
                if row.error is None and len(row.points) > branch]

    def branch_orders(self, branch: int) -> list[float]:
        vals = self.branch_values(branch)
        diffs = [(h, abs(v - v_next)) for (h, v), (_, v_next) in zip(vals, vals[1:])]
        return [float(np.log(d1 / d2) / np.log(h1 / h2))
                for (h1, d1), (h2, d2) in zip(diffs, diffs[1:])
                if d1 > 0 and d2 > 0 and h1 != h2]

    def format_table(self) -> str:
        lines = ["h          branch  value                 F values / note"]
        for row in self.rows:
            if row.error is not None:
                lines.append(f"{row.h:<10.4g} -       FAILED: {row.error}")
                continue
            for b, pt in enumerate(row.points):
                inner = ", ".join(f"{v:.10g}" for v in pt.inner)
                dist = pt.reference_distance
                dist = "" if dist is None else f"  dist={dist:.3g}"
                lines.append(
                    f"{row.h:<10.4g} {b:<7d} {pt.value:<21.12g} F=[{inner}]{dist}"
                )
        for b in range(self.branch_count()):
            orders = self.branch_orders(b)
            if orders:
                orders_text = ", ".join(f"{o:.2f}" for o in orders)
                lines.append(f"branch {b}: observed value order(s) {orders_text}")
        return "\n".join(lines)


def refine_study(
    make_spec: Callable[[float], ProblemSpec],
    h_list: Sequence[float],
    opts: SolveOptions | None = None,
    reference: Callable[[np.ndarray], np.ndarray] | None = None,
) -> RefineStudy:
    """Solve the same problem family on successively finer grids.

    ``make_spec(h)`` builds the problem for step ``h``; ``reference`` is an
    optional callable mapping scale points to reference trajectory values.
    Failures are recorded per row, leaving the rest of the table intact.
    """
    rows = []
    for h in h_list:
        spec = make_spec(float(h))
        solve = solve_unconstrained if spec.constraint is None else solve_isoperimetric
        try:
            pts = solve(spec, opts)
        except (NoStationaryPointFound, ConstraintInfeasible, DenominatorVanished) as exc:
            rows.append(RefineRow(h=float(h), points=(), error=str(exc)))
            continue
        ref = None if reference is None else np.asarray(reference(spec.ts.points), dtype=float)
        row_points = tuple(
            RefinePoint(
                value=p.value,
                inner=tuple(float(v) for v in p.inner),
                reference_distance=(
                    None if ref is None else float(np.max(np.abs(p.trajectory.x - ref)))
                ),
            )
            for p in sorted(pts, key=lambda p: p.value)
        )
        rows.append(RefineRow(h=float(h), points=row_points))
    return RefineStudy(rows=tuple(rows))
