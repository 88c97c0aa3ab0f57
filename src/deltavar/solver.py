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
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from .euler_lagrange import (
    ProblemSpec,
    _embedded,
    _fill_partials,
    _partials,
    constraint_gradient,
    decision_indices,
    dubois_reymond_spread,
    embed_decision,
    functional_gradient,
    hessian_parts,
)
from .functional import (
    _BATCH_SAMPLES,
    _EVAL_ERRORS,
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

# _newton_solver solves the Newton systems of one lockstep round (plain,
# sphere-bordered or normal isoperimetric KKT systems) of at most this many
# unknowns one by one, each on its dense form by LAPACK; larger ones all at
# once, by the block elimination of _block_factor (one banded LU of the
# runs' stacked tridiagonal blocks plus a small capacitance system per run),
# with a run's dense LU as its fallback.  No Newton system forms a d x d
# array above this size unless that fallback fires.  Microseconds per run
# and plain step, dense / batched, for b runs asking in one round (factor,
# solve, defect check and refinement; quotient2_R Hessians, one BLAS thread,
# 2-vCPU VM):
#
#      d      b = 1       b = 4       b = 16      b = 40
#      9     60 / 316    49 / 113    48 /  73    49 /  49
#     24     58 / 358    42 / 130    40 /  55    55 /  54
#     39     69 / 455    54 / 132    51 /  58    76 /  61
#     66    169 / 510   137 / 196   137 / 103   148 /  87
#     99    233 / 568   191 / 177   190 /  98   190 /  89
#
# A coarse round asks 34-46 steps at a time, where the batched solve wins
# from d = 39 on (from 66 on at 16 runs), so the limit sits at 40.  A lone
# run (a solve with one restart) pays the batched solve's fixed cost of
# 0.3-0.5 ms.
DENSE_NEWTON_LIMIT = 40

# A row that block elimination declines falls back to its dense LU only up to
# this many unknowns (the bundled fine grids have d = 999); above it the row's
# step is NaN, and its run takes the damped gradient step.  One fallback on a
# singular sturm_liouville Hessian (LU, then least squares) at d = 1,000 / 2,000
# / 4,000 took 0.17 / 1.30 / 9.6 s and grew the peak RSS by 21 / 70 / 259 MB, 2.1
# times M (one BLAS thread, 2-vCPU VM, fresh processes); at d = 49,999: 40 GiB.
DENSE_FALLBACK_LIMIT = 2000

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
    failure: Optional[type] = None  # the error met; not the error, whose traceback holds a round

    @property
    def residual_norm(self) -> float:
        return float(np.max(np.abs(self.residual)))


class _Hessian:
    """Exact Hessian tridiag(diag, off) + U^T C U of lam0 * L - lam * K.

    Its Newton systems, [[H, B], [B^T, 0]] with a (d, m) border B (H alone
    when m = 0), are solved a round at a time (:func:`_newton_solver`): above
    DENSE_NEWTON_LIMIT unknowns by one block elimination of every asking
    run's system (:func:`_block_factor`), and otherwise, or where a run's
    row declines, by the dense LU of ``dense``, the one array form of H,
    which :func:`functional_hessian` and :func:`constraint_hessian` return
    too.  ``count_below`` serves :func:`classify`.
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

    def dense(self, B: np.ndarray) -> np.ndarray:
        """The (d+m)^2 array [[H, B], [B^T, 0]] of a (d, m) border B: H itself when m = 0."""
        d, n = self.diag.size, self.diag.size + B.shape[1]
        M = np.empty((n, n))
        np.matmul(self.U.T @ self.C, self.U, out=M[:d, :d])
        M[:d, d:], M[d:, :d], M[d:, d:] = B, B.T, 0.0
        flat = M.reshape(-1)  # a view: M is a fresh contiguous array
        flat[: n * d : n + 1] += self.diag
        flat[1 : n * (d - 1) : n + 1] += self.off
        flat[n : n * d : n + 1] += self.off
        return M

    @staticmethod
    def steps(hessians, rs, pins) -> list:
        """For each H, the first r.size entries of v with [[H, B], [B^T, 0]] v = [-r; 0], B its
        pin and r.size <= d + m, every system solved together.

        With r.size = d this is the Newton step H s = -r with B^T s = 0:
        bordered by the iterate, a Newton step on the sphere.
        """
        n = rs[0].size
        F = np.zeros((len(rs), hessians[0].diag.size + pins[0].shape[1]))
        np.negative(rs, out=F[:, :n])
        return list(_newton_solver(hessians, pins)(F)[:, :n])

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

    def count_below(self, s: float, mass: np.ndarray, B: np.ndarray) -> int:
        """Eigenvalues below s of the pencil (H, diag(mass)) on the complement of B's columns.

        B is a (d, m) border of full column rank.  With the outer curvature
        diagonalized as V^T diag(mu) V (mu nonsingular), the bordered matrix
        [[T - s M, V^T, B], [V, -diag(1/mu), 0], [B^T, 0, 0]] has the
        negative inertia of the restricted H - s M, plus one per positive
        mu, plus m for the border (Haynsworth additivity).  M is positive
        definite, so by Sylvester's law that inertia counts the pencil's
        eigenvalues below s.
        """
        v, mu = self._outer_directions
        border = np.concatenate([v, B.T]).T
        corner = np.zeros((border.shape[1], border.shape[1]))
        corner[np.arange(mu.size), np.arange(mu.size)] = -1.0 / mu
        inertia = _negative_inertia(self.diag - s * mass, self.off, border, corner)
        return inertia - int(np.count_nonzero(mu > 0.0)) - B.shape[1]


def _hessian(spec: ProblemSpec, tr, lam0: float, lam):
    """The Hessian of lam0 * L - lam * K over the decision samples at tr, or the list of them
    at a list of trajectories, assembled together (:func:`hessian_parts`), with one lam or one
    per trajectory; given a constraint and lam, each carries K's rows, at lam = 0 too."""
    trs = [tr] if isinstance(tr, Trajectory) else tr
    terms = [(np.full(len(trs), lam0), spec.lagrangian)] if lam0 else []
    if spec.constraint is not None and lam is not None:
        terms.append((-np.full(len(trs), lam, dtype=float), spec.constraint.functional))
    d = decision_indices(spec).size
    diag, off = np.zeros((len(trs), d)), np.zeros((len(trs), max(d - 1, 0)))
    rows, blocks = [np.zeros((len(trs), 0, d))], []
    for coef, F in terms:
        t_diag, t_off, t_rows, t_outer = hessian_parts(F, spec, trs)
        diag += coef[:, None] * t_diag
        off += coef[:, None] * t_off
        rows.append(t_rows)
        blocks.append(coef[:, None, None] * t_outer)
    # Block-diagonal C by hand: scipy.linalg.block_diag costs more than the
    # dense Hessian assembly of a small problem.
    sizes = [b.shape[1] for b in blocks]
    C = np.zeros((len(trs), sum(sizes), sum(sizes)))
    for b, at in zip(blocks, (0, *sizes)):  # at most two blocks
        C[:, at : at + b.shape[1], at : at + b.shape[1]] = b
    # Each Hessian views its rows of these arrays, so it keeps the whole call's arrays alive.
    hessians = [*map(_Hessian, diag, off, np.concatenate(rows, axis=1), C)]
    return hessians[0] if tr is not trs else hessians


def functional_hessian(spec: ProblemSpec, tr: Trajectory) -> np.ndarray:
    """Exact second derivative matrix of the objective over the decision samples."""
    return _hessian(spec, tr, 1.0, None).dense(np.zeros((decision_indices(spec).size, 0)))


def constraint_hessian(spec: ProblemSpec, tr: Trajectory) -> np.ndarray:
    """Exact second derivative matrix of the constraint functional over the decision samples."""
    if spec.constraint is None:
        raise ValueError("problem has no isoperimetric constraint")
    return _hessian(spec, tr, 0.0, -1.0).dense(np.zeros((decision_indices(spec).size, 0)))


def _newton_solver(hessians: Sequence[_Hessian], borders: Sequence[np.ndarray]):
    """The Newton systems [[H, B], [B^T, 0]] of one round, with (d, m) borders B, factored once.

    Returns ``solve(F)``, the (b, d + m) stack whose row i solves system i
    for row i of F.  Above DENSE_NEWTON_LIMIT unknowns every row is first
    solved by one block elimination of all the systems (:func:`_block_factor`);
    at most that size, or where a row declines, by one dense LU of that
    row's system, made on its first need.  Above DENSE_FALLBACK_LIMIT
    unknowns a declined row forms no dense system: its answer is NaN.
    """
    d = hessians[0].diag.size
    block = _block_factor(hessians, borders) if d > DENSE_NEWTON_LIMIT else None
    dense = [None] * len(hessians)

    def solve(F: np.ndarray) -> np.ndarray:
        V, ok = block(F) if block else (np.empty_like(F), np.zeros(len(F), dtype=bool))
        for i in np.flatnonzero(~ok):
            if dense[i] is None:
                dense[i] = (_dense_solver(hessians[i].dense(borders[i])) if d <= DENSE_FALLBACK_LIMIT
                            else partial(np.full_like, fill_value=np.nan))
            V[i] = dense[i](F[i])
        return V

    return solve


def _tridiagonal_pattern(blocks: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(row indices, column starts) of ``blocks`` tridiagonal d x d blocks down one diagonal, in
    compressed columns: column j of a block holds its rows j-1, j and j+1, none of another block."""
    per = 3 * d - 2
    rows = (np.arange(d)[:, None] + np.arange(-1, 2)).ravel()[1:-1] + d * np.arange(blocks)[:, None]
    starts = np.concatenate([[0], np.arange(2, per, 3)]) + per * np.arange(blocks)[:, None]
    return rows.ravel().astype(np.intc), np.append(starts.ravel(), per * blocks).astype(np.intc)


def _tridiagonal_solver(diags: np.ndarray, offs: np.ndarray):
    """(solve, factored) for the b tridiagonal blocks T = tridiag(diags[i], offs[i]) of order d.

    ``solve(X)`` gives T^-1 X for a (b, d) or (b, d, c) stack X, and
    ``factored[i]`` is False where block i is exactly singular; its rows of
    T^-1 X are zero.  The blocks are factored together, as one block-diagonal
    matrix in natural order, which keeps the LU banded and gives each block
    the bits of its own factorization.  Where some block is exactly
    singular, each is factored alone.
    """
    b, d = diags.shape
    data = np.zeros((b, d, 3))  # column j of a block: T[j-1, j], T[j, j], T[j+1, j]
    data[:, 1:, 0], data[:, :, 1], data[:, :-1, 2] = offs, diags, offs
    data = data.reshape(b, 3 * d)[:, 1:-1]

    def factor(blocks: np.ndarray):
        # With SuperLU's default panel_size, 8 to 65 stacked blocks of order
        # 999 took 1.5-2.2x the time per block of one block alone; with 2,
        # 0.8-1.1x, and the same bits.
        n = len(blocks) * d
        T = scipy.sparse.csc_matrix((blocks.ravel(), *_tridiagonal_pattern(len(blocks), d)),
                                    shape=(n, n))
        return splu(T, permc_spec="NATURAL", panel_size=2)

    try:
        lu = factor(data)
    except RuntimeError:  # some block is exactly singular
        lus = []
        for block in data:
            try:
                lus.append(factor(block[None]))
            except RuntimeError:
                lus.append(None)

        def solve(X: np.ndarray) -> np.ndarray:
            out = np.zeros_like(X)
            for i, block_lu in enumerate(lus):
                if block_lu is not None:
                    out[i] = block_lu.solve(X[i])
            return out

        return solve, np.array([block_lu is not None for block_lu in lus])
    # SuperLU answers in Fortran order; the C-ordered copy gives each block's
    # T^-1 X the layout, and so the bits in later products, of the loop above.
    return (lambda X: np.ascontiguousarray(lu.solve(X.reshape(b * d, *X.shape[2:])).reshape(X.shape)),
            np.ones(b, bool))


def _block_factor(hessians: Sequence[_Hessian], borders: Sequence[np.ndarray]):
    """Block elimination of the bordered systems [[H, B], [B^T, 0]] of one round, all together.

    The systems share their sizes: d unknowns, k outer-map rows and an m
    column border.  The tridiagonal blocks T are factored once, together
    (:func:`_tridiagonal_solver`), and each system's (k+m)^2 capacitance
    matrix by its own LU.  The returned ``solve(F)`` takes a (b, d + m)
    stack of right-hand sides and gives (V, ok): row i of V is [x; nu] for
    system i where ok[i].  A row declines where its T or capacitance matrix
    is exactly singular, where T^-1 does not stay finite, or where its
    verified defect is too large.  Every step acts row by row, so a row's
    answer has the same bits in any batch.
    """
    # With z = [U x; nu], R = [U; B^T] and E = diag(I_k, 0_m) the system
    # with right-hand side [f; g] reads T x + R^T [C U x; nu] = f and
    # R x - E z = [0; g], so x = T^-1 f - Y z with Y = T^-1 [U^T C, B]
    # and the capacitance system (R Y + E) z = R T^-1 f - [0; g].
    d, m = borders[0].shape
    k = hessians[0].C.shape[0]
    diags, offs, U, C = (np.stack([getattr(H, part) for H in hessians])
                         for part in ("diag", "off", "U", "C"))
    B = np.stack(borders)
    R = np.concatenate((U, B.transpose(0, 2, 1)), axis=1)
    tsolve, ok = _tridiagonal_solver(diags, offs)
    Y = tsolve(np.concatenate((U.transpose(0, 2, 1) @ C, B), axis=2))
    ok &= np.isfinite(Y).all(axis=(1, 2))
    Y[~ok] = 0.0  # declined rows stay finite through the batch arithmetic
    cap = R @ Y
    cap[:, :k, :k] += np.eye(k)
    factors = [None] * len(hessians)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        for i in np.flatnonzero(ok):
            factors[i] = scipy.linalg.lu_factor(cap[i], check_finite=False)
            ok[i] = factors[i][0].diagonal().all()  # else cap is exactly singular
    if not ok.all():  # a declined row solves with the identity
        identity = np.eye(k + m), np.arange(k + m, dtype=np.intc)
        factors = [lu if accepted else identity for lu, accepted in zip(factors, ok)]

    def eliminate(y0, g):
        """[x; nu] for the right-hand sides [f; g], given y0 = T^-1 f."""
        rz = (R @ y0[:, :, None])[:, :, 0]
        rz[:, k:] -= g
        z = np.array([lapack.dgetrs(lu, piv, b)[0] for (lu, piv), b in zip(factors, rz)])
        return np.concatenate((y0 - (Y @ z[:, :, None])[:, :, 0], z[:, k:]), axis=1)

    def residual(v, F):
        """F minus the bordered matrices times v = [x; nu], and its sizes ||r||_2 + ||g||_1."""
        x = v[:, :d]
        Rx = R @ x[:, :, None]  # [U x; B^T x]
        w = np.concatenate((C @ Rx[:, :k], v[:, d:, None]), axis=1)  # [C U x; nu]
        res = F - np.concatenate((R.transpose(0, 2, 1) @ w, Rx[:, k:]), axis=1)[:, :, 0]
        res[:, :d] -= diags * x
        res[:, : d - 1] -= offs * x[:, 1:]
        res[:, 1:d] -= offs * x[:, :-1]
        return res, np.linalg.norm(res[:, :d], axis=1) + np.abs(res[:, d:]).sum(axis=1)

    def solve(F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y0 = tsolve(F[:, :d])
        good = ok & np.isfinite(y0).all(axis=1)
        y0[~good] = 0.0
        v = eliminate(y0, F[:, d:])
        res, size = residual(v, F)
        # Iterative refinement: T may be nearly singular (it is at
        # Rayleigh-quotient solutions), where elimination loses digits that
        # a step on the exact residual recovers.  A row keeps a step only
        # where it lowers that row's defect (a row that did not improve
        # computes the same step again), and refinement ends once no row does.
        for _ in range(2):
            v_new = v + eliminate(tsolve(res[:, :d]), res[:, d:])
            res_new, size_new = residual(v_new, F)
            if not (better := size_new < size).any():
                break
            v, res = (np.where(better[:, None], new, old) for new, old in ((v_new, v), (res_new, res)))
            size = np.where(better, size_new, size)
        scale = np.linalg.norm(F[:, :d], axis=1) + np.abs(F[:, d:]).sum(axis=1)
        scale += np.linalg.norm(v[:, :d], axis=1) + m
        return v, good & (size <= 1e-8 * scale)

    return solve


def _dense_solver(M: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """Solves with the square matrix M from one LU factorization, LAPACK's dgetrf called directly.

    The factors are used only if their 1-norm condition estimate passes;
    otherwise each solve is the minimum-norm least-squares solution.  A 1x1
    system [a] with a normal or zero float a is solved in closed form: f / a,
    the LU answer bit for bit, and 0, the least-squares one, where a = 0.
    """
    if M.size == 1:
        a = float(M[0, 0])
        if a == 0.0:
            return np.zeros_like
        if np.finfo(float).tiny <= abs(a) < np.inf:
            return lambda f: f / a
    norm = np.abs(M).sum(axis=0).max()  # before dgetrf copies M: |M| is freed by then
    lu, piv, _ = lapack.dgetrf(M)  # info > 0 (exactly singular): the rcond gate declines it
    rcond, info = lapack.dgecon(lu, norm, norm="1")
    if info == 0 and rcond > RCOND_LIMIT:
        return lambda f: lapack.dgetrs(lu, piv, f)[0]
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
    s = -q - p (K - k - g.q) / (1 + q.q).  A pin borders both solves.
    """

    def __init__(self, H: _Hessian, g: np.ndarray):
        self.H, self.g = H, g
        self.finite = H.finite and np.isfinite(g).all()

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        """[H; g^T]^T r = H r[:-1] + g r[-1], for the damped gradient step."""
        return self.H @ r[:-1] + self.g * r[-1]

    @staticmethod
    def steps(levels, rs, pins) -> list:
        """The steps of every level system, its q and then its p as two passes over one factor."""
        n = levels[0].g.size
        solve = _newton_solver([J.H for J in levels], pins)
        F = np.zeros((len(levels), n + pins[0].shape[1]))
        F[:, :n] = [J.g for J in levels]
        Q = solve(F)[:, :n]
        F[:, :n] = Q
        P = solve(F)[:, :n]
        return [-q - p * ((r[-1] - J.g @ q) / (1.0 + q @ q)) for J, r, q, p in zip(levels, rs, Q, P)]


class _NormalJacobian:
    """[[H, b], [b^T, 0]] with b = -grad K, the Hessian of L - lam (K - k) in (z, lam).

    H is the Hessian of L - lam K.  This symmetric matrix is the Jacobian
    of the normal residual [grad L - lam grad K; k - K], and one bordered
    solve gives its Newton step (dz, dlam); a pin on z joins that border.
    """

    def __init__(self, H: _Hessian, b: np.ndarray):
        self.H, self.b = H, b
        self.finite = H.finite and np.isfinite(b).all()

    def __matmul__(self, v: np.ndarray) -> np.ndarray:
        return np.append(self.H @ v[:-1] + self.b * v[-1], self.b @ v[:-1])

    rmatvec = __matmul__  # J^T r, for the damped gradient step: J is symmetric

    @staticmethod
    def steps(normals, rs, pins) -> list:
        """(dz, dlam) of each system with pin^T [dz; 0] = 0, for (d + 1, m) pins, the systems of
        one size solved together: grad K = 0 decouples a system, whose step is then H's alone
        and dlam = 0, the minimum-norm answer.  Every H carries the rows of L and K."""
        systems = [(J.H, r, np.column_stack([J.b, pin[:-1]])) if J.b.any()
                   else (J.H, r[:-1], pin[:-1]) for J, r, pin in zip(normals, rs, pins)]
        steps = [None] * len(systems)
        for size in dict.fromkeys(r.size for _, r, _ in systems):
            rows = [i for i, (_, r, _) in enumerate(systems) if r.size == size]
            for i, step in zip(rows, _Hessian.steps(*zip(*(systems[i] for i in rows)))):
                steps[i] = step if step.size == rs[i].size else np.append(step, 0.0)
        return steps


def _run_newton(w0: np.ndarray, opts: SolveOptions, pin_scale: bool = False, first=None):
    """Damped Newton from w0, a generator returning _NewtonResult; ``pin_scale`` keeps ||z||.

    Each ``yield w`` gets w's residual and Newton request ``(answer, key)`` (``first``, w0's,
    where given), or has w's evaluation error thrown in (:func:`_lockstep`); each iteration's
    one other request, ``yield answer, (key, r, pin)``, gets the Jacobian and its Newton step
    (None where that Jacobian is not finite), or has its evaluation error thrown in.
    Scale-invariant gradient systems (r(c*w) = r(w)/c) have rays of roots
    along which an unpinned Newton step escapes instead of converging: a
    pinned one keeps ||z||, z the decision samples in w, to first order.
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
        r, request = first or (yield w)
    except _EVAL_ERRORS as exc:
        return _NewtonResult(w, np.full_like(w, np.inf), False, 0, failure=type(exc))
    first = None  # its trajectory belongs to w0's round
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
    last_failure: Optional[type] = None
    stalled = False
    it = 0
    w_norm, newton_norm, growing, deep = float(np.linalg.norm(w)), np.inf, 0, 0
    no_pin = np.empty((w.size, 0))  # the (empty) border of an unpinned step
    escape_norm = 1e3 * (1.0 + w_norm)
    for it in range(MAX_ITERS):
        r_inf = float(np.abs(r).max())
        try:
            J, d_newton = yield request[0], (request[1], r, w[:, None] if pin_scale else no_pin)
        except _EVAL_ERRORS as exc:
            # Residual is known but the matrix is not evaluable here.
            return _NewtonResult(w, r, r_inf <= opts.tol_residual, it, failure=type(exc))
        if d_newton is None:  # J is not finite
            return _NewtonResult(w, r, False, it)
        request = request_trial = None  # J holds what it needs: drop the records
        if r_inf <= opts.tol_residual and contracting(d_newton, w):
            # Polish with the contracting step: unpolished roots of one branch
            # sit further apart than the dedup distance.  The polished point
            # must keep the acceptance bound on the largest residual entry.
            try:
                r_next, _ = yield w + d_newton
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
                w_trial, request_trial = w + alpha * d, None
                try:
                    r_trial, request_trial = yield w_trial
                except _EVAL_ERRORS as exc:
                    last_failure = type(exc)
                    r_trial = None
                if r_trial is not None and np.isfinite(r_trial).all():
                    merit = float(r_trial @ r_trial)
                    if merit <= merit0 * (1.0 - ARMIJO_SLOPE * alpha):
                        accepted = True
                        break
                alpha *= 0.5
            if accepted:
                step_norm = float(np.linalg.norm(alpha * d))
                w, r, request = w_trial, r_trial, request_trial
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


def _lockstep(runs, evaluate, size: int = 1) -> list:
    """The results of the generators ``runs``, in order, ``size`` at a time: each yields requests
    ``(answer, key)``, an iterate w standing for ``(evaluate, w)``, and is sent its answer or
    thrown its error.  Newton requests are answered as they come; once every live run waits
    on an evaluation (its key an iterate), the evaluations are.  Each answer function takes
    its requests of a round as one batch (:func:`_answers`)."""
    runs, results, pending = iter(runs), [], {}

    def advance(k, run, answer):
        try:
            request = run.throw(answer) if isinstance(answer, Exception) else run.send(answer)
            pending[k] = run, (evaluate, request) if type(request) is np.ndarray else request
        except StopIteration as stop:
            results[k] = stop.value

    def play_round():
        """Answer one round's requests.  Its keys and answers, which hold its trajectories, are
        bound only here: a run keeps only its iterate, residual and Jacobian past the round."""
        evaluating = all(type(key) is np.ndarray for _, (_, key) in pending.values())
        groups = {}
        for k in [k for k, (_, (_, key)) in pending.items()
                  if evaluating or type(key) is not np.ndarray]:
            run, (answer, key) = pending.pop(k)
            groups.setdefault(answer, []).append((k, run, key))
        for answer, asks in groups.items():
            got = _answers(answer, [key for _, _, key in asks])[::-1]
            for k, run, _ in asks:
                advance(k, run, got.pop())

    while True:
        while len(pending) < size and (run := next(runs, None)) is not None:
            results.append(None)
            advance(len(results) - 1, run, None)
        if not pending:
            return results
        play_round()


def _answers(answer, keys) -> list:
    """What ``answer(keys)`` gives (residuals or Newton answers), made together; where that
    raises, each half of keys is answered so, recursively, and a lone request that raises gets
    its error, with its context and traceback cleared, so that no frame of the round outlives
    it.  This is the one place where a failing row of a batch is told from the rest."""
    try:
        return answer(keys)
    except _EVAL_ERRORS as exc:
        if len(keys) == 1:
            exc.__context__ = None
            return [exc.with_traceback(None)]
    return _answers(answer, keys[: len(keys) // 2]) + _answers(answer, keys[len(keys) // 2 :])


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
    if spec.bc.left or spec.bc.right:  # a nonzero fixed end does not scale with the samples
        return False
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


def _points(spec: ProblemSpec, runs: list[_NewtonResult], opts: SolveOptions, lam0: float = 1.0,
            lam: Optional[float] = None, ray_normalize: bool = False) -> list[StationaryPoint]:
    """The deduplicated, finished stationary points of the runs that converged.

    Converged decision vectors are clustered greedily in the weak norm, the
    best-converged one representing its cluster; with ``ray_normalize`` they
    are compared as rays, by both signs.  Normal isoperimetric runs (a
    constraint and lam0 = 1) solve for (z, lam), and each of their points
    keeps its representative's multiplier.
    """
    normal = spec.constraint is not None and lam0 == 1.0

    def decision(out):
        return out.w[:-1] if normal else out.w

    clusters: list[tuple[StationaryPoint, Trajectory]] = []  # (point, key)
    for out in sorted((out for out in runs if out.converged),
                      key=lambda out: (out.residual_norm, tuple(decision(out).tolist()))):
        tr = embed_decision(spec, decision(out))
        keys = _ray_keys(tr) if ray_normalize else (tr,)
        for point, key in clusters:
            if any(c1rd_distance(key, other) < opts.dedup_distance for other in keys):
                point.basin_count += 1
                break
        else:
            multiplier = float(out.w[-1]) if normal else lam
            point = StationaryPoint(
                trajectory=tr,
                inner=inner_values(spec.lagrangian, tr),
                value=value(spec.lagrangian, tr),
                residual=out.residual_norm,
                lam0=lam0,
                lam=multiplier,
                constraint_value=None if spec.constraint is None
                else value(spec.constraint.functional, tr),
                dr_spread=dubois_reymond_spread(spec, tr, lam0, multiplier),
            )
            point.classification = classify(spec, point)
            clusters.append((point, keys[0]))
    return [point for point, _ in clusters]


def _no_point(
    runs: list[_NewtonResult], opts: SolveOptions, target: Optional[float] = None
) -> Exception:
    """The exception to raise when none of the runs converged.

    Given the constraint value ``target``, the runs are normal
    isoperimetric ones, whose last residual entry is the constraint defect.
    """
    if all(out.failure is DenominatorVanished for out in runs):
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
    """(evaluate, row) of Newton on the gradient system of spec's objective F.

    ``evaluate`` answers a batch of iterates (:func:`_lockstep`) with each one's residual and
    Newton request, or raises, from one (B, N) embedding, one batch of records per functional
    and one outer pass for the batch's defects; ``row(tr, lam, defect)`` gives both at tr from
    its filled records and the defect G - goal there.  A round's Newton requests get one
    assembly of their Jacobians and one solve of the finite ones' steps (None elsewhere).
    The residual is grad F; with a ``level`` it is [grad F; F - level], whose Gauss-Newton
    steps (_LevelJacobian) draw runs onto that level set; with spec's constraint K = k it is
    [grad F - lam grad K; k - K] in w = [z; lam] (_NormalJacobian).
    """
    F, constraint = spec.lagrangian, spec.constraint
    functionals = (F,) if constraint is None else (F, constraint.functional)
    # The leveled functional G and its goal: K and k, or F and the level (None: no defect).
    G, goal = (constraint.functional, constraint.target) if constraint else (F, level)

    def newton(asks):
        """(J, step) at each request ((trajectory, gradient, lam), r, pin) of one round."""
        keys, rs, pins = zip(*asks)
        trs, gs, lams = zip(*keys)
        hessians = _hessian(spec, list(trs), 1.0, lams if constraint else None)
        Js = ([_NormalJacobian(H, -g) for H, g in zip(hessians, gs)] if constraint is not None
              else hessians if level is None else [*map(_LevelJacobian, hessians, gs)])
        finite = [J.finite for J in Js]
        asked = [ask for ask, ok in zip(zip(Js, rs, pins), finite) if ok]
        steps = iter(type(Js[0]).steps(*zip(*asked)) if asked else ())
        return [(J, next(steps) if ok else None) for J, ok in zip(Js, finite)]

    def defects(trs):
        """G - goal at each of trs, from one pass of G's outer map over their records."""
        us = np.array([_partials(G, tr).us for tr in trs])
        return G._outer_values((G.outer,), us)[:, 0] - goal

    def row(tr, lam, defect):
        g = functional_gradient(spec, tr)
        if constraint is not None:
            gK = constraint_gradient(spec, tr)
            return np.append(g - lam * gK, -defect), (newton, (tr, gK, lam))
        return (g if level is None else np.append(g, defect)), (newton, (tr, g, None))

    def evaluate(W):
        W = np.array(W)
        Z, lams = (W[:, :-1], W[:, -1]) if constraint else (W, [None] * len(W))
        trs, b = Trajectory._rows(spec.ts, _embedded(spec, Z))
        for functional in functionals:
            _fill_partials(functional, trs, b)
        return [*map(row, trs, lams, [None] * len(trs) if goal is None else defects(trs))]

    return evaluate, row


def _gradient_points(spec: ProblemSpec, starts, opts: SolveOptions, level: Optional[float] = None):
    """(runs, points) of Newton on the gradient system from each start.

    Without a ``level`` the system is spec's objective's and its points are
    plain; with one it is the constraint functional K's, drawn onto K =
    level, and its points are abnormal, (lam0, lam) = (0, 1).  On a
    scale-invariant system the runs pin ||w|| and the points are rays.
    """
    gspec = spec if level is None else dataclasses.replace(
        spec, lagrangian=spec.constraint.functional, constraint=None)
    evaluate, _ = _gradient_system(gspec, level)
    scale_invariant = _detect_scale_invariance(gspec)
    runs = _lockstep((_run_newton(w0, opts, scale_invariant) for w0 in starts), evaluate,
                     max(1, _BATCH_SAMPLES // len(spec.ts)))
    lam0, lam = (1.0, None) if level is None else (0.0, 1.0)
    return runs, _points(spec, runs, opts, lam0, lam, scale_invariant)


def solve_unconstrained(
    spec: ProblemSpec, opts: SolveOptions | None = None
) -> list[StationaryPoint]:
    """All distinct stationary trajectories found by multi-start Newton.

    The restarts advance in lockstep (:func:`_lockstep`), one batch of records per
    round, each run exactly as alone.  Every returned point satisfies
    ||gradient||_inf <= opts.tol_residual.
    Raises :class:`NoStationaryPointFound` when no restart converges and
    :class:`DenominatorVanished` when every restart dies on a vanishing
    outer-map denominator.
    """
    if spec.constraint is not None:
        raise ValueError("spec has a constraint; use solve_isoperimetric")
    opts = opts or SolveOptions()
    runs, points = _gradient_points(
        spec, (_initial_decision(spec, opts, restart) for restart in range(opts.restarts)), opts)
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
    restores the start z0, kept only if that Newton converged and ||grad K||
    there is at least RESTORE_GRADIENT times ||grad K(z0)|| (else the level
    set is degenerate, a case for the abnormal branch); if the run from it
    fails, the restart runs from z0, as it would without the restoration.
    Either start's row at lambda = 0, a row of its round's batch, gives the
    least-squares lambda and the first residual.  Restarts advance in
    lockstep, runs that restore sharing rounds with runs that iterate, each
    exactly as alone.  Where a normal point has a nearly
    vanishing grad K, or no normal run converges, the abnormal branch
    (lambda0 = 0) seeks extremals of K itself that meet the constraint
    value, by the unconstrained Newton system for K.  Where L and K are
    both scale-invariant, the normal runs pin ||z|| as a second border
    column beside -grad K, and their points are deduplicated as rays.
    Points are labeled through ``lam0``.
    """
    if spec.constraint is None:
        raise ValueError("spec has no constraint; use solve_unconstrained")
    opts = opts or SolveOptions()
    target = spec.constraint.target
    kspec = dataclasses.replace(spec, lagrangian=spec.constraint.functional, constraint=None)
    pin_scale = _detect_scale_invariance(spec) and _detect_scale_invariance(kspec)
    normal, row = _gradient_system(spec)
    level, _ = _gradient_system(kspec, target)

    def restored(z0):
        """A generator for _lockstep returning z0 restored onto K = k by scalar Newton in s on
        the level system's rows [grad K; K - k] at z0 + s grad K(z0), or None where that Newton
        fails or the level set is degenerate there."""
        with suppress(*_EVAL_ERRORS):
            r, (_, (_, g0, _)) = yield level, z0
            s, gK = 0.0, g0
            # z0 on the level set needs no restoring: restart runs from z0 itself.
            for _ in range(RESTORE_ITERS if abs(r[-1]) > opts.tol_residual else 0):
                slope = float(gK @ g0)
                if not (np.isfinite(slope) and slope != 0.0):
                    break
                s -= r[-1] / slope
                r, (_, (_, gK, _)) = yield level, (z := z0 + s * g0)
                if abs(r[-1]) <= opts.tol_residual:
                    return z if np.linalg.norm(gK) >= RESTORE_GRADIENT * np.linalg.norm(g0) else None

    def started(z):
        """A generator for _lockstep returning the result of the normal run from z.  Its row at
        (z, 0), in its round's batch, gives the least-squares lam and the first residual at
        (z, lam); where that row raises, the run ends at (z, 0)."""
        w = np.append(z, 0.0)
        try:
            r, (_, (tr, gK, _)) = yield w
        except _EVAL_ERRORS as exc:
            return _NewtonResult(w, np.full_like(w, np.inf), False, 0, failure=type(exc))
        lam = _fit_multiplier(functional_gradient(spec, tr), gK)
        run = _run_newton(np.append(z, lam), opts, pin_scale, row(tr, lam, -r[-1]))  # r[-1] = k - K
        del r, tr, gK  # the row dies with its round, not with the run
        return (yield from run)

    def restart(z0):
        """The normal run of one restart, a generator for _lockstep: from z0 restored onto K = k,
        or from z0 where that restoration or the run from there fails."""
        z = yield from restored(z0)
        if z is not None and (out := (yield from started(z))).converged:
            return out
        return (yield from started(z0))

    def constraint_gradient_at(z):  # a generator for _lockstep
        return (yield level, z)[0][:-1]  # the head of the level system's residual

    inits = [_initial_decision(spec, opts, restart) for restart in range(opts.restarts)]
    size = max(1, _BATCH_SAMPLES // len(spec.ts))
    runs = _lockstep(map(restart, inits), normal, size)
    converged = [out.w[:-1] for out in runs if out.converged]
    # Newton evaluated grad K at each of these z already, so this cannot raise.
    gradients = _lockstep(map(constraint_gradient_at, converged), level, size)
    seeds = [z for z, gK in zip(converged, gradients) if np.max(np.abs(gK)) < ABNORMAL_GRADIENT]
    if not converged:
        # The normal system's Jacobian degenerates exactly when abnormal
        # extremals exist, so retry the lambda0 = 0 branch from every start.
        seeds = inits

    # Abnormal extremals are the extremals of K itself that lie on K = k:
    # the objective's Newton system for K, drawn onto that level set.
    abnormal = _gradient_points(spec, seeds, opts, level=target)[1] if seeds else []
    points = _points(spec, runs, opts, ray_normalize=pin_scale) + abnormal
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
        B = np.zeros((hess.diag.size, 0))  # the unit constraint gradient, where it is nonzero
        if spec.constraint is not None:
            gK = constraint_gradient(spec, tr)
            if not np.all(np.isfinite(gK)):
                return DEGENERATE
            if norm := float(np.linalg.norm(gK)):
                B = gK[:, None] / norm
        dim = hess.diag.size - B.shape[1]
        if not hess.finite or dim == 0:
            return DEGENERATE
        ts, idx = spec.ts, decision_indices(spec)
        mass = ts.steps[np.maximum(idx - 1, 0)]
        modes = np.sin(np.pi * np.arange(1, 5)[:, None] * (ts.points[idx] - ts.a) / ts.span)
        eps = DEGENERATE_RELATIVE * max(abs(v @ (hess @ v)) / (v @ (mass * v)) for v in modes)
        if not eps > 0.0:
            return DEGENERATE
        below_lo = hess.count_below(-eps, mass, B)
        below_hi = hess.count_below(eps, mass, B)
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
