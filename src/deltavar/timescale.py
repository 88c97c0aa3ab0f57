"""Bounded time scales represented as finite ordered point sets.

Every scale handled by this package is a finite, strictly increasing list of
real points.  That covers genuinely discrete scales (integer ranges, q-power
lattices, explicit point sets) exactly, and continuous intervals
approximately through fine uniform discretizations.  The forward/backward
jump operators, the graininess function, the delta derivative and the delta
integral all reduce to exact index arithmetic and weighted finite sums over
the stored points.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "GridSamples",
    "TimeScale",
    "RegularityReport",
    "make_timescale",
    "delta_derivative",
    "delta_integral",
    "FewerThanThreePoints",
    "NonPositiveStep",
    "QNotGreaterThanOne",
    "PointNotFound",
]

# A sampled function on a time scale is a plain float array aligned
# index-for-index with the scale's points (or with its kappa points).
GridSamples = np.ndarray

# Relative tolerance for real-valued point lookup and for merging near-duplicate
# points.  A value matches its nearest point t (ties to the lower one) within
# LOOKUP_REL_TOL * max(|t|, step from t to its nearer neighbour); consecutive
# points merge where they differ by at most LOOKUP_REL_TOL times the larger
# magnitude.  Neither is scaled by the span b - a, which on a graded scale
# (2^k, k = 0..50) exceeds the smallest steps by fifteen decades.
LOOKUP_REL_TOL = 1e-12


class FewerThanThreePoints(ValueError):
    """A time scale must contain at least three distinct points."""


class NonPositiveStep(ValueError):
    """Step parameters of uniform/interval scales must be finite and positive."""


class QNotGreaterThanOne(ValueError):
    """q-scales require q > 1."""


class PointNotFound(ValueError):
    """Real-valued lookup did not match any scale point."""

    def __init__(self, value: float, scale: "TimeScale"):
        super().__init__(f"t={value!r} is not a point of {scale!r}")
        self.value = value


@dataclass(frozen=True)
class RegularityReport:
    """Per-point record of the two jump-consistency conditions.

    ``sigma_rho[i]`` is True when sigma(rho(t_i)) == t_i and
    ``rho_sigma[i]`` when rho(sigma(t_i)) == t_i.  On a bounded scale of
    isolated points the first condition always fails at the minimum and the
    second at the maximum, so the per-point report is more informative than
    a single verdict.
    """

    sigma_rho: np.ndarray
    rho_sigma: np.ndarray

    @property
    def regular(self) -> bool:
        return bool(self.sigma_rho.all() and self.rho_sigma.all())


class TimeScale:
    """Finite strictly increasing point set carrying the jump structure.

    Instances are immutable: ``points`` and ``steps`` are read-only arrays,
    safe to share between threads.  Index positions (0-based) are the
    canonical handle for points; use :meth:`index_of` for tolerant
    real-valued lookup.
    """

    __slots__ = ("points", "steps", "kind")

    def __init__(self, points: Sequence[float], kind: str = "finite"):
        pts = np.asarray(points, dtype=float).ravel().copy()
        if pts.size < 3:
            raise FewerThanThreePoints(
                f"a time scale needs at least 3 points, got {pts.size}"
            )
        if not np.all(np.isfinite(pts)):
            raise ValueError("time scale points must be finite numbers")
        steps = np.diff(pts)
        if np.any(steps <= 0.0):
            raise ValueError("time scale points must be strictly increasing")
        pts.setflags(write=False)
        steps.setflags(write=False)
        self.points = pts
        self.steps = steps  # steps[i] = mu(t_i) for i < len(self) - 1
        self.kind = kind

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return int(self.points.size)

    @property
    def a(self) -> float:
        return float(self.points[0])

    @property
    def b(self) -> float:
        return float(self.points[-1])

    @property
    def span(self) -> float:
        return self.b - self.a

    def __eq__(self, other) -> bool:
        if not isinstance(other, TimeScale):
            return NotImplemented
        return np.array_equal(self.points, other.points)

    def __repr__(self) -> str:
        return (
            f"TimeScale(kind={self.kind!r}, n={len(self)}, "
            f"[{self.a:g}, {self.b:g}])"
        )

    def _check_index(self, i: int) -> int:
        i = int(i)
        if not 0 <= i < len(self):
            raise IndexError(f"point index {i} out of range 0..{len(self) - 1}")
        return i

    # -- jump operators and graininess ------------------------------------

    def sigma(self, i: int) -> int:
        """Index of the forward jump of point i (the maximum maps to itself)."""
        i = self._check_index(i)
        return i + 1 if i < len(self) - 1 else i

    def rho(self, i: int) -> int:
        """Index of the backward jump of point i (the minimum maps to itself)."""
        i = self._check_index(i)
        return i - 1 if i > 0 else 0

    def graininess(self, i: int) -> float:
        """mu(t_i) = sigma(t_i) - t_i; zero only at the maximum point."""
        i = self._check_index(i)
        return float(self.steps[i]) if i < len(self) - 1 else 0.0

    def kappa_count(self) -> int:
        """Number of points left after dropping the maximal point."""
        return len(self) - 1

    def is_regular(self) -> RegularityReport:
        """Check sigma(rho(t)) == t and rho(sigma(t)) == t at every point."""
        n = len(self)
        sigma_rho = np.array([self.sigma(self.rho(i)) == i for i in range(n)])
        rho_sigma = np.array([self.rho(self.sigma(i)) == i for i in range(n)])
        return RegularityReport(sigma_rho=sigma_rho, rho_sigma=rho_sigma)

    def index_of(self, t: float) -> int:
        """Locate a real value among the points, up to a point-relative tolerance."""
        return int(self.indices_of([t])[0])

    def indices_of(self, values) -> np.ndarray:
        """Vectorised :meth:`index_of`: each value takes its nearest point, ties to the lower
        one, if within LOOKUP_REL_TOL * max(|point|, step to the point's nearer neighbour)."""
        t = np.asarray(values, dtype=float).ravel()
        p, n = self.points, len(self)
        hi = np.minimum(np.searchsorted(p, t), n - 1)  # t <= p[hi] unless t is past the end
        lo = np.maximum(hi - 1, 0)
        c = np.where(np.abs(p[hi] - t) < np.abs(t - p[lo]), hi, lo)
        near = np.minimum(self.steps[np.maximum(c - 1, 0)], self.steps[np.minimum(c, n - 2)])
        missing = ~(np.abs(p[c] - t) <= LOOKUP_REL_TOL * np.maximum(np.abs(p[c]), near))
        if missing.any():
            raise PointNotFound(float(t[np.argmax(missing)]), self)
        return c


def _canonical_points(values: Iterable[float]) -> np.ndarray:
    """Sort and merge near-duplicate points (magnitude-relative tolerance)."""
    arr = np.asarray(list(values), dtype=float).ravel()
    bad = arr[~np.isfinite(arr)]
    if bad.size:
        raise ValueError(f"time-scale points must be finite, got {float(bad[0])!r}")
    arr = np.sort(arr)
    if arr.size == 0:
        return arr
    tol = LOOKUP_REL_TOL * np.maximum(np.abs(arr[:-1]), np.abs(arr[1:]))
    keep = np.concatenate([[True], np.diff(arr) > tol])
    return arr[keep]


def make_timescale(kind: str, **params) -> TimeScale:
    """Build a canonical time scale.

    Supported kinds and their parameters:

    * ``points``:   ``values`` -- iterable of at least three distinct reals.
    * ``uniform``:  ``a, b, h`` -- grid a, a+h, ..., b; (b-a)/h must be an
      integer up to rounding.
    * ``qscale``:   ``q, kmax`` (and optional ``kmin``, default 0) -- the
      points q**k for k = kmin..kmax, q > 1.
    * ``interval``: ``a, b, h`` -- discretization of the real interval
      [a, b]; ``h`` is a target step, rounded so the grid fits exactly.
    * ``union``:    ``parts`` -- iterable of TimeScale instances or point
      iterables, merged and deduplicated.
    """
    if kind == "points":
        values = _canonical_points(params["values"])
        if values.size < 3:
            raise FewerThanThreePoints(
                f"need at least 3 distinct points, got {values.size}"
            )
        return TimeScale(values, kind="finite")

    if kind in ("uniform", "interval"):
        a = float(params["a"])
        b = float(params["b"])
        h = float(params["h"])
        if not (np.isfinite(h) and h > 0.0):
            raise NonPositiveStep(f"step must be finite and positive, got h={h}")
        if not (np.isfinite(a) and np.isfinite(b) and a < b):
            raise ValueError(f"need finite a < b, got a={a}, b={b}")
        ratio = (b - a) / h
        n = int(round(ratio))
        if kind == "uniform":
            if abs(ratio - n) > 1e-9 * max(1.0, abs(ratio)):
                raise ValueError(
                    f"(b - a)/h = {ratio!r} is not an integer; "
                    "use kind='interval' for a target step"
                )
            if n + 1 < 3:
                raise FewerThanThreePoints(
                    f"uniform grid a={a}, b={b}, h={h} has only {n + 1} points"
                )
        else:
            n = max(2, n)
        return TimeScale(np.linspace(a, b, n + 1), kind=kind)

    if kind == "qscale":
        q = float(params["q"])
        if q <= 1.0:
            raise QNotGreaterThanOne(f"q must exceed 1, got q={q}")
        kmin = int(params.get("kmin", 0))
        kmax = int(params["kmax"])
        if kmax < kmin:
            raise ValueError(f"empty exponent range {kmin}..{kmax}")
        if kmax - kmin + 1 < 3:
            raise FewerThanThreePoints(
                f"exponent range {kmin}..{kmax} yields fewer than 3 points"
            )
        return TimeScale(q ** np.arange(kmin, kmax + 1, dtype=float), kind="qscale")

    if kind == "union":
        collected: list[np.ndarray] = []
        for part in params["parts"]:
            if isinstance(part, TimeScale):
                collected.append(np.asarray(part.points))
            else:
                collected.append(np.asarray(list(part), dtype=float))
        values = _canonical_points(np.concatenate(collected))
        if values.size < 3:
            raise FewerThanThreePoints(
                f"union yields only {values.size} distinct points"
            )
        return TimeScale(values, kind="union")

    raise ValueError(f"unknown time scale kind {kind!r}")


def delta_derivative(ts: TimeScale, x: GridSamples) -> np.ndarray:
    """Delta derivative of samples x, defined on the kappa points.

    At every right-scattered point the derivative is the forward difference
    quotient (x(sigma(t)) - x(t)) / mu(t); the maximal point is dropped, so
    the result has ``ts.kappa_count()`` entries.  A quotient that overflows
    is +-inf (nan from inf - inf), without numpy's warning, as in delta_integral.
    """
    arr = np.asarray(x, dtype=float).ravel()
    if arr.size != len(ts):
        raise ValueError(
            f"samples have {arr.size} values, scale has {len(ts)} points"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        return (arr[1:] - arr[:-1]) / ts.steps


def delta_integral(
    ts: TimeScale, samples: GridSamples, start: int = 0, stop: int | None = None
) -> float:
    """Delta integral of samples given on [a, b), i.e. at indices 0..n-2.

    The integral over isolated points is the graininess-weighted sum
    ``sum mu(t_i) * samples[i]``; ``start``/``stop`` select the index range
    [start, stop) so sub-intervals between scale points can be integrated.
    The summation is performed left to right so results are reproducible
    bit for bit.
    """
    arr = np.asarray(samples, dtype=float).ravel()
    kappa = ts.kappa_count()
    if arr.size != kappa:
        raise ValueError(
            f"integrand has {arr.size} values, expected {kappa} (points minus maximum)"
        )
    if stop is None:
        stop = kappa
    if not 0 <= start <= stop <= kappa:
        raise ValueError(f"bad integration range [{start}, {stop}) for {kappa} steps")
    if start == stop:
        return 0.0
    # np.cumsum accumulates strictly sequentially, so the result is bit for
    # bit the left-to-right running sum of the weighted samples.  Samples
    # that overflow to +inf and -inf sum to nan, which the caller gets as
    # the value, so numpy's warning is not raised.
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.cumsum(ts.steps[start:stop] * arr[start:stop])[-1])
