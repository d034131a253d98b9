"""Grid-based numerical checks of Fenchel-conjugate duality.

The tangent-bundle conjugate f*(p, X) = sup_q { <X, log_p(q)>_p - f(q) } is
approximated by a discrete sup over a sample grid. On flat space this
reduces to the classical conjugate shifted by <X, p>, which provides the
independent analytic cross-checks; the checks themselves (Fenchel-Young
gaps, primal-dual value equality, the per-iteration DC sandwich) are run on
low-dimensional Euclidean instances where a grid sup is trustworthy.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .manifolds import Euclidean, Geometry
from .solvers import SolverTrace

__all__ = [
    "Grid1D",
    "ConjugateEvaluation",
    "SandwichRow",
    "SandwichReport",
    "conjugate_grid",
    "fenchel_young_gap",
    "primal_dual_sandwich_check",
    "sampled_conjugate",
    "toland_dual_value",
]


@dataclass(frozen=True)
class Grid1D:
    """Uniform sample grid on [lower, upper] with ``count`` points."""

    lower: float
    upper: float
    count: int

    def __post_init__(self):
        if not -np.inf < self.lower < self.upper < np.inf:
            raise ValueError("grid needs finite lower < upper")
        if not (isinstance(self.count, numbers.Integral) and self.count >= 2):
            raise ValueError("grid needs an integer count of at least two points")

    @property
    def spacing(self) -> float:
        return (self.upper - self.lower) / (self.count - 1)

    def points(self) -> np.ndarray:
        return np.linspace(self.lower, self.upper, self.count)


@dataclass(frozen=True)
class ConjugateEvaluation:
    """Sampled value of f*(p, X) together with the maximizing sample point."""

    value: float
    maximizer: np.ndarray


def _as_point_array(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.shape[0] == 0:
        raise ValueError("empty grid")
    return pts


def _sample_cost(f: Callable, pts: np.ndarray) -> np.ndarray:
    """Evaluate f on every sample point, batched when f supports it."""
    try:
        vals = np.asarray(f(pts), dtype=float)
        if vals.shape == (pts.shape[0],):
            return vals
    except (TypeError, ValueError):  # a cost that takes one point at a time
        pass
    return np.asarray([float(f(q)) for q in pts])


def conjugate_grid(f: Callable, geometry: Geometry, points, p, x) -> ConjugateEvaluation:
    """Discrete Fenchel conjugate: max over the sample points of
    <x, log_p(q)>_p - f(q).

    Monotone under grid refinement (a superset never yields a smaller
    value). Raises ValueError for an empty grid.
    """
    pts = _as_point_array(points)
    p_arr = np.atleast_1d(np.asarray(p, dtype=float))
    x_arr = np.atleast_1d(np.asarray(x, dtype=float))
    if isinstance(geometry, Euclidean):
        values = (pts - p_arr) @ x_arr - _sample_cost(f, pts)
    else:
        values = np.asarray(
            [geometry.inner(p_arr, x_arr, geometry.log(p_arr, q)) - f(q) for q in pts])
    best = int(np.argmax(values))
    return ConjugateEvaluation(float(values[best]), pts[best])


def sampled_conjugate(f: Callable, points) -> Callable:
    """Grid conjugate of f on flat 1-D space, with f sampled on the points once.

    Returns ``conj(p, x)``, which gives for K base points and K covectors,
    each of shape (K,), the K values max_q (q - p) x - f(q) of
    :func:`conjugate_grid`. The conjugate of sampled values is that of the
    lower convex hull of the samples (Lucet, 1997). Each covector is
    answered from the hull vertices around its place among the hull slopes,
    evaluated with the arithmetic of :func:`conjugate_grid`: bit for bit its
    value, exact ties included, unless samples collinear only up to
    round-off meet a covector equal to their slope (then the two can be a
    few ulps apart).

    The points must be strictly increasing, as :meth:`Grid1D.points` gives
    them; any other points raise ``ValueError``. The hull drops the strict
    concave corners of the samples, one O(N) pass after another, until none
    is left. That is exact for any samples: one pass for convex ones, such as
    the components of a DC split, and about 300 for 20,001 samples of
    x^4 - x^2.
    """
    pts = _as_point_array(points)
    if pts.shape[1] != 1:
        raise ValueError("grid conjugate intractable")
    # copies, so that later writes to the caller's points or samples cannot reach conj
    xs = pts[:, 0].copy()
    if not np.all(xs[1:] > xs[:-1]):
        raise ValueError("points must be strictly increasing")
    s = _sample_cost(f, pts).copy()
    while True:
        slopes = np.diff(s)
        slopes /= np.diff(xs)
        corner = np.zeros(len(xs), dtype=bool)
        corner[1:-1] = slopes[:-1] > slopes[1:]
        if not corner.any():
            break
        xs, s = xs[~corner], s[~corner]

    def conj(p: np.ndarray, x: np.ndarray) -> np.ndarray:
        # the vertices from one before the first edge of slope >= x to one
        # past the last edge of slope <= x (more than 3 only on a run of
        # edges of slope exactly x), laid end to end, one window per covector
        lo = np.maximum(np.searchsorted(slopes, x, "left") - 1, 0)
        hi = np.minimum(np.searchsorted(slopes, x, "right") + 2, len(xs))
        counts = hi - lo
        starts = np.cumsum(counts) - counts
        idx = np.arange(counts.sum()) + np.repeat(lo - starts, counts)
        q = (xs[idx] - np.repeat(p, counts))[:, None, None]
        values = (q @ np.repeat(x, counts)[:, None, None])[:, 0, 0] - s[idx]
        return np.maximum.reduceat(values, starts)

    return conj


def toland_dual_value(hstar: Callable, gstar: Callable, covectors) -> float:
    """Toland dual value min over the covectors X of h*(0, X) - g*(0, X) on
    flat 1-D space, from the conjugates of h and g (as made by
    :func:`sampled_conjugate`): by Toland-Singer duality
    inf (g - h) = inf (h* - g*).
    """
    x = np.asarray(covectors, dtype=float).ravel()
    p = np.zeros_like(x)
    return float(np.min(hstar(p, x) - gstar(p, x)))


def fenchel_young_gap(f: Callable, geometry: Geometry, fstar: Callable, p, x, q):
    """f(q) + f*(p, X) - <X, log_p(q)> on flat 1-D space: nonnegative for the
    exact conjugate, >= -eps_grid for ``fstar`` as :func:`sampled_conjugate`
    makes it. One triple gives a float; K > 1 triples (p_k, X_k, q_k) give the
    K gaps from one call of f on (K, 1) samples, each its single call's bits."""
    if not isinstance(geometry, Euclidean) or geometry.dim > 1:
        raise ValueError("grid conjugate intractable")
    p, x, q = map(np.ravel, np.broadcast_arrays(*(np.array(a, float) for a in (p, x, q))))
    gaps = np.asarray(f(q[:, None]), dtype=float) + fstar(p, x) - (q - p) * x
    return float(gaps[0]) if gaps.size == 1 else gaps


@dataclass(frozen=True)
class SandwichRow:
    k: int
    primal: float          # g(p_k) - h(p_k)
    dual: float            # h*(p_k, X_k) - g*(p_k, X_k)
    primal_next: float     # g(p_{k+1}) - h(p_{k+1})
    lower_residual: float  # dual - primal_next  (>= -tol)
    upper_residual: float  # primal - dual       (>= -tol)


@dataclass
class SandwichReport:
    rows: list[SandwichRow]
    tolerance: float
    final_gap: float  # |primal - dual| at the last recorded iterate

    @property
    def passed(self) -> bool:
        ok = all(r.lower_residual >= -self.tolerance
                 and r.upper_residual >= -self.tolerance for r in self.rows)
        return ok and self.final_gap <= self.tolerance


def primal_dual_sandwich_check(trace: SolverTrace, g: Callable, h: Callable,
                               geometry: Geometry, hstar: Callable, gstar: Callable,
                               tolerance: float = 1e-3) -> SandwichReport:
    """Check the primal-dual sandwich along a DC solver trace.

    For every consecutive pair of iterates the dual value
    h*(p_k, X_k) - g*(p_k, X_k) must sit between the primal values at
    p_{k+1} and p_k (up to the grid tolerance), and both value sequences
    must meet at the end. The trace must have recorded points and
    subgradients; only 1-D Euclidean problems are supported (the grid sup
    is intractable elsewhere). ``hstar`` and ``gstar`` are the conjugates
    of h and g as :func:`sampled_conjugate` makes them, each called once
    on the K iterates and their subgradients; g and h are each sampled once
    on the (K, 1) iterates.
    """
    if not isinstance(geometry, Euclidean) or geometry.dim > 1:
        raise ValueError("grid conjugate intractable")
    if trace.points is None or trace.subgradients is None:
        raise ValueError("trace has no recorded points/subgradients")

    pts = trace.points
    p = np.asarray(pts, dtype=float).ravel()
    primal = (_sample_cost(g, p[:, None]) - _sample_cost(h, p[:, None])).tolist()
    x = np.asarray(trace.subgradients, dtype=float).ravel()
    dual = (hstar(p, x) - gstar(p, x)).tolist()
    rows = [SandwichRow(
        k=k,
        primal=primal[k],
        dual=dual[k],
        primal_next=primal[k + 1],
        lower_residual=dual[k] - primal[k + 1],
        upper_residual=primal[k] - dual[k],
    ) for k in range(len(pts) - 1)]
    # the last row's gap, or the start's when the trace has one point
    final_gap = abs(primal[-1] - dual[max(len(pts) - 2, 0)])
    return SandwichReport(rows=rows, tolerance=tolerance, final_gap=final_gap)
