"""DC algorithms on Hadamard manifolds and their sub-solvers.

Contains the difference-of-convex algorithm (``dca_solve``), its proximal
variant (``dcppa_solve``), the Riemannian Frank-Wolfe method, and the two
smooth sub-solvers used for the DC subproblems (Armijo gradient descent and
a trust-region method with truncated CG, on an exact Hessian where the
problem gives one and on finite differences otherwise).

The DC iteration linearizes the second component at the current iterate
p_k using X_k = grad h(p_k) and minimizes the convex surrogate

    g(p) - <X_k, log_{p_k}(p)>_{p_k}        (+ d^2(p, p_k)/(2 lambda) for DCPPA)

either through a problem-supplied closed form, a generic construction based
on the adjoint differential of the log map, or a constrained closed-form
hook when g is an indicator function.
"""

from __future__ import annotations

import math
import time
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .manifolds import Euclidean, Geometry, RosenbrockPlane, _is_integer

__all__ = [
    "ArmijoParams",
    "StoppingCriterion",
    "SubSolverSpec",
    "SolverTrace",
    "DCProblem",
    "LineSearchError",
    "SolverError",
    "armijo_linesearch",
    "gradient_descent",
    "fd_hessian_apply",
    "trust_region_solve",
    "dca_solve",
    "dcppa_solve",
    "frank_wolfe_solve",
    "strongly_convexify",
    "is_critical",
]


class LineSearchError(RuntimeError):
    """Backtracking exhausted or the direction is not a descent direction."""


class SolverError(RuntimeError):
    """Hard failure, e.g. a non-finite cost value along the iteration."""


@dataclass(frozen=True)
class ArmijoParams:
    initial_step: float = 1.0
    contraction: float = 0.5
    sufficient_decrease: float = 1e-4
    max_backtracks: int = 60

    def __post_init__(self):
        if not (0 < self.initial_step < math.inf and 0 < self.contraction < 1):
            raise ValueError("invalid line-search parameters")
        if not (0 < self.sufficient_decrease < 1
                and _is_integer(self.max_backtracks) and self.max_backtracks >= 1):
            raise ValueError("invalid line-search parameters")


# trust region: radius bounds, rho thresholds for accepting a step and for
# growing the radius, the shrink factor, and the finite-difference step of
# the Hessian products relative to 1 + ||p||
_TR_INITIAL_RADIUS = 1.0
_TR_MAX_RADIUS = 8.0
_TR_ACCEPT_RATIO = 0.1
_TR_EXPAND_RATIO = 0.75
_TR_SHRINK_FACTOR = 0.25
_FD_STEP_SCALE = 1e-8
# regularizes the acceptance ratio against cost-difference round-off;
# without it, steps whose true decrease is below one ulp of f are
# rejected forever and the solver stalls above tight gradient tolerances
_TR_RHO_REGULARIZATION = 1e3
_EPS = float(np.finfo(float).eps)


@dataclass(frozen=True)
class StoppingCriterion:
    """Disjunction of stopping clauses; the first satisfied one is recorded.

    Clauses are evaluated each iteration in the order gradient-norm,
    iterate-change, gradient-change, with the max-iteration fallback last.
    """

    max_iter: int
    grad_norm_tol: Optional[float] = None
    iterate_change_tol: Optional[float] = None
    grad_change_tol: Optional[float] = None

    def __post_init__(self):
        if not (_is_integer(self.max_iter) and self.max_iter >= 1):
            raise ValueError("max_iter must be a positive integer")
        for tol in (self.grad_norm_tol, self.iterate_change_tol, self.grad_change_tol):
            if tol is not None and not tol > 0:
                raise ValueError("tolerances must be positive")


def _stop_reason(stop: StoppingCriterion, steps: int, grad_norm: float,
                 step: Optional[float] = None, grad_change: Optional[Callable] = None,
                 zero_grad_stops: bool = True) -> Optional[str]:
    """The first clause of ``stop`` that holds after ``steps`` steps, or None.

    ``step`` is the distance of the step just taken; it is None at the start
    and after a rejected trust-region step, where the two change clauses do
    not apply. ``grad_change()`` returns the norm of the change of the
    transported gradient; it is called only when its tolerance is set and no
    earlier clause holds. By default an exact zero gradient meets the
    gradient-norm clause without a tolerance, since a descent method cannot
    step along it; the outer DC and Frank-Wolfe loop turns that off. A
    non-finite ``grad_norm`` raises :class:`SolverError`.
    """
    tol = stop.grad_norm_tol
    if (tol is not None and grad_norm <= tol) or (zero_grad_stops and grad_norm == 0.0):
        return "gradient norm"
    if not math.isfinite(grad_norm):
        raise SolverError(f"non-finite gradient norm: {grad_norm!r}")
    if step is not None:
        if stop.iterate_change_tol is not None and step <= stop.iterate_change_tol:
            return "iterate change"
        if stop.grad_change_tol is not None and grad_change() <= stop.grad_change_tol:
            return "gradient change"
    if steps >= stop.max_iter:
        return "max iterations"
    return None


class SolverTrace:
    """Per-iteration records of a solver run.

    Row ``k`` holds the cost at the k-th iterate, the step distance
    d(p_{k-1}, p_k) (zero for k = 0) and the wall-clock seconds elapsed
    since the trace was made, which ``append`` stamps.
    Points and DC subgradients are kept only when requested.
    ``subsolver_failures`` lists the outer steps whose sub-solve hit its
    cap. Each per-step column gets one entry per call of the step map from
    the loop named, and stays empty in every other loop: ``inner_steps``
    (sub-solver steps; ``_dc_solve`` on a smooth problem),
    ``hessian_products`` (``trust_region_solve``, and ``_dc_solve`` with
    trust-region sub-solves, as does ``tr_rejected``, the rejected steps)
    and ``step_size`` (``frank_wolfe_solve``). The outer loop calls its step
    map once per step, and once more, with no row, when that call ends the run.
    """

    def __init__(self, record_points: bool = False):
        self._start = time.perf_counter()
        self.f = array("d")
        self.step = array("d")
        self.seconds = array("d")
        self.reason: Optional[str] = None
        self.points: Optional[list] = [] if record_points else None
        self.subgradients: Optional[list] = [] if record_points else None
        self.subsolver_failures: list[int] = []
        self.inner_steps: list[int] = []
        self.hessian_products: list[int] = []
        self.tr_rejected: list[int] = []
        self.step_size: list[float] = []

    def append(self, f: float, step: float, point=None, subgradient=None) -> None:
        self.f.append(f)
        self.step.append(step)
        self.seconds.append(time.perf_counter() - self._start)
        if self.points is not None:
            self.points.append(point)
            self.subgradients.append(subgradient)

    def summary(self) -> dict:
        """``steps`` (the rows after the start) and ``reason``, the total of
        each count column that holds entries, and for a run with sub-solves
        ``capped_subsolves``."""
        out = {"steps": len(self.f) - 1, "reason": self.reason}
        for name in ("inner_steps", "hessian_products", "tr_rejected"):
            column = getattr(self, name)
            if column:
                out[name] = sum(column)
        if self.inner_steps:
            out["capped_subsolves"] = len(self.subsolver_failures)
        return out

    # the row count under two old names, read by the benchmark in perfbench/
    def __len__(self) -> int:
        return len(self.f)

    @property
    def iterations(self) -> int:
        return len(self.f)


@dataclass
class DCProblem:
    """A DC objective f = g - h on one geometry.

    ``g_rgrad`` may be omitted when g is an indicator function; such
    problems must provide ``constrained_subsolver(p, X) -> point`` solving
    the DC subproblem in closed form over the constraint set, or returning
    None where it finds no feasible step from p: the run then ends on "no
    feasible step" at p. Smooth
    problems may provide ``subproblem(q, X) -> (cost, rgrad)`` returning a
    closed form of the linearized surrogate; otherwise the surrogate is
    built generically from the geometry's adjoint log differential.

    On the two 2-D geometries (``Euclidean(2)`` and ``RosenbrockPlane``)
    ``subproblem_2d(q, X) -> (cost, egrad)`` may give the same surrogate in
    plain floats: ``cost(x1, x2)`` returns a float and ``egrad(x1, x2)`` the
    Euclidean gradient as a float pair. Gradient-descent DCA sub-solves
    without a gradient-change tolerance then run on it directly.

    A problem with ``subproblem`` may also give
    ``subproblem_hessian(q, X) -> hess``: ``hess(p)`` maps frame coordinates
    Y to to_frame(p, Hess psi(p)[from_frame(p, Y)]) for the surrogate psi of
    ``subproblem(q, X)``. Trust-region sub-solves then use it, and DCPPA adds
    the exact Hessian of its proximal term (the geometry's
    ``half_sq_dist_hessian``); without it they take finite differences.
    """

    geometry: Geometry
    g_cost: Callable
    h_cost: Callable
    h_rgrad: Callable
    g_rgrad: Optional[Callable] = None
    subproblem: Optional[Callable] = None
    constrained_subsolver: Optional[Callable] = None
    subproblem_2d: Optional[Callable] = None
    subproblem_hessian: Optional[Callable] = None

    def __post_init__(self):
        if self.subproblem_2d is not None and not (
                self.geometry.dim == 2
                and isinstance(self.geometry, (Euclidean, RosenbrockPlane))):
            raise ValueError("subproblem_2d needs Euclidean(2) or RosenbrockPlane")
        if self.subproblem_hessian is not None and self.subproblem is None:
            raise ValueError("subproblem_hessian needs subproblem")

    def cost(self, p) -> float:
        g = float(self.g_cost(p))
        return g if g == math.inf else g - float(self.h_cost(p))


def _require_finite(value: float, what: str) -> float:
    if not math.isfinite(value):
        raise SolverError(f"non-finite {what}: {value!r}")
    return value


def _same_point(a, b) -> bool:
    if a is b:
        return True
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and bool((a == b).all())


def armijo_linesearch(geometry: Geometry, f: Callable, p, direction,
                      params: ArmijoParams, *, slope: float, f_at_p: float,
                      initial_step: float):
    """Backtracking line search along exp_p(t * direction).

    Returns ``(t, point, value)`` for the largest t = t0 * beta^m satisfying
    f(exp_p(t d)) <= f(p) + c t <grad f(p), d>_p, with f(p) = ``f_at_p`` and
    t0 = ``initial_step`` (gradient descent warm-starts it from the
    previously accepted step). ``slope`` is that inner product; it must be
    negative (descent direction) or LineSearchError is raised, as it is
    when the backtrack budget runs out.
    """
    if not slope < 0:
        raise LineSearchError("not a descent direction")
    t = initial_step
    c = params.sufficient_decrease
    exp = geometry.exp
    for _ in range(params.max_backtracks + 1):
        cand = exp(p, t * direction)
        fc = float(f(cand))
        if fc <= f_at_p + c * t * slope:
            return t, cand, fc
        t *= params.contraction
    raise LineSearchError("line search exhausted its backtrack budget")


def gradient_descent(geometry: Geometry, f: Callable, rgrad: Callable, p0,
                     linesearch: ArmijoParams, stop: StoppingCriterion):
    """Riemannian steepest descent with Armijo backtracking.

    Steps p <- exp_p(-t grad f(p)); strictly decreasing f until a stopping
    clause fires. A stalled line search terminates the run with reason
    "linesearch stalled" instead of raising.
    """
    trace = SolverTrace()
    p = p0
    fp = _require_finite(float(f(p)), "cost")
    g = rgrad(p)
    gn = geometry.norm(p, g)
    trace.append(fp, 0.0)
    trace.reason = _stop_reason(stop, 0, gn)
    steps = 0
    # each search warm-starts from the previous accepted step (with room to
    # grow back), which keeps the backtrack count small on stiff valleys
    t_guess = linesearch.initial_step
    while trace.reason is None:
        try:
            t, p_next, f_next = armijo_linesearch(
                geometry, f, p, -g, linesearch, f_at_p=fp, slope=-gn * gn,
                initial_step=t_guess)
        except LineSearchError:
            trace.reason = "linesearch stalled"
            break
        _require_finite(f_next, "cost")
        t_guess = min(linesearch.initial_step, 4.0 * t)
        step_dist = t * gn  # distance along the geodesic exp_p(-t g)
        g_next = rgrad(p_next)
        gn_next = geometry.norm(p_next, g_next)
        steps += 1
        trace.append(f_next, step_dist)
        trace.reason = _stop_reason(
            stop, steps, gn_next, step_dist,
            lambda: geometry.norm(p_next, geometry.transport(p, p_next, g) - g_next))
        p, fp, g, gn = p_next, f_next, g_next, gn_next
    return p, trace


def fd_hessian_apply(geometry: Geometry, rgrad: Callable, p, x, rgrad_p=None):
    """Hessian-vector product by a Riemannian forward difference.

    (transport_{q->p}(grad f(q)) - grad f(p)) * (||x|| / h) with
    q = exp_p(h x/||x||) and h = 1e-8 (1 + ||p||), ||p|| the ambient norm;
    returns the zero tangent for x = 0.
    """
    xnorm = geometry.norm(p, x)
    if xnorm == 0.0:
        return np.zeros_like(np.asarray(x, dtype=float))
    h = _FD_STEP_SCALE * (1.0 + float(np.linalg.norm(np.ravel(p))))
    q = geometry.exp(p, (h / xnorm) * x)
    gq = geometry.transport(q, p, rgrad(q))
    gp = rgrad(p) if rgrad_p is None else rgrad_p
    return (gq - gp) * (xnorm / h)


def _fd_hessian(geometry: Geometry, rgrad: Callable, p, g):
    """:func:`fd_hessian_apply` at p in frame coordinates."""
    return lambda y: geometry.to_frame(p, fd_hessian_apply(
        geometry, rgrad, p, geometry.from_frame(p, y), rgrad_p=g))


def _dot(a, b) -> float:
    """The metric in frame coordinates."""
    return float(np.vdot(a, b))


def _truncated_cg(g, hvp, radius: float, tol: float, max_iter: int):
    """Steihaug-Toint CG for the trust-region model in frame coordinates.

    Returns (step, hit_boundary, number of Hessian products made). The
    caller stops at a zero gradient, so r2 > 0 here.
    """
    eta = np.zeros_like(g)
    r = g.copy()
    d = -r
    r2 = _dot(r, r)
    ee = 0.0
    for k in range(1, max_iter + 1):
        hd = hvp(d)
        kappa = _dot(d, hd)
        dd = _dot(d, d)
        ed = _dot(eta, d)
        if kappa <= 0.0:
            tau = _boundary_tau(dd, ed, ee, radius)
            return eta + tau * d, True, k
        alpha = r2 / kappa
        if ee + 2.0 * alpha * ed + alpha * alpha * dd >= radius * radius:
            tau = _boundary_tau(dd, ed, ee, radius)
            return eta + tau * d, True, k
        eta = eta + alpha * d
        ee = ee + 2.0 * alpha * ed + alpha * alpha * dd
        r = r + alpha * hd
        r2_new = _dot(r, r)
        if math.sqrt(r2_new) <= tol:
            return eta, False, k
        d = -r + (r2_new / r2) * d
        r2 = r2_new
    return eta, False, max_iter


def _boundary_tau(dd: float, ed: float, ee: float, radius: float) -> float:
    disc = max(ed * ed - dd * (ee - radius * radius), 0.0)
    return (-ed + math.sqrt(disc)) / dd


def trust_region_solve(geometry: Geometry, f: Callable, rgrad: Callable, p0,
                       stop: StoppingCriterion, hess: Optional[Callable] = None):
    """Riemannian trust-region method with truncated CG.

    The model m(Y) = f(p) + <g, Y> + <H Y, Y>/2 is written in orthonormal
    frame coordinates of T_pM (``Geometry.to_frame``), where the metric is
    the dot product and the candidate is ``exp_frame(p, Y)`` (Absil, Mahony
    & Sepulchre, *Optimization Algorithms on Matrix Manifolds*, 2008, ch.
    7). H = ``hess(p)``, built once per iterate, maps frame coordinates to
    frame coordinates, Y -> to_frame(Hess f(p)[from_frame(Y)]); when
    ``hess`` is None, :func:`fd_hessian_apply` is composed the same way.
    Truncated CG with the kappa-theta rule min(0.5, sqrt(||g||)) ||g|| and
    at most max(dim, 10) steps minimizes the model; the radius follows the
    classic rho-based update. Rejected steps are the rows after the first
    with zero step distance; ``trace.hessian_products`` gives the Hessian
    products of each step.
    """
    trace = SolverTrace()
    p = p0
    fp = _require_finite(float(f(p)), "cost")
    g = rgrad(p)
    gy = geometry.to_frame(p, g)
    gn = math.sqrt(_dot(gy, gy))
    trace.append(fp, 0.0)
    trace.reason = _stop_reason(stop, 0, gn)
    radius = _TR_INITIAL_RADIUS
    cg_budget = max(geometry.dim, 10)
    steps = 0
    hvp = None  # the Hessian map at p, built when first needed
    while trace.reason is None:
        if hvp is None:
            hvp = hess(p) if hess is not None else _fd_hessian(geometry, rgrad, p, g)
        inner_tol = gn * min(0.5, math.sqrt(gn))
        eta, boundary, cg_products = _truncated_cg(gy, hvp, radius, inner_tol, cg_budget)
        trace.hessian_products.append(cg_products + 1)
        model_decrease = -(_dot(gy, eta) + 0.5 * _dot(hvp(eta), eta))
        cand = geometry.exp_frame(p, eta)
        f_cand = _require_finite(float(f(cand)), "cost")
        reg = _TR_RHO_REGULARIZATION * _EPS * max(1.0, abs(fp))
        if model_decrease + reg > 0.0:
            rho = (fp - f_cand + reg) / (model_decrease + reg)
        else:
            rho = -math.inf
        steps += 1
        step_dist = None  # a rejected step keeps p
        if rho >= _TR_ACCEPT_RATIO:
            step_dist = math.sqrt(_dot(eta, eta))
            g_prev, p_prev = g, p
            p, fp = cand, f_cand
            g = rgrad(p)
            gy = geometry.to_frame(p, g)
            gn = math.sqrt(_dot(gy, gy))
            hvp = None
        trace.append(fp, step_dist or 0.0)
        trace.reason = _stop_reason(
            stop, steps, gn, step_dist,
            lambda: geometry.norm(p, geometry.transport(p_prev, p, g_prev) - g))
        if rho < 0.25:
            radius *= _TR_SHRINK_FACTOR
        elif rho > _TR_EXPAND_RATIO and boundary:
            radius = min(2.0 * radius, _TR_MAX_RADIUS)
    return p, trace


@dataclass(frozen=True)
class SubSolverSpec:
    """How DC subproblems are minimized: solver kind plus its parameters."""

    kind: str  # "trust_region" | "gradient_descent"
    criterion: StoppingCriterion
    armijo: ArmijoParams = field(default_factory=ArmijoParams)

    def __post_init__(self):
        if self.kind not in ("trust_region", "gradient_descent"):
            raise ValueError(f"unknown sub-solver kind {self.kind!r}")


def _surrogate(problem: DCProblem, p_k, x_k, lam: Optional[float]):
    """Cost, gradient and Hessian builder (or None) of the linearized
    (possibly proximal) DC subproblem."""
    geom = problem.geometry
    base_hess = None
    if problem.subproblem is not None:
        base_cost, base_grad = problem.subproblem(p_k, x_k)
        if problem.subproblem_hessian is not None:
            base_hess = problem.subproblem_hessian(p_k, x_k)
    else:
        def base_cost(z):
            return float(problem.g_cost(z)) - geom.inner(p_k, x_k, geom.log(p_k, z))

        def base_grad(z):
            return problem.g_rgrad(z) - geom.adjoint_log_diff(p_k, z, x_k)

    if lam is None:
        return base_cost, base_grad, base_hess

    half_inv_lam = 0.5 / lam
    inv_lam = 1.0 / lam

    def cost(z):
        return base_cost(z) + half_inv_lam * geom.dist(z, p_k) ** 2

    def grad(z):
        return base_grad(z) - inv_lam * geom.log(z, p_k)

    if base_hess is None:
        return cost, grad, None

    def hess(z):
        base, prox = base_hess(z), geom.half_sq_dist_hessian(z, p_k)
        return lambda v: base(v) + inv_lam * prox(v)

    return cost, grad, hess


def _descend_2d(plane: bool, cost, egrad, start, params: ArmijoParams,
                stop: StoppingCriterion, costs: Optional[array] = None):
    """:func:`gradient_descent` in plain floats on the two 2-D geometries,
    without the gradient-change clause.

    ``cost(x1, x2)`` returns a float and ``egrad(x1, x2)`` the Euclidean
    gradient e as a float pair. The step is exp_x(-t r) with r = e, or
    r = G^-1 e on the plane, and the squared norm is <r, r>_G, with the
    arithmetic of the geometry's ``egrad_to_rgrad``, ``exp`` and ``inner``:
    the iterates, costs, reasons and errors equal gradient_descent's.
    ``costs``, if given, receives each row's cost, as gradient_descent's
    ``trace.f`` does. With no trace, no arrays and no conversions, an
    accepted step on the Rosenbrock surrogate (one gradient, about three
    costs) takes a median 2.2-3.7 us, against 5.4-9.1 us through the array
    closures (CPython 3.11, 2-vCPU Xeon host); the Rosenbrock DC runs take
    millions of them. Returns ``(point, reason, steps)``.
    """
    x1, x2 = float(start[0]), float(start[1])
    beta = params.contraction
    c = params.sufficient_decrease
    tries = range(params.max_backtracks + 1)
    t0 = params.initial_step
    isfinite, sqrt = math.isfinite, math.sqrt  # local names: millions of steps
    f = cost(x1, x2)
    t_guess = t0
    it = 0
    step = None
    while True:
        if not isfinite(f):
            raise SolverError(f"non-finite cost: {f!r}")
        if costs is not None:
            costs.append(f)
        r1, r2 = egrad(x1, x2)
        if plane:
            r1, r2 = r1 + 2.0 * x1 * r2, 2.0 * x1 * r1 + (1.0 + 4.0 * x1 * x1) * r2  # G^-1 e
            n2 = (1.0 + 4.0 * x1 * x1) * r1 * r1 - 2.0 * x1 * (r1 * r2 + r2 * r1) + r2 * r2
        else:
            n2 = r1 * r1 + r2 * r2
        gn = sqrt(0.0 if n2 < 0.0 else n2)  # Geometry.norm without a max() call
        reason = _stop_reason(stop, it, gn, step)
        if reason is not None:
            return np.array([x1, x2]), reason, it
        slope = -gn * gn
        t = t_guess
        for _ in tries:
            u = t * r1
            c1 = x1 - u
            c2 = x2 - t * r2 + (u * u if plane else 0.0)
            fc = cost(c1, c2)
            if fc <= f + c * t * slope:
                break
            t *= beta
        else:
            return np.array([x1, x2]), "linesearch stalled", it
        x1, x2, f = c1, c2, fc
        step = t * gn  # distance along the geodesic exp_x(-t r)
        t_guess = min(t0, 4.0 * t)
        it += 1


def _outer_loop(geometry: Geometry, p, evaluate: Callable, step: Callable,
                stop: StoppingCriterion, trace: SolverTrace):
    """The outer iteration shared by DCA, DCPPA and Frank-Wolfe.

    ``evaluate(p) -> (f, x, g)`` gives the cost at p, the covector the step
    map reads (grad h for the DC methods, grad f for Frank-Wolfe) and the
    gradient the stopping rule reads; ``step(k, p_k, x_k)`` returns
    ``(p_{k+1}, reason)``. A reason ends the run, with p_k and no new row;
    otherwise a p_{k+1} whose bytes equal p_k's ends it as "fixed point".
    This loop alone writes ``trace.reason``.
    """
    f, x, g = evaluate(p)
    trace.append(f, 0.0, point=p, subgradient=x)
    k = 0
    while trace.reason is None:
        p_next, reason = step(k, p, x)
        if reason is not None or _same_point(p_next, p):
            trace.reason = reason or "fixed point"
            break
        f, x_next, g_next = evaluate(p_next)
        gn = geometry.norm(p_next, g_next)
        step_dist = geometry.dist(p, p_next)
        k += 1
        trace.append(f, step_dist, point=p_next, subgradient=x_next)
        trace.reason = _stop_reason(
            stop, k, gn, step_dist,
            lambda: geometry.norm(p_next, geometry.transport(p, p_next, g) - g_next),
            zero_grad_stops=False)
        p, x, g = p_next, x_next, g_next
    return p, trace


def _dc_solve(problem: DCProblem, p0, sub: Optional[SubSolverSpec],
              stop: StoppingCriterion, lam: Optional[float], record_points: bool):
    """DCA (``lam`` None) or DCPPA: the outer loop with the DC step map."""
    geom = problem.geometry
    hook = problem.constrained_subsolver
    if hook is None:
        if sub is None:
            raise ValueError("smooth DC problems need a sub-solver spec")
        if problem.subproblem is None and problem.g_rgrad is None:
            raise ValueError("the generic surrogate needs a smooth g "
                             "(provide g_rgrad, subproblem, or constrained_subsolver)")
    elif lam is not None:
        raise ValueError("the proximal variant needs a smooth surrogate; "
                         "constrained closed-form hooks solve the plain DC subproblem")
    trace = SolverTrace(record_points)
    if hook is None:
        crit = sub.criterion
        fast = (problem.subproblem_2d is not None and lam is None
                and sub.kind == "gradient_descent" and crit.grad_change_tol is None)
        plane = isinstance(geom, RosenbrockPlane)

    def evaluate(p):
        f = _require_finite(problem.cost(p), "cost")
        x = problem.h_rgrad(p)
        # the stopping rule reads grad f when g is smooth, otherwise grad h
        return f, x, x if problem.g_rgrad is None else problem.g_rgrad(p) - x

    def step(k, p, x):
        if hook is not None:
            p_next = hook(p, x)
            return (p, "no feasible step") if p_next is None else (p_next, None)
        if fast:
            cost, grad = problem.subproblem_2d(p, x)
            p_next, reason, steps = _descend_2d(plane, cost, grad, p, sub.armijo, crit)
        else:
            cost, grad, hess = _surrogate(problem, p, x, lam)
            if sub.kind == "trust_region":
                p_next, inner = trust_region_solve(geom, cost, grad, p, crit, hess=hess)
                trace.hessian_products.append(sum(inner.hessian_products))
                # the rejected steps: the rows after the first with zero distance
                trace.tr_rejected.append(inner.step.count(0.0) - 1)
            else:
                p_next, inner = gradient_descent(geom, cost, grad, p, sub.armijo, crit)
            reason, steps = inner.reason, len(inner.f) - 1
        trace.inner_steps.append(steps)
        if reason == "max iterations":
            trace.subsolver_failures.append(k)
            # a trust region that rejected steps and kept p_k failed there
            if sub.kind == "trust_region" and trace.tr_rejected[-1] and _same_point(p_next, p):
                return p_next, "sub-solver failed"
        return p_next, None

    return _outer_loop(geom, p0, evaluate, step, stop, trace)


def dca_solve(problem: DCProblem, p0, sub: Optional[SubSolverSpec],
              stop: StoppingCriterion, record_points: bool = True):
    """Difference-of-convex algorithm.

    Each iteration takes X_k = grad h(p_k) and moves to a minimizer of the
    convex surrogate g(p) - <X_k, log_{p_k}(p)>, solved by the configured
    sub-solver (warm-started at p_k) or by the problem's constrained
    closed-form hook. The cost sequence is nonincreasing. A subproblem
    returning p_k exactly ends the run as a fixed point, a capped
    trust-region sub-solve that rejected steps and kept p_k as "sub-solver
    failed", and a hook that returns None as "no feasible step".
    """
    return _dc_solve(problem, p0, sub, stop, lam=None, record_points=record_points)


def dcppa_solve(problem: DCProblem, p0, lam: float, sub: Optional[SubSolverSpec],
                stop: StoppingCriterion, record_points: bool = True):
    """Proximal-point DC algorithm: the DCA surrogate plus d^2(p, p_k)/(2 lam)."""
    if not lam > 0:
        raise ValueError("proximal parameter must be positive")
    return _dc_solve(problem, p0, sub, stop, lam=lam, record_points=record_points)


def frank_wolfe_solve(geometry: Geometry, rgrad_f: Callable, linear_oracle: Callable,
                      p0, stop: StoppingCriterion, cost: Callable,
                      feasible: Optional[Callable] = None,
                      record_points: bool = True):
    """Riemannian Frank-Wolfe with the diminishing steps s_k = 2/(2+k).

    ``cost(p)`` gives each row's f; ``linear_oracle(p, G) -> point`` must
    return a minimizer of <G, log_p(q)> over the constraint set. Iterates
    move along the geodesic toward the oracle point, so on a geodesically
    convex set they stay feasible up to the oracle's round-off, and no
    further: an oracle point slightly outside the set carries the next
    iterate with it (rows 1 and 2 of ``frechet_fw.csv`` of ``rdcopt bench
    frechet --seed 42`` have slack -4.4e-14 and -1.0e-14; ROADMAP open item
    4). The start must be feasible.
    """
    if feasible is not None and not feasible(p0):
        raise ValueError("Frank-Wolfe requires feasible start")
    trace = SolverTrace(record_points)

    def evaluate(p):
        f = _require_finite(float(cost(p)), "cost")
        g = rgrad_f(p)
        return f, g, g

    def step(k, p, g):
        q = linear_oracle(p, g)
        s_k = 2.0 / (2.0 + k)
        trace.step_size.append(s_k)
        return geometry.geodesic(p, q, s_k), None

    return _outer_loop(geometry, p0, evaluate, step, stop, trace)


def strongly_convexify(problem: DCProblem, sigma: float, anchor) -> DCProblem:
    """Add (sigma/2) d^2(anchor, .) to both DC components.

    f = g - h is unchanged pointwise while both components gain strong
    convexity sigma; the gradients pick up -sigma log_p(anchor). Closed-form
    subproblem hooks of the original problem do not apply to the wrapped
    components and are dropped (the generic surrogate path is used).
    """
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    geom = problem.geometry
    half = 0.5 * sigma

    def quad(p):
        return half * geom.dist(anchor, p) ** 2

    def quad_grad(p):
        return -sigma * geom.log(p, anchor)

    g_cost, h_cost = problem.g_cost, problem.h_cost
    g_rgrad, h_rgrad = problem.g_rgrad, problem.h_rgrad
    return DCProblem(
        geometry=geom,
        g_cost=lambda p: g_cost(p) + quad(p),
        h_cost=lambda p: h_cost(p) + quad(p),
        h_rgrad=lambda p: h_rgrad(p) + quad_grad(p),
        g_rgrad=(None if g_rgrad is None
                 else (lambda p: g_rgrad(p) + quad_grad(p))),
    )


def is_critical(problem: DCProblem, p, tol: float):
    """Smooth criticality check ||grad g(p) - grad h(p)||_p <= tol.

    Returns ``(passed, residual)``.
    """
    if problem.g_rgrad is None:
        raise ValueError("criticality check needs a smooth g")
    residual = problem.geometry.norm(p, problem.g_rgrad(p) - problem.h_rgrad(p))
    return residual <= tol, residual
