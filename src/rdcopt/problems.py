"""The DC problem families of the paper's experiments and duality checks.

* log-det costs ``phi1(det p) - phi2(det p)`` on the SPD cone, whose DC
  subproblem has the closed scalar structure
  ``psi(p) = phi1(det p) - phi2'(det q) det q (log det p - log det q)``;
* the Rosenbrock function split as ``g - h`` with
  ``g = a(x1^2-x2)^2 + 2(x1-b)^2`` and ``h = (x1-b)^2``, on flat space or on
  the valley-adapted plane metric;
* box-constrained maximization of the Frechet variance on the SPD cone,
  with its linear subproblem over a Loewner interval solved to optimality, a
  safeguard that walks oracle answers into the box, and a feasible start;
* the 1-D quartic ``(x^4 + x^2) - 2x^2`` of the duality checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .manifolds import Euclidean, RosenbrockPlane, SPDManifold, _is_integer
from .matfun import (
    SPD_RTOL,
    EigDecomp,
    _lapack,
    assert_spd,
    spd_cholesky,
    spd_sqrt_inv_sqrt,
    sym_dlog,
    sym_eig,
    symmetrize,
)
from .solvers import DCProblem

__all__ = [
    "ScalarFunction",
    "log_power",
    "LogDetProblem",
    "logdet_dcproblem",
    "RosenbrockProblem",
    "rosenbrock_cost",
    "rosenbrock_grad",
    "rosenbrock_kernel",
    "rosenbrock_dcproblem",
    "quartic_dcproblem",
    "FrechetBoxProblem",
    "frechet_variance",
    "frechet_grad",
    "box_linear_subproblem",
    "box_slack",
    "box_feasible",
    "feasibility_safeguard",
    "frechet_dcproblem",
    "frechet_linear_oracle",
    "random_frechet_instance",
]


@dataclass(frozen=True)
class ScalarFunction:
    """A scalar function with its first two derivatives."""

    value: Callable[[float], float]
    d1: Callable[[float], float]
    d2: Callable[[float], float]


def log_power(k: int) -> ScalarFunction:
    """phi(t) = (log t)^k on t > 0."""

    def value(t):
        return math.log(t) ** k

    def d1(t):
        return k * math.log(t) ** (k - 1) / t

    def d2(t):
        u = math.log(t)
        return (k * (k - 1) * u ** (k - 2) - k * u ** (k - 1)) / (t * t)

    return ScalarFunction(value, d1, d2)


_SAMPLE_T = np.logspace(-3.0, 6.0, 40)


def _det_convexity_defect(phi: ScalarFunction) -> float:
    """min over sampled t of phi''(t) t^2 + phi'(t) t.

    Nonnegativity of this expression certifies geodesic convexity of
    p -> phi(det p) on the SPD cone.
    """
    return min(phi.d2(t) * t * t + phi.d1(t) * t for t in _SAMPLE_T)


@dataclass(frozen=True)
class LogDetProblem:
    """min phi1(det p) - phi2(det p) over SPD matrices of size n.

    Defaults to phi1 = (log t)^4, phi2 = (log t)^2, the benchmark family
    whose critical points satisfy log det p in {0, +-1/sqrt(2)}; on the
    nontrivial branches the cost is -1/4, and descent runs converge to the
    branch whose sign matches log det of the starting point.
    """

    n: int
    phi1: ScalarFunction = field(default_factory=lambda: log_power(4))
    phi2: ScalarFunction = field(default_factory=lambda: log_power(2))

    def __post_init__(self):
        if not (_is_integer(self.n) and self.n >= 1):
            raise ValueError("n must be a positive integer")
        for name, phi in (("phi1", self.phi1), ("phi2", self.phi2)):
            if _det_convexity_defect(phi) < -1e-9:
                raise ValueError(f"{name} violates the det-convexity condition")


def _det(geom: SPDManifold, p: np.ndarray) -> float:
    return math.exp(geom.logdet(p))


def logdet_dcproblem(spec: LogDetProblem) -> DCProblem:
    """DCProblem for the log-det family, with its closed-form subproblem
    and that subproblem's exact Hessian.

    Costs, gradients and surrogates read det p from the factor cache of the
    problem's geometry, which the sub-solver's geometry operations share.
    """
    geom = SPDManifold(spec.n)
    phi1, phi2 = spec.phi1, spec.phi2

    def subproblem_hessian(q, x):
        # the surrogate's Hessian does not depend on the iterate q
        return lambda p: _logdet_surrogate_hessian(geom, phi1, p)

    return DCProblem(
        geometry=geom,
        g_cost=lambda p: phi1.value(_det(geom, p)),
        h_cost=lambda p: phi2.value(_det(geom, p)),
        g_rgrad=lambda p: _det_grad(geom, phi1, p),
        h_rgrad=lambda p: _det_grad(geom, phi2, p),
        subproblem=lambda q, x: _logdet_surrogate(geom, spec, q),
        subproblem_hessian=subproblem_hessian,
    )


def _det_grad(geom: SPDManifold, phi: ScalarFunction, p: np.ndarray) -> np.ndarray:
    # grad phi(det p) = (phi'(det p) det p) p
    t = _det(geom, p)
    return (phi.d1(t) * t) * p


def _logdet_surrogate(geom: SPDManifold, spec: LogDetProblem, q: np.ndarray):
    """Cost and Riemannian gradient of the DC surrogate at the iterate q,
    with log det read through ``geom``.

    psi(p) = phi1(det p) - c (log det p - log det q) with
    c = phi2'(det q) det q; grad psi(p) = (phi1'(det p) det p - c) p. The
    surrogate is geodesically convex because -log det has zero Hessian.
    """
    tq = _det(geom, q)
    c = spec.phi2.d1(tq) * tq
    log_det_q = geom.logdet(q)
    phi1 = spec.phi1

    def cost(p):
        s = geom.logdet(p)
        return phi1.value(math.exp(s)) - c * (s - log_det_q)

    def rgrad(p):
        t = _det(geom, p)
        return (phi1.d1(t) * t - c) * p

    return cost, rgrad


def _logdet_surrogate_hessian(geom: SPDManifold, phi1: ScalarFunction, p: np.ndarray):
    """Hess psi(p) of the log-det surrogate, as a map Y -> Hess psi(p)[Y] of
    frame coordinates Y = p^{-1/2} V p^{-1/2} (``SPDManifold.to_frame``).

    With s = log det p and F(s) = phi1(e^s), grad psi(p) = (F'(s) - c) p.
    The field p -> p is parallel for the affine-invariant connection, so
    only the scalar varies: Hess psi(p)[V] = F''(s) tr(p^{-1} V) p, with
    F''(s) = phi1''(t) t^2 + phi1'(t) t at t = det p; the -c log det p term
    adds nothing. In the frame tr(p^{-1} V) = tr Y, and p becomes I.
    """
    t = _det(geom, p)
    curvature = phi1.d2(t) * t * t + phi1.d1(t) * t
    eye = np.eye(geom.n)

    def apply(y):
        return (curvature * float(np.trace(y))) * eye

    return apply


@dataclass(frozen=True)
class RosenbrockProblem:
    """min a (x1^2 - x2)^2 + (x1 - b)^2; minimizer (b, b^2)."""

    a: float = 2e5
    b: float = 1.0

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ValueError("a and b must be positive and finite")


def rosenbrock_cost(spec: RosenbrockProblem, p) -> float:
    x1, x2 = float(p[0]), float(p[1])
    v = x1 * x1 - x2
    w = x1 - spec.b
    return spec.a * v * v + w * w


def rosenbrock_grad(spec: RosenbrockProblem, p) -> np.ndarray:
    """Euclidean gradient (4a x1 (x1^2-x2) + 2(x1-b), -2a (x1^2-x2))."""
    x1, x2 = float(p[0]), float(p[1])
    v = spec.a * (x1 * x1 - x2)
    return np.array([4.0 * v * x1 + 2.0 * (x1 - spec.b), -2.0 * v])


def rosenbrock_kernel(spec: RosenbrockProblem, *, k: float = 1.0, c: float = 0.0):
    """``(cost(x1, x2), egrad(x1, x2))`` of a(x1^2-x2)^2 + k(x1-b)^2 - c x1 in
    plain floats, the Euclidean gradient as a float pair. k = 1, c = 0 has
    the bits of ``rosenbrock_cost`` and ``rosenbrock_grad`` (1.0 w w is w w,
    2k is 2.0, f >= +0 absorbs the -(+-0.0) of c x1); k = 2 is g of
    :func:`rosenbrock_dcproblem`, and c = 2(q1 - b) then its DC surrogate
    at q (up to a constant).
    """
    a, b = spec.a, spec.b
    k2 = 2.0 * k

    def cost(x1, x2):
        v = x1 * x1 - x2
        w = x1 - b
        return a * v * v + k * w * w - c * x1

    def egrad(x1, x2):
        v = a * (x1 * x1 - x2)
        return 4.0 * v * x1 + k2 * (x1 - b) - c, -2.0 * v

    return cost, egrad


def rosenbrock_dcproblem(spec: RosenbrockProblem, geometry: str) -> DCProblem:
    """DC split of the Rosenbrock cost on flat space (``geometry`` "euclidean")
    or the adapted plane ("rb").

    g(x) = a(x1^2-x2)^2 + 2(x1-b)^2 and h(x) = (x1-b)^2; on the adapted
    metric both components are geodesically convex (h composed with the
    chart isometry is (x1-b)^2). g and the ``subproblem_2d`` surrogate come
    from :func:`rosenbrock_kernel` with k = 2; ``subproblem`` and
    ``g_rgrad`` adapt them to arrays through ``egrad_to_rgrad``.
    """
    if geometry == "euclidean":
        geom = Euclidean(2)
    elif geometry == "rb":
        geom = RosenbrockPlane()
    else:
        raise ValueError("geometry must be 'euclidean' or 'rb'")
    b = spec.b

    def h_cost(p):
        w = float(p[0]) - b
        return w * w

    def h_egrad(p):
        return np.array([2.0 * (float(p[0]) - b), 0.0])

    def on_arrays(cost, egrad):
        return (lambda p: cost(float(p[0]), float(p[1])),
                lambda p: geom.egrad_to_rgrad(p, egrad(float(p[0]), float(p[1]))))

    def subproblem_2d(q, x):
        return rosenbrock_kernel(spec, k=2.0, c=2.0 * (float(q[0]) - b))

    g_cost, g_rgrad = on_arrays(*rosenbrock_kernel(spec, k=2.0))
    return DCProblem(
        geometry=geom,
        g_cost=g_cost,
        h_cost=h_cost,
        g_rgrad=g_rgrad,
        h_rgrad=lambda p: geom.egrad_to_rgrad(p, h_egrad(p)),
        subproblem=lambda q, x: on_arrays(*subproblem_2d(q, x)),
        subproblem_2d=subproblem_2d,
    )


def quartic_dcproblem() -> DCProblem:
    """The 1-D family g(x) = x^4 + x^2, h(x) = 2x^2: f = x^4 - x^2, critical at 0
    and +-1/sqrt(2), f* = -1/4. The costs take batched samples (..., 1) too; g
    is u^2 u^2 + u^2 in IEEE products, within 2 ulp of pow and host-independent.
    The surrogate at (q, X) is g(p) - X p, with the exact Hessian 12 p^2 + 2."""

    def g_cost(x):
        u2 = np.square(np.asarray(x, dtype=float)[..., 0])
        return u2 * u2 + u2

    def h_cost(x):
        u = np.asarray(x, dtype=float)[..., 0]
        return 2.0 * u ** 2

    def g_rgrad(x):
        return np.array([4.0 * float(x[0]) ** 3 + 2.0 * float(x[0])])

    def subproblem(q, x):
        return (lambda p: g_cost(p) - float(x[0]) * float(p[0]),
                lambda p: g_rgrad(p) - x)

    return DCProblem(
        geometry=Euclidean(1), g_cost=g_cost, h_cost=h_cost, g_rgrad=g_rgrad,
        h_rgrad=lambda x: np.array([4.0 * float(x[0])]), subproblem=subproblem,
        subproblem_hessian=lambda q, x: lambda p: lambda y: (12.0 * float(p[0]) ** 2 + 2.0) * y)


@dataclass(frozen=True)
class FrechetBoxProblem:
    """Maximize the weighted Frechet variance over a Loewner box.

    ``points`` are SPD data matrices q_j with nonnegative weights summing
    to one; the feasible set is {p : lower <= p <= upper} in the Loewner
    order, with upper - lower positive definite. ``geometry`` is derived:
    the SPD(n) whose factor cache the variance, its gradient, the box
    oracle and the safeguard share.
    """

    points: np.ndarray  # (m, n, n)
    weights: np.ndarray  # (m,)
    lower: np.ndarray
    upper: np.ndarray
    geometry: SPDManifold = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        wts = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", wts)
        if pts.ndim != 3 or pts.shape[1] != pts.shape[2]:
            raise ValueError("points must be an (m, n, n) array")
        if not np.all(np.isfinite(pts)):
            raise ValueError("points must be finite")
        if wts.shape != (pts.shape[0],) or not np.all(np.isfinite(wts) & (wts >= 0)):
            raise ValueError("weights must be finite and nonnegative, one per point")
        if abs(float(wts.sum()) - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")
        _assert_box(self.lower, self.upper)
        object.__setattr__(self, "geometry", SPDManifold(pts.shape[1]))


def _assert_box(lower, upper):
    assert_spd(lower, "lower bound")
    assert_spd(upper, "upper bound")
    w = _lapack("eigvalsh", symmetrize(np.asarray(upper) - np.asarray(lower)))
    if w[0] <= SPD_RTOL * max(1.0, w[-1]):
        raise ValueError("degenerate box")


def frechet_variance(prob: FrechetBoxProblem, p) -> float:
    """sum_j mu_j d^2(p, q_j) with the affine-invariant distance."""
    # p^{-1/2} q_j p^{-1/2}, j = 1..m, from p's pair memo, where frechet_grad reads it
    w, _ = prob.geometry._whitened(p, prob.points)
    total = 0.0
    # in point order: a sum over the stack would round differently
    for mu, sq in zip(prob.weights, np.sum(np.log(w) ** 2, axis=-1)):
        total += mu * float(sq)
    return total


def frechet_grad(prob: FrechetBoxProblem, p) -> np.ndarray:
    """grad h(p) = -2 sum_j mu_j p^{1/2} log(p^{-1/2} q_j p^{-1/2}) p^{1/2},
    i.e. -2 sum_j mu_j log_p(q_j)."""
    w, v = prob.geometry._whitened(p, prob.points)
    logs = symmetrize((v * np.log(w)[..., None, :]) @ v.swapaxes(-1, -2))
    acc = np.zeros_like(np.asarray(p, dtype=float))
    for mu, log_q in zip(prob.weights, logs):
        acc += mu * log_q
    return -2.0 * prob.geometry.from_frame(p, acc)


def box_slack(p, lower, upper) -> float:
    """min eigenvalue slack of the two Loewner constraints (negative when violated)."""
    lo = _lapack("eigvalsh", symmetrize(np.asarray(p) - lower))[0]
    hi = _lapack("eigvalsh", symmetrize(np.asarray(upper) - p))[0]
    return float(min(lo, hi))


def box_feasible(p, lower, upper) -> bool:
    """``box_slack(p, lower, upper) >= 0``, deciding a violated upper bound
    from its eigenvalues alone."""
    hi = _lapack("eigvalsh", symmetrize(np.asarray(upper) - p))[0]
    if hi < 0.0:
        return False
    lo = _lapack("eigvalsh", symmetrize(np.asarray(p) - lower))[0]
    return min(lo, hi) >= 0.0


# projected-gradient iterations per start of the box oracle
_BOX_MAX_ITER = 300

def _clip01(v: np.ndarray) -> np.ndarray:
    """Spectral projection of each matrix of an exactly symmetric (k, n, n)
    stack onto [0, I]."""
    w, q = _lapack("eigh", v)
    return symmetrize((q * np.clip(w, 0.0, 1.0)[..., None, :]) @ q.swapaxes(-1, -2))


def box_linear_subproblem(s: np.ndarray, x: np.ndarray, lower: np.ndarray,
                          upper: np.ndarray) -> np.ndarray:
    """Minimize tr(s log(x z x)) over the Loewner box lower <= z <= upper.

    Diagonalizing s = Q D Q^T and congruence-transforming with X Q turns the
    problem into min tr(D log Zh) over Lh <= Zh <= Uh with Lh = Q^T X L X Q,
    Uh = Q^T X U X Q. The spectral corner Zh = P^T [-sgn(D)]_+ P + Lh with
    P^T P = Uh - Lh (exact whenever everything commutes, e.g. diagonal data)
    seeds a deterministic multi-start projected-gradient refinement, which
    is required because the corner alone is not optimal for non-commuting
    instances. Each of the six starts backtracks on its own schedule of 2,
    4, 8, ... trials, and one stack per round holds the trials of all of
    them (see ``_box_projected_gradient``), with the iterates a run of each
    start on its own would give. The first start, in start
    order, with the least objective gives the result. The returned z is
    feasible up to eigensolver round-off.

    Raises ValueError("degenerate box") when upper - lower is not positive
    definite.
    """
    s = symmetrize(s)
    x = assert_spd(x, "congruence factor")
    _assert_box(lower, upper)
    return _box_oracle(s, x, lower, upper)


def _box_oracle(s, x, lower, upper):
    """:func:`box_linear_subproblem` on a box, ``s`` and ``x`` it has checked."""
    n = s.shape[0]
    d, q = sym_eig(s)
    xq = x @ q
    lh = symmetrize(xq.T @ lower @ xq)
    uh = symmetrize(xq.T @ upper @ xq)
    b = symmetrize(uh - lh)
    eig_b = sym_eig(b)
    if eig_b.eigenvalues[0] <= SPD_RTOL * max(1.0, eig_b.eigenvalues[-1]):
        raise ValueError("degenerate box")
    b_sqrt, b_inv_sqrt = spd_sqrt_inv_sqrt(eig_b)

    # spectral-corner candidates from both standard factors of Uh - Lh, and
    # the lower anchor's complement, mapped into v-space and clipped to [0, I]
    mask = np.diag((d < 0.0).astype(float))
    p_chol = spd_cholesky(b)
    eye = np.eye(n)
    mapped = _clip01(symmetrize(b_inv_sqrt @ np.stack([
        symmetrize(p_chol.T @ mask @ p_chol),
        symmetrize(b_sqrt @ mask @ b_sqrt),
        eye - lh,
    ]) @ b_inv_sqrt))
    starts = np.stack([mapped[0], mapped[1], np.zeros((n, n)), eye, 0.5 * eye, mapped[2]])

    v, f = _box_projected_gradient(d, lh, b_sqrt, starts)
    zh = symmetrize(lh + b_sqrt @ v[np.argmin(f)] @ b_sqrt)
    x_inv = _lapack("inv", x)
    return symmetrize(x_inv @ q @ zh @ q.T @ x_inv)


def _box_projected_gradient(d, lh, b_sqrt, starts):
    """Projected gradient on v in [0, I] for tr(D log(Lh + B^{1/2} v B^{1/2})).

    Each start of the exactly symmetric (k, n, n) stack ``starts`` keeps its
    own state and the arithmetic of a run on its own. An iteration takes a
    gradient from the eigendecomposition the objective has already made,
    then backtracks from t = min(4 t, 1e8) through t/4, t/16, ... while
    t > 1e-18 and accepts the first trial with f_new < f - 1e-15 (1 + |f|);
    a start with no such trial, or after _BOX_MAX_ITER iterations, stops
    for good. A start tries its trials in chunks of 2, 4, 8, ..., cut at its
    floor: most iterations accept at the first or second trial, while a
    last, failing search runs through all of its trials, about 28. A round
    takes one stacked gradient at the starts that are new or have just
    accepted, then evaluates the next chunk of every searching start in one
    stack. Returns each start's final point and objective value.
    """

    def objective(v):
        # tr(D log z) at each z = Lh + B^{1/2} v B^{1/2} (inf where z is not
        # PD), with the eigendecomposition of z, which the gradient reuses
        w, q = _lapack("eigh", symmetrize(lh + b_sqrt @ v @ b_sqrt))
        logs = (q * np.log(w)[..., None, :]) @ q.swapaxes(-1, -2)
        f = np.sum(d * np.diagonal(logs, axis1=-2, axis2=-1), axis=-1)
        f[w[..., 0] <= 0.0] = np.inf
        return f, w, q

    v = _clip01(starts)
    d_mat = np.diag(d)
    g = np.empty_like(v)
    k = len(v)
    # each start's schedule in Python numbers: its step (each t * 0.25**j is
    # exact), iterations and next chunk size, 0 while it does not search;
    # ``fresh``: the starts that take a gradient next
    t, its, size, fresh = [1.0] * k, [0] * k, [0] * k, list(range(k))
    # log of a spectrum that is not positive: that trial's f is inf
    with np.errstate(divide="ignore", invalid="ignore"):
        f, w, q = objective(v)
        f = f.tolist()
        while True:
            fresh = [i for i in fresh if its[i] < _BOX_MAX_ITER]
            if fresh:
                g[fresh] = symmetrize(b_sqrt @ sym_dlog(EigDecomp(w[fresh], q[fresh]), d_mat)
                                      @ b_sqrt)
            for i in fresh:
                t[i], its[i], size[i] = min(4.0 * t[i], 1e8), its[i] + 1, 2
            # each searching start's next chunk, cut at its floor, end to end;
            # a start that passes no trial moves past its chunk
            owner, steps = [], []
            for i in range(k):
                step, end = t[i], len(steps) + size[i]
                while step > 1e-18 and len(steps) < end:
                    owner.append(i)
                    steps.append(step)
                    step *= 0.25
                t[i], size[i] = step, 2 * size[i] if step > 1e-18 else 0
            if not owner:
                return v, np.array(f)
            # v - t g is exactly symmetric: v and g come out of symmetrize
            trial = _clip01(v[owner] - np.array(steps)[:, None, None] * g[owner])
            f_trial, w_trial, q_trial = objective(trial)
            fresh, first = [], []  # the starts that pass, at their first passing trial
            for j, (i, f_new) in enumerate(zip(owner, f_trial.tolist())):
                if i not in fresh and f_new < f[i] - 1e-15 * (1.0 + abs(f[i])):
                    fresh.append(i)
                    first.append(j)
                    f[i], t[i], size[i] = f_new, steps[j], 0
            if fresh:
                v[fresh], w[fresh], q[fresh] = trial[first], w_trial[first], q_trial[first]


_SAFEGUARD_SCHEDULE = tuple(1e-12 * 10.0 ** j for j in range(12))


def feasibility_safeguard(p_prev, q_star, lower, upper, geometry: SPDManifold):
    """Pull an infeasible subproblem solution back into the box.

    Returns q_star if its Loewner slacks are nonnegative. Otherwise walks
    the geodesic of ``geometry`` from q_star toward the (feasible) previous
    iterate with the steps t = 1e-12 * 10^j, j = 0..11, and returns the
    first point whose slacks are nonnegative, or else p_prev itself (the
    same object), which ``frechet_dcproblem``'s hook reads as no feasible
    step. On the instances of seeds 0-59 at n = 5, m = 20 it walks on every
    DCA step: of 131 answers, 61 pass at t = 1e-12, 1 at 1e-6, 1 at 1e-3,
    41 at 1e-2, 17 at 1e-1 (a step cut by 10%), 10 fall back.
    """
    if box_feasible(q_star, lower, upper):
        return q_star
    direction = geometry.log(p_prev, q_star)
    for t in _SAFEGUARD_SCHEDULE:
        cand = geometry.exp(p_prev, (1.0 - t) * direction)
        if box_feasible(cand, lower, upper):
            return cand
    return p_prev


def frechet_linear_oracle(prob: FrechetBoxProblem):
    """Linear oracle (p, G) -> argmin over the box of <G, log_p(q)>_p.

    <G, log_p(q)>_p = tr((p^{-1/2} G p^{-1/2}) log(p^{-1/2} q p^{-1/2})), so
    the box subproblem applies with s = p^{-1/2} G p^{-1/2}, x = p^{-1/2}.
    """
    geom = prob.geometry

    def oracle(p, grad_vec):
        _, si = geom.roots(p)  # SPD; prob checked the box when it was made
        return _box_oracle(geom.to_frame(p, grad_vec), symmetrize(si), prob.lower, prob.upper)

    return oracle


def frechet_dcproblem(prob: FrechetBoxProblem) -> DCProblem:
    """DC formulation: f = indicator(box) - variance.

    g is the indicator of the box, so the DC subproblem is the constrained
    linear problem min over the box of <-grad h(p_k), log_{p_k} p>; the box
    oracle solves it by a six-start projected gradient from spectral
    corners, and the safeguard walks the answer into the box toward p_k.
    Where the walk fails and the safeguard hands back p_k, the hook returns
    None, and DCA ends on "no feasible step" (ROADMAP item 4). The start
    must be feasible: DCA raises ``SolverError`` on its +inf cost.
    """
    oracle = frechet_linear_oracle(prob)
    last = [None]  # the bytes of the hook's last answer, which is feasible

    def g_cost(p):
        known = np.asarray(p, dtype=float).tobytes() == last[0]
        return 0.0 if known or box_feasible(p, prob.lower, prob.upper) else np.inf

    def hook(p, x):
        # p is feasible, by induction from the checked start; the answer is too, or is p
        out = feasibility_safeguard(p, oracle(p, -x), prob.lower, prob.upper, prob.geometry)
        if out is p:  # the safeguard's walk failed: no feasible step from p
            return None
        last[0] = np.asarray(out, dtype=float).tobytes()
        return out

    return DCProblem(
        geometry=prob.geometry,
        g_cost=g_cost,
        h_cost=lambda p: frechet_variance(prob, p),
        h_rgrad=lambda p: frechet_grad(prob, p),
        constrained_subsolver=hook,
    )


def random_frechet_instance(n: int, m: int, seed: int):
    """Seed-deterministic random instance plus its feasible starting point.

    Data q_j = B B^T + n 1e-3 I with standard normal B; weights uniform,
    normalized. The box is [weighted harmonic mean, weighted arithmetic
    mean] and the start is their average, always feasible. n and m must be
    positive integers and seed a nonnegative one (not bool); raises
    ValueError("degenerate box") when the data make the box collapse (m = 1).
    """
    if not (all(map(_is_integer, (n, m, seed))) and n >= 1 and m >= 1 and seed >= 0):
        raise ValueError("n and m must be positive integers, and seed a nonnegative one")
    rng = np.random.default_rng(seed)
    eye = np.eye(n)
    points = np.empty((m, n, n))
    for j in range(m):
        b = rng.standard_normal((n, n))
        points[j] = symmetrize(b @ b.T + n * 1e-3 * eye)
    weights = rng.uniform(0.0, 1.0, size=m)
    weights = weights / weights.sum()
    arith = symmetrize(np.einsum("j,jkl->kl", weights, points))
    harm = symmetrize(_lapack("inv", np.einsum("j,jkl->kl", weights,
                                               _lapack("inv", points))))
    p0 = symmetrize(0.5 * (harm + arith))
    prob = FrechetBoxProblem(points=points, weights=weights, lower=harm, upper=arith)
    return prob, p0

