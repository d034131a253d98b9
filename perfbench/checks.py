"""Correctness checks for the benchmark's operations.

Each check takes a result of the program and returns a list of failures,
``(tag, message)`` pairs; an empty list means the result passed. The checks
compare against values computed here, with plain floats or ``numpy.linalg``,
or against properties the method must have. None of them compares against a
stored copy of the program's output.
"""

from __future__ import annotations

import math
import re

import numpy as np


def _fail(tag: str, message: str) -> list:
    return [(tag, message)]


def nonincreasing(f_trace, tol: float = 0.0, tag: str = "f trace") -> list:
    """The trace never rises by more than ``tol`` from one row to the next."""
    f = np.asarray(f_trace, dtype=float)
    if f.size < 2:
        return []
    rise = float(np.max(np.diff(f)))
    if rise > tol:
        return _fail(tag, f"rises by {rise:.3e} in a step (allowed {tol:.0e})")
    return []


# -- log-det ---------------------------------------------------------------------


def logdet_solution(p, p0, trace) -> list:
    """Final point of a log-det DCA/DCPPA run from p0.

    log det p, recomputed with ``numpy.linalg.slogdet``, must make
    s^4 - s^2 = -1/4 and lie on the branch the start selects:
    det p = exp(copysign(1/sqrt 2, log det p0)).
    """
    failures = []
    sign, s = np.linalg.slogdet(np.asarray(p, dtype=float))
    _, s0 = np.linalg.slogdet(np.asarray(p0, dtype=float))
    if sign <= 0:
        return _fail("spd", f"final point has det sign {sign}")
    residual = abs(s ** 4 - s ** 2 + 0.25)
    if residual > 1e-8:
        failures += _fail("critical value", f"|s^4 - s^2 + 1/4| = {residual:.3e} at s = {s:.12f}")
    target = math.exp(math.copysign(1.0 / math.sqrt(2.0), s0))
    if abs(math.exp(s) - target) > 1e-6:
        failures += _fail("branch", f"det = {math.exp(s):.12f}, expected {target:.12f}")
    failures += nonincreasing(trace.f, 1e-10)
    if trace.reason != "gradient norm":
        failures += _fail("stop", f"stopped on {trace.reason!r}, expected 'gradient norm'")
    return failures


# -- Rosenbrock ------------------------------------------------------------------


def rosenbrock_f(a: float, b: float, x) -> float:
    x1, x2 = float(x[0]), float(x[1])
    return a * (x1 * x1 - x2) ** 2 + (x1 - b) ** 2


def rosenbrock_solution(a: float, b: float, p, f_trace) -> list:
    """A run to its own stop ends within 1e-6 of (b, b^2), descending all the way."""
    failures = nonincreasing(f_trace)
    dist = math.hypot(float(p[0]) - b, float(p[1]) - b * b)
    if dist > 1e-6:
        failures += _fail("minimizer", f"ends {dist:.3e} from ({b}, {b * b})")
    return failures


def rosenbrock_capped(a: float, b: float, p0, p, trace, cap: int) -> list:
    """A capped run ends at its cap, descending, below f(p0), with f recomputed here."""
    failures = nonincreasing(trace.f)
    if trace.reason != "max iterations" or len(trace.f) != cap + 1:
        failures += _fail("cap", f"stopped on {trace.reason!r} after {len(trace.f) - 1} "
                                 f"steps, expected the cap {cap}")
    f_end, f_start = rosenbrock_f(a, b, p), rosenbrock_f(a, b, p0)
    if not f_end < f_start:
        failures += _fail("descent", f"f = {f_end!r} is not below f(p0) = {f_start!r}")
    if abs(f_end - trace.f[-1]) > 1e-12 * max(1.0, abs(f_end)):
        failures += _fail("f value", f"trace ends at f = {trace.f[-1]!r}, recomputed {f_end!r}")
    return failures


def armijo_descent_2d(plane: bool, a: float, b: float, q, start, max_iter: int,
                      grad_tol: float = 1e-16, initial_step: float = 1.0,
                      contraction: float = 0.5, sufficient_decrease: float = 1e-4,
                      max_backtracks: int = 60) -> tuple:
    """Plain-float Riemannian Armijo descent on one Rosenbrock DC surrogate.

    Minimizes a(x1^2 - x2)^2 + 2(x1 - b)^2 - 2(q1 - b) x1 from ``start``. On
    the plane (``plane=True``) the step is exp_x(-t r) with r = G_x^{-1} e the
    Riemannian gradient of the Euclidean gradient e, the squared norm is
    <r, r>_G = e . r and exp_x(v) = (x1 + v1, x2 + v2 + v1^2); on flat space
    r = e and exp is addition. Each search starts from min(t0, 4 t_prev).
    Returns the point after at most ``max_iter`` accepted steps.
    """
    cq = 2.0 * (float(q[0]) - b)
    x1, x2 = float(start[0]), float(start[1])

    def phi(y1, y2):
        v = y1 * y1 - y2
        w = y1 - b
        return a * v * v + 2.0 * w * w - cq * y1

    f = phi(x1, x2)
    t_guess = initial_step
    for it in range(max_iter + 1):
        v = a * (x1 * x1 - x2)
        e1, e2 = 4.0 * v * x1 + 4.0 * (x1 - b) - cq, -2.0 * v
        if plane:
            r1, r2 = e1 + 2.0 * x1 * e2, 2.0 * x1 * e1 + (1.0 + 4.0 * x1 * x1) * e2
        else:
            r1, r2 = e1, e2
        n2 = e1 * r1 + e2 * r2
        if n2 <= grad_tol * grad_tol or it == max_iter:
            break
        t = t_guess
        for _ in range(max_backtracks + 1):
            c1 = x1 - t * r1
            c2 = x2 - t * r2 + (t * t * r1 * r1 if plane else 0.0)
            fc = phi(c1, c2)
            if fc <= f - sufficient_decrease * t * n2:
                break
            t *= contraction
        else:
            break
        x1, x2, f = c1, c2, fc
        t_guess = min(initial_step, 4.0 * t)
    return x1, x2


def parity(p, reference, tol: float = 1e-10) -> list:
    """The program's sub-solve ends where the reference descent ends."""
    off = math.hypot(float(p[0]) - reference[0], float(p[1]) - reference[1])
    if off > tol:
        return _fail("parity", f"ends at ({float(p[0]):.4f}, {float(p[1]):.4f}), reference "
                               f"({reference[0]:.4f}, {reference[1]:.4f}): {off:.3g} off")
    return []


# -- Frechet variance over a Loewner box ---------------------------------------------


def loewner_slacks(p, lower, upper) -> float:
    """Smallest eigenvalue of p - lower and of upper - p."""
    p = np.asarray(p, dtype=float)
    lo = np.linalg.eigvalsh(0.5 * ((p - lower) + (p - lower).T))[0]
    hi = np.linalg.eigvalsh(0.5 * ((upper - p) + (upper - p).T))[0]
    return float(min(lo, hi))


def frechet_variance(points, weights, p) -> float:
    """sum_j w_j sum_i log^2 lambda_i(q_j, p), lambda the generalized eigenvalues.

    With p = L L^T, the generalized eigenvalues of (q_j, p) are those of
    L^-1 q_j L^-T.
    """
    chol = np.linalg.cholesky(np.asarray(p, dtype=float))
    total = 0.0
    for w, q in zip(weights, points):
        m = np.linalg.solve(chol, np.linalg.solve(chol, q).T)
        lam = np.linalg.eigvalsh(0.5 * (m + m.T))
        total += w * float(np.sum(np.log(lam) ** 2))
    return total


def frechet_run(points, weights, lower, upper, trace, ascending: bool) -> list:
    """Iterates of a DCA or Frank-Wolfe run (f = -variance, points recorded).

    Both Loewner slacks are >= -1e-10 at every iterate, the recorded
    variances match the independent ones, and a DCA run never lowers the
    variance.
    """
    failures = []
    recorded = -np.asarray(trace.f, dtype=float)
    for k, p in enumerate(trace.points):
        slack = loewner_slacks(p, lower, upper)
        if slack < -1e-10:
            failures += _fail("feasibility", f"iterate {k} has Loewner slack {slack:.3e}")
            break
    for k, p in enumerate(trace.points):
        h = frechet_variance(points, weights, p)
        if abs(h - recorded[k]) > 1e-9 * max(1.0, abs(h)):
            failures += _fail("variance", f"iterate {k}: recorded {recorded[k]!r}, "
                                          f"recomputed {h!r}")
            break
    if ascending:
        failures += nonincreasing(-recorded, 1e-12 * max(1.0, float(np.max(np.abs(recorded)))),
                                  tag="variance ascent")
    return failures


def fixed_point(p, oracle_point, tol: float = 1e-8) -> list:
    """A "fixed point" stop is true only when the box oracle returns the iterate."""
    off = float(np.linalg.norm(np.asarray(oracle_point) - np.asarray(p)))
    if off > tol:
        return _fail("fixed point", f"stopped on 'fixed point', but the box oracle "
                                    f"moves the iterate by {off:.3g}")
    return []


# -- duality ---------------------------------------------------------------------------

_VALUES = re.compile(r"primal (\S+) vs dual (\S+)")


def duality_suite(summary) -> list:
    """Every check passes, and the primal and dual grid minima are -1/4 to 1e-3."""
    failures = [("suite", f"{c['name']}: {c['detail']}") for c in summary["checks"]
                if not c["passed"]]
    if not summary["passed"] and not failures:
        failures += _fail("suite", "suite reports failure with every check passed")
    for c in summary["checks"]:
        match = _VALUES.search(c["detail"])
        if c["name"] == "primal-dual value equality" and match:
            for what, value in zip(("primal", "dual"), match.groups()):
                if abs(float(value) + 0.25) > 1e-3:
                    failures += _fail("minimum", f"{what} grid minimum {value}, expected -0.25")
            break
    else:
        failures += _fail("minimum", "no primal-dual value equality check in the report")
    return failures


def tampered_suite(summary) -> list:
    """The control with a negated conjugate of h must fail its sandwich check."""
    sandwich = [c for c in summary["checks"] if c["name"] == "DCA primal-dual sandwich"]
    if summary["passed"] or not sandwich or sandwich[0]["passed"]:
        return _fail("control", "the tampered suite did not fail its sandwich check")
    return []


def conjugate_half_square(value: float, y: float, spacing: float) -> list:
    """Sampled conjugate of x^2/2 at p = 0 is y^2/2, to within the grid spacing squared."""
    err = abs(value - 0.5 * y * y)
    if err > spacing * spacing:
        return _fail("conjugate", f"conjugate at y = {y}: {value!r}, analytic {0.5 * y * y!r}")
    return []
