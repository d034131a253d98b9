"""The trace/det family, a test instance no experiment runs: criterion 6 checks
its gradients, and from 2I ``TrDetProblem(3)`` (f = (tr p)^2 - 6 det p) is the
solver tests' unbounded-below instance, on which trust-region sub-solves fail."""

from dataclasses import dataclass, field

import numpy as np

from rdcopt.manifolds import SPDManifold
from rdcopt.matfun import symmetrize
from rdcopt.problems import ScalarFunction, _det, _det_convexity_defect, _det_grad, _SAMPLE_T
from rdcopt.solvers import DCProblem


def power(a: float, b: float) -> ScalarFunction:
    """phi(t) = a t^b on t > 0."""
    return ScalarFunction(
        lambda t: a * t ** b,
        lambda t: a * b * t ** (b - 1),
        lambda t: a * b * (b - 1) * t ** (b - 2),
    )


@dataclass(frozen=True)
class TrDetProblem:
    """min phi1(tr p) - phi2(det p) over SPD matrices of size n.

    Defaults to phi1 = t^2, phi2 = 2n t, for which the identity is a
    critical point (phi1'(tr I) I = phi2'(det I) det I I).
    """

    n: int
    phi1: ScalarFunction = field(default_factory=lambda: power(1.0, 2.0))
    phi2: ScalarFunction | None = None  # None: 2n t, which depends on n

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be positive")
        if self.phi2 is None:
            object.__setattr__(self, "phi2", power(2.0 * self.n, 1.0))
        if any(self.phi1.d1(t) < -1e-12 or self.phi1.d2(t) < -1e-12 for t in _SAMPLE_T):
            raise ValueError("phi1 must be nondecreasing and convex")
        if _det_convexity_defect(self.phi2) < -1e-9:
            raise ValueError("phi2 violates the det-convexity condition")


def trdet_dcproblem(spec: TrDetProblem) -> DCProblem:
    """DCProblem for the trace/det family.

    grad g(p) = phi1'(tr p) p^2, grad h(p) = (phi2'(det p) det p) p; the DC
    surrogate mirrors the log-det one with phi1(tr p) as the convex part.
    """
    geom = SPDManifold(spec.n)
    phi1, phi2 = spec.phi1, spec.phi2

    def g_rgrad(p):
        return phi1.d1(float(np.trace(p))) * symmetrize(p @ p)

    def subproblem(q, x):
        tq = _det(geom, q)
        c = phi2.d1(tq) * tq
        log_det_q = geom.logdet(q)

        def cost(p):
            return phi1.value(float(np.trace(p))) - c * (geom.logdet(p) - log_det_q)

        def rgrad(p):
            return g_rgrad(p) - c * p

        return cost, rgrad

    return DCProblem(
        geometry=geom,
        g_cost=lambda p: phi1.value(float(np.trace(p))),
        h_cost=lambda p: phi2.value(_det(geom, p)),
        g_rgrad=g_rgrad,
        h_rgrad=lambda p: _det_grad(geom, phi2, p),
        subproblem=subproblem,
    )
