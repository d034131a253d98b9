"""Difference-of-convex optimization on Hadamard manifolds.

Solvers (DCA, DCPPA, Riemannian Frank-Wolfe, gradient descent, trust
region), the Euclidean / SPD-cone / adapted-plane geometries they run on,
the benchmark problem families, and grid-based Fenchel duality checks.
"""

from .manifolds import Euclidean, Geometry, RosenbrockPlane, SPDManifold
from .solvers import (
    ArmijoParams,
    DCProblem,
    LineSearchError,
    SolverError,
    SolverTrace,
    StoppingCriterion,
    SubSolverSpec,
    armijo_linesearch,
    dca_solve,
    dcppa_solve,
    fd_hessian_apply,
    frank_wolfe_solve,
    gradient_descent,
    is_critical,
    strongly_convexify,
    trust_region_solve,
)

__version__ = "0.1.0"

__all__ = [
    "Euclidean",
    "Geometry",
    "RosenbrockPlane",
    "SPDManifold",
    "ArmijoParams",
    "DCProblem",
    "LineSearchError",
    "SolverError",
    "SolverTrace",
    "StoppingCriterion",
    "SubSolverSpec",
    "armijo_linesearch",
    "dca_solve",
    "dcppa_solve",
    "fd_hessian_apply",
    "frank_wolfe_solve",
    "gradient_descent",
    "is_critical",
    "strongly_convexify",
    "trust_region_solve",
    "__version__",
]
