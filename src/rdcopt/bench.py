"""Benchmark runners behind the CLI: three experiments plus duality checks.

Each runner writes per-iteration trace CSVs (UTF-8, header row, floats with
17 significant digits) and returns a summary dict, which the CLI writes as
``summary.json``. A run's entry is its ``SolverTrace.summary`` (``steps``,
``reason`` and the work totals) plus the runner's value fields. Wall-clock
timing wraps the solver call only; problem construction is excluded. Trace files contain no timing columns, so
identical seeds and configs reproduce them byte-for-byte; so does a
summary, once its ``seconds`` fields are dropped.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .duality import (Grid1D, fenchel_young_gap, primal_dual_sandwich_check, sampled_conjugate,
                      toland_dual_value)
from .manifolds import Euclidean
from .matfun import work_ledger
from .problems import (
    LogDetProblem,
    RosenbrockProblem,
    box_feasible,
    box_slack,
    frechet_dcproblem,
    frechet_grad,
    frechet_linear_oracle,
    frechet_variance,
    logdet_dcproblem,
    quartic_dcproblem,
    random_frechet_instance,
    rosenbrock_cost,
    rosenbrock_dcproblem,
    rosenbrock_kernel,
)
from .solvers import (
    SolverError,
    SolverTrace,
    StoppingCriterion,
    SubSolverSpec,
    _descend_2d,
    dca_solve,
    dcppa_solve,
    frank_wolfe_solve,
)

__all__ = [
    "ExperimentConfig",
    "LOGDET_SUB", "LOGDET_STOP", "logdet_start", "logdet_lambda", "run_dca_vs_dcppa",
    "ROSENBROCK_START", "ROSENBROCK_SUB", "ROSENBROCK_STOP", "rosenbrock_gd_stop",
    "run_rosenbrock", "FRECHET_STOP", "run_frechet",
    "DUALITY_START", "DUALITY_SUB", "DUALITY_STOP", "run_duality_checks",
]

@dataclass
class ExperimentConfig:
    """The instance of each experiment: its defaults and its valid range.

    Construction rejects an invalid instance with ``ValueError`` before it
    creates ``out_dir``: sizes and the seed must be integers.
    """

    out_dir: Path
    seed: int = 42
    # log-det comparison
    n_min: int = 2
    n_max: int = 20
    # rosenbrock
    a: float = RosenbrockProblem.a
    b: float = RosenbrockProblem.b
    long_run: bool = False
    # frechet
    n: int = 5
    m: int = 20

    def __post_init__(self):
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError("seed must be nonnegative, and an integer")
        if not (isinstance(self.n_min, numbers.Integral)
                and isinstance(self.n_max, numbers.Integral)
                and 2 <= self.n_min <= self.n_max <= 80):
            raise ValueError("n range must lie within [2, 80], in integers")
        if not (isinstance(self.n, numbers.Integral) and isinstance(self.m, numbers.Integral)
                and self.n >= 2 and self.m >= 2):
            raise ValueError("frechet experiment needs n >= 2 and m >= 2, integers")
        RosenbrockProblem(self.a, self.b)  # its rule for a and b
        self.out_dir = Path(self.out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row) + "\n")


def _timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


LOGDET_SUB = SubSolverSpec(
    kind="trust_region", criterion=StoppingCriterion(max_iter=5000, grad_norm_tol=1e-10))
LOGDET_STOP = StoppingCriterion(max_iter=100, grad_norm_tol=1e-10)


def logdet_start(n: int) -> np.ndarray:
    """The log-det experiment's start log(n) I_n."""
    return math.log(n) * np.eye(n)


def logdet_lambda(n: int) -> float:
    """DCPPA's constant proximal parameter 1/(2n) in the log-det experiment."""
    return 1.0 / (2.0 * n)


def run_dca_vs_dcppa(config: ExperimentConfig) -> dict:
    """DCA vs DCPPA on the log-det family for each matrix size n.

    Both start from ``logdet_start(n)``, stop on ``LOGDET_STOP`` and solve
    their subproblems with ``LOGDET_SUB``; DCPPA uses ``logdet_lambda(n)``.
    Each result row gives both runs' entries, keys prefixed ``dca_`` and
    ``dcppa_``, with ``final_f`` and ``eigendecompositions``: the run's
    ``eigh`` calls plus ``scalar`` answers in the ``matfun`` work ledger,
    each of them a miss of the SPD factor cache (DCPPA reuses DCA's cache);
    ``inner_steps`` counts trust-region steps.
    """
    target = -0.25
    results = []
    failures = []
    for n in range(config.n_min, config.n_max + 1):
        problem = logdet_dcproblem(LogDetProblem(n))
        p0 = logdet_start(n)
        row = {"n": n, "d": n * (n + 1) // 2}
        before = work_ledger()
        try:
            (p_dca, tr_dca), sec_dca = _timed(
                dca_solve, problem, p0, LOGDET_SUB, LOGDET_STOP, record_points=False)
            between = work_ledger()
            (p_ppa, tr_ppa), sec_ppa = _timed(
                dcppa_solve, problem, p0, logdet_lambda(n), LOGDET_SUB, LOGDET_STOP,
                record_points=False)
            after = work_ledger()
        except SolverError as exc:
            failures.append({"n": n, "error": str(exc)})
            continue
        for tag, trace, seconds, work in (("dca", tr_dca, sec_dca, between - before),
                                          ("dcppa", tr_ppa, sec_ppa, after - between)):
            _write_csv(config.out_dir / f"{tag}_n{n}.csv", ["i", "f", "fabs"],
                       ((i, f, abs(f - target)) for i, f in enumerate(trace.f)))
            fields = {**trace.summary(), "seconds": seconds, "final_f": trace.f[-1],
                      "eigendecompositions": work["eigh.calls"] + work["scalar"]}
            row.update({f"{tag}_{key}": value for key, value in fields.items()})
        results.append(row)
    return {"experiment": "dca-vs-dcppa", "results": results, "failures": failures}


ROSENBROCK_START = (0.1, 0.2)
ROSENBROCK_SUB = SubSolverSpec(
    kind="gradient_descent", criterion=StoppingCriterion(max_iter=1000, grad_norm_tol=1e-16))
ROSENBROCK_STOP = StoppingCriterion(max_iter=10_000_000, iterate_change_tol=1e-16)


def rosenbrock_gd_stop(long_run: bool) -> StoppingCriterion:
    """The Euclidean gradient-descent run's stop: ``ROSENBROCK_STOP``, capped
    at 200,000 steps unless ``long_run``."""
    return ROSENBROCK_STOP if long_run else replace(ROSENBROCK_STOP, max_iter=200_000)


def run_rosenbrock(config: ExperimentConfig) -> dict:
    """Four first-order methods on the Rosenbrock problem from ``ROSENBROCK_START``.

    All use Armijo line searches (``ROSENBROCK_SUB.armijo``) and stop on
    ``ROSENBROCK_STOP``, except the Euclidean gradient descent, which stops
    on ``rosenbrock_gd_stop(config.long_run)``; DC subproblems run
    ``ROSENBROCK_SUB``. All four descend in plain floats, the gradient
    descents on ``rosenbrock_kernel``'s cost and Euclidean gradient. The DC
    results also give ``inner_steps`` (gradient-descent steps over all
    sub-solves) and ``capped_subsolves`` (sub-solves at ``ROSENBROCK_SUB``'s cap).
    """
    spec = RosenbrockProblem(config.a, config.b)
    p0 = np.array(ROSENBROCK_START)

    def gradient_descent_2d(plane, stop):
        trace = SolverTrace()  # its cost column only: the CSV and summary read no other
        point, trace.reason, _ = _descend_2d(plane, *rosenbrock_kernel(spec), p0,
                                             ROSENBROCK_SUB.armijo, stop, trace.f)
        return point, trace

    runs = {}
    runs["euclidean_gd"] = _timed(gradient_descent_2d, False,
                                  rosenbrock_gd_stop(config.long_run))
    runs["euclidean_dca"] = _timed(dca_solve, rosenbrock_dcproblem(spec, "euclidean"), p0,
                                   ROSENBROCK_SUB, ROSENBROCK_STOP, record_points=False)
    runs["riemannian_gd"] = _timed(gradient_descent_2d, True, ROSENBROCK_STOP)
    runs["riemannian_dca"] = _timed(dca_solve, rosenbrock_dcproblem(spec, "rb"), p0,
                                    ROSENBROCK_SUB, ROSENBROCK_STOP, record_points=False)

    solution = (spec.b, spec.b * spec.b)
    results = {}
    for name, ((point, trace), seconds) in runs.items():
        _write_csv(config.out_dir / f"{name}.csv", ["i", "f"],
                   ((i, f) for i, f in enumerate(trace.f)))
        final_point = [float(point[0]), float(point[1])]
        results[name] = {
            **trace.summary(),
            "seconds": seconds,
            "final_point": final_point,
            "final_cost": trace.f[-1],
            # in plain floats: a BLAS norm's bits depend on the kernel
            "distance_to_solution": math.dist(final_point, solution),
        }
    return {"experiment": "rosenbrock", "initial_cost": rosenbrock_cost(spec, p0),
            "results": results}


FRECHET_STOP = StoppingCriterion(max_iter=1000, iterate_change_tol=1e-14, grad_change_tol=1e-9)


def run_frechet(config: ExperimentConfig) -> dict:
    """Box-constrained Frechet-variance maximization: DCA vs Frank-Wolfe.

    Both start from the box midpoint of a seeded random instance. DCA uses
    the box oracle (spectral corners refined by a six-start projected
    gradient) plus the feasibility safeguard and stops on
    ``FRECHET_STOP``; Frank-Wolfe then runs ``FRECHET_STOP`` capped at
    exactly as many steps, for a row-aligned comparison.
    """
    prob, p0 = random_frechet_instance(config.n, config.m, config.seed)
    dc = frechet_dcproblem(prob)
    (p_dca, tr_dca), sec_dca = _timed(dca_solve, dc, p0, None, FRECHET_STOP,
                                      record_points=True)

    def outcome(trace, seconds):
        summary = trace.summary()
        return {**summary, "seconds": seconds,
                "seconds_per_step": seconds / max(summary["steps"], 1), "final_h": -trace.f[-1]}

    dca = outcome(tr_dca, sec_dca)
    oracle = frechet_linear_oracle(prob)
    (p_fw, tr_fw), sec_fw = _timed(
        frank_wolfe_solve, dc.geometry,
        lambda p: -frechet_grad(prob, p), oracle, p0,
        replace(FRECHET_STOP, max_iter=max(dca["steps"], 1)),
        lambda p: -frechet_variance(prob, p),
        lambda p: box_feasible(p, prob.lower, prob.upper),
        True)

    def rows(trace):
        for i, (f, point) in enumerate(zip(trace.f, trace.points)):
            yield i, -f, box_slack(point, prob.lower, prob.upper)

    _write_csv(config.out_dir / "frechet_dca.csv", ["i", "h", "feas_slack"], rows(tr_dca))
    _write_csv(config.out_dir / "frechet_fw.csv", ["i", "h", "feas_slack"], rows(tr_fw))

    return {"experiment": "frechet", "n": config.n, "m": config.m, "seed": config.seed,
            "dca": dca,
            "frank_wolfe": {**outcome(tr_fw, sec_fw),
                            "first_step_sizes": tr_fw.step_size[:2]}}


DUALITY_START = 2.0
DUALITY_SUB = SubSolverSpec(
    kind="trust_region", criterion=StoppingCriterion(max_iter=500, grad_norm_tol=1e-11))
DUALITY_STOP = StoppingCriterion(max_iter=200, grad_norm_tol=1e-10)


def run_duality_checks(config: ExperimentConfig, tamper: bool = False) -> dict:
    """Numerical duality suite on the 1-D quartic family (:func:`quartic_dcproblem`).

    Verifies the analytic conjugate reductions, Fenchel-Young gaps, the
    primal-dual value equality, and the per-iteration DC sandwich along a
    DCA trace from ``DUALITY_START`` with ``DUALITY_SUB`` and ``DUALITY_STOP``.
    Each of the four costs (x^2/2, zero, g and h) is sampled once, and every
    check reads its :func:`sampled_conjugate`. ``tamper`` negates the
    sandwich check's conjugate of h as a negative control; the suite must
    then fail.
    """
    geom = Euclidean(1)
    grid = Grid1D(-10.0, 10.0, 20001)
    pts = grid.points()
    gap_floor = 10.0 * grid.spacing
    checks = []

    def check(name, passed, detail):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    half_square = lambda x: 0.5 * np.asarray(x, dtype=float)[..., 0] ** 2
    problem = quartic_dcproblem()
    # each cost is sampled on the grid once; every check reads these conjugates
    half_star = sampled_conjugate(half_square, pts)
    zero_star = sampled_conjugate(lambda x: np.zeros(len(x)), pts)
    gstar = sampled_conjugate(problem.g_cost, pts)
    hstar = sampled_conjugate(problem.h_cost, pts)

    # conjugate of x^2/2 at p = 0 is y^2/2; at p = 1, X = 1 it is -1/2
    ys = np.array([-3.0, -1.0, 0.5, 2.0])
    worst = float(np.max(np.abs(half_star(np.zeros(4), ys) - 0.5 * ys * ys)))
    check("conjugate of x^2/2 at p=0", worst <= gap_floor, f"max |err| = {worst:.3e}")

    val = float(half_star(np.ones(1), np.ones(1))[0])
    check("conjugate reduction at p=1, X=1", abs(val - (-0.5)) <= gap_floor,
          f"value = {val:.6f}, analytic -0.5")

    val = float(zero_star(np.zeros(1), np.zeros(1))[0])
    check("conjugate of 0 at X=0", val == 0.0, f"value = {val!r}")

    # Fenchel-Young gaps over the 36 sampled (p, X, q), in one call
    triples = np.meshgrid([-1.0, 0.0, 2.0], [-2.0, 1.0, 3.0], [-2.5, 0.0, 1.0, 4.0], indexing="ij")
    worst_gap = float(np.min(fenchel_young_gap(half_square, geom, half_star,
                                               *(a.ravel() for a in triples))))
    check("Fenchel-Young gaps", worst_gap >= -gap_floor,
          f"min gap = {worst_gap:.3e} >= {-gap_floor:.3e}")

    _, trace = dca_solve(problem, np.array([DUALITY_START]), DUALITY_SUB, DUALITY_STOP)

    sandwich_hstar = (lambda p, x: -hstar(p, x)) if tamper else hstar
    report = primal_dual_sandwich_check(trace, problem.g_cost, problem.h_cost,
                                        geom, sandwich_hstar, gstar, tolerance=1e-3)
    check("DCA primal-dual sandwich", report.passed,
          f"{len(report.rows)} iterations, final gap = {report.final_gap:.3e}")

    # primal and dual grid minima agree (both -1/4 for the quartic family)
    sq = pts * pts
    f_primal = np.min(sq * sq - sq)
    f_dual = toland_dual_value(hstar, gstar, np.linspace(-10.0, 10.0, 2001))
    check("primal-dual value equality", abs(f_primal - f_dual) <= 1e-3,
          f"primal {f_primal:.6f} vs dual {f_dual:.6f}")

    _write_csv(config.out_dir / "sandwich.csv",
               ["k", "primal", "dual", "primal_next", "lower_residual", "upper_residual"],
               ([r.k, r.primal, r.dual, r.primal_next, r.lower_residual, r.upper_residual]
                for r in report.rows))
    return {"experiment": "duality", "passed": all(c["passed"] for c in checks),
            "checks": checks}
