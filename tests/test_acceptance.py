"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Criterion 3 runs the full-scale Rosenbrock comparison (a = 2e5), including a
multi-million-iteration gradient-descent baseline; expect a few minutes. It
also checks the sha256 of the comparison's four trace CSVs, and the record of
its summary, against ``tests/golden.json``.
"""

import math
import time

import numpy as np

from rdcopt.bench import (
    LOGDET_STOP,
    LOGDET_SUB,
    ExperimentConfig,
    logdet_lambda,
    logdet_start,
    run_duality_checks,
    run_frechet,
    run_rosenbrock,
)
from rdcopt.manifolds import Euclidean, RosenbrockPlane, SPDManifold
from rdcopt.matfun import spd_logdet, symmetrize
from rdcopt.problems import (
    LogDetProblem,
    RosenbrockProblem,
    box_linear_subproblem,
    box_slack,
    frechet_grad,
    frechet_variance,
    logdet_dcproblem,
    random_frechet_instance,
    rosenbrock_dcproblem,
)
from rdcopt.solvers import StoppingCriterion, dca_solve, dcppa_solve, strongly_convexify

import golden
from conftest import fd_slope, random_spd, random_sym, sample_directions
from test_problems import box_objective, brute_force_box_optimum, rosenbrock_subproblem
from trdet import TrDetProblem, trdet_dcproblem


def logdet_branch_target(p0: np.ndarray) -> float:
    """det of the nontrivial critical point on the branch that p0 selects.

    f = (log det)^4 - (log det)^2 vanishes at log det = 0, so a descent run
    started with f(p0) < 0 cannot cross log det = 0. For any start, the DCA
    step in s = log det is s -> cbrt(s / 2), which keeps the sign of s; the
    run ends at log det = sign(log det p0) / sqrt(2).
    """
    return math.exp(math.copysign(1.0 / math.sqrt(2.0), spd_logdet(p0)))


def report(criterion: str, passed: bool, detail: str):
    line = f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line, flush=True)
    assert passed, line


def test_criterion_1_logdet_targets():
    failures = []
    elapsed = 0.0
    for n in (2, 3, 5, 8):
        problem = logdet_dcproblem(LogDetProblem(n))
        p0 = logdet_start(n)
        t0 = time.perf_counter()
        p_dca, tr_dca = dca_solve(problem, p0, LOGDET_SUB, LOGDET_STOP, record_points=False)
        p_ppa, tr_ppa = dcppa_solve(problem, p0, logdet_lambda(n), LOGDET_SUB, LOGDET_STOP,
                                    record_points=False)
        elapsed += time.perf_counter() - t0
        target = logdet_branch_target(p0)
        branch = "+" if target > 1.0 else "-"
        for tag, point, trace in (("dca", p_dca, tr_dca), ("dcppa", p_ppa, tr_ppa)):
            rise = float(np.max(np.diff(trace.f), initial=0.0))
            if rise > 1e-10:
                failures.append(f"{tag} n={n}: f rose by {rise:.2e} in one step")
            if abs(trace.f[-1] + 0.25) > 1e-8:
                failures.append(f"{tag} n={n}: |f+1/4| = {abs(trace.f[-1] + 0.25):.2e}")
            det = math.exp(spd_logdet(point))
            if abs(det - target) > 1e-6:
                failures.append(
                    f"{tag} n={n}: |det - e^({branch}1/sqrt 2)| = {abs(det - target):.2e}")
    if elapsed > 30.0:
        failures.append(f"runtime {elapsed:.1f}s > 30s")
    report("criterion 1 (log-det targets, n in {2,3,5,8})", not failures,
           "; ".join(failures) if failures else f"all targets met in {elapsed:.1f}s")


def test_criterion_2_iteration_bands():
    failures = []
    counts = []
    for n in (6, 7, 8):
        problem = logdet_dcproblem(LogDetProblem(n))
        p0 = logdet_start(n)
        _, tr_dca = dca_solve(problem, p0, LOGDET_SUB, LOGDET_STOP, record_points=False)
        _, tr_ppa = dcppa_solve(problem, p0, logdet_lambda(n), LOGDET_SUB, LOGDET_STOP,
                                record_points=False)
        dca_steps = tr_dca.summary()["steps"]
        ppa_steps = tr_ppa.summary()["steps"]
        counts.append((n, dca_steps, ppa_steps))
        if not 10 <= dca_steps <= 40:
            failures.append(f"DCA n={n}: {dca_steps} outside [10, 40]")
        if not 20 <= ppa_steps <= 60:
            failures.append(f"DCPPA n={n}: {ppa_steps} outside [20, 60]")
    report("criterion 2 (iteration bands, n in {6,7,8})", not failures,
           "; ".join(failures) if failures else f"counts {counts}")


def test_criterion_3_rosenbrock(tmp_path):
    config = ExperimentConfig(out_dir=tmp_path / "rosenbrock")
    summary = run_rosenbrock(config)
    failures = []
    # the trace CSVs and the summary's record, bit for bit, on the host's own
    # BLAS kernel (see golden.py)
    actual = {**golden.hashes(tmp_path, ["rosenbrock"]),
              f"rosenbrock/{golden.SUMMARY}": golden.record(summary)}
    moved = golden.mismatches(golden.load_manifest(), actual)
    if moved:
        failures.append(f"outputs differ from tests/golden.json: {moved}")
    if abs(summary["initial_cost"] - 7220.81) > 0.01:
        failures.append(f"initial cost {summary['initial_cost']}")
    results = summary["results"]
    rdca = results["riemannian_dca"]
    edca = results["euclidean_dca"]
    rgd = results["riemannian_gd"]
    if rdca["distance_to_solution"] > 1e-6:
        failures.append(f"Riemannian DCA off minimizer by {rdca['distance_to_solution']:.2e}")
    if rdca["steps"] > 10_000:
        failures.append(f"Riemannian DCA took {rdca['steps']} steps > 10000")
    if edca["steps"] > 150_000:
        failures.append(f"Euclidean DCA took {edca['steps']} steps > 150000")
    if not (rdca["steps"] < edca["steps"] < rgd["steps"]):
        failures.append(
            "ordering violated: "
            f"{rdca['steps']} / {edca['steps']} / {rgd['steps']}")
    detail = (f"steps rdca={rdca['steps']}, edca={edca['steps']}, "
              f"rgd={rgd['steps']}; |p-(1,1)| = {rdca['distance_to_solution']:.2e}")
    report("criterion 3 (Rosenbrock, a=2e5)", not failures,
           "; ".join(failures) if failures else detail)


def test_criterion_4_frechet(tmp_path):
    t0 = time.perf_counter()
    config = ExperimentConfig(out_dir=tmp_path, seed=0)
    summary = run_frechet(config)
    elapsed = time.perf_counter() - t0
    failures = []
    rows = (tmp_path / "frechet_dca.csv").read_text().strip().splitlines()[1:]
    h = np.array([float(r.split(",")[1]) for r in rows])
    slack = np.array([float(r.split(",")[2]) for r in rows])
    if not np.all(np.diff(h) >= -1e-12):
        failures.append(f"h not nondecreasing: min step {np.diff(h).min():.2e}")
    if not np.all(slack >= -1e-10):
        failures.append(f"feasibility slack {slack.min():.2e} < -1e-10")
    if summary["dca"]["reason"] != "gradient change":
        failures.append(f"DCA stopped on {summary['dca']['reason']!r}")
    if summary["frank_wolfe"]["final_h"] > summary["dca"]["final_h"] + 1e-6:
        failures.append("Frank-Wolfe exceeded DCA's final variance")
    if elapsed > 60.0:
        failures.append(f"runtime {elapsed:.1f}s > 60s")
    detail = (f"{summary['dca']['steps']} DCA steps, reason "
              f"{summary['dca']['reason']!r}, min slack {slack.min():.1e}, {elapsed:.1f}s")
    report("criterion 4 (Frechet maximization, n=5 m=20)", not failures,
           "; ".join(failures) if failures else detail)


def test_criterion_5_descent_and_rate():
    sigma = 1.0
    problem = strongly_convexify(logdet_dcproblem(LogDetProblem(3)), sigma, np.eye(3))
    _, trace = dca_solve(problem, logdet_start(3), LOGDET_SUB,
                         StoppingCriterion(max_iter=60, grad_norm_tol=1e-10))
    fs = np.asarray(trace.f)
    steps = np.asarray(trace.step)
    failures = []
    for k in range(1, len(fs)):
        if fs[k] > fs[k - 1] - 0.5 * sigma * steps[k] ** 2 + 1e-8:
            failures.append(f"step {k}: descent inequality violated")
    sums = np.cumsum(steps[1:] ** 2)
    for n_prefix in range(len(sums)):
        bound = (2.0 / sigma) * (fs[0] - fs[n_prefix + 1]) + 1e-8
        if sums[n_prefix] > bound:
            failures.append(f"prefix {n_prefix}: telescoped rate violated")
    report("criterion 5 (strong descent and telescoped rate)", not failures,
           "; ".join(failures[:4]) if failures else
           f"{len(fs) - 1} steps satisfy both inequalities")


def _gradient_suite_cases():
    rng = np.random.default_rng(20240)
    logdet = logdet_dcproblem(LogDetProblem(3))
    trdet = trdet_dcproblem(TrDetProblem(3))
    spd3 = SPDManifold(3)
    rb_spec = RosenbrockProblem(a=10.0, b=1.0)
    ros_e = rosenbrock_dcproblem(rb_spec, "euclidean")
    ros_m = rosenbrock_dcproblem(rb_spec, "rb")
    prob, _ = random_frechet_instance(3, 6, seed=9)

    sub_q = random_spd(rng, 3, 1.2)
    psi_cost, psi_grad = logdet_dcproblem(LogDetProblem(3)).subproblem(sub_q, None)
    phi_cost, phi_egrad = rosenbrock_subproblem(rb_spec, np.array([0.4, -0.2]))
    euclid2 = Euclidean(2)

    def spd_sampler(r):
        return random_spd(r, 3)

    def plane_sampler(r):
        return r.standard_normal(2)

    return [
        ("logdet g", spd3, logdet.g_cost, logdet.g_rgrad, spd_sampler),
        ("logdet h", spd3, logdet.h_cost, logdet.h_rgrad, spd_sampler),
        ("trdet g", spd3, trdet.g_cost, trdet.g_rgrad, spd_sampler),
        ("trdet h", spd3, trdet.h_cost, trdet.h_rgrad, spd_sampler),
        ("logdet surrogate", spd3, psi_cost, psi_grad, spd_sampler),
        ("rosenbrock g (flat)", euclid2, ros_e.g_cost, ros_e.g_rgrad, plane_sampler),
        ("rosenbrock h (flat)", euclid2, ros_e.h_cost, ros_e.h_rgrad, plane_sampler),
        ("rosenbrock g (plane)", ros_m.geometry, ros_m.g_cost, ros_m.g_rgrad, plane_sampler),
        ("rosenbrock h (plane)", ros_m.geometry, ros_m.h_cost, ros_m.h_rgrad, plane_sampler),
        ("rosenbrock surrogate", euclid2, phi_cost, phi_egrad, plane_sampler),
        ("frechet variance", SPDManifold(3),
         lambda p: frechet_variance(prob, p), lambda p: frechet_grad(prob, p), spd_sampler),
    ]


def test_criterion_6_manifold_calculus_suite():
    rng = np.random.default_rng(77)
    failures = []

    geometries = [Euclidean(3), SPDManifold(3), RosenbrockPlane()]
    for geom in geometries:
        name = type(geom).__name__
        for _ in range(100):
            if isinstance(geom, SPDManifold):
                p, q = random_spd(rng, 3), random_spd(rng, 3)
                x = random_sym(rng, 3)
            else:
                p, q = rng.standard_normal(geom.dim), rng.standard_normal(geom.dim)
                x = rng.standard_normal(geom.dim)
            nx = geom.norm(p, x)
            if nx > 5.0:
                x = x * (5.0 / nx)
            if geom.norm(p, geom.log(p, geom.exp(p, x)) - x) > 1e-9:
                failures.append(f"{name}: exp/log round trip")
                break
            if abs(geom.dist(p, q) - geom.norm(p, geom.log(p, q))) > 1e-10:
                failures.append(f"{name}: dist vs norm(log)")
                break
            tx = geom.transport(p, q, x)
            if abs(geom.inner(q, tx, tx) - geom.inner(p, x, x)) > 1e-9 * (
                    1.0 + geom.inner(p, x, x)):
                failures.append(f"{name}: transport isometry")
                break

    spd = SPDManifold(3)
    for _ in range(100):
        p, q = random_spd(rng, 3), random_spd(rng, 3)
        a = rng.standard_normal((3, 3)) + 0.3 * np.eye(3)
        if abs(np.linalg.det(a)) < 1e-3:
            continue
        d1 = spd.dist(p, q)
        d2 = spd.dist(symmetrize(a @ p @ a.T), symmetrize(a @ q @ a.T))
        if abs(d1 - d2) > 1e-8 * (1.0 + d1):
            failures.append("SPD affine invariance")
            break

    for name, geom, cost, grad, sampler in _gradient_suite_cases():
        worst = 0.0
        for _ in range(100):
            p = sampler(rng)
            v = sample_directions(geom, rng, p, 1)[0]
            v = v / max(geom.norm(p, v), 1e-12)
            g = grad(p)
            if isinstance(geom, Euclidean) and np.asarray(g).shape == (2,):
                analytic = float(np.dot(np.ravel(g), np.ravel(v)))
            else:
                analytic = geom.inner(p, g, v)
            numeric = fd_slope(geom, cost, p, v)
            worst = max(worst, abs(analytic - numeric) / max(1.0, abs(analytic)))
        if worst > 1e-5:
            failures.append(f"gradient check {name}: rel err {worst:.2e}")

    report("criterion 6 (manifold calculus suite)", not failures,
           "; ".join(failures) if failures else
           "round trips, distances, transports and 11 gradient evaluators pass "
           "at 100 random samples each")


def test_criterion_7_box_solver():
    rng = np.random.default_rng(5150)
    failures = []
    z = box_linear_subproblem(np.diag([-1.0, 1.0]), np.eye(2),
                              0.5 * np.eye(2), 2.0 * np.eye(2))
    if not np.allclose(z, np.diag([2.0, 0.5]), atol=1e-9):
        failures.append(f"worked diagonal instance returned {z.tolist()}")
    worst_gap = -np.inf
    worst_slack = np.inf
    for _ in range(100):
        s = random_sym(rng, 2)
        x = random_spd(rng, 2)
        lower = random_spd(rng, 2, 0.5)
        upper = symmetrize(lower + random_spd(rng, 2))
        z = box_linear_subproblem(s, x, lower, upper)
        slack = box_slack(z, lower, upper)
        worst_slack = min(worst_slack, slack)
        gap = box_objective(s, x, z) - brute_force_box_optimum(s, x, lower, upper)
        worst_gap = max(worst_gap, gap)
        if slack < -1e-10:
            failures.append(f"infeasible output, slack {slack:.2e}")
            break
        if gap > 1e-6:
            failures.append(f"suboptimal output, gap {gap:.2e}")
            break
    report("criterion 7 (closed-form box solver)", not failures,
           "; ".join(failures) if failures else
           f"100 instances: worst gap {worst_gap:.1e}, worst slack {worst_slack:.1e}")


def test_criterion_8_duality(tmp_path):
    summary = run_duality_checks(ExperimentConfig(out_dir=tmp_path))
    failures = [c["name"] + ": " + c["detail"] for c in summary["checks"] if not c["passed"]]
    report("criterion 8 (duality suite)", not failures,
           "; ".join(failures) if failures else
           "; ".join(c["name"] for c in summary["checks"]))
