import collections
import dataclasses
import math
from array import array

import numpy as np
import pytest

from rdcopt import bench, manifolds, problems, solvers
from rdcopt.bench import (
    DUALITY_STOP,
    DUALITY_SUB,
    LOGDET_STOP,
    LOGDET_SUB,
    ROSENBROCK_START,
    ROSENBROCK_STOP,
)
from rdcopt.manifolds import Euclidean, RosenbrockPlane, SPDManifold
from rdcopt.matfun import work_ledger
from rdcopt.problems import (
    LogDetProblem,
    RosenbrockProblem,
    logdet_dcproblem,
    quartic_dcproblem,
    rosenbrock_cost,
    rosenbrock_dcproblem,
    rosenbrock_grad,
    rosenbrock_kernel,
)
from rdcopt.solvers import (
    ArmijoParams,
    DCProblem,
    LineSearchError,
    SolverError,
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

from conftest import (check_hessian, off_ray_logdet_start, random_spd, random_sym,
                      tangent_map)
from test_problems import rosenbrock_subproblem
from trdet import TrDetProblem, trdet_dcproblem


EUCLID1 = Euclidean(1)


def logdet_start(rng, n, logdet):
    """A random SPD(n) matrix scaled to the given log det."""
    p = random_spd(rng, n)
    return p * math.exp((logdet - np.linalg.slogdet(p)[1]) / n)


def no_finite_differences(*args, **kwargs):
    raise AssertionError("finite-difference Hessian product on the exact path")


class TestArmijo:
    def test_quadratic_full_step(self):
        f = lambda x: 0.5 * float(x[0]) ** 2
        t, point, value = armijo_linesearch(
            EUCLID1, f, np.array([1.0]), np.array([-1.0]), ArmijoParams(), slope=-1.0,
            f_at_p=0.5, initial_step=1.0)
        assert t == 1.0
        assert value == 0.0

    def test_linear_function_accepts_initial_step(self):
        f = lambda x: -float(x[0])
        t, _, _ = armijo_linesearch(
            EUCLID1, f, np.zeros(1), np.ones(1), ArmijoParams(), slope=-1.0, f_at_p=0.0,
            initial_step=0.7)
        assert t == 0.7

    def test_ascent_direction_rejected(self):
        f = lambda x: 0.5 * float(x[0]) ** 2
        with pytest.raises(LineSearchError):
            armijo_linesearch(EUCLID1, f, np.array([1.0]), np.array([1.0]),
                              ArmijoParams(), slope=1.0, f_at_p=0.5, initial_step=1.0)

    def test_budget_exhaustion(self):
        f = lambda x: abs(float(x[0]))  # no sufficient decrease from the kink
        with pytest.raises(LineSearchError):
            armijo_linesearch(EUCLID1, f, np.zeros(1), np.ones(1),
                              ArmijoParams(max_backtracks=5), slope=-1.0, f_at_p=0.0,
                              initial_step=1.0)

    @pytest.mark.parametrize("bad", [{"initial_step": 0.0}, {"contraction": 1.0},
                                     {"sufficient_decrease": 1.0}, {"max_backtracks": 0},
                                     {"max_backtracks": 1.5}, {"max_backtracks": 2.0},
                                     {"initial_step": math.inf}, {"initial_step": math.nan},
                                     {"max_backtracks": True}])
    def test_invalid_parameters(self, bad):
        with pytest.raises(ValueError, match="line-search parameters"):
            ArmijoParams(**bad)


class TestGradientDescent:
    def test_squared_distance_on_spd(self, rng):
        geom = SPDManifold(3)
        q = random_spd(rng, 3)
        f = lambda p: 0.5 * geom.dist(p, q) ** 2
        rgrad = lambda p: -geom.log(p, q)
        p0 = random_spd(rng, 3)
        p, trace = gradient_descent(geom, f, rgrad, p0, ArmijoParams(),
                                    StoppingCriterion(max_iter=200, grad_norm_tol=1e-9))
        assert geom.dist(p, q) <= 1e-8
        assert trace.reason == "gradient norm"

    def test_zero_gradient_returns_immediately(self):
        f = lambda x: 0.0
        rgrad = lambda x: np.zeros(1)
        p, trace = gradient_descent(EUCLID1, f, rgrad, np.array([3.0]), ArmijoParams(),
                                    StoppingCriterion(max_iter=50))
        assert float(p[0]) == 3.0
        assert len(trace.f) == 1
        assert trace.reason == "gradient norm"

    def test_strictly_decreasing_costs(self, rng):
        geom = Euclidean(2)
        a = np.diag([1.0, 30.0])
        f = lambda x: 0.5 * float(x @ a @ x)
        rgrad = lambda x: a @ x
        _, trace = gradient_descent(geom, f, rgrad, np.array([1.0, 1.0]), ArmijoParams(),
                                    StoppingCriterion(max_iter=500, grad_norm_tol=1e-10))
        fs = np.asarray(trace.f)
        assert np.all(np.diff(fs) < 0.0)
        assert trace.reason == "gradient norm"

    def test_linesearch_stall_reason(self):
        # floor of |x| has no descent once the step cannot decrease f
        f = lambda x: abs(float(x[0]))
        rgrad = lambda x: np.array([math.copysign(1.0, float(x[0]) or 1.0)])
        _, trace = gradient_descent(EUCLID1, f, rgrad, np.array([0.0]), ArmijoParams(),
                                    StoppingCriterion(max_iter=50))
        assert trace.reason == "linesearch stalled"

    def test_non_finite_gradient_is_hard_error(self):
        # a NaN gradient is no descent direction; it must not read as a stall
        f = lambda x: 0.5 * float(x[0]) ** 2
        with pytest.raises(SolverError, match="gradient norm"):
            gradient_descent(EUCLID1, f, lambda x: np.array([np.nan]), np.array([1.0]),
                             ArmijoParams(), StoppingCriterion(max_iter=50))


class TestFDHessian:
    def test_matches_exact_hessian_on_quadratic(self, rng):
        geom = Euclidean(3)
        a = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 4.0]])
        rgrad = lambda x: a @ x
        p = rng.standard_normal(3)
        for _ in range(5):
            x = rng.standard_normal(3)
            hx = fd_hessian_apply(geom, rgrad, p, x)
            assert np.linalg.norm(hx - a @ x) <= 1e-6 * (1.0 + np.linalg.norm(a @ x))

    def test_zero_vector(self, rng):
        geom = SPDManifold(2)
        p = random_spd(rng, 2)
        out = fd_hessian_apply(geom, lambda q: q, p, np.zeros((2, 2)))
        np.testing.assert_array_equal(out, np.zeros((2, 2)))

    def test_approximate_symmetry(self, rng):
        geom = SPDManifold(2)
        q = random_spd(rng, 2)
        rgrad = lambda p: -geom.log(p, q)  # gradient of d^2(., q)/2
        p = random_spd(rng, 2)
        for _ in range(5):
            x, y = random_sym(rng, 2), random_sym(rng, 2)
            hx = fd_hessian_apply(geom, rgrad, p, x)
            hy = fd_hessian_apply(geom, rgrad, p, y)
            lhs = geom.inner(p, hx, y)
            rhs = geom.inner(p, hy, x)
            assert abs(lhs - rhs) <= 1e-4 * (1.0 + abs(lhs) + abs(rhs))


class TestTrustRegion:
    def test_quadratic_converges_fast(self):
        # start inside the initial trust radius, with a gradient small enough
        # for the kappa-theta rule to make CG solve the exact model; the step
        # is then Newton-like
        geom = Euclidean(3)
        a = np.diag([1.0, 3.0, 10.0])
        f = lambda x: 0.5 * float(x @ a @ x)
        rgrad = lambda x: a @ x
        p, trace = trust_region_solve(geom, f, rgrad, np.array([0.15, -0.25, 0.1]),
                                      StoppingCriterion(max_iter=50, grad_norm_tol=1e-10))
        assert np.linalg.norm(p) <= 1e-10
        assert trace.summary()["steps"] <= 3

    def test_optimal_start_stops_at_gradient_check(self):
        geom = Euclidean(2)
        f = lambda x: 0.5 * float(x @ x)
        rgrad = lambda x: np.asarray(x, dtype=float)
        p, trace = trust_region_solve(geom, f, rgrad, np.zeros(2),
                                      StoppingCriterion(max_iter=50, grad_norm_tol=1e-10))
        assert len(trace.f) == 1
        assert trace.reason == "gradient norm"

    def test_logdet_subproblem_reaches_inner_tolerance(self):
        # the DC surrogate of the log-det family, solved to gradient 1e-10
        spec = LogDetProblem(4)
        problem = logdet_dcproblem(spec)
        geom = problem.geometry
        q = bench.logdet_start(4)
        cost, rgrad = problem.subproblem(q, problem.h_rgrad(q))
        p, trace = trust_region_solve(geom, cost, rgrad, q,
                                      LOGDET_SUB.criterion)
        assert trace.reason == "gradient norm"
        assert geom.norm(p, rgrad(p)) < 1e-10

    @pytest.mark.parametrize("lam", [None, 0.1], ids=["dca", "dcppa"])
    def test_exact_hessian_reaches_inner_tolerance(self, rng, monkeypatch, lam):
        # the DCA and DCPPA surrogates of the log-det family at a random
        # iterate, from a start that does not commute with it, solved to
        # gradient 1e-10 with exact Hessian products only
        monkeypatch.setattr(solvers, "fd_hessian_apply", no_finite_differences)
        problem = logdet_dcproblem(LogDetProblem(5))
        geom = problem.geometry
        q = logdet_start(rng, 5, 0.9)
        cost, rgrad, hess = solvers._surrogate(problem, q, problem.h_rgrad(q), lam)
        p, trace = trust_region_solve(geom, cost, rgrad, logdet_start(rng, 5, 0.3),
                                      LOGDET_SUB.criterion,
                                      hess=hess)
        assert trace.reason == "gradient norm"
        assert geom.norm(p, rgrad(p)) < 1e-10
        assert sum(trace.hessian_products) >= 2 * trace.summary()["steps"]

    def test_logdet_subsolves_make_no_metric_calls(self, monkeypatch):
        # CG, the model decrease and the norms run in frame coordinates: inside
        # the trust region of one log-det DCA and one DCPPA step at n = 5,
        # SPDManifold.inner runs at most once per trust-region step
        calls, runs = [0], []
        metric, tr = SPDManifold.inner, solvers.trust_region_solve

        def counted_inner(self, p, x, y):
            calls[0] += 1
            return metric(self, p, x, y)

        def recorded_tr(*args, **kwargs):
            before = calls[0]
            point, trace = tr(*args, **kwargs)
            runs.append((calls[0] - before, trace.summary()["steps"]))
            return point, trace

        monkeypatch.setattr(SPDManifold, "inner", counted_inner)
        monkeypatch.setattr(solvers, "trust_region_solve", recorded_tr)
        problem = logdet_dcproblem(LogDetProblem(5))
        p0, one = bench.logdet_start(5), StoppingCriterion(max_iter=1)
        dca_solve(problem, p0, LOGDET_SUB, one)
        dcppa_solve(problem, p0, bench.logdet_lambda(5), LOGDET_SUB, one)
        assert len(runs) == 2
        for inner_calls, steps in runs:
            assert steps > 1 and inner_calls <= steps

    def test_rejected_steps_recorded(self):
        # sqrt(1 + x^2) from x = 10: the model's Newton steps overshoot; a
        # rejected step is a row with zero distance that keeps f
        geom = Euclidean(1)
        f = lambda x: math.sqrt(1.0 + float(x[0]) ** 2)
        rgrad = lambda x: np.array([float(x[0]) / f(x)])
        _, trace = trust_region_solve(geom, f, rgrad, np.array([10.0]),
                                      StoppingCriterion(max_iter=60, grad_norm_tol=1e-6))
        rejected = [k for k in range(1, len(trace.f)) if trace.step[k] == 0.0]
        assert rejected
        assert all(trace.f[k] == trace.f[k - 1] for k in rejected)
        assert len(trace.hessian_products) == trace.summary()["steps"]

    def test_truncated_cg_stops_at_its_budget(self):
        # 20 distinct curvatures take 20 CG steps; a budget of 3 ends inside
        # the region and above the tolerance, after 3 Hessian products
        curvatures = np.arange(1.0, 21.0)
        g = np.ones(20)
        eta, boundary, products = solvers._truncated_cg(
            g, lambda d: curvatures * d, 1e6, 1e-12, 3)
        assert (boundary, products) == (False, 3)
        assert np.linalg.norm(g + curvatures * eta) > 1e-12
        assert g @ eta + 0.5 * eta @ (curvatures * eta) < 0.0

    def test_non_finite_cost_raises(self):
        geom = Euclidean(1)
        f = lambda x: float("nan")
        with pytest.raises(SolverError):
            trust_region_solve(geom, f, lambda x: np.ones(1), np.zeros(1),
                               StoppingCriterion(max_iter=5))


class TestDCA:
    def test_logdet_reaches_critical_value(self):
        # log det p0 = n log(log n) is negative for n = 2 and positive for
        # n = 3; descent cannot cross log det = 0 (where f = 0 > f(p0)), so
        # each run ends on the branch whose sign matches log det p0
        for n, sign in ((2, -1.0), (3, 1.0)):
            problem = logdet_dcproblem(LogDetProblem(n))
            p0 = bench.logdet_start(n)
            assert math.copysign(1.0, spd_logdet_of(p0)) == sign
            p, trace = dca_solve(problem, p0, LOGDET_SUB, LOGDET_STOP)
            assert abs(trace.f[-1] + 0.25) <= 1e-8
            det = math.exp(spd_logdet_of(p))
            assert abs(det - math.exp(sign / math.sqrt(2.0))) <= 1e-6, n
            assert trace.reason == "gradient norm"

    def test_logdet_pair_lapack_calls(self, monkeypatch):
        # one DCA + DCPPA pair at n = 5 with the settings of `rdcopt bench
        # dca-vs-dcppa`. Recomputing every factor took 3,093 eigh and 2,792
        # solve calls; the SPD factor cache made 826 eigh and no solve calls
        # with finite-difference Hessians, and 390 eigh with exact ones, in
        # tangent and in frame coordinates alike; 385 once frame tangents
        # were factored outside the cache. All 385 inputs are c I, which
        # sym_eig answers without LAPACK.
        counts = {"eigh": 0, "solve": 0}
        for name in counts:
            fn = getattr(np.linalg, name)

            def counted(*args, _fn=fn, _name=name):
                counts[_name] += 1
                return _fn(*args)

            monkeypatch.setattr(np.linalg, name, counted)
        problem = logdet_dcproblem(LogDetProblem(5))
        p0 = bench.logdet_start(5)
        dca_solve(problem, p0, LOGDET_SUB, LOGDET_STOP, record_points=False)
        dcppa_solve(problem, p0, bench.logdet_lambda(5), LOGDET_SUB, LOGDET_STOP,
                    record_points=False)
        assert counts["eigh"] == 0
        assert counts["solve"] == 0

    def test_fixed_point_trace_length_one(self, rng):
        geom = SPDManifold(2)
        p0 = random_spd(rng, 2)
        problem = DCProblem(
            geometry=geom,
            g_cost=lambda p: 0.0,
            h_cost=lambda p: 0.0,
            h_rgrad=lambda p: np.zeros((2, 2)),
            constrained_subsolver=lambda p, x: p,
        )
        p, trace = dca_solve(problem, p0, None, StoppingCriterion(max_iter=10))
        assert p is p0
        assert len(trace.f) == 1
        assert trace.reason == "fixed point"

    def test_monotone_descent(self):
        problem = logdet_dcproblem(LogDetProblem(5))
        _, trace = dca_solve(problem, bench.logdet_start(5), LOGDET_SUB, LOGDET_STOP)
        fs = np.asarray(trace.f)
        assert np.all(np.diff(fs) <= 1e-10)

    def test_generic_and_closed_form_surrogates_agree(self):
        # cross-validates the adjoint-log-differential path on the SPD cone
        n = 3
        spec = LogDetProblem(n)
        closed = logdet_dcproblem(spec)
        generic = DCProblem(
            geometry=closed.geometry,
            g_cost=closed.g_cost,
            h_cost=closed.h_cost,
            g_rgrad=closed.g_rgrad,
            h_rgrad=closed.h_rgrad,
        )
        p0 = bench.logdet_start(n)
        stop = StoppingCriterion(max_iter=8)
        p_closed, tr_closed = dca_solve(closed, p0, LOGDET_SUB, stop)
        p_generic, tr_generic = dca_solve(generic, p0, LOGDET_SUB, stop)
        assert closed.geometry.dist(p_closed, p_generic) <= 1e-6
        np.testing.assert_allclose(tr_closed.f, tr_generic.f, atol=1e-8)

    def test_termination_criticality(self):
        problem = logdet_dcproblem(LogDetProblem(4))
        p, trace = dca_solve(problem, bench.logdet_start(4), LOGDET_SUB, LOGDET_STOP)
        assert trace.reason == "gradient norm"
        ok, residual = is_critical(problem, p, 10.0 * LOGDET_STOP.grad_norm_tol)
        assert ok, residual

    def test_critical_point_equation_at_limit(self):
        # at the DCA limit the scalar stationarity phi1'(det p) = phi2'(det p)
        # of the det-composed family holds
        spec = LogDetProblem(4)
        problem = logdet_dcproblem(spec)
        p, _ = dca_solve(problem, bench.logdet_start(4), LOGDET_SUB, LOGDET_STOP)
        det = math.exp(spd_logdet_of(p))
        assert abs(spec.phi1.d1(det) - spec.phi2.d1(det)) <= 1e-6

    def test_non_finite_cost_is_hard_error(self):
        problem = DCProblem(
            geometry=EUCLID1,
            g_cost=lambda x: float("inf"),
            h_cost=lambda x: 0.0,
            h_rgrad=lambda x: np.zeros(1),
            g_rgrad=lambda x: np.zeros(1),
        )
        with pytest.raises(SolverError):
            dca_solve(problem, np.zeros(1),
                      SubSolverSpec("gradient_descent", StoppingCriterion(max_iter=5)),
                      StoppingCriterion(max_iter=5))

    def test_non_finite_gradient_is_hard_error(self):
        # the sub-solve's NaN gradient used to stall at p_k: a false fixed point
        problem = DCProblem(geometry=EUCLID1, g_cost=lambda x: 0.5 * float(x[0]) ** 2,
                            h_cost=lambda x: 0.0, h_rgrad=lambda x: np.zeros(1),
                            g_rgrad=lambda x: np.array([np.nan]))
        with pytest.raises(SolverError, match="gradient norm"):
            dca_solve(problem, np.ones(1),
                      SubSolverSpec("gradient_descent", StoppingCriterion(max_iter=5)),
                      StoppingCriterion(max_iter=5))

    def test_argument_errors(self):
        stop = StoppingCriterion(max_iter=5)
        with pytest.raises(ValueError, match="sub-solver spec"):
            dca_solve(quartic_dcproblem(), np.ones(1), None, stop)
        no_smooth_g = DCProblem(geometry=EUCLID1, g_cost=lambda x: 0.0, h_cost=lambda x: 0.0,
                                h_rgrad=lambda x: np.zeros(1))
        with pytest.raises(ValueError, match="smooth g"):
            dca_solve(no_smooth_g, np.ones(1), LOGDET_SUB, stop)
        hooked = dataclasses.replace(no_smooth_g, constrained_subsolver=lambda p, x: p)
        with pytest.raises(ValueError, match="proximal variant"):
            dcppa_solve(hooked, np.ones(1), 1.0, None, stop)
        with pytest.raises(ValueError, match="unknown sub-solver kind"):
            SubSolverSpec("newton", stop)

    def test_fast_path_linesearch_stall_is_a_fixed_point(self, monkeypatch):
        # |x1| + |x2| from its kink with the subgradient (1, 0): the 2-D line
        # search finds no decrease, so the sub-solve keeps p_k without
        # hitting its cap, and DCA ends on a fixed point
        monkeypatch.setattr(solvers, "gradient_descent", None)  # the fast path only

        def subproblem_2d(q, x):
            return (lambda x1, x2: abs(x1) + abs(x2)), (lambda x1, x2: (1.0, 0.0))

        problem = DCProblem(geometry=Euclidean(2), g_cost=lambda p: float(np.abs(p).sum()),
                            h_cost=lambda p: 0.0, h_rgrad=lambda p: np.zeros(2),
                            g_rgrad=lambda p: np.array([1.0, 0.0]), subproblem_2d=subproblem_2d)
        sub = SubSolverSpec("gradient_descent", StoppingCriterion(max_iter=50),
                            ArmijoParams(max_backtracks=5))
        p0 = np.zeros(2)
        costs = array("d")
        point, reason, steps = solvers._descend_2d(False, *subproblem_2d(p0, p0), p0,
                                                   sub.armijo, sub.criterion, costs)
        assert np.array_equal(point, p0)
        assert (reason, steps, list(costs)) == ("linesearch stalled", 0, [0.0])
        p, trace = dca_solve(problem, p0, sub, StoppingCriterion(max_iter=10))
        assert np.array_equal(p, p0)
        assert trace.reason == "fixed point"
        assert len(trace.f) == 1
        assert trace.inner_steps == [0]
        assert trace.subsolver_failures == []

    def test_inner_steps_recorded(self):
        # one outer step whose sub-solve runs into its 50-step cap, on the 2-D
        # fast path (DCA) and on the generic gradient descent (DCPPA)
        sub = SubSolverSpec("gradient_descent",
                            StoppingCriterion(max_iter=50, grad_norm_tol=1e-16))
        p0 = np.array(ROSENBROCK_START)
        for geometry in ("euclidean", "rb"):
            problem = rosenbrock_dcproblem(RosenbrockProblem(), geometry)
            for _, trace in (dca_solve(problem, p0, sub, StoppingCriterion(max_iter=1)),
                             dcppa_solve(problem, p0, 1.0, sub, StoppingCriterion(max_iter=1))):
                assert trace.inner_steps == [50]
                assert trace.subsolver_failures == [0]

    def test_trust_region_counts_recorded(self, monkeypatch):
        # every Hessian product and rejected step of every trust-region
        # sub-solve, on the exact path (log-det) and on finite differences
        # (trace/det)
        products = [0]

        def counted(fn):
            def call(*args, **kwargs):
                products[0] += 1
                return fn(*args, **kwargs)

            return call

        inner = []
        tr = solvers.trust_region_solve

        def recorded_tr(*args, **kwargs):
            point, trace = tr(*args, **kwargs)
            inner.append(trace)
            return point, trace

        monkeypatch.setattr(solvers, "trust_region_solve", recorded_tr)
        monkeypatch.setattr(solvers, "fd_hessian_apply", counted(solvers.fd_hessian_apply))
        build = problems._logdet_surrogate_hessian
        monkeypatch.setattr(problems, "_logdet_surrogate_hessian",
                            lambda *args: counted(build(*args)))
        logdet = logdet_dcproblem(LogDetProblem(3))
        trdet = trdet_dcproblem(TrDetProblem(3))
        for problem, p0, stop in ((logdet, bench.logdet_start(3), LOGDET_STOP),
                                  (trdet, 2.0 * np.eye(3), StoppingCriterion(max_iter=4))):
            for solve in (lambda: dca_solve(problem, p0, LOGDET_SUB, stop),
                          lambda: dcppa_solve(problem, p0, 1.0 / 6.0, LOGDET_SUB, stop)):
                products[0] = 0
                inner.clear()
                _, trace = solve()
                assert inner and len(inner) == len(trace.inner_steps)
                assert trace.inner_steps == [t.summary()["steps"] for t in inner]
                assert trace.tr_rejected == [
                    sum(1 for s in t.step[1:] if s == 0.0) for t in inner]
                assert len(trace.hessian_products) == len(inner)
                assert sum(trace.hessian_products) == products[0]
                assert all(h >= 2 * k for h, k in zip(trace.hessian_products,
                                                      trace.inner_steps))
        # the full n = 3 log-det DCA rejects two trust-region steps
        _, trace = dca_solve(logdet, bench.logdet_start(3), LOGDET_SUB, LOGDET_STOP)
        assert sum(trace.tr_rejected) == 2

    def test_capped_subsolve_that_keeps_the_iterate_is_no_fixed_point(self):
        # f = (tr p)^2 - 6 det p is unbounded below on SPD(3): DCA from 2I
        # diverges, its sub-solves hit the cap, and the last returns p_k
        capped = SubSolverSpec("trust_region",
                               StoppingCriterion(max_iter=50, grad_norm_tol=1e-10))
        _, trace = dca_solve(trdet_dcproblem(TrDetProblem(3)), 2.0 * np.eye(3), capped, LOGDET_STOP)
        assert trace.reason == "sub-solver failed"
        assert trace.subsolver_failures[-1] == trace.summary()["steps"]
        assert trace.f[-1] < -1e20

    def test_subsolver_failure_recorded_and_continues(self):
        spec = RosenbrockProblem()
        problem = rosenbrock_dcproblem(spec, "rb")
        starving = SubSolverSpec("gradient_descent",
                                 StoppingCriterion(max_iter=3, grad_norm_tol=1e-16))
        _, trace = dca_solve(problem, np.array(ROSENBROCK_START), starving,
                             dataclasses.replace(ROSENBROCK_STOP, max_iter=10),
                             record_points=False)
        assert trace.subsolver_failures
        assert len(trace.f) > 1


class TestDCPPA:
    def test_logdet_with_quarter_lambda(self):
        n = 2
        problem = logdet_dcproblem(LogDetProblem(n))
        p, trace = dcppa_solve(problem, bench.logdet_start(n), 0.25, LOGDET_SUB, LOGDET_STOP)
        assert abs(trace.f[-1] + 0.25) <= 1e-8

    def test_large_lambda_approaches_dca(self):
        problem = quartic_dcproblem()
        sub = SubSolverSpec("trust_region",
                            StoppingCriterion(max_iter=200, grad_norm_tol=1e-12))
        stop = StoppingCriterion(max_iter=6)
        x0 = np.array([2.0])
        _, tr_dca = dca_solve(problem, x0, sub, stop)
        _, tr_ppa = dcppa_solve(problem, x0, 1e9, sub, stop)
        np.testing.assert_allclose(tr_dca.f, tr_ppa.f, atol=1e-6)
        for a, b in zip(tr_dca.points, tr_ppa.points):
            assert abs(float(a[0]) - float(b[0])) <= 1e-6

    def test_critical_start_is_fixed_point(self):
        n = 2
        problem = logdet_dcproblem(LogDetProblem(n))
        # det p = e^(1/sqrt 2) makes p critical; scaled identity realizes it
        p0 = math.exp(1.0 / (n * math.sqrt(2.0))) * np.eye(n)
        p, trace = dcppa_solve(problem, p0, 0.25, LOGDET_SUB, StoppingCriterion(max_iter=10))
        assert len(trace.f) == 1
        assert trace.reason == "fixed point"
        assert p is p0

    def test_rejects_nonpositive_lambda(self):
        with pytest.raises(ValueError):
            dcppa_solve(quartic_dcproblem(), np.zeros(1), 0.0, LOGDET_SUB, LOGDET_STOP)

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_proximal_surrogate_hessian_matches_gradient_differences(self, rng, n):
        # the log-det surrogate plus d^2(., p_k)/(2 lambda), at a point off p_k
        problem = logdet_dcproblem(LogDetProblem(n))
        p_k = logdet_start(rng, n, 0.8)
        _, grad, hess = solvers._surrogate(problem, p_k, problem.h_rgrad(p_k), 1.0 / (2 * n))
        p = logdet_start(rng, n, 0.4)
        check_hessian(problem.geometry, grad, tangent_map(problem.geometry, p, hess(p)), p,
                      [random_sym(rng, n) for _ in range(3)] + [p])

    def test_step_whitens_each_trial_point_once(self, monkeypatch):
        # the proximal cost, gradient and Hessian at a point z all read the
        # whitened p_k^{-1/2}-frame of the pair (z, p_k); it is made once
        n = 5
        problem = logdet_dcproblem(LogDetProblem(n))
        p0 = bench.logdet_start(n)
        whitened = collections.Counter()
        to_frame = SPDManifold.to_frame

        def counted(self, p, x):
            if np.array_equal(x, p0):
                whitened[np.asarray(p).tobytes()] += 1
            return to_frame(self, p, x)

        monkeypatch.setattr(SPDManifold, "to_frame", counted)
        _, trace = dcppa_solve(problem, p0, bench.logdet_lambda(n), LOGDET_SUB,
                               StoppingCriterion(max_iter=1), record_points=False)
        assert trace.summary()["steps"] == 1
        assert trace.inner_steps[0] >= 2
        assert len(whitened) >= trace.inner_steps[0]
        assert max(whitened.values()) == 1

    @pytest.mark.parametrize("n, dca, dcppa", [(5, 118, 267), (20, 145, 302), (60, 162, 332)],
                             ids=["n5", "n20", "n60"])
    def test_eigendecompositions_of_a_logdet_pair(self, n, dca, dcppa):
        # DCA, then DCPPA on the same problem and factor cache, as
        # `rdcopt bench dca-vs-dcppa` runs them. At n = 5, recomputing every
        # factor took 3,093 eigh and 2,792 solve calls; the SPD factor cache
        # made 826 eigh and no solve calls with finite-difference Hessians,
        # and 390 eigh with exact ones, in tangent and in frame coordinates
        # alike; 385 once frame tangents were factored outside the cache.
        # Every input is c I, which sym_eig answers without LAPACK.
        problem = logdet_dcproblem(LogDetProblem(n))
        p0 = bench.logdet_start(n)
        before = work_ledger()
        dca_solve(problem, p0, LOGDET_SUB, LOGDET_STOP, record_points=False)
        between = work_ledger()
        assert between - before == collections.Counter(scalar=dca)
        dcppa_solve(problem, p0, bench.logdet_lambda(n), LOGDET_SUB, LOGDET_STOP,
                    record_points=False)
        assert work_ledger() - between == collections.Counter(scalar=dcppa)

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_logdet_runs_off_the_identity_ray(self, n):
        # the cost depends on p only through s = log det p, and every gradient
        # is a multiple of p: from any SPD start the runs stay on its ray c p0
        # and take the s-steps of log(n) I. This start is no multiple of I, so
        # the SPD stack runs its dense route, which log(n) I never reaches
        p0 = off_ray_logdet_start(n)
        w = np.linalg.eigvalsh(p0)
        # the f traces and rays were measured to agree within 30 n cond(p0) eps
        # at n = 2, 5, 20 and 60
        rtol = 1e3 * n * (w[-1] / w[0]) * np.finfo(float).eps
        ld0 = np.linalg.slogdet(p0)[1]
        runs = (lambda problem, start, **kw: dca_solve(problem, start, LOGDET_SUB, LOGDET_STOP, **kw),
                lambda problem, start, **kw: dcppa_solve(problem, start, bench.logdet_lambda(n),
                                                         LOGDET_SUB, LOGDET_STOP, **kw))
        for run in runs:
            _, on = run(logdet_dcproblem(LogDetProblem(n)), bench.logdet_start(n))
            before = work_ledger()
            _, off = run(logdet_dcproblem(LogDetProblem(n)), p0, record_points=True)
            assert (work_ledger() - before)["eigh.calls"] > 0
            assert (len(off.f), off.reason, off.inner_steps) == (len(on.f), on.reason, on.inner_steps)
            np.testing.assert_allclose(off.f, on.f, rtol=rtol, atol=0.0)
            for p in off.points:
                c = math.exp((np.linalg.slogdet(p)[1] - ld0) / n)
                assert np.linalg.norm(p - c * p0) <= rtol * np.linalg.norm(p)


class TestFrankWolfe:
    def test_step_size_schedule_and_fixed_point(self, rng):
        geom = Euclidean(2)
        target = np.array([0.25, -0.5])
        oracle_calls = []

        def oracle(p, g):
            oracle_calls.append(p.copy())
            return target

        p0 = np.array([1.0, 1.0])
        p, trace = frank_wolfe_solve(geom, lambda q: q - target, oracle, p0,
                                     StoppingCriterion(max_iter=5),
                                     lambda q: 0.5 * float(np.sum((q - target) ** 2)))
        # s_0 = 1 jumps to the oracle point; afterwards it is a fixed point
        assert trace.step_size[0] == 1.0
        np.testing.assert_allclose(p, target)
        assert trace.reason == "fixed point"

    def test_step_size_sequence(self):
        geom = Euclidean(1)
        # oracle always returns a moving target so steps keep being taken
        oracle = lambda p, g: p + 1.0
        _, trace = frank_wolfe_solve(geom, lambda q: np.ones(1), oracle, np.zeros(1),
                                     StoppingCriterion(max_iter=4), lambda q: float(q[0]))
        np.testing.assert_allclose(trace.step_size[:3], [1.0, 2.0 / 3.0, 0.5])

    def test_infeasible_start_rejected(self):
        geom = Euclidean(1)
        with pytest.raises(ValueError, match="feasible start"):
            frank_wolfe_solve(geom, lambda q: np.ones(1), lambda p, g: p, np.zeros(1),
                              StoppingCriterion(max_iter=3), lambda q: float(q[0]),
                              feasible=lambda p: False)


class TestStronglyConvexify:
    def test_cost_unchanged(self, rng):
        problem = logdet_dcproblem(LogDetProblem(3))
        anchor = np.eye(3)
        wrapped = strongly_convexify(problem, 1.0, anchor)
        for _ in range(10):
            p = random_spd(rng, 3)
            assert abs(problem.cost(p) - wrapped.cost(p)) <= 1e-12 * (1 + abs(problem.cost(p)))

    def test_h_gradient_at_anchor_unchanged(self, rng):
        problem = logdet_dcproblem(LogDetProblem(3))
        anchor = random_spd(rng, 3)
        wrapped = strongly_convexify(problem, 2.0, anchor)
        np.testing.assert_allclose(wrapped.h_rgrad(anchor), problem.h_rgrad(anchor),
                                   atol=1e-12)

    def test_sigma_must_be_positive(self):
        with pytest.raises(ValueError, match="sigma"):
            strongly_convexify(quartic_dcproblem(), 0.0, np.zeros(1))

    def test_strong_descent_along_dca(self):
        problem = strongly_convexify(logdet_dcproblem(LogDetProblem(3)), 1.0, np.eye(3))
        geom = problem.geometry
        p0 = bench.logdet_start(3)
        _, trace = dca_solve(problem, p0, LOGDET_SUB,
                             StoppingCriterion(max_iter=40, grad_norm_tol=1e-10))
        fs = np.asarray(trace.f)
        steps = np.asarray(trace.step)
        for k in range(1, len(fs)):
            assert fs[k] <= fs[k - 1] - 0.5 * steps[k] ** 2 + 1e-8

    def test_generic_surrogate_decomposes_through_the_cache(self, monkeypatch):
        # the generic surrogate's adjoint log differential factors its
        # whitened point in the geometry's cache, so every eigendecomposition
        # the ledger counts is made there; spied at sym_eig, since a scalar
        # one calls no LAPACK
        problem = strongly_convexify(logdet_dcproblem(LogDetProblem(3)), 1.0, np.eye(3))
        calls = []
        sym_eig = manifolds.sym_eig
        monkeypatch.setattr(manifolds, "sym_eig", lambda a: calls.append(1) or sym_eig(a))
        before = work_ledger()
        dca_solve(problem, bench.logdet_start(3), LOGDET_SUB, StoppingCriterion(max_iter=5))
        work = work_ledger() - before
        assert calls
        assert len(calls) == work["eigh.calls"] + work["scalar"]


class TestIsCritical:
    def test_logdet_critical_set(self):
        n = 3
        problem = logdet_dcproblem(LogDetProblem(n))
        p = math.exp(1.0 / (n * math.sqrt(2.0))) * np.eye(n)
        ok, residual = is_critical(problem, p, 1e-8)
        assert ok, residual

    def test_rosenbrock_minimizer(self):
        problem = rosenbrock_dcproblem(RosenbrockProblem(), "rb")
        ok, residual = is_critical(problem, np.array([1.0, 1.0]), 1e-10)
        assert ok and residual <= 1e-10

    def test_needs_a_smooth_g(self):
        indicator = DCProblem(geometry=EUCLID1, g_cost=lambda x: 0.0, h_cost=lambda x: 0.0,
                              h_rgrad=lambda x: np.zeros(1), constrained_subsolver=lambda p, x: p)
        with pytest.raises(ValueError, match="smooth g"):
            is_critical(indicator, np.zeros(1), 1e-8)

    def test_random_point_not_critical(self, rng):
        problem = logdet_dcproblem(LogDetProblem(3))
        _, residual = is_critical(problem, random_spd(rng, 3, 2.0), 1e-8)
        assert residual > 1e-8


class TestFastPathParity:
    @pytest.mark.parametrize("geometry", ["euclidean", "rb"])
    def test_one_dca_step_matches_gradient_descent(self, geometry, rng):
        # a 2-D gradient-descent sub-solve takes the plain-float fast path; it
        # must end, bit for bit, where the generic solver ends on the surrogate
        # built from the unfused public formulas
        spec = RosenbrockProblem()
        problem = rosenbrock_dcproblem(spec, geometry)
        geom = problem.geometry
        inner = StoppingCriterion(max_iter=50, grad_norm_tol=1e-16)
        sub = SubSolverSpec("gradient_descent", inner)
        for start in (ROSENBROCK_START, (-0.5, 0.7), (1.3, 1.1)):
            p0 = np.array(start)
            p_fast, _ = dca_solve(problem, p0, sub, StoppingCriterion(max_iter=1),
                                  record_points=False)
            cost, egrad = rosenbrock_subproblem(spec, p0)
            p_generic, trace = gradient_descent(
                geom, cost, lambda p: geom.egrad_to_rgrad(p, egrad(p)), p0,
                ArmijoParams(), inner)
            assert trace.reason == "max iterations"
            assert np.array_equal(p_fast, p_generic)
        # the plain-float kernel gives the unfused formulas' cost and
        # Euclidean gradient, its array adapters their Riemannian gradient
        for q in rng.uniform(-1.5, 1.5, size=(3, 2)):
            x = problem.h_rgrad(q)
            cost_2d, egrad_2d = problem.subproblem_2d(q, x)
            cost, rgrad = problem.subproblem(q, x)
            ref_cost, ref_egrad = rosenbrock_subproblem(spec, q)
            for z in rng.uniform(-1.5, 1.5, size=(4, 2)):
                x1, x2 = float(z[0]), float(z[1])
                assert (cost_2d(x1, x2), *egrad_2d(x1, x2)) == (ref_cost(z), *ref_egrad(z))
                assert (cost(z), *rgrad(z)) == (ref_cost(z),
                                                *geom.egrad_to_rgrad(z, ref_egrad(z)))

    @pytest.mark.parametrize("geometry", ["euclidean", "rb"])
    def test_iterate_change_tolerance_takes_the_fast_path(self, geometry, monkeypatch):
        # the sub-solve stops on "iterate change" after 13 (flat) or 10
        # (plane) steps, where the generic solver stops
        problem = rosenbrock_dcproblem(RosenbrockProblem(), geometry)
        inner = StoppingCriterion(max_iter=1000, grad_norm_tol=1e-16, iterate_change_tol=1e-3)
        p0 = np.array(ROSENBROCK_START)
        p_generic, trace = gradient_descent(
            problem.geometry, *problem.subproblem(p0, problem.h_rgrad(p0)), p0,
            ArmijoParams(), inner)
        assert trace.reason == "iterate change"
        monkeypatch.setattr(solvers, "gradient_descent", None)  # the fast path only
        p_fast, outer = dca_solve(problem, p0, SubSolverSpec("gradient_descent", inner),
                                  StoppingCriterion(max_iter=1), record_points=False)
        assert np.array_equal(p_fast, p_generic)
        assert outer.inner_steps == [trace.summary()["steps"]]
        assert outer.subsolver_failures == []

    def test_subproblem_hessian_needs_a_subproblem(self):
        logdet = logdet_dcproblem(LogDetProblem(2))
        with pytest.raises(ValueError, match="subproblem_hessian"):
            dataclasses.replace(logdet, subproblem=None)

    def test_subproblem_hessian_on_flat_space(self, monkeypatch):
        # the hook is not tied to the SPD cone: the quartic family's DCA runs
        # its trust-region sub-solves on the exact Hessian 12 p^2 + 2 alone,
        # and DCPPA adds the flat proximal Hessian, the identity
        monkeypatch.setattr(solvers, "fd_hessian_apply", no_finite_differences)
        quartic = quartic_dcproblem()
        for solve, lam in ((dca_solve, ()), (dcppa_solve, (0.5,))):
            p, trace = solve(quartic, np.array([2.0]), *lam, DUALITY_SUB, DUALITY_STOP)
            assert abs(float(p[0]) - 1.0 / math.sqrt(2.0)) <= 1e-8
            assert trace.reason == "gradient norm"

    def test_hook_needs_a_2d_geometry(self):
        problem = rosenbrock_dcproblem(RosenbrockProblem(), "euclidean")
        with pytest.raises(ValueError, match="subproblem_2d"):
            DCProblem(geometry=Euclidean(3), g_cost=problem.g_cost, h_cost=problem.h_cost,
                      h_rgrad=problem.h_rgrad, subproblem_2d=problem.subproblem_2d)


def descend_both(plane: bool, stop: StoppingCriterion):
    """Gradient descent on the Rosenbrock cost from ``ROSENBROCK_START``: the
    generic loop on the public array formulas and the 2-D float loop on
    ``rosenbrock_kernel``, each as ``(point, costs, reason)``."""
    spec = RosenbrockProblem()
    geom = RosenbrockPlane() if plane else Euclidean(2)
    p0 = np.array(ROSENBROCK_START)
    p, trace = gradient_descent(
        geom, lambda p: rosenbrock_cost(spec, p),
        lambda p: geom.egrad_to_rgrad(p, rosenbrock_grad(spec, p)), p0, ArmijoParams(), stop)
    costs = array("d")
    point, reason, steps = solvers._descend_2d(plane, *rosenbrock_kernel(spec), p0,
                                               ArmijoParams(), stop, costs)
    assert steps == len(costs) - 1
    return (p, np.asarray(trace.f), trace.reason), (point, np.asarray(costs), reason)


class TestFloatDescent:
    """The 2-D float loop against :func:`gradient_descent`, bit for bit."""

    @pytest.mark.parametrize("plane", [False, True])
    def test_ten_thousand_steps_match(self, plane):
        generic, fast = descend_both(plane, StoppingCriterion(max_iter=10_000))
        assert generic[2] == fast[2] == "max iterations"
        assert len(fast[1]) == 10_001
        assert np.array_equal(generic[1], fast[1])
        assert np.array_equal(generic[0], fast[0])

    @pytest.mark.parametrize("plane, steps", [(False, 3689), (True, 14250)])
    def test_iterate_change_stop_and_its_tie_with_max_iterations(self, plane, steps):
        # the iterate-change clause fires after `steps` steps; capped at
        # exactly that many, it still wins the tie with max iterations
        for max_iter in (20_000, steps):
            stop = StoppingCriterion(max_iter=max_iter, iterate_change_tol=1e-5)
            generic, fast = descend_both(plane, stop)
            assert generic[2] == fast[2] == "iterate change"
            assert len(fast[1]) == steps + 1
            assert np.array_equal(generic[1], fast[1])
            assert np.array_equal(generic[0], fast[0])

    @pytest.mark.parametrize("plane", [False, True])
    def test_kernel_is_the_rosenbrock_cost(self, plane, rng):
        # k = 1, c = 0 gives the bits of rosenbrock_cost and rosenbrock_grad,
        # signed zeros included; on either geometry the float loop's first
        # step from each point, G^-1 included on the plane, is
        # gradient_descent's
        spec = RosenbrockProblem()
        geom = RosenbrockPlane() if plane else Euclidean(2)
        cost, egrad = rosenbrock_kernel(spec)
        one = StoppingCriterion(max_iter=1)
        points = [*rng.uniform(-1.5, 1.5, size=(50, 2)),
                  (1.0, 1.0), (1.0, 0.0), (0.0, 0.0), (-0.0, 0.0), (-0.5, 0.25)]
        for z in points:
            x1, x2 = float(z[0]), float(z[1])
            p = np.array([x1, x2])
            ref = (rosenbrock_cost(spec, p), *rosenbrock_grad(spec, p))
            assert ([float(v).hex() for v in (cost(x1, x2), *egrad(x1, x2))]
                    == [float(v).hex() for v in ref])
            fast, _, _ = solvers._descend_2d(plane, cost, egrad, p, ArmijoParams(), one)
            generic, _ = gradient_descent(
                geom, lambda q: rosenbrock_cost(spec, q),
                lambda q: geom.egrad_to_rgrad(q, rosenbrock_grad(spec, q)), p,
                ArmijoParams(), one)
            assert [float(v).hex() for v in fast] == [float(v).hex() for v in generic]
        # k and c are keyword-only: a stale plane flag raises, not binds to k
        with pytest.raises(TypeError):
            rosenbrock_kernel(spec, plane)

    @pytest.mark.parametrize("cost, start", [
        (lambda x1, x2: math.inf, (0.0, 0.0)),  # at the start
        (lambda x1, x2: x1 if x1 > 0.5 else -math.inf, (1.0, 0.0)),  # at the first step
    ])
    def test_non_finite_cost_is_hard_error(self, cost, start):
        stop = StoppingCriterion(max_iter=10)
        with pytest.raises(SolverError, match="cost"):
            solvers._descend_2d(False, cost, lambda x1, x2: (1.0, 0.0), start,
                                ArmijoParams(), stop)
        with pytest.raises(SolverError, match="cost"):
            gradient_descent(Euclidean(2), lambda p: cost(*p), lambda p: np.array([1.0, 0.0]),
                             np.array(start), ArmijoParams(), stop)

    def test_non_finite_gradient_is_hard_error(self):
        with pytest.raises(SolverError, match="gradient norm"):
            solvers._descend_2d(False, lambda x1, x2: x1 * x1, lambda x1, x2: (math.nan, 0.0),
                                (1.0, 0.0), ArmijoParams(), StoppingCriterion(max_iter=10))


TIE = StoppingCriterion(max_iter=10, grad_norm_tol=1e-6, iterate_change_tol=10.0)


def half_square_step(solver):
    """Run ``solver`` on f = x^2/2 from x = 0.5 under TIE.

    Its first step lands on (or within 1e-8 of) the minimizer 0, so the
    gradient-norm and iterate-change clauses both hold after it.
    """
    f = lambda x: 0.5 * float(x[0]) ** 2
    rgrad = lambda x: np.asarray(x, dtype=float)
    x0 = np.array([0.5])
    if solver == "gradient_descent":
        return gradient_descent(EUCLID1, f, rgrad, x0, ArmijoParams(), TIE)
    if solver == "trust_region_solve":
        return trust_region_solve(EUCLID1, f, rgrad, x0, TIE)
    if solver == "dca_solve":
        problem = DCProblem(geometry=EUCLID1, g_cost=f, h_cost=lambda x: 0.0,
                            h_rgrad=lambda x: np.zeros(1), g_rgrad=rgrad)
        sub = SubSolverSpec("gradient_descent",
                            StoppingCriterion(max_iter=50, grad_norm_tol=1e-12))
        return dca_solve(problem, x0, sub, TIE)
    assert solver == "frank_wolfe_solve"
    return frank_wolfe_solve(EUCLID1, rgrad, lambda p, g: np.zeros(1), x0, TIE, f)


class TestStoppingCriterion:
    @pytest.mark.parametrize("solver", ["gradient_descent", "trust_region_solve",
                                        "dca_solve", "frank_wolfe_solve"])
    def test_gradient_norm_wins_a_tie(self, solver):
        _, trace = half_square_step(solver)
        assert len(trace.f) == 2
        assert trace.step[1] <= TIE.iterate_change_tol
        assert trace.reason == "gradient norm"

    def test_rejected_trust_region_step_is_no_iterate_change(self):
        # f = x^4 - x^2 is concave at 0.1: the first step runs to the radius
        # boundary at 1.1, where f is larger, and is rejected
        f = lambda x: float(x[0]) ** 4 - float(x[0]) ** 2
        rgrad = lambda x: np.array([4.0 * float(x[0]) ** 3 - 2.0 * float(x[0])])
        stop = StoppingCriterion(max_iter=100, grad_norm_tol=1e-10, iterate_change_tol=1e-3)
        _, trace = trust_region_solve(EUCLID1, f, rgrad, np.array([0.1]), stop)
        assert trace.step[1] == 0.0 and trace.f[1] == trace.f[0]
        assert len(trace.f) > 2
        assert not (trace.reason == "iterate change" and trace.step[-1] == 0.0)

    def test_validation(self):
        for max_iter in (0, 1.5, 2.0, True):
            with pytest.raises(ValueError, match="max_iter must be a positive integer"):
                StoppingCriterion(max_iter=max_iter)
        assert StoppingCriterion(max_iter=np.int64(3)).max_iter == 3
        with pytest.raises(ValueError):
            StoppingCriterion(max_iter=10, grad_norm_tol=-1.0)

    def test_max_iter_reason(self):
        problem = logdet_dcproblem(LogDetProblem(2))
        _, trace = dca_solve(problem, bench.logdet_start(2), LOGDET_SUB,
                             StoppingCriterion(max_iter=3))
        assert trace.reason == "max iterations"
        assert len(trace.f) == 4  # initial row plus three steps


def spd_logdet_of(p):
    return float(np.sum(np.log(np.linalg.eigvalsh(p))))


COUNTS = ("inner_steps", "hessian_products", "tr_rejected")
COLUMNS = (*COUNTS, "step_size")


def check_columns(trace, filled):
    """Each column in ``filled`` has one entry per call of the step map, every
    other column is empty, and the summary totals the filled count columns."""
    summary = trace.summary()
    assert summary["steps"] == len(trace.f) - 1
    assert summary["reason"] == trace.reason
    # a step map that returns the current iterate adds a call and no row
    calls = summary["steps"] + (trace.reason in ("fixed point", "sub-solver failed"))
    for name in COLUMNS:
        assert len(getattr(trace, name)) == (calls if name in filled else 0), name
    totals = {name: sum(getattr(trace, name)) for name in COUNTS if name in filled}
    if "inner_steps" in filled:
        totals["capped_subsolves"] = len(trace.subsolver_failures)
    assert summary == {"steps": summary["steps"], "reason": trace.reason, **totals}


class TestStepColumns:
    def test_dca_fast_path(self, monkeypatch):
        # the 2-D float loop on the plane, its sub-solves capped at 20 steps
        monkeypatch.setattr(solvers, "gradient_descent", None)  # the fast path only
        sub = SubSolverSpec("gradient_descent",
                            StoppingCriterion(max_iter=20, grad_norm_tol=1e-16))
        _, trace = dca_solve(rosenbrock_dcproblem(RosenbrockProblem(), "rb"),
                             np.array(ROSENBROCK_START), sub, StoppingCriterion(max_iter=5))
        check_columns(trace, {"inner_steps"})
        assert trace.inner_steps == [20] * 5
        assert trace.summary()["capped_subsolves"] == 5

    @pytest.mark.parametrize("lam", [None, 1.0 / 6.0], ids=["dca", "dcppa"])
    def test_trust_region_subsolves(self, lam):
        problem = logdet_dcproblem(LogDetProblem(3))
        p0 = bench.logdet_start(3)
        _, trace = (dca_solve(problem, p0, LOGDET_SUB, LOGDET_STOP) if lam is None
                    else dcppa_solve(problem, p0, lam, LOGDET_SUB, LOGDET_STOP))
        assert trace.reason == "gradient norm"
        check_columns(trace, {"inner_steps", "hessian_products", "tr_rejected"})

    def test_fixed_point_adds_a_call(self):
        # a critical start: one sub-solve that returns p_0, and no step
        problem = logdet_dcproblem(LogDetProblem(2))
        p0 = math.exp(1.0 / (2.0 * math.sqrt(2.0))) * np.eye(2)
        _, trace = dcppa_solve(problem, p0, 0.25, LOGDET_SUB, StoppingCriterion(max_iter=10))
        assert (trace.reason, len(trace.inner_steps)) == ("fixed point", 1)
        check_columns(trace, {"inner_steps", "hessian_products", "tr_rejected"})

    def test_dca_generic_gradient_descent(self):
        sub = SubSolverSpec("gradient_descent",
                            StoppingCriterion(max_iter=200, grad_norm_tol=1e-10))
        _, trace = dca_solve(quartic_dcproblem(), np.array([2.0]), sub,
                             StoppingCriterion(max_iter=20, grad_norm_tol=1e-8))
        assert trace.summary()["steps"] > 1
        check_columns(trace, {"inner_steps"})

    def test_frechet_frank_wolfe_and_oracle_dca(self):
        # seed 0's instance: DCA's closed-form oracle fills no column
        prob, p0 = problems.random_frechet_instance(5, 20, 0)
        dc = problems.frechet_dcproblem(prob)
        _, tr_dca = dca_solve(dc, p0, None, bench.FRECHET_STOP)
        check_columns(tr_dca, set())
        _, tr_fw = frank_wolfe_solve(
            dc.geometry, lambda p: -problems.frechet_grad(prob, p),
            problems.frechet_linear_oracle(prob), p0,
            dataclasses.replace(bench.FRECHET_STOP, max_iter=tr_dca.summary()["steps"]),
            lambda p: -problems.frechet_variance(prob, p))
        check_columns(tr_fw, {"step_size"})
        assert tr_fw.step_size == [2.0 / (2.0 + k) for k in range(len(tr_fw.step_size))]

    def test_trust_region_alone(self):
        # sqrt(1 + x^2) from x = 10 rejects steps; each step makes its products
        f = lambda x: math.sqrt(1.0 + float(x[0]) ** 2)
        rgrad = lambda x: np.array([float(x[0]) / f(x)])
        _, trace = trust_region_solve(EUCLID1, f, rgrad, np.array([10.0]),
                                      StoppingCriterion(max_iter=60, grad_norm_tol=1e-6))
        check_columns(trace, {"hessian_products"})
        assert all(products >= 2 for products in trace.hessian_products)
