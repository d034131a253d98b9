import dataclasses
import math
import subprocess
import sys
from collections import Counter

import numpy as np
import pytest

from rdcopt import problems
from rdcopt.bench import (
    FRECHET_STOP,
    LOGDET_SUB,
    ROSENBROCK_START,
    ExperimentConfig,
    logdet_start,
    run_frechet,
)
from rdcopt.manifolds import SPDManifold
from rdcopt.matfun import (
    spd_logdet,
    spd_sqrt_inv_sqrt,
    sym_apply,
    sym_dlog,
    sym_eig,
    symmetrize,
    work_ledger,
)
from rdcopt.problems import (
    FrechetBoxProblem,
    LogDetProblem,
    RosenbrockProblem,
    ScalarFunction,
    box_feasible,
    box_linear_subproblem,
    box_slack,
    feasibility_safeguard,
    frechet_dcproblem,
    frechet_grad,
    frechet_linear_oracle,
    frechet_variance,
    log_power,
    logdet_dcproblem,
    random_frechet_instance,
    rosenbrock_cost,
    rosenbrock_dcproblem,
    rosenbrock_grad,
)
from rdcopt.solvers import (
    SolverError,
    StoppingCriterion,
    dca_solve,
    is_critical,
    trust_region_solve,
)

import golden
from conftest import (
    check_gradient,
    check_hessian,
    check_self_adjoint,
    det_hessian_quadform,
    random_spd,
    random_sym,
    sample_directions,
    tangent_map,
)
from trdet import TrDetProblem, trdet_dcproblem



def logm_sym(a):
    return sym_apply(a, np.log)


def rosenbrock_subproblem(spec: RosenbrockProblem, q):
    """Reference DC surrogate at iterate q (cost and Euclidean gradient): the
    unfused formula behind ``rosenbrock_dcproblem``'s ``subproblem_2d``.

    phi(p) = a(p1^2-p2)^2 + 2(p1-b)^2 - 2(q1-b) p1 up to a constant; the
    linear term is <grad h(q), log_q(p)> evaluated through the plane metric,
    and the same expression is the flat-space surrogate.
    """
    a, b = spec.a, spec.b
    c = 2.0 * (float(q[0]) - b)

    def cost(p):
        x1, x2 = float(p[0]), float(p[1])
        v = x1 * x1 - x2
        w = x1 - b
        return a * v * v + 2.0 * w * w - c * x1

    def egrad(p):
        x1, x2 = float(p[0]), float(p[1])
        v = a * (x1 * x1 - x2)
        return np.array([4.0 * v * x1 + 4.0 * (x1 - b) - c, -2.0 * v])

    return cost, egrad


def box_objective(s, x, z):
    return float(np.trace(s @ logm_sym(symmetrize(x @ z @ x))))


def brute_force_box_optimum(s, x, lower, upper, n_angles=91, n_axis=61):
    """Dense grid oracle for the 2x2 Loewner-box linear subproblem.

    Transformed problem: minimize tr(D log Zh) over Lh <= Zh <= Uh with
    Zh = Lh + B^{1/2} V B^{1/2}, V = R(theta) diag(v1, v2) R(theta)^T in
    [0, I]; the grid over (theta, v1, v2) covers the feasible set, followed
    by a local refinement around the best cell. Uses the closed-form 2x2
    symmetric eigenvalues, fully vectorized.
    """
    d, q = np.linalg.eigh(symmetrize(s))
    xq = x @ q
    lh = symmetrize(xq.T @ lower @ xq)
    uh = symmetrize(xq.T @ upper @ xq)
    b = symmetrize(uh - lh)
    w, v = np.linalg.eigh(b)
    b_sqrt = (v * np.sqrt(w)) @ v.T

    def batch(thetas, v1s, v2s):
        t, v1, v2 = np.meshgrid(thetas, v1s, v2s, indexing="ij")
        c, sn = np.cos(t), np.sin(t)
        va = c * c * v1 + sn * sn * v2
        vb = c * sn * (v1 - v2)
        vc = sn * sn * v1 + c * c * v2
        b11, b12, b22 = b_sqrt[0, 0], b_sqrt[0, 1], b_sqrt[1, 1]
        m11 = va * b11 + vb * b12
        m12 = va * b12 + vb * b22
        m21 = vb * b11 + vc * b12
        m22 = vb * b12 + vc * b22
        a = lh[0, 0] + b11 * m11 + b12 * m21
        bb = lh[0, 1] + b11 * m12 + b12 * m22
        cc = lh[1, 1] + b12 * m12 + b22 * m22
        half = 0.5 * (a + cc)
        rad = np.sqrt(np.maximum(0.25 * (a - cc) ** 2 + bb ** 2, 0.0))
        l1 = np.maximum(half - rad, 1e-300)
        l2 = np.maximum(half + rad, 1e-300)
        near = (l2 - l1) <= 1e-14 * np.maximum(1.0, l2)
        with np.errstate(divide="ignore", invalid="ignore"):
            beta = np.where(near, 1.0 / half, (np.log(l2) - np.log(l1)) / (l2 - l1))
        alpha = np.log(l1) - beta * l1
        return d[0] * (alpha + beta * a) + d[1] * (alpha + beta * cc)

    thetas = np.linspace(0.0, np.pi, n_angles)
    axis = np.linspace(0.0, 1.0, n_axis)
    values = batch(thetas, axis, axis)
    idx = np.unravel_index(np.argmin(values), values.shape)
    best = float(values[idx])
    t0, v10, v20 = thetas[idx[0]], axis[idx[1]], axis[idx[2]]
    dt, dv = np.pi / (n_angles - 1), 1.0 / (n_axis - 1)
    for _ in range(3):
        ts = np.linspace(t0 - dt, t0 + dt, 21)
        v1s = np.clip(np.linspace(v10 - dv, v10 + dv, 21), 0.0, 1.0)
        v2s = np.clip(np.linspace(v20 - dv, v20 + dv, 21), 0.0, 1.0)
        values = batch(ts, v1s, v2s)
        idx = np.unravel_index(np.argmin(values), values.shape)
        best = min(best, float(values[idx]))
        t0, v10, v20 = ts[idx[0]], v1s[idx[1]], v2s[idx[2]]
        dt, dv = dt / 10.0, dv / 10.0
    return best


class TestScalarFunctions:
    def test_log_power_derivatives(self):
        phi = log_power(4)
        for t in (0.5, 1.3, 7.0):
            h = 1e-6 * t
            fd1 = (phi.value(t + h) - phi.value(t - h)) / (2 * h)
            fd2 = (phi.d1(t + h) - phi.d1(t - h)) / (2 * h)
            assert abs(phi.d1(t) - fd1) <= 1e-5 * (1 + abs(fd1))
            assert abs(phi.d2(t) - fd2) <= 1e-5 * (1 + abs(fd2))

    def test_convexity_condition_enforced(self):
        bad = ScalarFunction(lambda t: -t * t, lambda t: -2.0 * t, lambda t: -2.0)
        with pytest.raises(ValueError, match="convexity"):
            LogDetProblem(3, phi1=bad)

    def test_trdet_condition_enforced(self):
        decreasing = ScalarFunction(lambda t: -t, lambda t: -1.0, lambda t: 0.0)
        with pytest.raises(ValueError):
            TrDetProblem(3, phi1=decreasing)


class TestLogDetProblem:
    def test_size_is_a_positive_integer(self):
        # 2.5 would silently become SPD(2)
        for n in (0, -1, 2.5, 2.0, True):
            with pytest.raises(ValueError, match="positive integer"):
                LogDetProblem(n)
        assert logdet_dcproblem(LogDetProblem(np.int64(3))).geometry.n == 3

    def test_identity_point(self):
        problem = logdet_dcproblem(LogDetProblem(3))
        eye = np.eye(3)
        assert problem.cost(eye) == 0.0
        assert np.abs(problem.g_rgrad(eye)).max() == 0.0
        assert np.abs(problem.h_rgrad(eye)).max() == 0.0

    def test_critical_set(self):
        n = 4
        problem = logdet_dcproblem(LogDetProblem(n))
        p = math.exp(1.0 / (n * math.sqrt(2.0))) * np.eye(n)
        ok, residual = is_critical(problem, p, 1e-8)
        assert ok, residual
        assert abs(problem.cost(p) + 0.25) <= 1e-12

    def test_initial_cost_scalar_oracle(self):
        for n in (2, 5, 8):
            problem = logdet_dcproblem(LogDetProblem(n))
            p0 = logdet_start(n)
            t = n * math.log(math.log(n))
            assert problem.cost(p0) == pytest.approx(t ** 4 - t ** 2, rel=1e-12)

    def test_gradients_match_finite_differences(self, rng):
        problem = logdet_dcproblem(LogDetProblem(3))
        geom = problem.geometry
        for _ in range(5):
            p = random_spd(rng, 3)
            dirs = sample_directions(geom, rng, p, 3)
            check_gradient(geom, problem.g_cost, problem.g_rgrad, p, dirs)
            check_gradient(geom, problem.h_cost, problem.h_rgrad, p, dirs)

    def test_subproblem_value_at_iterate(self, rng):
        spec = LogDetProblem(3)
        q = random_spd(rng, 3)
        cost, _ = logdet_dcproblem(spec).subproblem(q, None)
        det_q = math.exp(spd_logdet(q))
        assert cost(q) == pytest.approx(spec.phi1.value(det_q), rel=1e-12)

    def test_subproblem_gradient_fd(self, rng):
        spec = LogDetProblem(3)
        geom = SPDManifold(3)
        q = random_spd(rng, 3)
        cost, rgrad = logdet_dcproblem(spec).subproblem(q, None)
        for _ in range(3):
            p = random_spd(rng, 3)
            check_gradient(geom, cost, rgrad, p, sample_directions(geom, rng, p, 3))

    @staticmethod
    def _surrogate_at(rng, n):
        """The log-det problem's surrogate at a random iterate q, and a random
        point p with log det p = 1/2."""
        problem = logdet_dcproblem(LogDetProblem(n))
        geom = problem.geometry
        q = random_spd(rng, n)
        p = random_spd(rng, n)
        p = p * math.exp((0.5 - geom.logdet(p)) / n)
        x = problem.h_rgrad(q)
        _, rgrad = problem.subproblem(q, x)
        return problem, p, rgrad, tangent_map(geom, p, problem.subproblem_hessian(q, x)(p))

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_subproblem_hessian_matches_gradient_differences(self, rng, n):
        problem, p, rgrad, hess = self._surrogate_at(rng, n)
        directions = [random_sym(rng, n) for _ in range(3)] + [p]
        check_hessian(problem.geometry, rgrad, hess, p, directions)

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_subproblem_hessian_self_adjoint(self, rng, n):
        problem, p, _, hess = self._surrogate_at(rng, n)
        check_self_adjoint(problem.geometry, hess, p, [random_sym(rng, n) for _ in range(6)])

    def test_subproblem_hessian_quadratic_form(self, rng):
        # the independent scalar formula for <Hess phi1(det .) X, X>_p
        problem, p, _, hess = self._surrogate_at(rng, 3)
        geom, phi1 = problem.geometry, LogDetProblem(3).phi1
        for _ in range(5):
            x = random_sym(rng, 3)
            ref = det_hessian_quadform(geom, p, phi1.d1, phi1.d2, x)
            assert abs(geom.inner(p, hess(x), x) - ref) <= 1e-12 * (abs(ref) + geom.inner(p, x, x))

    def test_subproblem_minimizer_stationarity(self, rng):
        # for the defaults the minimizer satisfies 4 (log det p)^3 = 2 log det q
        spec = LogDetProblem(3)
        geom = SPDManifold(3)
        q = random_spd(rng, 3, scale=1.5)
        cost, rgrad = logdet_dcproblem(spec).subproblem(q, None)
        p_hat, trace = trust_region_solve(
            geom, cost, rgrad, q, LOGDET_SUB.criterion)
        assert trace.reason == "gradient norm"
        lhs = 4.0 * spd_logdet(p_hat) ** 3
        rhs = 2.0 * spd_logdet(q)
        assert abs(lhs - rhs) <= 1e-8 * (1.0 + abs(rhs))

    def test_convexity_certificates(self, rng):
        geom = SPDManifold(3)
        spec = LogDetProblem(3)
        for _ in range(10):
            p = random_spd(rng, 3)
            x = random_sym(rng, 3)
            assert det_hessian_quadform(geom, p, spec.phi1.d1, spec.phi1.d2, x) >= -1e-10
            assert det_hessian_quadform(geom, p, spec.phi2.d1, spec.phi2.d2, x) >= -1e-10
            # -log det has exactly zero Hessian
            neg_log = (lambda t: -1.0 / t, lambda t: 1.0 / t ** 2)
            q = det_hessian_quadform(geom, p, *neg_log, x)
            assert abs(q) <= 1e-10 * (1.0 + geom.inner(p, x, x))


class TestTrDetProblem:
    def test_gradient_at_identity(self):
        spec = TrDetProblem(3)
        problem = trdet_dcproblem(spec)
        eye = np.eye(3)
        np.testing.assert_allclose(problem.g_rgrad(eye), spec.phi1.d1(3.0) * eye)

    def test_identity_is_critical_for_default_family(self):
        # a1 b1 n^(b1-1) = a2 b2 pins the identity as a critical point
        for n in (2, 3, 5):
            problem = trdet_dcproblem(TrDetProblem(n))
            ok, residual = is_critical(problem, np.eye(n), 1e-10)
            assert ok, residual

    def test_gradients_match_finite_differences(self, rng):
        problem = trdet_dcproblem(TrDetProblem(3))
        geom = problem.geometry
        for _ in range(5):
            p = random_spd(rng, 3)
            dirs = sample_directions(geom, rng, p, 3)
            check_gradient(geom, problem.g_cost, problem.g_rgrad, p, dirs)
            check_gradient(geom, problem.h_cost, problem.h_rgrad, p, dirs)

    def test_descent_from_twice_identity(self):
        problem = trdet_dcproblem(TrDetProblem(3))
        _, trace = dca_solve(problem, 2.0 * np.eye(3), LOGDET_SUB,
                             StoppingCriterion(max_iter=4))
        fs = np.asarray(trace.f)
        assert len(fs) >= 3
        assert np.all(np.diff(fs) <= 1e-10)


class TestRosenbrock:
    def test_initial_cost(self):
        spec = RosenbrockProblem()
        assert rosenbrock_cost(spec, np.array(ROSENBROCK_START)) == pytest.approx(7220.81, abs=1e-9)

    def test_minimizer(self):
        spec = RosenbrockProblem()
        p_star = np.array([1.0, 1.0])
        assert rosenbrock_cost(spec, p_star) == 0.0
        np.testing.assert_allclose(rosenbrock_grad(spec, p_star), np.zeros(2))

    def test_h_gradient_form(self, rng):
        spec = RosenbrockProblem()
        problem = rosenbrock_dcproblem(spec, "euclidean")
        for _ in range(5):
            p = rng.standard_normal(2)
            np.testing.assert_allclose(problem.h_rgrad(p),
                                       [2.0 * (p[0] - spec.b), 0.0], atol=1e-14)

    @pytest.mark.parametrize("geometry", ["euclidean", "rb"])
    def test_gradients_match_finite_differences(self, geometry, rng):
        spec = RosenbrockProblem(a=10.0, b=1.0)  # moderate scale for fd accuracy
        problem = rosenbrock_dcproblem(spec, geometry)
        geom = problem.geometry
        for _ in range(5):
            p = rng.standard_normal(2)
            dirs = sample_directions(geom, rng, p, 3)
            check_gradient(geom, problem.g_cost, problem.g_rgrad, p, dirs)
            check_gradient(geom, problem.h_cost, problem.h_rgrad, p, dirs)
            check_gradient(geom, lambda z: rosenbrock_cost(spec, z),
                           lambda z: geom.egrad_to_rgrad(z, rosenbrock_grad(spec, z)),
                           p, dirs)

    @pytest.mark.parametrize("geometry", ["euclidean", "rb"])
    def test_g_matches_unfused_reference_bit_for_bit(self, geometry, rng):
        # at q1 = b the reference surrogate's linear term vanishes and it is
        # g; at x1 < 0 the kernel subtracts c x1 = -0.0 from g >= +0
        spec = RosenbrockProblem()
        problem = rosenbrock_dcproblem(spec, geometry)
        geom = problem.geometry
        ref_cost, ref_egrad = rosenbrock_subproblem(spec, np.array([spec.b, 0.0]))
        points = np.vstack([rng.uniform(-1.5, 1.5, size=(20, 2)),
                            [[-0.5, 0.25], [-1.0, 0.0], [0.0, 0.0], [1.0, 1.0]]])
        bits = lambda v: np.asarray(v, dtype=float).tobytes()
        for z in points:
            v, w = z[0] * z[0] - z[1], z[0] - spec.b
            assert bits(problem.g_cost(z)) == bits(ref_cost(z)) == bits(spec.a * v * v + 2.0 * w * w)
            assert bits(problem.g_rgrad(z)) == bits(geom.egrad_to_rgrad(z, ref_egrad(z)))

    def test_geometry_name_checked(self):
        with pytest.raises(ValueError, match="geometry must be"):
            rosenbrock_dcproblem(RosenbrockProblem(), "plane")

    def test_split_reconstructs_cost(self, rng):
        spec = RosenbrockProblem()
        problem = rosenbrock_dcproblem(spec, "rb")
        for _ in range(10):
            p = rng.standard_normal(2)
            assert problem.cost(p) == pytest.approx(rosenbrock_cost(spec, p), rel=1e-12)

    def test_subproblem_reduces_to_g_when_linear_term_vanishes(self, rng):
        spec = RosenbrockProblem(a=3.0, b=1.0)
        problem = rosenbrock_dcproblem(spec, "euclidean")
        cost, _ = rosenbrock_subproblem(spec, np.array([spec.b, 0.37]))
        for _ in range(5):
            p = rng.standard_normal(2)
            assert cost(p) == pytest.approx(problem.g_cost(p), rel=1e-12)

    def test_subproblem_gradient(self, rng):
        spec = RosenbrockProblem(a=7.0, b=2.0)
        q = rng.standard_normal(2)
        cost, egrad = rosenbrock_subproblem(spec, q)
        # vanishing at the minimizer when the iterate already sits there
        cost0, egrad0 = rosenbrock_subproblem(spec, np.array([spec.b, spec.b ** 2]))
        np.testing.assert_allclose(egrad0(np.array([spec.b, spec.b ** 2])), np.zeros(2),
                                   atol=1e-14)
        for _ in range(5):
            p = rng.standard_normal(2)
            h = 1e-6
            for e in (np.array([1.0, 0.0]), np.array([0.0, 1.0])):
                fd = (cost(p + h * e) - cost(p - h * e)) / (2 * h)
                assert abs(float(egrad(p) @ e) - fd) <= 1e-5 * (1.0 + abs(fd))
        # second gradient component zero forces p2 = p1^2
        p = rng.standard_normal(2)
        g = egrad(p)
        if abs(g[1]) < 1e-12:
            assert abs(p[0] ** 2 - p[1]) < 1e-10

    def test_h_convex_along_plane_geodesics(self, rng):
        spec = RosenbrockProblem()
        problem = rosenbrock_dcproblem(spec, "rb")
        geom = problem.geometry
        for _ in range(10):
            p, q = rng.standard_normal(2), rng.standard_normal(2)
            mid = geom.geodesic(p, q, 0.5)
            second_diff = problem.h_cost(p) + problem.h_cost(q) - 2.0 * problem.h_cost(mid)
            assert second_diff >= -1e-10


def _weighted_log_sum(prob, factor, inverse_points):
    """sum_j mu_j log(factor q_j factor), or with q_j^{-1} when ``inverse_points``."""
    acc = np.zeros((prob.geometry.n, prob.geometry.n))
    for mu, q in zip(prob.weights, prob.points):
        data = np.linalg.inv(q) if inverse_points else q
        w, v = sym_eig(symmetrize(factor @ data @ factor))
        acc += mu * symmetrize((v * np.log(w)) @ v.T)
    return acc


def frechet_grad_alt(prob, p):
    """Reference form 2 sum_j mu_j p^{1/2} log(p^{1/2} q_j^{-1} p^{1/2}) p^{1/2} of grad h."""
    s, _ = spd_sqrt_inv_sqrt(p)
    return 2.0 * symmetrize(s @ _weighted_log_sum(prob, s, True) @ s)


def frechet_subproblem_matrix(prob, p):
    """s = 2 sum_j mu_j log(p^{-1/2} q_j p^{-1/2}) = -p^{-1/2} grad h(p) p^{-1/2}."""
    _, si = spd_sqrt_inv_sqrt(p)
    return 2.0 * _weighted_log_sum(prob, si, False)


def frechet_subproblem_matrix_alt(prob, p):
    """Reference form -2 sum_j mu_j log(p^{1/2} q_j^{-1} p^{1/2}) of the same matrix."""
    s, _ = spd_sqrt_inv_sqrt(p)
    return -2.0 * _weighted_log_sum(prob, s, True)


def reference_frechet_variance(prob, p):
    """frechet_variance one point at a time."""
    _, si = spd_sqrt_inv_sqrt(p)
    total = 0.0
    for mu, q in zip(prob.weights, prob.points):
        w, _ = sym_eig(symmetrize(si @ q @ si))
        total += mu * float(np.sum(np.log(w) ** 2))
    return total


def reference_frechet_grad(prob, p):
    """frechet_grad one point at a time."""
    s, si = spd_sqrt_inv_sqrt(p)
    return -2.0 * symmetrize(s @ _weighted_log_sum(prob, si, False) @ s)


@pytest.fixture
def frechet_instance(rng):
    prob, p0 = random_frechet_instance(4, 8, seed=7)
    return prob, p0


class TestFrechetProblem:
    def test_single_point_variance(self, rng):
        q = random_spd(rng, 3)
        prob = FrechetBoxProblem(points=q[None, :, :], weights=np.ones(1),
                                 lower=0.5 * np.eye(3), upper=10.0 * np.eye(3))
        assert frechet_variance(prob, q) == pytest.approx(0.0, abs=1e-18)
        np.testing.assert_allclose(frechet_grad(prob, q), np.zeros((3, 3)), atol=1e-10)
        np.testing.assert_allclose(frechet_subproblem_matrix(prob, q),
                                   np.zeros((3, 3)), atol=1e-10)

    def test_gradient_forms_agree(self, frechet_instance, rng):
        prob, _ = frechet_instance
        for _ in range(5):
            p = random_spd(rng, prob.geometry.n)
            g1 = frechet_grad(prob, p)
            g2 = frechet_grad_alt(prob, p)
            assert np.abs(g1 - g2).max() <= 1e-9 * (1.0 + np.abs(g1).max())
            s1 = frechet_subproblem_matrix(prob, p)
            s2 = frechet_subproblem_matrix_alt(prob, p)
            assert np.abs(s1 - s2).max() <= 1e-9 * (1.0 + np.abs(s1).max())

    def test_gradient_is_weighted_log_mean(self, frechet_instance, rng):
        prob, _ = frechet_instance
        geom = SPDManifold(prob.geometry.n)
        for _ in range(3):
            p = random_spd(rng, prob.geometry.n)
            expected = -2.0 * sum(mu * geom.log(p, q)
                                  for mu, q in zip(prob.weights, prob.points))
            np.testing.assert_allclose(frechet_grad(prob, p), expected, atol=1e-9)
            check_gradient(geom, lambda z: frechet_variance(prob, z),
                           lambda z: frechet_grad(prob, z), p,
                           sample_directions(geom, rng, p, 3))

    def test_stacked_evaluation_matches_point_loop(self, rng):
        for n, m in ((5, 20), (10, 100)):
            prob, p0 = random_frechet_instance(n, m, seed=3)
            for p in (p0, prob.lower, random_spd(rng, n)):
                assert frechet_variance(prob, p) == reference_frechet_variance(prob, p)
                assert np.array_equal(frechet_grad(prob, p), reference_frechet_grad(prob, p))

    def test_subproblem_matrix_pairing_identity(self, frechet_instance, rng):
        # <-grad h(p), log_p(z)>_p = tr(s log(p^-1/2 z p^-1/2))
        prob, _ = frechet_instance
        geom = SPDManifold(prob.geometry.n)
        for _ in range(5):
            p = random_spd(rng, prob.geometry.n)
            z = random_spd(rng, prob.geometry.n)
            lhs = geom.inner(p, -frechet_grad(prob, p), geom.log(p, z))
            s = frechet_subproblem_matrix(prob, p)
            _, si = spd_sqrt_inv_sqrt(p)
            rhs = float(np.trace(s @ logm_sym(symmetrize(si @ z @ si))))
            assert abs(lhs - rhs) <= 1e-9 * (1.0 + abs(lhs))


def _reference_clip01(v):
    w, q = np.linalg.eigh(symmetrize(v))
    return symmetrize((q * np.clip(w, 0.0, 1.0)) @ q.T)


def _reference_tr_d_log(d, z):
    # tr(diag(d) log z) for SPD z
    w, q = np.linalg.eigh(z)
    if w[0] <= 0.0:
        return np.inf
    return float(np.sum(d * ((q * np.log(w)) @ q.T).diagonal()))


def _reference_projected_gradient(d, lh, b_sqrt, v0, objective, max_iter=300):
    """One start's projected gradient, one trial step at a time; also returns its iterations."""
    v = _reference_clip01(v0)
    f = objective(v)
    t = 1.0
    d_mat = np.diag(d)
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        z = symmetrize(lh + b_sqrt @ v @ b_sqrt)
        g = symmetrize(b_sqrt @ sym_dlog(z, d_mat) @ b_sqrt)
        t = min(4.0 * t, 1e8)
        improved = False
        while t > 1e-18:
            v_new = _reference_clip01(v - t * g)
            f_new = objective(v_new)
            if f_new < f - 1e-15 * (1.0 + abs(f)):
                v, f = v_new, f_new
                improved = True
                break
            t *= 0.25
        if not improved:
            break
    return v, f, iterations


def reference_box_runs(s, x, lower, upper):
    """The box oracle's six starts run one after another, one matrix at a time.

    Returns each start's final (v, f, iterations), and the map from a v to
    the oracle's point.
    """
    s = symmetrize(s)
    x = symmetrize(x)
    n = s.shape[0]
    d, q = sym_eig(s)
    xq = x @ q
    lh = symmetrize(xq.T @ lower @ xq)
    uh = symmetrize(xq.T @ upper @ xq)
    b = symmetrize(uh - lh)
    wb, qb = sym_eig(b)
    b_sqrt = symmetrize((qb * np.sqrt(wb)) @ qb.T)
    b_inv_sqrt = symmetrize((qb / np.sqrt(wb)) @ qb.T)
    mask = np.diag((d < 0.0).astype(float))
    p_chol = np.linalg.cholesky(b).T
    corners = [symmetrize(p_chol.T @ mask @ p_chol), symmetrize(b_sqrt @ mask @ b_sqrt)]
    starts = [_reference_clip01(b_inv_sqrt @ w @ b_inv_sqrt) for w in corners]
    starts += [
        np.zeros((n, n)),
        np.eye(n),
        0.5 * np.eye(n),
        _reference_clip01(b_inv_sqrt @ (np.eye(n) - lh) @ b_inv_sqrt),
    ]

    def objective(v):
        return _reference_tr_d_log(d, symmetrize(lh + b_sqrt @ v @ b_sqrt))

    x_inv = np.linalg.inv(x)

    def to_z(v):
        zh = symmetrize(lh + b_sqrt @ v @ b_sqrt)
        return symmetrize(x_inv @ q @ zh @ q.T @ x_inv)

    return [_reference_projected_gradient(d, lh, b_sqrt, v0, objective) for v0 in starts], to_z


def reference_box_linear_subproblem(s, x, lower, upper):
    """The box oracle run as :func:`reference_box_runs` does.

    Returns the oracle's point, from the first start with the least
    objective, and the iterations each start ran.
    """
    runs, to_z = reference_box_runs(s, x, lower, upper)
    best_v, _, _ = min(runs, key=lambda run: run[1])
    return to_z(best_v), [its for _, _, its in runs]


def oracle_eigh_work(n, m, seed):
    """The ``eigh`` calls and matrices in the work ledger that the box oracle
    makes during DCA on ``random_frechet_instance(n, m, seed)``."""
    oracle, work = problems._box_oracle, Counter()

    def counted(*args):
        before = work_ledger()
        try:
            return oracle(*args)
        finally:
            work.update(work_ledger() - before)

    problems._box_oracle = counted
    try:
        prob, p0 = random_frechet_instance(n, m, seed)
        dca_solve(frechet_dcproblem(prob), p0, None, FRECHET_STOP)
    finally:
        problems._box_oracle = oracle
    return work["eigh.calls"], work["eigh.matrices"]


class TestBoxLinearSubproblem:
    def test_diagonal_worked_instance(self):
        z = box_linear_subproblem(np.diag([-1.0, 1.0]), np.eye(2),
                                  0.5 * np.eye(2), 2.0 * np.eye(2))
        np.testing.assert_allclose(z, np.diag([2.0, 0.5]), atol=1e-9)

    def test_zero_objective_returns_lower_anchor(self, rng):
        lower = random_spd(rng, 2, 0.5)
        upper = symmetrize(lower + random_spd(rng, 2))
        x = random_spd(rng, 2)
        z = box_linear_subproblem(np.zeros((2, 2)), x, lower, upper)
        np.testing.assert_allclose(z, lower, atol=1e-9)
        assert box_slack(z, lower, upper) >= -1e-10

    def test_random_instances_beat_brute_force(self, rng):
        for _ in range(25):
            s = random_sym(rng, 2)
            x = random_spd(rng, 2)
            lower = random_spd(rng, 2, 0.5)
            upper = symmetrize(lower + random_spd(rng, 2))
            z = box_linear_subproblem(s, x, lower, upper)
            assert box_slack(z, lower, upper) >= -1e-10
            obj = box_objective(s, x, z)
            brute = brute_force_box_optimum(s, x, lower, upper)
            assert obj <= brute + 1e-6

    def test_matches_per_start_reference(self, rng):
        for n in (2, 3, 5, 10):
            for _ in range(4):
                s = random_sym(rng, n)
                x = random_spd(rng, n)
                lower = random_spd(rng, n, 0.5)
                upper = symmetrize(lower + random_spd(rng, n))
                expected, _ = reference_box_linear_subproblem(s, x, lower, upper)
                assert np.array_equal(box_linear_subproblem(s, x, lower, upper), expected)

    def test_every_start_matches_per_start_reference(self, monkeypatch, rng):
        # the oracle's point shows only the winning start: compare each
        # start's final v and f, so that a slip in a losing start shows too
        runs, inner = [], problems._box_projected_gradient

        def recording(*args):
            runs.append(inner(*args))
            return runs[-1]

        monkeypatch.setattr(problems, "_box_projected_gradient", recording)
        for n in (2, 3, 5, 10):
            for _ in range(4):
                s = random_sym(rng, n)
                x = random_spd(rng, n)
                lower = random_spd(rng, n, 0.5)
                upper = symmetrize(lower + random_spd(rng, n))
                box_linear_subproblem(s, x, lower, upper)
                v, f = runs.pop()
                expected, _ = reference_box_runs(s, x, lower, upper)
                assert len(expected) == len(v) == len(f) == 6
                for i, (v_ref, f_ref, _) in enumerate(expected):
                    assert np.array_equal(v[i], v_ref) and f[i] == f_ref, (n, i)

    def test_dca_oracle_calls_match_reference(self, monkeypatch, tmp_path):
        oracle = problems._box_oracle
        # seed 42 at (5, 20) is the CLI's default instance, on which DCA ends
        # on "no feasible step": the safeguard cannot walk an answer into the box
        for n, m, seed in ((5, 20, 15), (10, 100, 1), (5, 20, 42)):
            calls = []

            def recording(s, x, lower, upper):
                z = oracle(s, x, lower, upper)
                calls.append((s, x, lower, upper, z))
                return z

            # both solvers' oracles call the checked oracle's core; run them
            # as `rdcopt bench frechet` does, DCA then Frank-Wolfe
            monkeypatch.setattr(problems, "_box_oracle", recording)
            summary = run_frechet(ExperimentConfig(out_dir=tmp_path, seed=seed, n=n, m=m))
            assert len(calls) >= summary["dca"]["steps"] + summary["frank_wolfe"]["steps"]
            # Frank-Wolfe's first call repeats DCA's: check each input once
            checked, longest = {}, []
            for s, x, lower, upper, z in calls:
                key = b"".join(a.tobytes() for a in (s, x, lower, upper))
                if key not in checked:
                    checked[key] = reference_box_linear_subproblem(s, x, lower, upper)
                expected, its = checked[key]
                assert np.array_equal(z, expected)
                longest.append(max(its))
            if seed == 15:
                # this first call runs its starts to the iteration cap
                assert longest[0] == 300

    def test_dca_oracle_decomposes_only_trials_that_can_count(self):
        # the counts depend on the iterates, so on the BLAS kernel: pin it
        reason = golden.skip_reason()
        if reason is not None:
            pytest.skip(reason)
        run = subprocess.run(
            [sys.executable, "-c", "import test_problems as t; "
             "print(*t.oracle_eigh_work(5, 20, 15), *t.oracle_eigh_work(5, 20, 0))"],
            env=golden.pinned_env(), capture_output=True, text=True, check=True)
        # (690, 8200) and (84, 1056) when the starts ran in lockstep: each
        # iteration took its own gradient call, then chunks until every start
        # was done, each chunk cut to the most trials any start had left
        assert run.stdout.split() == ["666", "8184", "54", "1004"]

    def test_deterministic(self, rng):
        s = random_sym(rng, 3)
        x = random_spd(rng, 3)
        lower = random_spd(rng, 3, 0.5)
        upper = symmetrize(lower + random_spd(rng, 3))
        z1 = box_linear_subproblem(s, x, lower, upper)
        z2 = box_linear_subproblem(s, x, lower, upper)
        np.testing.assert_array_equal(z1, z2)

    def test_degenerate_box_rejected(self, rng):
        lower = random_spd(rng, 2)
        with pytest.raises(ValueError, match="degenerate box"):
            box_linear_subproblem(np.eye(2), np.eye(2), lower, lower)


class TestSafeguard:
    def test_feasible_returned_unchanged(self, rng):
        lower = 0.5 * np.eye(2)
        upper = 2.0 * np.eye(2)
        q = np.eye(2)
        assert feasibility_safeguard(np.eye(2), q, lower, upper, SPDManifold(2)) is q

    def test_small_violation_restored(self):
        lower = 0.5 * np.eye(2)
        upper = 2.0 * np.eye(2)
        p_prev = np.eye(2)
        q_star = upper + 2e-13 * np.eye(2)  # the violation scale seen in practice
        assert not box_feasible(q_star, lower, upper)
        out = feasibility_safeguard(p_prev, q_star, lower, upper, SPDManifold(2))
        assert box_feasible(out, lower, upper)
        assert SPDManifold(2).dist(out, q_star) <= 1e-9

    def test_previous_iterate_is_fallback(self):
        lower = 0.5 * np.eye(2)
        upper = 2.0 * np.eye(2)
        p_prev = np.eye(2)
        out = feasibility_safeguard(p_prev, p_prev, lower, upper, SPDManifold(2))
        assert out is p_prev


class TestBoxFeasible:
    @pytest.mark.parametrize("diag, decompositions", [
        ((2.0, 2.0, 2.0), 2),  # inside
        ((4.0, 2.0, 2.0), 1),  # above upper
        ((0.5, 2.0, 2.0), 2),  # below lower
        ((4.0, 0.5, 2.0), 1),  # both
    ], ids=["neither", "upper", "lower", "both"])
    def test_matches_slack_sign(self, rng, diag, decompositions):
        lower, upper = np.eye(3), 3.0 * np.eye(3)
        # the same point in a random basis, so the bounds do not commute with it
        q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        p = symmetrize(q @ np.diag(diag) @ q.T)
        want = box_slack(p, lower, upper) >= 0.0
        before = work_ledger()
        assert box_feasible(p, lower, upper) == want
        # a violated upper bound decides without decomposing p - lower
        assert (work_ledger() - before)["eigvalsh.calls"] == decompositions

    def test_matches_slack_sign_at_round_off(self):
        # oracle answers sit on the box boundary, some outside it by round-off
        # and the safeguard's answers just inside it
        verdicts = []
        for seed in range(6):
            prob, p0 = random_frechet_instance(5, 20, seed)
            box = prob.lower, prob.upper
            z = frechet_linear_oracle(prob)(p0, -frechet_grad(prob, p0))
            for point in (z, feasibility_safeguard(p0, z, *box, prob.geometry)):
                verdicts.append(box_feasible(point, *box))
                assert verdicts[-1] == (box_slack(point, *box) >= 0.0)
        assert set(verdicts) == {True, False}

    @pytest.mark.parametrize("seed", [0, 2])
    def test_dc_run_tests_each_point_once(self, monkeypatch, seed):
        # g_cost tests the start; the hook anchors its safeguard there without
        # a second test, and g_cost reads the safeguard's verdict on its answer
        prob, p0 = random_frechet_instance(5, 20, seed)
        dc = frechet_dcproblem(prob)
        tested = []
        feasible = problems.box_feasible
        monkeypatch.setattr(problems, "box_feasible",
                            lambda p, lo, up: tested.append(p.tobytes()) or feasible(p, lo, up))
        _, trace = dca_solve(dc, p0, None, FRECHET_STOP)
        assert trace.summary()["steps"] >= 2
        assert tested[0] == p0.tobytes()
        assert len(set(tested)) == len(tested)


class TestRandomInstance:
    def test_problem_validates_points_and_weights(self):
        prob, _ = random_frechet_instance(2, 3, seed=0)
        box = {"lower": prob.lower, "upper": prob.upper}
        with pytest.raises(ValueError, match=r"\(m, n, n\)"):
            FrechetBoxProblem(points=prob.points[:, :, :1], weights=prob.weights, **box)
        for weights in (np.array([1.5, -0.5, 0.0]), np.array([0.5, 0.5]),
                        np.array([np.nan, 0.5, 0.5]), np.array([np.inf, 0.5, 0.5])):
            with pytest.raises(ValueError, match="finite and nonnegative, one per point"):
                FrechetBoxProblem(points=prob.points, weights=weights, **box)
        for bad in (np.nan, np.inf):
            points = prob.points.copy()
            points[1, 0, 1] = points[1, 1, 0] = bad
            with pytest.raises(ValueError, match="points must be finite"):
                FrechetBoxProblem(points=points, weights=prob.weights, **box)
        with pytest.raises(ValueError, match="sum to one"):
            FrechetBoxProblem(points=prob.points, weights=np.full(3, 0.3), **box)

    def test_arguments_follow_the_integer_rule(self):
        # bools and floats are no integers, though numpy would take True as 1
        for n, m, seed in ((True, 3, 0), (2.0, 3, 0), (0, 3, 0), (2, True, 0), (2, 3.0, 0),
                           (2, 3, True), (2, 3, 1.5), (2, 3, -1)):
            with pytest.raises(ValueError, match="positive integers, and seed a nonnegative"):
                random_frechet_instance(n, m, seed)
        prob, p0 = random_frechet_instance(np.int64(2), np.int64(3), np.int64(1))
        ref, ref_p0 = random_frechet_instance(2, 3, 1)
        np.testing.assert_array_equal(prob.points, ref.points)
        np.testing.assert_array_equal(p0, ref_p0)

    def test_single_point_degenerate(self):
        with pytest.raises(ValueError, match="degenerate box"):
            random_frechet_instance(3, 1, seed=0)

    def test_box_well_ordered_and_start_feasible(self):
        prob, p0 = random_frechet_instance(5, 20, seed=42)
        w = np.linalg.eigvalsh(prob.upper - prob.lower)
        assert w[0] > 0.0
        assert box_feasible(p0, prob.lower, prob.upper)
        assert prob.weights.sum() == pytest.approx(1.0, abs=1e-12)

    def test_seed_determinism(self):
        a, pa = random_frechet_instance(4, 6, seed=3)
        b, pb = random_frechet_instance(4, 6, seed=3)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(pa, pb)


class TestFrechetDCParts:
    def test_closures_share_the_problem_geometry(self, frechet_instance, rng, monkeypatch):
        prob, _ = frechet_instance
        assert frechet_dcproblem(prob).geometry is prob.geometry
        oracle = frechet_linear_oracle(prob)
        p, g = random_spd(rng, prob.geometry.n), random_sym(rng, prob.geometry.n)
        before = work_ledger()
        frechet_variance(prob, p)
        # p, and the stack of the whitened points p^-1/2 q_j p^-1/2
        assert work_ledger() - before == Counter({"eigh.calls": 2,
                                                  "eigh.matrices": 1 + len(prob.points)})
        before = work_ledger()
        whitened = []
        to_frame = SPDManifold.to_frame

        def spied_frame(self, p, x):
            whitened.append(x)
            return to_frame(self, p, x)

        monkeypatch.setattr(SPDManifold, "to_frame", spied_frame)
        frechet_grad(prob, p)
        # the gradient at the variance's point reads both from the cache, and
        # the whitened stack from p's pair memo, without whitening it again
        assert work_ledger() == before
        assert whitened == []
        on_p = []
        eigh = np.linalg.eigh

        def spied(a, *args, **kwargs):
            on_p.append(np.array_equal(a, p))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", spied)
        oracle(p, g)
        # the oracle decomposes its own matrices, but p only through the cache
        assert (work_ledger() - before)["eigh.calls"] > 0
        assert not any(on_p)
        assert len(prob.geometry._cache) == 2

    def test_oracle_skips_the_checks_the_problem_made(self, frechet_instance, rng):
        # the problem checked its box when it was made, and p^-1/2 is SPD:
        # the oracle gives the checked oracle's bits without its 4 eigvalsh
        prob, _ = frechet_instance
        oracle = frechet_linear_oracle(prob)
        p, g = random_spd(rng, prob.geometry.n), random_sym(rng, prob.geometry.n)
        _, si = prob.geometry.roots(p)
        before = work_ledger()
        checked = box_linear_subproblem(si @ g @ si, si, prob.lower, prob.upper)
        assert (work_ledger() - before)["eigvalsh.calls"] == 4
        before = work_ledger()
        assert np.array_equal(oracle(p, g), checked)
        assert (work_ledger() - before)["eigvalsh.calls"] == 0

    def test_oracle_matches_constrained_hook(self, frechet_instance):
        prob, p0 = frechet_instance
        dc = frechet_dcproblem(prob)
        oracle = frechet_linear_oracle(prob)
        x0 = dc.h_rgrad(p0)
        z_hook = dc.constrained_subsolver(p0, x0)
        z_oracle = oracle(p0, -x0)
        assert dc.geometry.dist(z_hook, z_oracle) <= 1e-10 or np.allclose(z_hook, z_oracle)

    def test_dca_monotone_and_feasible(self, frechet_instance):
        prob, p0 = frechet_instance
        dc = frechet_dcproblem(prob)
        stop = dataclasses.replace(FRECHET_STOP, max_iter=100)
        _, trace = dca_solve(dc, p0, None, stop, record_points=True)
        h = -np.asarray(trace.f)
        if len(h) > 1:
            assert np.all(np.diff(h) >= -1e-12)
        for point in trace.points:
            assert box_slack(point, prob.lower, prob.upper) >= -1e-10

    def test_dca_stop_reasons_match_the_oracle(self):
        # "fixed point" claims a critical point: over the benchmark's 60
        # instances it may stand only where the box oracle returns the final
        # iterate, and "no feasible step" (the safeguard could not walk the
        # oracle's answer into the box) only where the oracle moves it
        reasons = Counter()
        for seed in range(60):
            prob, p0 = random_frechet_instance(5, 20, seed)
            p, trace = dca_solve(frechet_dcproblem(prob), p0, None, FRECHET_STOP,
                                 record_points=False)
            reasons[trace.reason] += 1
            if trace.reason in ("fixed point", "no feasible step"):
                z = frechet_linear_oracle(prob)(p, -frechet_grad(prob, p))
                moved = np.linalg.norm(z - p) > 1e-8
                assert moved == (trace.reason == "no feasible step"), (seed, trace.reason)
        assert reasons["no feasible step"] >= 1, reasons

    def test_dca_rejects_infeasible_start(self, frechet_instance):
        # the start must be feasible, as for Frank-Wolfe: g is +inf outside
        # the box, and DCA raises on the start's cost before any step
        prob, _ = frechet_instance
        dc = frechet_dcproblem(prob)
        p0 = symmetrize(prob.upper * 4.0)  # outside the box
        assert not box_feasible(p0, prob.lower, prob.upper)
        before = work_ledger()
        with pytest.raises(SolverError, match="non-finite cost"):
            dca_solve(dc, p0, None, FRECHET_STOP)
        # the box test alone, decided by the violated upper bound: neither h
        # (the variance) nor the oracle ran
        assert work_ledger() - before == Counter({"eigvalsh.calls": 1, "eigvalsh.matrices": 1})
