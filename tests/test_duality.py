import dataclasses

import numpy as np
import pytest

import rdcopt.duality
import rdcopt.solvers
from rdcopt.bench import (
    DUALITY_START,
    DUALITY_STOP,
    DUALITY_SUB,
    ExperimentConfig,
    run_duality_checks,
)
from rdcopt.duality import (
    Grid1D,
    conjugate_grid,
    fenchel_young_gap,
    primal_dual_sandwich_check,
    sampled_conjugate,
    toland_dual_value,
)
from rdcopt.manifolds import Euclidean, RosenbrockPlane, SPDManifold
from rdcopt.problems import quartic_dcproblem
from rdcopt.solvers import dca_solve

EUCLID1 = Euclidean(1)


def half_square(x):
    u = np.asarray(x, dtype=float)[..., 0]
    return 0.5 * u ** 2


def grid_conjugate_fn(f, pts):
    """Brute-force conjugate (p, X) -> values: one conjugate_grid call per pair."""
    return lambda p, x: np.array([conjugate_grid(f, EUCLID1, pts, pk, xk).value
                                  for pk, xk in zip(p, x)])


def quartic_trace(x0=DUALITY_START, max_iter=DUALITY_STOP.max_iter):
    """The quartic DCA run of ``rdcopt check duality``, from ``x0`` and capped at ``max_iter``."""
    problem = quartic_dcproblem()
    stop = dataclasses.replace(DUALITY_STOP, max_iter=max_iter)
    _, trace = dca_solve(problem, np.array([x0]), DUALITY_SUB, stop)
    return problem, trace


class TestGrid1D:
    def test_validation(self):
        with pytest.raises(ValueError):
            Grid1D(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            Grid1D(0.0, 1.0, 1)
        # a fractional count fails here, not first in points()
        for count in (2.5, 5.0):
            with pytest.raises(ValueError, match="integer count"):
                Grid1D(-1.0, 1.0, count)
        assert len(Grid1D(-1.0, 1.0, np.int64(5)).points()) == 5
        for lower, upper in ((-10.0, np.inf), (-np.inf, 10.0), (np.nan, 10.0)):
            with pytest.raises(ValueError, match="finite"):
                Grid1D(lower, upper, 5)

    def test_points_and_spacing(self):
        grid = Grid1D(-1.0, 1.0, 5)
        np.testing.assert_allclose(grid.points(), [-1.0, -0.5, 0.0, 0.5, 1.0])
        assert grid.spacing == 0.5


class TestConjugateGrid:
    def test_half_square_at_origin(self):
        # true conjugate of x^2/2 is y^2/2; error bounded by the grid spacing
        for count in (201, 2001, 20001):
            grid = Grid1D(-10.0, 10.0, count)
            for y in (-2.0, 0.5, 3.0):
                conj = conjugate_grid(half_square, EUCLID1, grid.points(),
                                      np.zeros(1), np.array([y]))
                assert abs(conj.value - 0.5 * y * y) <= 10.0 * grid.spacing

    def test_shifted_base_point_reduction(self):
        # f*(p, X) = f*(X) - <X, p> on flat space: value 1/2 - 1 = -1/2
        grid = Grid1D(-10.0, 10.0, 20001)
        conj = conjugate_grid(half_square, EUCLID1, grid.points(), np.ones(1), np.ones(1))
        assert abs(conj.value - (-0.5)) <= 10.0 * grid.spacing

    def test_zero_function_zero_covector(self):
        grid = Grid1D(-10.0, 10.0, 101)
        conj = conjugate_grid(lambda x: 0.0 * np.asarray(x)[..., 0], EUCLID1,
                              grid.points(), np.zeros(1), np.zeros(1))
        assert conj.value == 0.0

    def test_refinement_monotonicity(self):
        base = Grid1D(-10.0, 10.0, 101).points()
        refined = Grid1D(-10.0, 10.0, 201).points()  # superset of the base grid
        for y in (-1.5, 0.3, 2.4):
            v_base = conjugate_grid(half_square, EUCLID1, base, np.zeros(1),
                                    np.array([y])).value
            v_ref = conjugate_grid(half_square, EUCLID1, refined, np.zeros(1),
                                   np.array([y])).value
            assert v_ref >= v_base

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="empty grid"):
            conjugate_grid(half_square, EUCLID1, np.empty((0,)), np.zeros(1), np.zeros(1))

    def test_loop_fallback_for_scalar_costs(self):
        grid = Grid1D(-5.0, 5.0, 1001)

        def scalar_f(x):  # raises on batched input, forcing the per-point loop
            (u,) = np.asarray(x, dtype=float).ravel()
            return 0.5 * u * u

        conj = conjugate_grid(scalar_f, EUCLID1, grid.points(), np.zeros(1), np.ones(1))
        assert abs(conj.value - 0.5) <= 10.0 * grid.spacing

    def test_other_batch_errors_propagate(self):
        def broken_f(x):  # fails on a batch for a reason other than its shape
            if np.ndim(x) > 1:
                raise RuntimeError("broken cost")
            return 0.5 * float(x[0]) ** 2

        with pytest.raises(RuntimeError, match="broken cost"):
            conjugate_grid(broken_f, EUCLID1, Grid1D(-1.0, 1.0, 11).points(),
                           np.zeros(1), np.zeros(1))

    def test_rosenbrock_plane_matches_flat_chart(self, rng):
        # chi(q) = (q1, q2 - q1^2) maps the plane isometrically onto flat R^2,
        # with d chi_p X = (X1, X2 - 2 p1 X1): the plane conjugate of f at
        # (p, X) is the flat one of f o chi^-1 at (chi(p), d chi_p X)
        plane = RosenbrockPlane()
        axis = np.linspace(-2.0, 2.0, 41)
        grid = np.array([[a, b] for a in axis for b in axis])

        def chi(q):
            return np.array([q[0], q[1] - q[0] ** 2])

        def f(q):
            return np.cosh(q[0]) + (q[1] - 0.5) ** 2 + 0.3 * q[0] * q[1]

        def f_flat(z):  # f o chi^-1, batched over the rows of z
            z = np.asarray(z, dtype=float)
            q1, q2 = z[..., 0], z[..., 1] + z[..., 0] ** 2
            return np.cosh(q1) + (q2 - 0.5) ** 2 + 0.3 * q1 * q2

        flat_grid = np.array([chi(q) for q in grid])
        for _ in range(20):
            p = rng.uniform(-1.5, 1.5, 2)
            x = rng.uniform(-3.0, 3.0, 2)
            curved = conjugate_grid(f, plane, grid, p, x)
            flat = conjugate_grid(f_flat, Euclidean(2), flat_grid, chi(p),
                                  np.array([x[0], x[1] - 2.0 * p[0] * x[0]]))
            assert abs(curved.value - flat.value) <= 1e-12 * (1.0 + abs(flat.value))


def assert_hull_matches_grid(points, samples, p, x):
    """The hull conjugate equals conjugate_grid at every (p, x) pair, bit for bit."""
    pts = np.asarray(points, dtype=float)
    samples = np.asarray(samples, dtype=float)
    p, x = np.broadcast_arrays(np.asarray(p, dtype=float), np.asarray(x, dtype=float))
    # a batched cost that returns the samples of the whole grid
    expected = grid_conjugate_fn(lambda q: samples, pts)(p, x)
    got = sampled_conjugate(lambda q: samples, pts)(p, x)
    assert np.array_equal(got, expected)


class TestHullConjugate:
    def test_suite_costs_at_value_check_covectors(self):
        problem = quartic_dcproblem()
        pts = Grid1D(-10.0, 10.0, 20001).points()
        xs = np.linspace(-10.0, 10.0, 2001)
        # x^2/2 at the 14 analytic and Fenchel-Young pairs of the suite
        fy_p, fy_x = np.meshgrid([-1.0, 0.0, 2.0], [-2.0, 1.0, 3.0], indexing="ij")
        half_p = np.concatenate([np.zeros(4), np.ones(1), fy_p.ravel()])
        half_x = np.concatenate([[-3.0, -1.0, 0.5, 2.0], np.ones(1), fy_x.ravel()])
        for cost, p, x in ((problem.g_cost, 0.0, xs), (problem.h_cost, 0.0, xs),
                           (half_square, half_p, half_x)):
            assert_hull_matches_grid(pts, cost(pts[:, None]), p, x)

    def test_every_sandwich_row(self):
        problem, trace = quartic_trace()
        pts = Grid1D(-10.0, 10.0, 20001).points()
        p = np.concatenate(trace.points)
        x = np.concatenate(trace.subgradients)
        assert len(p) > 10
        for cost in (problem.g_cost, problem.h_cost):
            assert_hull_matches_grid(pts, cost(pts[:, None]), p, x)

    def test_nonconvex_samples(self, rng):
        pts = Grid1D(-3.0, 3.0, 2001).points()
        p = rng.uniform(-3.0, 3.0, 300)
        x = rng.uniform(-60.0, 60.0, 300)
        for samples in (pts ** 4 - pts ** 2, rng.standard_normal(len(pts)),
                        pts * np.sin(3.0 * pts)):
            assert_hull_matches_grid(pts, samples, p, x)

    def test_exact_ties(self, rng):
        pts = Grid1D(-10.0, 10.0, 2001).points()
        assert pts[1000] == 0.0  # the kink of |x| sits on a grid point
        p = np.concatenate([np.zeros(3), rng.uniform(-3.0, 3.0, 60)])
        for x in (0.0, 1.0, -1.0, 0.5, 2.5):
            assert_hull_matches_grid(pts, np.full(len(pts), 1.7), p, x)
            assert_hull_matches_grid(pts, np.abs(pts), p, x)

    def test_covectors_beyond_extreme_slopes(self):
        pts = Grid1D(-2.0, 2.0, 401).points()
        samples = pts ** 2  # hull slopes within [-4, 4]
        assert_hull_matches_grid(pts, samples, [-1.0, 0.5, 2.0, 0.0],
                                 [-1e4, -4.5, 4.5, 1e4])

    def test_unsorted_and_duplicate_points(self, rng):
        # only strictly increasing points are taken, and f is not sampled on others
        base = Grid1D(-3.0, 3.0, 301).points()
        with_repeats = np.concatenate([base, base[::7], base[::11]])
        for pts in (with_repeats, base[rng.permutation(len(base))], base[::-1],
                    np.r_[base, np.nan]):
            with pytest.raises(ValueError, match="strictly increasing"):
                sampled_conjugate(lambda q: pytest.fail("sampled f"), pts)

    def test_repeated_points_in_order(self):
        # non-decreasing points with repeats are not strictly increasing: they
        # are rejected before f is sampled (equal samples at one point would
        # otherwise give a 0/0 hull slope)
        base = Grid1D(-3.0, 3.0, 301).points()
        pts = np.sort(np.concatenate([base, base[::7], base[::11]]))
        assert np.all(pts[1:] >= pts[:-1]) and not np.all(pts[1:] > pts[:-1])
        with pytest.raises(ValueError, match="strictly increasing"):
            sampled_conjugate(lambda q: pytest.fail("sampled f"), pts)

    def test_conjugate_keeps_its_own_samples(self):
        pts = Grid1D(-3.0, 3.0, 301).points()
        samples = pts ** 2
        conj = sampled_conjugate(lambda q: samples, pts)
        p, x = np.zeros(3), np.array([-1.0, 0.5, 2.0])
        before = conj(p, x)
        pts[:], samples[:] = 0.0, 1.0
        assert np.array_equal(conj(p, x), before)

    def test_two_point_grid(self):
        assert_hull_matches_grid([-0.5, 1.0], [2.0, 3.0], [0.0, 0.0, 0.3, 2.0],
                                 [-5.0, 0.0, 2.0 / 3.0, 5.0])


class TestFenchelYoung:
    def test_gap_zero_at_maximizer(self):
        pts = Grid1D(-10.0, 10.0, 20001).points()
        conj = conjugate_grid(half_square, EUCLID1, pts, np.zeros(1), np.ones(1))
        for fstar in (sampled_conjugate(half_square, pts), grid_conjugate_fn(half_square, pts)):
            assert fenchel_young_gap(half_square, EUCLID1, fstar, 0.0, 1.0,
                                     conj.maximizer) == 0.0

    def test_analytic_equality_case(self):
        # X is the derivative of f at q = 1, so the inequality is tight
        grid = Grid1D(-10.0, 10.0, 20001)
        fstar = sampled_conjugate(half_square, grid.points())
        gap = fenchel_young_gap(half_square, EUCLID1, fstar, 0.0, 1.0, 1.0)
        assert abs(gap) <= 10.0 * grid.spacing

    def test_gap_positive_off_maximizer(self, rng):
        pts = Grid1D(-10.0, 10.0, 20001).points()
        conj = conjugate_grid(half_square, EUCLID1, pts, np.array([0.5]), np.array([2.0]))
        fstar = sampled_conjugate(half_square, pts)
        for _ in range(10):
            q = rng.uniform(-8.0, 8.0, size=1)
            if abs(q[0] - conj.maximizer[0]) < 0.5:
                continue
            assert fenchel_young_gap(half_square, EUCLID1, fstar, 0.5, 2.0, q) > 0.0

    def test_batch_matches_single_calls(self, rng):
        pts = Grid1D(-10.0, 10.0, 20001).points()
        fstar = sampled_conjugate(half_square, pts)
        # the 36 triples of ``rdcopt check duality``, then 500 random ones
        suite = np.meshgrid([-1.0, 0.0, 2.0], [-2.0, 1.0, 3.0], [-2.5, 0.0, 1.0, 4.0],
                            indexing="ij")
        p, x, q = (np.concatenate([a.ravel(), rng.uniform(-8.0, 8.0, 500)]) for a in suite)
        batch = fenchel_young_gap(half_square, EUCLID1, fstar, p, x, q)
        single = [fenchel_young_gap(half_square, EUCLID1, fstar, *t) for t in zip(p, x, q)]
        assert all(type(gap) is float for gap in single)
        assert batch.shape == (536,) and np.array_equal(batch, single)
        # and the pairing <X, log_p(q)> of the geometry
        reference = [float(half_square(np.array([qk]))) + float(fstar(np.array([pk]),
                     np.array([xk]))[0]) - EUCLID1.inner(pk, xk, EUCLID1.log(pk, qk))
                     for pk, xk, qk in zip(p, x, q)]
        assert np.array_equal(batch, reference)

    def test_single_triple_gives_a_float(self):
        pts = Grid1D(-10.0, 10.0, 2001).points()
        fstar = sampled_conjugate(half_square, pts)
        for q in (1.5, np.array([1.5])):
            gap = fenchel_young_gap(half_square, EUCLID1, fstar, 0.0, 1.0, q)
            assert type(gap) is float
        assert gap == fenchel_young_gap(half_square, EUCLID1, fstar, [0.0, 0.0], [1.0, 1.0],
                                        [1.5, -2.0])[0]

    def test_curved_or_wider_geometry_rejected(self):
        fstar = sampled_conjugate(half_square, Grid1D(-1.0, 1.0, 11).points())
        for geometry in (Euclidean(2), RosenbrockPlane()):
            with pytest.raises(ValueError, match="grid conjugate intractable"):
                fenchel_young_gap(half_square, geometry, fstar, 0.0, 1.0, 0.5)


class TestQuartic:
    def test_products_within_two_ulp_of_pow(self):
        # g is u^2 u^2 + u^2 in IEEE products, not u**4 + u**2 through libm pow
        u = Grid1D(-10.0, 10.0, 20001).points()
        g_cost = quartic_dcproblem().g_cost
        samples = g_cost(u[:, None])
        reference = u ** 4 + u ** 2
        assert np.all(np.abs(samples - reference) <= 2.0 * np.spacing(reference))
        # one point at a time, as the sub-solves call it, gives the same bits
        assert [float(g_cost(np.array([v]))) for v in u[::97]] == samples[::97].tolist()


def quartic_conjugates(problem, pts):
    return sampled_conjugate(problem.h_cost, pts), sampled_conjugate(problem.g_cost, pts)


class TestSandwich:
    def test_holds_along_dca_trace(self):
        problem, trace = quartic_trace()
        pts = Grid1D(-10.0, 10.0, 20001).points()
        report = primal_dual_sandwich_check(trace, problem.g_cost, problem.h_cost, EUCLID1,
                                            *quartic_conjugates(problem, pts), tolerance=1e-3)
        assert report.rows, "expected a non-trivial trace"
        assert report.passed
        for row in report.rows:
            assert row.lower_residual >= -1e-3
            assert row.upper_residual >= -1e-3
        assert report.final_gap <= 1e-3

    def test_stationary_start_equality(self):
        # X0 = g'(x*) = h'(x*) at the critical point: primal and dual coincide
        problem, trace = quartic_trace(x0=1.0 / np.sqrt(2.0))
        assert trace.reason in ("fixed point", "gradient norm")
        pts = Grid1D(-10.0, 10.0, 20001).points()
        report = primal_dual_sandwich_check(trace, problem.g_cost, problem.h_cost, EUCLID1,
                                            *quartic_conjugates(problem, pts), tolerance=1e-3)
        assert report.passed
        assert report.final_gap <= 1e-3

    def test_samples_each_cost_once(self):
        problem, trace = quartic_trace()
        pts = Grid1D(-10.0, 10.0, 20001).points()
        calls = {"g": 0, "h": 0}
        conj_calls = []

        def counted(name, fn):
            def cost(x):
                calls[name] += 1
                return fn(x)
            return cost

        def counted_conj(conj):
            def values(p, x):
                conj_calls.append(len(p))
                return conj(p, x)
            return values

        g, h = counted("g", problem.g_cost), counted("h", problem.h_cost)
        hstar, gstar = sampled_conjugate(h, pts), sampled_conjugate(g, pts)
        report = primal_dual_sandwich_check(trace, g, h, EUCLID1, counted_conj(hstar),
                                            counted_conj(gstar), tolerance=1e-3)
        assert len(report.rows) > 1
        # one call on the grid samples and one on the stacked iterates
        assert calls == {"g": 2, "h": 2}
        # all rows' duals from one call per conjugate
        assert conj_calls == [len(trace.points)] * 2
        # the rows are those of one grid conjugate per row, bit for bit
        per_row = primal_dual_sandwich_check(
            trace, problem.g_cost, problem.h_cost, EUCLID1,
            grid_conjugate_fn(problem.h_cost, pts), grid_conjugate_fn(problem.g_cost, pts),
            tolerance=1e-3)
        assert report.rows == per_row.rows
        assert report.final_gap == per_row.final_gap
        # and the primal values are those of one cost call per iterate
        assert [r.primal for r in report.rows] == [
            float(problem.g_cost(p)) - float(problem.h_cost(p)) for p in trace.points[:-1]]

    def test_tampered_conjugate_fails(self):
        problem, trace = quartic_trace()
        pts = Grid1D(-10.0, 10.0, 20001).points()
        hstar, gstar = quartic_conjugates(problem, pts)
        report = primal_dual_sandwich_check(trace, problem.g_cost, problem.h_cost, EUCLID1,
                                            lambda p, x: -hstar(p, x), gstar, tolerance=1e-3)
        assert not report.passed

    def test_unsupported_geometry_rejected(self):
        problem, trace = quartic_trace(max_iter=2)
        hstar, gstar = quartic_conjugates(problem, Grid1D(-1.0, 1.0, 3).points())
        with pytest.raises(ValueError, match="grid conjugate intractable"):
            primal_dual_sandwich_check(trace, problem.g_cost, problem.h_cost,
                                       SPDManifold(2), hstar, gstar)

    def test_two_dimensional_grid_rejected(self):
        problem, trace = quartic_trace(max_iter=2)
        with pytest.raises(ValueError, match="grid conjugate intractable"):
            sampled_conjugate(problem.g_cost, np.zeros((3, 2)))
        hstar, gstar = quartic_conjugates(problem, Grid1D(-1.0, 1.0, 3).points())
        with pytest.raises(ValueError, match="grid conjugate intractable"):
            primal_dual_sandwich_check(trace, problem.g_cost, problem.h_cost,
                                       Euclidean(2), hstar, gstar)

    def test_primal_dual_value_equality(self):
        # Thm-level check: grid minima of g - h and h* - g* agree
        pts = Grid1D(-10.0, 10.0, 20001).points()
        problem = quartic_dcproblem()
        primal = float(np.min(pts ** 4 - pts ** 2))
        xs = np.linspace(-6.0, 6.0, 601)
        dual = min(
            conjugate_grid(problem.h_cost, EUCLID1, pts, np.zeros(1), np.array([x])).value
            - conjugate_grid(problem.g_cost, EUCLID1, pts, np.zeros(1), np.array([x])).value
            for x in xs)
        assert abs(primal - dual) <= 1e-3
        assert abs(primal + 0.25) <= 1e-3
        # the hull-based dual value is that brute-force min, bit for bit
        assert toland_dual_value(*quartic_conjugates(problem, pts), xs) == dual


class TestDualitySuite:
    def test_samples_each_cost_once(self, tmp_path, monkeypatch):
        sampled = []
        sample_cost = rdcopt.duality._sample_cost

        def counted(f, pts):
            sampled.append((f, len(pts)))
            return sample_cost(f, pts)

        monkeypatch.setattr(rdcopt.duality, "_sample_cost", counted)
        for tamper in (False, True):
            sampled.clear()
            summary = run_duality_checks(ExperimentConfig(out_dir=tmp_path), tamper=tamper)
            assert summary["passed"] is not tamper
            # x^2/2, the zero cost, g and h: four costs, each sampled on the
            # grid once; the sandwich check samples g and h once more, on the
            # iterates
            grid = [f for f, count in sampled if count == 20001]
            assert len(grid) == 4
            assert len({id(f) for f in grid}) == 4
            assert len(sampled) == 6

    def test_dca_takes_no_finite_differences(self, tmp_path, monkeypatch):
        # the quartic's sub-solves run on its exact surrogate Hessian
        calls = []
        fd_hessian_apply = rdcopt.solvers.fd_hessian_apply

        def counted(*args, **kwargs):
            calls.append(args)
            return fd_hessian_apply(*args, **kwargs)

        monkeypatch.setattr(rdcopt.solvers, "fd_hessian_apply", counted)
        assert run_duality_checks(ExperimentConfig(out_dir=tmp_path))["passed"]
        assert calls == []
