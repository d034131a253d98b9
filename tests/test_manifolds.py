import math
from collections import Counter

import numpy as np
import pytest

from rdcopt.manifolds import (
    _CACHED,
    Euclidean,
    RosenbrockPlane,
    SPDManifold,
)
from rdcopt.matfun import (
    _Diagonal,
    spd_logdet,
    spd_sqrt_inv_sqrt,
    sym_apply,
    sym_dlog,
    sym_eig,
    symmetrize,
    work_ledger,
)
from rdcopt.problems import LogDetProblem, logdet_dcproblem

from conftest import (
    check_hessian,
    check_self_adjoint,
    det_hessian_quadform,
    fd_slope,
    random_spd,
    random_sym,
    sample_directions,
    sample_point,
    tangent_map,
)


GEOMETRIES = [Euclidean(3), SPDManifold(3), RosenbrockPlane()]


def _pair(geometry, rng):
    return sample_point(geometry, rng), sample_point(geometry, rng)


def pytest_generate_tests(metafunc):
    # each shared contract runs on every geometry but the plane's adjoint_log_diff,
    # which it does not give: every plane problem gives its subproblem in closed form
    if metafunc.cls is TestSharedContracts:
        adjoint = metafunc.function.__name__ == "test_adjoint_log_diff_matches_fd"
        metafunc.parametrize("geometry", GEOMETRIES[:2] if adjoint else GEOMETRIES,
                             ids=lambda g: type(g).__name__)


class TestSharedContracts:
    def test_dist_equals_norm_of_log(self, geometry, rng):
        for _ in range(10):
            p, q = _pair(geometry, rng)
            assert abs(geometry.dist(p, q) - geometry.norm(p, geometry.log(p, q))) <= 1e-10

    def test_dist_symmetric_and_triangle(self, geometry, rng):
        for _ in range(10):
            p, q = _pair(geometry, rng)
            r = sample_point(geometry, rng)
            assert abs(geometry.dist(p, q) - geometry.dist(q, p)) <= 1e-9
            assert geometry.dist(p, q) <= geometry.dist(p, r) + geometry.dist(r, q) + 1e-9

    def test_exp_log_round_trips(self, geometry, rng):
        for _ in range(10):
            p = sample_point(geometry, rng)
            x = sample_directions(geometry, rng, p, 1)[0]
            nx = geometry.norm(p, x)
            if nx > 5.0:
                x = x * (5.0 / nx)
            back = geometry.log(p, geometry.exp(p, x))
            assert geometry.norm(p, back - x) <= 1e-9
            q = sample_point(geometry, rng)
            fwd = geometry.exp(p, geometry.log(p, q))
            assert geometry.dist(fwd, q) <= 1e-9

    def test_geodesic_endpoints_and_speed(self, geometry, rng):
        p, q = _pair(geometry, rng)
        assert geometry.dist(geometry.geodesic(p, q, 0.0), p) <= 1e-10
        assert geometry.dist(geometry.geodesic(p, q, 1.0), q) <= 1e-9
        d = geometry.dist(p, q)
        for t in (0.25, 0.5, 0.8):
            assert abs(geometry.dist(p, geometry.geodesic(p, q, t)) - t * d) <= 1e-9

    def test_geodesic_parameter_range(self, geometry, rng):
        p, q = _pair(geometry, rng)
        with pytest.raises(ValueError, match="parameter out of range"):
            geometry.geodesic(p, q, 1.5)
        with pytest.raises(ValueError, match="parameter out of range"):
            geometry.geodesic(p, q, -0.1)

    def test_transport_isometry(self, geometry, rng):
        for _ in range(10):
            p, q = _pair(geometry, rng)
            x, y = sample_directions(geometry, rng, p, 2)
            tx = geometry.transport(p, q, x)
            ty = geometry.transport(p, q, y)
            assert abs(geometry.inner(q, tx, ty) - geometry.inner(p, x, y)) <= 1e-9 * (
                1.0 + abs(geometry.inner(p, x, x)) + abs(geometry.inner(p, y, y)))

    def test_transport_trivial_cases(self, geometry, rng):
        p = sample_point(geometry, rng)
        x = sample_directions(geometry, rng, p, 1)[0]
        np.testing.assert_allclose(geometry.transport(p, p, x), x, atol=1e-9)
        zero = np.zeros_like(np.asarray(x, dtype=float))
        np.testing.assert_allclose(geometry.transport(p, sample_point(geometry, rng), zero),
                                   zero, atol=1e-12)

    def test_frame_dot_product_is_the_metric(self, geometry, rng):
        for _ in range(10):
            p = sample_point(geometry, rng)
            x, y = sample_directions(geometry, rng, p, 2)
            dot = float(np.sum(geometry.to_frame(p, x) * geometry.to_frame(p, y)))
            scale = geometry.norm(p, x) * geometry.norm(p, y)
            assert abs(dot - geometry.inner(p, x, y)) <= 1e-12 * scale

    def test_from_frame_inverts_to_frame(self, geometry, rng):
        for _ in range(10):
            p = sample_point(geometry, rng)
            x = sample_directions(geometry, rng, p, 1)[0]
            y = geometry.to_frame(p, x)
            assert geometry.norm(p, geometry.from_frame(p, y) - x) <= 1e-12 * geometry.norm(p, x)
            # exp_frame is exp of the tangent with those coordinates
            q = geometry.exp(p, 0.5 * x)
            assert geometry.dist(geometry.exp_frame(p, 0.5 * y), q) <= 1e-12 * (
                1.0 + np.linalg.norm(np.ravel(q)))

    def test_half_sq_dist_hessian_matches_gradient_differences(self, geometry, rng):
        # grad d^2(., y)/2 = -log_.(y)
        for _ in range(3):
            p, y = _pair(geometry, rng)
            check_hessian(geometry, lambda z: -geometry.log(z, y),
                          tangent_map(geometry, p, geometry.half_sq_dist_hessian(p, y)), p,
                          sample_directions(geometry, rng, p, 3))

    def test_adjoint_log_diff_matches_fd(self, geometry, rng):
        for _ in range(5):
            q, p = _pair(geometry, rng)
            x = sample_directions(geometry, rng, q, 1)[0]

            def ell(z):
                return geometry.inner(q, x, geometry.log(q, z))

            g = geometry.adjoint_log_diff(q, p, x)
            for v in sample_directions(geometry, rng, p, 3):
                v = v / geometry.norm(p, v)
                analytic = geometry.inner(p, g, v)
                numeric = fd_slope(geometry, ell, p, v)
                assert abs(analytic - numeric) <= 1e-5 * (1.0 + abs(analytic))


def test_sizes_are_positive_integers():
    # int() would truncate a fractional size; a size below one has no space;
    # True is no size, though a bool is an int to isinstance
    for geometry in (Euclidean, SPDManifold):
        for size in (0, -2, 2.9, 2.0, True):
            with pytest.raises(ValueError, match="positive integer"):
                geometry(size)
    assert (SPDManifold(np.int64(3)).n, Euclidean(np.int64(2)).dim) == (3, 2)


class TestSPD:
    def test_exp_is_exp_frame_of_the_whitened_tangent(self, rng):
        # bit for bit: the trust region steps through exp_frame
        m = SPDManifold(3)
        for _ in range(5):
            p, x = random_spd(rng, 3), random_sym(rng, 3)
            assert np.array_equal(m.exp(p, x), SPDManifold(3).exp_frame(p, m.to_frame(p, x)))

    def test_inner_examples(self, rng):
        m = SPDManifold(2)
        eye = np.eye(2)
        assert m.inner(eye, eye, eye) == pytest.approx(2.0)
        assert m.inner(eye, np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) == pytest.approx(0.0)
        m3 = SPDManifold(3)
        for _ in range(10):
            p = random_spd(rng, 3)
            x = random_sym(rng, 3)
            if np.linalg.norm(x) > 0:
                assert m3.inner(p, x, x) > 0.0

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_inner_properties(self, rng, n):
        m = SPDManifold(n)
        for _ in range(20):
            p = random_spd(rng, n)
            x, y = random_sym(rng, n), random_sym(rng, n)
            pinv = np.linalg.inv(p)
            ref = float(np.trace(pinv @ x @ pinv @ y))
            # relative to ||X||_p ||Y||_p, which bounds |<X, Y>_p|
            scale = math.sqrt(m.inner(p, x, x) * m.inner(p, y, y))
            assert abs(m.inner(p, x, y) - ref) <= 1e-12 * scale
            assert m.inner(p, x, y) == m.inner(p, y, x)
            assert m.inner(p, x, x) >= 0.0
            assert m.inner(p, x.copy(), x) >= 0.0
            # affine invariance: <A X A^T, A Y A^T> at A p A^T equals <X, Y> at p,
            # for A with singular values in [0.5, 2]
            u, _ = np.linalg.qr(rng.standard_normal((n, n)))
            v, _ = np.linalg.qr(rng.standard_normal((n, n)))
            a = (u * rng.uniform(0.5, 2.0, n)) @ v.T
            moved = m.inner(symmetrize(a @ p @ a.T), a @ x @ a.T, a @ y @ a.T)
            assert abs(moved - m.inner(p, x, y)) <= 1e-9 * scale

    def test_exp_examples(self, rng):
        m = SPDManifold(2)
        p = random_spd(rng, 2)
        np.testing.assert_allclose(m.exp(p, np.zeros((2, 2))), p, atol=1e-14)
        np.testing.assert_allclose(m.exp(np.eye(2), np.diag([1.0, 0.0])),
                                   np.diag([np.e, 1.0]), atol=1e-14)

    def test_log_examples(self, rng):
        m = SPDManifold(2)
        p = random_spd(rng, 2)
        assert np.abs(m.log(p, p)).max() <= 1e-12
        np.testing.assert_allclose(m.log(np.eye(2), np.diag([np.e, 1.0])),
                                   np.diag([1.0, 0.0]), atol=1e-14)

    def test_dist_examples(self):
        m = SPDManifold(2)
        assert m.dist(np.eye(2), np.e * np.eye(2)) == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_affine_invariance(self, rng):
        m = SPDManifold(3)
        for _ in range(10):
            p, q = random_spd(rng, 3), random_spd(rng, 3)
            a = rng.standard_normal((3, 3)) + 0.5 * np.eye(3)
            while abs(np.linalg.det(a)) < 1e-3:
                a = rng.standard_normal((3, 3))
            d1 = m.dist(p, q)
            d2 = m.dist(symmetrize(a @ p @ a.T), symmetrize(a @ q @ a.T))
            assert abs(d1 - d2) <= 1e-8 * (1.0 + d1)

    def test_geodesic_diagonal_midpoint(self):
        # scalar exp/log oracle on the commuting diagonal case
        m = SPDManifold(2)
        mid = m.geodesic(np.eye(2), np.diag([np.e ** 2, 1.0]), 0.5)
        np.testing.assert_allclose(mid, np.diag([np.e, 1.0]), atol=1e-12)

    def test_egrad_examples(self, rng):
        m = SPDManifold(3)
        p = random_spd(rng, 3)
        # f = log det has Euclidean gradient p^-1, so the Riemannian gradient is p
        np.testing.assert_allclose(m.egrad_to_rgrad(p, np.linalg.inv(p)), p, atol=1e-10)
        np.testing.assert_allclose(m.egrad_to_rgrad(p, np.zeros((3, 3))), np.zeros((3, 3)))
        g = random_sym(rng, 3)
        np.testing.assert_allclose(m.egrad_to_rgrad(np.eye(3), g), g, atol=1e-14)
        # first-order expansion check for f = log det
        for v in sample_directions(m, rng, p, 3):
            analytic = m.inner(p, p, v)
            numeric = fd_slope(m, spd_logdet, p, v)
            assert abs(analytic - numeric) <= 1e-5 * (1.0 + abs(analytic))

    def test_det_hessian_quadform(self, rng):
        m = SPDManifold(3)
        log_fn = (lambda t: 1.0 / t, lambda t: -1.0 / t ** 2)
        for _ in range(10):
            p = random_spd(rng, 3)
            x = random_sym(rng, 3)
            # phi = log makes phi(det(.)) linear along the scalar reduction
            assert abs(det_hessian_quadform(m, p, *log_fn, x)) <= 1e-10 * (1 + m.inner(p, x, x))
        p = random_spd(rng, 3, scale=2.0)
        assert det_hessian_quadform(m, p, lambda t: 1.0, lambda t: 0.0, np.zeros((3, 3))) == 0.0
        # phi1 = (log t)^4 satisfies the convexity condition everywhere
        d1 = lambda t: 4.0 * math.log(t) ** 3 / t
        d2 = lambda t: (12.0 * math.log(t) ** 2 - 4.0 * math.log(t) ** 3) / t ** 2
        for _ in range(10):
            p = random_spd(rng, 3)
            x = random_sym(rng, 3)
            assert det_hessian_quadform(m, p, d1, d2, x) >= -1e-10

    def test_det_hessian_quadform_second_difference(self, rng):
        # independent oracle: second derivative of phi(det gamma(t)) along geodesics
        m = SPDManifold(3)
        d1 = lambda t: 4.0 * math.log(t) ** 3 / t
        d2 = lambda t: (12.0 * math.log(t) ** 2 - 4.0 * math.log(t) ** 3) / t ** 2
        phi = lambda t: math.log(t) ** 4

        for _ in range(5):
            p = random_spd(rng, 3)
            x = random_sym(rng, 3)

            def along(t):
                return phi(math.exp(spd_logdet(m.exp(p, t * x))))

            h = 1e-4
            numeric = (along(h) + along(-h) - 2.0 * along(0.0)) / h ** 2
            analytic = det_hessian_quadform(m, p, d1, d2, x)
            assert abs(analytic - numeric) <= 1e-3 * (1.0 + abs(analytic))

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_half_sq_dist_hessian_matches_gradient_differences(self, rng, n):
        # grad d^2(., y)/2 = -log_.(y)
        m = SPDManifold(n)
        for _ in range(2):
            p, y = random_spd(rng, n), random_spd(rng, n)
            directions = [random_sym(rng, n) for _ in range(3)]
            check_hessian(m, lambda z: -m.log(z, y),
                          tangent_map(m, p, m.half_sq_dist_hessian(p, y)), p, directions)

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_half_sq_dist_hessian_self_adjoint(self, rng, n):
        m = SPDManifold(n)
        p, y = random_spd(rng, n), random_spd(rng, n, scale=3.0)
        check_self_adjoint(m, tangent_map(m, p, m.half_sq_dist_hessian(p, y)), p,
                           [random_sym(rng, n) for _ in range(6)])

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_half_sq_dist_hessian_at_its_anchor_is_identity(self, rng, n):
        m = SPDManifold(n)
        p = random_spd(rng, n)
        hess = tangent_map(m, p, m.half_sq_dist_hessian(p, p))
        for _ in range(3):
            v = random_sym(rng, n)
            assert m.norm(p, hess(v) - v) <= 1e-12 * m.norm(p, v)

    def test_half_sq_dist_hessian_exceeds_the_flat_one(self, rng):
        # nonpositive curvature: g(t) = (t/2) coth(t/2) >= 1, with equality only
        # along the directions that commute with log_p(y)
        m = SPDManifold(4)
        p, y = random_spd(rng, 4), random_spd(rng, 4)
        hess = tangent_map(m, p, m.half_sq_dist_hessian(p, y))
        for _ in range(5):
            v = random_sym(rng, 4)
            assert m.inner(p, hess(v), v) > m.inner(p, v, v)
        lg = m.log(p, y)
        assert m.norm(p, hess(lg) - lg) <= 1e-12 * m.norm(p, lg)

    def test_half_sq_dist_hessian_reads_cached_factors(self, rng):
        m = SPDManifold(5)
        p, y = random_spd(rng, 5), random_spd(rng, 5)
        m.dist(p, y)
        before = work_ledger()
        m.half_sq_dist_hessian(p, y)(random_sym(rng, 5))
        assert work_ledger() == before


# The SPD operations composed from matfun with no cache: the reference that
# SPDManifold, with its factor cache, must match bit for bit.
def _ref_inner(p, x, y):
    _, si = spd_sqrt_inv_sqrt(p)
    return float(np.sum((si @ x @ si) * (si @ y @ si)))


def _ref_norm(p, x):
    return math.sqrt(max(_ref_inner(p, x, x), 0.0))


def _ref_exp(p, x):
    s, si = spd_sqrt_inv_sqrt(p)
    return symmetrize(s @ sym_apply(symmetrize(si @ x @ si), np.exp) @ s)


def _ref_log(p, q):
    s, si = spd_sqrt_inv_sqrt(p)
    return symmetrize(s @ sym_apply(symmetrize(si @ q @ si), np.log) @ s)


def _ref_dist(p, q):
    _, si = spd_sqrt_inv_sqrt(p)
    w, _ = sym_eig(symmetrize(si @ q @ si))
    return float(np.sqrt(np.sum(np.log(w) ** 2)))


def _ref_transport(p, q, x):
    s, si = spd_sqrt_inv_sqrt(p)
    e = s @ sym_apply(symmetrize(si @ q @ si), np.sqrt) @ si
    return symmetrize(e @ x @ e.T)


def _ref_adjoint_log_diff(q, p, x):
    _, qi = spd_sqrt_inv_sqrt(q)
    egrad = qi @ sym_dlog(symmetrize(qi @ p @ qi), symmetrize(qi @ x @ qi)) @ qi
    return symmetrize(p @ symmetrize(egrad) @ p)


class TestSPDFactorCache:
    """SPDManifold reuses the factors of recent points and matrices; every
    result must equal the uncached composition bit for bit."""

    def test_matches_uncached_compositions(self, rng):
        n = 4
        spec = LogDetProblem(n)
        phi1, phi2 = spec.phi1, spec.phi2
        problem = logdet_dcproblem(spec)
        m = problem.geometry
        # more points than the cache holds, so entries are evicted and rebuilt
        points = [random_spd(rng, n) for _ in range(_CACHED + 2)]
        tangents = [random_sym(rng, n) for _ in range(4)]

        def det(p):
            return math.exp(spd_logdet(p))

        def surrogate(q, p, which):
            tq = det(q)
            c = phi2.d1(tq) * tq
            t = det(p)
            if which == "cost":
                return phi1.value(t) - c * (spd_logdet(p) - spd_logdet(q))
            return (phi1.d1(t) * t - c) * p

        # (cached call, uncached reference), each taking (p, q, x, y)
        ops = [
            (lambda p, q, x, y: m.inner(p, x, y), lambda p, q, x, y: _ref_inner(p, x, y)),
            (lambda p, q, x, y: m.inner(p, x, x), lambda p, q, x, y: _ref_inner(p, x, x)),
            (lambda p, q, x, y: m.norm(p, x), lambda p, q, x, y: _ref_norm(p, x)),
            (lambda p, q, x, y: m.exp(p, x), lambda p, q, x, y: _ref_exp(p, x)),
            (lambda p, q, x, y: m.log(p, q), lambda p, q, x, y: _ref_log(p, q)),
            (lambda p, q, x, y: m.dist(p, q), lambda p, q, x, y: _ref_dist(p, q)),
            (lambda p, q, x, y: m.transport(p, q, x), lambda p, q, x, y: _ref_transport(p, q, x)),
            (lambda p, q, x, y: m.adjoint_log_diff(q, p, x),
             lambda p, q, x, y: _ref_adjoint_log_diff(q, p, x)),
            (lambda p, q, x, y: m.logdet(p), lambda p, q, x, y: spd_logdet(p)),
            (lambda p, q, x, y: problem.g_cost(p), lambda p, q, x, y: phi1.value(det(p))),
            (lambda p, q, x, y: problem.h_cost(p), lambda p, q, x, y: phi2.value(det(p))),
            (lambda p, q, x, y: problem.g_rgrad(p),
             lambda p, q, x, y: (phi1.d1(det(p)) * det(p)) * p),
            (lambda p, q, x, y: problem.h_rgrad(p),
             lambda p, q, x, y: (phi2.d1(det(p)) * det(p)) * p),
            (lambda p, q, x, y: problem.subproblem(q, None)[0](p),
             lambda p, q, x, y: surrogate(q, p, "cost")),
            (lambda p, q, x, y: problem.subproblem(q, None)[1](p),
             lambda p, q, x, y: surrogate(q, p, "grad")),
        ]
        for _ in range(60):
            i, j = rng.choice(len(points), size=2, replace=False)
            p, q = points[i], points[j]
            x, y = (tangents[k] for k in rng.choice(len(tangents), size=2))
            # the cached calls run in a random order, each checked at once
            for k in rng.permutation(len(ops)):
                cached, reference = ops[k]
                assert np.array_equal(cached(p, q, x, y), reference(p, q, x, y)), k
            # points reached by exp join the pool, as solver iterates do
            if rng.random() < 0.3:
                points[i] = m.exp(p, 0.1 * x)

    def test_in_place_change_gets_fresh_factors(self, rng):
        m = SPDManifold(3)
        q = random_spd(rng, 3)
        ops = [
            lambda p, x: (m.exp(p, x), _ref_exp(p, x)),
            lambda p, x: (m.inner(p, x, x), _ref_inner(p, x, x)),
            lambda p, x: (m.logdet(p), spd_logdet(p)),
            lambda p, x: (m.dist(q, p), _ref_dist(q, p)),
            lambda p, x: (m.transport(p, q, x), _ref_transport(p, q, x)),
        ]
        for op in ops:
            p, x = random_spd(rng, 3), random_sym(rng, 3)
            op(p, x)
            # the caller reuses its arrays for new values
            p[...] = random_spd(rng, 3)
            x[...] = random_sym(rng, 3)
            got, want = op(p, x)
            assert np.array_equal(got, want)

    def test_signed_zeros_do_not_share_an_entry(self):
        start = work_ledger()["eigh.calls"]
        m = SPDManifold(2)
        plus = np.array([[2.0, 0.0], [0.0, 1.0]])
        minus = np.array([[2.0, -0.0], [-0.0, 1.0]])
        assert np.array_equal(plus, minus)
        m.logdet(plus)
        m.logdet(plus)
        assert work_ledger()["eigh.calls"] == start + 1
        m.logdet(minus)
        assert work_ledger()["eigh.calls"] == start + 2
        # inner at a point decomposes it once, for its p^{-1/2}
        m = SPDManifold(2)
        m.inner(plus, plus, plus)
        m.inner(plus, minus, minus)
        assert work_ledger()["eigh.calls"] == start + 3
        m.inner(minus, plus, plus)
        m.inner(minus, minus, minus)
        assert work_ledger()["eigh.calls"] == start + 4

    def test_cache_stays_bounded(self, rng):
        m = SPDManifold(3)
        q = random_spd(rng, 3)
        for _ in range(3):
            p = random_spd(rng, 3)
            for _ in range(2 * _CACHED):
                x = random_sym(rng, 3)
                m.inner(p, x, random_sym(rng, 3))
                m.exp(p, x)
                m.transport(q, p, x)
                assert len(m._cache) <= _CACHED
        # the bound was reached
        assert len(m._cache) == _CACHED

    def test_cached_factors_are_read_only(self, rng):
        m = SPDManifold(3)
        # c I too: its entry keeps the writable _Diagonal sym_eig returns,
        # as a read-only _Diagonal
        for p in (random_spd(rng, 3), 1.7 * np.eye(3)):
            for a in (*m.roots(p), *m._eig(p)):
                with pytest.raises(ValueError, match="read-only"):
                    a[0, ...] = 0.0
            # nothing was written, so later reads still give the uncached factors
            for got, want in zip(m.roots(p), spd_sqrt_inv_sqrt(p)):
                assert np.array_equal(got, want)
            assert type(m._eig(p)) is type(sym_eig(p))
        assert type(m._eig(p)) is _Diagonal

    def test_counts_each_decomposition_once(self, rng):
        before = work_ledger()
        m = SPDManifold(3)
        p, q = random_spd(rng, 3), random_spd(rng, 3)
        x = random_sym(rng, 3)
        for _ in range(2):
            m.inner(p, x, x)
            m.logdet(p)
            m.dist(p, q)
            m.exp(p, x)
        # p, p^-1/2 q p^-1/2 and p^-1/2 x p^-1/2, each decomposed once
        assert work_ledger() - before == Counter({"eigh.calls": 3, "eigh.matrices": 3})

    def test_whitened_memo_gives_the_cached_decomposition(self, rng, monkeypatch):
        m = SPDManifold(4)
        p, q, r = (random_spd(rng, 4) for _ in range(3))
        x = random_sym(rng, 4)
        for other in (q, r, q):
            memo = m._whitened(p, other)
            assert memo is m._eig(m.to_frame(p, other))
            assert all(not a.flags.writeable for a in memo)
        # every pair operation reads the memo without whitening again
        frames = []
        to_frame = SPDManifold.to_frame
        monkeypatch.setattr(SPDManifold, "to_frame",
                            lambda self, a, b: frames.append(1) or to_frame(self, a, b))
        m.dist(p, q)
        m.log(p, q)
        m.transport(p, q, x)
        m.half_sq_dist_hessian(p, q)
        assert frames == []
        # the memo outlives the whitened matrix's own cache entry
        for _ in range(_CACHED):
            m.inner(random_spd(rng, 4), x, x)
            m.logdet(p)
        assert to_frame(m, p, q).tobytes() not in {key for (_, key), _ in m._cache}
        before = work_ledger()
        memo = m._whitened(p, q)
        assert frames == [] and work_ledger() == before
        fresh = sym_eig(to_frame(m, p, q))
        assert all(np.array_equal(a, b) and not a.flags.writeable for a, b in zip(memo, fresh))
        # the adjoint log differential of the pair reads the memo too
        before = work_ledger()
        m.adjoint_log_diff(p, q, x)
        assert work_ledger() == before


# The dense SPD formulas, each product with Q and the roots written out: the
# reference that the diagonal route of SPDManifold must match byte for byte.
def _dense_apply(a, fn):
    w, q = np.linalg.eigh(symmetrize(a))
    return symmetrize((q * fn(w)) @ q.T)


def _dense_ops(p, other, x, y):
    """{operation name: dense result} at the point p, for the point ``other``
    and the tangents x and y."""
    w, q = np.linalg.eigh(p)
    sw = np.sqrt(w)
    s, si = symmetrize((q * sw) @ q.T), symmetrize((q / sw) @ q.T)
    whitened = symmetrize(si @ other @ si)
    mu, v = np.linalg.eigh(whitened)
    half = 0.5 * (np.log(mu)[:, None] - np.log(mu)[None, :])
    gain = np.divide(half, np.tanh(half), out=np.ones_like(half), where=half != 0.0)
    e = s @ _dense_apply(whitened, np.sqrt) @ si
    return {
        "roots": np.stack([s, si]),
        "inner": float(np.sum((si @ x @ si) * (si @ y @ si))),
        "inner_xx": float(np.sum((si @ x @ si) * (si @ x @ si))),
        "to_frame": symmetrize(si @ x @ si),
        "from_frame": symmetrize(s @ x @ s),
        "exp_frame": symmetrize(s @ _dense_apply(x, np.exp) @ s),
        "exp": symmetrize(s @ _dense_apply(symmetrize(si @ x @ si), np.exp) @ s),
        "log": symmetrize(s @ _dense_apply(whitened, np.log) @ s),
        "transport": symmetrize(e @ x @ e.T),
        "hessian": symmetrize(v @ (gain * (v.T @ x @ v)) @ v.T),
    }


def _cached_ops(m, p, other, x, y):
    return {
        "roots": np.stack(m.roots(p)),
        "inner": m.inner(p, x, y),
        "inner_xx": m.inner(p, x, x),
        "to_frame": m.to_frame(p, x),
        "from_frame": m.from_frame(p, x),
        "exp_frame": m.exp_frame(p, x),
        "exp": m.exp(p, x),
        "log": m.log(p, other),
        "transport": m.transport(p, other, x),
        "hessian": m.half_sq_dist_hessian(p, other)(x),
    }


class TestSPDDiagonalRoute:
    """A cached c I, which ``sym_eig`` returns as ``_Diagonal``, takes the
    diagonal route: its operations scale entries where the dense route
    multiplies by I or by a diagonal root, with the same bytes. Any other
    matrix takes the dense route."""

    @pytest.mark.parametrize("n", [2, 5, 60])
    def test_matches_the_dense_formulas_byte_for_byte(self, rng, n):
        ascending = np.diag(np.linspace(0.5, 3.0, n))
        # LAPACK leaves this diagonal in place, Q exactly I, but only c I
        # takes the diagonal route
        assert np.array_equal(np.linalg.eigh(ascending)[1], np.eye(n))
        points = [1.7 * np.eye(n), 0.3 * np.eye(n), ascending]
        # general tangents, and negative multiples of I, whose off-diagonals
        # are -0.0: the dense products sum them from +0 and give +0.0
        tangents = [random_sym(rng, n), random_sym(rng, n), -0.7 * np.eye(n), -2.0 * np.eye(n)]
        m = SPDManifold(n)
        for p in points:
            for other in points:
                for x, y in zip(tangents, tangents[1:] + tangents[:1]):
                    want = _dense_ops(p, other, x, y)
                    got = _cached_ops(m, p, other, x, y)
                    for name in want:
                        assert np.asarray(got[name]).tobytes() == \
                            np.asarray(want[name]).tobytes(), name
                    assert (type(m._eig(p)) is _Diagonal) == (p is not ascending)
                    # c I whitens c I to a multiple of I; a pair with the
                    # ascending diagonal whitens to a diagonal that is not
                    both_scalar = p is not ascending and other is not ascending
                    assert (type(m._whitened(p, other)) is _Diagonal) == both_scalar
        # c I with c < 0, as the whitened tangents of a descent are
        for c in (-0.7, -2.0):
            a = c * np.eye(n)
            assert type(m._eig(a)) is _Diagonal
            for fn in (np.exp, np.cbrt):
                assert sym_apply(m._eig(a), fn).tobytes() == _dense_apply(a, fn).tobytes()

    def test_general_matrices_keep_the_dense_route(self, rng):
        m = SPDManifold(5)
        p, other = random_spd(rng, 5), random_spd(rng, 5)
        diagonal = 2.0 * np.eye(5)
        x, y = random_sym(rng, 5), -0.7 * np.eye(5)
        for a, b in ((p, other), (p, diagonal), (diagonal, p)):
            got, want = _cached_ops(m, a, b, x, y), _dense_ops(a, b, x, y)
            for name in want:
                assert np.asarray(got[name]).tobytes() == np.asarray(want[name]).tobytes(), name
        assert type(m._eig(p)) is not _Diagonal
        # a diagonal point whitens a general one to a general matrix
        assert type(m._whitened(diagonal, p)) is not _Diagonal
        assert type(m._eig(diagonal)) is _Diagonal


class TestRosenbrockPlane:
    def test_metric_examples(self, rng):
        m = RosenbrockPlane()
        e = np.eye(2)

        def metric_tensor(p):  # (G_p from inner, G_p^-1 from egrad_to_rgrad)
            return (np.array([[m.inner(p, a, b) for b in e] for a in e]),
                    np.column_stack([m.egrad_to_rgrad(p, a) for a in e]))

        g, ginv = metric_tensor(np.array([0.0, 3.7]))
        np.testing.assert_allclose(g, np.eye(2))
        np.testing.assert_allclose(ginv, np.eye(2))
        g, ginv = metric_tensor(np.array([1.0, 0.0]))
        np.testing.assert_allclose(g, [[5.0, -2.0], [-2.0, 1.0]])
        np.testing.assert_allclose(ginv, [[1.0, 2.0], [2.0, 5.0]])
        for _ in range(10):
            p = rng.standard_normal(2) * 3
            g, ginv = metric_tensor(p)
            assert np.linalg.det(g) == pytest.approx(1.0, abs=1e-12)
            np.testing.assert_allclose(g @ ginv, np.eye(2), atol=1e-12)

    def test_exp_log_examples(self, rng):
        m = RosenbrockPlane()
        p = rng.standard_normal(2)
        np.testing.assert_allclose(m.exp(p, np.zeros(2)), p)
        np.testing.assert_allclose(m.exp(np.zeros(2), np.array([1.0, 0.0])), [1.0, 1.0])
        np.testing.assert_allclose(m.log(np.zeros(2), np.array([1.0, 1.0])), [1.0, 0.0])
        assert np.abs(m.log(p, p)).max() == 0.0
        for _ in range(10):
            p, q = rng.standard_normal(2), rng.standard_normal(2)
            x = rng.standard_normal(2)
            np.testing.assert_allclose(m.log(p, m.exp(p, x)), x, atol=1e-12)
            np.testing.assert_allclose(m.exp(p, m.log(p, q)), q, atol=1e-12)

    def test_egrad_examples(self, rng):
        m = RosenbrockPlane()
        p = rng.standard_normal(2)
        np.testing.assert_allclose(m.egrad_to_rgrad(p, np.zeros(2)), np.zeros(2))
        g = rng.standard_normal(2)
        np.testing.assert_allclose(m.egrad_to_rgrad(np.array([0.0, 2.0]), g), g)

    def test_gradient_log_pairing_identity(self, rng):
        # <grad h(q), log_q(p)>_q = (p1-q1) h1'(q) + (p2-q2-(p1-q1)^2) h2'(q)
        m = RosenbrockPlane()
        for _ in range(10):
            p, q, dh = rng.standard_normal(2), rng.standard_normal(2), rng.standard_normal(2)
            lhs = m.inner(q, m.egrad_to_rgrad(q, dh), m.log(q, p))
            u = p[0] - q[0]
            rhs = u * dh[0] + (p[1] - q[1] - u * u) * dh[1]
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(rhs))

    def test_chart_isometry_maps_lines_to_geodesics(self, rng):
        # psi(z) = (z1, z1^2 - z2) with differential dpsi_a(v) = (v1, 2 a1 v1 - v2)
        m = RosenbrockPlane()

        def psi(z):
            return np.array([z[0], z[0] * z[0] - z[1]])

        for _ in range(10):
            a, b = rng.standard_normal(2), rng.standard_normal(2)
            v = b - a
            dpsi_v = np.array([v[0], 2.0 * a[0] * v[0] - v[1]])
            np.testing.assert_allclose(m.exp(psi(a), dpsi_v), psi(b), atol=1e-10)
