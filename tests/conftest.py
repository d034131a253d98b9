import math

import numpy as np
import pytest

from rdcopt.manifolds import Euclidean, RosenbrockPlane, SPDManifold
from rdcopt.matfun import symmetrize


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_spd(rng, n, scale=1.0):
    b = rng.standard_normal((n, n))
    return symmetrize(b @ b.T + 0.5 * np.eye(n)) * scale


def off_ray_logdet_start(n, seed=0):
    """A seeded SPD matrix Q diag(e^t) Q^T, Q a random rotation and t in
    [-1, 1] shifted so that log det equals that of the log-det experiment's
    start log(n) I: it commutes with no multiple of I but its own."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    t = rng.uniform(-1.0, 1.0, n)
    t += math.log(math.log(n)) - t.mean()
    return symmetrize((q * np.exp(t)) @ q.T)


def random_sym(rng, n, scale=1.0):
    return symmetrize(rng.standard_normal((n, n))) * scale


def fd_slope(geometry, f, p, v, step=None):
    """Central-difference directional derivative of f along exp_p(t v)."""
    h = step if step is not None else 1e-6 * (1.0 + np.linalg.norm(np.ravel(p)))
    return (f(geometry.exp(p, h * v)) - f(geometry.exp(p, -h * v))) / (2.0 * h)


def check_gradient(geometry, f, rgrad, p, directions, rel_tol=1e-5):
    """Assert <grad f(p), v> matches finite differences for every direction."""
    g = rgrad(p)
    worst = 0.0
    for v in directions:
        analytic = geometry.inner(p, g, v)
        numeric = fd_slope(geometry, f, p, v)
        err = abs(analytic - numeric) / max(1.0, abs(analytic))
        worst = max(worst, err)
    assert worst <= rel_tol, f"gradient mismatch: relative error {worst:.3e}"
    return worst


def check_hessian(geometry, rgrad, hess, p, directions, rel_tol=1e-6, step=1e-4):
    """Assert that the map ``hess`` (V -> Hess f(p)[V]) matches the central
    difference of the transported gradient, (T grad f(exp_p(hV)) -
    T grad f(exp_p(-hV)))/(2h), for unit directions, relative to ||Hess[V]||_p."""
    worst = 0.0
    for v in directions:
        v = v / geometry.norm(p, v)
        plus, minus = geometry.exp(p, step * v), geometry.exp(p, -step * v)
        numeric = (geometry.transport(plus, p, rgrad(plus))
                   - geometry.transport(minus, p, rgrad(minus))) / (2.0 * step)
        exact = hess(v)
        worst = max(worst, geometry.norm(p, exact - numeric) / geometry.norm(p, exact))
    assert worst <= rel_tol, f"Hessian mismatch: relative error {worst:.3e}"
    return worst


def tangent_map(geometry, p, hess):
    """The frame-coordinate map ``hess`` at p (Y -> Hess[Y], as the trust
    region reads it) as a map of tangents: V -> from_frame(hess(to_frame(V)))."""
    return lambda v: geometry.from_frame(p, hess(geometry.to_frame(p, v)))


def check_self_adjoint(geometry, hess, p, directions, rel_tol=1e-12):
    """Assert <Hess[U], V>_p = <U, Hess[V]>_p over pairs of directions,
    relative to ||Hess[U]||_p ||V||_p + ||U||_p ||Hess[V]||_p."""
    for u, v in zip(directions, directions[1:]):
        hu, hv = hess(u), hess(v)
        scale = (geometry.norm(p, hu) * geometry.norm(p, v)
                 + geometry.norm(p, u) * geometry.norm(p, hv))
        gap = abs(geometry.inner(p, hu, v) - geometry.inner(p, u, hv))
        assert gap <= rel_tol * scale, f"not self-adjoint: {gap:.3e} against {scale:.3e}"


def det_hessian_quadform(geometry, p, phi_d1, phi_d2, x) -> float:
    """<Hess phi(det(.))(p) X, X>_p on SPD for a det-composed cost.

    Equals (phi''(t) t^2 + phi'(t) t) tr(p^-1 X) <p, X>_p with t = det p;
    nonnegative for all X exactly when phi(det(.)) is geodesically convex.
    """
    t = float(np.exp(geometry.logdet(p)))
    coeff = phi_d2(t) * t * t + phi_d1(t) * t
    _, si = geometry.roots(p)
    tr_pinv_x = float(np.trace(si @ x @ si))
    return coeff * tr_pinv_x * geometry.inner(p, p, x)


def sample_directions(geometry, rng, p, count):
    if isinstance(geometry, SPDManifold):
        return [random_sym(rng, geometry.n) for _ in range(count)]
    return [rng.standard_normal(geometry.dim) for _ in range(count)]


def sample_point(geometry, rng, scale=1.0):
    if isinstance(geometry, SPDManifold):
        return random_spd(rng, geometry.n, scale)
    if isinstance(geometry, RosenbrockPlane):
        return rng.standard_normal(2) * scale
    assert isinstance(geometry, Euclidean)
    return rng.standard_normal(geometry.dim) * scale
