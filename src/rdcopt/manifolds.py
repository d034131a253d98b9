"""The three Hadamard geometries used by the solvers and benchmarks.

* :class:`Euclidean` — flat space, the reference geometry.
* :class:`SPDManifold` — the cone of symmetric positive definite matrices
  with the affine-invariant metric ``<X,Y>_p = tr(X p^-1 Y p^-1)``.
* :class:`RosenbrockPlane` — the plane with the valley-adapted metric
  ``G_p = [[1+4p1^2, -2p1], [-2p1, 1]]`` under which the Rosenbrock coupling
  term becomes geodesically convex.

Points and tangent vectors are plain numpy arrays (vectors for the flat and
plane geometries, symmetric matrices for the SPD cone). Every operation takes
its base point explicitly; gradients at different iterates are only compared
after :meth:`Geometry.transport`.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .matfun import (
    EigDecomp,
    _Diagonal,
    spd_logdet,
    spd_sqrt_inv_sqrt,
    sym_apply,
    sym_dlog,
    sym_eig,
    symmetrize,
)

__all__ = ["Geometry", "Euclidean", "SPDManifold", "RosenbrockPlane"]


def _is_integer(v) -> bool:
    """An integer of any type but bool, which ``numbers.Integral`` admits:
    the package's rule for its integer arguments."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


class Geometry:
    """Interface shared by the concrete geometries.

    Subclasses implement ``inner``, ``exp``, ``log``, ``transport``,
    ``egrad_to_rgrad``, ``to_frame``, ``from_frame`` and
    ``half_sq_dist_hessian``; distance and geodesic points are derived from
    those (exact on Hadamard manifolds, where exp/log are global).
    """

    dim: int

    def inner(self, p, x, y) -> float:
        raise NotImplementedError

    def norm(self, p, x) -> float:
        return math.sqrt(max(self.inner(p, x, x), 0.0))

    def exp(self, p, x):
        raise NotImplementedError

    def to_frame(self, p, x):
        """Orthonormal frame coordinates of the tangent x: <x, y>_p is their dot product."""
        raise NotImplementedError

    def from_frame(self, p, y):
        """The tangent at p with frame coordinates y."""
        raise NotImplementedError

    def exp_frame(self, p, y):
        """exp_p of the tangent with frame coordinates y."""
        return self.exp(p, self.from_frame(p, y))

    def log(self, p, q):
        raise NotImplementedError

    def dist(self, p, q) -> float:
        return self.norm(p, self.log(p, q))

    def geodesic(self, p, q, t: float):
        """Point gamma(t) on the geodesic from p (t=0) to q (t=1)."""
        if not 0.0 <= t <= 1.0:
            raise ValueError("parameter out of range")
        return self.exp(p, t * self.log(p, q))

    def transport(self, p, q, x):
        """Parallel transport of the tangent x from p to q."""
        raise NotImplementedError

    def egrad_to_rgrad(self, p, g):
        """Riemannian gradient from the Euclidean gradient at p."""
        raise NotImplementedError

    def half_sq_dist_hessian(self, p, y):
        """The Riemannian Hessian of d^2(., y)/2 at p, whose gradient is
        -log_p(y), as a map Y -> Hess[Y] of frame coordinates (``to_frame``)."""
        raise NotImplementedError

    def adjoint_log_diff(self, q, p, x):
        """Gradient at p of the linear model term ell(p) = <x, log_q(p)>_q.

        This is the adjoint of the differential of ``p -> log_q(p)`` applied
        to the tangent ``x`` at q; it is what the generic DC subproblem
        gradient needs. The plane does not give it: every plane problem
        gives its subproblem in closed form.
        """
        raise NotImplementedError


class Euclidean(Geometry):
    """Flat R^d with the dot-product metric."""

    def __init__(self, dim: int):
        if not (_is_integer(dim) and dim >= 1):
            raise ValueError("dim must be a positive integer")
        self.dim = int(dim)

    def inner(self, p, x, y) -> float:
        return float(np.dot(np.ravel(x), np.ravel(y)))

    def exp(self, p, x):
        return np.asarray(p, dtype=float) + x

    def to_frame(self, p, x):
        return np.asarray(x, dtype=float)

    from_frame = to_frame

    def log(self, p, q):
        return np.asarray(q, dtype=float) - p

    def transport(self, p, q, x):
        return np.asarray(x, dtype=float)

    def egrad_to_rgrad(self, p, g):
        return np.asarray(g, dtype=float)

    def half_sq_dist_hessian(self, p, y):
        # flat space: the identity
        return lambda v: v

    def adjoint_log_diff(self, q, p, x):
        return np.asarray(x, dtype=float)


# bound of the SPD factor cache. A trust-region step works at its iterate, one
# trial (or finite-difference) point and the outer DC iterate at a time, and at
# the whitened matrices p^-1/2 q p^-1/2 between them. On one n = 5 log-det
# DCA + DCPPA pair with exact Hessians in frame coordinates, six entries make
# 398 eigendecompositions, eight 397 and ten 390, as before the frame. Each
# point's entry also remembers the whitened matrix it last met, so a DCPPA
# sub-solve whitens each trial point against the outer iterate once.
_CACHED = 10


def _read_only(arrays: tuple) -> tuple:
    for a in arrays:
        a.setflags(write=False)
    return arrays


class _Factored:
    """One cached symmetric matrix: its eigendecomposition ``eig``, and
    ``roots`` = (p^{1/2}, p^{-1/2}), ``logdet`` and ``whitened`` = (key of
    q, eigendecomposition of p^{-1/2} q p^{-1/2}) for the q last whitened
    by this point, each None until first used. Every array is read-only.

    ``eig`` is what ``sym_eig`` returned; for c I that is a ``_Diagonal``,
    on which every product with Q or a root is an entrywise scaling (see
    ``_sandwich``).
    """

    __slots__ = ("eig", "roots", "logdet", "whitened")

    def __init__(self, eig: EigDecomp):
        self.eig = _read_only(eig)
        self.roots = self.logdet = self.whitened = None


def _sandwich(entry: _Factored, x, k: int):
    """r x r for the root r = ``entry.roots[k]``, unsymmetrized. A diagonal
    root scales entries, with the bits of the dense product: BLAS sums each
    entry from +0, so it is (d_i x_ij + 0) d_j + 0 for d = diag(r), and as
    d > 0 the inner + 0 changes no bit. Finite x is assumed: the dense
    product spreads a non-finite entry over its row and column (0 * inf)."""
    r = entry.roots[k]
    if type(entry.eig) is _Diagonal:
        d = r.diagonal()
        return d[:, None] * x * d + 0.0
    return r @ x @ r


class SPDManifold(Geometry):
    """SPD(n) with the affine-invariant metric tr(X p^-1 Y p^-1).

    exp_p(X) = p^{1/2} expm(p^{-1/2} X p^{-1/2}) p^{1/2} and its inverse
    log_p(q) = p^{1/2} logm(p^{-1/2} q p^{-1/2}) p^{1/2}; both are global
    diffeomorphisms (Hadamard manifold). The manifold dimension is
    n(n+1)/2.

    Each instance keeps the last ``_CACHED`` symmetric matrices it
    factored, points and whitened matrices alike, keyed by the bytes of
    the input: the eigendecomposition and, for points, p^{1/2}, p^{-1/2}
    and log det p. So the operations of a solver and of a problem's
    closures at one iterate factor it once. Each miss is one ``sym_eig``,
    which the ``matfun`` work ledger counts as an ``eigh`` call, or as a
    ``scalar`` answer for c I. A point's entry also keeps the
    eigendecomposition of p^{-1/2} q p^{-1/2} for the q it last whitened,
    keyed by q's bytes: ``log``, ``dist``, ``transport``,
    ``half_sq_dist_hessian`` and ``adjoint_log_diff`` of one pair whiten it
    once between them. Every result is bit for bit that of the uncached
    computation.

    Only an entry for c I, as every matrix of the log-det experiment is,
    takes the diagonal route; ``sym_eig`` decides it by returning
    ``_Diagonal``. On it ``roots``, ``inner``, ``to_frame``, ``from_frame``,
    the spectral maps of ``exp_frame``, ``log`` and ``transport``, and the
    ``half_sq_dist_hessian`` map scale entries where the dense route
    multiplies by I or a diagonal root, with its bits for finite tangents
    (``transport``'s products with the roots stay dense). Any other matrix,
    other diagonals included, keeps the dense route.
    """

    def __init__(self, n: int):
        if not (_is_integer(n) and n >= 1):
            raise ValueError("n must be a positive integer")
        self.n = int(n)
        self.dim = self.n * (self.n + 1) // 2
        self._cache: list = []  # (key, _Factored), most recent first

    def _factored(self, a) -> _Factored:
        a = np.asarray(a, dtype=float)
        # bytes, not values: -0.0 and 0.0 differ, and a later in-place change
        # to the caller's array cannot match the copy taken here
        key = a.shape, a.tobytes()
        cache = self._cache
        if cache and cache[0][0] == key:
            return cache[0][1]
        for i, (k, entry) in enumerate(cache):
            if k == key:
                if i:
                    cache.insert(0, cache.pop(i))
                return entry
        entry = _Factored(sym_eig(a))
        cache.insert(0, (key, entry))
        del cache[_CACHED:]
        return entry

    def _eig(self, a) -> EigDecomp:
        return self._factored(a).eig

    def _whitened(self, p, q) -> EigDecomp:
        """The eigendecomposition of p^{-1/2} q p^{-1/2}: from p's entry when q
        is the matrix p last whitened, otherwise through the cache."""
        entry = self._factored(p)
        q = np.asarray(q, dtype=float)
        key = q.shape, q.tobytes()
        if entry.whitened is None or entry.whitened[0] != key:
            entry.whitened = key, self._eig(self.to_frame(p, q))
        return entry.whitened[1]

    def _rooted(self, p) -> _Factored:
        """p's entry, with its roots."""
        entry = self._factored(p)
        if entry.roots is None:
            entry.roots = _read_only(spd_sqrt_inv_sqrt(entry.eig))
        return entry

    def roots(self, p) -> tuple[np.ndarray, np.ndarray]:
        """(p^{1/2}, p^{-1/2}), read-only."""
        return self._rooted(p).roots

    def logdet(self, p) -> float:
        """log det p, from the cached eigenvalues of p."""
        entry = self._factored(p)
        if entry.logdet is None:
            entry.logdet = spd_logdet(entry.eig)
        return entry.logdet

    def inner(self, p, x, y) -> float:
        # <p^-1/2 X p^-1/2, p^-1/2 Y p^-1/2>_F: exactly symmetric, >= 0 for Y = X
        entry = self._rooted(p)
        a = _sandwich(entry, x, 1)
        b = a if y is x else _sandwich(entry, y, 1)
        return float(np.sum(a * b))

    def to_frame(self, p, x):
        # the whitened tangent p^-1/2 X p^-1/2, where the metric is Frobenius
        return symmetrize(_sandwich(self._rooted(p), x, 1))

    def from_frame(self, p, y):
        return symmetrize(_sandwich(self._rooted(p), y, 0))

    def exp(self, p, x):
        return self.exp_frame(p, self.to_frame(p, x))

    def exp_frame(self, p, y):
        return self.from_frame(p, sym_apply(self._eig(y), np.exp))

    def log(self, p, q):
        return self.from_frame(p, sym_apply(self._whitened(p, q), np.log))

    def dist(self, p, q) -> float:
        # ||logm(p^-1/2 q p^-1/2)||_F from the eigenvalues directly
        w, _ = self._whitened(p, q)
        if w[0] <= 0.0:
            raise ValueError("spectrum outside domain")
        return float(np.sqrt(np.sum(np.log(w) ** 2)))

    def transport(self, p, q, x):
        # E X E^T with E = (q p^-1)^{1/2} = p^{1/2}(p^{-1/2} q p^{-1/2})^{1/2} p^{-1/2}
        s, si = self.roots(p)
        mid = sym_apply(self._whitened(p, q), np.sqrt)
        e = s @ mid @ si
        return symmetrize(e @ x @ e.T)

    def egrad_to_rgrad(self, p, g):
        return symmetrize(p @ symmetrize(g) @ p)

    def half_sq_dist_hessian(self, p, y):
        """With p^{-1/2} y p^{-1/2} = Q diag(mu) Q^T and l = log mu, the
        Hessian scales Y, written in the basis Q, entrywise by g(l_i - l_j)
        with g(t) = (t/2) coth(t/2) and g(0) = 1: the Jacobi fields along
        the geodesic from p to y on a symmetric space. The factors are those
        ``dist`` and ``log`` of the pair (p, y) read. Self-adjoint; the
        identity at y = p.
        """
        whitened = self._whitened(p, y)
        mu, q = whitened
        if mu[0] <= 0.0:
            raise ValueError("spectrum outside domain")
        lw = np.log(mu)
        half = 0.5 * (lw[:, None] - lw[None, :])
        gain = np.divide(half, np.tanh(half), out=np.ones_like(half), where=half != 0.0)
        if type(whitened) is _Diagonal:
            # Q = I: each product with it adds + 0, and gain >= 1 keeps the
            # inner one from changing a bit
            def apply(v):
                return symmetrize(gain * v + 0.0)

            return apply

        def apply(v):
            return symmetrize(q @ (gain * (q.T @ v @ q)) @ q.T)

        return apply

    def adjoint_log_diff(self, q, p, x):
        # ell(p) = tr(Xhat logm(M)) with Xhat = q^-1/2 X q^-1/2, M = q^-1/2 p q^-1/2;
        # Euclidean gradient q^-1/2 Dlogm(M)[Xhat] q^-1/2 by Daleckii-Krein,
        # then converted with p G p.
        _, qi = self.roots(q)
        egrad = qi @ sym_dlog(self._whitened(q, p), self.to_frame(q, x)) @ qi
        return self.egrad_to_rgrad(p, egrad)


class RosenbrockPlane(Geometry):
    """R^2 with the metric G_p = [[1+4p1^2, -2p1], [-2p1, 1]].

    The map psi(z) = (z1, z1^2 - z2) is an isometry from flat R^2, so
    geodesics are images of straight lines and exp/log have the closed forms

        exp_p(X) = (p1 + X1, p2 + X2 + X1^2)
        log_p(q) = (q1 - p1, q2 - p2 - (q1 - p1)^2)
    """

    dim = 2

    def inner(self, p, x, y) -> float:
        p1 = float(p[0])
        x1, x2 = float(x[0]), float(x[1])
        y1, y2 = float(y[0]), float(y[1])
        return (
            (1.0 + 4.0 * p1 * p1) * x1 * y1
            - 2.0 * p1 * (x1 * y2 + x2 * y1)
            + x2 * y2
        )

    def exp(self, p, x):
        x1 = float(x[0])
        return np.array([p[0] + x1, p[1] + x[1] + x1 * x1])

    def to_frame(self, p, x):
        # G_p = C^T C with C = [[1, 0], [-2p1, 1]]; the frame coordinates are C x
        x1 = float(x[0])
        return np.array([x1, x[1] - 2.0 * float(p[0]) * x1])

    def from_frame(self, p, y):
        y1 = float(y[0])
        return np.array([y1, y[1] + 2.0 * float(p[0]) * y1])

    def log(self, p, q):
        u = float(q[0]) - float(p[0])
        return np.array([u, q[1] - p[1] - u * u])

    def transport(self, p, q, x):
        # in the flat chart transport is the identity; conjugating with the
        # chart differentials gives (X1, X2 + 2(q1 - p1) X1)
        x1 = float(x[0])
        return np.array([x1, x[1] + 2.0 * (float(q[0]) - float(p[0])) * x1])

    def egrad_to_rgrad(self, p, g):
        p1 = float(p[0])
        g1, g2 = float(g[0]), float(g[1])
        return np.array([g1 + 2.0 * p1 * g2,
                         2.0 * p1 * g1 + (1.0 + 4.0 * p1 * p1) * g2])

    def half_sq_dist_hessian(self, p, y):
        # flat: the frame coordinates C x are those of the flat chart, where
        # the Hessian is the identity
        return lambda v: v
