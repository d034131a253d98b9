"""Dense symmetric-matrix calculus.

Everything the SPD-cone geometry needs is built from one primitive: the
eigendecomposition of a real symmetric matrix. Matrix functions (exp, log,
sqrt, powers) are applied on the spectrum and the result is re-symmetrized
so that round-off asymmetry cannot accumulate across solver iterations.

Every LAPACK call of the package is made here, through ``_lapack``, and
entered in one work ledger that :func:`work_ledger` reads.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "EigDecomp",
    "symmetrize",
    "sym_eig",
    "sym_apply",
    "sym_dlog",
    "spd_cholesky",
    "is_spd",
    "assert_spd",
    "spd_sqrt_inv_sqrt",
    "spd_logdet",
    "work_ledger",
]

# A matrix counts as SPD iff min eigenvalue > SPD_RTOL * max(1, max eigenvalue):
# tolerates eigensolver round-off, rejects genuinely singular inputs.
SPD_RTOL = 1e-12
# dsyevd rescales (and so rounds) unless sqrt(safmin/eps) <= max |entry| <= 1/that
_UNSCALED = (2.0 ** -485, 2.0 ** 485)

# The work ledger: [calls, matrices] per LAPACK operation, a (k, n, n) stack
# being one call and k matrices, and the c I that sym_eig answers without
# LAPACK; lists and an int, since a Counter item's increment costs 0.2 us more
_WORK = {op: [0, 0] for op in ("eigh", "eigvalsh", "inv", "cholesky")}
_scalar_answers = 0


def work_ledger() -> Counter:
    """A snapshot of the work ledger: "<op>.calls" and "<op>.matrices" per
    LAPACK operation, and "scalar". ``later - earlier`` is the work between
    two snapshots (a key with no work reads 0)."""
    snapshot = Counter(scalar=_scalar_answers)
    for op, (calls, matrices) in _WORK.items():
        snapshot[op + ".calls"], snapshot[op + ".matrices"] = calls, matrices
    return snapshot


def _lapack(op: str, a: np.ndarray):
    """``np.linalg.<op>(a)``, entered in the work ledger. The function is looked
    up at call time, so a wrapper set on ``numpy.linalg`` sees the call."""
    work = _WORK[op]
    work[0] += 1
    work[1] += math.prod(a.shape[:-2])
    return getattr(np.linalg, op)(a)


class EigDecomp(NamedTuple):
    """Eigendecomposition Q diag(w) Q^T of a symmetric matrix, w ascending."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


class _Diagonal(EigDecomp):
    """The ``EigDecomp`` (c, ..., c), I of c I, as ``sym_eig`` returns it,
    the one place that recognizes c I: ``sym_apply`` and
    ``spd_sqrt_inv_sqrt`` then build their diagonal results without
    multiplying by Q, with the bits of the dense route."""

    __slots__ = ()


def _diagonal(v: np.ndarray) -> np.ndarray:
    """Q diag(v) Q^T for Q = I, symmetrized, with the bits of the product:
    BLAS sums each entry from +0, so the diagonal is v + 0 and the rest +0,
    which ``symmetrize`` leaves at (v + v)/2 and +0."""
    v = v + 0.0
    return np.diag(0.5 * (v + v))


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return (M + M^T)/2, for one matrix or a stack of shape (..., n, n).

    Raises ValueError for input that is not square in its last two axes.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    # the method, not np.swapaxes: this runs thousands of times per solve
    return 0.5 * (m + m.swapaxes(-1, -2))


def sym_eig(a: np.ndarray) -> EigDecomp:
    """Eigendecomposition of a symmetric matrix, eigenvalues ascending.

    A stack of shape (..., n, n) is decomposed matrix by matrix in one
    call; each slice gets the bits a call on it alone would give.
    Deterministic for identical input (LAPACK dsyevd via numpy).
    Raises ValueError on non-finite entries. Returns fresh, writable arrays.

    A scalar matrix c I with 2^-485 <= |c| <= 2^485 (every point and
    gradient of the log-det experiment) gets ``_Diagonal`` (c, ..., c), I,
    the bits ``np.linalg.eigh`` gives, without LAPACK. This is the one
    place that recognizes c I, once, on the raw input (c I is symmetric and
    finite). Any other input is symmetrized, checked and sent to LAPACK:
    a matrix that only symmetrizes to c I, the zero matrix (its eigenvalues
    come back -0.0), c I outside that range (rescaled), other diagonals
    (ties are not in stable-sort order) and stacks.
    """
    global _scalar_answers
    a = np.asarray(a, dtype=float)
    n = len(a) if a.ndim == 2 and a.shape[0] == a.shape[1] else 0
    c = a.item(0) if n else 0.0
    # c I: c in both corners (one read turns most others away), n nonzero
    # entries, all of them c on the diagonal
    if (_UNSCALED[0] <= abs(c) <= _UNSCALED[1] and a.item(-1) == c
            and np.count_nonzero(a) == n and (a.diagonal() == c).all()):
        _scalar_answers += 1
        # fresh arrays: the SPD factor cache marks what it keeps read-only
        return _Diagonal(np.full(n, c), np.eye(n))
    a = symmetrize(a)
    if not np.isfinite(a).all():
        raise ValueError("non-finite matrix")
    w, q = _lapack("eigh", a)
    return EigDecomp(w, q)


def sym_apply(a: np.ndarray | EigDecomp,
              fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """Apply a scalar function to a symmetric matrix via its spectrum.

    Returns Q diag(fn(w)) Q^T, symmetrized. ``fn`` must be defined on every
    eigenvalue of ``a`` (e.g. log needs a positive spectrum); a non-finite
    value raises ValueError("spectrum outside domain"). ``a`` may also be
    given as its ``EigDecomp``; the ``_Diagonal`` one ``sym_eig`` gives c I
    yields diag(fn(w)) without the products, with their bits.
    """
    w, q = a if isinstance(a, EigDecomp) else sym_eig(a)
    with np.errstate(all="ignore"):
        fw = np.asarray(fn(w), dtype=float)
    if fw.shape != w.shape or not np.all(np.isfinite(fw)):
        raise ValueError("spectrum outside domain")
    if type(a) is _Diagonal:
        return _diagonal(fw)
    return symmetrize((q * fw) @ q.T)


def sym_dlog(m: np.ndarray | EigDecomp, h: np.ndarray) -> np.ndarray:
    """Frechet derivative of the matrix log at SPD ``m`` applied to symmetric ``h``.

    Daleckii-Krein: in the eigenbasis of m the derivative acts entrywise by
    the divided differences (log w_i - log w_j)/(w_i - w_j), with 1/w_i on
    the diagonal. Self-adjoint for the trace inner product. ``m`` and ``h``
    may be stacks of shape (..., n, n) that broadcast against each other;
    a non-positive spectrum in any slice of ``m`` raises ValueError. ``m``
    may also be given as its ``EigDecomp`` (as ``sym_eig`` returns it),
    which is then used instead of decomposing m again.
    """
    w, q = m if isinstance(m, EigDecomp) else sym_eig(m)
    if w.min() <= 0.0:
        raise ValueError("spectrum outside domain")
    qt = q.swapaxes(-1, -2)
    hq = qt @ symmetrize(h) @ q
    lw = np.log(w)
    wi, wj = w[..., :, None], w[..., None, :]
    diff = wi - wj
    with np.errstate(divide="ignore", invalid="ignore"):
        gamma = np.where(
            np.abs(diff) > 1e-13 * np.maximum(w[..., -1:, None], 1.0),
            (lw[..., :, None] - lw[..., None, :]) / diff,
            2.0 / (wi + wj),
        )
    return symmetrize(q @ (gamma * hq) @ qt)


def spd_cholesky(a: np.ndarray) -> np.ndarray:
    """Upper-triangular factor P with P^T P = A for SPD A.

    Raises ValueError("not positive definite") when a pivot fails.
    """
    a = symmetrize(a)
    try:
        lower = _lapack("cholesky", a)
    except np.linalg.LinAlgError as exc:
        raise ValueError("not positive definite") from exc
    return lower.T


def is_spd(a: np.ndarray) -> bool:
    """Symmetry plus strict positive definiteness, with SPD_RTOL slack."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    if not np.all(np.isfinite(a)):
        return False
    if not np.allclose(a, a.T, rtol=0.0, atol=1e-10 * (1.0 + np.abs(a).max())):
        return False
    w = _lapack("eigvalsh", symmetrize(a))
    return bool(w[0] > SPD_RTOL * max(1.0, w[-1]))


def assert_spd(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Validate and return the symmetrized SPD matrix, raising otherwise."""
    if not is_spd(a):
        raise ValueError(f"{what} is not symmetric positive definite")
    return symmetrize(a)


def spd_sqrt_inv_sqrt(p: np.ndarray | EigDecomp) -> tuple[np.ndarray, np.ndarray]:
    """(p^{1/2}, p^{-1/2}) from one eigendecomposition.

    ``p`` may also be given as its ``EigDecomp`` (a ``_Diagonal`` one is
    read as in ``sym_apply``). Raises
    ValueError("spectrum outside domain") if p is not positive definite.
    """
    w, q = p if isinstance(p, EigDecomp) else sym_eig(p)
    if w[0] <= 0.0:
        raise ValueError("spectrum outside domain")
    sw = np.sqrt(w)
    if type(p) is _Diagonal:
        return _diagonal(sw), _diagonal(1.0 / sw)
    sqrt = symmetrize((q * sw) @ q.T)
    inv_sqrt = symmetrize((q / sw) @ q.T)
    return sqrt, inv_sqrt


def spd_logdet(p: np.ndarray | EigDecomp) -> float:
    """log det p as the sum of log eigenvalues (no determinant overflow).

    ``p`` may also be given as its ``EigDecomp``.
    """
    w, _ = p if isinstance(p, EigDecomp) else sym_eig(p)
    if w[0] <= 0.0:
        raise ValueError("spectrum outside domain")
    return float(np.sum(np.log(w)))
