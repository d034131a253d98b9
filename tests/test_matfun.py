import math
from collections import Counter

import numpy as np
import pytest

from rdcopt.matfun import (
    assert_spd,
    is_spd,
    spd_cholesky,
    spd_logdet,
    spd_sqrt_inv_sqrt,
    sym_apply,
    sym_dlog,
    sym_eig,
    symmetrize,
    work_ledger,
)

from conftest import random_spd, random_sym


class TestSymmetrize:
    def test_arithmetic(self):
        out = symmetrize(np.array([[1.0, 2.0], [0.0, 1.0]]))
        np.testing.assert_allclose(out, [[1.0, 1.0], [1.0, 1.0]])

    def test_symmetric_unchanged(self, rng):
        a = random_sym(rng, 4)
        np.testing.assert_array_equal(symmetrize(a), a)

    def test_antisymmetric_to_zero(self, rng):
        m = rng.standard_normal((3, 3))
        a = 0.5 * (m - m.T)
        np.testing.assert_allclose(symmetrize(a), np.zeros((3, 3)), atol=1e-16)

    def test_rejects_non_square(self):
        for bad in (np.ones((2, 3)), np.ones(3), np.ones((4, 2, 3))):
            with pytest.raises(ValueError):
                symmetrize(bad)

    def test_stack_matches_slices(self, rng):
        stack = rng.standard_normal((6, 4, 4))
        out = symmetrize(stack)
        assert out.shape == stack.shape
        for k in range(len(stack)):
            assert np.array_equal(out[k], symmetrize(stack[k]))


class TestSymEig:
    def test_diagonal(self):
        w, q = sym_eig(np.diag([3.0, 1.0]))
        np.testing.assert_allclose(w, [1.0, 3.0])
        # columns are signed unit vectors picking out the diagonal entries
        np.testing.assert_allclose(np.abs(q), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_identity(self):
        w, _ = sym_eig(np.eye(3))
        np.testing.assert_allclose(w, np.ones(3))

    def test_reconstruction_and_orthogonality(self, rng):
        for _ in range(20):
            a = random_sym(rng, 5, scale=rng.uniform(0.1, 10.0))
            w, q = sym_eig(a)
            bound = 1e-12 * (1.0 + np.linalg.norm(a))
            assert np.linalg.norm((q * w) @ q.T - a) <= bound
            assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-12
            assert np.all(np.diff(w) >= 0.0)

    def test_deterministic(self, rng):
        a = random_sym(rng, 6)
        w1, q1 = sym_eig(a)
        w2, q2 = sym_eig(a)
        np.testing.assert_array_equal(w1, w2)
        np.testing.assert_array_equal(q1, q2)

    def test_non_finite_rejected(self):
        a = np.eye(3)
        a[0, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite matrix"):
            sym_eig(a)

    def test_orthogonal_covariance(self, rng):
        for _ in range(10):
            a = random_sym(rng, 4)
            q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
            w_a, _ = sym_eig(a)
            w_rot, _ = sym_eig(symmetrize(q @ a @ q.T))
            np.testing.assert_allclose(w_a, w_rot, atol=1e-10)

    @pytest.mark.parametrize("off", [0.0, -0.0])
    @pytest.mark.parametrize("c", [5e-324, 1e-300, 1e-3, math.log(5), -2.0, 1e160, 1e300])
    @pytest.mark.parametrize("n", [1, 2, 5, 20, 60])
    def test_scalar_matrix_has_the_bits_of_lapack(self, n, c, off):
        # c I with 2^-485 <= |c| <= 2^485 is answered without LAPACK; outside
        # that range LAPACK rescales it (for n >= 2, 1e-300 I and 1e300 I get
        # eigenvalues that are not c), so it still goes there
        a = np.full((n, n), off)
        np.fill_diagonal(a, c)
        w_lapack, q_lapack = np.linalg.eigh(a)
        before = work_ledger()
        w, q = sym_eig(a)
        # bytes, not values: sign bits count
        assert w.tobytes() == w_lapack.tobytes()
        assert q.tobytes() == q_lapack.tobytes()
        if 2.0 ** -485 <= abs(c) <= 2.0 ** 485:
            assert work_ledger() - before == Counter(scalar=1)
        else:
            assert work_ledger() - before == Counter({"eigh.calls": 1, "eigh.matrices": 1})
        assert w.flags.writeable and q.flags.writeable

    def test_input_that_symmetrizes_to_scalar(self):
        # c I is checked on the raw input first; a matrix that only its
        # symmetrized copy shows to be c I is still answered without LAPACK
        a = 3.0 * np.eye(4)
        a[0, 1], a[1, 0] = 0.5, -0.5
        w_lapack, q_lapack = np.linalg.eigh(symmetrize(a))
        before = work_ledger()
        w, q = sym_eig(a)
        assert work_ledger() - before == Counter(scalar=1)
        assert w.tobytes() == w_lapack.tobytes() and q.tobytes() == q_lapack.tobytes()

    def test_near_scalar_input_goes_to_lapack(self):
        n = 5
        tiny_off = 2.0 * np.eye(n)
        tiny_off[0, 1] = 1e-300
        stack = np.stack([2.0 * np.eye(n), 3.0 * np.eye(n)])
        inputs = [np.zeros((n, n)), np.diag([2.0, 2.0, 1.0]), tiny_off, stack]
        expected = [np.linalg.eigh(symmetrize(a)) for a in inputs]
        for a, (w_lapack, q_lapack) in zip(inputs, expected):
            before = work_ledger()
            w, q = sym_eig(a)
            # a (k, n, n) stack is one call and k matrices
            matrices = len(a) if a.ndim == 3 else 1
            assert work_ledger() - before == Counter({"eigh.calls": 1,
                                                      "eigh.matrices": matrices})
            assert w.tobytes() == w_lapack.tobytes()
            assert q.tobytes() == q_lapack.tobytes()


class TestSymApply:
    def test_identity_function(self, rng):
        a = random_sym(rng, 4)
        assert np.linalg.norm(sym_apply(a, lambda w: w) - a) <= 1e-12 * (1 + np.linalg.norm(a))

    def test_exp_of_identity(self):
        np.testing.assert_allclose(sym_apply(np.eye(2), np.exp), np.e * np.eye(2))

    def test_log_of_diagonal(self):
        out = sym_apply(np.diag([1.0, np.e]), np.log)
        np.testing.assert_allclose(out, np.diag([0.0, 1.0]), atol=1e-15)

    def test_exp_log_round_trip(self, rng):
        for _ in range(10):
            a = random_sym(rng, 4, scale=1.5)
            back = sym_apply(sym_apply(a, np.exp), np.log)
            assert np.abs(back - a).max() <= 1e-10

    def test_exp_is_spd(self, rng):
        for _ in range(10):
            a = random_sym(rng, 5, scale=2.0)
            assert is_spd(sym_apply(a, np.exp))

    def test_log_outside_domain(self):
        with pytest.raises(ValueError, match="spectrum outside domain"):
            sym_apply(np.diag([1.0, -1.0]), np.log)


class TestCholesky:
    def test_identity(self):
        np.testing.assert_array_equal(spd_cholesky(np.eye(3)), np.eye(3))

    def test_diagonal(self):
        np.testing.assert_allclose(spd_cholesky(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]))

    def test_reconstruction(self, rng):
        for _ in range(20):
            a = random_spd(rng, 5)
            p = spd_cholesky(a)
            assert np.linalg.norm(p.T @ p - a) <= 1e-12 * (1.0 + np.linalg.norm(a))
            assert np.allclose(p, np.triu(p))

    def test_not_positive_definite(self):
        with pytest.raises(ValueError, match="not positive definite"):
            spd_cholesky(np.diag([1.0, -2.0]))


class TestSpdHelpers:
    def test_sqrt_pair(self, rng):
        p = random_spd(rng, 4)
        s, si = spd_sqrt_inv_sqrt(p)
        np.testing.assert_allclose(s @ s, p, atol=1e-10)
        np.testing.assert_allclose(s @ si, np.eye(4), atol=1e-10)

    def test_logdet_matches_slogdet(self, rng):
        p = random_spd(rng, 5)
        sign, ld = np.linalg.slogdet(p)
        assert sign == 1.0
        assert abs(spd_logdet(p) - ld) <= 1e-10 * (1 + abs(ld))

    def test_spd_tolerance_boundary(self):
        # min eigenvalue must exceed 1e-12 * max(1, max eigenvalue)
        assert is_spd(np.diag([1.0, 1e-10]))
        assert not is_spd(np.diag([1.0, 1e-13]))
        assert not is_spd(np.diag([1.0, 0.0]))
        with pytest.raises(ValueError):
            assert_spd(np.diag([1.0, -1.0]))

    def test_is_spd_rejects_malformed_input(self):
        assert not is_spd(np.ones(3))  # not a matrix
        assert not is_spd(np.ones((2, 3)))  # not square
        assert not is_spd(np.diag([1.0, np.nan]))
        assert not is_spd(np.diag([1.0, np.inf]))
        assert not is_spd(np.array([[2.0, 0.5], [0.0, 2.0]]))  # not symmetric

    def test_dlog_stack_matches_slices(self, rng):
        for n in (2, 5, 10):
            ms = np.stack([random_spd(rng, n) for _ in range(7)])
            ms[3] = np.eye(n)  # repeated eigenvalues take the diagonal branch
            hs = np.stack([random_sym(rng, n) for _ in range(7)])
            out = sym_dlog(ms, hs)
            shared = sym_dlog(ms, hs[0])
            assert np.array_equal(sym_dlog(sym_eig(ms), hs), out)
            for k in range(len(ms)):
                assert np.array_equal(out[k], sym_dlog(ms[k], hs[k]))
                assert np.array_equal(shared[k], sym_dlog(ms[k], hs[0]))

    def test_dlog_outside_domain(self, rng):
        ms = np.stack([random_spd(rng, 3) for _ in range(4)])
        ms[2] = np.diag([1.0, 2.0, -1.0])
        with pytest.raises(ValueError, match="spectrum outside domain"):
            sym_dlog(ms, np.eye(3))
        with pytest.raises(ValueError, match="spectrum outside domain"):
            sym_dlog(ms[2], np.eye(3))
        with pytest.raises(ValueError, match="spectrum outside domain"):
            sym_dlog(sym_eig(ms), np.eye(3))
        with pytest.raises(ValueError):
            sym_dlog(np.ones((4, 2, 3)), np.eye(3))

    def test_dlog_matches_finite_differences(self, rng):
        for _ in range(5):
            m = random_spd(rng, 4)
            h = random_sym(rng, 4)
            step = 1e-6
            fd = (sym_apply(m + step * h, np.log) - sym_apply(m - step * h, np.log)) / (2 * step)
            assert np.abs(sym_dlog(m, h) - fd).max() <= 1e-6 * (1 + np.abs(fd).max())
