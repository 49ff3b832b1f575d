import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from support import matrix_with_singular_values
from wovenframes.errors import InvalidArgumentError
from wovenframes import Frame, FrameFamily, Partition, frame_bounds, frame_operator, is_tight_weaving
from wovenframes.linalg import (
    gram,
    jacobi_eigh_batch,
    null_space_basis,
    operator_norm,
    singular_values,
    sym_eig_bounds,
)


class TestSymEigBounds:
    def test_identity(self):
        assert sym_eig_bounds(np.eye(2)) == (1.0, 1.0)

    def test_two_by_two(self):
        # characteristic polynomial of [[2,1],[1,2]]: (lam-1)(lam-3)
        lo, hi = sym_eig_bounds([[2.0, 1.0], [1.0, 2.0]])
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(3.0, abs=1e-12)

    def test_diagonal(self):
        assert sym_eig_bounds([[3.0, 0.0], [0.0, 2.0]]) == (2.0, 3.0)

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidArgumentError):
            sym_eig_bounds([[0.0, 1.0], [0.0, 0.0]])

    def test_rejects_non_square(self):
        with pytest.raises(InvalidArgumentError):
            sym_eig_bounds(np.ones((2, 3)))

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        a = rng.normal(size=(5, 5))
        a = a + a.T
        assert sym_eig_bounds(a) == sym_eig_bounds(a.copy())

    def test_matches_lapack_on_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            d = rng.integers(1, 7)
            a = rng.normal(size=(d, d))
            a = a + a.T
            lo, hi = sym_eig_bounds(a)
            w = np.linalg.eigvalsh(a)
            scale = max(abs(w[0]), abs(w[-1]), 1.0)
            assert abs(lo - w[0]) <= 1e-12 * scale
            assert abs(hi - w[-1]) <= 1e-12 * scale

    def test_rayleigh_quotient_containment(self):
        # min/max Rayleigh quotients over random unit vectors stay inside
        # the computed eigenvalue range
        rng = np.random.default_rng(5)
        for _ in range(1000):
            d = int(rng.integers(1, 7))
            a = rng.normal(size=(d, d))
            a = a + a.T
            lo, hi = sym_eig_bounds(a)
            v = rng.normal(size=(d, 10_000))
            quo = np.einsum("dk,dk->k", v, a @ v) / np.einsum("dk,dk->k", v, v)
            assert quo.min() >= lo - 1e-9
            assert quo.max() <= hi + 1e-9


def _recorded(tiny, big):
    raw = np.zeros((4, 4))
    raw[0, 1], raw[1, 2] = tiny, big
    return raw


@settings(max_examples=100, deadline=None)
@given(
    arrays(np.float64, (4, 4), elements=st.floats(-10, 10, allow_nan=False))
)
# LAPACK eigvalsh returns +-1.99999994 (+-9.987 for +-10) on these two
@example(_recorded(9.15e-159, 2.0))
@example(_recorded(3.06e-160, 10.0))
def test_sym_eig_bounds_agrees_with_lapack(raw):
    a = raw + raw.T
    lo, hi = sym_eig_bounds(a)
    # The oracle solves a copy without entries below 1e-100 of the largest,
    # which LAPACK can mishandle; by Weyl's inequality that moves each
    # eigenvalue by at most 4e-100 of the largest entry.
    maxabs = np.max(np.abs(a))
    w = np.linalg.eigvalsh(np.where(np.abs(a) < 1e-100 * maxabs, 0.0, a))
    scale = 1.0 + max(abs(w[0]), abs(w[-1]))
    assert abs(lo - w[0]) <= 1e-11 * scale
    assert abs(hi - w[-1]) <= 1e-11 * scale


class TestGram:
    def test_symmetric_and_shared(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            a = rng.normal(size=(int(rng.integers(1, 7)), int(rng.integers(1, 7))))
            g = gram(a)
            np.testing.assert_array_equal(g, g.T)
            np.testing.assert_allclose(g, a.T @ a, rtol=0, atol=1e-14 * (1 + np.max(g)))
            np.testing.assert_array_equal(frame_operator(Frame(a)), g)
            assert operator_norm(a) == singular_values(a)[0]


class TestSingularValues:
    @pytest.mark.parametrize("s", [1e-9, 1e-6])
    @pytest.mark.parametrize("shape", [(4, 4), (6, 4), (4, 6)])
    def test_small_sigma_keeps_its_accuracy(self, s, shape):
        # the oracle knows sigma by construction; a Gram product would square
        # the condition number and report 2.4e-9 for s = 1e-9
        rng = np.random.default_rng(113)
        sigma = np.array([1.0, 0.5, 0.2, s])
        for _ in range(20):
            got = singular_values(matrix_with_singular_values(rng, shape, sigma))
            assert got.shape == (4,)
            assert np.all(np.abs(got - sigma) <= 10 * np.finfo(float).eps * sigma[0])

    def test_rank_one_has_a_zero_sigma(self):
        sigma = singular_values([[1.0, 2.0], [3.0, 6.0]])
        assert sigma[0] == pytest.approx(np.sqrt(50.0), rel=1e-15)
        assert sigma[1] <= 10 * np.finfo(float).eps * sigma[0]


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(np.eye(3)) == pytest.approx(1.0, abs=1e-12)

    def test_nilpotent(self):
        # M^T M = diag(0, 4)
        assert operator_norm([[0.0, 2.0], [0.0, 0.0]]) == pytest.approx(2.0, abs=1e-12)

    def test_wide(self):
        # M M^T = [[2,1],[1,2]], largest eigenvalue 3
        m = [[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]
        assert operator_norm(m) == pytest.approx(np.sqrt(3.0), abs=1e-12)

    def test_transpose_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            m = rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 6))))
            assert abs(operator_norm(m) - operator_norm(m.T)) <= 1e-12 * (1 + operator_norm(m))


class TestNullSpace:
    def test_invertible_has_trivial_kernel(self):
        assert null_space_basis([[2.0, 1.0], [1.0, 2.0]]) == []

    def test_wide_matrix(self):
        basis = null_space_basis([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        assert len(basis) == 1
        expected = np.array([-1.0, -1.0, 1.0]) / np.sqrt(3.0)
        v = basis[0]
        assert min(np.max(np.abs(v - expected)), np.max(np.abs(v + expected))) < 1e-10

    def test_zero_matrix(self):
        basis = null_space_basis(np.zeros((2, 3)))
        assert len(basis) == 3

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            rows = int(rng.integers(1, 5))
            cols = int(rng.integers(1, 7))
            rank = int(rng.integers(0, min(rows, cols) + 1))
            m = rng.normal(size=(rows, rank)) @ rng.normal(size=(rank, cols)) if rank else np.zeros((rows, cols))
            basis = null_space_basis(m)
            assert len(basis) >= cols - rank
            for v in basis:
                assert np.linalg.norm(m @ v) <= 1e-10 * (1 + operator_norm(m))
            if basis:
                gram = np.array(basis) @ np.array(basis).T
                assert np.max(np.abs(gram - np.eye(len(basis)))) <= 1e-10


class TestRelativeStopRule:
    """Jacobi stops relative to each matrix's own scale, so matrices with tiny
    entries are still rotated to their eigenvalues."""

    def test_tiny_operator_norm(self):
        m = 1e-8 * np.ones((4, 4))
        assert operator_norm(m) == pytest.approx(np.linalg.norm(m, 2), rel=1e-12, abs=0)

    def test_tiny_frame_bounds(self):
        v = 1e-8 * np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 0.0]])
        w = np.linalg.eigvalsh(v.T @ v)
        b = frame_bounds(Frame(v))
        assert b.upper == pytest.approx(w[-1], rel=1e-12, abs=0)
        # far below the absolute zero cut, so the frame counts as Bessel only
        assert w[0] > 0 and b.lower == 0.0

    def test_near_tight_weaving_is_not_tight(self):
        # S_W = I + E with zero-diagonal E: trace(S_W)/d = 1, ||S_W - I|| = 1.5e-10
        target = np.eye(4) + 0.5e-10 * (np.ones((4, 4)) - np.eye(4))
        w, v = np.linalg.eigh(target)
        family = FrameFamily([Frame((v * np.sqrt(w)) @ v.T)])
        p = Partition((0, 0, 0, 0), 1)
        s_w = family.frames[0].vectors.T @ family.frames[0].vectors
        gap = np.linalg.norm(s_w - np.trace(s_w) / 4 * np.eye(4), 2)
        assert gap == pytest.approx(1.5e-10, rel=1e-3)
        assert is_tight_weaving(family, p, tol=1e-10) is None
        assert is_tight_weaving(family, p, tol=2e-10) == pytest.approx(1.0, abs=1e-12)


def test_batched_jacobi_matches_single():
    rng = np.random.default_rng(29)
    stack = rng.normal(size=(64, 4, 4))
    stack = stack + stack.transpose(0, 2, 1)
    w, v = jacobi_eigh_batch(stack, vectors=True)
    for i in range(len(stack)):
        np.testing.assert_allclose(w[i], np.linalg.eigvalsh(stack[i]), atol=1e-11)
        recon = (v[i] * w[i]) @ v[i].T
        np.testing.assert_allclose(recon, stack[i], atol=1e-11)
