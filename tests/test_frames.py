import numpy as np
import pytest

from support import example_pair
from wovenframes import (
    Bounds,
    Frame,
    canonical_dual,
    frame_bounds,
    frame_operator,
    is_dual_pair,
    synthesis,
)
from wovenframes.errors import (
    InvalidArgumentError,
    NotAFrameError,
    ShapeMismatchError,
)
from wovenframes.frames import inverse_frame_operator


class TestSynthesis:
    def test_columns_are_vectors(self):
        f, _ = example_pair()
        np.testing.assert_array_equal(synthesis(f), [[1, 0, 1], [0, 1, 1]])

    def test_standard_basis(self):
        np.testing.assert_array_equal(synthesis(Frame(np.eye(2))), np.eye(2))

    def test_single_vector(self):
        np.testing.assert_array_equal(synthesis(Frame([[1.0, 1.0]])), [[1.0], [1.0]])


class TestFrameOperator:
    def test_example_pair(self):
        f, g = example_pair()
        np.testing.assert_allclose(frame_operator(f), [[2, 1], [1, 2]], atol=1e-14)
        np.testing.assert_allclose(frame_operator(g), [[3, 0], [0, 2]], atol=1e-14)

    def test_orthonormal_basis_gives_identity(self):
        np.testing.assert_allclose(frame_operator(Frame(np.eye(4))), np.eye(4), atol=1e-14)


class TestFrameBounds:
    def test_example_pair(self):
        f, _ = example_pair()
        b = frame_bounds(f)
        assert b.lower == pytest.approx(1.0, abs=1e-12)
        assert b.upper == pytest.approx(3.0, abs=1e-12)

    def test_non_spanning_family(self):
        fr = Frame([[1.0, 0, 0], [0, 1, 0], [1, 1, 0]])
        assert frame_bounds(fr).lower == 0.0

    def test_scaled_basis(self):
        fr = Frame(0.5 * np.eye(3))
        b = frame_bounds(fr)
        assert b.lower == pytest.approx(0.25, abs=1e-14)
        assert b.upper == pytest.approx(0.25, abs=1e-14)

    def test_bounds_must_be_ordered_and_finite(self):
        for lower, upper in ((2.0, 1.0), (-1.0, 1.0), (1.0, np.inf), (np.nan, 1.0), (1.0, np.nan)):
            with pytest.raises(InvalidArgumentError):
                Bounds(lower, upper)

    def test_fewer_vectors_than_dim(self):
        assert frame_bounds(Frame([[1.0, 0.0]])).lower == 0.0

    def test_scaling_by_a_power_of_two_is_exact(self):
        # the spectrum is read from the vectors scaled to a largest entry in
        # [1/2, 1), so a frame times 2^k has its bounds and inverse times
        # 4^k and 4^-k exactly, also where LAPACK would rescale S itself;
        # a bound that overflows is rejected without a warning
        fr = Frame(np.random.default_rng(5).normal(size=(6, 3)))
        inv, b = inverse_frame_operator(fr, "x")
        for k in (-300, -250, 250, 300):
            scaled = Frame(np.ldexp(fr.vectors, k))
            inv_k, b_k = inverse_frame_operator(scaled, "x")
            assert frame_bounds(scaled) == b_k == Bounds(np.ldexp(b.lower, 2 * k), np.ldexp(b.upper, 2 * k))
            np.testing.assert_array_equal(inv_k, np.ldexp(inv, -2 * k))
        with pytest.raises(InvalidArgumentError, match="< inf"):
            frame_bounds(Frame([[1e200, 0.0], [0.0, 1.0]]))

    def test_scaling_quadratic(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            fr = Frame(rng.normal(size=(5, 3)))
            c = float(rng.uniform(0.1, 10.0))
            b, bc = frame_bounds(fr), frame_bounds(Frame(c * fr.vectors))
            assert bc.lower == pytest.approx(c**2 * b.lower, abs=1e-10 * (1 + c**2 * b.upper))
            assert bc.upper == pytest.approx(c**2 * b.upper, abs=1e-10 * (1 + c**2 * b.upper))

    def test_tightness_attained(self):
        # the extreme eigenvectors achieve the optimal constants
        rng = np.random.default_rng(4)
        for _ in range(50):
            fr = Frame(rng.normal(size=(6, 3)))
            b = frame_bounds(fr)
            w, v = np.linalg.eigh(frame_operator(fr))
            lo = np.sum((fr.vectors @ v[:, 0]) ** 2)
            hi = np.sum((fr.vectors @ v[:, -1]) ** 2)
            assert lo == pytest.approx(b.lower, abs=1e-9 * (1 + b.upper))
            assert hi == pytest.approx(b.upper, abs=1e-9 * (1 + b.upper))


class TestCanonicalDual:
    def test_example_values(self):
        f, _ = example_pair()
        dual = canonical_dual(f)
        np.testing.assert_allclose(
            dual.vectors,
            [[2 / 3, -1 / 3], [-1 / 3, 2 / 3], [1 / 3, 1 / 3]],
            atol=1e-12,
        )

    def test_orthonormal_basis_self_dual(self):
        fr = Frame(np.eye(3))
        np.testing.assert_allclose(canonical_dual(fr).vectors, np.eye(3), atol=1e-14)

    def test_dual_pair_property(self):
        f, g = example_pair()
        for fr in (f, g):
            ok, _ = is_dual_pair(fr, canonical_dual(fr))
            assert ok

    def test_rejects_non_frame(self):
        with pytest.raises(NotAFrameError):
            canonical_dual(Frame([[1.0, 0.0]]))

    def test_involution(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            fr = Frame(rng.normal(size=(5, 3)))
            if frame_bounds(fr).lower == 0.0:
                continue
            back = canonical_dual(canonical_dual(fr))
            assert np.max(np.abs(back.vectors - fr.vectors)) <= 1e-9

    def test_reconstruction(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            fr = Frame(rng.normal(size=(6, 4)))
            if frame_bounds(fr).lower == 0.0:
                continue
            dual = canonical_dual(fr)
            vec = rng.normal(size=4)
            via_dual = dual.vectors.T @ (fr.vectors @ vec)
            via_frame = fr.vectors.T @ (dual.vectors @ vec)
            assert np.max(np.abs(via_dual - vec)) <= 1e-10
            assert np.max(np.abs(via_frame - vec)) <= 1e-10


class TestInverseFrameOperator:
    def test_sum_of_outer_products(self):
        # S = [[2, 1], [1, 2]]
        inv, b = inverse_frame_operator(Frame([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]]), "x")
        np.testing.assert_allclose(inv, np.array([[2, -1], [-1, 2]]) / 3.0, atol=1e-12)
        assert (b.lower, b.upper) == pytest.approx((1.0, 3.0), abs=1e-12)

    def test_identity(self):
        inv, _ = inverse_frame_operator(Frame(np.eye(3)), "x")
        np.testing.assert_allclose(inv, np.eye(3), atol=1e-14)

    def test_diagonal(self):
        inv, _ = inverse_frame_operator(Frame(np.diag([np.sqrt(3.0), np.sqrt(2.0)])), "x")
        np.testing.assert_allclose(inv, [[1 / 3, 0], [0, 0.5]], atol=1e-14)

    def test_residual(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            d = int(rng.integers(1, 7))
            fr = Frame(rng.normal(size=(d + int(rng.integers(0, 4)), d)))
            w = np.linalg.eigvalsh(fr.vectors.T @ fr.vectors)
            if w[0] < 0.1:
                continue
            inv, b = inverse_frame_operator(fr, "x")
            s = frame_operator(fr)
            assert np.max(np.abs(s @ inv - np.eye(d))) <= 1e-10
            # the bounds are frame_bounds', from the same decomposition
            assert b == frame_bounds(fr)
            assert b.lower == pytest.approx(w[0], rel=1e-12, abs=0)
            assert b.upper == pytest.approx(w[-1], rel=1e-12, abs=0)

    def test_involution(self):
        # the canonical dual's frame operator is S^-1, so its inverse is S
        rng = np.random.default_rng(13)
        for _ in range(100):
            d = int(rng.integers(1, 6))
            fr = Frame(rng.normal(size=(d + 2, d)))
            if frame_bounds(fr).lower < 0.1:
                continue
            twice, _ = inverse_frame_operator(canonical_dual(fr), "x")
            s = frame_operator(fr)
            assert np.max(np.abs(twice - s)) <= 1e-9 * (1 + np.max(np.abs(s)))

    def test_singular_rejected(self):
        with pytest.raises(NotAFrameError, match="^caller's message$"):
            inverse_frame_operator(Frame([[1.0, 1.0], [1.0, 1.0]]), "caller's message")


class TestIsDualPair:
    def test_mixed_weaving_dual_fails(self):
        w = Frame([[1.0, 0], [0, 1], [1, -1]])
        w_tilde = Frame([[2 / 3, -1 / 3], [-1 / 3, 2 / 3], [1 / 3, -1 / 2]])
        ok, witness = is_dual_pair(w, w_tilde)
        assert not ok
        np.testing.assert_allclose(
            witness, [[1, -5 / 6], [-2 / 3, 7 / 6]], atol=1e-12
        )

    def test_scaled_bases(self):
        f = Frame(0.5 * np.eye(3))
        g = Frame(2.0 * np.eye(3))
        ok, _ = is_dual_pair(f, g)
        assert ok

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            is_dual_pair(Frame(np.eye(2)), Frame(np.eye(3)))

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        # an infinite tol used to call any two frames of one shape dual
        rng = np.random.default_rng(241)
        f, g = (Frame(rng.normal(size=(4, 2))) for _ in range(2))
        assert not is_dual_pair(f, g)[0]
        with pytest.raises(InvalidArgumentError, match="tol must be finite"):
            is_dual_pair(f, g, tol)


class TestAnalyze:
    def test_norm_between_bounds(self):
        # the analysis coefficients <f, f_j> of any f satisfy the frame inequality
        rng = np.random.default_rng(10)
        for _ in range(50):
            fr = Frame(rng.normal(size=(5, 3)))
            b = frame_bounds(fr)
            vec = rng.normal(size=3)
            coeff_norm = float(np.sum((fr.vectors @ vec) ** 2))
            vec_norm = float(np.sum(vec**2))
            assert b.lower * vec_norm - 1e-9 <= coeff_norm <= b.upper * vec_norm + 1e-9


class TestFrameValidation:
    def test_rejects_nan(self):
        with pytest.raises(InvalidArgumentError):
            Frame([[np.nan, 0.0]])

    def test_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            Frame(np.zeros((0, 2)))

    def test_immutable(self):
        fr = Frame(np.eye(2))
        with pytest.raises(ValueError):
            fr.vectors[0, 0] = 5.0

    def test_compares_by_identity_without_raising(self):
        fr = Frame(np.eye(2))
        assert fr == fr
        assert Frame(np.eye(2)) != Frame(np.eye(2))
        assert len({fr, fr}) == 1
