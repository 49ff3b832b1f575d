import itertools

import numpy as np
import pytest

from support import (
    clamped_shift_frame,
    counterexample_family,
    example_pair,
    matrix_with_singular_values,
)
from wovenframes import (
    Bounds,
    Frame,
    FrameFamily,
    PerturbParams,
    canonical_dual,
    certify_commuting_dual_pair,
    certify_dual_canonicals,
    certify_invertible_stability,
    certify_lm_perturbation,
    certify_operator_family,
    certify_positivity,
    certify_synthesis_gap,
    certify_synthesis_perturbation,
    exhaustive_woven_check,
    frame_bounds,
    frame_operator,
    lm_perturbation_min_mu,
    verify_operator_characterization,
)
from wovenframes.errors import (
    InvalidParamsError,
    NoLeftInverseError,
    NotAFrameError,
    ShapeMismatchError,
    SingularOperatorError,
)


def oracle_bounds(family):
    rep = exhaustive_woven_check(family)
    assert rep.woven
    return Bounds(rep.universal_lower, rep.universal_upper)


def example_universal():
    f, g = example_pair()
    return f, g, oracle_bounds(FrameFamily([f, g]))


class TestDualCanonicals:
    def test_equal_frames(self):
        f, _ = example_pair()
        fam = FrameFamily([f, f])
        cert = certify_dual_canonicals(f, f, oracle_bounds(fam))
        assert cert.hypothesis_satisfied
        assert cert.margins["operator_gap"] == 0.0

    def test_reject_coexists_with_woven(self):
        # the hypothesis is sufficient, not necessary: it fails here even
        # though the canonical duals of this pair weave fine
        f, g, uni = example_universal()
        cert = certify_dual_canonicals(f, g, uni)
        assert not cert.hypothesis_satisfied
        assert cert.guaranteed_lower is None
        assert cert.margins["operator_gap"] == pytest.approx((1 + np.sqrt(5)) / 2, abs=1e-10)
        assert cert.margins["norm_inv_first"] == pytest.approx(1.0, abs=1e-10)
        duals = FrameFamily([canonical_dual(f), canonical_dual(g)])
        assert exhaustive_woven_check(duals).woven

    def test_small_scale_perturbation(self):
        f, _ = example_pair()
        g = Frame(1.001 * f.vectors)
        uni = oracle_bounds(FrameFamily([f, g]))
        cert = certify_dual_canonicals(f, g, uni)
        assert cert.hypothesis_satisfied
        assert cert.guaranteed_lower is not None and cert.guaranteed_lower > 0

    def test_rejects_non_frame(self):
        f, _ = example_pair()
        with pytest.raises(NotAFrameError, match=r"^second frame does not span \(lower bound 0\)$"):
            certify_dual_canonicals(f, Frame([[1.0, 0], [2, 0], [3, 0]]), Bounds(1.0, 3.0))

    def test_margins_match_lapack(self):
        rng = np.random.default_rng(61)
        for _ in range(40):
            d = int(rng.integers(1, 5))
            f = Frame(rng.normal(size=(d + 2, d)))
            g = Frame(f.vectors + 10.0 ** rng.uniform(-4, -1) * rng.normal(size=(d + 2, d)))
            fam = FrameFamily([f, g])
            if min(frame_bounds(f).lower, frame_bounds(g).lower) < 0.1:
                continue
            rep = exhaustive_woven_check(fam)
            a, b = rep.universal_lower, rep.universal_upper
            cert = certify_dual_canonicals(f, g, Bounds(a, b))
            s_f, s_g = f.vectors.T @ f.vectors, g.vectors.T @ g.vectors
            w_f, w_g = np.linalg.eigvalsh(s_f), np.linalg.eigvalsh(s_g)
            expected = {
                "operator_gap": np.linalg.norm(s_f - s_g, 2),
                "norm_inv_first": 1.0 / w_f[0],
                "norm_inv_second": 1.0 / w_g[0],
            }
            for key, value in expected.items():
                assert cert.margins[key] == pytest.approx(value, rel=1e-12, abs=0)
            if cert.hypothesis_satisfied:
                anchor = w_f[-1] if cert.margins["margin_first"] > 0 else w_g[-1]
                inv_gap = np.linalg.norm(np.linalg.inv(s_g) - np.linalg.inv(s_f), 2)
                terms = np.sqrt(a) / anchor, np.sqrt(b) * inv_gap
                assert cert.margins["lower_root"] == pytest.approx(
                    terms[0] - terms[1], rel=1e-12, abs=1e-12 * max(terms)
                )


class TestOperatorCharacterization:
    def test_at_oracle_lower(self):
        f, g, uni = example_universal()
        cert = verify_operator_characterization(FrameFamily([f, g]), uni.lower)
        assert cert.hypothesis_satisfied
        assert cert.guaranteed_lower == pytest.approx(uni.lower)

    def test_above_oracle_lower(self):
        f, g, uni = example_universal()
        cert = verify_operator_characterization(FrameFamily([f, g]), uni.lower + 0.1)
        assert not cert.hypothesis_satisfied
        assert cert.margins["slack"] == pytest.approx(-0.1, abs=1e-12)

    def test_counterexample(self):
        cert = verify_operator_characterization(counterexample_family(), 1e-6)
        assert not cert.hypothesis_satisfied

    def test_requires_positive_constant(self):
        f, g, _ = example_universal()
        with pytest.raises(InvalidParamsError):
            verify_operator_characterization(FrameFamily([f, g]), 0.0)


class TestCommutingDualPair:
    def test_scaled_bases(self):
        f = Frame(0.5 * np.eye(3))
        g = Frame(2.0 * np.eye(3))
        cert = certify_commuting_dual_pair(f, g)
        assert cert.hypothesis_satisfied
        assert cert.guaranteed_lower == pytest.approx(1 / 8, abs=1e-12)
        assert cert.guaranteed_upper == pytest.approx(17 / 4, abs=1e-12)
        # the guarantee is conservative next to the exact weaving bounds
        uni = oracle_bounds(FrameFamily([f, g]))
        assert uni.lower == pytest.approx(0.25, abs=1e-12)
        assert uni.upper == pytest.approx(4.0, abs=1e-12)

    def test_orthonormal_with_itself(self):
        fr = Frame(np.eye(3))
        cert = certify_commuting_dual_pair(fr, fr)
        assert cert.hypothesis_satisfied
        assert cert.guaranteed_lower == pytest.approx(0.5, abs=1e-12)
        assert cert.guaranteed_upper == pytest.approx(2.0, abs=1e-12)

    def test_canonical_dual_fails_symmetry(self):
        f, _ = example_pair()
        cert = certify_commuting_dual_pair(f, canonical_dual(f))
        assert not cert.hypothesis_satisfied
        assert cert.margins["max_asymmetry"] > 1e-3

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            certify_commuting_dual_pair(Frame(np.eye(2)), Frame(np.eye(3)))

    def test_asymmetry_matches_lapack(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            n, d = int(rng.integers(1, 6)), int(rng.integers(2, 6))
            f, g = Frame(rng.normal(size=(n, d))), Frame(rng.normal(size=(n, d)))
            expected = max(
                np.linalg.norm(np.outer(fj, gj) - np.outer(gj, fj), 2)
                for fj, gj in zip(f.vectors, g.vectors)
            )
            cert = certify_commuting_dual_pair(f, g)
            assert cert.margins["max_asymmetry"] == pytest.approx(expected, rel=1e-12, abs=0)

    def test_per_index_matches_all_subsets(self):
        # the per-index symmetry test must agree with checking commutation of
        # the truncated cross operators over every subset of indices
        rng = np.random.default_rng(53)
        for _ in range(40):
            n, d = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            f = Frame(rng.normal(size=(n, d)))
            if rng.random() < 0.5 and frame_bounds(f).lower > 1e-6:
                g = canonical_dual(f)
            else:
                g = Frame(np.round(rng.normal(size=(n, d))))
            per_index = all(
                np.max(np.abs(np.outer(fj, gj) - np.outer(gj, fj))) <= 1e-10
                for fj, gj in zip(f.vectors, g.vectors)
            )
            all_sigma = True
            for mask in itertools.product((0, 1), repeat=n):
                sel = np.array(mask, dtype=float)
                prod = (f.vectors.T * sel) @ g.vectors
                if np.max(np.abs(prod - prod.T)) > 1e-9:
                    all_sigma = False
                    break
            assert per_index == all_sigma


class TestOperatorFamily:
    def test_identities(self):
        f, _ = example_pair()
        cert = certify_operator_family(f, [np.eye(2), np.eye(2)], 0)
        assert cert.hypothesis_satisfied
        assert cert.guaranteed_lower == pytest.approx(1.0, abs=1e-12)

    def test_near_identity(self):
        f, _ = example_pair()
        cert = certify_operator_family(f, [np.eye(2), 1.1 * np.eye(2)], 0)
        assert cert.hypothesis_satisfied
        assert cert.margins["threshold"] == pytest.approx(np.sqrt(1 / 3), abs=1e-12)
        assert cert.guaranteed_lower == pytest.approx((1 - 0.1 * np.sqrt(3)) ** 2, abs=1e-12)
        images = FrameFamily([f, Frame(1.1 * f.vectors)])
        uni = oracle_bounds(images)
        assert uni.lower >= cert.guaranteed_lower - 1e-9
        assert uni.upper <= cert.guaranteed_upper + 1e-9

    def test_large_gap_rejected(self):
        f, _ = example_pair()
        cert = certify_operator_family(f, [np.eye(2), 2.0 * np.eye(2)], 0)
        assert not cert.hypothesis_satisfied

    def test_shape_mismatch(self):
        f, _ = example_pair()
        with pytest.raises(ShapeMismatchError):
            certify_operator_family(f, [np.eye(3), np.eye(3)], 0)

    def test_identity_reference_left_inverse_norm(self):
        f, _ = example_pair()
        cert = certify_operator_family(f, [np.eye(2), 1.1 * np.eye(2)], 0)
        assert cert.margins["norm_left_inverse"] == pytest.approx(1.0, abs=1e-12)

    def test_scalar_reference_left_inverse_norm(self):
        cert = certify_operator_family(Frame([[1.0], [1.0]]), [[[2.0]], [[2.1]]], 0)
        assert cert.margins["norm_left_inverse"] == pytest.approx(0.5, abs=1e-12)

    def test_wide_operator_rejected(self):
        f, _ = example_pair()
        with pytest.raises(ShapeMismatchError):
            certify_operator_family(f, [np.ones((2, 3)), np.eye(2)], 0)

    @pytest.mark.parametrize(
        "reference",
        # the asymmetric ones tell U^T U from U U^T apart, as rounding differs
        [
            pytest.param(np.ones((2, 2)), id="ones"),
            pytest.param(np.array([[1.0, 2.0], [3.0, 6.0]]), id="rows-1-3"),
            pytest.param(np.array([[3.0, 1.0], [6.0, 2.0]]), id="cols-1-3"),
        ],
    )
    def test_rank_deficient_reference_has_no_left_inverse(self, reference):
        f, _ = example_pair()
        ops = [reference, np.eye(2)]
        with pytest.raises(NoLeftInverseError, match=r"^matrix is rank deficient \(sigma_min="):
            certify_operator_family(f, ops, 0)
        # only the reference operator needs a left inverse
        assert certify_operator_family(f, ops, 1).margins["norm_left_inverse"] == pytest.approx(1.0)

    def test_margins_match_lapack(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            d, m = int(rng.integers(1, 5)), int(rng.integers(2, 4))
            f = Frame(rng.normal(size=(d + 2, d)))
            ops = [np.eye(d) + 0.3 * rng.normal(size=(d, d)) for _ in range(m)]
            sigma = np.linalg.svd(ops[0], compute_uv=False)
            if frame_bounds(f).lower < 0.1 or sigma[-1] < 0.1:
                continue
            w = np.linalg.eigvalsh(f.vectors.T @ f.vectors)
            norm_v = np.linalg.norm(np.linalg.pinv(ops[0]), 2)
            cert = certify_operator_family(f, ops, 0)
            assert cert.margins["norm_left_inverse"] == pytest.approx(norm_v, rel=1e-12, abs=0)
            assert cert.margins["norm_left_inverse"] == pytest.approx(1 / sigma[-1], rel=1e-12, abs=0)
            threshold = np.sqrt(w[0] / ((m - 1) * w[-1])) / norm_v
            assert cert.margins["threshold"] == pytest.approx(threshold, rel=1e-12, abs=0)


class TestSynthesisGap:
    def test_identical_frames(self):
        f, _ = example_pair()
        fam = FrameFamily([f, f])
        cert = certify_synthesis_gap(fam, 0)
        assert cert.hypothesis_satisfied
        assert cert.guaranteed_lower == pytest.approx(frame_bounds(f).lower, abs=1e-12)

    def test_example_pair_reported(self):
        f, g, _ = example_universal()
        cert = certify_synthesis_gap(FrameFamily([f, g]), 0)
        # the gap exceeds 1/(2 sqrt(3)) here, so the hypothesis fails; the
        # margins still expose both sides of the inequality
        assert cert.margins["gap_1"] > 0
        if cert.hypothesis_satisfied:
            uni = oracle_bounds(FrameFamily([f, g]))
            assert uni.lower >= cert.guaranteed_lower - 1e-9

    def test_small_displacement(self):
        f, _ = example_pair()
        shifted = f.vectors.copy()
        shifted[0, 0] += 0.01
        fam = FrameFamily([f, Frame(shifted)])
        cert = certify_synthesis_gap(fam, 0)
        assert cert.hypothesis_satisfied
        uni = oracle_bounds(fam)
        assert uni.lower >= cert.guaranteed_lower - 1e-9
        assert uni.upper <= cert.guaranteed_upper + 1e-9

    def test_index_out_of_range(self):
        f, _ = example_pair()
        with pytest.raises(ShapeMismatchError):
            certify_synthesis_gap(FrameFamily([f, f]), 2)


class TestPositivity:
    def test_scaled_standard_bases(self):
        f = Frame(np.eye(3))
        g = Frame(np.sqrt(2.0) * np.eye(3))
        fam = FrameFamily([f, g])
        cert = certify_positivity(fam, 0)
        assert cert.hypothesis_satisfied
        assert cert.guaranteed_lower == pytest.approx(1.0, abs=1e-12)
        assert cert.guaranteed_upper == pytest.approx(3.0, abs=1e-12)
        uni = oracle_bounds(fam)
        assert uni.lower == pytest.approx(1.0, abs=1e-12)
        assert uni.upper == pytest.approx(2.0, abs=1e-12)

    def test_overlapping_shift_pair_rejected(self):
        # the per-index difference picks up a genuine negative eigenvalue
        # from the cross terms, so the sufficient condition fails even though
        # the pair itself weaves
        f = clamped_shift_frame(6, (0, 1))
        g = clamped_shift_frame(6, (0, 1, 2))
        fam = FrameFamily([f, g])
        cert = certify_positivity(fam, 0)
        assert not cert.hypothesis_satisfied
        assert cert.margins["min_difference_eigenvalue"] == pytest.approx(-1.0, abs=1e-10)
        rep = exhaustive_woven_check(fam)
        assert rep.woven
        assert rep.universal_lower == pytest.approx(0.05811636514789597, abs=1e-11)
        assert rep.universal_upper == pytest.approx(7.6541330128077165, abs=1e-10)

    def test_identical_frames(self):
        f, _ = example_pair()
        cert = certify_positivity(FrameFamily([f, f]), 1)
        assert cert.hypothesis_satisfied

    def test_zero_cut_boundary(self):
        # the one difference f_10 f_10^T - f_00 f_00^T has eigenvalues
        # (1 - delta)^2 - 1 ~ -2 delta and 0, so the cut is 1e-10 * (1 + 0)
        for delta, accepted in ((4.9e-11, True), (5.1e-11, False)):
            fam = FrameFamily([Frame(np.eye(2)), Frame(np.diag([1.0 - delta, 1.0]))])
            cert = certify_positivity(fam, 0)
            assert cert.hypothesis_satisfied is accepted
            assert cert.margins["min_difference_eigenvalue"] == pytest.approx(-2 * delta, rel=1e-4)

    def test_per_index_matches_all_subsets(self):
        rng = np.random.default_rng(59)
        for _ in range(40):
            n, d = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            f = Frame(rng.normal(size=(n, d)))
            if rng.random() < 0.5:
                g = Frame(np.sqrt(1.0 + rng.random()) * f.vectors)
            else:
                g = Frame(rng.normal(size=(n, d)))
            fam = FrameFamily([g, f])
            per_index = certify_positivity(fam, 1).hypothesis_satisfied
            all_sigma = True
            for mask in itertools.product((0, 1), repeat=n):
                acc = np.zeros((d, d))
                for j, on in enumerate(mask):
                    if on:
                        acc += np.outer(g.vectors[j], g.vectors[j])
                        acc -= np.outer(f.vectors[j], f.vectors[j])
                if np.linalg.eigvalsh(acc)[0] < -1e-9:
                    all_sigma = False
                    break
            assert per_index == all_sigma


class TestLmPerturbationMinMu:
    def test_identical_frames(self):
        f, _ = example_pair()
        for lam in (0.1, 0.5, 0.9):
            assert lm_perturbation_min_mu(f, f, lam) == 0.0

    def test_proportional_shift_frames(self):
        u = clamped_shift_frame(8, (0, 1, 2))
        f = Frame((4 / 3) * u.vectors)
        # the difference family is (1/3)u, so S_diff = (1/16) S_F exactly
        # and lambda = 1/9 already dominates it
        assert lm_perturbation_min_mu(f, u, 1 / 9) == 0.0

    def test_small_lambda_limit(self):
        f, g = example_pair()
        s_diff = frame_operator(Frame(f.vectors - g.vectors))
        lam_max = np.linalg.eigvalsh(s_diff)[-1]
        assert lm_perturbation_min_mu(f, g, 1e-12) == pytest.approx(lam_max, abs=1e-9)

    def test_monotone_in_lambda(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            n, d = int(rng.integers(1, 6)), int(rng.integers(1, 4))
            f = Frame(rng.normal(size=(n, d)))
            g = Frame(rng.normal(size=(n, d)))
            lams = np.sort(rng.uniform(0.01, 0.99, size=4))
            mus = [lm_perturbation_min_mu(f, g, float(x)) for x in lams]
            assert all(a >= b - 1e-12 for a, b in zip(mus, mus[1:]))

    def test_rejects_bad_lambda(self):
        f, g = example_pair()
        with pytest.raises(InvalidParamsError):
            lm_perturbation_min_mu(f, g, 1.0)


class TestLmPerturbation:
    def test_identical_frames(self):
        f, _ = example_pair()
        fam = FrameFamily([f, f])
        cert = certify_lm_perturbation(fam, 0, [PerturbParams(0.5, 0.0)])
        assert cert.hypothesis_satisfied
        assert cert.guaranteed_lower == pytest.approx(0.5 * frame_bounds(f).lower, abs=1e-12)

    def test_definition_check_zero_cut_boundary(self):
        # S_k = I and S_diff = diag(1/4, 0), so lambda S_k - S_diff has
        # eigenvalues -delta and 1/4 - delta; the cut is 1e-10 * (1.25 - delta)
        fam = FrameFamily([Frame(np.eye(2)), Frame(np.diag([0.5, 1.0]))])
        cert = certify_lm_perturbation(fam, 0, [PerturbParams(0.25 - 1.22e-10, 0.0)])
        assert cert.hypothesis_satisfied
        with pytest.raises(InvalidParamsError, match="fails the perturbation definition"):
            certify_lm_perturbation(fam, 0, [PerturbParams(0.25 - 1.28e-10, 0.0)])

    def test_shift_triple_rejected_at_truncation(self):
        u = clamped_shift_frame(8, (0, 1, 2))
        f = Frame((4 / 3) * u.vectors)
        h = Frame((5 / 6) * u.vectors)
        fam = FrameFamily([f, u, h])
        params = [PerturbParams(1 / 9, 1 / 9), PerturbParams(1 / 4, 2 / 9)]
        cert = certify_lm_perturbation(fam, 0, params)
        # both pairs satisfy the perturbation definition, but the truncated
        # lower bound of the anchor frame sits below the aggregate threshold
        assert not cert.hypothesis_satisfied
        assert cert.margins["threshold"] == pytest.approx(12 / 23, abs=1e-12)
        assert cert.margins["lower_bound_k"] == pytest.approx(0.1254778262105422, abs=1e-11)
        rep = exhaustive_woven_check(fam)
        assert rep.woven
        assert rep.universal_lower == pytest.approx(0.04901477586349369, abs=1e-11)
        assert rep.universal_upper == pytest.approx(14.56976700117658, abs=1e-9)

    def test_infeasible_lambda_sum(self):
        f, _ = example_pair()
        fam = FrameFamily([f, f, f])
        cert = certify_lm_perturbation(
            fam, 0, [PerturbParams(0.6, 0.0), PerturbParams(0.5, 0.0)]
        )
        assert not cert.hypothesis_satisfied

    def test_pair_failing_definition_rejected(self):
        f, g = example_pair()
        fam = FrameFamily([f, g])
        with pytest.raises(InvalidParamsError):
            certify_lm_perturbation(fam, 0, [PerturbParams(0.01, 0.0)])

    def test_param_validation(self):
        with pytest.raises(InvalidParamsError):
            PerturbParams(1.5, 0.0)
        for mu in (-1.0, np.inf, np.nan):
            with pytest.raises(InvalidParamsError):
                PerturbParams(0.5, mu)


class TestInvertibleStability:
    def test_identity_operators(self):
        f, g, uni = example_universal()
        fam = FrameFamily([f, g])
        cert, out = certify_invertible_stability(fam, uni, [np.eye(2), np.eye(2)])
        assert cert.hypothesis_satisfied
        assert cert.guaranteed_lower == pytest.approx(uni.lower, abs=1e-12)
        assert cert.guaranteed_upper == pytest.approx(uni.upper, abs=1e-12)
        for before, after in zip(fam.frames, out.frames):
            np.testing.assert_array_equal(before.vectors, after.vectors)

    def test_mixed_scalings(self):
        f, g, uni = example_universal()
        fam = FrameFamily([f, g])
        cert, out = certify_invertible_stability(fam, uni, [2.0 * np.eye(2), np.eye(2)])
        assert cert.guaranteed_lower == pytest.approx(uni.lower, abs=1e-12)
        assert cert.guaranteed_upper == pytest.approx(4.0 * uni.upper, abs=1e-12)
        rep = exhaustive_woven_check(out)
        assert rep.woven
        assert rep.universal_lower >= cert.guaranteed_lower - 1e-9
        assert rep.universal_upper <= cert.guaranteed_upper + 1e-9

    @pytest.mark.parametrize("s", [1e-9, 1e-6])
    def test_lower_bound_from_a_small_sigma(self, s):
        # A sigma_min(T)^2 with sigma_min known by construction; taken from
        # T^T T it came out 5.8 times too large at s = 1e-9
        t = matrix_with_singular_values(np.random.default_rng(127), (4, 4), [1.0, 0.5, 0.2, s])
        fam = FrameFamily([Frame(np.eye(4)), Frame(np.eye(4))])
        cert, _ = certify_invertible_stability(fam, Bounds(1.0, 1.0), [t, np.eye(4)])
        assert cert.margins["max_inverse_norm"] == pytest.approx(1.0 / s, rel=1e-6)
        assert cert.guaranteed_lower == pytest.approx(s**2, rel=1e-5)
        assert cert.guaranteed_upper == pytest.approx(1.0, rel=1e-14)

    def test_misaligned_rotation_caveat(self):
        # unrelated rotations can collapse a weaving entirely, which is why
        # the certificate's notes restrict its lower bound to aligned
        # operator families
        fam = FrameFamily([Frame(np.eye(2)), Frame(np.eye(2))])
        rot = np.array([[0.0, -1.0], [1.0, 0.0]])
        cert, out = certify_invertible_stability(fam, Bounds(1.0, 1.0), [rot, np.eye(2)])
        assert cert.hypothesis_satisfied
        assert not exhaustive_woven_check(out).woven

    def test_singular_operator(self):
        f, g, uni = example_universal()
        with pytest.raises(SingularOperatorError):
            certify_invertible_stability(
                FrameFamily([f, g]), uni, [np.diag([1.0, 0.0]), np.eye(2)]
            )


class TestSynthesisPerturbation:
    def test_identical_families(self):
        f, g, uni = example_universal()
        fam = FrameFamily([f, g])
        cert = certify_synthesis_perturbation(fam, fam, uni)
        assert cert.hypothesis_satisfied
        assert cert.guaranteed_lower == pytest.approx(uni.lower, abs=1e-12)
        assert cert.guaranteed_upper == pytest.approx(uni.upper, abs=1e-12)

    def test_small_perturbation(self):
        f, g, uni = example_universal()
        fam = FrameFamily([f, g])
        moved = FrameFamily(
            [Frame(fr.vectors + np.array([1e-3, 0.0])) for fr in fam.frames]
        )
        cert = certify_synthesis_perturbation(fam, moved, uni)
        assert cert.hypothesis_satisfied
        rep = exhaustive_woven_check(moved)
        assert rep.woven
        assert rep.universal_lower >= cert.guaranteed_lower - 1e-9
        assert rep.universal_upper <= cert.guaranteed_upper + 1e-9

    def test_large_perturbation_rejected(self):
        f, g, uni = example_universal()
        fam = FrameFamily([f, g])
        moved = FrameFamily([Frame(fr.vectors + 1.0) for fr in fam.frames])
        cert = certify_synthesis_perturbation(fam, moved, uni)
        assert not cert.hypothesis_satisfied

    def test_shape_mismatch(self):
        f, g, uni = example_universal()
        small = FrameFamily([Frame(np.eye(2)), Frame(np.eye(2))])
        with pytest.raises(ShapeMismatchError):
            certify_synthesis_perturbation(FrameFamily([f, g]), small, uni)
