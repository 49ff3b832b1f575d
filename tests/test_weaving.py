import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from support import (
    brute_force_woven,
    counterexample_family,
    example_pair,
    gather_operators,
    random_woven_family,
)
from wovenframes import (
    Frame,
    FrameFamily,
    Partition,
    bessel_upper_bound,
    canonical_dual,
    exhaustive_woven_check,
    frame_bounds,
    frame_operator,
    is_dual_pair,
    is_tight_weaving,
    sampled_woven_estimate,
    selection_matrix,
    weave,
    weaving_alternate_dual,
    weaving_bounds,
    weaving_canonical_dual,
    weaving_operator,
)
from wovenframes.errors import (
    CapExceededError,
    ConstraintViolatedError,
    IndexOutOfRangeError,
    InvalidArgumentError,
    NotAFrameError,
    ShapeMismatchError,
)
from wovenframes import linalg, weaving
from wovenframes.weaving import CoefficientVector, weaving_analyze


def example_family():
    f, g = example_pair()
    return FrameFamily([f, g])


class TestPartition:
    def test_blocks(self):
        p = Partition((0, 0, 1), 2)
        assert p.block(0) == (0, 1)
        assert p.block(1) == (2,)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            Partition((0, 2), 2)


class TestFrameFamily:
    def test_rejects_a_weaving_trace_that_overflows_when_squared(self):
        g = Frame([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0]])
        big = Frame([[1e200, 0.0], [0.0, 1.0], [1.0, 1.0]])
        # each 1e154 entry alone gives a finite trace of 1e308
        f154 = Frame([[1e154, 0.0], [0.0, 1.0], [1.0, 1.0]])
        split = Frame([[1.0, 0.0], [1e154, 0.0], [1.0, -1.0]])
        for frames in ([big, g], [f154, g], [f154, split]):
            with pytest.raises(InvalidArgumentError):
                FrameFamily(frames)
        # a trace of about 1e154 squares to 1e308, still finite
        report = exhaustive_woven_check(FrameFamily([Frame([[1e77, 0.0], [0.0, 1.0], [1.0, 1.0]]), g]))
        assert np.isfinite(report.universal_upper)


class TestWeave:
    def test_intro_selection(self):
        fam = counterexample_family()
        w = weave(fam, Partition((0, 0, 1), 2))
        np.testing.assert_array_equal(w.vectors, [[1, 0, 0], [0, 1, 0], [1, 1, 0]])

    def test_all_zero_assignment_returns_first_frame(self):
        fam = example_family()
        w = weave(fam, Partition((0, 0, 0), 2))
        np.testing.assert_array_equal(w.vectors, fam.frames[0].vectors)

    def test_example_weaving(self):
        fam = example_family()
        w = weave(fam, Partition((0, 0, 1), 2))
        np.testing.assert_array_equal(w.vectors, [[1, 0], [0, 1], [1, -1]])

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            weave(example_family(), Partition((0, 0, 1, 0), 2))


class TestSelectionMatrix:
    def test_basic(self):
        p = Partition((0, 0, 1), 2)
        np.testing.assert_array_equal(selection_matrix(p, 0), np.diag([1.0, 1.0, 0.0]))

    def test_full_and_empty_blocks(self):
        p = Partition((0, 0, 0), 2)
        np.testing.assert_array_equal(selection_matrix(p, 0), np.eye(3))
        np.testing.assert_array_equal(selection_matrix(p, 1), np.zeros((3, 3)))

    def test_partition_of_identity(self):
        p = Partition((0, 1, 2, 1), 3)
        total = sum(selection_matrix(p, i) for i in range(3))
        np.testing.assert_array_equal(total, np.eye(4))

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            selection_matrix(Partition((0, 0, 1), 2), 2)


class TestWeavingOperator:
    def test_example_weaving(self):
        s = weaving_operator(example_family(), Partition((0, 0, 1), 2))
        np.testing.assert_allclose(s, [[2, -1], [-1, 2]], atol=1e-14)

    def test_single_frame(self):
        f, _ = example_pair()
        fam = FrameFamily([f])
        s = weaving_operator(fam, Partition((0, 0, 0), 1))
        np.testing.assert_allclose(s, frame_operator(f), atol=1e-14)

    def test_singular_weaving(self):
        s = weaving_operator(counterexample_family(), Partition((0, 0, 1), 2))
        assert abs(np.linalg.det(s)) < 1e-12

    def test_matches_selection_matrix_form(self):
        # S_W = sum_i T_i D_i (T_i D_i)^T, entry for entry
        rng = np.random.default_rng(1)
        for _ in range(50):
            m, n, d = 2, 4, 3
            fam = FrameFamily([Frame(rng.normal(size=(n, d))) for _ in range(m)])
            p = Partition(tuple(rng.integers(0, m, size=n)), m)
            via_ops = sum(
                fam.frames[i].vectors.T
                @ selection_matrix(p, i)
                @ (fam.frames[i].vectors.T @ selection_matrix(p, i)).T
                for i in range(m)
            )
            np.testing.assert_allclose(weaving_operator(fam, p), via_ops, atol=1e-12)

    def test_consistency_with_frame_operator(self):
        rng = np.random.default_rng(15)
        for _ in range(500):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(1, 7))
            d = int(rng.integers(1, 5))
            fam = FrameFamily([Frame(rng.normal(size=(n, d))) for _ in range(m)])
            p = Partition(tuple(rng.integers(0, m, size=n)), m)
            lhs = weaving_operator(fam, p)
            rhs = frame_operator(weave(fam, p))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * (1 + np.max(np.abs(lhs)))


class TestWeavingBounds:
    def test_example_weaving(self):
        b = weaving_bounds(example_family(), Partition((0, 0, 1), 2))
        assert b.lower == pytest.approx(1.0, abs=1e-12)
        assert b.upper == pytest.approx(3.0, abs=1e-12)

    def test_scaled_bases(self):
        fam = FrameFamily([Frame(0.5 * np.eye(3)), Frame(2.0 * np.eye(3))])
        b = weaving_bounds(fam, Partition((0, 1, 1), 2))
        assert b.lower == pytest.approx(0.25, abs=1e-14)
        assert b.upper == pytest.approx(4.0, abs=1e-14)

    def test_singular_weaving(self):
        b = weaving_bounds(counterexample_family(), Partition((0, 0, 1), 2))
        assert b.lower == 0.0


class TestBesselUpperBound:
    def test_example_family(self):
        assert bessel_upper_bound(example_family()) == pytest.approx(6.0, abs=1e-12)

    def test_parseval_copies(self):
        fam = FrameFamily([Frame(np.eye(3))] * 4)
        assert bessel_upper_bound(fam) == pytest.approx(4.0, abs=1e-12)

    def test_scaled_bases(self):
        fam = FrameFamily([Frame(0.5 * np.eye(3)), Frame(2.0 * np.eye(3))])
        assert bessel_upper_bound(fam) == pytest.approx(17 / 4, abs=1e-12)

    def test_dominates_every_weaving(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 6))
            d = int(rng.integers(1, 4))
            fam = FrameFamily([Frame(rng.normal(size=(n, d))) for _ in range(m)])
            cap = bessel_upper_bound(fam)
            rep = exhaustive_woven_check(fam)
            assert rep.universal_upper <= cap + 1e-9


class TestExhaustiveCheck:
    def test_counterexample(self):
        rep = exhaustive_woven_check(counterexample_family())
        assert not rep.woven
        assert rep.witness_partition.assignment == (0, 0, 1)
        assert rep.partitions_examined == 8
        assert rep.universal_lower < 1e-10

    def test_example_family_woven(self):
        rep = exhaustive_woven_check(example_family())
        assert rep.woven
        lo, hi, _ = brute_force_woven([fr.vectors for fr in example_family().frames])
        assert rep.universal_lower == pytest.approx(lo, abs=1e-12)
        assert rep.universal_upper == pytest.approx(hi, abs=1e-12)

    def test_single_frame(self):
        f, _ = example_pair()
        rep = exhaustive_woven_check(FrameFamily([f]))
        b = frame_bounds(f)
        assert rep.partitions_examined == 1
        assert rep.universal_lower == pytest.approx(b.lower, abs=1e-12)
        assert rep.universal_upper == pytest.approx(b.upper, abs=1e-12)

    def test_cap_exceeded(self):
        with pytest.raises(CapExceededError):
            exhaustive_woven_check(example_family(), cap=4)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            m = int(rng.integers(2, 4))
            n = int(rng.integers(2, 6))
            d = int(rng.integers(1, 4))
            fam = FrameFamily([Frame(rng.normal(size=(n, d))) for _ in range(m)])
            rep = exhaustive_woven_check(fam)
            lo, hi, wit = brute_force_woven([fr.vectors for fr in fam.frames])
            assert rep.universal_lower == pytest.approx(max(lo, 0.0), abs=1e-10)
            assert rep.universal_upper == pytest.approx(hi, abs=1e-10)
            assert rep.witness_partition.assignment == wit

    def test_thread_count_invariance(self):
        rng = np.random.default_rng(37)
        one_chunk = FrameFamily([Frame(rng.normal(size=(6, 3))) for _ in range(2)])
        # 2^15 words: two scan chunks, so the pool really splits the work
        two_chunks = FrameFamily([Frame(rng.normal(size=(15, 2))) for _ in range(2)])
        # 3^9 words: three chunks of 3^8 = 6,561 operators, not a power of two
        three_chunks = FrameFamily([Frame(rng.normal(size=(9, 3))) for _ in range(3)])
        for fam in (one_chunk, two_chunks, three_chunks):
            reports = [exhaustive_woven_check(fam, threads=t) for t in (1, 2, 4)]
            for rep in reports[1:]:
                assert rep == reports[0]

    def test_chunks_fit_the_gather_budget(self, monkeypatch):
        # d^2 * 8 B = 12,800 B per operator: 1,310 operators per chunk, so the
        # 4,096 words split into 4 chunks of 2^10 and 2,000 samples into 2
        rng = np.random.default_rng(47)
        fam = FrameFamily([Frame(rng.normal(size=(12, 40))) for _ in range(2)])
        stacks = []
        scan = weaving._scan

        def recording_scan(s):
            stacks.append(s.nbytes)
            return scan(s)

        monkeypatch.setattr(weaving, "_scan", recording_scan)
        reports = [exhaustive_woven_check(fam, threads=t) for t in (1, 2)]
        assert stacks[:4] == [1024 * 40 * 40 * 8] * 4
        sampled_woven_estimate(fam, samples=2000, seed=1)
        assert reports[1] == reports[0]
        assert len(stacks) == 2 * 4 + 2
        assert max(stacks) <= weaving.CHUNK_BUDGET
        lo, hi, _ = brute_force_woven([fr.vectors for fr in fam.frames])
        assert not reports[0].woven
        assert reports[0].universal_lower == pytest.approx(lo, abs=1e-10)
        assert reports[0].universal_upper == pytest.approx(hi, rel=1e-12)

    @pytest.mark.parametrize("m, n, d, depth", [(2, 7, 2, 3), (2, 5, 3, 5), (3, 5, 2, 2),
                                                (3, 4, 3, 4), (4, 4, 2, 1), (4, 3, 3, 3)])
    def test_completions_match_the_per_row_gather(self, m, n, d, depth):
        rng = np.random.default_rng(59)
        fam = FrameFamily([Frame(rng.normal(size=(n, d))) for _ in range(m)])
        outer = weaving._rank_one_table(fam)
        prefix = tuple(int(x) for x in rng.integers(0, m, size=n - depth))
        digits = np.array([prefix + s for s in itertools.product(range(m), repeat=depth)])
        assert np.array_equal(weaving._completions(outer, prefix), gather_operators(outer, digits))

    def test_row_operators_match_the_per_row_gather(self):
        rng = np.random.default_rng(61)
        for m, n, d in ((2, 9, 3), (3, 6, 2), (4, 5, 4)):
            fam = FrameFamily([Frame(rng.normal(size=(n, d))) for _ in range(m)])
            outer = weaving._rank_one_table(fam)
            digits = rng.integers(0, m, size=(200, n))
            assert np.array_equal(weaving._row_operators(outer, digits), gather_operators(outer, digits))

    def test_exact_ties_pick_the_all_zeros_witness(self):
        # identical frames: every weaving has bit-for-bit the same operator;
        # the 2^15 words at d=8 fill two chunks, the 3^9 words three
        rng = np.random.default_rng(53)
        for m, n in ((2, 15), (3, 9)):
            fr = Frame(rng.normal(size=(n, 8)))
            fam = FrameFamily([fr] * m)
            for t in (1, 2):
                rep = exhaustive_woven_check(fam, threads=t)
                assert rep.witness_partition.assignment == (0,) * n

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            fam = FrameFamily([Frame(rng.normal(size=(5, 3))) for _ in range(2)])
            perm = rng.permutation(5)
            permuted = FrameFamily([Frame(fr.vectors[perm]) for fr in fam.frames])
            a, b = exhaustive_woven_check(fam), exhaustive_woven_check(permuted)
            assert abs(a.universal_lower - b.universal_lower) <= 1e-12 * (1 + a.universal_upper)
            assert abs(a.universal_upper - b.universal_upper) <= 1e-12 * (1 + a.universal_upper)


class TestSampledEstimate:
    def test_library_rejects_no_threads_or_samples(self):
        # the CLI validates these options too; these checks guard library callers
        fam = example_family()
        with pytest.raises(InvalidArgumentError):
            exhaustive_woven_check(fam, threads=0)
        with pytest.raises(InvalidArgumentError):
            sampled_woven_estimate(fam, samples=0, seed=1)

    def test_counterexample_found(self):
        rep = sampled_woven_estimate(counterexample_family(), samples=200, seed=1)
        assert not rep.woven
        assert rep.mode == "sampled"

    def test_single_frame(self):
        f, _ = example_pair()
        rep = sampled_woven_estimate(FrameFamily([f]), samples=5, seed=1)
        b = frame_bounds(f)
        assert rep.universal_lower == pytest.approx(b.lower, abs=1e-12)

    def test_full_coverage_matches_exhaustive(self):
        fam = example_family()
        exact = exhaustive_woven_check(fam)
        est = sampled_woven_estimate(fam, samples=200, seed=5)
        # 200 uniform draws over 8 words cover everything
        assert est.universal_lower == pytest.approx(exact.universal_lower, abs=1e-14)
        assert est.universal_upper == pytest.approx(exact.universal_upper, abs=1e-14)

    def test_seed_reproducibility(self):
        fam = example_family()
        a = sampled_woven_estimate(fam, samples=50, seed=9)
        b = sampled_woven_estimate(fam, samples=50, seed=9)
        assert a == b

    def test_estimate_never_below_truth(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            fam = FrameFamily([Frame(rng.normal(size=(5, 3))) for _ in range(2)])
            exact = exhaustive_woven_check(fam)
            est = sampled_woven_estimate(fam, samples=10, seed=7)
            assert est.universal_lower >= exact.universal_lower - 1e-12
            assert est.universal_upper <= exact.universal_upper + 1e-12

    @pytest.mark.parametrize("m, n", [(2, 70), (3, 45)])
    def test_witness_attains_bound_when_words_overflow_int64(self, m, n):
        # m^n >= 2^63: no base-m word of these assignments fits in an int64
        rng = np.random.default_rng(n)
        base = rng.normal(size=(n, 4))
        fam = FrameFamily([Frame(base + 0.3 * rng.normal(size=(n, 4))) for _ in range(m)])
        rep = sampled_woven_estimate(fam, samples=2000, seed=1)
        own = weaving_bounds(fam, rep.witness_partition)
        assert own.lower == pytest.approx(rep.universal_lower, rel=1e-10)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 3), st.integers(1, 3), st.integers(0, 3))
def test_scan_reports_are_consistent(seed, m, d, extra):
    rng = np.random.default_rng(seed)
    fam, exact = random_woven_family(rng, m, d + extra, d)
    est = sampled_woven_estimate(fam, samples=20, seed=seed)
    assert est.universal_lower >= exact.universal_lower - 1e-12
    for rep in (exact, est):
        own = weaving_bounds(fam, rep.witness_partition)
        assert own.lower == pytest.approx(rep.universal_lower, rel=1e-10)


class TestWeavingDuals:
    def test_canonical_dual_values(self):
        dual = weaving_canonical_dual(example_family(), Partition((0, 0, 1), 2))
        np.testing.assert_allclose(
            dual.vectors,
            [[2 / 3, 1 / 3], [1 / 3, 2 / 3], [1 / 3, -1 / 3]],
            atol=1e-12,
        )

    def test_single_frame_reduces_to_canonical(self):
        f, _ = example_pair()
        fam = FrameFamily([f])
        dual = weaving_canonical_dual(fam, Partition((0, 0, 0), 1))
        np.testing.assert_allclose(dual.vectors, canonical_dual(f).vectors, atol=1e-12)

    def test_not_a_frame(self):
        with pytest.raises(NotAFrameError):
            weaving_canonical_dual(counterexample_family(), Partition((0, 0, 1), 2))

    def test_duality_identity_random(self):
        rng = np.random.default_rng(47)
        done = 0
        while done < 100:
            m, n, d = 2, int(rng.integers(2, 6)), int(rng.integers(1, 4))
            fam = FrameFamily([Frame(rng.normal(size=(n, d))) for _ in range(m)])
            p = Partition(tuple(rng.integers(0, m, size=n)), m)
            w = weave(fam, p)
            if frame_bounds(w).lower <= 1e-6:
                continue
            dual = weaving_canonical_dual(fam, p)
            ok, _ = is_dual_pair(w, dual)
            assert ok
            if n > d:
                coeffs = rng.normal(size=(d, n - int(np.linalg.matrix_rank(w.vectors))))
                alt = weaving_alternate_dual(fam, p, coeffs)
                ok_alt, _ = is_dual_pair(w, alt)
                assert ok_alt
            done += 1

    def test_alternate_zero_coefficients_is_canonical(self):
        fam = example_family()
        p = Partition((0, 0, 1), 2)
        alt = weaving_alternate_dual(fam, p, np.zeros((2, 1)))
        np.testing.assert_allclose(
            alt.vectors, weaving_canonical_dual(fam, p).vectors, atol=1e-12
        )

    def test_alternate_from_kernel_basis(self):
        fam = example_family()
        p = Partition((0, 0, 1), 2)
        coeffs = np.array([[1.0], [0.0]])
        alt = weaving_alternate_dual(fam, p, coeffs)
        canon = weaving_canonical_dual(fam, p)
        assert np.max(np.abs(alt.vectors - canon.vectors)) > 0.1
        ok, _ = is_dual_pair(weave(fam, p), alt)
        assert ok

    def test_alternate_decomposes_s_w_once(self, monkeypatch):
        stacks = []

        def counted(stack, vectors=False):
            stacks.append(np.array(stack))
            return solve(stack, vectors)

        solve = linalg.jacobi_eigh_batch
        monkeypatch.setattr(linalg, "jacobi_eigh_batch", counted)
        fam, p = example_family(), Partition((0, 0, 1), 2)
        weaving_alternate_dual(fam, p, np.array([[1.0], [0.0]]))
        s_w = weaving_operator(fam, p)
        assert sum(s.shape == (1, 2, 2) and np.array_equal(s[0], s_w) for s in stacks) == 1

    def test_raw_matrix_outside_kernel_rejected(self):
        fam = example_family()
        p = Partition((0, 0, 1), 2)
        bad = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        with pytest.raises(ConstraintViolatedError):
            weaving_alternate_dual(fam, p, bad)


class TestTightWeaving:
    def test_parseval_copies(self):
        fr = Frame(np.eye(2))
        a = is_tight_weaving(FrameFamily([fr, fr]), Partition((0, 1), 2))
        assert a == pytest.approx(1.0, abs=1e-12)

    def test_example_not_tight(self):
        f, g = example_pair()
        assert is_tight_weaving(FrameFamily([f, g]), Partition((0, 0, 1), 2)) is None

    def test_scaled_basis(self):
        f = Frame(0.5 * np.eye(2))
        g = Frame(2.0 * np.eye(2))
        a = is_tight_weaving(FrameFamily([f, g]), Partition((0, 0), 2))
        assert a == pytest.approx(0.25, abs=1e-12)


class TestCoefficientVector:
    def test_support_masking(self):
        p = Partition((0, 1), 2)
        cv = CoefficientVector(np.ones((2, 2)), p)
        np.testing.assert_array_equal(cv.values, [[1.0, 0.0], [0.0, 1.0]])

    def test_weaving_analyze(self):
        fam = example_family()
        p = Partition((0, 0, 1), 2)
        cv = weaving_analyze(fam, p, [1.0, 1.0])
        # selected vectors are (1,0), (0,1), (1,-1)
        np.testing.assert_allclose(cv.values[0], [1.0, 1.0, 0.0], atol=1e-14)
        np.testing.assert_allclose(cv.values[1], [0.0, 0.0, 0.0], atol=1e-14)
        assert cv.norm() == pytest.approx(np.sqrt(2.0), abs=1e-12)
