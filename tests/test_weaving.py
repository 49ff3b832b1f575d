import collections
import dataclasses
import functools
import itertools
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from support import (
    brute_force_woven,
    counterexample_family,
    example_pair,
    full_flat_scan,
    gather_operators,
    integer_woven,
    matrix_with_singular_values,
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
from wovenframes import weaving
from wovenframes.linalg import unit_scaled


def example_family():
    f, g = example_pair()
    return FrameFamily([f, g])


class TestPartition:
    def test_blocks(self):
        # sigma_i, the indices assigned to frame i, take their vectors from frame i
        fam = counterexample_family()
        w = weave(fam, Partition((0, 0, 1), 2))
        for i, block in enumerate([[0, 1], [2]]):
            np.testing.assert_array_equal(w.vectors[block], fam.frames[i].vectors[block])
            other = fam.frames[1 - i].vectors[block[-1]]
            assert not np.array_equal(w.vectors[block[-1]], other)

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRangeError):
            Partition((0, 2), 2)

    def test_needs_a_frame_and_an_index(self):
        with pytest.raises(InvalidArgumentError, match="num_frames must be >= 1"):
            Partition((0,), 0)
        with pytest.raises(InvalidArgumentError, match="empty assignment"):
            Partition((), 2)

    def test_entries_must_be_integers(self):
        # a float would round to an index and a string parse to one; bool subclasses int
        for entries in ((0.9, 1.7), ("1", True), (0, 1.0), (np.bool_(True), 0)):
            with pytest.raises(InvalidArgumentError, match="assignment entries must be integers"):
                Partition(entries, 2)
        p = Partition((np.int64(1), np.uint8(0), 1), 2)
        assert p.assignment == (1, 0, 1) and all(type(x) is int for x in p.assignment)


class TestFrameFamily:
    def test_stores_its_stack_and_largest_trace(self):
        f, g = example_pair()
        fam = FrameFamily([f, g])
        np.testing.assert_array_equal(fam.stack, np.stack([f.vectors, g.vectors]))
        assert not fam.stack.flags.writeable
        assert FrameFamily.largest_trace(fam.stack) == (1.0 + 2.0 + 2.0, False)
        # derived fields stay out of repr
        assert "stack" not in repr(fam)

    def test_compares_by_identity_without_raising(self):
        f, g = example_pair()
        fam = FrameFamily([f, g])
        assert fam == fam
        assert fam != FrameFamily([f, g])
        assert FrameFamily([Frame(np.eye(2))]) != FrameFamily([Frame(np.eye(2))])
        assert len({fam, fam}) == 1

    def test_needs_frames_of_one_shape(self):
        with pytest.raises(InvalidArgumentError, match="at least one frame"):
            FrameFamily([])
        for other in (Frame(np.eye(3)), Frame(np.ones((3, 2)))):
            with pytest.raises(ShapeMismatchError, match=r"must share shape \(2, 2\)"):
                FrameFamily([Frame(np.eye(2)), other])

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

    def test_rejects_a_weaving_trace_that_underflows_when_squared(self):
        # a largest trace that squares below the smallest normal float is
        # rejected, as one that overflows is: vectors below about 1e-77,
        # including the woven 1e-170 pair whose rank-one terms all round to 0
        rng = np.random.default_rng(109)
        tiny = [[Frame(scale * rng.normal(size=(8, d))) for _ in range(2)]
                for scale, d in itertools.product((1e-155, 1e-160, 1e-162), (2, 3))]
        tiny.append([Frame(1e-170 * np.array([[1.0, 0.0], [0.0, 1.0]])),
                     Frame(1e-170 * np.array([[1.0, 1.0], [0.0, 1.0]]))])
        for members in tiny:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InvalidArgumentError, match="too small"):
                    FrameFamily(members)
        # the message names the size of the entries, not the trace that rounds to 0
        with pytest.raises(InvalidArgumentError, match=r"too small: with a largest \|entry\| of 1\.000e-170,"):
            FrameFamily(tiny[-1])
        # a trace of about 2^-500 squares to a normal float
        g = Frame(np.ldexp([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0]], -250))
        FrameFamily([g, g])

    def test_an_all_zero_family_is_not_woven(self):
        # the one family whose largest trace is 0: every test fails on its
        # 0 operators, and every weaving, one twin of all, is solved
        zero = FrameFamily([Frame(np.zeros((6, 2)))] * 3)
        for rep in (exhaustive_woven_check(zero), sampled_woven_estimate(zero, samples=10, seed=1)):
            assert (rep.woven, rep.universal_lower, rep.universal_upper) == (False, 0.0, 0.0)
        assert exhaustive_woven_check(zero) == full_flat_scan(zero)


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
            # D_i: the diagonal 0/1 matrix selecting the indices assigned to frame i
            selections = [np.diag((np.array(p.assignment) == i).astype(float)) for i in range(m)]
            via_ops = sum(
                fam.frames[i].vectors.T @ d_i @ (fam.frames[i].vectors.T @ d_i).T
                for i, d_i in enumerate(selections)
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

    def test_matches_the_integer_oracle(self):
        # away from lambda_max^d >= 1e10, where the eigenvalue verdict can read a
        # spanning integer weaving (lambda_min >= lambda_max^(1 - d)) as zero
        rng = np.random.default_rng(223)
        verdicts = []
        for _ in range(240):
            m, d = int(rng.integers(2, 4)), int(rng.integers(2, 5))
            v = rng.integers(-2, 3, size=(m, int(rng.integers(d, 9)), d)).astype(float)
            report = exhaustive_woven_check(FrameFamily([Frame(x) for x in v]))
            if report.universal_upper**d >= 1e10:
                continue
            assert report.woven == integer_woven(v), v
            verdicts.append(report.woven)
        assert len(verdicts) > 200 and 20 < verdicts.count(False) < len(verdicts) - 20

    def test_integer_oracle_on_known_families(self):
        f, g = example_pair()
        assert integer_woven(FrameFamily([f, g]).stack)
        assert not integer_woven(counterexample_family().stack)
        # a pool of rank d - 2 spans no hyperplane, and no weaving spans
        assert not integer_woven(np.array([[[1, 0, 0], [2, 0, 0], [3, 0, 0]]] * 2))
        assert not integer_woven(np.zeros((2, 3, 2)))

    def test_thread_count_invariance(self, monkeypatch):
        rng = np.random.default_rng(37)
        one_chunk = FrameFamily([Frame(rng.normal(size=(6, 3))) for _ in range(2)])
        # 2^15 words at d=2
        cells = FrameFamily([Frame(rng.normal(size=(15, 2))) for _ in range(2)])
        # 3^9 words, not a power of two
        three_chunks = FrameFamily([Frame(rng.normal(size=(9, 3))) for _ in range(3)])
        # 2^15 words at d=3
        two_chunks = FrameFamily([Frame(rng.normal(size=(15, 3))) for _ in range(2)])
        stacks = scanned_operators(monkeypatch)
        for fam in (one_chunk, cells, three_chunks, two_chunks):
            reports, sizes = [], []
            for t in (1, 2, 4):
                stacks.clear()
                reports.append(exhaustive_woven_check(fam, threads=t))
                sizes.append(sorted(stacks))
            for rep, size in zip(reports[1:], sizes[1:]):
                assert rep == reports[0]
                assert size == sizes[0]
            assert max(sizes[0]) <= weaving._block(fam.dim)

    def test_a_near_copy_walks_in_blocks(self, monkeypatch):
        # 1e-12 copies: no node is ruled out, so the walk builds all 2^18
        # completions, in blocks that split on the pool
        rng = np.random.default_rng(43)
        base = rng.normal(size=(18, 3))
        fam = FrameFamily([Frame(base), Frame(base + 1e-12 * rng.normal(size=(18, 3)))])
        tested, solved = [], scanned_operators(monkeypatch)
        positive_definite = weaving._positive_definite

        def recording_positive_definite(s, shifts):
            tested.append(len(s))
            return positive_definite(s, shifts)

        monkeypatch.setattr(weaving, "_positive_definite", recording_positive_definite)
        reports = []
        for t in (1, 2):
            solved.clear()
            reports.append(exhaustive_woven_check(fam, threads=t))
            assert sum(solved) == 2**18 and len(solved) >= 2
        assert max(tested + solved) <= weaving._block(fam.dim)
        monkeypatch.undo()
        assert reports[0] == reports[1] == full_flat_scan(fam)

    def test_chunks_fit_the_gather_budget(self, monkeypatch):
        # d^2 * 8 B = 12,800 B per operator: 2^19 // d^2 = 327 operators fit
        # the 4 MiB of a block, so 2,000 samples are solved in 7 blocks, and
        # n < d leaves the walk all 4,096 words to solve, in blocks of 327
        rng = np.random.default_rng(47)
        fam = FrameFamily([Frame(rng.normal(size=(12, 40))) for _ in range(2)])
        stacks = []
        scan = weaving._scan

        def recording_scan(s):
            stacks.append(s.nbytes)
            return scan(s)

        monkeypatch.setattr(weaving, "_scan", recording_scan)
        reports = [exhaustive_woven_check(fam, threads=t) for t in (1, 2)]
        assert sum(stacks) == 2 * 4096 * 40 * 40 * 8
        assert max(stacks) <= 327 * 40 * 40 * 8 <= 4 * 2**20
        assert weaving._block(fam.dim) == 327
        stacks.clear()
        sampled_woven_estimate(fam, samples=2000, seed=1)
        assert reports[1] == reports[0]
        assert len(stacks) == 7
        assert max(stacks) <= 327 * 40 * 40 * 8
        lo, hi, _ = brute_force_woven([fr.vectors for fr in fam.frames])
        assert not reports[0].woven
        assert reports[0].universal_lower == pytest.approx(lo, abs=1e-10)
        assert reports[0].universal_upper == pytest.approx(hi, rel=1e-12)

    @pytest.mark.parametrize("m, n, d, depth", [(2, 7, 2, 3), (2, 5, 3, 5), (3, 5, 2, 2),
                                                (3, 4, 3, 4), (4, 4, 2, 1), (4, 3, 3, 3)])
    def test_completions_match_the_per_row_gather(self, monkeypatch, m, n, d, depth):
        rng = np.random.default_rng(59)
        fam = FrameFamily([Frame(rng.normal(size=(n, d))) for _ in range(m)])
        outer = weaving._rank_one_table(fam.stack)
        prefix = tuple(int(x) for x in rng.integers(0, m, size=n - depth))
        digits = np.array([prefix + s for s in itertools.product(range(m), repeat=depth)])
        stacks = []
        monkeypatch.setattr(weaving, "_scan", lambda s: stacks.append(s) or (0.0, [0], 0.0))
        plan = outer, [np.arange(m)] * n, None, m**depth
        # the empty prefix is the walk's root, whose sum is -0.0
        node = weaving._row_operators(outer, np.array([prefix])) if prefix else np.full((1, d, d), -0.0)
        weaving._walk(plan, node, np.zeros(1, dtype=np.int64), n - depth)
        assert np.array_equal(stacks[0], gather_operators(outer, digits))

    def test_row_operators_match_the_per_row_gather(self):
        rng = np.random.default_rng(61)
        for m, n, d in ((2, 9, 3), (3, 6, 2), (4, 5, 4)):
            fam = FrameFamily([Frame(rng.normal(size=(n, d))) for _ in range(m)])
            outer = weaving._rank_one_table(fam.stack)
            digits = rng.integers(0, m, size=(200, n))
            assert np.array_equal(weaving._row_operators(outer, digits), gather_operators(outer, digits))

    def test_exact_ties_pick_the_all_zeros_witness(self, monkeypatch):
        # identical frames: every weaving has bit-for-bit the same operator;
        # a frame of e1 and one of e2 in R^9: every weaving is singular, and
        # blocks of at most 16 spread the ties over many slices
        rng = np.random.default_rng(53)
        families = [FrameFamily([Frame(rng.normal(size=(n, 8)))] * m) for m, n in ((2, 15), (3, 9))]
        families.append(FrameFamily([Frame(np.tile(e, (8, 1))) for e in np.eye(9)[:2]]))
        for fam in families:
            for t in (1, 2):
                rep = exhaustive_woven_check(fam, threads=t)
                assert rep.witness_partition.assignment == (0,) * fam.size
            monkeypatch.setattr(weaving, "_block", lambda d: 16)
        assert rep.universal_lower == 0.0

    def test_twins_are_not_expanded(self, monkeypatch):
        # identical frames, and integer frames that are +- copies of frame 0
        # at every index: each weaving has a smaller twin with a bit-identical
        # operator, so the walk solves one operator, not m^n
        rng = np.random.default_rng(227)
        same = Frame(rng.normal(size=(15, 8)))
        ints = rng.integers(-2, 3, size=(9, 2)).astype(float)
        signs = rng.choice([-1.0, 1.0], size=(2, 9, 1))
        families = [
            FrameFamily([same, same]),
            FrameFamily([Frame(ints), Frame(signs[0] * ints), Frame(signs[1] * ints)]),
        ]
        for fam in families:
            solved = scanned_operators(monkeypatch)
            rep = exhaustive_woven_check(fam)
            monkeypatch.undo()
            assert sum(solved) < 64
            assert rep == full_flat_scan(fam)

    def test_more_frames_than_a_block(self, monkeypatch):
        # blocks of at most 16 nodes and 20 frames: each node's children
        # come in two slices of frames
        monkeypatch.setattr(weaving, "_block", lambda d: 16)
        levels = levels_tested(monkeypatch)
        rng = np.random.default_rng(233)
        for d in (1, 2):
            fam = FrameFamily([Frame(rng.normal(size=(2, d))) for _ in range(20)])
            for t in (1, 2):
                levels.clear()
                assert exhaustive_woven_check(fam, threads=t) == full_flat_scan(fam)
                assert max(nodes for calls in levels.values() for nodes, _ in calls) == 16

    def test_witness_beyond_int64(self):
        # m^n >= 2^63: two frames of 66 vectors, identical but at indices 0
        # and 5, where frame 1 has a zero vector, which the witness takes,
        # so its lexicographic position outgrows an int64
        rng = np.random.default_rng(229)
        v = np.repeat(rng.normal(size=(1, 66, 2)), 2, axis=0)
        v[1, [0, 5]] = 0.0
        fam = FrameFamily([Frame(x) for x in v])
        rep = exhaustive_woven_check(fam, cap=2**66)
        words = []
        for a, b in itertools.product(range(2), repeat=2):
            word = [0] * 66
            word[0], word[5] = a, b
            words.append(Partition(tuple(word), 2))
        lows = [np.linalg.eigvalsh(weaving_operator(fam, p))[0] for p in words]
        assert rep.witness_partition == words[int(np.argmin(lows))] == words[3]
        assert rep.partitions_examined == 2**66
        assert rep.universal_lower == max(min(lows), 0.0)

    def test_single_frame_with_more_than_64_vectors(self):
        # one weaving and no free indices, at d=2 and d=3
        rng = np.random.default_rng(73)
        for d in (2, 3):
            f = Frame(rng.normal(size=(100, d)))
            rep = exhaustive_woven_check(FrameFamily([f]))
            assert rep.witness_partition.assignment == (0,) * 100
            assert rep.universal_lower == pytest.approx(frame_bounds(f).lower, rel=1e-12)

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            fam = FrameFamily([Frame(rng.normal(size=(5, 3))) for _ in range(2)])
            perm = rng.permutation(5)
            permuted = FrameFamily([Frame(fr.vectors[perm]) for fr in fam.frames])
            a, b = exhaustive_woven_check(fam), exhaustive_woven_check(permuted)
            assert abs(a.universal_lower - b.universal_lower) <= 1e-12 * (1 + a.universal_upper)
            assert abs(a.universal_upper - b.universal_upper) <= 1e-12 * (1 + a.universal_upper)


def scanned_operators(monkeypatch):
    """Record the size of every stack handed to the eigen kernel."""
    sizes = []
    scan = weaving._scan

    def recording_scan(s):
        sizes.append(len(s))
        return scan(s)

    monkeypatch.setattr(weaving, "_scan", recording_scan)
    return sizes


class TestCellPath:
    """Families of d <= 2 against scans that rule out nothing."""

    def test_long_shape_scans_few_operators(self, monkeypatch):
        # the shape of the exhaustive-long benchmark: 2,097,152 weavings
        rng = np.random.default_rng(67)
        base = rng.normal(size=(21, 2))
        fam = FrameFamily([Frame(base), Frame(base + 0.3 * rng.normal(size=(21, 2)))])
        sizes = scanned_operators(monkeypatch)
        rep = exhaustive_woven_check(fam, threads=2)
        assert 0 < sum(sizes) < 1000
        assert rep.partitions_examined == 2**21
        # with no test passing, the walk solves all 2^21 operators
        monkeypatch.setattr(weaving, "_positive_definite", lambda s, *tests: np.zeros(len(s), dtype=bool))
        sizes.clear()
        assert rep == exhaustive_woven_check(fam)
        assert sum(sizes) == 2**21

    def test_matches_the_flat_scan_on_random_families(self):
        # normal frames, near copies of one base, and copies of it scaled by
        # -1, 1, 1 + 1e-15 or 2, whose squares tie or nearly tie everywhere
        rng = np.random.default_rng(83)
        for trial in range(240):
            d, m, kind = trial % 2 + 1, trial % 3 + 2, trial // 6 % 3
            n = int(rng.integers((5, 4, 4)[m - 2], (10, 7, 5)[m - 2] + 1))
            base = rng.normal(size=(n, d))
            if kind == 0:
                v = rng.normal(size=(m, n, d))
            elif kind == 1:
                v = base + 0.3 * rng.normal(size=(m, n, d))
            else:
                v = base * rng.choice([-1.0, 1.0, 1 + 1e-15, 2.0], size=(m, n, 1))
            fam = FrameFamily([Frame(x) for x in v])
            assert exhaustive_woven_check(fam) == full_flat_scan(fam)

    def test_degenerate_families_take_the_cell_path(self, monkeypatch):
        rng = np.random.default_rng(71)
        ints = rng.integers(-2, 3, size=(3, 6, 2)).astype(float)
        ints[1, :3] = -ints[0, :3]  # +-duplicates
        ints[2, 3:] = 2 * ints[0, 3:]  # parallel vectors
        ints[:, 4] = 0.0  # zero vectors
        same = Frame(rng.normal(size=(7, 2)))
        families = [
            [Frame(x) for x in ints],
            [same] * 3,
            [Frame(rng.integers(-2, 3, size=(5, 1)).astype(float)) for _ in range(4)],
        ]
        reports = []
        for frames in families:
            fam = FrameFamily(frames)
            sizes = scanned_operators(monkeypatch)
            reports.append(exhaustive_woven_check(fam))
            assert sum(sizes) < fam.m**fam.size
            assert reports[-1] == full_flat_scan(fam)
        # identical frames: every weaving has bit-for-bit the same operator
        assert reports[1].witness_partition.assignment == (0,) * 7

    def test_does_not_import_numpy_ma(self):
        # np.unique(axis=0) would; a fresh interpreter shows the import
        src = os.path.dirname(os.path.dirname(weaving.__file__))
        code = (
            f"import sys; sys.path.insert(0, {src!r}); import numpy as np\n"
            "from wovenframes import Frame, FrameFamily, exhaustive_woven_check\n"
            "rng = np.random.default_rng(3)\n"
            "base = rng.normal(size=(21, 2))\n"
            "fam = FrameFamily([Frame(base), Frame(base + 0.3 * rng.normal(size=(21, 2)))])\n"
            "exhaustive_woven_check(fam)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (out.returncode, out.stdout) == (0, "False\n"), out.stderr


def flat_families(rng, m, n, d):
    """Seeded d >= 3 families of each kind the scan's cuts must survive."""
    base = rng.normal(size=(n, d))
    ints = np.repeat(rng.integers(-2, 3, size=(1, n, d)).astype(float), m, axis=0)
    ints[1:, : n // 2] *= -1  # +-duplicates of frame 0
    ints[1:, n // 2 :] = rng.integers(-2, 3, size=(m - 1, n - n // 2, d))
    zeros = rng.normal(size=(m, n, d))
    zeros[:, ::3] = 0.0
    zeros[1, 1] = 0.0
    return {
        "normal": rng.normal(size=(m, n, d)),
        "near-copy": base + 1e-9 * rng.normal(size=(m, n, d)),
        "identical": np.repeat(base[None], m, axis=0),
        "integer +-duplicates": ints,
        "scaled by 2^60": 2.0**60 * rng.normal(size=(m, n, d)),
        "scaled by 2^-60": 2.0**-60 * rng.normal(size=(m, n, d)),
        "zero vectors": zeros,
    }


def refuse(*args):
    raise AssertionError("the scan plan must not call this")


def levels_tested(monkeypatch):
    """Record, for each number r of free indices, the (nodes, passes) of
    every call of the tests; r = 0 holds the completions that reach the
    leaf test."""
    levels, built = collections.defaultdict(list), []
    level_tests, positive_definite = weaving._level_tests, weaving._positive_definite

    def recording_level_tests(*args):
        built[:] = [level_tests(*args)]
        return built[0]

    def recording_positive_definite(s, shifts):
        ok = positive_definite(s, shifts)
        # a level's shifts are the row of the built table they start at
        assert shifts.base is built[0]
        r = (shifts.ctypes.data - built[0].ctypes.data) // built[0].strides[0]
        levels[r].append((len(s), int(ok.sum())))
        return ok

    monkeypatch.setattr(weaving, "_level_tests", recording_level_tests)
    monkeypatch.setattr(weaving, "_positive_definite", recording_positive_definite)
    return levels


def one_side(shifts, side):
    """The (2, d, d) ``shifts`` of ``_positive_definite``'s two tests, with
    the test of the other sign made to pass: its shift is -inf I, so every
    pivot it takes from an S of finite entries is +inf."""
    out = np.array(shifts)
    out[1 - side] = np.diag(np.full(out.shape[-1], -np.inf))
    return out


class TestFlatScanCuts:
    @pytest.mark.parametrize("m, n, d", [(2, 10, 3), (2, 9, 6), (3, 6, 4), (2, 7, 9), (3, 4, 8)])
    def test_matches_a_full_eigensolve(self, monkeypatch, m, n, d):
        # blocks of 16 operators, so every family splits into several blocks;
        # (2, 7, 9) and (3, 4, 8) have n < d, so no weaving is a frame
        monkeypatch.setattr(weaving, "_block", lambda d: 16)
        rng = np.random.default_rng(89 + 10 * n + d)
        for kind, v in flat_families(rng, m, n, d).items():
            fam = FrameFamily([Frame(x) for x in v])
            expected = full_flat_scan(fam)
            for t in (1, 2):
                assert exhaustive_woven_check(fam, threads=t) == expected, (kind, t)

    @pytest.mark.parametrize("m, n, d, chunks", [(2, 7, 9, 2), (3, 4, 8, 3), (2, 8, 12, 4)])
    def test_n_below_d_takes_no_cuts(self, monkeypatch, m, n, d, chunks):
        # every operator is singular, so the scan solves them all, uncut, in
        # several blocks of at most 16: all m^n of a family
        # without twins, one of identical frames
        monkeypatch.setattr(weaving, "_block", lambda d: 16)
        monkeypatch.setattr(weaving, "_level_tests", refuse)
        monkeypatch.setattr(weaving, "_positive_definite", refuse)
        scans = scanned_operators(monkeypatch)
        rng = np.random.default_rng(131 + 10 * n + d)
        for kind, v in flat_families(rng, m, n, d).items():
            fam = FrameFamily([Frame(x) for x in v])
            expected = full_flat_scan(fam)
            for t in (1, 2):
                scans.clear()
                assert exhaustive_woven_check(fam, threads=t) == expected, (kind, t)
                assert max(scans) <= 16
                if kind == "normal":
                    assert sum(scans) == m**n and len(scans) >= m**n // 16 >= chunks
                elif kind == "identical":
                    assert scans == [1]

    def test_rules_out_most_operators(self, monkeypatch):
        rng = np.random.default_rng(97)
        base = rng.normal(size=(12, 5))
        fam = FrameFamily([Frame(base), Frame(base + 0.3 * rng.normal(size=(12, 5)))])
        solved = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(s):
            solved.append(len(s) if s.ndim == 3 else 1)
            return eigvalsh(s)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        rep = exhaustive_woven_check(fam)
        monkeypatch.undo()
        assert rep == full_flat_scan(fam)
        # the descent's 2m rows, then few of the 4,096 operators
        assert solved[0] == 4 and sum(solved[1:]) < 4096 // 20


def envelope_families(rng, m):
    """(m, 5, 4) stacks whose vectors at each index are normal, sign flips
    of one vector, zero in some frames, identical, orthogonal, near parallel
    with random signs, or near copies."""
    d = 4
    v = rng.normal(size=(m, 5, d))
    flips = v.copy()
    flips[1:] = v[0] * rng.choice([-1.0, 1.0], size=(m - 1, 5, 1))
    zeros = v.copy()
    zeros[rng.integers(0, m, size=5), np.arange(5)] = 0.0
    zeros[:, 2] = 0.0
    orthogonal = np.zeros((m, 5, d))
    for j in range(5):
        q = np.linalg.qr(rng.normal(size=(d, d)))[0]
        orthogonal[:, j] = (q[:, np.arange(m) % d] * rng.uniform(0.5, 2.0, size=m)).T
    near = v[0] * (1 + 1e-9 * rng.normal(size=(m, 5, 1))) + 1e-12 * rng.normal(size=(m, 5, d))
    return {
        "normal": v,
        "sign flips": flips,
        "zero vectors": zeros,
        "identical": np.repeat(v[:1], m, axis=0),
        "orthogonal": orthogonal,
        "near parallel": near * rng.choice([-1.0, 1.0], size=(m, 5, 1)),
        "near copies": v[0] + 0.3 * rng.normal(size=(m, 5, d)),
    }


def pruned_family(rng, flip_signs=False):
    """An eps 0.3 (2, 16, 8) family, the exhaustive-d8 shape, with the
    second frame's vectors negated at random when ``flip_signs``."""
    base = rng.normal(size=(16, 8))
    other = base + 0.3 * rng.normal(size=(16, 8))
    if flip_signs:
        other *= rng.choice([-1.0, 1.0], size=(16, 1))
    return FrameFamily([Frame(base), Frame(other)])


class TestSubtreeEnvelopes:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_sandwich_every_rank_one_term(self, m):
        rng = np.random.default_rng(151 + m)
        for kind, v in envelope_families(rng, m).items():
            lower, upper = weaving._envelopes(v)
            terms = np.einsum("ijd,ije->ijde", v, v)
            scale = np.max(np.sum(v**2, axis=2), axis=0)[:, None]
            assert np.all(np.linalg.eigvalsh(terms - lower) >= -1e-12 * scale), kind
            assert np.all(np.linalg.eigvalsh(upper - terms) >= -1e-12 * scale), kind

    def test_degenerate_envelopes_are_exact(self):
        rng = np.random.default_rng(157)
        v = rng.normal(size=(5, 3))
        outer = np.einsum("jd,je->jde", v, v)
        for m in (2, 3):
            # identical and negated vectors: K = 0, so M = N = h h^T
            same = np.repeat(v[None], m, axis=0) * np.array([1.0, -1.0, 1.0][:m])[:, None, None]
            for envelope in weaving._envelopes(same):
                np.testing.assert_allclose(envelope, outer, rtol=1e-15, atol=0)
        # h = 0 (a zero frame 0 keeps every sign): M = 0 and N = K = v v^T
        lower, upper = weaving._envelopes(np.stack([np.zeros_like(v), v, -v]))
        assert not lower.any()
        np.testing.assert_allclose(upper, outer, rtol=1e-14)
        lower, upper = weaving._envelopes(np.zeros((2, 5, 3)))
        assert not lower.any() and not upper.any()

    def test_a_passing_node_passes_every_completion(self):
        rng = np.random.default_rng(163)
        passed = 0
        for m, n, d, eps in ((2, 10, 4, 0.3), (2, 9, 5, 1.0), (3, 7, 3, 0.3), (4, 6, 3, 0.1)):
            base = rng.normal(size=(n, d))
            fam = FrameFamily([Frame(base + eps * rng.normal(size=(n, d))) for _ in range(m)])
            stack, _ = unit_scaled(fam.stack)
            outer = weaving._rank_one_table(stack)
            shifts = weaving._level_tests(stack, outer)
            assert shifts.shape == (n + 1, 2, d, d)
            for r in (5, 4, 2, 1):
                prefixes = rng.integers(0, m, size=(60, n - r))
                nodes = weaving._row_operators(outer, prefixes)
                node_passes = [weaving._positive_definite(nodes, one_side(shifts[r], side)) for side in (0, 1)]
                for k, prefix in enumerate(prefixes):
                    rows = np.array([tuple(prefix) + s for s in itertools.product(range(m), repeat=r)])
                    leaves = weaving._row_operators(outer, rows)
                    for side in (0, 1):
                        if node_passes[side][k]:
                            passed += 1
                            assert weaving._positive_definite(leaves, one_side(shifts[0], side)).all()
        assert passed > 200

    @pytest.mark.parametrize("m, n, d", [(2, 10, 4), (3, 7, 3)])
    def test_level_tests_sum_the_envelopes_from_the_last_index_back(self, m, n, d):
        # the table against a loop over its rows: row r shifts the cut of
        # each test by its sign times the envelopes of the last r indices
        rng = np.random.default_rng(179 + m)
        stack, _ = unit_scaled(rng.normal(size=(m, n, d)))
        shifts = weaving._level_tests(stack, weaving._rank_one_table(stack))
        assert shifts.shape == (n + 1, 2, d, d)
        envelopes = weaving._envelopes(stack)
        for side in (0, 1):
            cut, total = shifts[0, side, 0, 0], np.zeros((d, d))
            np.testing.assert_array_equal(shifts[0, side], cut * np.eye(d))
            for r in range(1, n + 1):
                total = total + envelopes[side][n - r]
                np.testing.assert_array_equal(shifts[r, side], cut * np.eye(d) - weaving._SIGNS[side] * total)

    @pytest.mark.parametrize("m, n, d, chunks", [(2, 10, 3, 16), (3, 6, 4, 27)])
    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_matches_a_full_eigensolve_at_every_scale(self, monkeypatch, m, n, d, chunks, k):
        # blocks of at most 16 nodes
        monkeypatch.setattr(weaving, "_block", lambda d: 16)
        levels = levels_tested(monkeypatch)
        rng = np.random.default_rng(167 + 10 * n + d)
        for kind, v in flat_families(rng, m, n, d).items():
            fam = FrameFamily([Frame(np.ldexp(x, k)) for x in v])
            expected = full_flat_scan(fam)
            for t in (1, 2):
                assert exhaustive_woven_check(fam, threads=t) == expected, (kind, t)
        # subtrees were ruled out on the way, so few completions reach the
        # leaf test, in fewer blocks than the flat scan had chunks
        reached = [nodes for nodes, _ in levels[0]]
        assert sum(reached) < 7 * 2 * m**n
        assert len(reached) < 7 * 2 * chunks
        assert all(nodes <= 16 for calls in levels.values() for nodes, _ in calls)

    @pytest.mark.parametrize("flip_signs", [False, True])
    def test_rules_out_most_subtrees(self, monkeypatch, flip_signs):
        # fewer than a quarter of the four families' 2^16 completions each
        # reach the leaf test
        levels = levels_tested(monkeypatch)
        for seed in (1, 2, 3, 173):
            fam = pruned_family(np.random.default_rng(seed), flip_signs)
            assert exhaustive_woven_check(fam) == full_flat_scan(fam)
        assert sum(nodes for nodes, _ in levels[0]) < 4 * 2**16 // 4

    def test_a_level_that_rules_out_nothing_does_not_end_the_walk(self, monkeypatch):
        # an eps 0.3 (4, 8, 4) family on which no node passes the tests at
        # r = 4: the nodes below are still tested, and some pass, so fewer
        # than all 4^8 completions reach the leaf test
        rng = np.random.default_rng(7)
        base = rng.standard_normal((8, 4))
        frames = [base] + [base + 0.3 * rng.standard_normal((8, 4)) for _ in range(3)]
        fam = FrameFamily([Frame(v) for v in frames])
        levels = levels_tested(monkeypatch)
        assert exhaustive_woven_check(fam) == full_flat_scan(fam)
        passes = {r: sum(passed for _, passed in calls) for r, calls in levels.items()}
        assert sorted(passes) == list(range(9))
        assert passes[4] == 0 and passes[3] + passes[2] + passes[1] > 0
        assert sum(nodes for nodes, _ in levels[0]) < 4**8


class TestPositiveDefinite:
    """weaving._positive_definite against eigvalsh of scale S - shift I, with
    the shift passed as the matrix shift * I.  The kernel tests +S and -S,
    so a test of scale S runs as the test of its sign on |scale| S, which
    rounds as the product scale S does."""

    @staticmethod
    def kernel(s, *tests):
        """The kernel on the (scale, matrix shift) pairs ``tests``, at most
        one of each sign, and all of one |scale|; a sign with no test takes
        the shift of ``one_side``, which every S passes."""
        (size,) = {abs(scale) for scale, _ in tests}
        shifts = np.array([np.diag(np.full(s.shape[1], -np.inf))] * 2)
        for scale, shift in tests:
            shifts[int(scale < 0)] = shift
        with np.errstate(over="ignore"):
            s = size * s
        return weaving._positive_definite(s, shifts)

    def passes(self, s, scale, shift):
        return self.kernel(s, (scale, shift * np.eye(s.shape[1])))

    @staticmethod
    def spectrum(s, scale, shift):
        return np.linalg.eigvalsh(scale * s - shift * np.eye(s.shape[1]))

    def test_agrees_with_eigvalsh_away_from_zero(self):
        rng = np.random.default_rng(101)
        for d in range(1, 9):
            x = rng.normal(size=(400, d, d + 1))
            sym = rng.normal(size=(400, d, d))
            for s in (x @ x.transpose(0, 2, 1), sym + sym.transpose(0, 2, 1)):
                for scale, q in ((1.0, 0.3), (0.5, 0.7), (-1.0, 0.5)):
                    shift = np.quantile(self.spectrum(s, scale, 0.0)[:, 0], q)
                    low = self.spectrum(s, scale, shift)[:, 0]
                    ok = self.passes(s, scale, shift)
                    tol = 1e-12 * np.max(np.abs(s))
                    assert np.all(low[ok] > -tol)
                    assert np.all(ok[low > tol])
                    assert 0 < ok.sum() < len(s)

    def test_singular_and_indefinite_fail(self):
        rng = np.random.default_rng(103)
        x = rng.normal(size=(50, 6, 4))
        singular = x @ x.transpose(0, 2, 1)
        trace = np.trace(singular, axis1=1, axis2=2).max()
        assert not self.passes(singular, 1.0, 1e-9 * trace).any()
        assert not self.passes(np.zeros((3, 4, 4)), 1.0, 0.0).any()
        indefinite = np.array([np.diag([1.0, -1.0, 2.0]), [[1.0, 2, 0], [2, 1, 0], [0, 0, 1]]])
        assert not self.passes(indefinite, 1.0, 0.0).any()
        assert not self.passes(-indefinite, -1.0, 0.0).any()

    def test_one_by_one(self):
        s = np.array([-1.0, 0.0, 5e-324, 1e-300, 3.0]).reshape(-1, 1, 1)
        for shift in (0.0, 1e-300, 2.0):
            expected = s[:, 0, 0] - shift > 0
            np.testing.assert_array_equal(self.passes(s, 1.0, shift), expected)

    def test_overflow_and_nan_fail_quietly(self):
        # tiny pivots make the multipliers overflow to inf, and inf - inf is NaN
        s = np.array([
            [[1e-300, 1e200], [1e200, 1.0]],
            [[5e-324, 1e300], [1e300, 1e300]],
            [[1e300, 1e300], [1e300, 1e300]],
        ])
        with np.errstate(all="raise"):
            ok = self.passes(s, 1.0, 0.0)
            assert not ok.any()
            assert not self.passes(s, 1e10, -1.0).any()

    def test_reads_only_the_lower_triangle(self):
        rng = np.random.default_rng(107)
        x = rng.normal(size=(200, 5, 5))
        s = x @ x.transpose(0, 2, 1)
        shift = np.median(np.linalg.eigvalsh(s)[:, 0])
        poisoned = s.copy()
        poisoned[:, np.triu_indices(5, 1)[0], np.triu_indices(5, 1)[1]] = np.nan
        np.testing.assert_array_equal(
            self.passes(poisoned, 1.0, shift), self.passes(s, 1.0, shift)
        )
        upper = shift * np.eye(5)
        upper[np.triu_indices(5, 1)] = np.nan
        np.testing.assert_array_equal(
            self.kernel(s, (1.0, upper)), self.passes(s, 1.0, shift)
        )

    def test_matrix_shift_agrees_with_eigvalsh(self):
        # scale S - shift for a symmetric shift that is not a multiple of I
        rng = np.random.default_rng(109)
        for d in range(1, 9):
            x = rng.normal(size=(400, d, d + 1))
            s = x @ x.transpose(0, 2, 1)
            e = rng.normal(size=(d, d))
            for scale in (0.5, -1.0):
                shift = e @ e.T * (0.2 if scale > 0 else -5.0)
                low = np.linalg.eigvalsh(scale * s - shift)[:, 0]
                ok = self.kernel(s, (scale, shift))
                tol = 1e-12 * np.max(np.abs(s))
                assert np.all(low[ok] > -tol)
                assert np.all(ok[low > tol])

    def test_two_tests_pass_where_both_pass(self):
        # the lower and upper tests of the scan, run together: all three
        # outcomes occur, and the joint test stops early once nothing passes
        rng = np.random.default_rng(113)
        for d in range(1, 9):
            x = rng.normal(size=(400, d, d + 1))
            s = x @ x.transpose(0, 2, 1)
            w = np.linalg.eigvalsh(s)
            eye = np.eye(d)
            upper = (-1.0, -np.quantile(w[:, -1], 0.7) * eye)
            for low in (np.quantile(w[:, 0], 0.3), w[:, 0].max() + 1.0):
                tests = [(1.0, low * eye), upper]
                both = self.kernel(s, *tests)
                alone = [self.kernel(s, t) for t in tests]
                np.testing.assert_array_equal(both, alone[0] & alone[1])
                assert 0 < alone[1].sum() < len(s)
                assert (0 < both.sum() < len(s)) == (low < w[:, 0].max())


@st.composite
def degenerate_families(draw):
    """d in {1, 2}, m in 1..4, integer entries in -2..2, and either m identical
    frames or frames tied to frame 0 index by index: copies, negations,
    doubles (parallel) and zero vectors."""
    d, m = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    n = draw(st.integers((1, 3, 3, 3)[m - 1], (8, 8, 5, 4)[m - 1]))
    v = draw(arrays(np.float64, (m, n, d), elements=st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])))
    identical = draw(st.booleans())
    if identical:
        v[1:] = v[0]
    else:
        # link 0 leaves f_ij free; 1..4 make it f_0j, -f_0j, 2 f_0j or zero
        links = draw(arrays(np.int64, (m - 1, n), elements=st.integers(0, 4)))
        for i, j in zip(*np.nonzero(links)):
            v[i + 1, j] = (1.0, -1.0, 2.0, 0.0)[links[i, j] - 1] * v[0, j]
    return FrameFamily([Frame(x) for x in v]), identical


@settings(max_examples=150, deadline=None)
@given(degenerate_families())
def test_cell_path_matches_the_flat_scan_and_brute_force(case):
    fam, identical = case
    rep = exhaustive_woven_check(fam)
    assert rep == full_flat_scan(fam)
    lo, hi, _ = brute_force_woven([fr.vectors for fr in fam.frames])
    assert rep.universal_lower == pytest.approx(max(lo, 0.0), abs=1e-10)
    assert rep.universal_upper == pytest.approx(hi, abs=1e-10)
    # rounding may order exact ties differently in the two spectra, so the
    # witness is checked to attain the bound rather than compared
    own, _, _ = brute_force_woven([weave(fam, rep.witness_partition).vectors])
    assert own == pytest.approx(lo, abs=1e-10)
    if identical:
        assert rep.witness_partition.assignment == (0,) * fam.size


class TestSampledEstimate:
    def test_library_rejects_no_threads_or_samples(self):
        # the CLI validates these options too; these checks guard library callers
        fam = example_family()
        with pytest.raises(InvalidArgumentError):
            exhaustive_woven_check(fam, threads=0)
        with pytest.raises(InvalidArgumentError):
            sampled_woven_estimate(fam, samples=0, seed=1)
        with pytest.raises(InvalidArgumentError):
            sampled_woven_estimate(fam, 5, -1)

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

    def test_exact_ties_pick_the_smallest_drawn_row(self):
        # identical frames: every drawn row ties, so the witness is the
        # smallest of the rows the generator draws in its one chunk
        fr = Frame(np.random.default_rng(137).normal(size=(10, 3)))
        rep = sampled_woven_estimate(FrameFamily([fr] * 3), samples=30, seed=11)
        drawn = np.random.Generator(np.random.PCG64(11)).integers(0, 3, size=(30, 10), dtype=np.int64)
        assert rep.witness_partition.assignment == min(map(tuple, drawn.tolist()))
        assert rep.witness_partition.assignment != tuple(drawn[0].tolist())

    def test_exact_ties_across_blocks_pick_the_smallest_drawn_row(self, monkeypatch):
        # identical frames at d = 3: every drawn row ties, and the 20,000
        # rows come in blocks of 4,096.  The smallest of them is row 19,163,
        # in the last block, which a rule keeping the first block that
        # attains the minimum, or the first 16,384 rows, would miss
        fr = Frame(np.random.default_rng(139).normal(size=(24, 3)))
        solved = scanned_operators(monkeypatch)
        rep = sampled_woven_estimate(FrameFamily([fr] * 2), samples=20000, seed=4)
        drawn = np.random.Generator(np.random.PCG64(4)).integers(0, 2, size=(20000, 24), dtype=np.int64)
        rows = list(map(tuple, drawn.tolist()))
        assert rows.index(min(rows)) == 19163
        assert rep.witness_partition.assignment == min(rows)
        assert solved == [4096] * 4 + [3616]

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

        def counted(s):
            stacks.append(np.array(s))
            return solve(s)

        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        fam, p = example_family(), Partition((0, 0, 1), 2)
        weaving_alternate_dual(fam, p, np.array([[1.0], [0.0]]))
        # S_W times the power of two that unit_scaled takes from its vectors
        s_w = weaving_operator(fam, p)
        _, e = unit_scaled(weave(fam, p).vectors)
        assert e == 1
        assert sum(np.array_equal(s, np.ldexp(s_w, -2 * e)) for s in stacks) == 1

    def test_raw_form_never_computes_the_kernel(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return svd(*args, **kwargs)

        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", counted)
        fam, p = example_family(), Partition((0, 0, 1), 2)
        # the selected vectors (1,0), (0,1), (1,-1) annihilate (1,-1,-1) and its multiples
        raw = np.array([[1.0, -1.0, -1.0], [0.0, 0.0, 0.0]])
        alt = weaving_alternate_dual(fam, p, raw)
        assert calls == []
        ok, _ = is_dual_pair(weave(fam, p), alt)
        assert ok
        canon = weaving_canonical_dual(fam, p)
        np.testing.assert_allclose(alt.vectors.T - canon.vectors.T, raw, atol=1e-12)
        # the kernel form takes the kernel from one SVD of T_W
        weaving_alternate_dual(fam, p, raw[:, :1])
        assert len(calls) == 1

    def test_wide_weaving_kernel_row(self):
        # T_W = [[1, 0, 1], [0, 1, 1]] has the one kernel row (-1, -1, 1) / sqrt(3)
        fam, p = example_family(), Partition((0, 0, 0), 2)
        u = (
            weaving_alternate_dual(fam, p, np.array([[1.0], [0.0]])).vectors.T
            - weaving_canonical_dual(fam, p).vectors.T
        )
        expected = np.array([-1.0, -1.0, 1.0]) / np.sqrt(3.0)
        assert min(np.max(np.abs(u[0] - expected)), np.max(np.abs(u[0] + expected))) < 1e-12
        assert np.all(u[1] == 0.0)

    def test_square_weaving_has_no_kernel(self):
        # n = d: coefficients of shape (d, 0) combine no kernel rows
        fam = FrameFamily([Frame(np.eye(2)), Frame(np.array([[1.0, 1.0], [0.0, 1.0]]))])
        p = Partition((1, 0), 2)
        alt = weaving_alternate_dual(fam, p, np.zeros((2, 0)))
        np.testing.assert_allclose(alt.vectors, weaving_canonical_dual(fam, p).vectors, rtol=0, atol=1e-15)
        with pytest.raises(ShapeMismatchError, match=r"must have 0 \(kernel\) or 2 \(raw\) columns, got 1"):
            weaving_alternate_dual(fam, p, np.zeros((2, 1)))

    def test_small_sigma_is_not_a_kernel(self):
        # the frame rule cuts lambda_min = sigma_min^2 at ZERO_RTOL * lambda_max, so
        # sigma_min = 1e-4 sigma_max is a frame of rank d, with a kernel of n - d
        # rows, and 1e-6 is no frame at all
        rng = np.random.default_rng(23)
        for _ in range(20):
            v = matrix_with_singular_values(rng, (6, 4), [1.0, 0.5, 0.2, 1e-4])
            fam, p = FrameFamily([Frame(v)]), Partition((0,) * 6, 1)
            alt = weaving_alternate_dual(fam, p, rng.normal(size=(4, 2)))
            assert is_dual_pair(weave(fam, p), alt, tol=1e-8)[0]
            with pytest.raises(ShapeMismatchError, match=r"must have 2 \(kernel\) or 6 \(raw\) columns, got 3"):
                weaving_alternate_dual(fam, p, np.zeros((4, 3)))
            v = matrix_with_singular_values(rng, (6, 4), [1.0, 0.5, 0.2, 1e-6])
            with pytest.raises(NotAFrameError):
                weaving_alternate_dual(FrameFamily([Frame(v)]), p, np.zeros((4, 2)))

    def test_kernel_rows_are_orthonormal(self):
        # U = alternate - canonical = c K with K the orthonormal kernel rows, so
        # T_W U^T = 0 and U U^T = c c^T
        rng = np.random.default_rng(21)
        done = 0
        while done < 100:
            n, d = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            if n < d:
                continue
            fam = FrameFamily([Frame(rng.normal(size=(n, d))) for _ in range(2)])
            p = Partition(tuple(rng.integers(0, 2, size=n)), 2)
            if frame_bounds(weave(fam, p)).lower <= 1e-6:
                continue
            c = rng.normal(size=(d, n - d))
            u = weaving_alternate_dual(fam, p, c).vectors.T - weaving_canonical_dual(fam, p).vectors.T
            t_w = weave(fam, p).vectors.T
            scale = np.linalg.norm(t_w, 2) * (1.0 + np.linalg.norm(c))
            assert np.max(np.abs(t_w @ u.T)) <= 1e-10 * scale
            np.testing.assert_allclose(u @ u.T, c @ c.T, rtol=0, atol=1e-10 * (1.0 + np.linalg.norm(c) ** 2))
            done += 1

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("columns", [1, 3])
    def test_coefficients_must_be_finite(self, bad, columns):
        # a non-finite U used to reach T_W U^T, warn, and fail as a non-finite frame
        fam, p = example_family(), Partition((0, 0, 1), 2)
        c = np.zeros((2, columns))
        c[0, 0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="kernel coefficients must be finite"):
                weaving_alternate_dual(fam, p, c)

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-10])
    def test_tol_must_be_finite_and_nonnegative(self, tol):
        # U's rows lie outside ker(T_W): a NaN tol used to pass both of the
        # alternate dual's tests and return a non-dual
        rng = np.random.default_rng(239)
        fam = FrameFamily([Frame(rng.normal(size=(5, 2))) for _ in range(2)])
        p, u = Partition((0, 1, 0, 1, 0), 2), rng.normal(size=(2, 5))
        with pytest.raises(ConstraintViolatedError):
            weaving_alternate_dual(fam, p, u)
        with pytest.raises(InvalidArgumentError, match="tol must be finite"):
            weaving_alternate_dual(fam, p, u, tol=tol)
        with pytest.raises(InvalidArgumentError, match="tol must be finite"):
            is_tight_weaving(fam, p, tol=tol)
        assert is_tight_weaving(fam, p, tol=0.0) is None

    def test_coefficient_shapes_rejected(self):
        # the example weaving has d = 2 and n = 3, so a kernel of dimension 1
        fam = example_family()
        p = Partition((0, 0, 1), 2)
        for coefficients in (np.zeros(2), np.zeros((3, 1)), np.zeros((1, 3))):
            with pytest.raises(ShapeMismatchError, match="need 2 rows"):
                weaving_alternate_dual(fam, p, coefficients)
        with pytest.raises(ShapeMismatchError, match=r"must have 1 \(kernel\) or 3 \(raw\) columns, got 2"):
            weaving_alternate_dual(fam, p, np.zeros((2, 2)))

    def test_raw_matrix_outside_kernel_rejected(self):
        fam = example_family()
        p = Partition((0, 0, 1), 2)
        bad = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        # the residual test is relative to ||T_W|| ||U||, so a tiny U is no
        # closer to the kernel than a large one
        for scale in (1.0, 1e-12, 1e12):
            with pytest.raises(ConstraintViolatedError):
                weaving_alternate_dual(fam, p, scale * bad)


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

    def test_scaled_down_example_is_not_tight(self):
        # S_W has entries near 1e-12, so an absolute residual test would pass it
        f, g = example_pair()
        small = FrameFamily([Frame(1e-6 * f.vectors), Frame(1e-6 * g.vectors)])
        for word in ((0, 0, 1), (0, 1, 1), (1, 0, 0)):
            assert is_tight_weaving(example_family(), Partition(word, 2)) is None
            assert is_tight_weaving(small, Partition(word, 2)) is None

    def test_scaled_up_mercedes_benz_is_tight(self):
        # rounding leaves a residual far above 1e-10 at this scale, but not above tol * A
        angles = np.pi / 2 + np.arange(3) * 2 * np.pi / 3
        mb = 1e4 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        fam = FrameFamily([Frame(mb), Frame(mb[::-1])])
        p = Partition((0, 1, 0), 2)
        assert np.linalg.norm(weaving_operator(fam, p) - 1.5e8 * np.eye(2), 2) > 1e-10
        assert is_tight_weaving(fam, p) == pytest.approx(1.5e8, rel=1e-12)

    def test_zero_weaving_is_not_tight(self):
        zero = Frame(np.zeros((3, 2)))
        assert is_tight_weaving(FrameFamily([zero, zero]), Partition((0, 1, 0), 2)) is None



def replay_families(rng, m, n, d):
    """Six eps 0.3 near-copy families, then every kind of ``flat_families``."""
    near = []
    for _ in range(6):
        base = rng.normal(size=(n, d))
        near.append([base] + [base + 0.3 * rng.normal(size=(n, d)) for _ in range(m - 1)])
    kinds = list(flat_families(rng, m, n, d).values())
    return [FrameFamily([Frame(x) for x in v]) for v in near + kinds]


def assert_replays(fam, rep):
    """The witness's spectrum, read as frame_bounds reads it, from the
    operator of its vectors scaled by unit_scaled and scaled back, gives the
    report's lower bound bit for bit, and so does weaving_bounds when woven."""
    v, e = unit_scaled(weave(fam, rep.witness_partition).vectors)
    lower = np.linalg.eigvalsh(frame_operator(Frame(v)))[0]
    assert max(float(np.ldexp(lower, 2 * e)), 0.0) == rep.universal_lower
    if rep.woven:
        assert weaving_bounds(fam, rep.witness_partition).lower == rep.universal_lower


def extreme_scales(fam, scan):
    """``fam`` times 2^-250 and 2^250, each with its report by ``scan``,
    which must be the report of ``fam`` with each bound times 4^-250 or
    4^250, beyond where LAPACK rescales an operator by a factor of its own."""
    rep = scan(fam)
    for k in (-250, 250):
        scaled = FrameFamily([Frame(np.ldexp(fr.vectors, k)) for fr in fam.frames])
        scaled_rep = scan(scaled)
        lower, upper = np.ldexp([rep.universal_lower, rep.universal_upper], 2 * k)
        assert scaled_rep == dataclasses.replace(rep, universal_lower=lower, universal_upper=upper), k
        yield scaled, scaled_rep


def recorded_walks(monkeypatch):
    """Record the level j of every walk: the root's, then each slice's."""
    levels = []
    walk = weaving._walk

    def recording_walk(plan, s, ids, j, *args):
        levels.append(j)
        return walk(plan, s, ids, j, *args)

    monkeypatch.setattr(weaving, "_walk", recording_walk)
    return levels


class TestReplay:
    """Every scan report's witness replays its bound: the package builds and
    solves each weaving operator as the scans build and solve theirs."""

    def test_cell_path(self, monkeypatch):
        # d = 2: every family takes one walk from the root, unsplit, and so
        # does the first one times 2^-250 and 2^250
        walks = recorded_walks(monkeypatch)
        rng = np.random.default_rng(191)
        for m, n in ((2, 12), (3, 7)):
            for fam in replay_families(rng, m, n, 2):
                walks.clear()
                assert_replays(fam, exhaustive_woven_check(fam))
                assert walks == [0]
        # each scan clears the walks it records first
        scan = lambda fam: walks.clear() or exhaustive_woven_check(fam)
        for fam, rep in extreme_scales(replay_families(rng, 2, 12, 2)[0], scan):
            assert_replays(fam, rep)
            assert walks == [0]

    @pytest.mark.parametrize("threads", [1, 2])
    def test_flat_path_in_chunks(self, monkeypatch, threads):
        # blocks of at most 16 nodes: the near copies and the normal
        # families split into slices, identical frames walk one path
        monkeypatch.setattr(weaving, "_block", lambda d: 16)
        walks = recorded_walks(monkeypatch)
        rng = np.random.default_rng(193)
        for m, n, d in ((2, 12, 3), (3, 6, 4)):
            splits = []
            for fam in replay_families(rng, m, n, d):
                walks.clear()
                assert_replays(fam, exhaustive_woven_check(fam, threads=threads))
                assert walks[0] == 0
                splits.append(len(walks) > 1)
            assert all(splits[:6]) and not all(splits)
        # a near copy times 2^-250 and 2^250 splits as well
        scan = lambda fam: walks.clear() or exhaustive_woven_check(fam, threads=threads)
        for fam, rep in extreme_scales(replay_families(rng, 2, 12, 3)[0], scan):
            assert_replays(fam, rep)
            assert walks[0] == 0 and len(walks) > 1

    def test_sampled(self):
        rng = np.random.default_rng(197)
        for m, n, d in ((2, 12, 2), (2, 12, 3), (3, 9, 4)):
            for seed, fam in enumerate(replay_families(rng, m, n, d)):
                assert_replays(fam, sampled_woven_estimate(fam, samples=300, seed=seed))
        scan = functools.partial(sampled_woven_estimate, samples=300, seed=1)
        for fam, rep in extreme_scales(replay_families(rng, 2, 12, 3)[0], scan):
            assert_replays(fam, rep)

    def test_one_frame_bounds_are_the_scans(self):
        rng = np.random.default_rng(199)
        frames = []
        for n, d in ((3, 2), (7, 3), (12, 8)):
            frames += [Frame(rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))) for _ in range(10)]
        # and the first times 2^-250 and 2^250
        frames += [fam.frames[0] for fam, _ in extreme_scales(FrameFamily(frames[:1]), exhaustive_woven_check)]
        for fr in frames:
            b = frame_bounds(fr)
            for rep in (exhaustive_woven_check(FrameFamily([fr])),
                        sampled_woven_estimate(FrameFamily([fr]), samples=1, seed=1)):
                assert (b.lower, b.upper) == (rep.universal_lower, rep.universal_upper)
