import itertools
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
from wovenframes import linalg, weaving


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


class TestFrameFamily:
    def test_stores_its_stack_and_largest_trace(self):
        f, g = example_pair()
        fam = FrameFamily([f, g])
        np.testing.assert_array_equal(fam.stack, np.stack([f.vectors, g.vectors]))
        assert not fam.stack.flags.writeable
        assert fam.trace == FrameFamily.largest_trace(fam.stack)[0] == 1.0 + 2.0 + 2.0
        # derived fields stay out of equality and repr
        assert fam == FrameFamily([f, g])
        assert "stack" not in repr(fam) and "trace" not in repr(fam)

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

    def test_thread_count_invariance(self, monkeypatch):
        rng = np.random.default_rng(37)
        one_chunk = FrameFamily([Frame(rng.normal(size=(6, 3))) for _ in range(2)])
        # 2^15 words at d=2: the cell path scans a few candidate rows instead
        cells = FrameFamily([Frame(rng.normal(size=(15, 2))) for _ in range(2)])
        # 3^9 words: three chunks of 3^8 = 6,561 operators, not a power of two
        three_chunks = FrameFamily([Frame(rng.normal(size=(9, 3))) for _ in range(3)])
        # 2^15 words at d=3: two flat chunks of 2^14, so the pool really splits the work
        two_chunks = FrameFamily([Frame(rng.normal(size=(15, 3))) for _ in range(2)])
        stacks = scanned_operators(monkeypatch)
        for fam in (one_chunk, cells, three_chunks, two_chunks):
            stacks.clear()
            reports = [exhaustive_woven_check(fam, threads=t) for t in (1, 2, 4)]
            for rep in reports[1:]:
                assert rep == reports[0]
        assert stacks == [2**14] * 6

    def test_chunks_fit_the_gather_budget(self, monkeypatch):
        # d^2 * 8 B = 12,800 B per operator: 1,310 operators per chunk, so the
        # 4,096 words split into 4 chunks of 2^10 and 2,000 samples into 2
        rng = np.random.default_rng(47)
        fam = FrameFamily([Frame(rng.normal(size=(12, 40))) for _ in range(2)])
        stacks = []
        scan = weaving._scan

        def recording_scan(s, *cuts):
            stacks.append(s.nbytes)
            return scan(s, *cuts)

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

    def test_single_frame_with_more_than_64_vectors(self):
        # one weaving and no free indices, at d=2 and on the flat path at d=3
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


def flat_scan(fam):
    """The report of the flat scan over all m^n weavings: the cell path declines."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weaving, "_cell_candidates", lambda *args: None)
        return exhaustive_woven_check(fam)


def scanned_operators(monkeypatch):
    """Record the size of every stack handed to the eigen kernel."""
    sizes = []
    scan = weaving._scan

    def recording_scan(s, *cuts):
        sizes.append(len(s))
        return scan(s, *cuts)

    monkeypatch.setattr(weaving, "_scan", recording_scan)
    return sizes


class TestCellPath:
    def test_long_shape_scans_few_operators(self, monkeypatch):
        # the shape of the exhaustive-long benchmark: 2,097,152 weavings
        rng = np.random.default_rng(67)
        base = rng.normal(size=(21, 2))
        fam = FrameFamily([Frame(base), Frame(base + 0.3 * rng.normal(size=(21, 2)))])
        sizes = scanned_operators(monkeypatch)
        rep = exhaustive_woven_check(fam, threads=2)
        assert 0 < sum(sizes) < 1000
        assert rep.partitions_examined == 2**21
        assert rep == flat_scan(fam)

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
            assert exhaustive_woven_check(fam) == flat_scan(fam)

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
            assert reports[-1] == flat_scan(fam)
        # identical frames: every weaving has bit-for-bit the same operator
        assert reports[1].witness_partition.assignment == (0,) * 7

    def test_d3_takes_the_flat_path(self, monkeypatch):
        calls = []
        monkeypatch.setattr(weaving, "_cell_candidates", lambda *args: calls.append(args))
        exhaustive_woven_check(counterexample_family())
        assert calls == []


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


def scanned_cuts(monkeypatch):
    """Record the cuts handed to the eigen kernel with every stack."""
    cuts = []
    scan = weaving._scan

    def recording_scan(s, *args):
        cuts.append(args[0] if args else None)
        return scan(s, *args)

    monkeypatch.setattr(weaving, "_scan", recording_scan)
    return cuts


class TestFlatScanCuts:
    @pytest.mark.parametrize("m, n, d", [(2, 10, 3), (2, 9, 6), (3, 6, 4), (2, 5, 7), (3, 4, 8)])
    def test_matches_a_full_eigensolve(self, monkeypatch, m, n, d):
        # 64 operators per chunk, so every family splits into several chunks;
        # (2, 5, 7) and (3, 4, 8) have n < d, so no weaving is a frame
        monkeypatch.setattr(weaving, "_MAX_CHUNK", 64)
        rng = np.random.default_rng(89 + 10 * n + d)
        for kind, v in flat_families(rng, m, n, d).items():
            fam = FrameFamily([Frame(x) for x in v])
            expected = full_flat_scan(fam)
            for t in (1, 2):
                assert exhaustive_woven_check(fam, threads=t) == expected, (kind, t)

    def test_subnormal_operators_are_all_solved(self, monkeypatch):
        # a largest trace below the smallest normal float leaves no room for
        # the slack, so the scan takes no cells or cuts and solves every
        # operator, without a warning
        monkeypatch.setattr(weaving, "_cell_candidates", refuse)
        monkeypatch.setattr(weaving, "_descent_cuts", refuse)
        cuts = scanned_cuts(monkeypatch)
        rng = np.random.default_rng(109)
        for scale, d in itertools.product((1e-155, 1e-160, 1e-162), (2, 3)):
            fam = FrameFamily([Frame(scale * rng.normal(size=(8, d))) for _ in range(2)])
            assert fam.trace < np.finfo(float).tiny
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert exhaustive_woven_check(fam) == full_flat_scan(fam)
        assert cuts and not any(cuts)

    @pytest.mark.parametrize("m, n, d, chunks", [(2, 7, 9, 2), (3, 4, 8, 3), (2, 8, 12, 4)])
    def test_n_below_d_takes_no_cuts(self, monkeypatch, m, n, d, chunks):
        # every operator is singular, so the scan solves them all, uncut, in
        # several chunks of at most 64
        monkeypatch.setattr(weaving, "_MAX_CHUNK", 64)
        monkeypatch.setattr(weaving, "_descent_cuts", refuse)
        cuts = scanned_cuts(monkeypatch)
        rng = np.random.default_rng(131 + 10 * n + d)
        for kind, v in flat_families(rng, m, n, d).items():
            fam = FrameFamily([Frame(x) for x in v])
            expected = full_flat_scan(fam)
            for t in (1, 2):
                assert exhaustive_woven_check(fam, threads=t) == expected, (kind, t)
        assert len(cuts) == 7 * 2 * chunks and not any(cuts)

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


class TestPositiveDefinite:
    """weaving._positive_definite against eigvalsh of scale S - shift I."""

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
                    ok = weaving._positive_definite(s, scale, shift)
                    tol = 1e-12 * np.max(np.abs(s))
                    assert np.all(low[ok] > -tol)
                    assert np.all(ok[low > tol])
                    assert 0 < ok.sum() < len(s)

    def test_singular_and_indefinite_fail(self):
        rng = np.random.default_rng(103)
        x = rng.normal(size=(50, 6, 4))
        singular = x @ x.transpose(0, 2, 1)
        trace = np.trace(singular, axis1=1, axis2=2).max()
        assert not weaving._positive_definite(singular, 1.0, 1e-9 * trace).any()
        assert not weaving._positive_definite(np.zeros((3, 4, 4)), 1.0, 0.0).any()
        indefinite = np.array([np.diag([1.0, -1.0, 2.0]), [[1.0, 2, 0], [2, 1, 0], [0, 0, 1]]])
        assert not weaving._positive_definite(indefinite, 1.0, 0.0).any()
        assert not weaving._positive_definite(-indefinite, -1.0, 0.0).any()

    def test_one_by_one(self):
        s = np.array([-1.0, 0.0, 5e-324, 1e-300, 3.0]).reshape(-1, 1, 1)
        for shift in (0.0, 1e-300, 2.0):
            expected = s[:, 0, 0] - shift > 0
            np.testing.assert_array_equal(weaving._positive_definite(s, 1.0, shift), expected)

    def test_overflow_and_nan_fail_quietly(self):
        # tiny pivots make the multipliers overflow to inf, and inf - inf is NaN
        s = np.array([
            [[1e-300, 1e200], [1e200, 1.0]],
            [[5e-324, 1e300], [1e300, 1e300]],
            [[1e300, 1e300], [1e300, 1e300]],
        ])
        with np.errstate(all="raise"):
            ok = weaving._positive_definite(s, 1.0, 0.0)
            assert not ok.any()
            assert not weaving._positive_definite(s, 1e10, -1.0).any()

    def test_reads_only_the_lower_triangle(self):
        rng = np.random.default_rng(107)
        x = rng.normal(size=(200, 5, 5))
        s = x @ x.transpose(0, 2, 1)
        shift = np.median(np.linalg.eigvalsh(s)[:, 0])
        poisoned = s.copy()
        poisoned[:, np.triu_indices(5, 1)[0], np.triu_indices(5, 1)[1]] = np.nan
        np.testing.assert_array_equal(
            weaving._positive_definite(poisoned, 1.0, shift), weaving._positive_definite(s, 1.0, shift)
        )


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
    assert rep == flat_scan(fam)
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

    def test_raw_form_never_computes_the_kernel(self, monkeypatch):
        def refused(m):
            raise AssertionError("null_space_basis called for a raw U")

        monkeypatch.setattr(weaving, "null_space_basis", refused)
        fam, p = example_family(), Partition((0, 0, 1), 2)
        # the selected vectors (1,0), (0,1), (1,-1) annihilate (1,-1,-1) and its multiples
        raw = np.array([[1.0, -1.0, -1.0], [0.0, 0.0, 0.0]])
        alt = weaving_alternate_dual(fam, p, raw)
        ok, _ = is_dual_pair(weave(fam, p), alt)
        assert ok
        canon = weaving_canonical_dual(fam, p)
        np.testing.assert_allclose(alt.vectors.T - canon.vectors.T, raw, atol=1e-12)

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

