"""Partition machinery, weaving assembly and bounds, the exact wovenness
oracle, and duals of weavings.

A partition of the index set {0..n-1} over m frames is an assignment row:
``assignment[j]`` names the frame contributing vector j.  Both scans hand
stacks of weaving frame operators to one eigen kernel.  The exhaustive scan
splits the assignments by a fixed prefix and builds each chunk's operators by
expanding the prefix sum one index at a time, which yields the completions
in lexicographic order; the sampled scan sums its drawn rows column by
column.  Either way each operator is summed left to right over j, and the
witness is the smallest assignment among the minimizers.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    CapExceededError,
    ConstraintViolatedError,
    IndexOutOfRangeError,
    InvalidArgumentError,
    ShapeMismatchError,
)
from .frames import (
    Bounds,
    Frame,
    canonical_dual,
    frame_bounds,
    frame_operator,
    inverse_frame_operator,
    synthesis,
)
from .linalg import DEFAULT_TOL, null_space_basis, operator_norm, zero_threshold

DEFAULT_CAP = 2**22
# Bytes of the (K, d, d) float64 operator stack one scan chunk holds, per worker.
CHUNK_BUDGET = 16 * 2**20
_MAX_CHUNK = 16384


@dataclass(frozen=True)
class FrameFamily:
    """m frames sharing (dim, size).

    The largest trace of any weaving operator, sum_j max_i |f_ij|^2, must stay
    finite when squared, since the eigensolvers square operator entries.
    """

    frames: tuple[Frame, ...]

    def __init__(self, frames):
        frames = tuple(frames)
        if not frames:
            raise InvalidArgumentError("a frame family needs at least one frame")
        d, n = frames[0].dim, frames[0].size
        for fr in frames[1:]:
            if (fr.dim, fr.size) != (d, n):
                raise ShapeMismatchError(
                    f"all frames must share shape ({d}, {n}), got ({fr.dim}, {fr.size})"
                )
        object.__setattr__(self, "frames", frames)
        trace, overflows = self.largest_trace(self.stacked())
        if overflows:
            raise InvalidArgumentError(
                f"frame vectors too large: the largest weaving trace {trace:.3e} overflows when squared"
            )

    @staticmethod
    def largest_trace(stack: np.ndarray) -> tuple[float, bool]:
        """sum_j max_i |f_ij|^2 of an (m, n, d) stack, and whether it overflows when squared."""
        with np.errstate(over="ignore"):
            trace = np.max(np.sum(stack**2, axis=2), axis=0).sum()
            return trace, not np.isfinite(trace * trace)

    @property
    def m(self) -> int:
        return len(self.frames)

    @property
    def dim(self) -> int:
        return self.frames[0].dim

    @property
    def size(self) -> int:
        return self.frames[0].size

    def stacked(self) -> np.ndarray:
        """(m, n, d) array of all vectors."""
        return np.stack([fr.vectors for fr in self.frames])


@dataclass(frozen=True)
class Partition:
    """Assignment of each index j to a frame, plus the frame count m."""

    assignment: tuple[int, ...]
    num_frames: int

    def __post_init__(self):
        a = tuple(int(x) for x in self.assignment)
        if self.num_frames < 1:
            raise InvalidArgumentError("num_frames must be >= 1")
        if not a:
            raise InvalidArgumentError("empty assignment")
        if any(x < 0 or x >= self.num_frames for x in a):
            raise IndexOutOfRangeError(
                f"assignment entries must lie in [0, {self.num_frames})"
            )
        object.__setattr__(self, "assignment", a)

    @property
    def size(self) -> int:
        return len(self.assignment)

    def block(self, i: int) -> tuple[int, ...]:
        """sigma_i: the indices assigned to frame i."""
        if not 0 <= i < self.num_frames:
            raise IndexOutOfRangeError(f"frame index {i} out of range [0, {self.num_frames})")
        return tuple(j for j, x in enumerate(self.assignment) if x == i)


@dataclass(frozen=True)
class CoefficientVector:
    """Values indexed by (frame i, vector j), supported on j in sigma_i."""

    values: np.ndarray
    partition: Partition

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        m, n = self.partition.num_frames, self.partition.size
        if v.shape != (m, n):
            raise ShapeMismatchError(f"expected values of shape ({m}, {n}), got {v.shape}")
        mask = np.zeros((m, n), dtype=bool)
        mask[self.partition.assignment, np.arange(n)] = True
        v = np.where(mask, v, 0.0)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def norm(self) -> float:
        return float(np.sqrt(np.sum(self.values**2)))


@dataclass(frozen=True)
class WeavingReport:
    woven: bool
    universal_lower: float
    universal_upper: float
    witness_partition: Partition
    partitions_examined: int
    mode: str  # "exhaustive" | "sampled"
    seed: int | None = None


def _check_partition(family: FrameFamily, p: Partition):
    if p.num_frames != family.m or p.size != family.size:
        raise ShapeMismatchError(
            f"partition over {p.num_frames} frames / {p.size} indices does not match "
            f"family with m={family.m}, n={family.size}"
        )


def weave(family: FrameFamily, p: Partition) -> Frame:
    """The mixed frame whose j-th vector is f_{p[j], j}."""
    _check_partition(family, p)
    rows = family.stacked()[list(p.assignment), np.arange(family.size)]
    return Frame(rows)


def selection_matrix(p: Partition, i: int) -> np.ndarray:
    """n x n diagonal 0/1 matrix selecting sigma_i."""
    if not 0 <= i < p.num_frames:
        raise IndexOutOfRangeError(f"frame index {i} out of range [0, {p.num_frames})")
    diag = np.array([1.0 if x == i else 0.0 for x in p.assignment])
    return np.diag(diag)


def weaving_analyze(family: FrameFamily, p: Partition, f) -> CoefficientVector:
    """Analysis coefficients <f, f_ij> on the support of the partition."""
    _check_partition(family, p)
    vec = np.asarray(f, dtype=float)
    if vec.shape != (family.dim,):
        raise ShapeMismatchError(f"vector of shape {vec.shape} does not match dim {family.dim}")
    return CoefficientVector(family.stacked() @ vec, p)


def weaving_operator(family: FrameFamily, p: Partition) -> np.ndarray:
    """S_W = sum_j f_{p[j], j} f_{p[j], j}^T (= frame operator of the weaving)."""
    return frame_operator(weave(family, p))


def weaving_bounds(family: FrameFamily, p: Partition) -> Bounds:
    return frame_bounds(weave(family, p))


def bessel_upper_bound(family: FrameFamily) -> float:
    """sum_i B_i: an upper bound valid for every weaving of the family."""
    return float(sum(frame_bounds(fr).upper for fr in family.frames))


def _rank_one_table(family: FrameFamily) -> np.ndarray:
    v = family.stacked()
    return np.einsum("ijd,ije->ijde", v, v)


def _chunk_rows(family: FrameFamily) -> int:
    """Operators per scan chunk, so that its (K, d, d) stack fits CHUNK_BUDGET."""
    return min(_MAX_CHUNK, max(1, CHUNK_BUDGET // (family.dim**2 * 8)))


def _completions(outer: np.ndarray, prefix: tuple[int, ...]) -> np.ndarray:
    """Frame operators of every completion of an assignment prefix.

    ``outer`` is the (m, n, d, d) rank-one table.  The prefix's terms are
    summed left to right, then each free index expands every operator into
    its m successors, so the m^(n - len(prefix)) operators come out in
    lexicographic order of their assignments.
    """
    n, d = outer.shape[1:3]
    s = _row_operators(outer, np.array([prefix])) if prefix else outer[:, 0]
    for j in range(max(len(prefix), 1), n):
        s = (s[:, None] + outer[None, :, j]).reshape(-1, d, d)
    return s


def _row_operators(outer: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Frame operators of a (K, n) array of assignment rows, summed column by column."""
    s = outer[digits[:, 0], 0]
    for j in range(1, digits.shape[1]):
        s += outer[digits[:, j], j]
    return s


def _scan(s: np.ndarray):
    """Extrema of the spectra of a (K, d, d) stack of frame operators.

    Returns (min lambda_min, indices attaining it, max lambda_max).
    """
    w = np.linalg.eigvalsh(s)
    lo = float(w[:, 0].min())
    return lo, np.flatnonzero(w[:, 0] == lo), float(w[:, -1].max())


def _reduce_scan(family, chunks, examined, mode, seed=None) -> WeavingReport:
    """Fold (lo, row, hi) chunk results in chunk order; the first minimum wins."""
    best_lo, best_row, best_hi = np.inf, None, -np.inf
    for lo, row, hi in chunks:
        if lo < best_lo:
            best_lo, best_row = lo, row
        best_hi = max(best_hi, hi)
    lower = max(best_lo, 0.0)
    upper = max(best_hi, 0.0)
    woven = lower > zero_threshold(upper)
    return WeavingReport(woven, lower, upper, Partition(best_row, family.m), examined, mode, seed)


def exhaustive_woven_check(
    family: FrameFamily, cap: int = DEFAULT_CAP, threads: int = 1
) -> WeavingReport:
    """Decide wovenness exactly by scanning all m^n assignments.

    Each chunk is every completion of one fixed prefix, with as many free
    indices as fit a (K, d, d) operator stack within CHUNK_BUDGET.  Chunks
    run on a pool of ``threads`` workers, and the min/max reduction runs in
    chunk order, so the report is identical for any thread count.
    """
    if threads < 1:
        raise InvalidArgumentError("threads must be >= 1")
    m, n = family.m, family.size
    total = m**n
    if total > cap:
        raise CapExceededError(
            f"m^n = {total} exceeds cap {cap}; use sampled mode for an estimate"
        )
    outer = _rank_one_table(family)
    rows = _chunk_rows(family)
    depth = 0
    while depth < n and m ** (depth + 1) <= rows:
        depth += 1
    prefixes = list(itertools.product(range(m), repeat=n - depth))

    def run(prefix):
        lo, tied, hi = _scan(_completions(outer, prefix))
        suffix = np.unravel_index(tied[0], (m,) * depth)
        return lo, prefix + tuple(map(int, suffix)), hi

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return _reduce_scan(family, pool.map(run, prefixes), total, "exhaustive")


def sampled_woven_estimate(family: FrameFamily, samples: int, seed: int) -> WeavingReport:
    """Seeded random scan over assignment rows (PCG64, 64-bit, reproducible).

    The result is an estimate: the reported lower bound can only overestimate
    the true universal lower bound, since sampling may miss bad partitions.
    Rows are drawn in chunks; a tie on the minimum goes to the smallest row
    of the first chunk that attains it.
    """
    if samples < 1:
        raise InvalidArgumentError("samples must be >= 1")
    m, n = family.m, family.size
    outer = _rank_one_table(family)
    rng = np.random.Generator(np.random.PCG64(seed))
    rows = _chunk_rows(family)

    def run(drawn):
        digits = rng.integers(0, m, size=(min(rows, samples - drawn), n), dtype=np.int64)
        lo, tied, hi = _scan(_row_operators(outer, digits))
        tied = digits[tied]
        # np.lexsort sorts on its last key first, so column 0 goes last
        return lo, tuple(tied[np.lexsort(tied.T[::-1])[0]].tolist()), hi

    return _reduce_scan(family, map(run, range(0, samples, rows)), samples, "sampled", seed)


def weaving_canonical_dual(family: FrameFamily, p: Partition) -> Frame:
    """The frame {S_W^{-1} w_j} for the weaving W of the given partition."""
    return canonical_dual(weave(family, p))


def weaving_alternate_dual(
    family: FrameFamily,
    p: Partition,
    kernel_coefficients,
    tol: float = DEFAULT_TOL,
) -> Frame:
    """Dual of the weaving of the form S_W^{-1} T_W + U with T_W U^T = 0.

    ``kernel_coefficients`` is either a d x r matrix of combinations of the
    orthonormal kernel basis of T_W (r = kernel dimension), or a raw d x n
    matrix U whose rows are then verified to lie in the kernel.
    """
    w = weave(family, p)
    s_inv, bounds = inverse_frame_operator(w, "weaving is not a frame, duals undefined")
    t_w = synthesis(w)
    d, n = t_w.shape
    kernel = null_space_basis(t_w)
    r = len(kernel)
    c = np.asarray(kernel_coefficients, dtype=float)
    if c.ndim != 2 or c.shape[0] != d:
        raise ShapeMismatchError(
            f"kernel coefficients need {d} rows (one per output coordinate), got shape {c.shape}"
        )
    if c.shape[1] == r and r != n:
        u = c @ np.array(kernel).reshape(r, n) if r else np.zeros((d, n))
    elif c.shape[1] == n:
        u = c
    else:
        raise ShapeMismatchError(
            f"kernel coefficients must have {r} (kernel) or {n} (raw) columns, got {c.shape[1]}"
        )
    scale = 1.0 + np.sqrt(bounds.upper)  # 1 + ||T_W||
    residual = float(np.max(np.abs(t_w @ u.T))) if u.size else 0.0
    if residual > tol * scale:
        raise ConstraintViolatedError(
            f"T_W U^T is not zero (max entry {residual:.3e}); rows of U must lie in ker(T_W)"
        )
    dual = s_inv @ t_w + u
    witness = t_w @ dual.T
    if np.max(np.abs(witness - np.eye(d))) > max(tol, DEFAULT_TOL) * scale:
        raise ConstraintViolatedError("constructed operator fails the duality identity")
    return Frame(dual.T)


def is_tight_weaving(family: FrameFamily, p: Partition, tol: float = DEFAULT_TOL):
    """The tightness constant A when S_W = A I within tol, else None.

    A is the least-squares scalar fit trace(S_W)/d before the residual test.
    """
    s_w = weaving_operator(family, p)
    a = float(np.trace(s_w)) / family.dim
    if operator_norm(s_w - a * np.eye(family.dim)) <= tol:
        return a
    return None
