"""Partition machinery, weaving assembly and bounds, the exact wovenness
oracle, and duals of weavings.

A partition of the index set {0..n-1} over m frames is an assignment row:
``assignment[j]`` names the frame contributing vector j.  Both scans hand
stacks of weaving frame operators to one eigen kernel.  The exhaustive scan
splits the assignments by a fixed prefix and builds each chunk's operators by
expanding the prefix sum one index at a time, which yields the completions
in lexicographic order; the sampled scan sums its drawn rows column by
column.  Either way each operator is summed left to right over j, and the
witness is the smallest assignment among the minimizers.  The flat
exhaustive scan solves only operators that a batched test cannot rule out.

For d <= 2 the exhaustive check first lists candidate rows from the cells of
the arrangement of lines orthogonal to f_ij -+ f_i'j on the half-circle of
directions: every weaving attaining min lambda_min or max lambda_max is
pointwise optimal on a cell, and a cell's optimal frames tie for the optimum
at its ends.  When these rows are fewer than m^n, it scans only them, column
by column in sorted order; exhaustive_woven_check says what its report keeps.
"""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

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
# Slack of cell-path ties and flat-scan shifts, relative to the largest trace.
_TIE_RTOL = 1e-9


@dataclass(frozen=True, eq=False)
class FrameFamily:
    """m frames sharing (dim, size), their (m, n, d) ``stack`` of vectors, and
    the largest ``trace`` of a weaving operator, sum_j max_i |f_ij|^2, which
    must stay finite when squared, since the eigensolvers square operator entries.
    Families compare by identity, as frames do.
    """

    frames: tuple[Frame, ...]
    stack: np.ndarray = field(repr=False)
    trace: float = field(repr=False)

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
        stack = np.stack([fr.vectors for fr in frames])
        stack.setflags(write=False)
        trace, overflows = self.largest_trace(stack)
        if overflows:
            raise InvalidArgumentError(
                f"frame vectors too large: the largest weaving trace {trace:.3e} overflows when squared"
            )
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "trace", trace)

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


@dataclass(frozen=True)
class WeavingReport:
    woven: bool
    universal_lower: float
    universal_upper: float
    witness_partition: Partition
    partitions_examined: int
    mode: str  # "exhaustive" | "sampled"
    seed: int | None = None


def weave(family: FrameFamily, p: Partition) -> Frame:
    """The mixed frame whose j-th vector is f_{p[j], j}."""
    if p.num_frames != family.m or p.size != family.size:
        raise ShapeMismatchError(
            f"partition over {p.num_frames} frames / {p.size} indices does not match "
            f"family with m={family.m}, n={family.size}"
        )
    rows = family.stack[list(p.assignment), np.arange(family.size)]
    return Frame(rows)


def weaving_operator(family: FrameFamily, p: Partition) -> np.ndarray:
    """S_W = sum_j f_{p[j], j} f_{p[j], j}^T (= frame operator of the weaving)."""
    return frame_operator(weave(family, p))


def weaving_bounds(family: FrameFamily, p: Partition) -> Bounds:
    return frame_bounds(weave(family, p))


def bessel_upper_bound(family: FrameFamily) -> float:
    """sum_i B_i: an upper bound valid for every weaving of the family."""
    return float(sum(frame_bounds(fr).upper for fr in family.frames))


def _rank_one_table(family: FrameFamily) -> np.ndarray:
    return np.einsum("ijd,ije->ijde", family.stack, family.stack)


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


def _scan(s: np.ndarray, cuts=None):
    """Extrema of the spectra of a (K, d, d) stack of frame operators:
    (min lambda_min, indices attaining it, max lambda_max).  Only operators
    failing a ``_positive_definite`` test in ``cuts`` are solved (the first
    alone if none fails), as a pass rules out an extreme or a tie.
    """
    kept = np.arange(len(s))
    if cuts is not None:
        flagged = ~_positive_definite(s, *cuts[0])
        if not flagged.all():
            flagged |= ~_positive_definite(s, *cuts[1])
        kept = np.flatnonzero(flagged) if flagged.any() else kept[:1]
    w = np.linalg.eigvalsh(s if len(kept) == len(s) else s[kept])
    lo = float(w[:, 0].min())
    return lo, kept[w[:, 0] == lo], float(w[:, -1].max())


def _scan_rows(outer: np.ndarray, digits: np.ndarray):
    """``_scan``, uncut, of a (K, n) array of assignment rows, with the smallest tied row."""
    lo, tied, hi = _scan(_row_operators(outer, digits))
    tied = digits[tied]
    # np.lexsort sorts on its last key first, so column 0 goes last
    return lo, tuple(tied[np.lexsort(tied.T[::-1])[0]].tolist()), hi


def _positive_definite(s: np.ndarray, scale: float, shift: float) -> np.ndarray:
    """Whether unpivoted elimination keeps every pivot of A = scale S - shift I
    positive, for each S of a (K, d, d) stack, on a (d, d, K) copy of its lower
    triangle.  A diagonal entry only loses a_ik^2 / pivot >= 0, so rounding,
    overflow and NaN can only fail.  A pass gives Cholesky factors, so A + E
    > 0 for some ||E|| <= 2d(d + 1) eps ||A|| (Higham, ch. 10); eigvalsh errs
    by about d eps ||A||.  The scan has ||A|| <= 2, so for d < 10^5 both are
    far below its slack 1e-9 T, T in [1/2, 1), so a pass puts the computed
    lambda_min (lambda_max) strictly beyond the shift's attained eigenvalue.
    """
    k, d, _ = s.shape
    a, ok = np.empty((d, d, k)), np.ones(k, dtype=bool)
    with np.errstate(all="ignore"):
        for i in range(d):
            np.multiply(s[:, i, : i + 1].T, scale, out=a[i, : i + 1])
            a[i, i] -= shift
        for j in range(d):
            ok &= a[j, j] > 0
            if not ok.any():
                break
            l = a[j + 1 :, j] / a[j, j]
            for i in range(j + 1, d):
                a[i, j + 1 : i + 1] -= l[i - j - 1] * a[j + 1 : i + 1, j]
    return ok


def _descent_cuts(family: FrameFamily, outer: np.ndarray):
    """(scale, shift) of ``_scan``'s tests c S - c t_lo I and c t_hi I - c S,
    where c = 2^-e puts the largest weaving trace T, a normal float, in
    [1/2, 1).  From each constant weaving, descent moves W to the pointwise
    argmin of <f_ij, x>^2 at the eigenvector x of lambda_min(S_W), which
    cannot raise lambda_min, until the rows stop improving; ascent does so
    for lambda_max.  Solving the 2m rows as the scan does gives t_lo =
    min lambda_min + slack, t_hi = max lambda_max - slack, slack = _TIE_RTOL T.
    """
    lower = (np.arange(2 * family.m) < family.m)[:, None]
    rows, total = np.tile(np.arange(family.m)[:, None], (2, family.size)), np.inf
    while True:
        w, x = np.linalg.eigh(_row_operators(outer, rows))
        if not (value := np.where(lower[:, 0], w[:, 0], -w[:, -1]).sum()) < total:
            break
        total = value
        sq = np.einsum("ijd,kd->kji", family.stack, np.where(lower, x[:, :, 0], x[:, :, -1])) ** 2
        rows = np.where(lower, sq.argmin(axis=2), sq.argmax(axis=2))
    w = np.linalg.eigvalsh(_row_operators(outer, rows))
    slack, scale = _TIE_RTOL * family.trace, np.ldexp(1.0, -int(np.frexp(family.trace)[1]))
    return (scale, (w[:, 0].min() + slack) * scale), (-scale, (slack - w[:, -1].max()) * scale)


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


def _cell_candidates(family: FrameFamily, outer: np.ndarray, total: int) -> np.ndarray | None:
    """Sorted distinct assignment rows, for d <= 2, among which lie every
    exact minimiser of lambda_min and maximiser of lambda_max over all
    weavings, whose largest trace is a normal float; None when they would
    not be fewer than ``total`` = m^n, or when they or the squares below
    would not fit CHUNK_BUDGET.

    For a unit x, x^T S_W x = sum_j <f_{W(j)j}, x>^2, so a weaving attaining
    either extreme picks, at its extreme eigenvector x, a pointwise argmin
    (argmax) of <f_ij, x>^2 at every j.  The squares of frames i and i' at
    j tie only on the lines orthogonal to f_ij - f_i'j or f_ij + f_i'j, so
    between two neighbouring such lines (an arc of the half-circle) each
    argmin and argmax is fixed, and it ties for the optimum at both ends.
    The rows are the products, at every line and at one reference
    direction, of the frames within a slack of the optimum: _TIE_RTOL times
    the largest weaving trace, far above the rounding of the computed lines
    and squares.  Near ties can only add rows.  A frame whose rank-one term
    at j is bit-identical to a smaller frame's (f_ij = +-f_kj) gives
    bit-identical operators, so only the smaller frame, whose rows are
    smaller, is kept.
    """
    v = family.stack
    m, n, d = v.shape
    # each direction gives a row per extreme, and its squares, with their two
    # masked copies, must fit CHUNK_BUDGET too
    directions_bound = 1 + n * m * (m - 1) if d == 2 else 1
    if (
        2 * directions_bound >= total
        or directions_bound * n * m > CHUNK_BUDGET // 32
    ):
        return None
    terms = outer.reshape(m, n, d * d).view(np.int64)
    kept = np.ones((m, n), dtype=bool)
    for k in range(1, m):
        kept[k] = ~np.any(kept[:k] & np.all(terms[:k] == terms[k], axis=2), axis=0)
    directions = np.eye(d)[:1]
    if d == 2:
        i, k = np.triu_indices(m, 1)
        normals = np.concatenate([v[i] - v[k], v[i] + v[k]]).reshape(-1, 2)
        normals = normals[np.tile((kept[i] & kept[k]).ravel(), 2) & np.any(normals != 0, axis=1)]
        lines = np.stack([-normals[:, 1], normals[:, 0]], axis=1)
        directions = np.concatenate([directions, lines / np.hypot(*normals.T)[:, None]])
    # a power of two brings the largest entry into [1/2, 1), clear of underflow
    scale = np.frexp(np.max(np.abs(v)))[1]
    sq = np.einsum("ijd,bd->bji", np.ldexp(v, -scale), directions) ** 2
    slack = _TIE_RTOL * np.ldexp(family.trace, -2 * scale)
    low = np.where(kept.T, sq, np.inf)
    high = np.where(kept.T, sq, -np.inf)
    ties = np.concatenate([
        low <= low.min(axis=2, keepdims=True) + slack,
        high >= high.max(axis=2, keepdims=True) - slack,
    ])
    if sum(map(math.prod, ties.sum(axis=2).tolist())) > CHUNK_BUDGET // (8 * n):
        return None
    rows = np.unique(np.concatenate([_product_rows(t) for t in ties]), axis=0)
    return rows if len(rows) < total else None


def _product_rows(ties: np.ndarray) -> np.ndarray:
    """Every assignment row picking, at each index j, a frame marked in ``ties[j]``."""
    rows = ties.argmax(axis=1)[None]
    for j in np.flatnonzero(ties.sum(axis=1) > 1):
        choices = np.flatnonzero(ties[j])
        rows = np.repeat(rows, len(choices), axis=0)
        rows[:, j] = np.tile(choices, len(rows) // len(choices))
    return rows


def exhaustive_woven_check(
    family: FrameFamily, cap: int = DEFAULT_CAP, threads: int = 1
) -> WeavingReport:
    """Decide wovenness exactly, reporting what a scan of all m^n
    assignments finds.

    For d <= 2, whenever ``_cell_candidates`` lists fewer rows than m^n,
    only those are scanned, in chunks of sorted rows: they hold every exact
    extreme weaving, up to bit-identical operators, whose smallest row they
    keep, so the report is the full scan's unless rounding ranks a weaving
    outside them level with an extreme.  Otherwise, and for every d >= 3,
    each chunk is every completion of one fixed prefix, with as many free
    indices as fit a (K, d, d) operator stack within CHUNK_BUDGET, of which
    ``_scan`` solves only those that could be extreme, unless n < d (every
    operator singular) or the largest trace is subnormal (no room for slack,
    on either path): then all are solved.  Either way ``cap`` bounds m^n,
    chunks run on a pool of ``threads`` workers, and the min/max reduction
    runs in chunk order, so any thread count gives the same report.
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
    normal = family.trace >= np.finfo(float).tiny
    candidates = _cell_candidates(family, outer, total) if normal and family.dim <= 2 else None
    if candidates is not None:
        tasks = range(0, len(candidates), rows)

        def run(start):
            return _scan_rows(outer, candidates[start : start + rows])

    else:
        # a single frame has one weaving, so it has no free indices
        depth = 0
        while depth < n and 1 < m ** (depth + 1) <= rows:
            depth += 1
        tasks = list(itertools.product(range(m), repeat=n - depth))
        cuts = _descent_cuts(family, outer) if normal and n >= family.dim else None

        def run(prefix):
            lo, tied, hi = _scan(_completions(outer, prefix), cuts)
            suffix = np.unravel_index(tied[0], (m,) * depth)
            return lo, prefix + tuple(map(int, suffix)), hi

    with ThreadPoolExecutor(max_workers=threads) as pool:
        return _reduce_scan(family, pool.map(run, tasks), total, "exhaustive")


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
        return _scan_rows(outer, digits)

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
    c = np.asarray(kernel_coefficients, dtype=float)
    if c.ndim != 2 or c.shape[0] != d:
        raise ShapeMismatchError(
            f"kernel coefficients need {d} rows (one per output coordinate), got shape {c.shape}"
        )
    if c.shape[1] == n:
        # a frame weaving has a kernel of dimension n - d < n, so n columns are raw
        u = c
    else:
        kernel = null_space_basis(t_w)
        r = len(kernel)
        if c.shape[1] != r:
            raise ShapeMismatchError(
                f"kernel coefficients must have {r} (kernel) or {n} (raw) columns, got {c.shape[1]}"
            )
        u = c @ np.array(kernel).reshape(r, n) if r else np.zeros((d, n))
    # each test is relative to the size of its product: ||T_W|| times the
    # Frobenius norm of U, or of the dual, whose product with T_W is I
    norm_t = np.sqrt(bounds.upper)
    residual = float(np.max(np.abs(t_w @ u.T)))
    if residual > tol * norm_t * np.linalg.norm(u):
        raise ConstraintViolatedError(
            f"T_W U^T is not zero (max entry {residual:.3e}); rows of U must lie in ker(T_W)"
        )
    dual = s_inv @ t_w + u
    witness = t_w @ dual.T
    if np.max(np.abs(witness - np.eye(d))) > max(tol, DEFAULT_TOL) * norm_t * np.linalg.norm(dual):
        raise ConstraintViolatedError("constructed operator fails the duality identity")
    return Frame(dual.T)


def is_tight_weaving(family: FrameFamily, p: Partition, tol: float = DEFAULT_TOL):
    """The tightness constant A when A > 0 and ||S_W - A I|| <= tol * A, else None.

    A is the least-squares scalar fit trace(S_W)/d.  The residual is tested
    relative to A, so scaling every vector leaves the verdict unchanged.
    """
    s_w = weaving_operator(family, p)
    a = float(np.trace(s_w)) / family.dim
    if a > 0.0 and operator_norm(s_w - a * np.eye(family.dim)) <= tol * a:
        return a
    return None
