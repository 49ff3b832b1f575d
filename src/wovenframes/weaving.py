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
exhaustive scan walks each chunk's prefix tree in one loop of levels, the
last being the completions: at each, a batched positive-definiteness test,
whose shift holds the rank-one envelopes M_j <= f_ij f_ij^T <= N_j of a
node's free indices, rules out the whole subtree below a node; only the
operators left are solved.

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
# Free indices left at the subtree nodes the flat scan tests, outermost first.
_LEVELS = (4, 2)


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


def _walk(outer: np.ndarray, prefix: tuple[int, ...], levels):
    """``_scan`` of every completion of an assignment prefix that no level
    rules out: (lo, the first tied completion, hi), or (inf, None, -inf)
    when every one is ruled out.

    ``outer`` is the (m, n, d, d) rank-one table.  The prefix's terms are
    summed left to right, then each free index expands every partial sum
    into its m successors, so the completions come out in lexicographic
    order of their assignments, summed as ``_row_operators`` sums them.
    One loop runs every positive-definiteness test: at each level r of
    ``levels`` (``_subtree_tails``), the sums of the nodes with r free
    indices left take ``_undecided``'s tests, and only those failing one
    are expanded, down to the completions themselves at r = 0.
    """
    n = outer.shape[1]
    j = max(len(prefix), 1)
    s = _row_operators(outer, np.array([prefix])) if prefix else outer[:, 0]
    ids = np.arange(len(s))
    for r, tests in levels.items():
        s, ids = _expand(outer, s, ids, j, n - r)
        j = n - r
        undecided = _undecided(s, tests)
        s, ids = s[undecided], ids[undecided]
    s, ids = _expand(outer, s, ids, j, n)
    if not len(s):
        return np.inf, None, -np.inf
    lo, tied, hi = _scan(s)
    suffix = np.unravel_index(ids[tied[0]], (len(outer),) * (n - len(prefix)))
    return lo, prefix + tuple(map(int, suffix)), hi


def _expand(outer: np.ndarray, s: np.ndarray, ids: np.ndarray, start: int, stop: int):
    """The partial sums ``s`` carried on over indices start..stop-1, each
    into its m successors, with their lexicographic positions ``ids``."""
    m, _, d, _ = outer.shape
    for j in range(start, stop):
        s = (s[:, None] + outer[None, :, j]).reshape(-1, d, d)
        ids = (ids[:, None] * m + np.arange(m)).ravel()
    return s, ids


def _row_operators(outer: np.ndarray, digits: np.ndarray) -> np.ndarray:
    """Frame operators of a (K, n) array of assignment rows, summed column by column."""
    s = outer[digits[:, 0], 0]
    for j in range(1, digits.shape[1]):
        s += outer[digits[:, j], j]
    return s


def _scan(s: np.ndarray):
    """Extrema of the spectra of a (K, d, d) stack of frame operators:
    (min lambda_min, indices attaining it, max lambda_max)."""
    w = np.linalg.eigvalsh(s)
    lo = float(w[:, 0].min())
    return lo, np.flatnonzero(w[:, 0] == lo), float(w[:, -1].max())


def _undecided(s: np.ndarray, tests) -> np.ndarray:
    """Which operators fail the ``_positive_definite`` test tests[0] or
    tests[1], the second run only when some pass the first."""
    flagged = ~_positive_definite(s, *tests[0])
    if not flagged.all():
        flagged |= ~_positive_definite(s, *tests[1])
    return flagged


def _scan_rows(outer: np.ndarray, digits: np.ndarray):
    """``_scan`` of a (K, n) array of assignment rows, with the smallest tied row."""
    lo, tied, hi = _scan(_row_operators(outer, digits))
    tied = digits[tied]
    # np.lexsort sorts on its last key first, so column 0 goes last
    return lo, tuple(tied[np.lexsort(tied.T[::-1])[0]].tolist()), hi


def _positive_definite(s: np.ndarray, scale: float, shift: np.ndarray) -> np.ndarray:
    """Whether unpivoted elimination keeps every pivot of A = scale S - shift
    positive, for each S of a (K, d, d) stack and a symmetric (d, d) shift,
    on (d, d, K) copies of their lower triangles.  A diagonal entry only
    loses a_ik^2 / pivot >= 0, so rounding, overflow and NaN can only fail.
    A pass gives Cholesky factors, so A + E > 0 for some ||E|| <= 2d(d + 1)
    eps ||A|| (Higham, ch. 10); eigvalsh errs by about d eps ||A||.  At a
    level r of ``_subtree_tails``, A = c (S + L_r) - c t_lo I or
    c t_hi I - c (S + U_r), L_r (U_r) a sum of r lower (upper) envelopes
    of ``_envelopes``, where c puts cT, T the largest weaving trace, in
    [1/2, 1) and the slack in t_lo and t_hi is 1e-9 cT >= 5e-10.  A
    completion (r = 0) has ||A|| <= 2.  A node adds c times at most 4
    envelopes, each of norm at most (|h_j| + sqrt(lambda_max K_j))^2 <=
    (m + 1) max_i |f_ij|^2 by Cauchy-Schwarz, as lambda_max K_j <=
    sum_i |f_ij - h_j|^2 = sum_i |f_ij|^2 - m |h_j|^2; so ||A|| <= m + 2.
    Both errors are then below 3e-16 d(d + 1)(m + 2), under the slack
    whenever d(d + 1)(m + 2) < 10^6.  That holds for every scan that can
    finish: nodes need m^2 <= _MAX_CHUNK, so m <= 128, and tests need
    n >= d, so the scan builds m^n >= m^d >= 2^500 operators otherwise.
    Forming the envelopes, summing a node's n + 4 terms, and forming each
    level's shift once, one rounding per entry as forming S + L_r would
    add, err by O((m sqrt(d) + n) eps T), far below it too.  So a pass puts
    the computed lambda_min (lambda_max) of every operator the tested
    matrix bounds strictly beyond t_lo (t_hi): no extreme weaving, nor any
    weaving tied with one, is ever ruled out.
    """
    k, d, _ = s.shape
    a, ok = np.empty((d, d, k)), np.ones(k, dtype=bool)
    with np.errstate(all="ignore"):
        for i in range(d):
            np.multiply(s[:, i, : i + 1].T, scale, out=a[i, : i + 1])
            a[i, : i + 1] -= shift[i, : i + 1, None]
        for j in range(d):
            ok &= a[j, j] > 0
            if not ok.any():
                break
            l = a[j + 1 :, j] / a[j, j]
            for i in range(j + 1, d):
                a[i, j + 1 : i + 1] -= l[i - j - 1] * a[j + 1 : i + 1, j]
    return ok


def _descent_cuts(family: FrameFamily, outer: np.ndarray):
    """(scale, shift) of the tests c S - c t_lo I and c t_hi I - c S, for
    ``_subtree_tails``, where c = 2^-e puts the largest weaving trace T, a
    normal float, in [1/2, 1).  From each constant weaving, descent moves W to the pointwise
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


def _envelopes(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, d, d) stacks M and N with M_j <= f_ij f_ij^T <= N_j for every
    frame i of an (m, n, d) stack.

    Flip each f_ij to the sign nearer f_0j, which leaves f f^T as it is.
    Let h_j be the mean of the flipped vectors, k_ij = f_ij - h_j, K_j the
    sum of k k^T over the deviations k_ij distinct up to sign (for m = 2,
    k_1j = -k_0j and K_j = k_0j k_0j^T), and t > 0.  Then
        f f^T = h h^T + k k^T +- (h k^T + k h^T),
    and (sqrt(t) h -+ k / sqrt(t))(...)^T >= 0 gives
        +-(h k^T + k h^T) <= t h h^T + k k^T / t,
    while k k^T <= K_j, so
        N_j = (1 + t) h h^T + (1 + 1/t) K_j,
        M_j = (1 - t) h h^T - max(1/t - 1, 0) K_j
    (for t >= 1 the k k^T term of the lower side is >= 0 and is dropped).
    Any t > 0 is valid, so the rounding of t is harmless; t_j =
    sqrt(lambda_max K_j) / |h_j| balances the two terms.  With a = |h_j|,
    b = sqrt(lambda_max K_j), g = h h^T / a and G = K_j / b, that is
    N_j = (a + b)(g + G) and M_j = (a - b) g - max(a - b, 0) G, which is
    h h^T for both when K_j = 0 (identical and negated vectors), and
    M_j = 0, N_j = K_j when h_j = 0.  The deviations are computed as
    sum_i' (f_ij - f_i'j) / m, so that equal vectors give bit-equal ones.
    """
    m = len(stack)
    flip = np.einsum("ijd,jd->ij", stack, stack[0]) < 0
    f = np.where(flip[:, :, None], -stack, stack)
    h = f.mean(axis=0)
    k = sum(f - f[i] for i in range(m)) / m
    kept = np.ones(k.shape[:2], dtype=bool)
    for i in range(1, m):
        same = np.all(k[:i] == k[i], axis=2) | np.all(k[:i] == -k[i], axis=2)
        kept[i] = ~np.any(kept[:i] & same, axis=0)
    kk = np.einsum("ij,ijd,ije->jde", kept, k, k)
    a = np.linalg.norm(h, axis=1)
    b = np.sqrt(np.maximum(np.linalg.eigvalsh(kk)[:, -1], 0.0))
    u = h / np.where(a > 0, a, 1.0)[:, None]
    g = a[:, None, None] * np.einsum("jd,je->jde", u, u)
    big = kk / np.where(b > 0, b, 1.0)[:, None, None]
    lower = (a - b)[:, None, None] * g - np.maximum(a - b, 0.0)[:, None, None] * big
    upper = (a + b)[:, None, None] * (g + big)
    return lower, upper


def _subtree_tails(stack: np.ndarray, free: int, cuts) -> dict:
    """``_walk``'s levels {r: tests}, for each r <= ``free`` of _LEVELS,
    outermost first, then r = 0.  Each (scale, shift) of ``cuts`` becomes
    (scale, shift I - scale E), E the sum of the lower (upper) envelopes of
    ``_envelopes`` over the last r indices for the lower (upper) test, 0 at
    r = 0.  A node P passing both tests has every completion W within
    S_P + L_r <= S_W <= S_P + U_r, so none is extreme or tied with one."""
    sums = {0: (0.0, 0.0)}
    if levels := [r for r in _LEVELS if r <= free]:
        lower, upper = _envelopes(stack)
        sums = {r: (lower[-r:].sum(axis=0), upper[-r:].sum(axis=0)) for r in levels} | sums
    eye = np.eye(stack.shape[2])
    return {r: tuple((c, t * eye - c * e) for (c, t), e in zip(cuts, es)) for r, es in sums.items()}


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
    rows = np.concatenate([_product_rows(t) for t in ties])
    # sorted distinct rows; np.unique(axis=0) would import numpy.ma
    rows = rows[np.lexsort(rows.T[::-1])]
    rows = rows[np.concatenate([[True], np.any(rows[1:] != rows[:-1], axis=1)])]
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
    indices as fit a (K, d, d) operator stack within CHUNK_BUDGET.
    ``_walk`` rules out the subtrees of the prefix, 4 and then 2 indices
    from the end, whose envelopes of ``_envelopes`` keep every completion
    away from both extremes, then the completions left that cannot be
    extreme, and ``_scan`` solves the rest, unless n < d (every operator
    singular) or the largest trace is subnormal (no room for slack, on
    either path): then nothing is ruled out and all are solved.  No
    completion that is extreme, or tied with one, is ever ruled out, so the
    report is that of solving all m^n.  Either way ``cap`` bounds m^n, ``partitions_examined``
    is m^n, chunks run on a pool of ``threads`` workers, and the min/max
    reduction runs in chunk order, so any thread count gives the same report.
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
        levels = {}
        if normal and n >= family.dim:
            # an empty prefix starts from the m choices at index 0
            levels = _subtree_tails(family.stack, min(depth, n - 1), _descent_cuts(family, outer))

        def run(prefix):
            return _walk(outer, prefix, levels)

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
