"""Partition machinery, weaving assembly and bounds, the exact wovenness
oracle, and duals of weavings.

A partition of the index set {0..n-1} over m frames is an assignment row:
``assignment[j]`` names the frame contributing vector j.  Both scans hand
stacks of weaving frame operators to one eigen kernel.  The exhaustive scan
walks the tree of assignment prefixes from its root, in the family's own
index order, carrying each partial sum on to its successors one index at a
time, so the completions come out in lexicographic order; the sampled scan
sums its drawn rows column by column.  Either way each operator is summed
left to right over j, stacks hold at most ``_block`` operators, and the
witness is the smallest assignment among the minimizers, in any order of the
stacks.  Both scans solve the family's stack as ``linalg.unit_scaled``
scales it, and ``_report`` scales their bounds back.  At every level of the
walk a batched positive-definiteness test, whose shift holds the rank-one
envelopes M_j <= f_ij f_ij^T <= N_j of a node's free indices, rules out the
whole subtree below a node; only the completions left are solved.  The
shifts of every level are built once per scan, as one array table.
"""

from __future__ import annotations

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
    _bessel_sum,
    canonical_dual,
    frame_bounds,
    frame_operator,
    inverse_frame_operator,
    synthesis,
)
from .linalg import DEFAULT_TOL, check_tol, operator_norm, unit_scaled, zero_threshold

DEFAULT_CAP = 2**22
# Slack of the exhaustive scan's test shifts, relative to the largest trace.
_TIE_RTOL = 1e-9
_SIGNS = np.array([1.0, -1.0])  # of S in the exhaustive scan's tests S + L - t_lo and t_hi - S - U


@dataclass(frozen=True, eq=False)
class FrameFamily:
    """m frames sharing (dim, size) and their (m, n, d) ``stack`` of vectors.
    The largest trace of a weaving operator, sum_j max_i |f_ij|^2, must square
    to a normal float unless every vector is 0, since the eigensolvers square
    operator entries.  Families compare by identity, as frames do.
    """

    frames: tuple[Frame, ...]
    stack: np.ndarray = field(repr=False)

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
        if overflows or trace * trace < np.finfo(float).tiny and stack.any():
            raise InvalidArgumentError(
                f"frame vectors too {'large' if overflows else 'small'}: with a largest |entry| of "
                f"{np.abs(stack).max():.3e}, the largest weaving trace does not square to a normal float"
            )
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "stack", stack)

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
        # exact types, as ``io`` takes file entries: bool subclasses int, and
        # a float or a string must not round or parse to an index
        bad = [x for x in self.assignment if isinstance(x, bool) or not isinstance(x, (int, np.integer))]
        if bad:
            raise InvalidArgumentError(f"assignment entries must be integers, got {bad[0]!r}")
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
    return _bessel_sum(frame_bounds(fr) for fr in family.frames)


def _rank_one_table(stack: np.ndarray) -> np.ndarray:
    return np.einsum("ijd,ije->ijde", stack, stack)


def _block(d: int) -> int:
    """Operators per stack in either scan: 4,096, or fewer where their
    (K, d, d) float64 stack would outgrow 4 MiB."""
    return max(1, min(4096, 2**19 // d**2))


def _walk(plan, s: np.ndarray, ids: np.ndarray, j: int, fan=map):
    """(lo, smallest tied id, hi) of ``_scan`` over every completion below
    the nodes ``s`` that no test rules out, or (inf, inf, -inf) when none
    is left.  A node assigns indices 0..j-1: ``s`` is the (K, d, d) stack of
    the nodes' partial sums and ``ids`` their lexicographic positions.

    ``plan`` is (outer, frames, shifts, rows): the (m, n, d, d) rank-one
    table; for each index, the frames it expands into; the shifts of
    ``_level_tests``, or None for no tests; and ``_block``, the most nodes a
    stack holds.  One loop runs the levels: at each, the nodes take the
    two ``_positive_definite`` tests for their r = n - j free indices, and
    only those failing one go on, the completions (j = n) to ``_scan`` and
    the others to one more index.  When the children would not fit ``rows``,
    the parents go on in contiguous slices whose children do, each walked
    depth first; ``fan`` maps them, a pool's map at the first level that
    splits and map below it.  Children come in lexicographic order, so ids
    ascend in a stack, and each sum grows left to right, so the completions
    are the operators ``_row_operators`` builds.
    """
    outer, frames, shifts, rows = plan
    n = outer.shape[1]
    while True:
        if shifts is not None:
            undecided = ~_positive_definite(s, shifts[n - j])
            if not undecided.all():
                s, ids = s[undecided], ids[undecided]
        if not len(s):
            return np.inf, np.inf, -np.inf
        if j == n:
            lo, tied, hi = _scan(s)
            return lo, ids[tied[0]], hi
        step = max(1, rows // len(frames[j]))
        if len(s) > step or len(frames[j]) > rows:
            break
        s, ids = _expand(outer, s, ids, j, frames[j])
        j += 1

    def descend(part):
        a, b = part
        children = _expand(outer, s[a : a + step], ids[a : a + step], j, frames[j][b : b + rows])
        return _walk(plan, *children, j + 1)

    slices = [(a, b) for a in range(0, len(s), step) for b in range(0, len(frames[j]), rows)]
    return _fold(fan(descend, slices))


def _expand(outer: np.ndarray, s: np.ndarray, ids: np.ndarray, j: int, frames: np.ndarray):
    """Each partial sum of ``s`` plus the term at index j of each of
    ``frames``, in that order, with their lexicographic positions ``ids``."""
    d = outer.shape[2]
    s = (s[:, None] + outer[None, frames, j]).reshape(-1, d, d)
    return s, (ids[:, None] * len(outer) + frames).ravel()


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


def _scan_rows(outer: np.ndarray, digits: np.ndarray):
    """``_scan`` of a (K, n) array of assignment rows, with the smallest tied row."""
    lo, tied, hi = _scan(_row_operators(outer, digits))
    return lo, min(map(tuple, digits[tied].tolist())), hi


def _positive_definite(s: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Whether unpivoted elimination keeps every pivot of A = sign S - shift
    positive for both signs of ``_SIGNS`` and the symmetric (d, d) shift of
    the (2, d, d) ``shifts`` beside each, for each S of a (K, d, d) stack,
    on (d, d, 2, K) copies of the lower triangles; it stops once no S
    passes.  A diagonal entry only loses a_ik^2 / pivot >= 0, so rounding,
    overflow and NaN can only fail.  A pass gives Cholesky factors, so
    A + E > 0 for some ||E|| <= 2d(d + 1) eps ||A|| (Higham, ch. 10);
    eigvalsh errs by about d eps ||A||.  A node with r free indices takes
    the tests of ``_level_tests``, A = S + L_r - t_lo I and t_hi I - S - U_r,
    L_r (U_r) the sum of the lower (upper) envelopes of ``_envelopes`` over
    those r indices, of a ``unit_scaled`` stack: its largest weaving trace
    T = sum_j max_i |f_ij|^2 is at least 1/4, and t_lo and t_hi hold a slack
    of 1e-9 T.  The envelope at j has norm at most (|h_j| + sqrt(lambda_max
    K_j))^2 <= (m + 1) max_i |f_ij|^2 by Cauchy-Schwarz, as lambda_max K_j
    <= sum_i |f_ij - h_j|^2 = sum_i |f_ij|^2 - m |h_j|^2, so ||A|| <=
    (m + 2) T, and both errors are below 3e-16 d(d + 1)(m + 2) T.  Forming
    the envelopes, a node's j terms and a level's sum of r envelopes, one
    rounding per entry as forming S + L_r would add, err by about
    (m sqrt(d) + n (m + 1)) eps T at most, and a value below the normal
    floats by less than 2^-1074.  All of it stays under the slack whenever
    (d(d + 1) + n)(m + 2) < 10^6, and the scan runs tests only then.  So a
    pass puts the computed lambda_min (lambda_max) of every operator the
    tested matrix bounds strictly beyond t_lo (t_hi): no extreme weaving,
    nor any weaving tied with one, is ever ruled out.  An all-zero stack
    has no slack, but its tested matrices are 0 and fail.
    """
    k, d, _ = s.shape
    a, ok = np.empty((d, d, 2, k)), np.ones(k, dtype=bool)
    with np.errstate(all="ignore"):
        for i in range(d):
            np.multiply(s[:, i, None, : i + 1].T, _SIGNS[:, None], out=a[i, : i + 1])
            a[i, : i + 1] -= shifts[:, i, : i + 1].T[:, :, None]
        for j in range(d):
            ok &= np.all(a[j, j] > 0, axis=0)
            if not ok.any():
                break
            l = a[j + 1 :, j] / a[j, j]
            for i in range(j + 1, d):
                a[i, j + 1 : i + 1] -= l[i - j - 1] * a[j + 1 : i + 1, j]
    return ok


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


def _level_tests(stack: np.ndarray, outer: np.ndarray) -> np.ndarray:
    """``_walk``'s two tests for the nodes with r free indices, r = 0..n, of
    a ``unit_scaled`` stack and its rank-one table: the (n + 1, 2, d, d)
    shifts whose row r holds those of S + L_r - t_lo I and t_hi I - S - U_r.

    From each constant weaving, descent moves W to the pointwise argmin of
    <f_ij, x>^2 at the eigenvector x of lambda_min(S_W), which cannot raise
    lambda_min, until the rows stop improving; ascent does so for
    lambda_max.  Solving the 2m rows as the scan does gives t_lo =
    min lambda_min + slack, t_hi = max lambda_max - slack, slack = _TIE_RTOL T,
    T the stack's largest weaving trace.

    L_r (U_r) is the sum of the lower (upper) envelopes of ``_envelopes``
    over the last r indices, summed from the last index back.  A node P
    passing both tests has every completion W within S_P + L_r <= S_W <=
    S_P + U_r, so none is extreme or tied with one.
    """
    m, n, d = stack.shape
    lower = (np.arange(2 * m) < m)[:, None]
    rows, total = np.tile(np.arange(m)[:, None], (2, n)), np.inf
    while True:
        w, x = np.linalg.eigh(_row_operators(outer, rows))
        if not (value := np.where(lower[:, 0], w[:, 0], -w[:, -1]).sum()) < total:
            break
        total = value
        sq = np.einsum("ijd,kd->kji", stack, np.where(lower, x[:, :, 0], x[:, :, -1])) ** 2
        rows = np.where(lower, sq.argmin(axis=2), sq.argmax(axis=2))
    w = np.linalg.eigvalsh(_row_operators(outer, rows))
    slack = _TIE_RTOL * FrameFamily.largest_trace(stack)[0]
    cuts = np.array([w[:, 0].min() + slack, slack - w[:, -1].max()])
    sums = np.zeros((n + 1, 2, d, d))
    sums[1:] = np.cumsum(np.stack(_envelopes(stack), axis=1)[::-1], axis=0)
    return cuts[:, None, None] * np.eye(d) - _SIGNS[:, None, None] * sums


def _fold(results):
    """The smallest (lo, key) and the largest hi of (lo, key, hi) results,
    in any order.  A key, a lexicographic id in the walk and a row in the
    sampled scan, orders as its assignment, so the key is the witness."""
    results = list(results)
    return (*min(r[:2] for r in results), max(r[2] for r in results))


def _report(family, e, lo, row, hi, examined, mode, seed=None) -> WeavingReport:
    lower, upper = (max(float(np.ldexp(x, 2 * e)), 0.0) for x in (lo, hi))
    woven = lower > zero_threshold(upper)
    return WeavingReport(woven, lower, upper, Partition(row, family.m), examined, mode, seed)


def exhaustive_woven_check(
    family: FrameFamily, cap: int = DEFAULT_CAP, threads: int = 1
) -> WeavingReport:
    """Decide wovenness exactly, reporting what a scan of all m^n
    assignments finds.

    ``_walk`` walks the tree of assignment prefixes from its root, in the
    family's index order.  At every level it rules out the nodes whose
    envelopes of ``_envelopes`` keep every completion away from both
    extremes, and ``_scan`` solves the completions left, both on the stack
    that ``unit_scaled`` normalises.  Nothing is ruled out, and all are
    solved, when n < d (every operator singular) or when
    (d(d + 1) + n)(m + 2) >= 10^6 (rounding could outgrow the slack, see
    ``_positive_definite``).  At each index, a frame whose rank-one term is
    bit-identical to a smaller frame's is not expanded: every weaving
    through it has a smaller twin with a bit-identical operator, so
    identical and +-duplicate frames never build m^n nodes.  No completion
    that is extreme, or tied with one, is ever ruled out, so the report is
    that of solving all m^n: ``cap`` bounds m^n and ``partitions_examined``
    is m^n.  A stack holds at most ``_block`` nodes.  The slices of the
    first level that splits run on a pool of ``threads`` workers, and
    ``_fold`` does not depend on their order, so any thread count gives the
    same report.
    """
    if threads < 1:
        raise InvalidArgumentError("threads must be >= 1")
    m, n, d = family.stack.shape
    total = m**n
    if total > cap:
        raise CapExceededError(
            f"m^n = {total} exceeds cap {cap}; use sampled mode for an estimate"
        )
    stack, e = unit_scaled(family.stack)
    outer = _rank_one_table(stack)
    # bit patterns, so that 0.0 and -0.0 differ
    terms = outer.reshape(m, n, -1).view(np.int64)
    twin = [np.all(terms[:i] == terms[i], axis=2).any(axis=0) for i in range(m)]
    frames = [np.flatnonzero(~column) for column in np.array(twin).T]
    shifts = _level_tests(stack, outer) if n >= d and (d * (d + 1) + n) * (m + 2) < 10**6 else None
    # the root is the empty assignment; -0.0 is the identity of IEEE
    # addition, so its children's sums are the terms themselves
    root = np.full((1, d, d), -0.0)
    # lexicographic positions reach m^n - 1, beyond an int64 from 2^63 on
    ids = np.zeros(1, dtype=np.int64 if total < 2**63 else object)
    plan = outer, frames, shifts, _block(d)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        lo, ident, hi = _walk(plan, root, ids, 0, pool.map)
    row = tuple(int(ident) // m ** (n - 1 - j) % m for j in range(n))
    return _report(family, e, lo, row, hi, total, "exhaustive")


def sampled_woven_estimate(family: FrameFamily, samples: int, seed: int) -> WeavingReport:
    """Seeded random scan over assignment rows (PCG64, 64-bit, reproducible).

    The result is an estimate: the reported lower bound can only overestimate
    the true universal lower bound, since sampling may miss bad partitions.
    Rows are drawn and solved in blocks of ``_block``; the draws do not
    depend on the block size, and a tie on the minimum goes to the smallest
    row drawn.
    """
    if samples < 1:
        raise InvalidArgumentError("samples must be >= 1")
    if seed < 0:
        raise InvalidArgumentError("seed must be >= 0")
    m, n = family.m, family.size
    stack, e = unit_scaled(family.stack)
    outer = _rank_one_table(stack)
    rng = np.random.Generator(np.random.PCG64(seed))
    block = _block(family.dim)
    rows = (rng.integers(0, m, size=(min(block, samples - a), n), dtype=np.int64)
            for a in range(0, samples, block))
    return _report(family, e, *_fold(_scan_rows(outer, r) for r in rows), samples, "sampled", seed)


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
    orthonormal kernel basis of T_W, its right singular vectors past the first
    d (r = n - d), or a raw d x n matrix U whose rows are then verified to lie
    in the kernel.  Its entries must be finite.
    """
    check_tol(tol)
    w = weave(family, p)
    s_inv, bounds = inverse_frame_operator(w, "weaving is not a frame, duals undefined")
    t_w = synthesis(w)
    d, n = t_w.shape
    c = np.asarray(kernel_coefficients, dtype=float)
    if c.ndim != 2 or c.shape[0] != d:
        raise ShapeMismatchError(
            f"kernel coefficients need {d} rows (one per output coordinate), got shape {c.shape}"
        )
    # the frame rule puts sigma_min above 1e-5 sigma_max: rank d, so a kernel of dimension n - d < n
    r = n - d
    if c.shape[1] not in (r, n):
        raise ShapeMismatchError(
            f"kernel coefficients must have {r} (kernel) or {n} (raw) columns, got {c.shape[1]}"
        )
    if not np.all(np.isfinite(c)):
        raise InvalidArgumentError("kernel coefficients must be finite")
    u = c if c.shape[1] == n else c @ np.linalg.svd(t_w)[2][d:]
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
    check_tol(tol)
    s_w = weaving_operator(family, p)
    a = float(np.trace(s_w)) / family.dim
    if a > 0.0 and operator_norm(s_w - a * np.eye(family.dim)) <= tol * a:
        return a
    return None
