"""Shared helpers: independent brute-force oracles and random instance
generators.

The brute-force oracle here deliberately avoids the package's own linear
algebra: weavings are assembled by direct indexing and their spectra are the
squared singular values of each weaving's synthesis matrix (LAPACK gesdd), so
it cross-checks the scan's eigenvalues of stacked frame operators (LAPACK
syevd) rather than mirroring them.
"""

from __future__ import annotations

import contextlib
import io
import itertools
from dataclasses import dataclass

import numpy as np

from wovenframes import (
    Frame,
    FrameFamily,
    Partition,
    WeavingReport,
    exhaustive_woven_check,
    frame_bounds,
)
from wovenframes.linalg import zero_threshold


def brute_force_woven(vector_stacks):
    """(min lower, max upper, argmin assignment) over all weavings.

    ``vector_stacks`` is a list of (n, d) arrays, one per frame.
    """
    m = len(vector_stacks)
    n = vector_stacks[0].shape[0]
    lo, hi, witness = np.inf, -np.inf, None
    for assign in itertools.product(range(m), repeat=n):
        w = np.array([vector_stacks[i][j] for j, i in enumerate(assign)])
        sv = np.linalg.svd(w, compute_uv=False)
        # n < d vectors cannot span R^d: lambda_min is exactly 0
        low = sv[-1] ** 2 if w.shape[0] >= w.shape[1] else 0.0
        if low < lo:
            lo, witness = low, assign
        hi = max(hi, sv[0] ** 2)
    return float(lo), float(hi), witness


def full_flat_scan(family):
    """The report of a flat scan that solves all m^n weaving operators with
    one eigvalsh call: rows in lexicographic order, each operator summed
    left to right over j as the package's scans sum it, and the first row
    attaining min lambda_min as the witness."""
    v = family.stack
    m, n, _ = v.shape
    # einsum sums each product onto +0, so a -0 product enters as +0 just as
    # in the package's table; eigvalsh can tell the two zeros apart
    outer = np.einsum("ijd,ije->ijde", v, v)
    rows = np.array(list(itertools.product(range(m), repeat=n)))
    s = outer[rows[:, 0], 0]
    for j in range(1, n):
        s += outer[rows[:, j], j]
    w = np.linalg.eigvalsh(s)
    lower, upper = max(float(w[:, 0].min()), 0.0), max(float(w[:, -1].max()), 0.0)
    witness = Partition(tuple(rows[np.argmin(w[:, 0])].tolist()), m)
    return WeavingReport(lower > zero_threshold(upper), lower, upper, witness, m**n, "exhaustive")


def _det(rows):
    """Determinant of a square integer matrix by Bareiss elimination, exact in
    Python ints (every division is exact)."""
    a = [list(r) for r in rows]
    k, sign, prev = len(a), 1, 1
    for p in range(k - 1):
        if a[p][p] == 0:
            swap = next((i for i in range(p + 1, k) if a[i][p] != 0), None)
            if swap is None:
                return 0
            a[p], a[swap], sign = a[swap], a[p], -sign
        for i in range(p + 1, k):
            for j in range(p + 1, k):
                a[i][j] = (a[i][j] * a[p][p] - a[i][p] * a[p][j]) // prev
        prev = a[p][p]
    return sign * a[-1][-1] if k else 1


def integer_woven(stack):
    """Exact wovenness of an (m, n, d) family of integer vectors, with no
    eigensolver and no rounding.

    In finite dimensions a family is woven exactly when every weaving spans
    R^d.  A weaving that does not span lies in a hyperplane x^perp, and a
    basis of its span extends by pool vectors to d - 1 independent ones, so
    x can be taken as their normal, whose entries are the signed minors.  So
    the family is not woven exactly when the pool has rank below d - 1, or
    some such normal x has <f_ij, x> == 0 for some frame i at every index j.
    """
    v = [[[int(c) for c in f] for f in frame] for frame in np.asarray(stack)]
    m, n, d = len(v), len(v[0]), len(v[0][0])
    pool = sorted({tuple(f) for frame in v for f in frame})
    spans_a_hyperplane = False
    for rows in itertools.combinations(pool, d - 1):
        x = [(-1) ** k * _det([r[:k] + r[k + 1 :] for r in rows]) for k in range(d)]
        if not any(x):
            continue
        spans_a_hyperplane = True
        if all(any(sum(a * b for a, b in zip(v[i][j], x)) == 0 for i in range(m)) for j in range(n)):
            return False
    return spans_a_hyperplane


def family_to_dict(family):
    """The frame-file document of a family."""
    return {
        "dim": family.dim,
        "frames": [{"label": fr.label, "vectors": fr.vectors.tolist()} for fr in family.frames],
    }


def gather_operators(outer, digits):
    """Per-row reference for the scans' operator stacks: gathers the (K, n, d, d)
    rank-one terms of each assignment row and sums them over j."""
    return outer[digits, np.arange(digits.shape[1])].sum(axis=1)


def matrix_with_singular_values(rng, shape, sigma):
    """Q1 diag(sigma) Q2^T, with Q1 and Q2 the orthonormal QR factors of
    normal matrices: a matrix whose singular values are known without an SVD."""
    k = len(sigma)
    q1 = np.linalg.qr(rng.normal(size=(shape[0], k)))[0]
    q2 = np.linalg.qr(rng.normal(size=(shape[1], k)))[0]
    return (q1 * np.asarray(sigma)) @ q2.T


def clamped_shift_frame(dim, offsets, scale=1.0, count=None):
    """Vectors u_j = sum_o e_{j+o}, truncated to the first ``dim`` coordinates."""
    n = count or dim
    v = np.zeros((n, dim))
    for j in range(n):
        for o in offsets:
            if j + o < dim:
                v[j, j + o] = 1.0
    return Frame(scale * v)


def example_pair():
    """The 2-d pair F = {e1, e2, e1+e2-ish} used throughout: F and its
    companion with vectors (1,0), (1,1), (1,-1)."""
    f = Frame(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]), label="F")
    g = Frame(np.array([[1.0, 0.0], [1.0, 1.0], [1.0, -1.0]]), label="G")
    return f, g


def counterexample_family():
    """Two frames of R^3 with a singular weaving at assignment (0, 0, 1)."""
    f = Frame(np.array([[1.0, 0, 0], [0, 1, 0], [1, 0, 1]]), label="F")
    g = Frame(np.array([[1.0, 0, 0], [0, 0, 1], [1, 1, 0]]), label="G")
    return FrameFamily([f, g])


def random_frame(rng, n, d, min_lower=0.2):
    """A random spanning frame with a comfortable lower bound."""
    while True:
        v = rng.normal(size=(n, d))
        fr = Frame(v)
        if frame_bounds(fr).lower >= min_lower:
            return fr


def random_woven_family(rng, m, n, d, eps=5e-2, min_lower=0.3):
    """m frames clustered around a random base frame; verified woven."""
    while True:
        base = random_frame(rng, n, d, min_lower)
        frames = [base] + [
            Frame(base.vectors + eps * rng.normal(size=(n, d))) for _ in range(m - 1)
        ]
        family = FrameFamily(frames)
        report = exhaustive_woven_check(family)
        if report.woven:
            return family, report


@dataclass(frozen=True)
class CliResult:
    """What one in-process CLI call wrote, and its exit code; ``output`` is
    stdout and stderr interleaved in the order they were written."""

    exit_code: int
    stdout_bytes: bytes
    stderr_bytes: bytes
    output_bytes: bytes

    @property
    def stdout(self) -> str:
        return self.stdout_bytes.decode()

    @property
    def stderr(self) -> str:
        return self.stderr_bytes.decode()

    @property
    def output(self) -> str:
        return self.output_bytes.decode()


class _Tee(io.StringIO):
    def __init__(self, mixed: io.StringIO):
        super().__init__()
        self.mixed = mixed

    def write(self, text: str) -> int:
        self.mixed.write(text)
        return super().write(text)


class CliRunner:
    """Calls ``cli.main(args=..., prog_name=...)`` in-process with stdout and
    stderr captured.  Only SystemExit is caught, so any other exception fails
    the test with its own traceback."""

    def invoke(self, cli, args, prog_name="wovenframes") -> CliResult:
        mixed = io.StringIO()
        out, err = _Tee(mixed), _Tee(mixed)
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main(args=list(args), prog_name=prog_name)
            except SystemExit as exc:
                code = exc.code or 0
        return CliResult(code, out.getvalue().encode(), err.getvalue().encode(), mixed.getvalue().encode())
