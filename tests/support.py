"""Shared helpers: independent brute-force oracle and random instance
generators.

The brute-force oracle here deliberately avoids the package's own linear
algebra: weavings are assembled by direct indexing and their spectra are the
squared singular values of each weaving's synthesis matrix (LAPACK gesdd), so
it cross-checks the scan's eigenvalues of stacked frame operators (LAPACK
syevd) rather than mirroring them.
"""

from __future__ import annotations

import itertools

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
