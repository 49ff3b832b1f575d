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

from wovenframes import Frame, FrameFamily, exhaustive_woven_check, frame_bounds


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
