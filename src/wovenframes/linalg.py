"""Dense real kernels for small matrices.

The single-matrix primitives are ``sym_eig``/``sym_eig_bounds`` and
``null_space_basis``, which solve symmetric eigenproblems by cyclic Jacobi
rotations, the last on ``gram``, the package's one Gram product (frame operators
are Gram matrices too), and ``singular_values``/``operator_norm``, which take
LAPACK's SVD of the matrix itself, so a small sigma keeps its relative accuracy.
Callers read inverses and their norms from one spectrum.  The wovenness scans
solve the frame operators they cannot rule out with LAPACK's eigvalsh.
The package's numeric defaults are defined here and nowhere else: ``ZERO_RTOL``,
the relative cut at or below which ``zero_threshold`` counts a value as zero,
and ``DEFAULT_TOL``, the tolerance of identity tests such as T_F T_G^T = I.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

ZERO_RTOL = 1e-10
DEFAULT_TOL = 1e-10

_SYM_RTOL = 1e-12
_JACOBI_RTOL = 1e-14
_JACOBI_MAX_SWEEPS = 100


def zero_threshold(lambda_max: float) -> float:
    """Eigen/singular values at or below this count as zero."""
    return ZERO_RTOL * (1.0 + abs(lambda_max))


def as_matrix(m) -> np.ndarray:
    a = np.asarray(m, dtype=float)
    if a.ndim != 2 or a.size == 0:
        raise InvalidArgumentError(f"expected a nonempty 2-d matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidArgumentError("matrix entries must be finite")
    return a


def check_symmetric(m) -> np.ndarray:
    a = as_matrix(m)
    if a.shape[0] != a.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {a.shape}")
    scale = _SYM_RTOL * (1.0 + np.max(np.abs(a)))
    if np.max(np.abs(a - a.T)) > scale:
        raise InvalidArgumentError("matrix is not symmetric within tolerance")
    return a


def jacobi_eigh_batch(stack: np.ndarray, vectors: bool = False):
    """Eigen-decompose a (K, d, d) stack of symmetric matrices.

    Cyclic sweeps over the strict upper triangle, one rotation angle per
    matrix in the batch, until every off-diagonal Frobenius norm drops below
    1e-14 * maxabs (each matrix's own scale) or 100 sweeps elapse.

    Returns (eigvals, eigvecs): eigvals (K, d) ascending; eigvecs (K, d, d)
    with orthonormal columns (or None when vectors=False).
    """
    a = np.array(stack, dtype=float, copy=True)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InvalidArgumentError(f"expected a (K, d, d) stack, got shape {a.shape}")
    k, d, _ = a.shape
    v = np.tile(np.eye(d), (k, 1, 1)) if vectors else None
    if d > 1:
        tol = _JACOBI_RTOL * np.max(np.abs(a), axis=(1, 2))
        off_mask = ~np.eye(d, dtype=bool)
        for _ in range(_JACOBI_MAX_SWEEPS):
            off = np.sqrt(np.sum((a * off_mask) ** 2, axis=(1, 2)))
            if np.all(off <= tol):
                break
            for p in range(d - 1):
                for q in range(p + 1, d):
                    apq = a[:, p, q]
                    active = apq != 0.0
                    if not np.any(active):
                        continue
                    # theta may overflow for near-zero pivots; t then rounds
                    # to 0 (no rotation), which is the right limit
                    with np.errstate(over="ignore"):
                        theta = (a[:, q, q] - a[:, p, p]) / (2.0 * np.where(active, apq, 1.0))
                        sgn = np.where(theta >= 0.0, 1.0, -1.0)
                        t = sgn / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
                    c = 1.0 / np.sqrt(t * t + 1.0)
                    s = t * c
                    c = np.where(active, c, 1.0)[:, None]
                    s = np.where(active, s, 0.0)[:, None]
                    rp = a[:, p, :].copy()
                    rq = a[:, q, :].copy()
                    a[:, p, :] = c * rp - s * rq
                    a[:, q, :] = s * rp + c * rq
                    cp = a[:, :, p].copy()
                    cq = a[:, :, q].copy()
                    a[:, :, p] = c * cp - s * cq
                    a[:, :, q] = s * cp + c * cq
                    # rotations leave tiny asymmetric noise; pin the zeroed pair
                    a[:, p, q] = np.where(active[:], 0.0, a[:, p, q])
                    a[:, q, p] = a[:, p, q]
                    if vectors:
                        vp = v[:, :, p].copy()
                        vq = v[:, :, q].copy()
                        v[:, :, p] = c * vp - s * vq
                        v[:, :, q] = s * vp + c * vq
    w = np.einsum("kii->ki", a).copy()
    order = np.argsort(w, axis=1, kind="stable")
    w = np.take_along_axis(w, order, axis=1)
    if vectors:
        v = np.take_along_axis(v, order[:, None, :], axis=2)
    return w, v


def sym_eig(m, vectors: bool = True):
    """Full spectrum of one symmetric matrix (ascending)."""
    a = check_symmetric(m)
    w, v = jacobi_eigh_batch(a[None], vectors=vectors)
    return (w[0], v[0]) if vectors else (w[0], None)


def sym_eig_bounds(m) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix."""
    w, _ = sym_eig(m, vectors=False)
    return float(w[0]), float(w[-1])


def gram(a: np.ndarray) -> np.ndarray:
    """The Gram matrix a^T a, symmetrized so that rounding leaves it exactly symmetric."""
    g = a.T @ a
    return 0.5 * (g + g.T)


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(singular_values(m)[0])


def singular_values(m) -> np.ndarray:
    """All singular values, descending."""
    return np.linalg.svd(as_matrix(m), compute_uv=False)


def null_space_basis(m) -> list[np.ndarray]:
    """Orthonormal basis of ker(M), from the spectrum of M^T M."""
    w, v = sym_eig(gram(as_matrix(m)))
    cut = zero_threshold(w[-1])
    return [v[:, j].copy() for j in range(len(w)) if w[j] <= cut]
