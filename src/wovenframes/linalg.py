"""Dense real kernels for small matrices.

Frame and weaving spectra are read with LAPACK's eigvalsh of the operators
``frames.frame_operator`` builds from ``unit_scaled`` vectors, as the scans do.
``sym_eig_bounds`` solves one symmetric matrix by cyclic Jacobi rotations
(``jacobi_eigh_batch``); it serves the positivity certificate alone.
``singular_values``, ``operator_norm`` and ``null_space_basis`` take LAPACK's
SVD of the matrix itself, so a small sigma keeps its relative accuracy.
The package's numeric defaults are defined here and nowhere else: ``ZERO_RTOL``,
the relative cut at or below which ``zero_threshold`` counts a value as zero,
and ``DEFAULT_TOL``, the tolerance of identity tests such as T_F T_G^T = I.
Every zero cut is ``zero_threshold`` of the size of the operands (never of a
result, which can vanish), with no absolute term, so scaling the input by any
factor moves each cut with it and leaves every verdict unchanged.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError

ZERO_RTOL = 1e-10
DEFAULT_TOL = 1e-10

_SYM_RTOL = 1e-12
_JACOBI_RTOL = 1e-14
_JACOBI_MAX_SWEEPS = 100


def zero_threshold(scale: float) -> float:
    """Eigen/singular values at or below this count as zero, where ``scale`` is
    the size of the operands: lambda_max of a frame operator, sigma_max of a matrix."""
    return ZERO_RTOL * abs(scale)


def check_tol(tol: float) -> None:
    """Reject a tolerance that is not finite or is below 0."""
    if not 0.0 <= tol < np.inf:
        raise InvalidArgumentError(f"tol must be finite and >= 0, got {tol}")


def unit_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``a`` times 2^-e, and e, which puts its largest |entry| in [1/2, 1)
    (e = 0 when ``a`` is 0): exact while no value leaves the normal floats."""
    e = int(np.frexp(np.abs(a).max())[1])
    return np.ldexp(a, -e), e


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
    if np.max(np.abs(a - a.T)) > _SYM_RTOL * np.max(np.abs(a)):
        raise InvalidArgumentError("matrix is not symmetric within tolerance")
    return a


def jacobi_eigh_batch(stack: np.ndarray) -> np.ndarray:
    """The (K, d) ascending eigenvalues of a (K, d, d) stack of symmetric matrices.

    Cyclic sweeps over the strict upper triangle, one rotation angle per
    matrix in the batch, until every off-diagonal Frobenius norm drops below
    1e-14 * maxabs (each matrix's own scale) or 100 sweeps elapse.
    """
    a = np.array(stack, dtype=float, copy=True)
    if a.ndim != 3 or a.shape[1] != a.shape[2]:
        raise InvalidArgumentError(f"expected a (K, d, d) stack, got shape {a.shape}")
    k, d, _ = a.shape
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
    return np.sort(np.einsum("kii->ki", a), axis=1)


def sym_eig_bounds(m) -> tuple[float, float]:
    """Smallest and largest eigenvalue of a symmetric matrix."""
    w = jacobi_eigh_batch(check_symmetric(m)[None])[0]
    return float(w[0]), float(w[-1])


def operator_norm(m) -> float:
    """Largest singular value."""
    return float(singular_values(m)[0])


def singular_values(m) -> np.ndarray:
    """All singular values, descending."""
    return np.linalg.svd(as_matrix(m), compute_uv=False)


def null_space_basis(m) -> list[np.ndarray]:
    """Orthonormal basis of ker(M): the right singular vectors past the rank, the
    count of sigma above ``zero_threshold`` of sigma_max."""
    _, sigma, vt = np.linalg.svd(as_matrix(m))
    rank = int(np.count_nonzero(sigma > zero_threshold(sigma[0])))
    return list(vt[rank:])
