"""Single-frame analysis: operators, optimal bounds, duals.

A Frame is an indexed finite family of vectors in R^d, stored row-wise
(``vectors[j]`` is the j-th frame vector).  The synthesis matrix keeps the
vectors as columns, so the analysis operator is its transpose and the frame
operator is T T^T.  Outside the wovenness scans, every frame or weaving
operator is built by ``frame_operator`` and its spectrum read with LAPACK's
eigvalsh, in the order and with the solver the scans use, and of the
vectors scaled by ``linalg.unit_scaled``, as the scans scale theirs, so a
weaving's bounds are bit for bit the ones a scan reports for it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NotAFrameError, ShapeMismatchError
from .linalg import DEFAULT_TOL, check_tol, unit_scaled, zero_threshold


@dataclass(frozen=True, eq=False)
class Frame:
    """n vectors in R^d.  Never mutated after construction.  Frames compare by
    identity: equal arrays have no single truth value."""

    vectors: np.ndarray
    label: str | None = None

    def __post_init__(self):
        v = np.asarray(self.vectors, dtype=float)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise InvalidArgumentError(
                f"a frame needs an (n, d) array of vectors, got shape {v.shape}"
            )
        if not np.all(np.isfinite(v)):
            raise InvalidArgumentError("frame vectors must be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vectors", v)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    @property
    def size(self) -> int:
        return self.vectors.shape[0]


@dataclass(frozen=True)
class Bounds:
    """Optimal lower/upper frame bounds.  lower == 0 means Bessel only."""

    lower: float
    upper: float

    def __post_init__(self):
        if not (0.0 <= self.lower <= self.upper < np.inf):
            raise InvalidArgumentError(
                f"bounds must satisfy 0 <= lower <= upper < inf, got ({self.lower}, {self.upper})"
            )


def synthesis(frame: Frame) -> np.ndarray:
    """d x n matrix with the frame vectors as columns."""
    return frame.vectors.T.copy()


def frame_operator(frame: Frame) -> np.ndarray:
    """S = T T^T = sum_j f_j f_j^T, exactly symmetric.  The rank-one terms are
    einsum products, as in the scans' table, summed left to right over j, the
    order of every scan's operators (a pairwise ``sum`` would round otherwise)."""
    return _operator(frame.vectors)


def _operator(v: np.ndarray) -> np.ndarray:
    return np.cumsum(np.einsum("jd,je->jde", v, v), axis=0)[-1]


def _bounds(frame: Frame) -> tuple[Bounds, np.ndarray, int]:
    """Optimal bounds, and the S / 4^e of ``unit_scaled`` vectors and e they come
    from; a lambda_min <= ``zero_threshold`` of lambda_max is reported as 0."""
    v, e = unit_scaled(frame.vectors)
    s = _operator(v)
    with np.errstate(over="ignore"):  # an infinite bound is for Bounds to reject
        w = np.ldexp(np.linalg.eigvalsh(s), 2 * e)
    lam_max = max(float(w[-1]), 0.0)
    return Bounds(0.0 if w[0] <= zero_threshold(lam_max) else float(w[0]), lam_max), s, e


def frame_bounds(frame: Frame) -> Bounds:
    """Optimal frame bounds: the extreme eigenvalues of the frame operator."""
    return _bounds(frame)[0]


def _bessel_sum(bounds) -> float:
    """sum_i B_i of the frames' ``bounds``, summed in frame order."""
    return float(sum(b.upper for b in bounds))


def inverse_frame_operator(frame: Frame, not_a_frame: str) -> tuple[np.ndarray, Bounds]:
    """S^{-1} and the optimal bounds A, B (so ||S|| = B, ||S^{-1}|| = 1/A), both
    from the one S / 4^e of ``_bounds``.  Raises NotAFrameError(not_a_frame) when A = 0."""
    bounds, s, e = _bounds(frame)
    if bounds.lower <= 0.0:
        raise NotAFrameError(not_a_frame)
    return np.ldexp(np.linalg.inv(s), -2 * e), bounds


def canonical_dual(frame: Frame) -> Frame:
    """The frame {S^{-1} f_j}."""
    s_inv, _ = inverse_frame_operator(frame, "family does not span, canonical dual undefined")
    return Frame(frame.vectors @ s_inv.T, label=frame.label)


def is_dual_pair(f: Frame, g: Frame, tol: float = DEFAULT_TOL):
    """True iff T_F T_G^T = I within tol.  Returns (verdict, witness matrix)."""
    check_tol(tol)
    if (f.dim, f.size) != (g.dim, g.size):
        raise ShapeMismatchError(
            f"frames of shape ({f.dim}, {f.size}) and ({g.dim}, {g.size}) cannot be dual"
        )
    witness = f.vectors.T @ g.vectors
    deviation = float(np.max(np.abs(witness - np.eye(f.dim))))
    return deviation <= tol, witness
