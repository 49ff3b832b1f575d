"""Single-frame analysis: operators, optimal bounds, duals.

A Frame is an indexed finite family of vectors in R^d, stored row-wise
(``vectors[j]`` is the j-th frame vector).  The synthesis matrix keeps the
vectors as columns, so the analysis operator is its transpose and the frame
operator is T T^T.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NotAFrameError, ShapeMismatchError
from .linalg import DEFAULT_TOL, gram, sym_eig, zero_threshold


@dataclass(frozen=True)
class Frame:
    """n vectors in R^d.  Never mutated after construction."""

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
    """S = T T^T = sum_j f_j f_j^T (symmetric PSD)."""
    return gram(frame.vectors)


def _bounds(w: np.ndarray) -> Bounds:
    """Optimal bounds from the ascending spectrum of S.  A smallest eigenvalue at
    or below the positivity threshold is reported as 0 (Bessel but not a frame)."""
    lam_max = max(float(w[-1]), 0.0)
    return Bounds(0.0 if w[0] <= zero_threshold(lam_max) else float(w[0]), lam_max)


def frame_bounds(frame: Frame) -> Bounds:
    """Optimal frame bounds: the extreme eigenvalues of the frame operator."""
    return _bounds(sym_eig(frame_operator(frame), vectors=False)[0])


def inverse_frame_operator(frame: Frame, not_a_frame: str) -> tuple[np.ndarray, Bounds]:
    """S^{-1} and the optimal bounds A, B (so ||S|| = B, ||S^{-1}|| = 1/A) from one
    decomposition of S.  Raises NotAFrameError(not_a_frame) when A = 0."""
    w, v = sym_eig(frame_operator(frame))
    bounds = _bounds(w)
    if bounds.lower <= 0.0:
        raise NotAFrameError(not_a_frame)
    return (v / w) @ v.T, bounds


def is_frame(frame: Frame) -> bool:
    return frame_bounds(frame).lower > 0.0


def canonical_dual(frame: Frame) -> Frame:
    """The frame {S^{-1} f_j}."""
    s_inv, _ = inverse_frame_operator(frame, "family does not span, canonical dual undefined")
    return Frame(frame.vectors @ s_inv.T, label=frame.label)


def is_dual_pair(f: Frame, g: Frame, tol: float = DEFAULT_TOL):
    """True iff T_F T_G^T = I within tol.  Returns (verdict, witness matrix)."""
    if (f.dim, f.size) != (g.dim, g.size):
        raise ShapeMismatchError(
            f"frames of shape ({f.dim}, {f.size}) and ({g.dim}, {g.size}) cannot be dual"
        )
    witness = f.vectors.T @ g.vectors
    deviation = float(np.max(np.abs(witness - np.eye(f.dim))))
    return deviation <= tol, witness


def analyze(frame: Frame, f) -> np.ndarray:
    """Analysis coefficients <f, f_j> for all j."""
    vec = np.asarray(f, dtype=float)
    if vec.shape != (frame.dim,):
        raise ShapeMismatchError(
            f"vector of shape {vec.shape} does not match dimension {frame.dim}"
        )
    return frame.vectors @ vec
