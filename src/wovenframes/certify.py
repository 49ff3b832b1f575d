"""Sufficient-condition certificates for wovenness.

Each checker tests the hypothesis of one sufficient condition and, when it
holds, reports the guaranteed universal bounds that the condition yields.
Certificates are one-sided: a rejected hypothesis says nothing about
wovenness, and the hypotheses use strict inequalities exactly as stated, with
margins reported so near-threshold cases are visible.

Universal bounds of an already-woven family are never recomputed here; they
must come from the caller (typically the exhaustive oracle), which keeps every
certifier polynomial in (m, n, d).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    InvalidArgumentError,
    InvalidParamsError,
    NoLeftInverseError,
    NotAFrameError,
    ShapeMismatchError,
    SingularOperatorError,
)
from .frames import (
    Bounds,
    Frame,
    _bessel_sum,
    _operator,
    frame_bounds,
    frame_operator,
    inverse_frame_operator,
    is_dual_pair,
    synthesis,
)
from .linalg import (
    DEFAULT_TOL,
    as_matrix,
    operator_norm,
    singular_values,
    sym_eig_bounds,
    unit_scaled,
    zero_threshold,
)
from .weaving import DEFAULT_CAP, FrameFamily, bessel_upper_bound, exhaustive_woven_check


@dataclass(frozen=True)
class Certificate:
    method: str
    hypothesis_satisfied: bool
    margins: dict = field(default_factory=dict)
    guaranteed_lower: float | None = None
    guaranteed_upper: float | None = None
    notes: str = ""


@dataclass(frozen=True)
class PerturbParams:
    """One (lambda, mu) pair; mu is unused by the synthesis-perturbation test."""

    lam: float
    mu: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.lam < 1.0:
            raise InvalidParamsError(f"lambda must lie in (0, 1), got {self.lam}")
        if not 0.0 <= self.mu < np.inf:
            raise InvalidParamsError(f"mu must be finite and >= 0, got {self.mu}")


def _not_spanning(name: str) -> str:
    return f"{name} does not span (lower bound 0)"


def _spanning(b: Bounds, name: str) -> Bounds:
    if b.lower <= 0.0:
        raise NotAFrameError(_not_spanning(name))
    return b


def _check_reference(k: int, m: int):
    if not 0 <= k < m:
        raise ShapeMismatchError(f"index k={k} out of range for m={m}")


def _universal(universal: Bounds) -> tuple[float, float]:
    if universal.lower <= 0.0:
        raise NotAFrameError("universal lower bound must be positive")
    return universal.lower, universal.upper


def _operators(operators, d: int) -> list[np.ndarray]:
    ops = [np.asarray(u, dtype=float) for u in operators]
    for i, u in enumerate(ops):
        if u.shape != (d, d):
            raise ShapeMismatchError(f"operators must be {d}x{d}, got {u.shape}")
        # U^T U is the frame operator of U's rows, so the family's rule applies
        trace, overflows = FrameFamily.largest_trace(as_matrix(u)[None])
        if overflows:
            raise InvalidArgumentError(
                f"operator {i} too large: its Gram trace {trace:.3e} overflows when squared"
            )
    return ops


def certify_dual_canonicals(f: Frame, g: Frame, universal: Bounds) -> Certificate:
    """Woven canonical duals via closeness of the frame operators.

    Hypothesis: ||S_F^-1|| * ||S_F - S_G|| < A/B (or the symmetric variant
    with S_G^-1).  The guaranteed upper bound uses the inverse operator norms;
    the literal statement with ||S_F||, ||S_G|| does not match the preceding
    step of its own derivation.
    """
    a, b = _universal(universal)
    inv_f, bounds_f = inverse_frame_operator(f, _not_spanning("first frame"))
    inv_g, bounds_g = inverse_frame_operator(g, _not_spanning("second frame"))
    # both gaps are read at the scale of the jointly unit_scaled vectors and
    # scaled back, exactly: LAPACK rescales a raw S_F - S_G of extreme size
    # by a factor of its own
    v, e = unit_scaled(np.concatenate([f.vectors, g.vectors]))
    gap = float(np.ldexp(operator_norm(_operator(v[: f.size]) - _operator(v[f.size :])), 2 * e))
    inv_gap = float(np.ldexp(operator_norm(np.ldexp(inv_g - inv_f, 2 * e)), -2 * e))
    # ||S^-1|| = 1/A and ||S|| = B, read from the same spectra
    norm_inv_f, norm_inv_g = 1.0 / bounds_f.lower, 1.0 / bounds_g.lower
    ratio = a / b
    ok_f = norm_inv_f * gap < ratio
    ok_g = norm_inv_g * gap < ratio
    margins = {
        "operator_gap": gap,
        "norm_inv_first": norm_inv_f,
        "norm_inv_second": norm_inv_g,
        "threshold": ratio,
        "margin_first": ratio - norm_inv_f * gap,
        "margin_second": ratio - norm_inv_g * gap,
    }
    if not (ok_f or ok_g):
        return Certificate("dual-canonicals", False, margins)
    # lower bound: ||S^-1 f|| >= ||f|| / ||S||, so the anchor norm here is the
    # forward operator norm, not the inverse one
    anchor_norm = bounds_f.upper if ok_f else bounds_g.upper
    bracket = np.sqrt(a) / anchor_norm - np.sqrt(b) * inv_gap
    margins["lower_root"] = float(bracket)
    upper = b * (norm_inv_f**2 + norm_inv_g**2)
    if bracket <= 0.0:
        return Certificate(
            "dual-canonicals",
            True,
            margins,
            None,
            float(upper),
            notes="hypothesis holds but the derived lower bound is vacuous "
            "(sqrt(A)/||S|| - sqrt(B)||S_G^-1 - S_F^-1|| <= 0)",
        )
    return Certificate(
        "dual-canonicals", True, margins, float(bracket**2), float(upper)
    )


def verify_operator_characterization(
    family: FrameFamily, a: float, cap: int = DEFAULT_CAP, threads: int = 1
) -> Certificate:
    """Every weaving synthesis operator satisfies T_W T_W^T >= A I.

    This condition is equivalent to wovenness with universal lower bound >= A,
    so it delegates to the exhaustive scan over all partitions.
    """
    if a <= 0.0:
        raise InvalidParamsError(f"the lower-bound constant must be positive, got {a}")
    report = exhaustive_woven_check(family, cap=cap, threads=threads)
    margins = {
        "requested_lower": a,
        "universal_lower": report.universal_lower,
        "slack": report.universal_lower - a,
    }
    satisfied = report.woven and report.universal_lower >= a
    if not satisfied:
        return Certificate("op-characterization", False, margins)
    return Certificate(
        "op-characterization", True, margins, float(a), bessel_upper_bound(family)
    )


def certify_commuting_dual_pair(f: Frame, g: Frame, tol: float = DEFAULT_TOL) -> Certificate:
    """A dual pair whose truncations commute is woven.

    The all-sigma condition T_F^s (T_G^s)^* = T_G^s (T_F^s)^* reduces exactly
    to symmetry of every rank-one product f_j g_j^T: singletons give
    necessity, additivity over sigma gives sufficiency.  Each antisymmetric
    part f_j g_j^T - g_j f_j^T has rank 2 and two equal singular values, so
    its operator norm is its Frobenius norm over sqrt(2).
    """
    dual, witness = is_dual_pair(f, g, tol)
    dual_gap = float(np.max(np.abs(witness - np.eye(f.dim))))
    cross = np.einsum("jd,je->jde", f.vectors, g.vectors)
    antisym = cross - cross.transpose(0, 2, 1)
    asym = float(np.max(np.linalg.norm(antisym, axis=(1, 2))) / np.sqrt(2.0))
    margins = {"duality_gap": dual_gap, "max_asymmetry": asym, "tol": tol}
    if not dual or asym > tol:
        return Certificate("dual-pair", False, margins)
    b1 = frame_bounds(f).upper
    b2 = frame_bounds(g).upper
    margins["bessel_first"] = b1
    margins["bessel_second"] = b2
    return Certificate(
        "dual-pair", True, margins, 1.0 / (2.0 * max(b1, b2)), b1 + b2
    )


def certify_operator_family(f: Frame, operators, k: int) -> Certificate:
    """The images {U_i F} are woven when the U_i cluster around a U_k with a
    left inverse.

    V is the Moore-Penrose left inverse of U_k, which minimizes ||V|| and so
    gives the weakest possible hypothesis threshold: ||V|| = 1/sigma_min(U_k),
    with sigma taken from the SVD of U_k.
    With a single operator the threshold is vacuous and is not reported.
    """
    ops = _operators(operators, f.dim)
    m = len(ops)
    _check_reference(k, m)
    bounds = _spanning(frame_bounds(f), "base frame")
    a, b = bounds.lower, bounds.upper
    sigma = singular_values(ops[k].T)
    if sigma[-1] <= zero_threshold(sigma[0]):
        raise NoLeftInverseError(f"matrix is rank deficient (sigma_min={sigma[-1]:.3e})")
    norm_v = 1.0 / float(sigma[-1])
    gap = max((operator_norm(ops[k] - u) for i, u in enumerate(ops) if i != k), default=0.0)
    margins = {"max_operator_gap": gap, "norm_left_inverse": norm_v}
    if m > 1:
        margins["threshold"] = float(np.sqrt(a / ((m - 1) * b)) / norm_v)
        if not gap < margins["threshold"]:
            return Certificate("op-family", False, margins)
    # the triangle-inequality derivation bounds the square root of the frame
    # sum, so the guarantee is the squared difference (the difference of
    # squares overshoots by the cross term and is not a valid bound)
    bracket = np.sqrt(a) / norm_v - np.sqrt((m - 1) * b) * gap
    upper = b * float(sum(operator_norm(u) ** 2 for u in ops))
    return Certificate("op-family", True, margins, float(bracket**2), upper)


def certify_synthesis_gap(family: FrameFamily, k: int) -> Certificate:
    """Frames whose synthesis operators cluster around F_k are woven."""
    m = family.m
    _check_reference(k, m)
    bounds = [_spanning(frame_bounds(fr), f"frame {i}") for i, fr in enumerate(family.frames)]
    a_k = bounds[k].lower
    b_k = bounds[k].upper
    t_k = synthesis(family.frames[k])
    gaps = {}
    worst_margin = np.inf
    total = 0.0
    for i, fr in enumerate(family.frames):
        if i == k:
            continue
        gap = operator_norm(synthesis(fr) - t_k)
        limit = a_k / ((m - 1) * (np.sqrt(bounds[i].upper) + np.sqrt(b_k))) if m > 1 else np.inf
        gaps[f"gap_{i}"] = gap
        worst_margin = min(worst_margin, limit - gap)
        total += (np.sqrt(bounds[i].upper) + np.sqrt(b_k)) * gap
    # with a single frame the worst margin is vacuous and is not reported
    margins = {"worst_margin": float(worst_margin), **gaps} if m > 1 else gaps
    if not worst_margin > 0.0:
        return Certificate("synthesis-gap", False, margins)
    lower = a_k - total
    upper = m * max(b.upper for b in bounds)
    return Certificate("synthesis-gap", True, margins, float(lower), float(upper))


def certify_positivity(family: FrameFamily, k: int) -> Certificate:
    """Woven when every f_ij f_ij^T - f_kj f_kj^T is PSD (i != k).

    The per-index form is exactly the all-sigma operator positivity of the
    truncated differences: singleton sigma gives necessity, summation gives
    sufficiency.  Each difference's zero cut is relative to its larger
    rank-one term, max(|f_ij|^2, |f_kj|^2), since the difference can vanish.
    """
    m = family.m
    _check_reference(k, m)
    bounds = [frame_bounds(fr) for fr in family.frames]
    worst = 0.0 if m == 1 else np.inf
    negative = False
    for i, fr in enumerate(family.frames):
        if i == k:
            continue
        for fij, fkj in zip(fr.vectors, family.frames[k].vectors):
            lam_min, _ = sym_eig_bounds(np.outer(fij, fij) - np.outer(fkj, fkj))
            worst = min(worst, lam_min)
            negative |= lam_min < -zero_threshold(max(fij @ fij, fkj @ fkj))
    margins = {"min_difference_eigenvalue": float(worst)}
    if negative:
        return Certificate("positivity", False, margins)
    a_k = bounds[k].lower
    upper = _bessel_sum(bounds)
    if a_k <= 0.0:
        return Certificate(
            "positivity", True, margins, None, upper,
            notes="hypothesis holds but frame k does not span, so no positive "
            "lower bound follows",
        )
    return Certificate("positivity", True, margins, float(a_k), upper)


def _lm_spectrum(f_k: Frame, f_i: Frame, lam: float) -> tuple[np.ndarray, float, float]:
    """S_diff, the frame operator of the difference family {f_kj - f_ij}, and
    the smallest and largest eigenvalue of S_diff - lam * S_{F_k}."""
    if (f_k.dim, f_k.size) != (f_i.dim, f_i.size):
        raise ShapeMismatchError("frames must share (dim, size)")
    s_diff = frame_operator(Frame(f_k.vectors - f_i.vectors))
    w = np.linalg.eigvalsh(s_diff - lam * frame_operator(f_k))
    return s_diff, float(w[0]), float(w[-1])


def lm_perturbation_min_mu(f_k: Frame, f_i: Frame, lam: float) -> float:
    """Smallest mu with S_diff <= lam * S_{F_k} + mu * I."""
    PerturbParams(lam)  # checks lambda
    _, _, lam_max = _lm_spectrum(f_k, f_i, lam)
    return float(max(0.0, lam_max))


def certify_lm_perturbation(
    family: FrameFamily, k: int, params: list[PerturbParams]
) -> Certificate:
    """Woven when each F_i is a (lambda_i, mu_i)-perturbation of F_k and the
    aggregate feasibility sum(lambda) < 1, A_k > sum(mu)/(1 - sum(lambda)) holds.

    Each supplied pair is first verified against the perturbation definition
    as an operator inequality: lambda_i S_{F_k} + mu_i I - S_diff,i is PSD,
    its smallest eigenvalue mu_i - lambda_max(S_diff,i - lambda_i S_{F_k})
    cut at zero relative to lambda_i ||S_{F_k}|| + mu_i + ||S_diff,i||.
    """
    m = family.m
    _check_reference(k, m)
    if len(params) != m - 1:
        raise InvalidParamsError(f"need {m - 1} perturbation pairs, got {len(params)}")
    bounds = [frame_bounds(fr) for fr in family.frames]
    a_k, b_k = _spanning(bounds[k], f"frame {k}").lower, bounds[k].upper
    others = [i for i in range(m) if i != k]
    for i, pr in zip(others, params):
        s_diff, _, lam_max = _lm_spectrum(family.frames[k], family.frames[i], pr.lam)
        lam_min = pr.mu - lam_max
        if lam_min < -zero_threshold(pr.lam * b_k + pr.mu + operator_norm(s_diff)):
            raise InvalidParamsError(
                f"(lambda, mu) = ({pr.lam}, {pr.mu}) fails the perturbation "
                f"definition for frame {i} (min eigenvalue {lam_min:.3e})"
            )
    lam_sum = float(sum(pr.lam for pr in params))
    mu_sum = float(sum(pr.mu for pr in params))
    margins = {
        "lambda_sum": lam_sum,
        "mu_sum": mu_sum,
        "lower_bound_k": float(a_k),
    }
    if lam_sum >= 1.0:
        return Certificate("lm-perturb", False, margins)
    needed = mu_sum / (1.0 - lam_sum)
    margins["threshold"] = float(needed)
    margins["margin"] = float(a_k - needed)
    if not a_k > needed:
        return Certificate("lm-perturb", False, margins)
    lower = (1.0 - lam_sum) * a_k - mu_sum
    upper = _bessel_sum(bounds)
    return Certificate("lm-perturb", True, margins, float(lower), upper)


def certify_invertible_stability(
    family: FrameFamily, universal: Bounds, operators
) -> tuple[Certificate, FrameFamily]:
    """Invertible operators applied frame-wise keep a woven family woven.

    Always satisfied once every T_i is invertible.  The lower bound
    A / max ||T_i^-1||^2 is exact when the operators are scalar multiples of
    a common operator; strongly misaligned operators can rotate different
    frames' vectors onto each other and weave below it (the certificate notes
    carry this caveat).  Also returns the transformed family {T_i F_i}.
    """
    a, b = _universal(universal)
    ops = _operators(operators, family.dim)
    if len(ops) != family.m:
        raise ShapeMismatchError(f"need {family.m} operators, got {len(ops)}")
    inv_norms = []
    norms = []
    for idx, t in enumerate(ops):
        sigma = singular_values(t)
        if sigma[-1] <= zero_threshold(sigma[0]):
            raise SingularOperatorError(
                f"operator {idx} is singular (sigma_min={sigma[-1]:.3e})"
            )
        norms.append(float(sigma[0]))
        inv_norms.append(1.0 / float(sigma[-1]))
    lower = a / max(inv_norms) ** 2
    upper = b * max(norms) ** 2
    transformed = FrameFamily(
        [Frame(fr.vectors @ t.T, label=fr.label) for fr, t in zip(family.frames, ops)]
    )
    cert = Certificate(
        "invertible",
        True,
        {"max_norm": max(norms), "max_inverse_norm": max(inv_norms)},
        float(lower),
        float(upper),
        notes="lower bound A / max ||T_i^-1||^2 is guaranteed when the "
        "operators are scalar multiples of one common operator; for "
        "misaligned operators rerun the exhaustive check on the transformed "
        "family",
    )
    return cert, transformed


def certify_synthesis_perturbation(
    family: FrameFamily, perturbed: FrameFamily, universal: Bounds
) -> Certificate:
    """Small synthesis-operator perturbations of a woven family stay woven.

    lambda_i = ||T_{F_i} - T_{F_i'}||; all must stay strictly below
    A / (2 sqrt(m B)).
    """
    a, b = _universal(universal)
    if (
        perturbed.m != family.m
        or perturbed.dim != family.dim
        or perturbed.size != family.size
    ):
        raise ShapeMismatchError("perturbed family must match (m, n, d)")
    m = family.m
    lams = [
        operator_norm(synthesis(fr) - synthesis(pr))
        for fr, pr in zip(family.frames, perturbed.frames)
    ]
    threshold = a / (2.0 * np.sqrt(m * b))
    margins = {
        "threshold": float(threshold),
        "max_lambda": float(max(lams)),
        "margin": float(threshold - max(lams)),
        **{f"lambda_{i}": float(x) for i, x in enumerate(lams)},
    }
    if not max(lams) < threshold:
        return Certificate("synthesis-perturb", False, margins)
    lower = a - 2.0 * np.sqrt(m * b) * max(lams)
    upper = b + float(sum(x**2 for x in lams)) + 2.0 * np.sqrt(b) * max(lams)
    return Certificate("synthesis-perturb", True, margins, float(lower), float(upper))
