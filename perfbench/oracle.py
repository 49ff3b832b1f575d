"""Independent checks of the program's answers.

Nothing here imports the package: spectra come from LAPACK through
``np.linalg``, weaving operators are summed from a one-hot design matrix
(not by the package's gather), and the certifier hypotheses are re-derived
from their statements.  Every helper returns a list of mismatch messages;
an empty list means the answer is right.
"""

from __future__ import annotations

import json

import numpy as np

# Agreement required between the package and LAPACK, relative to the scale
# of the compared quantity.
RTOL = 1e-9
ZERO_RTOL = 1e-10  # the package's positivity cutoff, part of its contract
PSD_RTOL = 1e-10


def _close(a: float, b: float, scale: float) -> bool:
    return abs(a - b) <= RTOL * (1.0 + abs(scale))


def weaving_operator(stack: np.ndarray, assignment) -> np.ndarray:
    rows = stack[list(assignment), np.arange(stack.shape[1])]
    return rows.T @ rows


def exhaustive_extrema(stack: np.ndarray, chunk: int = 1 << 16):
    """(min lambda_min, max lambda_max) over all m^n weavings.

    S_W = sum_j onehot(W)_j,i * f_ij f_ij^T is one matrix product of the
    (K, n*m) one-hot words with the (n*m, d*d) rank-one table.
    """
    m, n, d = stack.shape
    table = np.einsum("ijd,ije->jide", stack, stack).reshape(n * m, d * d)
    powers = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
    lo, hi = np.inf, -np.inf
    for start in range(0, m**n, chunk):
        words = np.arange(start, min(start + chunk, m**n), dtype=np.int64)
        digits = (words[:, None] // powers) % m
        onehot = np.zeros((len(words), n, m))
        np.put_along_axis(onehot, digits[:, :, None], 1.0, axis=2)
        s = (onehot.reshape(len(words), n * m) @ table).reshape(-1, d, d)
        w = np.linalg.eigvalsh(s)
        lo, hi = min(lo, float(w[:, 0].min())), max(hi, float(w[:, -1].max()))
    return lo, hi


def check_scan_report(stdout: bytes, exit_code: int, stack: np.ndarray, extrema=None) -> list[str]:
    """Check one `weave check` report.

    ``extrema`` is (lower, upper) from ``exhaustive_extrema`` for an
    exhaustive report, or None for a sampled one.  Both kinds must report a
    witness whose own LAPACK lower bound equals the reported lower bound.
    """
    try:
        result = json.loads(stdout)["result"]
    except (ValueError, KeyError) as exc:
        return [f"unreadable report ({exc}); exit code {exit_code}"]
    errors = []
    lower, upper = result["universal_lower"], result["universal_upper"]
    witness = result["witness_partition"]
    if len(witness) != stack.shape[1] or not all(0 <= x < stack.shape[0] for x in witness):
        return [f"witness {witness} is not a partition of the family"]
    own = float(np.linalg.eigvalsh(weaving_operator(stack, witness))[0])
    if not _close(own, lower, upper):
        errors.append(f"witness's own lower bound {own!r} != reported universal_lower {lower!r}")
    if extrema is not None:
        lo, hi = max(extrema[0], 0.0), max(extrema[1], 0.0)
        if not _close(lower, lo, hi):
            errors.append(f"universal_lower {lower!r} != oracle {lo!r}")
        if not _close(upper, hi, hi):
            errors.append(f"universal_upper {upper!r} != oracle {hi!r}")
        woven = lo > ZERO_RTOL * (1.0 + hi)
        if result["woven"] != woven:
            errors.append(f"verdict woven={result['woven']} != oracle {woven}")
    expected_exit = 0 if result["woven"] else 1
    if exit_code != expected_exit:
        errors.append(f"exit code {exit_code} for woven={result['woven']}")
    return errors


# ---------------------------------------------------------------- queries


def _eig(s):
    return np.linalg.eigvalsh(0.5 * (s + s.T))


def _norm(a) -> float:
    return float(np.linalg.norm(a, 2))


def _bounds(vectors) -> tuple[float, float]:
    w = _eig(vectors.T @ vectors)
    hi = max(float(w[-1]), 0.0)
    lo = float(w[0]) if w[0] > ZERO_RTOL * (1.0 + hi) else 0.0
    return lo, hi


def check_bounds(reported, vectors) -> list[str]:
    lo, hi = _bounds(vectors)
    if _close(reported[0], lo, hi) and _close(reported[1], hi, hi):
        return []
    return [f"bounds {reported} != oracle {(lo, hi)}"]


def check_dual(dual, vectors, canonical: bool) -> list[str]:
    """A dual D of the frame with rows ``vectors`` satisfies T D^T = I."""
    d = vectors.shape[1]
    scale = 1.0 + _norm(vectors)
    errors = []
    if np.max(np.abs(vectors.T @ dual - np.eye(d))) > 1e-8 * scale:
        errors.append("T_W D^T != I")
    if canonical:
        expected = np.linalg.solve(vectors.T @ vectors, vectors.T).T
        if np.max(np.abs(dual - expected)) > 1e-8 * (1.0 + np.max(np.abs(expected))):
            errors.append("canonical dual != S_W^-1 applied to the weaving")
    return errors


def lm_min_mu(f_k, f_i, lam) -> float:
    diff = f_k - f_i
    return max(0.0, float(_eig(diff.T @ diff - lam * f_k.T @ f_k)[-1]))


def expected_verdicts(stack, ops, perturbed, universal, k, lam) -> dict[str, bool]:
    """Hypothesis verdict of each certifier query, from its statement."""
    m, n, d = stack.shape
    a, b = universal
    frame_ops = [fr.T @ fr for fr in stack]
    bounds = [_bounds(fr) for fr in stack]
    out = {}

    s_f, s_g = frame_ops[0], frame_ops[1]
    gap = _norm(s_f - s_g)
    out["dual-canonicals"] = min(_norm(np.linalg.inv(s_f)), _norm(np.linalg.inv(s_g))) * gap < a / b

    # dual-pair runs on frame 0 and its canonical dual
    g = np.linalg.solve(s_f, stack[0].T).T
    dual_ok = np.max(np.abs(stack[0].T @ g - np.eye(d))) <= 1e-10
    asym = max(_norm(np.outer(x, y) - np.outer(y, x)) for x, y in zip(stack[0], g))
    out["dual-pair"] = bool(dual_ok and asym <= 1e-10)

    a0, b0 = bounds[0]
    sigma_k = np.linalg.svd(ops[k], compute_uv=False)
    gap = max(_norm(ops[k] - u) for i, u in enumerate(ops) if i != k)
    out["op-family"] = gap < np.sqrt(a0 / ((m - 1) * b0)) * sigma_k[-1]

    a_k, b_k = bounds[k]
    out["synthesis-gap"] = all(
        _norm(stack[i] - stack[k]) < a_k / ((m - 1) * (np.sqrt(bounds[i][1]) + np.sqrt(b_k)))
        for i in range(m) if i != k
    )

    worst, scale = np.inf, 0.0
    for i in range(m):
        if i == k:
            continue
        for x, y in zip(stack[i], stack[k]):
            w = _eig(np.outer(x, x) - np.outer(y, y))
            worst, scale = min(worst, w[0]), max(scale, abs(w[-1]))
    out["positivity"] = not worst < -PSD_RTOL * (1.0 + scale)

    mus = [lm_min_mu(stack[k], stack[i], lam) for i in range(m) if i != k]
    lam_sum = lam * (m - 1)
    out["lm-perturb"] = lam_sum < 1.0 and a_k > sum(mus) / (1.0 - lam_sum)

    out["invertible"] = all(
        (s := np.linalg.svd(t, compute_uv=False))[-1] > ZERO_RTOL * (1.0 + s[0]) for t in ops
    )

    lams = [_norm(stack[i] - perturbed[i]) for i in range(m)]
    out["synthesis-perturb"] = max(lams) < a / (2.0 * np.sqrt(m * b))
    return {key: bool(v) for key, v in out.items()}
