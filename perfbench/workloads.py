"""Workload definitions and seeded input generation.

Every family is a base frame with standard normal entries plus ``m - 1``
copies perturbed by ``eps * normal``, so with the sizes below every family is
woven.  The same seed always writes byte-identical input files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "exhaustive" | "sample" | "queries"
    m: int
    n: int
    d: int
    eps: float
    threads: int = 1
    samples: int = 0
    pool: int = 1  # families per run, used in turn

    @property
    def weavings(self) -> int:
        """Weavings one CLI invocation decides."""
        return self.samples if self.kind == "sample" else self.m**self.n


WORKLOADS = {
    w.name: w
    for w in (
        # bound by the batched eigensolve; the plain single-threaded baseline
        Workload("exhaustive-d8", "exhaustive", 2, 16, 8, 0.3, threads=1, pool=4),
        # 128 chunks where word decode and gather dominate, on the thread pool
        Workload("exhaustive-long", "exhaustive", 2, 21, 2, 0.3, threads=2),
        # 3^45 is beyond any cap; random words, no prefix structure
        Workload("sampled-huge", "sample", 3, 45, 4, 0.3, threads=2, samples=200_000),
        # single small matrices through frames, certify and linalg, no scan
        Workload("queries", "queries", 3, 24, 8, 0.02, pool=8),
    )
}

# Reference index k of every certifier query, and the lambda used to derive
# each (lambda, mu) pair of lm-perturb.
REFERENCE_FRAME = 0
LM_LAMBDA = 0.1
# Spread of the synthesis-perturb family and of the operators near I.
PERTURBED_EPS = 1e-3
OPERATOR_EPS = 0.02


def _dump(doc) -> str:
    return json.dumps(doc, sort_keys=True) + "\n"


def _frames_doc(stack: np.ndarray) -> dict:
    return {
        "dim": int(stack.shape[2]),
        "frames": [{"label": f"F{i}", "vectors": fr.tolist()} for i, fr in enumerate(stack)],
    }


def family_stack(rng: np.random.Generator, m: int, n: int, d: int, eps: float) -> np.ndarray:
    """(m, n, d) vectors: a normal base frame and m - 1 perturbed copies."""
    base = rng.standard_normal((n, d))
    return np.stack([base] + [base + eps * rng.standard_normal((n, d)) for _ in range(m - 1)])


def universal_bounds(stack: np.ndarray) -> tuple[float, float]:
    """Valid universal bounds of a family close to its frame 0.

    Every weaving synthesis matrix is T_0 plus a column selection of the
    differences, whose norm is at most delta = sum_i ||T_i - T_0||, so each
    weaving has bounds within (sigma_min(T_0) -/+ delta)^2.
    """
    s0 = np.linalg.svd(stack[0], compute_uv=False)
    delta = sum(np.linalg.norm(fr - stack[0], 2) for fr in stack[1:])
    lower = max(s0[-1] - delta, 0.0) ** 2
    return float(lower), float((s0[0] + delta) ** 2)


def generate(workload: Workload, seed: int) -> dict[str, str]:
    """File name -> file text for the workload's inputs."""
    rng = np.random.default_rng(seed)
    w = workload
    files = {}
    for i in range(w.pool):
        stack = family_stack(rng, w.m, w.n, w.d, w.eps)
        files[f"family-{i}.json"] = _dump(_frames_doc(stack))
        if w.kind != "queries":
            continue
        ops = np.eye(w.d) + OPERATOR_EPS * rng.standard_normal((w.m, w.d, w.d))
        perturbed = stack + PERTURBED_EPS * rng.standard_normal(stack.shape)
        coeffs = rng.standard_normal((w.d, w.n - w.d))
        files[f"operators-{i}.json"] = _dump({"operators": ops.tolist()})
        files[f"perturbed-{i}.json"] = _dump(_frames_doc(perturbed))
        files[f"coefficients-{i}.json"] = _dump({"coefficients": coeffs.tolist()})
        files[f"universal-{i}.json"] = _dump({"universal": list(universal_bounds(stack))})
    return files


def write_inputs(workload: Workload, seed: int, directory: Path):
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in generate(workload, seed).items():
        (directory / name).write_text(text)


def load_stack(path: Path) -> np.ndarray:
    """(m, n, d) vectors of a frame file, read without the package."""
    doc = json.loads(Path(path).read_text())
    return np.array([fr["vectors"] for fr in doc["frames"]], dtype=float)
