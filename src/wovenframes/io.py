"""Frame-file ingestion and deterministic report serialization.

A frame file is JSON with top-level ``dim`` (integer) and ``frames`` (array of
objects with a ``label`` string and a ``vectors`` array-of-arrays of decimals).
An operators file carries a top-level ``operators`` array of row-major
matrices; a coefficients file a top-level ``coefficients`` matrix.

Reports serialize with sorted keys and shortest round-trip float formatting,
so identical inputs (and seed) give byte-identical output.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from . import __version__
from .certify import Certificate
from .errors import DimensionMismatchError, EmptyFamilyError, ParseError
from .frames import Bounds, Frame
from .weaving import FrameFamily, Partition, WeavingReport


def _load_json(path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top level must be an object")
    return doc


def _as_float_rows(raw, where: str) -> list[list[float]]:
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{where}: expected a nonempty array of rows")
    rows = []
    for r, row in enumerate(raw):
        if not isinstance(row, list):
            raise ParseError(f"{where}, row {r}: expected an array of numbers")
        try:
            rows.append([float(x) for x in row])
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{where}, row {r}: non-numeric entry") from exc
    return rows


def parse_frame_file(path) -> FrameFamily:
    doc = _load_json(path)
    dim = doc.get("dim")
    if type(dim) is not int or dim < 1:  # exact type: bool subclasses int
        raise ParseError(f"{path}: field 'dim' must be a positive integer")
    raw_frames = doc.get("frames")
    if not isinstance(raw_frames, list):
        raise ParseError(f"{path}: field 'frames' must be an array")
    if not raw_frames:
        raise EmptyFamilyError(f"{path}: 'frames' is empty")
    frames = []
    count = None
    for idx, item in enumerate(raw_frames):
        if not isinstance(item, dict) or "vectors" not in item:
            raise ParseError(f"{path}: frame {idx} must be an object with 'vectors'")
        label = item.get("label")
        if label is not None and not isinstance(label, str):
            raise ParseError(f"{path}: frame {idx}: 'label' must be a string")
        rows = _as_float_rows(item["vectors"], f"{path}: frame {idx}")
        for r, row in enumerate(rows):
            if len(row) != dim:
                raise DimensionMismatchError(
                    f"{path}: frame {idx}, vector {r} has length {len(row)}, expected dim {dim}"
                )
        if count is None:
            count = len(rows)
        elif len(rows) != count:
            raise DimensionMismatchError(
                f"{path}: frame {idx} has {len(rows)} vectors, expected {count}"
            )
        frames.append(Frame(np.array(rows), label=label))
    return FrameFamily(frames)


def parse_operators_file(path) -> list[np.ndarray]:
    doc = _load_json(path)
    raw = doc.get("operators")
    if not isinstance(raw, list) or not raw:
        raise ParseError(f"{path}: field 'operators' must be a nonempty array")
    return [np.array(_as_float_rows(op, f"{path}: operator {i}")) for i, op in enumerate(raw)]


def parse_coefficients_file(path) -> np.ndarray:
    doc = _load_json(path)
    if "coefficients" not in doc:
        raise ParseError(f"{path}: field 'coefficients' is required")
    return np.array(_as_float_rows(doc["coefficients"], f"{path}: coefficients"))


def family_to_dict(family: FrameFamily) -> dict:
    return {
        "dim": family.dim,
        "frames": [frame_to_dict(fr) for fr in family.frames],
    }


def frame_to_dict(frame: Frame) -> dict:
    return {
        "label": frame.label,
        "vectors": [[float(x) for x in row] for row in frame.vectors],
    }


def bounds_to_dict(b: Bounds) -> dict:
    return {"lower": float(b.lower), "upper": float(b.upper)}


def report_to_dict(rep: WeavingReport) -> dict:
    return {
        "woven": rep.woven,
        "universal_lower": float(rep.universal_lower),
        "universal_upper": float(rep.universal_upper),
        "witness_partition": list(rep.witness_partition.assignment),
        "partitions_examined": rep.partitions_examined,
        "mode": rep.mode,
        "seed": rep.seed,
    }


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "method": cert.method,
        "hypothesis_satisfied": cert.hypothesis_satisfied,
        "margins": {k: float(v) for k, v in sorted(cert.margins.items())},
        "guaranteed_lower": None if cert.guaranteed_lower is None else float(cert.guaranteed_lower),
        "guaranteed_upper": None if cert.guaranteed_upper is None else float(cert.guaranteed_upper),
        "notes": cert.notes,
    }


def render_report(command: str, inputs: dict, result: dict) -> str:
    """Deterministic JSON for one run: stable key order, round-trip floats."""
    doc = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "tool_version": __version__,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"
