"""Frame-file ingestion and deterministic report serialization.

A frame file is JSON with top-level ``dim`` (integer) and ``frames`` (array of
objects with a ``label`` string and a ``vectors`` array-of-arrays of numbers).
Every matrix entry in every input file must be a JSON number; booleans and
numeric strings are parse errors.
An operators file carries a top-level ``operators`` array of row-major
matrices; a coefficients file a top-level ``coefficients`` matrix.

A report's ``result`` is the object the library returned, and its fields are
that object's fields: a dataclass renders as the dict of its fields, a
Partition as its assignment row and an array as nested lists.  Reports
serialize with sorted keys and shortest round-trip float formatting, so
identical inputs (and seed) give byte-identical output.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

from . import __version__
from .errors import DimensionMismatchError, EmptyFamilyError, ParseError
from .frames import Frame
from .weaving import FrameFamily, Partition


def _load_json(path) -> dict:
    """The top-level object of a JSON file.  Undecodable text, nesting too
    deep for the parser and integers past Python's int-string limit are
    parse errors too, like any other malformed file."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except RecursionError as exc:
        raise ParseError(f"{path}: JSON nested too deeply") from exc
    except ValueError as exc:  # the int-string limit; decode errors are caught above
        raise ParseError(f"{path}: integer entry with too many digits") from exc
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
        # exact types: bool subclasses int, and strings must not pass as numbers
        if any(type(x) not in (int, float) for x in row):
            raise ParseError(f"{where}, row {r}: non-numeric entry")
        try:
            rows.append([float(x) for x in row])
        except OverflowError as exc:
            raise ParseError(f"{where}, row {r}: integer entry too large for a float") from exc
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


def _plain(obj):
    """JSON form of a result object: a Partition is its assignment row, an array
    its nested lists, and any other dataclass the dict of its fields."""
    if isinstance(obj, Partition):
        return obj.assignment
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def render_report(command: str, inputs: dict, result) -> str:
    """Deterministic JSON for one run: stable key order, round-trip floats."""
    doc = {
        "command": command,
        "inputs": inputs,
        "result": result,
        "tool_version": __version__,
    }
    return json.dumps(doc, sort_keys=True, indent=2, default=_plain) + "\n"
