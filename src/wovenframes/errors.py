"""Exception hierarchy shared by the whole toolkit.

Every error carries a short machine-readable ``code`` so the CLI can emit a
one-line parsable error field and map all failures to exit code 2.
"""

from __future__ import annotations


class ToolError(Exception):
    """Base class for all toolkit errors."""

    code = "error"

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


class InvalidArgumentError(ToolError):
    code = "invalid-argument"


class ShapeMismatchError(ToolError):
    code = "shape-mismatch"


class IndexOutOfRangeError(ToolError):
    code = "index-out-of-range"


class NoLeftInverseError(ToolError):
    code = "no-left-inverse"


class NotAFrameError(ToolError):
    code = "not-a-frame"


class CapExceededError(ToolError):
    code = "cap-exceeded"


class ConstraintViolatedError(ToolError):
    code = "constraint-violated"


class InvalidParamsError(ToolError):
    code = "invalid-params"


class SingularOperatorError(ToolError):
    code = "singular-operator"


class ParseError(ToolError):
    code = "parse-error"


class DimensionMismatchError(ParseError):
    code = "dimension-mismatch"


class EmptyFamilyError(ParseError):
    code = "empty-family"
