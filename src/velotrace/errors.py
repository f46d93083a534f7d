"""Exception hierarchy shared across the pipeline.

The CLI maps these onto exit codes: missing input files -> 2, data/schema
problems -> 3, training failures -> 4, everything else -> 1.
"""


class VelotraceError(Exception):
    """Base class for all errors raised by this package."""


class MissingInputError(VelotraceError):
    """A required input file or upstream artifact does not exist."""

    def __init__(self, path, message=None):
        self.path = str(path)
        super().__init__(message or f"missing input file: {path}")


class DataError(VelotraceError):
    """Input data violates a documented schema or value contract."""


class ParseError(DataError):
    """A row could not be parsed; carries the 1-based line number."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class RangeError(DataError):
    """A numeric field is outside its valid range."""

    def __init__(self, line, message):
        self.line = line
        super().__init__(f"line {line}: {message}")


class SchemaError(DataError):
    """File-level schema violation (bad header, half-present coordinate, ...)."""


class InputError(DataError):
    """Model training input is unusable (non-finite values, too short, ...)."""


class ParameterError(VelotraceError):
    """An operation was called with invalid parameters."""


class TrainingError(VelotraceError):
    """Model training failed (diverged, produced non-finite loss)."""
