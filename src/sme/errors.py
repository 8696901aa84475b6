"""Exception hierarchy shared across the package.

Exit-code mapping used by the CLI:
  ConfigError / UsageError /
  MemoryError                     -> 2
  ParseError / IntegrityError /
  OutOfDictionaryError            -> 3
  NumericalError / MetricError    -> 4
"""


class SmeError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(SmeError):
    """Operands have incompatible shapes."""


class LookupIdError(SmeError):
    """A symbol id is outside the dictionary range."""


class OutOfDictionaryError(SmeError):
    """A symbol string is not present in the dictionary."""


class ParseError(SmeError):
    """A data file line could not be parsed."""

    def __init__(self, message, path=None, line_no=None):
        loc = ""
        if path is not None:
            loc = f"{path}:"
        if line_no is not None:
            loc = f"{loc}{line_no}: "
        elif loc:
            loc = f"{loc} "
        super().__init__(f"{loc}{message}")
        self.path = path
        self.line_no = line_no


class IntegrityError(SmeError):
    """The data violates a structural constraint (duplicates, empty file, bad magic)."""


class ConfigError(SmeError):
    """A configuration value is invalid or inconsistent."""


class NumericalError(SmeError):
    """A non-finite value appeared where finiteness is required."""


class MetricError(SmeError):
    """A metric is undefined for the given inputs (e.g. single-class labels)."""
