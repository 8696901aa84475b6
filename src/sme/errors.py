"""Exception hierarchy shared across the package, and the CLI's exit codes.

Each class carries the code ``sme`` exits with when it ends a command:
EXIT_DATA for data errors and by default, EXIT_USAGE for ConfigError,
EXIT_NUMERIC for NumericalError and MetricError.
"""

EXIT_USAGE = 2     # bad flags or settings, or sizes that do not fit in memory
EXIT_DATA = 3      # unreadable, malformed or inconsistent data
EXIT_NUMERIC = 4   # a non-finite value or an undefined metric


class SmeError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = EXIT_DATA


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

    exit_code = EXIT_USAGE


class NumericalError(SmeError):
    """A non-finite value appeared where finiteness is required."""

    exit_code = EXIT_NUMERIC


class MetricError(SmeError):
    """A metric is undefined for the given inputs (e.g. single-class labels)."""

    exit_code = EXIT_NUMERIC
