"""Exception hierarchy shared across the package, and the CLI's exit codes.

Each class carries the code ``sme`` exits with when it ends a command:
EXIT_DATA for data errors and by default, EXIT_USAGE for ConfigError,
EXIT_NUMERIC for NumericalError and MetricError. An interrupt (SIGINT)
ends a command with EXIT_INTERRUPT, 128 + SIGINT as shells report it.
"""

EXIT_USAGE = 2     # bad flags or settings, or sizes that do not fit in memory
EXIT_DATA = 3      # unreadable, malformed or inconsistent data
EXIT_NUMERIC = 4   # a non-finite value or an undefined metric
EXIT_INTERRUPT = 130   # interrupted: 128 + SIGINT


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
    """A triple file or manifest could not be read: a malformed line, bytes
    that are not UTF-8 text, or a manifest that is not a JSON object of the
    documented keys. The message starts with the file and, for a line, its
    1-based number: ``path:line: reason`` or ``path: reason``."""


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
