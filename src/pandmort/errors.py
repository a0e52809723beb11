"""Exception hierarchy shared by all pandmort modules.  ``exit_code`` is the
CLI's exit status for an error of that class."""


class PandmortError(Exception):
    """Base class for all package errors."""

    exit_code = 4


class ConfigError(PandmortError):
    """Invalid or incomplete run configuration."""

    exit_code = 2


class IngestError(PandmortError):
    """Raw input file cannot be parsed or fails coverage checks."""

    exit_code = 3


class ParseError(PandmortError):
    """A serialized parameter file does not match its schema."""

    exit_code = 3


class ValidationError(PandmortError):
    """A model object violates one of its declared invariants."""


class NumericalError(PandmortError):
    """An iterative solver failed to converge or produced non-finite values."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
