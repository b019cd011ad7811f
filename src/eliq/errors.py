"""Exception types shared across the package."""


class EliqError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(EliqError):
    """Syntax error in a .dlo / .cq / .abox document."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class InvalidArgumentError(EliqError, ValueError):
    """An argument is out of range, such as a negative depth or budget."""


class NotAnEliqError(EliqError):
    """A CQ was required to be tree-shaped (loop-free, multi-edge-free) but is not."""


class UnsatisfiableError(EliqError):
    """An operation required a satisfiable query or ABox."""


class UnsupportedDialectError(EliqError):
    """An operation was invoked on an ontology outside its supported dialects.

    ``reason`` is a machine-readable code (e.g. ``not_f_restricted``);
    ``details`` carries the offending statements when known.
    """

    def __init__(self, reason: str, message: str, details: dict | None = None):
        super().__init__(message)
        self.reason = reason
        self.details = details or {}


class SeedRequiredError(EliqError):
    """No seed query can be constructed automatically (concept disjointness present)."""
