"""Exception types shared across the package."""


class FwAuditError(Exception):
    """Base class for every error this package raises on purpose."""


class ArityError(FwAuditError):
    """Operands disagree on the number of condition attributes."""


class DomainError(FwAuditError):
    """A value or interval falls outside the declared attribute domain."""


class DisjointnessError(FwAuditError):
    """An operation that requires a pairwise-disjoint ruleset got overlaps."""


class ValidationError(FwAuditError):
    """Syntactically fine input with inconsistent values (e.g. a > b)."""


class ParseError(FwAuditError):
    """Malformed rule-file or report input."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")
