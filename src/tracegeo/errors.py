"""Exception hierarchy shared by the library and the command-line front end.

Every error the public API raises deliberately is one of these classes, so
callers can distinguish bad input from resource guards from numerical
trouble without string matching.
"""

from __future__ import annotations


class TracegeoError(Exception):
    """Base class for all deliberate errors raised by this package.

    exit_code is the CLI's process exit code for the class; subclasses
    inherit their base's.
    """

    exit_code = 1


class DomainError(TracegeoError):
    """Input is outside the mathematical domain of the operation."""

    exit_code = 2


class ParseError(DomainError):
    """Textual input could not be parsed.

    Carries an optional byte offset into the original string so the CLI
    can point at the offending character.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (at byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ResourceLimitError(TracegeoError):
    """A size guard tripped before a computation that would not finish."""

    exit_code = 3


class NumericError(TracegeoError):
    """A floating-point computation failed to reach the accuracy target."""

    exit_code = 4


class DiagnosticsError(NumericError):
    """A self-check on numerical input data failed.

    Raised when supplied data is internally inconsistent (for example an
    asymptotic expansion that does not actually match its function), as
    opposed to a quadrature that merely failed to converge.
    """


# A refused input is quoted to at most this many characters, so that a
# refusal of a huge input stays one short line.
QUOTE_LIMIT = 40


def _clip(shown: str) -> str:
    """A quoted input whole, or cut to QUOTE_LIMIT characters with its
    full length."""
    if len(shown) <= QUOTE_LIMIT:
        return shown
    return f"{shown[:QUOTE_LIMIT]}... ({len(shown)} characters)"


def exit_code_for(exc: BaseException) -> int:
    """The CLI exit code of an exception: its class's exit_code, else 1."""
    return getattr(exc, "exit_code", 1)
