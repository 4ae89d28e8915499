"""Exception hierarchy shared by the library and the command-line front end.

Every error the public API raises deliberately is one of these classes, so
callers can distinguish bad input from resource guards from numerical
trouble without string matching.
"""

from __future__ import annotations


class TracegeoError(Exception):
    """Base class for all deliberate errors raised by this package."""


class DomainError(TracegeoError):
    """Input is outside the mathematical domain of the operation."""


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


class NumericError(TracegeoError):
    """A floating-point computation failed to reach the accuracy target."""


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


#: Process exit code used by the CLI for each error class.  More specific
#: classes must precede their bases because the mapping is scanned in order.
EXIT_CODES: list[tuple[type[TracegeoError], int]] = [
    (ResourceLimitError, 3),
    (DiagnosticsError, 4),
    (NumericError, 4),
    (ParseError, 2),
    (DomainError, 2),
]


def exit_code_for(exc: BaseException) -> int:
    """Map an exception to the CLI exit code, defaulting to 1."""
    for cls, code in EXIT_CODES:
        if isinstance(exc, cls):
            return code
    return 1
