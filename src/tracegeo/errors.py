"""Exception hierarchy shared by the library and the command-line front end,
and the one reader of number text.

Every error the public API raises deliberately is one of these classes, so
callers can distinguish bad input from resource guards from numerical
trouble without string matching.  _read_int and _read_number read every
integer and number that comes as text, from a CLI flag, a JSON spec, a
simple-type name or a library string; each refusal names what it read and
quotes the text through _clip.
"""

from __future__ import annotations

import re


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


# Python refuses int/str conversions past 4300 digits, so every decimal
# integer of a flag, a group spec or a number passes _read_int, which stops
# a longer string before int() sees it.  The margin keeps a small multiple of a value printable.
MAX_DIGITS = 1000


def _read_int(text: str, flag: str, limit: int | None = None,
              offset: int | None = None) -> int:
    """A string of decimal digits as an int; each error names flag.

    Past MAX_DIGITS digits this raises ParseError, or ResourceLimitError
    where limit, the library's size guard, applies and text has more
    digits than limit.
    """
    if not (text.isascii() and text.isdigit()):
        raise ParseError(f"{flag} wants a nonnegative integer, got "
                         f"{_clip(repr(text))}", offset=offset)
    digits = text.lstrip("0")
    if limit is not None and len(digits) > len(str(limit)):
        raise ResourceLimitError(f"{flag}: values are limited to {limit}; "
                                 f"got a {len(digits)}-digit value")
    if len(digits) > MAX_DIGITS:
        raise ParseError(f"{flag}: at most {MAX_DIGITS} digits are read; "
                         f"got {len(digits)}", offset=offset)
    return int(digits or "0")


# The one grammar of a number read from text, after an optional sign: a/b,
# or digits with an optional decimal fraction and exponent ("3", "-.5",
# "0.1", "1e-3"); no whitespace, underscores, hex, inf or nan.
_NUMBER = re.compile(r"(?:(\d+)/(\d+)|(?=\.?\d)(\d*)\.?(\d*)"
                     r"(?:[eE]([-+]?)(\d+))?)\Z", re.ASCII)


def _read_number(text: str, name: str):
    """The exact rational that text spells, as a Fraction; each error names
    name.  Its numerator and denominator may each spell MAX_DIGITS digits,
    exponents counted; a longer one is refused before it is built."""
    from fractions import Fraction
    m = _NUMBER.match(text, 1 if text[:1] in ("-", "+") else 0)
    if m is None or m[2] is not None and not m[2].strip("0"):
        raise ParseError(f"{name} expects a number, got {_clip(repr(text))}")
    num, den, whole, frac, exp_sign, exp = m.groups()
    if num is None:
        num = (whole + frac).lstrip("0") or "0"
        shift = 0 if num == "0" else -len(frac) + \
            _read_int(exp or "0", name) * (-1 if exp_sign == "-" else 1)
        n = len(num) + shift if shift > 0 else 1 - shift
        if n > MAX_DIGITS:
            raise ParseError(f"{name}: at most {MAX_DIGITS} digits are read; "
                             f"got {n}")
        num, den = num + "0" * max(shift, 0), "1" + "0" * max(-shift, 0)
    x = Fraction(_read_int(num, name), _read_int(den, name))
    return -x if text[:1] == "-" else x
