"""Feasibility arithmetic for the closing error-term estimate.

Three error exponents in the level N compete: a spectral one, a heat-range
one, and a truncation one.  Given the decay invariant k and the analytic
constants, the largest workable time-scale slope beta solves a quadratic,
the smallest workable spectral gap follows, and the three exponents can be
checked against -k.

The arithmetic is type generic: float inputs give float answers, while
rational inputs (any numbers.Rational, read as a Fraction) stay exact.
When the discriminant k^2 + 4 C2 C4 Cn^2 is not a rational square, beta
lies in Q(sqrt d) with d = num * den of the discriminant, and the whole
chain runs there in QuadraticSurd.  A surd is held as integers
(p + q sqrt d) / c, normalised once per operation by one gcd, and its
sign is decided by comparing p^2 with q^2 d.  So identities like
e1(beta_max) = -k hold exactly, with no simplifier involved, and a result
whose sqrt part vanishes comes back as a Fraction.  Any other argument
type raises DomainError.
"""

from __future__ import annotations

import math
import numbers
import sys
from fractions import Fraction
from typing import Union

from .errors import DomainError, NumericError
from .value import Value, set_field

Number = Union[int, float, Fraction, "QuadraticSurd"]

# A float c_prime times this Fraction is a float product.
_NUDGE = Fraction(10 ** 9 + 1, 10 ** 9)


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


# The float range as ints: |x| is normal when 2^-1022 <= |x| <= _FLOAT_MAX.
_FLOAT_MAX = int(sys.float_info.max)


def _surd(p: int, q: int, c: int, d: int) -> Fraction | QuadraticSurd:
    """(p + q sqrt(d)) / c for any c != 0, normalised: a Fraction when
    q = 0, else a surd with c > 0 and gcd(p, q, c) = 1."""
    if not q:
        return Fraction(p, c)
    g = math.gcd(p, q, c)
    if c < 0:
        g = -g
    x = object.__new__(QuadraticSurd)
    set_field(x, "p", p // g)
    set_field(x, "q", q // g)
    set_field(x, "c", c // g)
    set_field(x, "d", d)
    return x


class QuadraticSurd(Value):
    """The irrational a + b sqrt(d): rationals a and b != 0 and an integer
    d > 1 that is not a square.  Immutable and hashable.

    It is held as integers (p + q sqrt(d)) / c with c > 0 and gcd(p, q, c)
    = 1, so each operation is a few integer products and one gcd; a and b
    are Fractions made on read.  Values of one field Q(sqrt d) combine
    exactly with each other and with int and Fraction, a result whose
    sqrt part vanishes is a Fraction, and a float operand makes the result
    a float.  The triple (a, b^2 d, sign b) names the number in any
    spelling of d, so equality is exact: sqrt(8) == 2*sqrt(2).
    """

    _fields = ("a", "b", "d")

    def __init__(self, a: Fraction, b: Fraction, d: int):
        a, b = Fraction(a), Fraction(b)
        if not b or not isinstance(d, int) or d < 2 \
                or math.isqrt(d) ** 2 == d:
            raise DomainError("a QuadraticSurd needs b != 0 and an integer "
                              "d > 1 that is not a square")
        # over the lcm of two reduced denominators, gcd(p, q, c) = 1
        c = math.lcm(a.denominator, b.denominator)
        set_field(self, "p", a.numerator * (c // a.denominator))
        set_field(self, "q", b.numerator * (c // b.denominator))
        set_field(self, "c", c)
        set_field(self, "d", d)

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.c)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.c)

    def _key(self) -> tuple[Fraction, Fraction, int]:
        return (self.a, Fraction(self.q * self.q * self.d, self.c * self.c),
                _sgn(self.q))

    def __eq__(self, other):
        # never equal to a rational or a float, since it is irrational
        if isinstance(other, QuadraticSurd):
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __str__(self) -> str:
        a, b = self.a, abs(self.b)
        root = f"sqrt({self.d})" if b == 1 else f"{b}*sqrt({self.d})"
        if not a:
            return root if self.q > 0 else f"-{root}"
        return f"{a} {'+' if self.q > 0 else '-'} {root}"

    def _parts(self, other) -> tuple[int, int, int] | None:
        """other as (p, q, c) over sqrt(self.d); None for a foreign type."""
        if isinstance(other, int):
            return other, 0, 1
        if isinstance(other, Fraction):
            return other.numerator, 0, other.denominator
        if not isinstance(other, QuadraticSurd):
            return None
        if other.d == self.d:
            return other.p, other.q, other.c
        # sqrt(e) = s sqrt(d) / d when d e = s^2: the same field
        s = math.isqrt(self.d * other.d)
        if s * s != self.d * other.d:
            raise DomainError(f"sqrt({self.d}) and sqrt({other.d}) lie in "
                              "different quadratic fields")
        return other.p * self.d, other.q * s, other.c * self.d

    def __neg__(self) -> QuadraticSurd:
        return _surd(-self.p, -self.q, self.c, self.d)

    def __add__(self, other):
        if isinstance(other, float):
            return float(self) + other
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        p, q, c = parts
        return _surd(self.p * c + p * self.c, self.q * c + q * self.c,
                     self.c * c, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, float):
            return float(self) * other
        parts = self._parts(other)
        if parts is None:
            return NotImplemented
        p, q, c = parts
        return _surd(self.p * p + self.q * q * self.d, self.p * q + self.q * p,
                     self.c * c, self.d)

    __rmul__ = __mul__

    def _inverse(self) -> QuadraticSurd:
        # c / (p + q sqrt d) = c (p - q sqrt d) / (p^2 - q^2 d); the norm
        # vanishes only at 0, since d is not a square
        return _surd(self.c * self.p, -self.c * self.q,
                     self.p * self.p - self.q * self.q * self.d, self.d)

    def __truediv__(self, other):
        if isinstance(other, float):
            return float(self) / other
        if isinstance(other, QuadraticSurd):
            return self * other._inverse()
        if isinstance(other, (int, Fraction)):
            return self * Fraction(other.denominator, other.numerator)
        return NotImplemented

    def __rtruediv__(self, other):
        return self._inverse() * other

    def sign(self) -> int:
        p, q = self.p, self.q
        sa, sb = _sgn(p), _sgn(q)
        if sa in (0, sb):
            return sb
        return sa if p * p > q * q * self.d else sb

    def __float__(self) -> float:
        # sqrt(d) to 128 fractional bits, root / scale; with opposite
        # signs go through the conjugate, (a^2 - b^2 d) / (a - b sqrt d),
        # which does not cancel.  The int division then rounds the exact
        # ratio once.  A value beyond the normal float range is an error,
        # never a printed 0 or inf.
        p, q, c, d = self.p, self.q, self.c, self.d
        root, scale = math.isqrt(d << 256), 1 << 128
        if p * q >= 0:
            num, den = p * scale + q * root, c * scale
        else:
            num, den = (p * p - q * q * d) * scale, c * (p * scale - q * root)
        if den < 0:
            num, den = -num, -den
        if abs(num) << 1022 < den or abs(num) > _FLOAT_MAX * den:
            from decimal import Context, Decimal
            digits = Context(prec=15).divide(Decimal(num), Decimal(den))
            raise NumericError(f"{digits.normalize():g} lies outside the "
                               "float range")
        return num / den


def _number(name: str, x) -> Fraction | float | QuadraticSurd:
    """x as the budget computes with it, or a DomainError naming name."""
    if isinstance(x, (Fraction, float, QuadraticSurd)):
        return x
    if isinstance(x, numbers.Rational):
        return Fraction(int(x.numerator), int(x.denominator))
    raise DomainError(f"{name} must be a rational, a float or a "
                      f"QuadraticSurd, not {type(x).__name__}")


def _sqrt(x: Fraction | QuadraticSurd) -> Fraction | QuadraticSurd:
    if isinstance(x, QuadraticSurd):
        raise DomainError(f"sqrt({x}) lies outside Q(sqrt d)")
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return _surd(0, 1, d, n * d)


def _le(a: Number, b: Number) -> bool:
    """a <= b, decided exactly in Q(sqrt d)."""
    if isinstance(a, QuadraticSurd) or isinstance(b, QuadraticSurd):
        diff = a - b
        return diff.sign() <= 0 if isinstance(diff, QuadraticSurd) \
            else diff <= 0
    return a <= b


def _sign(x: Number) -> int:
    """The sign of x, decided exactly; 0 for NaN."""
    if isinstance(x, QuadraticSurd):
        return x.sign()
    return _sgn(x.numerator if isinstance(x, Fraction) else x)


def _require(name: str, x, nonnegative: bool = False) -> Number:
    """x as a number, finite and positive (or nonnegative), exactly."""
    x = _number(name, x)
    if isinstance(x, float) and not math.isfinite(x):
        raise DomainError(f"{name} must be finite")
    if _sign(x) < (0 if nonnegative else 1):
        raise DomainError(f"{name} must be "
                          + ("nonnegative" if nonnegative else "positive"))
    return x


def _check_epsilon(epsilon) -> Number:
    eps = _number("epsilon", epsilon)
    if _sign(eps) <= 0 or _sign(1 - eps) <= 0:
        raise DomainError("epsilon must lie in (0, 1)")
    return eps


class BudgetParams(Value):
    """Inputs of the feasibility check.

    lam is the spectral gap (the name lambda is reserved in Python);
    b_conj and m_nonarch are the log-power contributions carried into the
    reported total log-exponent.
    """

    _fields = ("k", "lam", "epsilon", "C2", "C4", "Cn", "c_prime", "beta",
               "b_conj", "m_nonarch")

    def __init__(self, k: Number, lam: Number, epsilon: Number, C2: Number,
                 C4: Number, Cn: Number, c_prime: Number, beta: Number,
                 b_conj: Number = 0, m_nonarch: Number = 0):
        set_field(self, "k", k)
        set_field(self, "lam", lam)
        set_field(self, "epsilon", epsilon)
        set_field(self, "C2", C2)
        set_field(self, "C4", C4)
        set_field(self, "Cn", Cn)
        set_field(self, "c_prime", c_prime)
        set_field(self, "beta", beta)
        set_field(self, "b_conj", b_conj)
        set_field(self, "m_nonarch", m_nonarch)
        for name in ("k", "lam", "C2", "C4", "Cn", "beta"):
            _require(name, getattr(self, name))
        _check_epsilon(self.epsilon)
        for name in ("c_prime", "b_conj", "m_nonarch"):
            _require(name, getattr(self, name), nonnegative=True)


def beta_max(C2: Number, C4: Number, Cn: Number, k: Number) -> Number:
    """Largest beta with -C4 Cn^2 / beta + C2 beta <= -k.

    The constraint holds with equality here: beta solves
    C2 beta^2 + k beta - C4 Cn^2 = 0.
    """
    C2, C4, Cn = (_require(name, v)
                  for name, v in (("C2", C2), ("C4", C4), ("Cn", Cn)))
    k = _require("k", k, nonnegative=True)
    if any(isinstance(v, float) for v in (C2, C4, Cn, k)):
        # The root 2 C4 Cn^2 / (k + sqrt(k^2 + 4 C2 C4 Cn^2)) divided through
        # by s = 2 sqrt(C2 C4) Cn.  With x = k / s formed by divisions alone,
        # no step leaves the float range before a root that fits does.
        c2, c4, cn, kk = map(float, (C2, C4, Cn, k))
        x = kk / 2 / math.sqrt(c2) / math.sqrt(c4) / cn
        return math.sqrt(c4) / math.sqrt(c2) * cn / (x + math.hypot(1, x))
    root = _sqrt(k * k + 4 * C2 * C4 * Cn * Cn)
    return (-k + root) / (2 * C2)


def lambda_min(k: Number, beta: Number, epsilon: Number,
               c_prime: Number) -> Number:
    """Smallest spectral gap meeting gap*(1-epsilon)*beta >= k, kept
    strictly above c_prime by a relative nudge of 1e-9.  A float gap
    beyond the float range raises NumericError."""
    k = _require("k", k)
    beta = _number("beta", beta)
    if _sign(beta) <= 0:
        raise DomainError("beta must be positive")
    epsilon = _check_epsilon(epsilon)
    c_prime = _require("c_prime", c_prime, nonnegative=True)
    base = k / ((1 - epsilon) * beta)
    nudged = c_prime * _NUDGE
    lam = nudged if _le(base, nudged) else base
    if isinstance(lam, float) and not math.isfinite(lam):
        raise NumericError("lambda = k / ((1 - epsilon) beta) overflows "
                           "the float range")
    return lam


class ExponentReport(Value):
    _fields = ("e_spec", "e1", "e2", "all_ok")

    def __init__(self, e_spec: Number, e1: Number, e2: Number, all_ok: bool):
        set_field(self, "e_spec", e_spec)
        set_field(self, "e1", e1)
        set_field(self, "e2", e2)
        set_field(self, "all_ok", all_ok)


def exponents(p: BudgetParams) -> ExponentReport:
    """The three level exponents and whether each clears -k.  A float
    exponent beyond the float range raises NumericError naming it."""
    k, lam, eps, C2, C4, Cn, beta = (
        _number(name, getattr(p, name))
        for name in ("k", "lam", "epsilon", "C2", "C4", "Cn", "beta"))
    e_spec = -lam * (1 - eps) * beta
    # C4 Cn / beta before the last Cn: C4 Cn^2 alone can overflow a float.
    e1 = -(C4 * Cn / beta) * Cn + C2 * beta
    e2 = -lam * beta
    for name, e in (("e_spec", e_spec), ("e1", e1), ("e2", e2)):
        if isinstance(e, float) and not math.isfinite(e):
            raise NumericError(f"exponent {name} overflows the float range")
    ok = all(_le(e, -k) for e in (e_spec, e1, e2))
    return ExponentReport(e_spec=e_spec, e1=e1, e2=e2, all_ok=ok)


def a_exponent(p: BudgetParams) -> Number:
    """Total log-power carried by the budget: the conjectured coefficient
    power plus the orbital-bound power."""
    return p.b_conj + p.m_nonarch


def total_envelope(N: int, k: Number, a: Number, vol: Number) -> float:
    """vol * N^{-k} * (log N)^a for a level N >= 2."""
    if not isinstance(N, int) or N < 2:
        raise DomainError("level must be an integer >= 2")
    k = _require("k", k)
    a = _require("a", a, nonnegative=True)
    vol = _require("vol", vol)
    return float(vol) * float(N) ** -float(k) * math.log(N) ** float(a)
