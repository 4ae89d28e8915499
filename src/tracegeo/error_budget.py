"""Feasibility arithmetic for the closing error-term estimate.

Three error exponents in the level N compete: a spectral one, a heat-range
one, and a truncation one.  Given the decay invariant k and the analytic
constants, the largest workable time-scale slope beta solves a quadratic,
the smallest workable spectral gap follows, and the three exponents can be
checked against -k.

The arithmetic is type generic: float inputs give float answers, while
int/Fraction inputs stay exact.  When the discriminant k^2 + 4 C2 C4 Cn^2
is not a rational square, beta lies in Q(sqrt d) with d = num * den of the
discriminant, and the whole chain runs there in a small a + b sqrt(d) type
whose signs are decided by comparing a^2 with b^2 d.  So identities like
e1(beta_max) = -k hold exactly, with no simplifier involved.  sympy appears
only at the API edge: such a beta is returned as
Rational(a) + Rational(b)*sqrt(Integer(d)), and a sympy argument must be a
Rational or of that form; anything else raises DomainError.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import DomainError, NumericError

Number = Union[int, float, Fraction, "sympy.Expr"]

_NUDGE_NUM = 10 ** 9 + 1
_NUDGE_DEN = 10 ** 9


def _sgn(x) -> int:
    return (x > 0) - (x < 0)


class _Surd:
    """a + b sqrt(d): Fractions a, b and a non-square integer d > 1.

    Values of one field Q(sqrt d) combine exactly with each other and with
    int and Fraction; a float operand makes the result a float.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, a, b, d: int):
        self.a, self.b, self.d = Fraction(a), Fraction(b), d

    def _parts(self, other) -> tuple[Fraction, Fraction]:
        if not isinstance(other, _Surd):
            return Fraction(other), Fraction(0)
        if other.d == self.d:
            return other.a, other.b
        # sqrt(e) = s sqrt(d) / d when d e = s^2: the same field
        s = math.isqrt(self.d * other.d)
        if s * s != self.d * other.d:
            raise DomainError(f"sqrt({self.d}) and sqrt({other.d}) lie in "
                              "different quadratic fields")
        return other.a, other.b * Fraction(s, self.d)

    def __neg__(self) -> _Surd:
        return _Surd(-self.a, -self.b, self.d)

    def __add__(self, other):
        if isinstance(other, float):
            return float(self) + other
        a, b = self._parts(other)
        return _Surd(self.a + a, self.b + b, self.d)

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        if isinstance(other, float):
            return float(self) * other
        a, b = self._parts(other)
        return _Surd(self.a * a + self.b * b * self.d,
                     self.a * b + self.b * a, self.d)

    __rmul__ = __mul__

    def _inverse(self) -> _Surd:
        # the norm a^2 - b^2 d vanishes only at 0, since d is not a square
        norm = self.a * self.a - self.b * self.b * self.d
        return _Surd(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other):
        if isinstance(other, float):
            return float(self) / other
        if isinstance(other, _Surd):
            return self * other._inverse()
        return self * (1 / Fraction(other))

    def __rtruediv__(self, other):
        return self._inverse() * other

    def sign(self) -> int:
        sa, sb = _sgn(self.a), _sgn(self.b)
        if sa == sb or sb == 0:
            return sa
        if sa == 0:
            return sb
        return sa if self.a * self.a > self.b * self.b * self.d else sb

    def __float__(self) -> float:
        # sqrt(d) to 128 fractional bits; with opposite signs go through
        # the conjugate, (a^2 - b^2 d) / (a - b sqrt d), which does not
        # cancel.  float(Fraction) then rounds once.  A value beyond the
        # normal float range is an error, never a printed 0 or inf.
        root = Fraction(math.isqrt(self.d << 256), 1 << 128)
        if self.a * self.b >= 0:
            q = self.a + self.b * root
        else:
            q = (self.a * self.a - self.b * self.b * self.d) \
                / (self.a - self.b * root)
        if not sys.float_info.min <= abs(q) <= sys.float_info.max:
            from decimal import Context, Decimal
            digits = Context(prec=15).divide(Decimal(q.numerator),
                                             Decimal(q.denominator))
            raise NumericError(f"{digits.normalize():g} lies outside the "
                               "float range")
        return float(q)


def _read(x):
    """A sympy argument in internal form: Rational gives a Fraction and
    Rational + Rational*sqrt(Integer) a _Surd.  Python numbers pass."""
    sympy = sys.modules.get("sympy")
    if sympy is None or not isinstance(x, sympy.Basic):
        return x
    if x.is_Rational:
        return Fraction(int(x.p), int(x.q))
    a, rest = x.as_coeff_Add()
    b, root = rest.as_coeff_Mul()
    if not (a.is_Rational and b.is_Rational and root.is_Pow
            and root.base.is_Integer and root.base > 1
            and root.exp == sympy.S.Half):
        raise DomainError(f"{x} is not of the form a + b*sqrt(d) with "
                          "rational a, b and an integer d")
    a, b, d = Fraction(int(a.p), int(a.q)), Fraction(int(b.p), int(b.q)), \
        int(root.base)
    s = math.isqrt(d)
    return a + b * s if s * s == d else _Surd(a, b, d)


def _to_sympy(x):
    """The public form of a _Surd (Rational when the sqrt part vanishes);
    other values pass."""
    if not isinstance(x, _Surd):
        return x
    import sympy
    a = sympy.Rational(x.a.numerator, x.a.denominator)
    if x.b == 0:
        return a
    b = sympy.Rational(x.b.numerator, x.b.denominator)
    try:
        surd = b * sympy.sqrt(sympy.Integer(x.d))
    except ValueError:
        # sympy's perfect-power test can fail on a large d (1.14 raises
        # from its factor cache).  The unevaluated root is the same number
        # and _read reads it back.
        root = sympy.Pow(sympy.Integer(x.d), sympy.S.Half, evaluate=False)
        surd = sympy.Mul(b, root, evaluate=False)
    # (a, surd) is already sympy's canonical order for a + surd; skipping
    # Add.flatten skips its first-use import of sympy.tensor (about 50 ms).
    return sympy.Add(a, surd, evaluate=False) if a else surd


def _approx(x: Number) -> float:
    return float(_read(x))


def _sqrt(x: Number) -> Fraction | _Surd:
    if isinstance(x, _Surd):
        if x.b:
            raise DomainError(f"sqrt({_to_sympy(x)}) lies outside Q(sqrt d)")
        x = x.a
    fr = Fraction(x)
    n, d = fr.numerator, fr.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return _Surd(0, Fraction(1, d), n * d)


def _le(a: Number, b: Number) -> bool:
    """a <= b, decided exactly in Q(sqrt d)."""
    if isinstance(a, _Surd) or isinstance(b, _Surd):
        diff = a - b
        return diff.sign() <= 0 if isinstance(diff, _Surd) else diff <= 0
    return a <= b


def _sign(x: Number) -> int:
    """The sign of x, decided exactly; 0 for NaN."""
    x = _read(x)
    return x.sign() if isinstance(x, _Surd) else _sgn(x)


def _check_finite(name: str, x: Number) -> None:
    if isinstance(x, float) and not math.isfinite(x):
        raise DomainError(f"{name} must be finite")


def _require(name: str, x: Number, nonnegative: bool = False) -> None:
    """x must be finite and positive (or nonnegative), decided exactly."""
    _check_finite(name, x)
    if _sign(x) < (0 if nonnegative else 1):
        raise DomainError(f"{name} must be "
                          + ("nonnegative" if nonnegative else "positive"))


def _check_epsilon(epsilon: Number) -> None:
    eps = _read(epsilon)
    if _sign(eps) <= 0 or _sign(1 - eps) <= 0:
        raise DomainError("epsilon must lie in (0, 1)")


@dataclass(frozen=True)
class BudgetParams:
    """Inputs of the feasibility check.

    lam is the spectral gap (the name lambda is reserved in Python);
    b_conj and m_nonarch are the log-power contributions carried into the
    reported total log-exponent.
    """

    k: Number
    lam: Number
    epsilon: Number
    C2: Number
    C4: Number
    Cn: Number
    c_prime: Number
    beta: Number
    b_conj: Number = 0
    m_nonarch: Number = 0

    def __post_init__(self):
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
    C2, C4, Cn, k = map(_read, (C2, C4, Cn, k))
    for name, v in (("C2", C2), ("C4", C4), ("Cn", Cn)):
        _require(name, v)
    _require("k", k, nonnegative=True)
    if any(isinstance(v, float) for v in (C2, C4, Cn, k)):
        # The cancellation-free root 2 C4 Cn^2 / (k + D) with
        # D = sqrt(k^2 + 4 C2 C4 Cn^2).  hypot never forms k^2 or
        # C2 C4 Cn^2, halving keeps k + D finite, and dividing before the
        # last factor Cn keeps C4 Cn^2 from being formed.
        c2, c4, cn, kk = map(_approx, (C2, C4, Cn, k))
        d = math.hypot(kk, 2 * math.sqrt(c2) * math.sqrt(c4) * cn)
        return c4 * cn / (kk / 2 + d / 2) * cn
    root = _sqrt(k * k + 4 * C2 * C4 * Cn * Cn)
    return _to_sympy((-k + root) / (2 * C2))


def lambda_min(k: Number, beta: Number, epsilon: Number,
               c_prime: Number) -> Number:
    """Smallest spectral gap meeting gap*(1-epsilon)*beta >= k, kept
    strictly above c_prime by a relative nudge of 1e-9.  A float gap
    beyond the float range raises NumericError."""
    k, beta, epsilon, c_prime = map(_read, (k, beta, epsilon, c_prime))
    _require("k", k)
    if _sign(beta) <= 0:
        raise DomainError("beta must be positive")
    _check_epsilon(epsilon)
    _require("c_prime", c_prime, nonnegative=True)
    base = k / ((1 - epsilon) * beta)
    if isinstance(c_prime, float):
        nudged = c_prime * (1 + 1e-9)
    else:
        nudged = c_prime * Fraction(_NUDGE_NUM, _NUDGE_DEN)
    lam = nudged if _le(base, nudged) else base
    if isinstance(lam, float) and not math.isfinite(lam):
        raise NumericError("lambda = k / ((1 - epsilon) beta) overflows "
                           "the float range")
    return _to_sympy(lam)


@dataclass(frozen=True)
class ExponentReport:
    e_spec: Number
    e1: Number
    e2: Number
    all_ok: bool


def exponents(p: BudgetParams) -> ExponentReport:
    """The three level exponents and whether each clears -k."""
    k, lam, eps, C2, C4, Cn, beta = map(_read, (p.k, p.lam, p.epsilon, p.C2,
                                                p.C4, p.Cn, p.beta))
    e_spec = -lam * (1 - eps) * beta
    e1 = -C4 * Cn * Cn / beta + C2 * beta
    e2 = -lam * beta
    ok = all(_le(e, -k) for e in (e_spec, e1, e2))
    return ExponentReport(e_spec=_to_sympy(e_spec), e1=_to_sympy(e1),
                          e2=_to_sympy(e2), all_ok=ok)


def a_exponent(p: BudgetParams) -> Number:
    """Total log-power carried by the budget: the conjectured coefficient
    power plus the orbital-bound power."""
    return p.b_conj + p.m_nonarch


def total_envelope(N: int, k: Number, a: Number, vol: Number) -> float:
    """vol * N^{-k} * (log N)^a for a level N >= 2."""
    if not isinstance(N, int) or N < 2:
        raise DomainError("level must be an integer >= 2")
    _require("k", k)
    _require("a", a, nonnegative=True)
    _require("vol", vol)
    return _approx(vol) * float(N) ** (-_approx(k)) * math.log(N) ** _approx(a)
