"""Feasibility arithmetic for the closing error-term estimate.

Three error exponents in the level N compete: a spectral one, a heat-range
one, and a truncation one.  Given the decay invariant k and the analytic
constants, the largest workable time-scale slope beta solves a quadratic,
the smallest workable spectral gap follows, and the three exponents can be
checked against -k.

The arithmetic is type generic: float inputs give float answers, while
int/Fraction inputs stay exact (falling back to symbolic square roots when
the discriminant is not a perfect square), so identities like
e1(beta_max) = -k hold exactly, not just to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import sympy

from .errors import DomainError

Number = Union[int, float, Fraction, sympy.Expr]

_NUDGE_NUM = 10 ** 9 + 1
_NUDGE_DEN = 10 ** 9


def _is_exact(x: Number) -> bool:
    return isinstance(x, (int, Fraction)) or isinstance(x, sympy.Expr)


def _approx(x: Number) -> float:
    if isinstance(x, sympy.Expr):
        return float(x.evalf())
    return float(x)


def _sqrt(x: Number) -> Number:
    if isinstance(x, float):
        return math.sqrt(x)
    if isinstance(x, sympy.Expr):
        return sympy.sqrt(x)
    fr = Fraction(x)
    rn, rd = math.isqrt(fr.numerator), math.isqrt(fr.denominator)
    if rn * rn == fr.numerator and rd * rd == fr.denominator:
        return Fraction(rn, rd)
    return sympy.sqrt(sympy.Rational(fr.numerator, fr.denominator))


def _le(a: Number, b: Number) -> bool:
    """a <= b, decided exactly when symbolic values are involved."""
    if isinstance(a, sympy.Expr) or isinstance(b, sympy.Expr):
        diff = sympy.simplify(sympy.sympify(a) - sympy.sympify(b))
        if diff.is_number:
            return bool(diff <= 0)
        raise DomainError(f"cannot compare symbolic value {diff}")
    return a <= b


def _positive(x: Number) -> bool:
    return _approx(x) > 0


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
            if not _positive(getattr(self, name)):
                raise DomainError(f"{name} must be positive")
        eps = _approx(self.epsilon)
        if not (0 < eps < 1):
            raise DomainError("epsilon must lie in (0, 1)")
        if _approx(self.c_prime) < 0:
            raise DomainError("c_prime must be nonnegative")
        for name in ("b_conj", "m_nonarch"):
            if _approx(getattr(self, name)) < 0:
                raise DomainError(f"{name} must be nonnegative")


def beta_max(C2: Number, C4: Number, Cn: Number, k: Number) -> Number:
    """Largest beta with -C4 Cn^2 / beta + C2 beta <= -k.

    The constraint holds with equality here: beta solves
    C2 beta^2 + k beta - C4 Cn^2 = 0.
    """
    for name, v in (("C2", C2), ("C4", C4), ("Cn", Cn)):
        if not _positive(v):
            raise DomainError(f"{name} must be positive")
    if _approx(k) < 0:
        raise DomainError("k must be nonnegative")
    if any(isinstance(v, float) for v in (C2, C4, Cn, k)):
        # The cancellation-free root 2 C4 Cn^2 / (k + D) with
        # D = sqrt(k^2 + 4 C2 C4 Cn^2).  hypot never forms k^2 or
        # C2 C4 Cn^2, halving keeps k + D finite, and dividing before the
        # last factor Cn keeps C4 Cn^2 from being formed.
        c2, c4, cn, kk = map(_approx, (C2, C4, Cn, k))
        d = math.hypot(kk, 2 * math.sqrt(c2) * math.sqrt(c4) * cn)
        return c4 * cn / (kk / 2 + d / 2) * cn
    disc = k * k + 4 * C2 * C4 * Cn * Cn
    root = _sqrt(disc)
    if isinstance(root, sympy.Expr):
        return sympy.simplify((-sympy.sympify(k) + root) / (2 * sympy.sympify(C2)))
    return (-k + root) / (2 * Fraction(C2))


def lambda_min(k: Number, beta: Number, epsilon: Number,
               c_prime: Number) -> Number:
    """Smallest spectral gap meeting gap*(1-epsilon)*beta >= k, kept
    strictly above c_prime by a relative nudge of 1e-9."""
    if not _positive(k) or not _positive(beta):
        raise DomainError("k and beta must be positive")
    eps = _approx(epsilon)
    if not (0 < eps < 1):
        raise DomainError("epsilon must lie in (0, 1)")
    if _approx(c_prime) < 0:
        raise DomainError("c_prime must be nonnegative")
    base = k / ((1 - epsilon) * beta)
    if _is_exact(c_prime):
        nudged = c_prime * Fraction(_NUDGE_NUM, _NUDGE_DEN)
    else:
        nudged = c_prime * (1 + 1e-9)
    return nudged if _le(base, nudged) else base


@dataclass(frozen=True)
class ExponentReport:
    e_spec: Number
    e1: Number
    e2: Number
    all_ok: bool


def exponents(p: BudgetParams) -> ExponentReport:
    """The three level exponents and whether each clears -k."""
    e_spec = -p.lam * (1 - p.epsilon) * p.beta
    e1 = -p.C4 * p.Cn * p.Cn / p.beta + p.C2 * p.beta
    e2 = -p.lam * p.beta
    ok = all(_le(e, -p.k) for e in (e_spec, e1, e2))
    return ExponentReport(e_spec=e_spec, e1=e1, e2=e2, all_ok=ok)


def a_exponent(p: BudgetParams) -> Number:
    """Total log-power carried by the budget: the conjectured coefficient
    power plus the orbital-bound power."""
    return p.b_conj + p.m_nonarch


def total_envelope(N: int, k: Number, a: Number, vol: Number) -> float:
    """vol * N^{-k} * (log N)^a for a level N >= 2."""
    if not isinstance(N, int) or N < 2:
        raise DomainError("level must be an integer >= 2")
    if not _positive(k):
        raise DomainError("k must be positive")
    if _approx(a) < 0:
        raise DomainError("a must be nonnegative")
    if not _positive(vol):
        raise DomainError("vol must be positive")
    return _approx(vol) * float(N) ** (-_approx(k)) * math.log(N) ** _approx(a)
