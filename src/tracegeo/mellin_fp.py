"""Finite parts of Mellin transforms at the origin.

Input data is a function on (0, inf) given by an evaluator with a
certified exponential decay rate for large t, plus a small-t asymptotic
expansion sum a_i t^{alpha_i}.  The transform's Laurent data at the
origin is assembled analytically from the expansion's nonpositive
exponents; only pole-free remainders are integrated numerically.

With M(s) the Mellin integral of f and the normalization 1/(s Gamma(s)),
the finite part at 0 equals c_0 + gamma_E c_{-1}, where c_{-1} is the
coefficient of the exponent-zero term and, for a split point t0,

    c_0 = c_{-1} log t0 + sum_{alpha<0} a t0^alpha / alpha
          + int_0^t0 (f - sum_{alpha<=0} a t^alpha) dt/t
          + int_t0^inf f dt/t.

The t0-dependence cancels exactly; the suite checks that numerically.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from scipy.integrate import quad

from .errors import DiagnosticsError, DomainError, NumericError

EULER_GAMMA = 0.5772156649015329

DEFAULT_TOL = 1e-10

_DECAY_SAMPLES = (1.0, 2.0, 4.0, 8.0, 16.0)


def _to_fraction(x) -> Fraction:
    try:
        return Fraction(x)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise DomainError(f"exponent {x!r} is not an exact rational") from exc


@dataclass(frozen=True)
class AsymptoticExpansion:
    """Small-t expansion sum a_i t^{alpha_i} valid on (0, valid_to].

    Exponents are exact rationals, strictly increasing; the remainder is
    O(t^{alpha_max + remainder_order}).  An empty term list states that f
    itself is O(t^{remainder_order}) near zero.
    """

    terms: tuple[tuple[Fraction, float], ...]
    valid_to: float
    remainder_order: Fraction

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(
            (_to_fraction(a), float(c)) for a, c in self.terms))
        object.__setattr__(self, "remainder_order",
                           _to_fraction(self.remainder_order))
        if not (self.valid_to > 0):
            raise DomainError("valid_to must be positive")
        if self.remainder_order <= 0:
            raise DomainError("remainder_order must be positive")
        exps = [a for a, _ in self.terms]
        if any(y <= x for x, y in zip(exps, exps[1:])):
            raise DomainError("exponents must be strictly increasing")
        for _, c in self.terms:
            if not math.isfinite(c):
                raise DomainError("coefficients must be finite")

    def evaluate(self, t: float) -> float:
        return sum(c * t ** float(a) for a, c in self.terms)

    def pole_part(self, t: float) -> float:
        return sum(c * t ** float(a) for a, c in self.terms if a <= 0)


@dataclass(frozen=True)
class TailFunction:
    """An evaluator on (0, inf) with a certified large-t decay bound:
    |f(t)| <= C e^{-rate t} for t >= 1."""

    evaluator: Callable[[float], float]
    decay: tuple[float, float]  # (C, rate)

    def __post_init__(self):
        c, rate = self.decay
        if not (c > 0 and rate > 0):
            raise DomainError("decay constants must be positive")

    def __call__(self, t: float) -> float:
        return self.evaluator(t)

    def spot_check_decay(self) -> None:
        c, rate = self.decay
        for t in _DECAY_SAMPLES:
            value = self.evaluator(t)
            if not math.isfinite(value):
                raise DiagnosticsError(f"evaluator returned {value} at t={t}")
            bound = c * math.exp(-rate * t) * (1 + 1e-9) + 1e-12
            if abs(value) > bound:
                raise DiagnosticsError(
                    f"declared decay bound fails at t={t}: |f| = "
                    f"{abs(value):.6g} > {bound:.6g}")


def _check_expansion_match(f: TailFunction, exp: AsymptoticExpansion,
                           tol: float) -> None:
    """Sample f minus its claimed expansion on a dyadic grid below the
    validity point; the residual must head to zero."""
    t0 = min(exp.valid_to, 1.0)
    residuals = []
    for j in range(15):
        t = t0 * 2.0 ** (-j)
        h = f(t) - exp.evaluate(t)
        if not math.isfinite(h):
            raise DiagnosticsError(f"non-finite expansion residual at t={t}")
        residuals.append(abs(h))
    atol = max(10 * tol, 1e-9)
    if residuals[7] > atol and residuals[14] > 0.75 * residuals[7] + atol:
        raise DiagnosticsError(
            "expansion does not match the function near zero: residual "
            f"{residuals[7]:.3g} at t={t0 * 2 ** -7:.3g} does not decay "
            f"(still {residuals[14]:.3g} at t={t0 * 2 ** -14:.3g})")


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance must be positive and finite, got {tol!r}")


def _quad(fn: Callable[[float], float], lo: float, hi: float,
          tol: float) -> tuple[float, float]:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            value, err = quad(fn, lo, hi, epsabs=tol / 4, epsrel=tol / 4,
                              limit=200)
        except Exception as exc:
            raise NumericError(f"quadrature failed: {exc}") from exc
    if not math.isfinite(value):
        raise NumericError("quadrature returned a non-finite value")
    return value, err


def fp_mellin(f: TailFunction, exp: AsymptoticExpansion,
              tol: float = DEFAULT_TOL) -> float:
    """Finite part at the origin of the normalized Mellin transform of f."""
    _check_tol(tol)
    exps = [a for a, _ in exp.terms]
    alpha_max = exps[-1] if exps else Fraction(0)
    if alpha_max + exp.remainder_order <= 0:
        raise DomainError(
            "expansion remainder is not integrable against dt/t; the top "
            "exponent plus remainder_order must be positive")
    f.spot_check_decay()
    _check_expansion_match(f, exp, tol)

    t0 = exp.valid_to
    c_minus1 = sum(c for a, c in exp.terms if a == 0)

    def small(t: float) -> float:
        return (f(t) - exp.pole_part(t)) / t

    i1, e1 = _quad(small, 0.0, t0, tol)

    u0 = math.exp(-t0)

    def tail(u: float) -> float:
        t = -math.log(u)
        return f(t) / (t * u)

    i2, e2 = _quad(tail, 0.0, u0, tol)
    if e1 + e2 > tol:
        raise NumericError(
            f"quadrature error estimate {e1 + e2:.3g} exceeds tolerance "
            f"{tol:.3g}")

    c0 = c_minus1 * math.log(t0)
    c0 += sum(c * t0 ** float(a) / float(a) for a, c in exp.terms if a < 0)
    c0 += i1 + i2
    return c0 + EULER_GAMMA * c_minus1


def truncation_tail(f: TailFunction, T: float, tol: float = DEFAULT_TOL) -> float:
    """The tail integral of f dt/t from T on, checked against the decay
    envelope implied by the declared constants.

    The envelope is C e^{-rate T} max(1, log(1 + 1/(rate T))): the exact
    exponential-integral majorant, which reduces to the plain C e^{-rate T}
    whenever rate*T is not small.
    """
    _check_tol(tol)
    if not (T >= 1):
        raise DomainError("truncation point must be >= 1")
    f.spot_check_decay()

    def integrand(u: float) -> float:
        t = T - math.log(u)
        return f(t) / (t * u)

    value, err = _quad(integrand, 0.0, 1.0, tol)
    if err > tol:
        raise NumericError(
            f"quadrature error estimate {err:.3g} exceeds tolerance {tol:.3g}")
    c, rate = f.decay
    envelope = c * math.exp(-rate * T) * max(1.0, math.log1p(1.0 / (rate * T)))
    if abs(value) > envelope * (1 + 1e-9) + 1e-15:
        raise DiagnosticsError(
            f"tail integral {value:.6g} violates the decay envelope "
            f"{envelope:.6g}; the declared constants are wrong")
    return value


def torsion_constant(entries: Sequence[tuple[TailFunction, AsymptoticExpansion]],
                     d: int, tol: float = DEFAULT_TOL) -> float:
    """Alternating degree-weighted quarter-sum of finite parts.

    entries[p-1] describes degree p, for p = 1..d.
    """
    if d < 1:
        raise DomainError("d must be a positive integer")
    if len(entries) != d:
        raise DomainError(f"expected {d} entries, got {len(entries)}")
    total = 0.0
    for p, (f, exp) in enumerate(entries, start=1):
        total += (-1) ** p * p * fp_mellin(f, exp, tol)
    return total / 4.0


# -- stock inputs used by the CLI presets and the test oracles ---------------


def exp_preset(lam: float, t0: float = 1.0,
               order: int = 8) -> tuple[TailFunction, AsymptoticExpansion]:
    """f(t) = e^{-lam t} with its Maclaurin expansion to the given order."""
    if lam <= 0:
        raise DomainError("decay rate must be positive")
    terms = [(Fraction(k), (-lam) ** k / math.factorial(k))
             for k in range(order + 1)]
    f = TailFunction(lambda t: math.exp(-lam * t), (1.0, lam))
    return f, AsymptoticExpansion(tuple(terms), t0, Fraction(1))


def sqrt_exp_preset(t0: float = 1.0,
                    order: int = 8) -> tuple[TailFunction, AsymptoticExpansion]:
    """f(t) = t^{-1/2} e^{-t}; no exponent-zero term, so no pole at 0."""
    terms = [(Fraction(2 * k - 1, 2), (-1.0) ** k / math.factorial(k))
             for k in range(order + 1)]
    f = TailFunction(lambda t: math.exp(-t) / math.sqrt(t), (1.0, 1.0))
    return f, AsymptoticExpansion(tuple(terms), t0, Fraction(1))
