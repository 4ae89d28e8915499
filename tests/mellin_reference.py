"""The Mellin finite part and truncation tail on closure-built nodes.

These are the routes `tracegeo.mellin_fp` ran before its double-exponential
rules read per-process node tables: every node computes sinh, cosh and exp
of its tau through a closure, and every integrand value goes through
`TailFunction.__call__` and `pole_part`, the sum of the pole terms that
`AsymptoticExpansion` had as a method.  The checks, the cutoff search,
the closed forms and their summation order (`_fold`) are the library's
own, so a test that compares the two compares their quadrature alone.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable

from tracegeo.errors import DiagnosticsError, DomainError, NumericError
from tracegeo.mellin_fp import (_BOUNDED_SPAN, _DE_MAX_LEVEL, _DE_MIN_LEVEL,
                                _DE_SPAN, _UNDERFLOW, EULER_GAMMA,
                                DEFAULT_TOL, AsymptoticExpansion,
                                TailFunction, _check_tol, _cutoff, _fold)


def pole_part(exp: AsymptoticExpansion, t: float) -> float:
    try:
        return _fold(c * t ** a for a, c in exp._pole_terms)
    except OverflowError:
        raise exp._overflow(t) from None


def _de_quad(g: Callable[[float], float],
             node: Callable[[float], tuple[float, float]],
             lo: float, hi: float, tol: float) -> float:
    def part(h: float, first: int, step: int) -> float:
        total = 0.0
        for j in range(first, math.floor(hi / h) + 1, step):
            x, w = node(j * h)
            if w:
                total += g(x) * w
        return total

    h = 1.0
    total = part(h, math.ceil(lo), 1)
    value, err = h * total, math.inf
    for level in range(1, _DE_MAX_LEVEL + 1):
        h /= 2
        total += part(h, math.ceil(lo / h) | 1, 2)
        previous, value = value, h * total
        if not math.isfinite(value):
            raise NumericError("quadrature returned a non-finite value")
        last, err = err, abs(value - previous)
        if level >= _DE_MIN_LEVEL and max(last, err) <= tol / 4:
            return value
    raise NumericError(
        f"quadrature did not reach tolerance {tol:.3g} in {_DE_MAX_LEVEL} "
        f"step halvings: the last three levels differ by {last:.3g} and "
        f"{err:.3g}")


def _tanh_sinh(a: float, b: float) -> Callable[[float], tuple[float, float]]:
    def node(tau: float) -> tuple[float, float]:
        u = math.pi / 2 * math.sinh(tau)
        e = math.exp(-2 * abs(u))
        d = (b - a) * e / (1 + e)
        w = (b - a) * math.pi * math.cosh(tau) * e / (1 + e) ** 2
        return (a + d if u < 0 else b - d), w
    return node


def _tail(f: TailFunction, t0: float, tol: float) -> float:
    rate = f.decay[1]
    head = 0.0
    if math.exp(math.pi / 2 * math.sinh(-_DE_SPAN)) / rate > tol * t0:
        head = _de_quad(lambda x: f(math.exp(x)),
                        _tanh_sinh(math.log(t0), -math.log(rate)),
                        -_BOUNDED_SPAN, _BOUNDED_SPAN, tol / 2)
        t0, tol = 1 / rate, tol / 2
    reach = math.log(_UNDERFLOW + rate * max(0.0, 1.0 - t0))

    def node(tau: float) -> tuple[float, float]:
        v = math.exp(math.pi / 2 * math.sinh(tau)) / rate
        return t0 + v, v * math.pi / 2 * math.cosh(tau)

    return head + _de_quad(lambda t: f(t) / t, node, -_DE_SPAN,
                           math.asinh(2 / math.pi * reach), tol)


def fp_mellin(f: TailFunction, exp: AsymptoticExpansion,
              tol: float = DEFAULT_TOL) -> float:
    _check_tol(tol)
    exps = [a for a, _ in exp.terms]
    order = (exps[-1] if exps else Fraction(0)) + exp.remainder_order
    if order <= 0:
        raise DomainError(
            "expansion remainder is not integrable against dt/t; the top "
            "exponent plus remainder_order must be positive")
    f.spot_check_decay()
    t0, rate = exp.valid_to, f.decay[1]
    try:
        rounding = sys.float_info.epsilon * _fold(
            abs(c) * t0 ** a / -a for a, c in exp._pole_terms if a < 0)
    except OverflowError:
        raise exp._overflow(t0) from None
    if rounding > tol / 8 and 1 / rate > t0:
        t0 = 1 / rate
    cutoff, below = _cutoff(f, exp, tol, order, t0)

    c_minus1 = _fold(c for a, c in exp.terms if a == 0)

    def excess(t: float) -> float:
        return f(t) - pole_part(exp, t)

    if cutoff > 0:
        i1 = _de_quad(lambda x: excess(math.exp(x)),
                      _tanh_sinh(math.log(cutoff), math.log(t0)),
                      -_BOUNDED_SPAN, _BOUNDED_SPAN, tol)
    else:
        i1 = _de_quad(lambda t: excess(t) / t, _tanh_sinh(0.0, t0),
                      -_DE_SPAN, _DE_SPAN, tol)
    i2 = _tail(f, t0, tol)

    c0 = c_minus1 * math.log(t0)
    c0 += _fold(c * t0 ** float(a) / float(a) for a, c in exp.terms if a < 0)
    c0 += _fold(c * cutoff ** float(a) / float(a)
                for a, c in exp.terms if a > 0)
    c0 += below + i1 + i2
    return c0 + EULER_GAMMA * c_minus1


def truncation_tail(f: TailFunction, T: float,
                    tol: float = DEFAULT_TOL) -> float:
    _check_tol(tol)
    if not (T >= 1):
        raise DomainError("truncation point must be >= 1")
    f.spot_check_decay()
    value = _tail(f, T, tol)
    c, rate = f.decay
    envelope = c * math.exp(-rate * T) * max(1.0, math.log1p(1.0 / (rate * T)))
    if abs(value) > envelope * (1 + 1e-9) + 1e-15:
        raise DiagnosticsError(
            f"tail integral {value:.6g} violates the decay envelope "
            f"{envelope:.6g}; the declared constants are wrong")
    return value
