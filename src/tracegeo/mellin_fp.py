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

Both integrals use double-exponential rules (Takahasi & Mori, Publ. RIMS
9, 1974) in the standard library: exp-sinh for the tail, scaled by the
declared decay rate, and tanh-sinh for the small-t part above a cutoff
read off the expansion residuals, run in log t so that no scale between
the cutoff and t0 goes unsampled.  Below the cutoff the expansion's
positive-exponent terms are integrated analytically and the remainder by
its leading power, so the cancellation in f minus its pole part near 0
is never sampled.  The node values that depend on tau alone come from
per-process tables, one per rule and halving level, filled as far as a
call reaches: at most 4,609 rows for tanh-sinh (|tau| <= 4.5, mirrored)
and 11,578 for exp-sinh (-4.5 <= tau <= 6.81), 1.3 MB in all.  Every
float sum is a left fold from 0, the builtin sum's order before Python
3.12 compensated it, so a finite part has the same bits on every Python.
"""

from __future__ import annotations

import bisect
import math
import sys
from fractions import Fraction
from typing import Callable, Sequence

from .errors import DiagnosticsError, DomainError, NumericError, _read_number
from .value import Value, set_field

EULER_GAMMA = 0.5772156649015329

DEFAULT_TOL = 1e-10

# The stock presets expand their functions to this order in t.
PRESET_ORDER = 8

_DECAY_SAMPLES = (1.0, 2.0, 4.0, 8.0, 16.0)

# Double-exponential rules: nodes at tau = j h for |tau| <= _DE_SPAN, where
# the weights are below 1e-28 in units of the interval length (or of
# 1/rate), with h halved from 1 at least _DE_MIN_LEVEL and at most
# _DE_MAX_LEVEL times.
_DE_SPAN = 4.5
# Above a positive cutoff the small-t integrand is bounded, and the
# tanh-sinh weights beyond |tau| = 3.5 are below 2e-21 of the interval.
_BOUNDED_SPAN = 3.5
_DE_MIN_LEVEL = 3
_DE_MAX_LEVEL = 10
# The cutoff search halves t from min(valid_to, 1) down to 2^-_CUTOFF_STEPS
# times that.
_CUTOFF_STEPS = 60
# e^{-_UNDERFLOW} is below the smallest positive double.
_UNDERFLOW = 745.0
# The tail rule's last weight is about 5000 / rate, which must stay finite.
_MIN_RATE = 1e-300


def _fold(values) -> float:
    """values added left to right from 0."""
    total = 0
    for x in values:
        total += x
    return total


def _to_fraction(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        return _read_number(x, "exponent")
    try:
        return Fraction(x)
    except (ValueError, TypeError, OverflowError) as exc:
        raise DomainError(f"exponent {x!r} is not an exact rational") from exc


class AsymptoticExpansion(Value):
    """Small-t expansion sum a_i t^{alpha_i} valid on (0, valid_to].

    Exponents are exact rationals, strictly increasing; the remainder is
    O(t^{alpha_max + remainder_order}).  An empty term list states that f
    itself is O(t^{remainder_order}) near zero.
    """

    _fields = ("terms", "valid_to", "remainder_order")

    def __init__(self, terms: Sequence[tuple[Fraction, float]],
                 valid_to: float, remainder_order: Fraction):
        terms = tuple((_to_fraction(a), float(c)) for a, c in terms)
        remainder_order = _to_fraction(remainder_order)
        set_field(self, "terms", terms)
        set_field(self, "valid_to", valid_to)
        set_field(self, "remainder_order", remainder_order)
        if not (valid_to > 0):
            raise DomainError("valid_to must be positive")
        if valid_to == math.inf:
            raise DomainError("valid_to must be finite, got inf")
        if remainder_order <= 0:
            raise DomainError("remainder_order must be positive")
        exps = [a for a, _ in terms]
        if any(y <= x for x, y in zip(exps, exps[1:])):
            raise DomainError("exponents must be strictly increasing")
        for _, c in terms:
            if not math.isfinite(c):
                raise DomainError("coefficients must be finite")
        # The quadrature reads the exponents as floats, once, and picks the
        # pole part by their signs: each must keep its own in a float.
        try:
            floats = tuple((float(a), c) for a, c in terms)
        except OverflowError:
            floats = None
        if floats is None or any(a and not x
                                 for (a, _), (x, _) in zip(terms, floats)):
            raise DomainError("exponents must lie in the float range")
        set_field(self, "_float_terms", floats)
        set_field(self, "_pole_terms", tuple(x for x in floats if x[0] <= 0))

    def evaluate(self, t: float) -> float:
        try:
            return _fold(c * t ** a for a, c in self._float_terms)
        except OverflowError:
            raise self._overflow(t) from None

    def _overflow(self, t: float) -> NumericError:
        """The error naming the first term whose power of t overflows."""
        for (a, _), (x, c) in zip(self.terms, self._float_terms):
            try:
                t ** x
            except OverflowError:
                break
        return NumericError(f"the expansion term {c!r} t^({a}) overflows a "
                            f"float at t = {t!r}")


class TailFunction(Value):
    """An evaluator on (0, inf) with a certified large-t decay bound:
    |f(t)| <= C e^{-rate t} for t >= 1."""

    _fields = ("evaluator", "decay")

    def __init__(self, evaluator: Callable[[float], float],
                 decay: tuple[float, float]):  # decay is (C, rate)
        set_field(self, "evaluator", evaluator)
        set_field(self, "decay", decay)
        c, rate = decay
        if not (c > 0 and rate > 0):
            raise DomainError("decay constants must be positive")
        if rate < _MIN_RATE:
            raise DomainError(f"decay rate must be at least {_MIN_RATE!r}, "
                              f"got {rate!r}")

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


def _cutoff(f: TailFunction, exp: AsymptoticExpansion, tol: float,
            order: Fraction, split: float) -> tuple[float, float]:
    """A cutoff tau and the integral of R = f - expansion against dt/t
    below it, or (0, 0) when none is found.

    R is sampled first at min(split, 1) * 2^-j, j = 0..14, and must head
    to zero there.  R(t) = K t^order (1 + o(1)) near 0, so the integral
    is R(tau) / order up to the o(1) part, which shows as R(2 tau) /
    2^order differing from R(tau).  The cutoff is the largest dyadic
    point, continuing below the sampled grid, where the two agree within
    tol * order / 8.  Going lower is no better when f has a pole part:
    f - pole part cancels there.
    """
    t0 = min(split, 1.0)
    residuals = []
    for j in range(15):
        t = t0 * 2.0 ** (-j)
        h = f(t) - exp.evaluate(t)
        if not math.isfinite(h):
            raise DiagnosticsError(f"non-finite expansion residual at t={t}")
        residuals.append(h)
    r7, r14 = abs(residuals[7]), abs(residuals[14])
    atol = max(10 * tol, 1e-9)
    if r7 > atol and r14 > 0.75 * r7 + atol:
        raise DiagnosticsError(
            "expansion does not match the function near zero: residual "
            f"{r7:.3g} at t={t0 * 2 ** -7:.3g} does not decay "
            f"(still {r14:.3g} at t={t0 * 2 ** -14:.3g})")
    rho, t, previous = float(order), t0, residuals[0]
    for j in range(1, _CUTOFF_STEPS):
        t /= 2
        r = residuals[j] if j < len(residuals) else f(t) - exp.evaluate(t)
        if not math.isfinite(r):
            break
        if abs(previous / 2 ** rho - r) <= tol * rho / 8:
            return t, r / rho
        previous = r
    return 0.0, 0.0


def _check_tol(tol: float) -> None:
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tolerance must be positive and finite, got {tol!r}")


# The node tables, per level: columns e = exp(k u) (k = -2 for tanh-sinh,
# 1 for exp-sinh) and cosh tau, then tanh-sinh's 1 + e and (1 + e)^2.
_TANH_SINH = [((),) * 4] * (_DE_MAX_LEVEL + 1)
_EXP_SINH = [((),) * 2] * (_DE_MAX_LEVEL + 1)


def _de_quad(g: Callable[[float], float], a: float, span: float, tol: float,
             b: float = 0.0, rate: float = 0.0) -> float:
    """The integral of g by a double-exponential rule (Takahasi & Mori)
    over tau = j h, h halved until three successive levels agree within
    tol / 4 (two can agree by chance at a spline's kinks): tanh-sinh on
    [a, b] for |tau| <= span, x = a + (b - a)(1 + tanh u) / 2 with u =
    pi/2 sinh tau, measured from the nearer end so that x never rounds
    onto it early; or, given a rate, exp-sinh on [a, inf) for -_DE_SPAN
    <= tau <= span, x = a + exp(u) / rate."""
    table, start, k = (_EXP_SINH, -_DE_SPAN, 1) if rate else \
        (_TANH_SINH, 0.0, -2)
    ba, total, value, err = b - a, 0.0, 0.0, math.inf
    for level in range(_DE_MAX_LEVEL + 1):
        h, step = 0.5 ** level, 2 if level else 1
        first = math.ceil(start / h) | (step - 1)
        rows = (math.floor(span / h) - first) // step + 1
        columns = table[level]
        if len(columns[0]) < rows:
            taus = [(first + i * step) * h
                    for i in range(len(columns[0]), rows)]
            exps = [math.exp(k * (math.pi / 2 * s))
                    for s in map(math.sinh, taus)]
            new = [exps, map(math.cosh, taus)] + ([] if rate else [
                [1 + x for x in exps], [(1 + x) ** 2 for x in exps]])
            # The level's columns are read once and replaced whole, so a
            # thread neither sees a partial row nor extends another's.
            columns = table[level] = tuple(
                column + tuple(values) for column, values in zip(columns, new))
        nodes = zip(*[column[:rows] for column in columns])
        part = 0.0
        if rate:
            for ex, cosh in nodes:
                v = ex / rate
                w = v * math.pi / 2 * cosh
                if w:
                    part += g(a + v) * w
        else:
            nodes = list(nodes)
            # tau < 0 (the mirror image, without tau = 0), then tau >= 0
            for end, sign, half in ((a, 1.0, reversed(nodes[not level:])),
                                    (b, -1.0, nodes)):
                for e, cosh, e1, e1_sq in half:
                    w = ba * math.pi * cosh * e / e1_sq
                    if w:
                        part += g(end + sign * (ba * e / e1)) * w
        total += part
        previous, value = value, h * total
        if level:
            if not math.isfinite(value):
                raise NumericError("quadrature returned a non-finite value")
            last, err = err, abs(value - previous)
            if level >= _DE_MIN_LEVEL and max(last, err) <= tol / 4:
                return value
    raise NumericError(
        f"quadrature did not reach tolerance {tol:.3g} in {_DE_MAX_LEVEL} "
        f"step halvings: the last three levels differ by {last:.3g} and "
        f"{err:.3g}")


def _tail(f: TailFunction, t0: float, tol: float) -> float:
    """The integral of f dt/t over [t0, inf) by exp-sinh at the declared
    rate.  Its first node sits about 2e-31 / rate above t0, and the piece
    below it, about f(t0) times that over t0, is dropped; where that
    exceeds tol, [t0, 1/rate] is integrated in log t, as the small-t part
    is, and the exp-sinh rule starts at 1/rate.  Nodes stop where the
    declared bound C e^{-rate t} (t >= 1) has underflowed, so f is never
    asked for its value far out."""
    evaluator, rate = f.evaluator, f.decay[1]
    head = 0.0
    if math.exp(math.pi / 2 * math.sinh(-_DE_SPAN)) / rate > tol * t0:
        head = _de_quad(lambda x: evaluator(math.exp(x)), math.log(t0),
                        _BOUNDED_SPAN, tol / 2, b=-math.log(rate))
        t0, tol = 1 / rate, tol / 2
    reach = math.log(_UNDERFLOW + rate * max(0.0, 1.0 - t0))
    return head + _de_quad(lambda t: evaluator(t) / t, t0,
                           math.asinh(2 / math.pi * reach), tol, rate=rate)


def fp_mellin(f: TailFunction, exp: AsymptoticExpansion,
              tol: float = DEFAULT_TOL) -> float:
    """Finite part at the origin of the normalized Mellin transform of f.

    The split point t0 is the expansion's valid_to.  The closed forms of
    the pole terms at t0 cancel against the integral above t0, so where
    their rounding exceeds tol / 8 and 1/rate lies above t0, the residual
    check, the cutoff search, both integrals and the closed forms all run
    at 1/rate instead: the finite part does not depend on the split point.
    A pole term that overflows a float at t0 is refused by name.
    """
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
        # eps * sum_{a<0} |c| t0^a / |a|, about the closed forms' rounding
        rounding = sys.float_info.epsilon * _fold(
            abs(c) * t0 ** a / -a for a, c in exp._pole_terms if a < 0)
    except OverflowError:
        raise exp._overflow(t0) from None
    if rounding > tol / 8 and 1 / rate > t0:
        t0 = 1 / rate
    cutoff, below = _cutoff(f, exp, tol, order, t0)
    floats = exp._float_terms
    c_minus1 = _fold(c for a, c in floats if a == 0)

    evaluator, poles, in_log_t = f.evaluator, exp._pole_terms, cutoff > 0

    def excess(x: float) -> float:
        # f minus its pole part against dt/t, which is d(log t): in log t
        # the nodes spread over every scale from the cutoff to t0.
        t = math.exp(x) if in_log_t else x
        value, pole = evaluator(t), 0
        try:
            for a, c in poles:
                pole += c * t ** a
        except OverflowError:
            raise exp._overflow(t) from None
        value -= pole
        return value if in_log_t else value / t

    lo, span, hi = (math.log(cutoff), _BOUNDED_SPAN, math.log(t0)) \
        if in_log_t else (0.0, _DE_SPAN, t0)
    i1 = _de_quad(excess, lo, span, tol, b=hi)
    i2 = _tail(f, t0, tol)

    c0 = c_minus1 * math.log(t0)
    c0 += _fold(c * t0 ** a / a for a, c in floats if a < 0)
    c0 += _fold(c * cutoff ** a / a for a, c in floats if a > 0)
    c0 += below + i1 + i2
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
    value = _tail(f, T, tol)
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
    if isinstance(d, bool) or not isinstance(d, int) or d < 1:
        raise DomainError(f"d must be a positive integer, got {d!r}")
    if len(entries) != d:
        raise DomainError(f"expected {d} entries, got {len(entries)}")
    total = 0.0
    for p, (f, exp) in enumerate(entries, start=1):
        total += (-1) ** p * p * fp_mellin(f, exp, tol)
    return total / 4.0


def _sgn(x: float) -> int:
    return (x > 0) - (x < 0)


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """One-sided three-point slope at an end, clipped to keep the shape."""
    d = ((2 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if _sgn(d) != _sgn(m0):
        return 0.0
    if _sgn(m0) != _sgn(m1) and abs(d) > 3 * abs(m0):
        return 3 * m0
    return d


def monotone_cubic(xs: Sequence[float],
                   ys: Sequence[float]) -> Callable[[float], float]:
    """The monotone piecewise cubic Hermite interpolant through (xs, ys),
    for strictly increasing xs (Fritsch & Butland, SIAM J. Sci. Stat.
    Comput. 5, 1984).

    An interior slope is the weighted harmonic mean of the two adjacent
    secants, or 0 where they differ in sign or one vanishes; the ends take
    a three-point estimate.  Two points give the straight line.  Outside
    [xs[0], xs[-1]] the end pieces extend.
    """
    h = [b - a for a, b in zip(xs, xs[1:])]
    m = [(b - a) / w for a, b, w in zip(ys, ys[1:], h)]
    if len(m) == 1:
        d = [m[0], m[0]]
    else:
        d = [_end_slope(h[0], h[1], m[0], m[1])]
        for h0, h1, m0, m1 in zip(h, h[1:], m, m[1:]):
            if _sgn(m0) != _sgn(m1) or m0 == 0 or m1 == 0:
                d.append(0.0)
            else:
                w1, w2 = 2 * h1 + h0, h1 + 2 * h0
                d.append(1.0 / ((w1 / m0 + w2 / m1) / (w1 + w2)))
        d.append(_end_slope(h[-1], h[-2], m[-1], m[-2]))
    # Piece i is ((c0 s + c1) s + c2) s + c3 in s = x - xs[i].
    pieces = []
    for i, (w, slope) in enumerate(zip(h, m)):
        t = (d[i] + d[i + 1] - 2 * slope) / w
        pieces.append((t / w, (slope - d[i]) / w - t, d[i], ys[i]))

    def value(x: float) -> float:
        i = min(max(bisect.bisect_right(xs, x) - 1, 0), len(h) - 1)
        c0, c1, c2, c3 = pieces[i]
        s = x - xs[i]
        return ((c0 * s + c1) * s + c2) * s + c3

    return value


# -- stock inputs used by the CLI presets and the test oracles ---------------

# The presets' exponents and remainder order, built once and kept as they
# are by AsymptoticExpansion; t^{-1/2} e^{-t}'s terms do not vary at all.
_EXP_POWERS = tuple(map(Fraction, range(PRESET_ORDER + 1)))
_SQRT_EXP_TERMS = tuple((Fraction(2 * k - 1, 2),
                         (-1.0) ** k / math.factorial(k))
                        for k in range(PRESET_ORDER + 1))
_PRESET_REMAINDER = Fraction(1)


def exp_preset(lam: float,
               t0: float = 1.0) -> tuple[TailFunction, AsymptoticExpansion]:
    """f(t) = e^{-lam t} with its Maclaurin expansion to PRESET_ORDER,
    valid to t0."""
    if lam <= 0:
        raise DomainError(f"decay rate must be positive, got {lam!r}")
    if not math.isfinite(lam):
        raise DomainError(f"decay rate must be finite, got {lam!r}")
    try:
        terms = tuple((a, (-lam) ** k / math.factorial(k))
                      for k, a in enumerate(_EXP_POWERS))
    except OverflowError:
        raise DomainError("decay rate is too large for a finite expansion "
                          f"coefficient, got {lam!r}") from None
    f = TailFunction(lambda t: math.exp(-lam * t), (1.0, lam))
    return f, AsymptoticExpansion(terms, t0, _PRESET_REMAINDER)


def sqrt_exp_preset(
        t0: float = 1.0) -> tuple[TailFunction, AsymptoticExpansion]:
    """f(t) = t^{-1/2} e^{-t}, expanded to PRESET_ORDER and valid to t0;
    no exponent-zero term, so no pole at 0."""
    f = TailFunction(lambda t: math.exp(-t) / math.sqrt(t), (1.0, 1.0))
    return f, AsymptoticExpansion(_SQRT_EXP_TERMS, t0, _PRESET_REMAINDER)
