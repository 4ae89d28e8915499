import math
import random
import re
import sys
import threading
import time
from fractions import Fraction

import pytest
from mpmath import e1

import mellin_reference
from tracegeo import mellin_fp
from tracegeo.cli import _mellin_pair_from_spec
from tracegeo.errors import DiagnosticsError, DomainError, NumericError
from tracegeo.mellin_fp import (_DE_MAX_LEVEL, PRESET_ORDER,
                                AsymptoticExpansion, TailFunction,
                                exp_preset, fp_mellin, monotone_cubic,
                                sqrt_exp_preset, torsion_constant,
                                truncation_tail)


def exp1(x: float) -> float:
    return float(e1(x))


def test_exponential_closed_form():
    # FP of the Mellin transform of e^{-lam t} at the origin is -log(lam)
    for lam in (0.5, 1.0, 3.0, math.e):
        f, expn = exp_preset(lam)
        assert abs(fp_mellin(f, expn) + math.log(lam)) < 1e-9


@pytest.mark.parametrize("lam", [0.01, 0.05, 0.1, 0.13, 0.15, 0.2, 0.3,
                                 1.0, 10.0, 50.0])
def test_exponential_grid(lam):
    # Slow decay (lam <= 0.15) used to defeat the tail quadrature; the
    # finite part must not depend on the split point either.
    for t0 in (0.25, 0.5, 1.0, 2.0, 4.0):
        f, expn = exp_preset(lam, t0=t0)
        assert abs(fp_mellin(f, expn) + math.log(lam)) < 1e-9, t0


SPLIT_POINTS = [1e-300, 1e-100, 1e-40, 1e-20, 1e-10, 1e-6, 1e-2, 1.0, 1e2, 1e6,
                1e14, 1e30, 1e50, 1e100]
RATES = [1e-12, 1e-6, 1e-2, 1.0, 1e2, 1e6, 1e12]


def _finite_part_or_error(pair):
    try:
        return fp_mellin(*pair)
    except NumericError as exc:
        return exc


@pytest.mark.parametrize("t0", SPLIT_POINTS)
def test_finite_parts_hold_at_every_split_point(t0):
    # The finite part does not depend on t0, however far t0 lies from the
    # scale 1/lam of the decay: -log lam for e^{-lam t}, -2 sqrt(pi) for
    # t^{-1/2} e^{-t}.
    wrong = []
    for lam in RATES:
        value = _finite_part_or_error(exp_preset(lam, t0))
        if not (isinstance(value, float)
                and abs(value + math.log(lam)) < 1e-8):
            wrong.append((lam, value))
    value = _finite_part_or_error(sqrt_exp_preset(t0))
    if not (isinstance(value, float)
            and abs(value + 2 * math.sqrt(math.pi)) < 1e-7):
        wrong.append(("sqrt", value))
    assert wrong == []


@pytest.mark.parametrize("t0", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("log_rate_t0", [-20.75, -21.0, -21.25, -30.0])
def test_a_tiny_rate_times_split_point_loses_no_piece(log_rate_t0, t0):
    # The tail rule's first node sits about 2e-31 / lam above t0.  The
    # piece below it, about 2e-31 / (lam t0), was once dropped: these
    # rates returned -log lam off by -1.05e-10, -1.73e-10 and -3.42e-10 at
    # the default tol, and 1e-30 did not converge.
    lam = 10.0 ** log_rate_t0 / t0
    assert abs(fp_mellin(*exp_preset(lam, t0)) + math.log(lam)) < 1e-12


@pytest.mark.parametrize("t0", SPLIT_POINTS)
def test_the_smallest_rate_holds_at_every_split_point(t0):
    lam = 1e-300
    assert abs(fp_mellin(*exp_preset(lam, t0)) + math.log(lam)) < 1e-10


def test_a_rate_below_the_smallest_is_refused():
    # the tail rule's farthest weight, about 5000 / rate, would overflow
    with pytest.raises(DomainError, match="^decay rate must be at least "
                       r"1e-300, got 1e-305$"):
        exp_preset(1e-305)
    with pytest.raises(DomainError, match="at least 1e-300"):
        TailFunction(lambda t: 0.0, (1.0, 5e-324))


@pytest.mark.parametrize("f,decay,terms,order,want", [
    (lambda t: math.exp(-t) / math.sqrt(t), (1.0, 1.0),
     ((Fraction(-1, 2), 1.0),), Fraction(1), -2 * math.sqrt(math.pi)),
    (lambda t: math.exp(-t) / math.sqrt(t), (1.0, 1.0),
     ((Fraction(-1, 2), 1.0), (Fraction(1, 2), -1.0)), Fraction(1),
     -2 * math.sqrt(math.pi)),
    (lambda t: math.exp(-t), (1.0, 1.0), ((Fraction(0), 1.0),), Fraction(1),
     0.0),
    (lambda t: math.sqrt(t) * math.exp(-t), (1.0, 0.5), (), Fraction(1, 2),
     math.sqrt(math.pi)),
], ids=["pole-only", "pole-and-one", "constant-only", "no-terms"])
def test_short_expansions(f, decay, terms, order, want):
    # Few terms leave a remainder far above tol on the sampled grid; with a
    # pole, f minus the pole part cancels near 0, so the part below the
    # cutoff must come from the remainder's leading power, not samples.
    expn = AsymptoticExpansion(terms, 1.0, order)
    assert abs(fp_mellin(TailFunction(f, decay), expn) - want) < 1e-9


def test_sampled_function_meets_its_tolerance():
    # A spline through samples has kinks in its second derivative, where
    # two refinement levels can agree by chance; the answer at tol must
    # still lie within tol of a far tighter one.
    ts = [0.05 * i for i in range(1, 121)]
    spline = monotone_cubic(ts, [math.exp(-t) for t in ts])
    expn = AsymptoticExpansion(
        tuple((k, (-1.0) ** k / math.factorial(k)) for k in range(4)),
        ts[0], Fraction(1))

    def f(t):
        if t <= ts[0]:
            return expn.evaluate(t)
        if t >= ts[-1]:
            return spline(ts[-1]) * math.exp(ts[-1] - t)
        return spline(t)

    sampled = TailFunction(f, (1.1, 1.0))
    ref = fp_mellin(sampled, expn, tol=1e-9)
    assert abs(ref) < 1e-4  # the spline is close to e^{-t}, whose FP is 0
    for tol in (1e-4, 1e-6):
        assert abs(fp_mellin(sampled, expn, tol=tol) - ref) <= tol


def test_gamma_constant_cancels():
    # lam = 1 gives exactly 0; the Euler-Mascheroni correction must
    # cancel the quadrature route's constant
    f, expn = exp_preset(1.0)
    assert abs(fp_mellin(f, expn)) < 1e-9


def test_sqrt_closed_form():
    for t0 in (0.25, 0.5, 1.0, 2.0, 4.0):
        f, expn = sqrt_exp_preset(t0=t0)
        assert abs(fp_mellin(f, expn) - (-2 * math.sqrt(math.pi))) < 1e-10, t0


def test_split_point_independence():
    values = []
    for t0 in (0.25, 0.5, 1.0, 2.0):
        f, expn = exp_preset(2.0, t0=t0)
        values.append(fp_mellin(f, expn))
    assert max(values) - min(values) < 1e-8


def test_linearity():
    f1, e1 = exp_preset(1.0)
    f2, e2 = exp_preset(2.0)
    combined = TailFunction(lambda t: 3 * f1(t) + f2(t), (4.0, 1.0))
    merged_terms = []
    coeffs = {}
    for a, c in e1.terms:
        coeffs[a] = coeffs.get(a, 0.0) + 3 * c
    for a, c in e2.terms:
        coeffs[a] = coeffs.get(a, 0.0) + c
    for a in sorted(coeffs):
        merged_terms.append((a, coeffs[a]))
    expn = AsymptoticExpansion(tuple(merged_terms), 1.0, Fraction(1))
    got = fp_mellin(combined, expn)
    want = 3 * fp_mellin(f1, e1) + fp_mellin(f2, e2)
    assert abs(got - want) < 1e-8


def test_truncation_tail_matches_exponential_integral():
    f, _ = exp_preset(1.0)
    for big_t in (1.0, 2.0, 5.0):
        got = truncation_tail(f, big_t)
        assert abs(got - exp1(big_t)) < 1e-9
    f2, _ = exp_preset(3.0)
    assert abs(truncation_tail(f2, 2.0) - exp1(6.0)) < 1e-9


def test_truncation_tail_guards():
    f, _ = exp_preset(1.0)
    with pytest.raises(DomainError):
        truncation_tail(f, 0.5)


@pytest.mark.parametrize("call,message", [
    (lambda: exp_preset(1.0, math.inf), "valid_to must be finite, got inf"),
    (lambda: sqrt_exp_preset(math.inf), "valid_to must be finite, got inf"),
    (lambda: exp_preset(math.inf), "decay rate must be finite, got inf"),
    (lambda: exp_preset(math.nan), "decay rate must be finite, got nan"),
    (lambda: AsymptoticExpansion((), math.inf, Fraction(1)),
     "valid_to must be finite, got inf"),
], ids=["exp-t0", "sqrt-t0", "exp-lambda", "exp-lambda-nan", "expansion"])
def test_presets_refuse_a_non_finite_split_or_rate(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


def test_decay_spot_check_failure():
    lying = TailFunction(lambda t: math.exp(-t), (0.001, 5.0))
    with pytest.raises(DiagnosticsError):
        lying.spot_check_decay()
    _, expn = exp_preset(1.0)
    with pytest.raises(DiagnosticsError):
        fp_mellin(lying, expn)


def test_expansion_mismatch_detected():
    f, _ = exp_preset(1.0)
    wrong = AsymptoticExpansion(((Fraction(0), 5.0),), 1.0, Fraction(1))
    with pytest.raises(DiagnosticsError):
        fp_mellin(f, wrong)


def test_non_integrable_expansion_rejected():
    f, _ = exp_preset(1.0)
    bad = AsymptoticExpansion(((Fraction(-2), 1.0),), 1.0, Fraction(1))
    with pytest.raises(DomainError):
        fp_mellin(f, bad)


def test_expansion_validation():
    with pytest.raises(DomainError):
        AsymptoticExpansion(((Fraction(1), 1.0), (Fraction(0), 1.0)),
                            1.0, Fraction(1))
    with pytest.raises(DomainError):
        AsymptoticExpansion((), 0.0, Fraction(1))
    with pytest.raises(DomainError):
        AsymptoticExpansion((), 1.0, Fraction(0))
    # strings are read by the number grammar; inf has no exact ratio
    for exponent in ("x", " 1/2", "1_0", float("inf"), float("nan")):
        with pytest.raises(DomainError):
            AsymptoticExpansion(((exponent, 1.0),), 1.0, Fraction(1))
    # dyadic float exponents convert exactly
    expn = AsymptoticExpansion(((0.5, 1.0),), 1.0, Fraction(1))
    assert expn.terms[0][0] == Fraction(1, 2)
    # the float form of each exponent is taken once, when it is given, and
    # must keep the exponent's sign: one that rounds to 0.0 is refused
    for exponent in (10 ** 400, Fraction(1, 10 ** 400),
                     Fraction(-1, 10 ** 400)):
        with pytest.raises(DomainError, match="float range"):
            AsymptoticExpansion(((exponent, 1.0),), 1.0, Fraction(1))


def test_evaluate_adds_its_terms_left_to_right():
    # Python 3.12's sum() of floats is compensated and gives 1.0 here
    expn = AsymptoticExpansion(((0, 1e16), (1, 1.0), (2, -1e16)), 1.0, 1)
    assert expn.evaluate(1.0) == 0.0


EXPANSIONS = [
    *(exp_preset(lam, t0)[1] for lam in (1e-12, 1e-3, 0.5, 2.0, 1e6)
      for t0 in (1e-6, 0.5, 1.0, 1e6)),
    *(sqrt_exp_preset(t0)[1] for t0 in (1e-6, 0.5, 1.0, 1e60)),
    AsymptoticExpansion((("-3/2", 2.0), ("-1/3", -1.0), ("0", 0.5),
                         ("5/7", 3.0)), 1.0, "1"),
]


@pytest.mark.parametrize("expn", EXPANSIONS)
def test_evaluations_match_the_exponent_formula_bit_for_bit(expn):
    # evaluate adds c t^float(a) left to right over every term; the
    # quadrature's pole part takes the terms with a <= 0.
    for t in (1e-100, 1e-30, 1e-6, 0.03125, 0.3, 1.0, 2.5, 1e6):
        want = 0
        for a, c in expn.terms:
            want += c * t ** float(a)
        assert expn.evaluate(t) == want, t
    assert expn._pole_terms == tuple((float(a), c) for a, c in expn.terms
                                     if a <= 0)


def test_a_term_that_overflows_is_named():
    expn = AsymptoticExpansion((("-5", 1.0), ("0", 1.0)), 1e-300, 1)
    message = r"^the expansion term 1.0 t\^\(-5\) overflows a float at t = "
    with pytest.raises(NumericError, match=message + r"1e-300$"):
        expn.evaluate(1e-300)
    # a pole term that overflows at a quadrature node is named there
    with pytest.raises(NumericError, match=r"^the expansion term 1e-300 "
                       r"t\^\(-6\) overflows a float at t = 1\.98.*e-62$"):
        fp_mellin(*_pole_past_the_float_range(False))
    # The pole term's closed form at t0 is refused, whether or not the
    # split could move to 1/rate.
    for rate in (1.0, 1e300):
        f = TailFunction(lambda t: 0.0, (1.0, rate))
        with pytest.raises(NumericError, match=message + r"1e-300$"):
            fp_mellin(f, expn)


def test_tail_function_validation():
    with pytest.raises(DomainError):
        TailFunction(lambda t: 0.0, (0.0, 1.0))
    with pytest.raises(DomainError):
        TailFunction(lambda t: 0.0, (1.0, -1.0))


def test_exponent_strings_accepted():
    # rational exponents can arrive as strings, e.g. from JSON
    expn = AsymptoticExpansion((("-1/2", 1.0), ("0.25", -1.0)), 1.0, "1")
    assert [a for a, _ in expn.terms] == [Fraction(-1, 2), Fraction(1, 4)]


def test_torsion_constant():
    f, expn = exp_preset(2.0)
    fp = fp_mellin(f, expn)
    # d = 2 with identical entries: (-1 + 2) fp / 4
    got = torsion_constant([(f, expn), (f, expn)], 2)
    assert abs(got - fp / 4) < 1e-9
    with pytest.raises(DomainError):
        torsion_constant([(f, expn)], 2)
    with pytest.raises(DomainError):
        torsion_constant([], 0)


@pytest.mark.parametrize("d", [True, 2.0, Fraction(2)], ids=repr)
def test_torsion_constant_refuses_a_bool_or_a_non_integer_d(d):
    # True read as 1 and gave -6.7e-16; 2.0 and Fraction(2) ran
    with pytest.raises(DomainError, match="^d must be a positive integer, "
                       f"got {re.escape(repr(d))}$"):
        torsion_constant([exp_preset(1.0)] * int(d), d)


def _oscillating():
    # README "Limits" input (11): a violently oscillating integrand the
    # quadrature cannot certify at tol 1e-13
    f = TailFunction(lambda t: math.exp(-t) * math.sin(200.0 / t), (1.0, 1.0))
    return f, AsymptoticExpansion((), 1.0, Fraction(1, 2))


def test_tolerance_violation_reported():
    start = time.perf_counter()
    with pytest.raises(NumericError,
                       match=f"in {_DE_MAX_LEVEL} step halvings"):
        fp_mellin(*_oscillating(), tol=1e-13)
    assert time.perf_counter() - start < 5


def test_node_tables_hold_no_more_rows_than_stated():
    # Input (11) runs tanh-sinh to level 10 over |tau| <= 4.5, and a zero
    # tail at the largest rate runs exp-sinh out to its farthest tau; the
    # tables then hold at most the rows the module docstring states,
    # however many calls came before.
    with pytest.raises(NumericError, match=f"in {_DE_MAX_LEVEL} step"):
        fp_mellin(*_oscillating(), tol=1e-13)
    zero = TailFunction(lambda t: 0.0, (1.0, sys.float_info.max))
    assert fp_mellin(zero, AsymptoticExpansion((), 1e-300, 1)) == 0.0
    tanh_sinh, exp_sinh = (sum(len(columns[0]) for columns in table)
                           for table in (mellin_fp._TANH_SINH,
                                         mellin_fp._EXP_SINH))
    assert tanh_sinh == 4609 and exp_sinh <= 11578


def test_threads_filling_the_node_tables_leave_them_as_one_thread_does(
        monkeypatch):
    # Four threads fill empty tables at once under a short switch
    # interval, ten times over.  Each call must keep its reference value,
    # and the tables must end as one thread making the same calls leaves
    # them: a row appended after another thread's rows would sit at the
    # wrong tau.
    calls = [(pair, tol) for pair in
             [exp_preset(lam, t0) for lam in (0.03, 1.0, 7.9, 1e5)
              for t0 in (0.25, 8.0)] + [sqrt_exp_preset(0.5)]
             for tol in (1e-6, 1e-10, 1e-13)]
    want = [_outcome(mellin_reference.fp_mellin, *pair, tol)
            for pair, tol in calls]

    def empty_tables():
        monkeypatch.setattr(mellin_fp, "_TANH_SINH",
                            [((),) * 4] * (_DE_MAX_LEVEL + 1))
        monkeypatch.setattr(mellin_fp, "_EXP_SINH",
                            [((),) * 2] * (_DE_MAX_LEVEL + 1))

    empty_tables()
    for pair, tol in calls:
        _outcome(fp_mellin, *pair, tol)
    one_thread = (mellin_fp._TANH_SINH, mellin_fp._EXP_SINH)
    wrong = []

    def work(shift):
        for i in range(len(calls)):
            j = (i + shift) % len(calls)
            if _outcome(fp_mellin, *calls[j][0], calls[j][1]) != want[j]:
                wrong.append(j)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            empty_tables()
            threads = [threading.Thread(target=work, args=(7 * shift,))
                       for shift in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert (mellin_fp._TANH_SINH, mellin_fp._EXP_SINH) == one_thread
    finally:
        sys.setswitchinterval(interval)
    assert wrong == []


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_tolerance_must_be_positive_and_finite(tol):
    f, expn = exp_preset(1.0)
    with pytest.raises(DomainError):
        fp_mellin(f, expn, tol=tol)
    with pytest.raises(DomainError):
        truncation_tail(f, 2.0, tol=tol)


def _samples(rng: random.Random, monotone: bool) -> tuple[list, list]:
    xs = sorted(rng.sample(range(1, 1000), rng.randint(2, 40)))
    xs = [x / 100 for x in xs]
    if monotone:
        ys = [0.0]
        for _ in xs[1:]:
            ys.append(ys[-1] - rng.choice((0.0, rng.expovariate(1.0))))
    else:
        ys = [rng.uniform(-2, 2) for _ in xs]
    return xs, ys


@pytest.mark.parametrize("monotone", [True, False])
def test_monotone_cubic_matches_scipy(monotone):
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = random.Random(17 + monotone)
    for _ in range(40):
        xs, ys = _samples(rng, monotone)
        ours = monotone_cubic(xs, ys)
        ref = interpolate.PchipInterpolator(xs, ys)
        points = xs + [rng.uniform(xs[0], xs[-1]) for _ in range(50)]
        scale = max(1.0, max(abs(y) for y in ys))
        for x in points:
            assert abs(ours(x) - float(ref(x))) <= 1e-12 * scale, (xs, ys, x)


def test_monotone_cubic_keeps_monotone_data_monotone():
    rng = random.Random(5)
    for _ in range(20):
        xs, ys = _samples(rng, True)
        f = monotone_cubic(xs, ys)
        grid = [xs[0] + (xs[-1] - xs[0]) * i / 2000 for i in range(2001)]
        values = [f(x) for x in grid]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def _outcome(call, *args, **kwargs):
    """A call's value by float.hex, or the type and text of its error."""
    try:
        return call(*args, **kwargs).hex()
    except Exception as exc:  # whatever the error, both routes raise it
        return type(exc).__name__, str(exc)


def _spline_spec(lam):
    # the CLI's --spec path: a monotone cubic through samples of e^{-lam t}
    return _mellin_pair_from_spec({
        "t0": 1.0, "decay": {"C": 1.1, "lambda": lam},
        "terms": [[j, repr((-lam) ** j / math.factorial(j))]
                  for j in range(4)],
        "samples": [[round(0.05 * i, 2), math.exp(-lam * 0.05 * i)]
                    for i in range(1, 121)]})


def _two_poles(t0):
    # (t^-1/2 + t^-1/4) e^{-t}, expanded to PRESET_ORDER
    terms = sorted((Fraction(4 * k - p, 4), (-1.0) ** k / math.factorial(k))
                   for k in range(PRESET_ORDER + 1) for p in (1, 2))
    return TailFunction(lambda t: (t ** -0.5 + t ** -0.25) * math.exp(-t),
                        (2.0, 1.0)), AsymptoticExpansion(terms, t0, 1)


def _pole_past_the_float_range(evaluator_overflows):
    # The residual never settles, so the rule runs from 0, where the pole
    # term 1e-300 t^-6 overflows at the nodes below 1e-51 and f does not.
    def f(t):
        if t >= 0.5:
            return math.exp(-t)
        if t < 1e-40 and evaluator_overflows:
            raise OverflowError("the evaluator overflows")
        pole = 1e-300 * t ** -6 if t >= 1e-40 else 0.0
        return pole + t ** 0.125 * (1 + 0.5 * math.cos(math.pi * math.log2(t)))
    return TailFunction(f, (1.0, 1.0)), AsymptoticExpansion(
        (("-6", 1e-300),), 0.5, Fraction(49, 8))


RATES_AND_SPLITS = [(lam, t0) for lam in (0.03, 0.1, 0.5, 1, 2, 7.9, 100, 1e5)
                    for t0 in (0.25, 0.5, 1, 2, 8)]
DIFFERENTIAL_CASES = [
    *((f"exp-{lam}-{t0}", "fp", lambda lam=lam, t0=t0: exp_preset(lam, t0),
       None) for lam, t0 in RATES_AND_SPLITS),
    *((f"sqrt-{t0}", "fp", lambda t0=t0: sqrt_exp_preset(t0), None)
      for t0 in (0.25, 0.5, 1, 2, 8)),
    *((f"tail-exp-{lam}-{T}", "tail", lambda lam=lam: exp_preset(lam), T)
      for lam in (0.03, 0.1, 0.5, 1, 2, 7.9, 100, 1e5) for T in (1, 2.5, 4)),
    *((f"tail-sqrt-{T}", "tail", sqrt_exp_preset, T) for T in (1, 2.5, 4)),
    *((f"spline-{lam}", "fp", lambda lam=lam: _spline_spec(lam), None)
      for lam in (0.7, 1.0, 1.9)),
    # rate * t0 below about 2e-21: the tail rule first integrates
    # [t0, 1/rate] in log t
    *((f"head-{t0}-{x}", "fp",
       lambda t0=t0, x=x: exp_preset(10.0 ** x / t0, t0), None)
      for t0 in (1e-6, 1.0, 1e6) for x in (-21, -25, -30)),
    *((f"tail-head-{lam}", "tail", lambda lam=lam: exp_preset(lam), 1.0)
      for lam in (1e-21, 1e-25, 1e-300)),
    # no pole term, and two: each adds its pole terms left to right
    ("no-terms", "fp", lambda: (TailFunction(
        lambda t: math.sqrt(t) * math.exp(-t), (1.0, 0.5)),
        AsymptoticExpansion((), 1.0, Fraction(1, 2))), None),
    *((f"two-poles-{t0}", "fp", lambda t0=t0: _two_poles(t0), None)
      for t0 in (0.5, 1, 2)),
    ("pole-overflow", "fp", lambda: _pole_past_the_float_range(False), None),
    ("evaluator-overflow", "fp", lambda: _pole_past_the_float_range(True),
     None),
    ("oscillating", "fp", _oscillating, None),
]


@pytest.mark.parametrize("tol", [1e-4, 1e-10, 1e-13])
@pytest.mark.parametrize("kind,pair,T", [c[1:] for c in DIFFERENTIAL_CASES],
                         ids=[c[0] for c in DIFFERENTIAL_CASES])
def test_finite_parts_and_tails_match_the_closure_rule(kind, pair, T, tol):
    # Every value equals the closure-built rule's by float.hex, and every
    # refusal is the same error with the same text.
    f, expn = pair()
    if kind == "fp":
        got = _outcome(fp_mellin, f, expn, tol)
        want = _outcome(mellin_reference.fp_mellin, f, expn, tol)
    else:
        got = _outcome(truncation_tail, f, T, tol)
        want = _outcome(mellin_reference.truncation_tail, f, T, tol)
    assert got == want


def _evaluations(call, pair, *args):
    f, expn = pair
    count = 0
    inner = f.evaluator

    def evaluator(t):
        nonlocal count
        count += 1
        return inner(t)

    counted = TailFunction(evaluator, f.decay)
    call(*((counted, expn) if call is fp_mellin else (counted,)), *args)
    return count


@pytest.mark.parametrize("call,pair,args,count", [
    (fp_mellin, exp_preset(1.0), (), 346),
    (fp_mellin, exp_preset(2.5, 0.5), (), 458),
    (fp_mellin, sqrt_exp_preset(), (), 458),
    (truncation_tail, exp_preset(1.0), (2.0,), 218),
], ids=["exp-1", "exp-2.5-0.5", "sqrt", "tail-exp-1-2"])
def test_evaluation_counts_are_pinned(call, pair, args, count):
    # the decay spot check, the residual grid, the cutoff search and every
    # node of weight above zero each call the evaluator once
    assert _evaluations(call, pair, *args) == count
