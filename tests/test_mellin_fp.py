import math
from fractions import Fraction

import pytest
from scipy.special import exp1

from tracegeo.errors import DiagnosticsError, DomainError, NumericError
from tracegeo.mellin_fp import (AsymptoticExpansion, TailFunction, exp_preset,
                                fp_mellin, sqrt_exp_preset, torsion_constant,
                                truncation_tail)


def test_exponential_closed_form():
    # FP of the Mellin transform of e^{-lam t} at the origin is -log(lam)
    for lam in (0.5, 1.0, 3.0, math.e):
        f, expn = exp_preset(lam)
        assert abs(fp_mellin(f, expn) + math.log(lam)) < 1e-9


def test_gamma_constant_cancels():
    # lam = 1 gives exactly 0; the Euler-Mascheroni correction must
    # cancel the quadrature route's constant
    f, expn = exp_preset(1.0)
    assert abs(fp_mellin(f, expn)) < 1e-9


def test_sqrt_closed_form():
    f, expn = sqrt_exp_preset()
    assert abs(fp_mellin(f, expn) - (-2 * math.sqrt(math.pi))) < 1e-8


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
    with pytest.raises(DomainError):
        AsymptoticExpansion((("x", 1.0),), 1.0, Fraction(1))
    # dyadic float exponents convert exactly
    expn = AsymptoticExpansion(((0.5, 1.0),), 1.0, Fraction(1))
    assert expn.terms[0][0] == Fraction(1, 2)


def test_tail_function_validation():
    with pytest.raises(DomainError):
        TailFunction(lambda t: 0.0, (0.0, 1.0))
    with pytest.raises(DomainError):
        TailFunction(lambda t: 0.0, (1.0, -1.0))


def test_exponent_strings_accepted():
    # rational exponents can arrive as strings, e.g. from JSON
    expn = AsymptoticExpansion((("-1/2", 1.0), ("1/2", -1.0)), 1.0, "1")
    assert expn.terms[0][0] == Fraction(-1, 2)


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


def test_tolerance_violation_reported():
    # a violently oscillating integrand the quadrature cannot certify at
    # the requested tolerance
    f = TailFunction(lambda t: math.exp(-t) * math.sin(200.0 / t), (1.0, 1.0))
    expn = AsymptoticExpansion((), 1.0, Fraction(1, 2))
    with pytest.raises(NumericError):
        fp_mellin(f, expn, tol=1e-13)


@pytest.mark.parametrize("tol", [0.0, -1e-8, math.nan, math.inf])
def test_tolerance_must_be_positive_and_finite(tol):
    f, expn = exp_preset(1.0)
    with pytest.raises(DomainError):
        fp_mellin(f, expn, tol=tol)
    with pytest.raises(DomainError):
        truncation_tail(f, 2.0, tol=tol)
