import math
import random
from fractions import Fraction

import pytest
import sympy

from tracegeo.error_budget import (BudgetParams, a_exponent, beta_max,
                                   exponents, lambda_min, total_envelope)
from tracegeo.errors import DomainError


def test_beta_max_golden_ratio():
    beta = beta_max(1, 1, 1, 1)
    assert isinstance(beta, sympy.Expr)
    assert sympy.simplify(beta - (sympy.sqrt(5) - 1) / 2) == 0
    assert abs(float(beta) - (math.sqrt(5) - 1) / 2) < 1e-15


def test_beta_max_rational_when_discriminant_is_square():
    beta = beta_max(2, 1, 1, 1)  # disc = 1 + 8 = 9
    assert beta == Fraction(1, 2)
    assert isinstance(beta, Fraction)


def test_beta_max_float_path():
    beta = beta_max(1.0, 1.0, 1.0, 1.0)
    assert isinstance(beta, float)
    assert abs(beta - (math.sqrt(5) - 1) / 2) < 1e-15


def test_beta_max_float_path_extremes():
    # tiny C2: the textbook form cancels to 0; the root is about C4 Cn^2 / k
    assert abs(beta_max(1e-20, 1.0, 1.0, 1.0) - 1.0) < 1e-15
    # huge k: k^2 overflows in the textbook form; the root is about 1/k
    beta = beta_max(1.0, 1.0, 1.0, 1e308)
    assert math.isfinite(beta) and abs(beta - 1e-308) <= 1e-323
    # C4 Cn^2 overflows on its own, the root does not
    assert math.isfinite(beta_max(1.0, 1.0, 1e160, 1.0))


def test_beta_solves_the_quadratic_exactly():
    rng = random.Random(55)
    for _ in range(20):
        c2 = Fraction(rng.randint(1, 20), rng.randint(1, 6))
        c4 = Fraction(rng.randint(1, 20), rng.randint(1, 6))
        cn = Fraction(rng.randint(1, 10), rng.randint(1, 4))
        k = Fraction(rng.randint(1, 15), rng.randint(1, 6))
        beta = beta_max(c2, c4, cn, k)
        expr = sympy.sympify(c2) * beta ** 2 + sympy.sympify(k) * beta \
            - sympy.sympify(c4 * cn * cn)
        assert sympy.simplify(expr) == 0


def test_first_exponent_is_minus_k_exactly():
    for c2, c4, cn, k in ((1, 1, 1, 1), (2, 1, 1, 1),
                          (Fraction(1, 3), 5, 2, Fraction(7, 2))):
        beta = beta_max(c2, c4, cn, k)
        lam = lambda_min(k, beta, Fraction(1, 10), 0)
        p = BudgetParams(k=k, lam=lam, epsilon=Fraction(1, 10), C2=c2,
                         C4=c4, Cn=cn, c_prime=0, beta=beta)
        rep = exponents(p)
        assert sympy.simplify(sympy.sympify(rep.e1) + sympy.sympify(k)) == 0
        assert rep.all_ok


def test_lambda_min_branches():
    beta = Fraction(1, 2)
    # small c_prime: the gap condition is binding
    lam = lambda_min(1, beta, Fraction(1, 2), 0)
    assert lam == Fraction(4)
    # huge c_prime: the nudge branch is binding
    lam = lambda_min(1, beta, Fraction(1, 2), 100)
    assert lam == 100 * Fraction(10 ** 9 + 1, 10 ** 9)
    assert lam > 100


def test_feasibility_float_draws_with_margin():
    # floats cannot certify the boundary case (beta_max sits exactly on
    # the e1 = -k boundary), so back off both choices slightly
    rng = random.Random(77)
    for _ in range(50):
        c2 = rng.uniform(0.1, 4.0)
        c4 = rng.uniform(0.1, 4.0)
        cn = rng.uniform(0.1, 2.0)
        k = rng.uniform(0.2, 3.0)
        eps = rng.uniform(0.05, 0.5)
        beta = 0.99 * beta_max(c2, c4, cn, k)
        lam = 1.01 * k / ((1 - eps) * beta)
        p = BudgetParams(k=k, lam=lam, epsilon=eps, C2=c2, C4=c4, Cn=cn,
                         c_prime=0.0, beta=beta)
        assert exponents(p).all_ok


def test_infeasible_lambda_reported():
    p = BudgetParams(k=1, lam=Fraction(1, 100), epsilon=Fraction(1, 10),
                     C2=1, C4=1, Cn=1, c_prime=0,
                     beta=beta_max(1, 1, 1, 1))
    rep = exponents(p)
    assert not rep.all_ok


def test_param_validation():
    beta = Fraction(1, 2)
    with pytest.raises(DomainError):
        BudgetParams(k=0, lam=1, epsilon=Fraction(1, 2), C2=1, C4=1, Cn=1,
                     c_prime=0, beta=beta)
    with pytest.raises(DomainError):
        BudgetParams(k=1, lam=1, epsilon=Fraction(3, 2), C2=1, C4=1, Cn=1,
                     c_prime=0, beta=beta)
    with pytest.raises(DomainError):
        BudgetParams(k=1, lam=1, epsilon=Fraction(1, 2), C2=1, C4=1, Cn=1,
                     c_prime=-1, beta=beta)
    with pytest.raises(DomainError):
        beta_max(0, 1, 1, 1)
    with pytest.raises(DomainError):
        lambda_min(1, beta, Fraction(1, 2), -1)


def test_a_exponent():
    p = BudgetParams(k=1, lam=1, epsilon=Fraction(1, 2), C2=1, C4=1, Cn=1,
                     c_prime=0, beta=Fraction(1, 2), b_conj=2, m_nonarch=3)
    assert a_exponent(p) == 5


def test_total_envelope():
    got = total_envelope(100, 2, 3, 10.0)
    want = 10.0 * 100 ** -2 * math.log(100) ** 3
    assert abs(got - want) < 1e-12
    with pytest.raises(DomainError):
        total_envelope(1, 1, 0, 1.0)
    with pytest.raises(DomainError):
        total_envelope(10, 1, 0, -1.0)
