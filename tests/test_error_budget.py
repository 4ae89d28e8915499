import math
import random
import re
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
import sympy

import poly_reference
from tracegeo.error_budget import (BudgetParams, QuadraticSurd, a_exponent,
                                   beta_max, exponents, lambda_min,
                                   total_envelope)
from tracegeo.errors import DomainError, NumericError, TracegeoError


def _rat(x):
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


def _sym(x):
    """x in sympy, built from a surd's public a, b and d; the reference
    never uses QuadraticSurd arithmetic."""
    if isinstance(x, QuadraticSurd):
        return _rat(x.a) + _rat(x.b) * sympy.sqrt(x.d)
    return x if isinstance(x, sympy.Basic) else _rat(x)


def test_beta_max_golden_ratio():
    beta = beta_max(1, 1, 1, 1)
    assert isinstance(beta, QuadraticSurd)
    assert (beta.a, beta.b, beta.d) == (Fraction(-1, 2), Fraction(1, 2), 5)
    assert str(beta) == "-1/2 + 1/2*sqrt(5)"
    assert sympy.simplify(_sym(beta) - (sympy.sqrt(5) - 1) / 2) == 0
    assert abs(float(beta) - (math.sqrt(5) - 1) / 2) < 1e-15


def test_surd_equality_is_exact_in_any_spelling_of_d():
    root8, two_root2 = QuadraticSurd(0, 1, 8), QuadraticSurd(0, 2, 2)
    assert root8 == two_root2 and hash(root8) == hash(two_root2)
    assert root8 != QuadraticSurd(0, -2, 2)
    assert QuadraticSurd(1, 1, 2) != QuadraticSurd(1, 1, 3)
    # irrational, so never equal to a rational or a float
    assert QuadraticSurd(0, 1, 2) != math.sqrt(2)
    assert QuadraticSurd(0, 1, 2) != 1 and 1 != QuadraticSurd(0, 1, 2)
    assert len({root8, two_root2, QuadraticSurd(0, 1, 2) * 2}) == 1


def test_surd_arithmetic_leaves_the_field_only_to_a_fraction():
    r5 = QuadraticSurd(0, 1, 5)
    assert r5 * r5 == 5 and type(r5 * r5) is Fraction
    assert type(r5 - r5) is Fraction and r5 - r5 == 0
    assert 1 / (1 + r5) == (r5 - 1) / 4
    assert QuadraticSurd(0, 1, 20) / r5 == 2  # sqrt(20) = 2 sqrt(5)
    assert isinstance(r5 + 0.5, float)
    assert 1 - QuadraticSurd(1, 1, 2) == QuadraticSurd(0, -1, 2)
    assert abs(QuadraticSurd(1, 1, 2) / 0.5 - 2 - 2 * math.sqrt(2)) < 1e-14
    with pytest.raises(TypeError):
        QuadraticSurd(1, 1, 2) + "x"


@pytest.mark.parametrize("x,text", [
    (QuadraticSurd(Fraction(-1, 2), Fraction(1, 2), 5), "-1/2 + 1/2*sqrt(5)"),
    (QuadraticSurd(3, -1, 2), "3 - sqrt(2)"),
    (QuadraticSurd(0, -2, 7), "-2*sqrt(7)"),
    (QuadraticSurd(0, 1, 7), "sqrt(7)")])
def test_surd_text_reads_back_in_sympy(x, text):
    assert str(x) == text
    assert sympy.simplify(sympy.sympify(text) - _sym(x)) == 0
    assert eval(repr(x), {"QuadraticSurd": QuadraticSurd,
                          "Fraction": Fraction}) == x


def test_surd_is_immutable_and_always_irrational():
    x = QuadraticSurd(1, 1, 2)
    with pytest.raises(AttributeError):
        x.a = Fraction(0)
    for b, d in ((1, 4), (1, 1), (1, 0), (1, -3), (1, 2.0), (0, 2)):
        with pytest.raises(DomainError, match="b != 0 and an integer d > 1"):
            QuadraticSurd(1, b, d)


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


def _beta_decimal(c2, c4, cn, k):
    """The positive root of C2 b^2 + k b - C4 Cn^2 = 0 in 60-digit
    decimals, from the exact values of the floats, by the
    cancellation-free form 2 C4 Cn^2 / (k + sqrt(k^2 + 4 C2 C4 Cn^2))."""
    with localcontext() as ctx:
        ctx.prec = 60
        c2, c4, cn, k = map(Decimal, (c2, c4, cn, k))
        top = 2 * c4 * cn * cn
        return top / (k + (k * k + 2 * c2 * top).sqrt())


@pytest.mark.parametrize("args", [
    (1e200, 1e200, 1e200, 1.0),  # C4 Cn and the hypot both overflow
    (1.0, 1.0, 1e160, 1.0), (1e-20, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, 1e308),
    (1e-320, 1e-320, 1e-10, 1e-300),  # 2 sqrt(C2 C4) Cn underflows
    (2.0, 3.0, 5.0, 0.0)])
def test_float_beta_matches_a_high_precision_root(args):
    want = _beta_decimal(*args)
    beta = beta_max(*args)
    assert math.isfinite(beta)
    assert abs(Decimal(beta) - want) <= Decimal("1e-15") * want, beta


def test_first_exponent_stays_finite_where_c4_cn_squared_overflows():
    # Cn = 1e160 with beta at its own scale: each term of
    # e1 = -C4 Cn^2 / beta + C2 beta is about 1e160, though C4 Cn^2 is
    # not a float.  e1 agrees with its 60-digit value to a few units in
    # the last place of those terms.
    beta = beta_max(1.0, 1.0, 1e160, 1.0)
    rep = exponents(BudgetParams(k=1.0, lam=1.0, epsilon=0.5, C2=1.0,
                                 C4=1.0, Cn=1e160, c_prime=1.0, beta=beta))
    with localcontext() as ctx:
        ctx.prec = 60
        cn, b = Decimal(1e160), Decimal(beta)
        want = -cn * cn / b + b
    assert math.isfinite(rep.e1)
    assert abs(Decimal(rep.e1) - want) <= Decimal("1e-15") * b


def test_a_float_exponent_past_the_float_range_is_refused_by_name():
    # beta = 1 is far below Cn = 1e160's own scale, so
    # e1 = -(C4 Cn / beta) Cn + C2 beta is about -1e320, past the float
    # range: NumericError names e1, where all_ok was decided against -inf.
    with pytest.raises(NumericError, match="^exponent e1 overflows the "
                       "float range$"):
        exponents(BudgetParams(k=1.0, lam=1.0, epsilon=0.5, C2=1.0, C4=1.0,
                               Cn=1e160, c_prime=1.0, beta=1.0))
    with pytest.raises(NumericError, match="^exponent e_spec overflows"):
        exponents(BudgetParams(k=1.0, lam=1e300, epsilon=0.5, C2=1.0,
                               C4=1.0, Cn=1.0, c_prime=1.0, beta=1e10))


def test_beta_solves_the_quadratic_exactly():
    rng = random.Random(55)
    for _ in range(20):
        c2 = Fraction(rng.randint(1, 20), rng.randint(1, 6))
        c4 = Fraction(rng.randint(1, 20), rng.randint(1, 6))
        cn = Fraction(rng.randint(1, 10), rng.randint(1, 4))
        k = Fraction(rng.randint(1, 15), rng.randint(1, 6))
        beta = _sym(beta_max(c2, c4, cn, k))
        expr = _rat(c2) * beta ** 2 + _rat(k) * beta - _rat(c4 * cn * cn)
        assert sympy.simplify(expr) == 0


def test_first_exponent_is_minus_k_exactly():
    for c2, c4, cn, k in ((1, 1, 1, 1), (2, 1, 1, 1),
                          (Fraction(1, 3), 5, 2, Fraction(7, 2))):
        beta = beta_max(c2, c4, cn, k)
        lam = lambda_min(k, beta, Fraction(1, 10), 0)
        p = BudgetParams(k=k, lam=lam, epsilon=Fraction(1, 10), C2=c2,
                         C4=c4, Cn=cn, c_prime=0, beta=beta)
        rep = exponents(p)
        assert rep.e1 == -k and type(rep.e1) is Fraction
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
    # a float c_prime is nudged in floats, to the double c' (1 + 1e-9)
    for c_prime in (4.0, 100.0, 1e300):
        lam = lambda_min(1, 0.5, 0.5, c_prime)
        assert lam == c_prime * (1 + 1e-9) > c_prime and type(lam) is float


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
    # beta_max alone takes k = 0 (C2 b^2 = C4 Cn^2); only k < 0 is out
    assert beta_max(1, 1, 1, 0) == 1
    with pytest.raises(DomainError, match="^k must be nonnegative$"):
        beta_max(1, 1, 1, -1)
    with pytest.raises(DomainError):
        lambda_min(1, beta, Fraction(1, 2), -1)
    with pytest.raises(DomainError, match="^k must be positive$"):
        lambda_min(0, beta, Fraction(1, 2), 0)
    with pytest.raises(DomainError, match="^beta must be positive$"):
        lambda_min(1, 0, Fraction(1, 2), 0)


@pytest.mark.parametrize("name", ["k", "C2", "C4", "Cn", "c_prime"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan],
                         ids=["inf", "-inf", "nan"])
def test_non_finite_input_is_named(name, bad):
    args = {"k": 1.0, "C2": 1.0, "C4": 1.0, "Cn": 1.0, "c_prime": 0.0}
    args[name] = bad
    match = f"^{name} must be finite$"
    with pytest.raises(DomainError, match=match):
        beta = beta_max(args["C2"], args["C4"], args["Cn"], args["k"])
        lambda_min(args["k"], beta, 0.1, args["c_prime"])
    with pytest.raises(DomainError, match=match):
        BudgetParams(k=args["k"], lam=1.0, epsilon=0.1, C2=args["C2"],
                     C4=args["C4"], Cn=args["Cn"], c_prime=args["c_prime"],
                     beta=1.0)


def test_validation_is_exact_beyond_the_float_range():
    huge = 10 ** 400
    beta = beta_max(1, 1, huge, 1)  # no OverflowError from a float()
    assert isinstance(beta, QuadraticSurd)
    assert beta_max(Fraction(1, huge), 1, 1, 1) is not None
    lam = lambda_min(1, Fraction(1, huge), Fraction(1, 10), 0)
    assert lam == Fraction(10 * huge, 9)
    # as floats these epsilons read 0.0 and 1.0, outside (0, 1)
    for eps in (Fraction(1, huge), 1 - Fraction(1, huge)):
        BudgetParams(k=huge, lam=Fraction(1, huge), epsilon=eps, C2=1, C4=1,
                     Cn=1, c_prime=0, beta=1)
    with pytest.raises(DomainError, match="epsilon"):
        BudgetParams(k=1, lam=1, epsilon=1 + Fraction(1, huge), C2=1, C4=1,
                     Cn=1, c_prime=0, beta=1)


def test_a_exponent():
    p = BudgetParams(k=1, lam=1, epsilon=Fraction(1, 2), C2=1, C4=1, Cn=1,
                     c_prime=0, beta=Fraction(1, 2), b_conj=2, m_nonarch=3)
    assert a_exponent(p) == 5


# -- differential test against the closed form --------------------------------


def _parts(x):
    """(a, sign(b) b^2 m) for x = a + b sqrt(m): the same pair for every
    way of writing x, whatever square factors sit under the root."""
    x = sympy.expand(sympy.radsimp(_sym(x)))
    a, rest = x.as_coeff_Add()
    return a, sympy.sign(rest) * rest ** 2


def _same(got, want):
    """Exact equality in Q(sqrt D); surd denominators are rationalised on
    the test side."""
    return _parts(got) == _parts(want)


def _oracle(c2, c4, cn, k, eps, cp):
    """beta, lambda and the three exponents from the closed form
    (-k + sqrt(k^2 + 4 C2 C4 Cn^2)) / (2 C2), with the lambda branch
    decided by a rational comparison."""
    c2, c4, cn, k, eps, cp = map(_rat, (c2, c4, cn, k, eps, cp))
    disc = k ** 2 + 4 * c2 * c4 * cn ** 2
    root = sympy.sqrt(disc)
    beta = (-k + root) / (2 * c2)
    # k / ((1 - eps) beta), with 1 / beta = (k + root) / (2 C4 Cn^2)
    base = k * (k + root) / (2 * (1 - eps) * c4 * cn ** 2)
    nudged = cp * sympy.Rational(10 ** 9 + 1, 10 ** 9)
    # base <= nudged  <=>  beta >= t  <=>  disc >= (2 C2 t + k)^2
    take_nudged = nudged > 0 and \
        disc >= (2 * c2 * k / (nudged * (1 - eps)) + k) ** 2
    lam = nudged if take_nudged else base
    return beta, lam, (-lam * (1 - eps) * beta, -k, -lam * beta)


def _draws(count, seed):
    rng = random.Random(seed)

    def frac():
        return Fraction(rng.randint(1, 10 ** 6), rng.randint(1, 10 ** 6))

    for i in range(count):
        surd = i % 4 != 3
        c2, cn, k = frac(), frac(), frac()
        if surd:
            c4 = frac()
        else:
            beta = frac()
            c4 = (c2 * beta * beta + k * beta) / (cn * cn)
        eps = Fraction(rng.randint(1, 999), 1000)
        cp = frac() if i % 5 else Fraction(0)
        yield surd, (c2, c4, cn, k, eps, cp)


def test_budget_chain_matches_closed_form_oracle():
    for surd, (c2, c4, cn, k, eps, cp) in _draws(200, 2024):
        beta = beta_max(c2, c4, cn, k)
        lam = lambda_min(k, beta, eps, cp)
        rep = exponents(BudgetParams(k=k, lam=lam, epsilon=eps, C2=c2,
                                     C4=c4, Cn=cn, c_prime=cp, beta=beta))
        want_beta, want_lam, want_es = _oracle(c2, c4, cn, k, eps, cp)
        got_es = (rep.e_spec, rep.e1, rep.e2)
        if surd:
            assert isinstance(beta, QuadraticSurd)
        else:
            assert all(isinstance(v, Fraction) for v in (beta, lam) + got_es)
        assert _same(beta, want_beta), (c2, c4, cn, k)
        assert _same(lam, want_lam), (c2, c4, cn, k, eps, cp)
        for got, want in zip(got_es, want_es):
            assert _same(got, want), (c2, c4, cn, k, eps, cp)
        assert rep.all_ok


# -- decisions that floats and 15-digit evalf get wrong ------------------------


@pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
def test_lambda_min_decides_a_near_tie_exactly(side):
    beta = beta_max(1, 1, 1, 1)  # (sqrt 5 - 1) / 2
    eps = Fraction(1, 10)
    # base = 1 / ((1 - eps) beta) = 5 (1 + sqrt 5) / 9
    scale = 10 ** 40
    root5 = Fraction(math.isqrt(5 * scale * scale), scale)  # just below
    near = 5 * (1 + root5) / 9 + side * Fraction(1, 10 ** 27)
    base = 5 * (1 + sympy.sqrt(5)) / 9
    assert abs(float(near) / float(base) - 1) < 1e-15
    lam = lambda_min(1, beta, eps, near * Fraction(10 ** 9, 10 ** 9 + 1))
    if side > 0:
        assert lam == near
    else:
        assert _same(lam, base)


def test_height_1e30_inputs_stay_exact():
    h = 10 ** 30
    c2, c4 = Fraction(h + 7, h - 3), Fraction(h - 11, 3 * h + 1)
    cn, k = Fraction(2 * h + 1, h + 13), Fraction(h + 1, h)
    eps, cp = Fraction(h - 1, 2 * h), Fraction(h, 3 * h - 1)
    beta = beta_max(c2, c4, cn, k)
    lam = lambda_min(k, beta, eps, cp)
    rep = exponents(BudgetParams(k=k, lam=lam, epsilon=eps, C2=c2, C4=c4,
                                 Cn=cn, c_prime=cp, beta=beta))
    want_beta, want_lam, want_es = _oracle(c2, c4, cn, k, eps, cp)
    assert _same(beta, want_beta)
    assert _same(lam, want_lam)
    for got, want in zip((rep.e_spec, rep.e1, rep.e2), want_es):
        assert _same(got, want)
    assert _same(rep.e1, -_rat(k))
    assert rep.all_ok


def test_surd_with_a_large_discriminant():
    # d = 4*10^200 + 1 is far too large to factor; the surd never needs to
    # take its square factors out.
    beta = beta_max(1, 1, 10 ** 100, 1)
    assert (beta.a, beta.b, beta.d) == (Fraction(-1, 2), Fraction(1, 2),
                                        4 * 10 ** 200 + 1)
    assert float(beta) == 1e100
    lam = lambda_min(1, beta, Fraction(1, 10), 0)
    rep = exponents(BudgetParams(k=1, lam=lam, epsilon=Fraction(1, 10),
                                 C2=1, C4=1, Cn=10 ** 100, c_prime=0,
                                 beta=beta))
    assert rep.e1 == -1
    assert rep.all_ok


@pytest.mark.parametrize("value", [
    sympy.sqrt(2) + sympy.sqrt(3), sympy.cbrt(2), sympy.pi,
    sympy.Float(0.5), sympy.Symbol("x", positive=True), sympy.sqrt(-5)],
    ids=["two-roots", "cube-root", "pi", "float", "symbol", "imaginary"])
def test_sympy_value_outside_a_quadratic_field_is_a_domain_error(value):
    match = f"^beta must be a rational, a float or a QuadraticSurd, " \
        f"not {re.escape(type(value).__name__)}$"
    with pytest.raises(DomainError, match=match):
        lambda_min(1, value, Fraction(1, 10), 0)


ENTRY_POINTS = {
    "beta_max": (lambda x: beta_max(x, 1, 1, 1), "C2"),
    "lambda_min": (lambda x: lambda_min(1, 1, x, 0), "epsilon"),
    "BudgetParams": (lambda x: BudgetParams(k=1, lam=1, epsilon=Fraction(1, 2),
                                            C2=1, C4=1, Cn=x, c_prime=0,
                                            beta=1), "Cn"),
    "total_envelope": (lambda x: total_envelope(10, x, 0, 1.0), "k"),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("value", [
    "1", None, 1j, sympy.sqrt(5), sympy.pi, sympy.Symbol("x")],
    ids=["str", "None", "complex", "sympy-sqrt", "sympy-pi", "symbol"])
def test_non_number_is_a_domain_error_naming_parameter_and_type(entry,
                                                                value):
    call, name = ENTRY_POINTS[entry]
    with pytest.raises(DomainError, match=f"^{name} must be a rational, a "
                       f"float or a QuadraticSurd, not "
                       f"{re.escape(type(value).__name__)}$"):
        call(value)


def test_any_rational_reads_as_a_fraction():
    # sympy's Rational registers as numbers.Rational
    beta = beta_max(sympy.Integer(2), 1, 1, sympy.Rational(1))
    assert beta == Fraction(1, 2) and type(beta) is Fraction
    assert type(beta.numerator) is int


def test_one_field_with_different_square_factors():
    # sqrt(45) written without extracting the square: it is 3 sqrt(5)
    # and combines with beta in Q(sqrt 5)
    k = QuadraticSurd(0, 1, 45)
    beta = beta_max(1, 1, 1, 1)
    lam = lambda_min(k, beta, Fraction(1, 10), 0)
    assert _same(lam, 3 * sympy.sqrt(5) * 5 * (1 + sympy.sqrt(5)) / 9)
    with pytest.raises(DomainError, match="different quadratic fields"):
        lambda_min(QuadraticSurd(0, 1, 2), beta, Fraction(1, 10), 0)
    # a surd C2 puts sqrt(5 + 4 sqrt 2) into beta: no quadratic field
    with pytest.raises(DomainError, match=r"lies outside Q\(sqrt d\)"):
        beta_max(QuadraticSurd(1, 1, 2), 1, 1, 1)


def test_float_operand_makes_a_surd_chain_float():
    beta = beta_max(1, 1, 1, 1)
    lam = lambda_min(1, beta, 0.1, 0)
    assert isinstance(lam, float)
    assert abs(lam - 5 * (1 + math.sqrt(5)) / 9) < 1e-15
    rep = exponents(BudgetParams(k=1, lam=lam, epsilon=0.1, C2=1, C4=1,
                                 Cn=1, c_prime=0, beta=beta))
    assert isinstance(rep.e_spec, float) and isinstance(rep.e2, float)
    assert rep.e1 == -1 and type(rep.e1) is Fraction


def test_total_envelope():
    got = total_envelope(100, 2, 3, 10.0)
    want = 10.0 * 100 ** -2 * math.log(100) ** 3
    assert abs(got - want) < 1e-12
    with pytest.raises(DomainError):
        total_envelope(1, 1, 0, 1.0)
    with pytest.raises(DomainError):
        total_envelope(10, 1, 0, -1.0)


# -- the surd against its Fraction reference -----------------------------------

# Spellings of one field side by side, squareful d among them, so that sums
# and products cross spellings (sqrt 8 * sqrt 2 = 4).
FIELDS = [(2, 8, 18, 50), (3, 12, 27), (5, 20, 45), (6, 24), (7,)]


def _outcome(f):
    """What f() returns, or the type and text of what it raises."""
    try:
        return f()
    except (ArithmeticError, TracegeoError, TypeError) as exc:
        return type(exc), str(exc)


def _assert_same(got, want, what):
    if isinstance(want, poly_reference.QuadraticSurd):
        assert type(got) is QuadraticSurd, what
        assert all(type(x) is Fraction for x in (got.a, got.b)), what
        assert (got.a, got.b, got.d) == (want.a, want.b, want.d), what
        assert (str(got), repr(got), hash(got), got.sign()) == \
            (str(want), repr(want), hash(want), want.sign()), what
        assert _outcome(lambda: float(got)) == \
            _outcome(lambda: float(want)), what
    else:
        assert type(got) is type(want) and got == want, what


def _seeded_surds(rng, family, count):
    """count surds over the spellings in family, as (library, reference)
    pairs; a is 0 in some, and a^2 - b^2 d has both signs."""
    def frac(lo, hi):
        return Fraction(rng.randint(lo, hi), rng.choice((1, 1, 2, 3, 7, 12)))

    for i in range(count):
        a = frac(-40, 40) if i % 5 else Fraction(0)
        b = frac(1, 20) * rng.choice((-1, 1))
        d = rng.choice(family)
        yield QuadraticSurd(a, b, d), poly_reference.QuadraticSurd(a, b, d)


OPS = {"+": lambda x, y: x + y, "-": lambda x, y: x - y,
       "*": lambda x, y: x * y, "/": lambda x, y: x / y}


def test_surd_arithmetic_matches_the_fraction_reference():
    rng = random.Random(4545)
    negative_norm = crossed = 0
    for family in FIELDS:
        surds = list(_seeded_surds(rng, family, 12))
        plain = [0, 1, -3, 7, Fraction(0), Fraction(-5, 6), Fraction(9, 4),
                 0.0, 0.5, -2.75, rng.uniform(-9, 9)]
        operands = [(y, y) for y in plain] + surds
        for x, rx in surds:
            _assert_same(-x, -rx, ("neg", rx))
            negative_norm += rx.a * rx.a < rx.b * rx.b * rx.d
            for y, ry in operands:
                crossed += getattr(ry, "d", x.d) != x.d
                for name, op in OPS.items():
                    for left, right, rl, rr in ((x, y, rx, ry),
                                                (y, x, ry, rx)):
                        want = _outcome(lambda: op(rl, rr))
                        got = _outcome(lambda: op(left, right))
                        _assert_same(got, want, (rl, name, rr))
                if isinstance(y, QuadraticSurd):
                    assert (x == y) is (rx == ry), (rx, ry)
    assert negative_norm >= 20 and crossed >= 100


def test_surds_of_different_fields_are_refused_as_the_reference_refuses():
    x, rx = QuadraticSurd(1, 1, 2), poly_reference.QuadraticSurd(1, 1, 2)
    y, ry = QuadraticSurd(1, 1, 12), poly_reference.QuadraticSurd(1, 1, 12)
    for op in OPS.values():
        want = _outcome(lambda: op(rx, ry))
        assert want[0] is DomainError
        assert _outcome(lambda: op(x, y)) == want


@pytest.mark.parametrize("a,b,d", [
    (10 ** 400, 1, 2), (-(10 ** 308), 1, 3), (Fraction(1, 10 ** 400), 1, 2),
    (0, Fraction(1, 10 ** 320), 5), (Fraction(-1, 2), Fraction(1, 2),
                                     4 * 10 ** 200 + 1),
    (10 ** 30, -1, 10 ** 60 + 1),
    (Fraction(7, 3), Fraction(-5, 11), 13), ("1/2", "-3/4", 2)],
    ids=["huge", "past-max", "tiny", "subnormal", "large-d", "cancelling",
         "plain", "strings"])
def test_surd_text_and_float_match_the_fraction_reference(a, b, d):
    _assert_same(QuadraticSurd(a, b, d), poly_reference.QuadraticSurd(a, b, d),
                 (a, b, d))


@pytest.mark.parametrize("b,d", [(1, 4), (1, 1), (1, 0), (1, -3), (1, 2.0),
                                 (0, 2), (Fraction(0), 3), (1, True)])
def test_surd_constructor_refuses_as_the_reference_refuses(b, d):
    want = _outcome(lambda: poly_reference.QuadraticSurd(1, b, d))
    assert want[0] is DomainError
    assert _outcome(lambda: QuadraticSurd(1, b, d)) == want
