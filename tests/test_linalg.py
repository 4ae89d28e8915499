import random
from fractions import Fraction

import sympy

from tracegeo import linalg


def random_matrix(rng, n, lo=-6, hi=6):
    return [[Fraction(rng.randint(lo, hi), rng.randint(1, 4))
             for _ in range(n)] for _ in range(n)]


def test_charpoly_matches_sympy():
    rng = random.Random(101)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        got = linalg.charpoly(m)
        x = sympy.symbols("x")
        want = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator)
                              for e in row] for row in m]).charpoly(x)
        want_coeffs = [Fraction(int(sympy.Rational(c).p),
                                int(sympy.Rational(c).q))
                       for c in want.all_coeffs()]
        assert got == want_coeffs


def test_det_matches_sympy():
    rng = random.Random(102)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        want = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator)
                              for e in row] for row in m]).det()
        assert linalg.det(m) == Fraction(int(want.p), int(want.q))


def test_charpoly_roots_consistency():
    # det(m) = (-1)^n * constant coefficient, trace = -c_1.
    rng = random.Random(103)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        chi = linalg.charpoly(m)
        assert len(chi) == n + 1 and chi[0] == 1
        assert linalg.det(m) == (-1) ** n * chi[-1]
        assert sum(m[i][i] for i in range(n)) == -chi[1]


def test_rank_matches_sympy():
    # int and Fraction matrices up to 6x6.  Half are products of a
    # rows x inner and an inner x cols factor with inner < min(rows, cols)
    # where possible, so most of those are rank-deficient.  Two in three
    # get each row scaled by an int or a Fraction, which keeps the rank
    # and mixes all-int rows with Fraction rows.
    rng = random.Random(105)
    deficient = 0
    for trial in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 6)
        if trial % 2 == 0:
            inner = rng.randint(1, max(1, min(rows, cols) - 1))
            left = [[rng.randint(-3, 3) for _ in range(inner)]
                    for _ in range(rows)]
            right = [[rng.randint(-3, 3) for _ in range(cols)]
                     for _ in range(inner)]
            m = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
                 for row in left]
        else:
            m = [[rng.randint(-2, 2) for _ in range(cols)]
                 for _ in range(rows)]
        if trial % 3:
            scales = [rng.choice((1, -2, Fraction(-3, 2), Fraction(5, 3),
                                  Fraction(1, 4))) for _ in m]
            m = [[x * f for x in row] for f, row in zip(scales, m)]
        want = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator)
                              for x in row] for row in m]).rank()
        assert linalg.rank(m) == want, m
        deficient += want < min(rows, cols)
    assert deficient > 75
    assert linalg.rank([]) == 0


def test_poly_helpers():
    # (x-1)(x-2) and (x-1)(x-3) share exactly (x-1).
    p = [1, -3, 2]
    q = [1, -4, 3]
    assert linalg.poly_gcd(p, q) == [1, -1]
    quo, rem = linalg.poly_divmod(p, [1, -1])
    assert quo == [1, -2] and rem == [0]
    assert linalg.poly_derivative([1, 0, -4]) == [2, 0]


def test_poly_divmod_keeps_trailing_zero_coefficients():
    # The quotient has exactly deg p - deg d + 1 coefficients.
    assert linalg.poly_divmod([2, 0], [1]) == ([2, 0], [0])
    assert linalg.poly_divmod([1, 0, 0], [1, 0]) == ([1, 0], [0])
    assert linalg.poly_divmod([3, 0, 0, 5], [1, 0]) == ([3, 0, 0], [5])
    assert linalg.poly_divmod([0, 0, 1, 0], [2]) == ([Fraction(1, 2), 0],
                                                    [0])
    assert linalg.poly_divmod([1, 2], [1, 0, 0]) == ([0], [1, 2])


def test_poly_squarefree():
    # x^2 - 4: f' / gcd(f, f') = 2x keeps its trailing zero.
    assert linalg.poly_squarefree([1, 0, -4]) == [[1, 0, -4]]
    # (x^2 + 1)^2 and x (x - 1)^3 (x + 2)^3
    assert linalg.poly_squarefree([1, 0, 2, 0, 1]) == [[1], [1, 0, 1]]
    f = [1]
    for root in (0, 1, 1, 1, -2, -2, -2):
        f = linalg.poly_mul(f, [1, -root])
    assert linalg.poly_squarefree(f) == [[1, 0], [1], [1, 1, -2]]


def test_poly_resultant_matches_the_root_product():
    # a = c prod (x - r_i) with rational roots, so
    # Res(a, b) = c^deg b prod b(r_i) exactly.
    rng = random.Random(106)
    for _ in range(200):
        c = Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 3))
        roots = [Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                 for _ in range(rng.randint(1, 5))]
        a = [c]
        for r in roots:
            a = linalg.poly_mul(a, [1, -r])
        b = [Fraction(rng.randint(-4, 4), rng.randint(1, 2))
             for _ in range(rng.randint(1, 6))]
        b[0] = b[0] or Fraction(1)
        want = c ** (len(b) - 1)
        for r in roots:
            want *= sum(x * r ** i for i, x in enumerate(reversed(b)))
        assert linalg.poly_resultant(a, b) == want
        sign = (-1) ** ((len(a) - 1) * (len(b) - 1))
        assert linalg.poly_resultant(b, a) == sign * want
