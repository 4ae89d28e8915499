import itertools
import random
from fractions import Fraction

import pytest
import sympy

from poly_reference import (integer_matrix, poly_divmod, poly_gcd,
                            poly_resultant, rational_charpoly, rational_det,
                            rational_rank, rational_resultant,
                            rational_squarefree, yun_squarefree)
from tracegeo import linalg


def random_matrix(rng, n, lo=-6, hi=6):
    return [[Fraction(rng.randint(lo, hi), rng.randint(1, 4))
             for _ in range(n)] for _ in range(n)]


def test_charpoly_matches_sympy():
    # Fraction matrices, then int matrices, n = 1..7.
    rng = random.Random(101)
    for trial in range(40):
        n = rng.randint(1, 7)
        m = random_matrix(rng, n)
        if trial % 2:
            m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        got = rational_charpoly(m)
        x = sympy.symbols("x")
        want = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator)
                              for e in row] for row in m]).charpoly(x)
        want_coeffs = [Fraction(int(sympy.Rational(c).p),
                                int(sympy.Rational(c).q))
                       for c in want.all_coeffs()]
        assert got == want_coeffs


def _hessenberg_charpoly(m):
    """Reference: exact Hessenberg reduction over Fraction, then the
    recurrence on the leading principal minors of xI - H."""
    a = [[Fraction(x) for x in row] for row in m]
    n = len(a)
    for c in range(n - 2):
        pivot = next((i for i in range(c + 1, n) if a[i][c] != 0), None)
        if pivot is None:
            continue
        if pivot != c + 1:
            a[c + 1], a[pivot] = a[pivot], a[c + 1]
            for row in a:
                row[c + 1], row[pivot] = row[pivot], row[c + 1]
        inv = Fraction(1) / a[c + 1][c]
        for i in range(c + 2, n):
            if a[i][c] != 0:
                f = a[i][c] * inv
                a[i] = [x - f * y for x, y in zip(a[i], a[c + 1])]
                for row in a:
                    row[c + 1] += f * row[i]
    polys = [[Fraction(1)]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        pk = [Fraction(0)] * (k + 1)
        for i, c in enumerate(prev):
            pk[i] += c
            pk[i + 1] -= c * a[k - 1][k - 1]
        prod = Fraction(1)
        for j in range(k - 1, 0, -1):
            prod *= a[j][j - 1]
            if prod == 0:
                break
            term = [prod * a[j - 1][k - 1] * c for c in polys[j - 1]]
            for i, c in enumerate(term):
                pk[k - len(term) + 1 + i] -= c
        polys.append(pk)
    return polys[n]


def _conjugate(rng, m, steps=4):
    """E m E^-1 for a product E of elementary matrices I + c e_ij: add c
    times row j to row i, then subtract c times column i from column j."""
    m = [list(row) for row in m]
    n = len(m)
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)))
        m[i] = [x + c * y for x, y in zip(m[i], m[j])]
        for row in m:
            row[j] -= c * row[i]
    return m


def _entry(rng, kind):
    if kind == "mixed":
        kind = rng.choice(("int", "fraction"))
    if kind == "int":
        return rng.randint(-7, 7)
    return Fraction(rng.randint(-7, 7), rng.randint(1, 5))


def _differential_case(rng, kind, n):
    if kind in ("int", "fraction", "mixed"):
        return [[_entry(rng, kind) for _ in range(n)] for _ in range(n)]
    if kind == "singular":
        # A product through rank r < n.
        r = rng.randint(0, max(0, n - 1))
        left = [[_entry(rng, "mixed") for _ in range(r)] for _ in range(n)]
        right = [[_entry(rng, "mixed") for _ in range(n)] for _ in range(r)]
        return [[sum((x * y for x, y in zip(row, col)), 0)
                 for col in zip(*right)] if r else [0] * n for row in left]
    if kind == "nilpotent":
        return _conjugate(rng, [[_entry(rng, "mixed") if j > i else 0
                                 for j in range(n)] for i in range(n)])
    if kind == "permutation":
        perm = rng.sample(range(n), n)
        return [[int(j == perm[i]) for j in range(n)] for i in range(n)]
    # Conjugated diagonal with repeated eigenvalues.
    values = [_entry(rng, "mixed") for _ in range(max(1, n // 2))]
    diag = [rng.choice(values) for _ in range(n)]
    return _conjugate(rng, [[diag[i] if i == j else 0 for j in range(n)]
                            for i in range(n)])


@pytest.mark.parametrize("kind", ["int", "fraction", "mixed", "singular",
                                  "nilpotent", "permutation",
                                  "repeated-eigenvalues"])
def test_charpoly_matches_the_hessenberg_route(kind):
    # 5 matrices of each size n = 0..8 per kind: 315 in all.
    rng = random.Random(f"charpoly-{kind}")
    for n in range(9):
        for _ in range(5):
            m = _differential_case(rng, kind, n)
            got = rational_charpoly(m)
            assert got == _hessenberg_charpoly(m), m
            assert got[0] == 1
            assert all(type(c) is int
                       for c in linalg.charpoly(integer_matrix(m))), m
            if kind == "nilpotent":
                assert got == [1] + [0] * n
            if kind == "singular" and n:
                assert got[-1] == 0


def test_charpoly_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="non-square"):
        linalg.charpoly([[1, 2]])


def test_det_matches_sympy():
    rng = random.Random(102)
    for _ in range(25):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        want = sympy.Matrix([[sympy.Rational(e.numerator, e.denominator)
                              for e in row] for row in m]).det()
        assert rational_det(m) == Fraction(int(want.p), int(want.q))


def test_charpoly_roots_consistency():
    # det(m) = (-1)^n * constant coefficient, trace = -c_1.
    rng = random.Random(103)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = random_matrix(rng, n)
        chi = rational_charpoly(m)
        assert len(chi) == n + 1 and chi[0] == 1
        assert rational_det(m) == (-1) ** n * chi[-1]
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
        assert rational_rank(m) == want, m
        deficient += want < min(rows, cols)
    assert deficient > 75
    assert linalg.rank([]) == 0


def test_rank_and_det_refuse_non_integer_entries():
    # Bareiss's floor division would truncate the quotients of such an
    # entry and give a wrong rank or determinant, so the entry is refused.
    for bad in (Fraction(1, 2), Fraction(4), 2.0, True):
        m = [[3, 1], [bad, 5]]
        for route in (linalg.rank, linalg.det):
            with pytest.raises(TypeError, match=type(bad).__name__):
                route(m)
    assert type(linalg.det([[3, 1], [2, 5]])) is int
    assert linalg.det([[3, 1], [2, 5]]) == 13
    assert linalg.det([]) == 1 and linalg.rank([[0, 0]]) == 0


def test_poly_helpers():
    # (x-1)(x-2) and (x-1)(x-3) share exactly (x-1).
    p = [1, -3, 2]
    q = [1, -4, 3]
    assert poly_gcd(p, q) == [1, -1]
    quo, rem = poly_divmod(p, [1, -1])
    assert quo == [1, -2] and rem == [0]
    assert linalg.poly_derivative([1, 0, -4]) == [2, 0]


def test_poly_divmod_keeps_trailing_zero_coefficients():
    # The quotient has exactly deg p - deg d + 1 coefficients.
    assert poly_divmod([2, 0], [1]) == ([2, 0], [0])
    assert poly_divmod([1, 0, 0], [1, 0]) == ([1, 0], [0])
    assert poly_divmod([3, 0, 0, 5], [1, 0]) == ([3, 0, 0], [5])
    assert poly_divmod([0, 0, 1, 0], [2]) == ([Fraction(1, 2), 0], [0])
    assert poly_divmod([1, 2], [1, 0, 0]) == ([0], [1, 2])


def test_poly_squarefree():
    # x^2 - 4: f' / gcd(f, f') = 2x keeps its trailing zero.
    assert linalg.poly_squarefree([1, 0, -4]) == [[1, 0, -4]]
    # (x^2 + 1)^2 and x (x - 1)^3 (x + 2)^3
    assert linalg.poly_squarefree([1, 0, 2, 0, 1]) == [[1], [1, 0, 1]]
    f = [1]
    for root in (0, 1, 1, 1, -2, -2, -2):
        f = linalg.poly_mul(f, [1, -root])
    split = linalg.poly_squarefree(f)
    assert split == [[1, 0], [1], [1, 1, -2]]
    assert all(type(c) is int for p in split for c in p)
    # the split scales f to a monic integer polynomial, so f must be monic
    with pytest.raises(ValueError, match="not monic"):
        linalg.poly_squarefree([2, 0, -8])


def _random_repeated_factors(rng):
    """A monic rational polynomial of degree 1..8, a product of powers of
    linear and quadratic factors, repeated ones among them."""
    f = [Fraction(1)]
    for _ in range(rng.randint(1, 4)):
        room = 9 - len(f)
        if room < 1:
            break
        degree = 2 if room >= 2 and rng.random() < 0.4 else 1
        factor = [Fraction(1)] + [Fraction(rng.randint(-9, 9),
                                           rng.randint(1, 6))
                                  for _ in range(degree)]
        for _ in range(min(rng.randint(1, 3), room // degree)):
            f = linalg.poly_mul(f, factor)
    return f


def test_squarefree_split_matches_the_fraction_reference():
    rng = random.Random(3303)
    repeated = 0
    for _ in range(1000):
        f = _random_repeated_factors(rng)
        split = rational_squarefree(f)
        assert split == yun_squarefree(f), f
        repeated += len(split) > 1
    assert repeated > 330


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
        assert rational_resultant(a, b) == want
        sign = (-1) ** ((len(a) - 1) * (len(b) - 1))
        assert rational_resultant(b, a) == sign * want


def _random_int_poly(rng, degree):
    p = [rng.randint(-9, 9) for _ in range(degree + 1)]
    p[0] = p[0] or rng.choice((-1, 1))
    return p


def test_integer_resultant_matches_the_fraction_reference():
    # 30 seeded integer pairs for each pair of degrees 0..7, constants and
    # deg a < deg b included, each in both orders.  One pair in three of
    # positive degrees is built to share a linear factor, so its resultant
    # is zero.
    rng = random.Random(3636)
    zero = 0
    for da, db in itertools.product(range(8), repeat=2):
        for trial in range(30):
            if trial % 3 or not (da and db):
                a, b = _random_int_poly(rng, da), _random_int_poly(rng, db)
            else:
                root = [rng.randint(1, 3), rng.randint(-5, 5)]
                a = linalg.poly_mul(_random_int_poly(rng, da - 1), root)
                b = linalg.poly_mul(_random_int_poly(rng, db - 1), root)
            for x, y in ((a, b), (b, a)):
                got = linalg.poly_resultant(x, y)
                assert type(got) is int, (x, y)
                assert got == poly_resultant(x, y), (x, y)
            zero += got == 0
    assert zero > 490
