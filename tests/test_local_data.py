import random
from fractions import Fraction

import pytest

from poly_reference import (integer_matrix, poly_gcd, poly_resultant,
                            rational_charpoly, rational_squarefree,
                            yun_squarefree)
from tracegeo import linalg, local_data, oracles
from tracegeo.errors import DomainError
from tracegeo.local_data import (RationalMatrix, as_fraction,
                                 modulus_character, weyl_discriminant)


def diag(*entries):
    n = len(entries)
    return RationalMatrix.from_rows(
        [[entries[i] if i == j else 0 for j in range(n)] for i in range(n)])


def test_as_fraction():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(5) == 5
    assert as_fraction(Fraction(1, 2)) == Fraction(1, 2)
    with pytest.raises(DomainError):
        as_fraction(0.5)
    for text, value in (("0.5", Fraction(1, 2)), ("-7/3", Fraction(-7, 3)),
                        ("1e-3", Fraction(1, 1000))):
        assert as_fraction(text) == value, text
    # the number grammar: no whitespace, underscores or non-ASCII digits
    for text in ("x", " 3/4", "1_0", "\u0663"):
        with pytest.raises(DomainError):
            as_fraction(text)


def test_identity_and_central():
    for n in (2, 3, 4):
        res = weyl_discriminant(diag(*([1] * n)))
        assert res.value == 1
        assert res.centralizer_dim == n * n
    res = weyl_discriminant(diag(7, 7))
    assert res.value == 1
    assert res.centralizer_dim == 4


def test_diag_2_3():
    res = weyl_discriminant(diag(2, 3), primes=[5])
    assert res.value == Fraction(-1, 6)
    assert res.abs_inf == Fraction(1, 6)
    assert res.p_valuations == {2: -1, 3: -1, 5: 0}
    assert res.centralizer_dim == 2


def test_repeated_eigenvalue_block():
    # diag(2, 2, 3): the centralizer is gl(2) x gl(1), dimension 5
    res = weyl_discriminant(diag(2, 2, 3))
    want = (1 - Fraction(2, 3)) ** 2 * (1 - Fraction(3, 2)) ** 2
    assert res.value == want
    assert res.centralizer_dim == 5


def test_matches_oracles_on_random_diagonals():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.choice([2, 3, 4])
        entries = [Fraction(rng.choice([x for x in range(-7, 8) if x]),
                            rng.randint(1, 5)) for _ in range(n)]
        rows = [[entries[i] if i == j else Fraction(0) for j in range(n)]
                for i in range(n)]
        value = weyl_discriminant(RationalMatrix.from_rows(rows)).value
        assert value == oracles.diagonal_discriminant(entries)
        assert value == oracles.complement_determinant(rows)


def test_non_diagonal_semisimple():
    # rotation by a quarter turn: eigenvalues +-i, ratio -1 twice
    m = RationalMatrix.from_rows([[0, -1], [1, 0]])
    res = weyl_discriminant(m)
    assert res.value == 4
    assert res.centralizer_dim == 2


def test_conjugated_matrix_keeps_discriminant():
    # discriminant only depends on eigenvalues: conjugate diag(2,3) by a
    # shear
    m = RationalMatrix.from_rows([[2, 1], [0, 3]])
    res = weyl_discriminant(m)
    assert res.value == Fraction(-1, 6)


def test_rejects_bad_input():
    with pytest.raises(DomainError):
        weyl_discriminant(diag(0, 1))
    with pytest.raises(DomainError):
        weyl_discriminant(RationalMatrix.from_rows([[1, 1], [0, 1]]))
    with pytest.raises(DomainError):
        weyl_discriminant(diag(2, 3), primes=[4])
    for p in (True, 5.0):
        with pytest.raises(DomainError, match=f"^{p} is not a prime$"):
            weyl_discriminant(diag(2, 3), primes=[p])
    with pytest.raises(DomainError):
        RationalMatrix.from_rows([[1, 2], [3]])


def test_modulus_character():
    # two 1x1 blocks with entries a, d: the character is |a/d|
    assert modulus_character([1, 1], [2, 1]) == 2
    assert modulus_character([1, 1], [-2, 1]) == 2
    assert modulus_character([1, 1], [2, 1], place=2) == Fraction(1, 2)
    assert modulus_character([1, 1], [2, 1], place=3) == 1
    # GL(3) with blocks of sizes 1 and 2
    a, d2 = Fraction(2), Fraction(9)
    want = abs(a ** 2 / d2)
    assert modulus_character([1, 2], [a, d2]) == want
    with pytest.raises(DomainError):
        modulus_character([1], [2, 3])
    with pytest.raises(DomainError, match="block sizes must be positive"):
        modulus_character([True], [2])
    with pytest.raises(DomainError):
        modulus_character([1, 1], [2, 0])
    with pytest.raises(DomainError):
        modulus_character([1, 1], [2, 3], place=6)
    with pytest.raises(DomainError, match="^place must be 'inf' or a prime, "
                       "got True$"):
        modulus_character([1, 1], [2, 3], place=True)



# -- differential test: the route against independent references -------------
#
# Dense conjugates P D P^-1 are checked against the eigenvalue product and
# the centralizer dimension sum(multiplicity^2); non-split semisimple
# matrices against a sympy reference that builds the n^2 x n^2 matrix of
# X -> g X g^-1 and takes its characteristic polynomial.


def _conjugate(rng, m):
    """P m P^-1 for a random integer P = L U with unit triangular L, U."""
    import sympy
    n = len(m)
    lower = sympy.Matrix(n, n, lambda i, j: int(i == j) if i <= j
                         else rng.randint(-2, 2))
    upper = sympy.Matrix(n, n, lambda i, j: int(i == j) if i >= j
                         else rng.randint(-2, 2))
    p = lower * upper
    out = p * sympy.Matrix([[sympy.Rational(str(v)) for v in row]
                            for row in m]) * p.inv()
    return [[Fraction(int(out[i, j].p), int(out[i, j].q)) for j in range(n)]
            for i in range(n)]


def _eigenvalue_corpus():
    rng = random.Random(2026)
    cases = []
    for n in range(2, 8):
        distinct = []
        while len(distinct) < n:
            x = Fraction(rng.randint(1, 9), rng.randint(1, 5)) \
                * rng.choice((-1, 1))
            if x not in distinct and -x not in distinct:
                distinct.append(x)
        repeated = distinct[:n - n // 2] + distinct[:n // 2]
        signed = [s * x for x in distinct[:(n + 1) // 2] for s in (1, -1)][:n]
        for kind, diag in (("distinct", distinct), ("repeated", repeated),
                           ("signed", signed)):
            rows = _conjugate(rng, [[diag[i] if i == j else 0
                                     for j in range(n)] for i in range(n)])
            cases.append(pytest.param(diag, rows, id=f"n{n}-{kind}"))
    return cases


EIGENVALUE_CORPUS = _eigenvalue_corpus()


@pytest.mark.parametrize("diag,rows", EIGENVALUE_CORPUS)
def test_dense_conjugates_match_eigenvalue_product(diag, rows):
    res = weyl_discriminant(RationalMatrix.from_rows(rows))
    assert res.value == oracles.diagonal_discriminant(diag)
    assert res.abs_inf == abs(res.value)
    assert res.centralizer_dim == sum(diag.count(x) ** 2 for x in set(diag))


def _companion(coeffs):
    """Companion matrix of the monic x^n + c_1 x^(n-1) + ... + c_n."""
    n = len(coeffs)
    return [[int(i == j + 1) if j < n - 1 else -coeffs[n - 1 - i]
             for j in range(n)] for i in range(n)]


def _block_sum(a, b):
    n, m = len(a), len(b)
    return [list(row) + [0] * m for row in a] + \
        [[0] * n + list(row) for row in b]


def _sympy_discriminant(rows):
    """det(1 - Ad g) off the centralizer and the centralizer dimension,
    from sympy's characteristic polynomial of the n^2 x n^2 conjugation
    matrix kron(g, g^-T)."""
    import sympy
    from sympy.matrices import kronecker_product
    x = sympy.Symbol("x")
    g = sympy.Matrix([[sympy.Rational(str(v)) for v in row] for row in rows])
    chi = kronecker_product(g, g.inv().T).charpoly(x)
    one = sympy.PurePoly(x - 1, x)
    m = 0
    while chi.eval(1) == 0:
        chi = chi.quo(one)
        m += 1
    value = chi.eval(1)
    return Fraction(int(value.p), int(value.q)), m


QUARTER_TURN = [[0, -1], [1, 0]]
NON_SPLIT = {
    "x2+1": _companion([0, 1]),
    "x2-2": _companion([0, -2]),
    "x3-2": _companion([0, 0, -2]),
    "x4+x+1": _companion([0, 0, 1, 1]),
    "C+C": _block_sum(QUARTER_TURN, QUARTER_TURN),
    "x2-2+3": _block_sum(_companion([0, -2]), [[3]]),
    "x2+1+scalar-2": _block_sum(_companion([0, 1]), [[-2, 0], [0, -2]]),
    "x3-2+1/2-dense": _conjugate(random.Random(7), _block_sum(
        _companion([0, 0, -2]), [[Fraction(1, 2)]])),
    "x4+x+1-dense": _conjugate(random.Random(8), _companion([0, 0, 1, 1])),
}
SMALL_DENSE = {c.id: c.values[1] for c in EIGENVALUE_CORPUS
               if len(c.values[0]) <= 4}


@pytest.mark.parametrize("rows", [*NON_SPLIT.values(), *SMALL_DENSE.values()],
                         ids=[*NON_SPLIT, *SMALL_DENSE])
def test_matches_sympy_conjugation_matrix(rows):
    res = weyl_discriminant(RationalMatrix.from_rows(rows))
    assert (res.value, res.centralizer_dim) == _sympy_discriminant(rows)


def test_invertibility_is_checked_before_semisimplicity():
    with pytest.raises(DomainError, match="^matrix is not invertible$"):
        weyl_discriminant(RationalMatrix.from_rows([[0, 1], [0, 0]]))
    with pytest.raises(DomainError, match="^matrix is not semisimple"):
        weyl_discriminant(RationalMatrix.from_rows([[2, 1], [0, 2]]))


def test_squarefree_charpoly_skips_the_annihilation_check(monkeypatch):
    # n distinct eigenvalues make the matrix semisimple, so the radical's
    # value at it is never formed; a repeated eigenvalue still forms it.
    def boom(p, m):
        raise AssertionError("annihilation checked")
    monkeypatch.setattr(local_data, "_annihilates", boom)
    squarefree = [name for name in NON_SPLIT
                  if name not in ("C+C", "x2+1+scalar-2")]
    for rows in ([[2, 0], [0, 3]], [[0, 1], [-2, 3]],
                 [[1, 2, 0], [3, 4, 5], [0, 1, 1]],
                 *map(NON_SPLIT.get, squarefree)):
        weyl_discriminant(RationalMatrix.from_rows(rows))
    for rows in (NON_SPLIT["C+C"], [[2, 0, 0], [0, 2, 0], [0, 0, 3]]):
        with pytest.raises(AssertionError, match="annihilation checked"):
            weyl_discriminant(RationalMatrix.from_rows(rows))


# -- differential test: the library route against the power-sum route -------
#
# The power-sum route builds the characteristic polynomial of Ad(g), of
# degree n^2, from the power sums p_k(g) p_k(g^-1) by Newton's identities,
# divides it by (x - 1) as often as 1 is a root, and evaluates the quotient
# at 1.  It is compared with local_data._discriminant before valuations,
# because the value of a random dense matrix often has a cofactor that
# Pollard-Brent cannot split within its step budget.


def _power_sums(chi, count):
    """p_1..p_count of the roots of the monic chi (highest degree first),
    by Newton's identities p_k = -(k c_k + sum_{i<k} c_i p_{k-i})."""
    p = []
    for k in range(1, count + 1):
        s = k * chi[k] if k < len(chi) else 0
        for i in range(1, min(k, len(chi))):
            s += chi[i] * p[k - i - 1]
        p.append(-s)
    return p


def _from_power_sums(p):
    """The monic polynomial of degree len(p) whose roots have the power
    sums p, by the same identities solved for c_k."""
    c = [Fraction(1)]
    for k in range(1, len(p) + 1):
        s = p[k - 1]
        for i in range(1, k):
            s += c[i] * p[k - i - 1]
        c.append(-s / k)
    return c


def _power_sum_discriminant(rows):
    chi_g = rational_charpoly(rows)
    size = len(rows) ** 2
    chi_inv = [c / chi_g[-1] for c in reversed(chi_g)]
    coeffs = _from_power_sums([a * b for a, b in zip(
        _power_sums(chi_g, size), _power_sums(chi_inv, size))])
    m = 0
    while sum(coeffs) == 0:
        out = []
        acc = Fraction(0)
        for c in coeffs[:-1]:
            acc += c
            out.append(acc)
        coeffs = out
        m += 1
    return sum(coeffs, Fraction(0)), m


def _random_dense():
    """60 dense rational matrices, n = 2..6, drawn until they are
    invertible with distinct eigenvalues (so semisimple)."""
    rng = random.Random(1616)
    cases = []
    while len(cases) < 60:
        n = 2 + len(cases) % 5
        rows = [[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(n)] for _ in range(n)]
        chi = rational_charpoly(rows)
        if chi[-1] and len(poly_gcd(
                chi, linalg.poly_derivative(chi))) == 1:
            cases.append(pytest.param(rows, id=f"dense-n{n}-{len(cases)}"))
    return cases


RANDOM_DENSE = _random_dense()


@pytest.mark.parametrize("rows", [
    *(pytest.param(c.values[1], id=c.id) for c in EIGENVALUE_CORPUS),
    *(pytest.param(rows, id=name) for name, rows in NON_SPLIT.items()),
    *RANDOM_DENSE])
def test_matches_the_power_sum_route(rows):
    assert local_data._discriminant(
        [[Fraction(x) for x in row] for row in rows]) == \
        _power_sum_discriminant(rows)


def _power(p, k):
    out = [Fraction(1)]
    for _ in range(k):
        out = linalg.poly_mul(out, p)
    return out


@pytest.mark.parametrize("rows", [
    *(pytest.param(c.values[1], id=c.id) for c in EIGENVALUE_CORPUS),
    *(pytest.param(rows, id=name) for name, rows in NON_SPLIT.items())])
def test_squarefree_split_recovers_the_charpoly(rows):
    chi = rational_charpoly(rows)
    split = rational_squarefree(chi)
    product = [Fraction(1)]
    for k, p in enumerate(split, 1):
        assert p[0] == 1
        product = linalg.poly_mul(product, _power(p, k))
    assert product == chi
    assert len(split[-1]) > 1


def test_squarefree_split_matches_the_fraction_reference():
    # Every charpoly above, rational coefficients included, splits as
    # Yun's algorithm over Fraction splits it.
    for rows in [c.values[1] for c in EIGENVALUE_CORPUS] + \
            list(NON_SPLIT.values()) + [c.values[0] for c in RANDOM_DENSE]:
        chi = rational_charpoly(rows)
        assert rational_squarefree(chi) == yun_squarefree(chi), rows


def test_integer_resultant_on_every_charpoly_above():
    # The integer charpoly of D g for every matrix above, its derivative
    # and its squarefree factors: each pair in both orders.
    for rows in [c.values[1] for c in EIGENVALUE_CORPUS] + \
            list(NON_SPLIT.values()) + [c.values[0] for c in RANDOM_DENSE]:
        chi = linalg.charpoly(integer_matrix(rows))
        polys = [chi] + [p for p in linalg.poly_squarefree(chi) if len(p) > 1]
        for a in polys:
            for b in polys + [linalg.poly_derivative(a)]:
                for x, y in ((a, b), (b, a)):
                    assert linalg.poly_resultant(x, y) == \
                        poly_resultant(x, y), rows


@pytest.mark.parametrize("diag,rows", EIGENVALUE_CORPUS)
def test_squarefree_split_sorts_eigenvalues_by_multiplicity(diag, rows):
    split = rational_squarefree(rational_charpoly(rows))
    for k, p in enumerate(split, 1):
        want = [Fraction(1)]
        for x in sorted(set(diag)):
            if diag.count(x) == k:
                want = linalg.poly_mul(want, [1, -x])
        assert p == want
