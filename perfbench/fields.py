"""The `fields` workload: exact discriminants, the exponent budget,
congruence indices and Mellin finite parts on seeded inputs.

Small (n <= 4) and large (n >= 5) discriminants sit side by side, as do
surd and perfect-square budget draws, float draws of ordinary size and
two of extreme size, large levels and brute-force group orders, and
finite parts at decay rates 0.5..8 and one below 0.1.  The extreme
draws and the slow decay hit known defects (ops.KNOWN_DEFECTS).  The
seed draws every input; the number of operations of each kind is fixed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import mpmath
import sympy

from tracegeo import (BudgetParams, RationalMatrix, TailFunction, beta_max,
                      exp_preset, exponents, fp_mellin, lambda_min,
                      level_data, sl_index, sqrt_exp_preset, truncation_tail,
                      weyl_discriminant)
from tracegeo import oracles

import expect
from ops import Op

DISC_SIZES = ((2, 6), (3, 6), (4, 6), (5, 3), (6, 3), (7, 4))
PRIMES = [p for p in range(2, 2000) if all(p % q for q in range(2, p))]
LEVEL_LIMIT = 2 ** 40


def _rational(rng: random.Random, num: int, den: int) -> Fraction:
    return Fraction(rng.randint(1, num), rng.randint(1, den))


def _conjugate(diag: list[Fraction]) -> list[list[Fraction]]:
    """P D P^-1 for P = L U, L and U the unit triangular matrices of ones.
    P is dense and P^-1 = U^-1 L^-1 is small and integral, so the cost of
    a discriminant depends on D, not on a random P."""
    n = len(diag)
    p = [[min(i, j) + 1 for j in range(n)] for i in range(n)]
    u_inv = [[(i == j) - (j == i + 1) for j in range(n)] for i in range(n)]
    l_inv = [[(i == j) - (j == i - 1) for j in range(n)] for i in range(n)]
    p_inv = [[sum(u_inv[i][k] * l_inv[k][j] for k in range(n))
              for j in range(n)] for i in range(n)]
    return [[sum(p[i][k] * diag[k] * p_inv[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]


def _disc_op(rng: random.Random, n: int, repeated: bool, index: int) -> Op:
    diag: list[Fraction] = []
    while len(diag) < n:
        x = _rational(rng, 9, 6) * rng.choice((-1, 1))
        if x not in diag:
            diag.append(x)
    if repeated:
        diag[1] = diag[0]
    rows = _conjugate(diag)
    tag = "small" if n <= 4 else "large"
    want_value, want_dim = expect.diagonal_discriminant(diag)

    def run(tr):
        m = tr.call("local_data.RationalMatrix.from_rows",
                    RationalMatrix.from_rows, rows, tag=tag)
        return tr.call("local_data.weyl_discriminant", weyl_discriminant, m,
                       tag=tag)

    def check(res):
        if res.value != want_value or res.abs_inf != abs(want_value):
            return f"value {res.value}, want {want_value}"
        if res.centralizer_dim != want_dim:
            return f"centralizer dim {res.centralizer_dim}, want {want_dim}"
        return None

    return Op(f"disc[n={n},{index}]", f"fields.disc.n{n}", "local_data", run,
              check)


def _budget_chain(tr, c2, c4, cn, k, eps, cp):
    beta = tr.call("error_budget.beta_max", beta_max, c2, c4, cn, k)
    tr.count("error_budget.surd_draws", isinstance(beta, sympy.Expr))
    lam = tr.call("error_budget.lambda_min", lambda_min, k, beta, eps, cp)
    params = tr.call("error_budget.BudgetParams", BudgetParams, k=k, lam=lam,
                     epsilon=eps, C2=c2, C4=c4, Cn=cn, c_prime=cp, beta=beta)
    return beta, lam, tr.call("error_budget.exponents", exponents, params)


def _exact_budget_op(rng: random.Random, surd: bool, index: int) -> Op:
    eps = Fraction(rng.randint(1, 49), 100)
    cp = Fraction(rng.randint(0, 20), 10)
    while True:
        c2, cn, k = _rational(rng, 40, 8), _rational(rng, 20, 6), \
            _rational(rng, 30, 8)
        if surd:
            c4 = _rational(rng, 40, 8)
            disc = k * k + 4 * c2 * c4 * cn * cn
            if math.isqrt(disc.numerator) ** 2 != disc.numerator or \
                    math.isqrt(disc.denominator) ** 2 != disc.denominator:
                break
        else:
            want_beta = _rational(rng, 12, 8)
            c4 = expect.beta_square(k, c2, want_beta, cn)
            break
    ref = expect.beta_reference(c2, c4, cn, k)

    def check(result):
        beta, _, report = result
        if not report.all_ok:
            return "all_ok is false"
        if surd:
            if sympy.radsimp(report.e1 + sympy.Rational(k.numerator,
                                                        k.denominator)) != 0:
                return f"e1 = {report.e1} is not -{k}"
            if abs(float(beta) - ref) > 1e-12 * ref:
                return f"beta {float(beta)!r}, want {ref!r}"
        elif beta != want_beta or report.e1 != -k:
            return f"beta {beta}, e1 {report.e1}; want {want_beta}, {-k}"
        return None

    kind = "surd" if surd else "square"
    return Op(f"budget.{kind}[{index}]", f"fields.budget.{kind}",
              "error_budget",
              lambda tr: _budget_chain(tr, c2, c4, cn, k, eps, cp), check)


def _float_budget_op(rng: random.Random, extreme: str | None,
                     index: int) -> Op:
    def draw(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    c2, c4, cn = draw(0.25, 8), draw(0.25, 8), draw(0.25, 8)
    k, eps, cp = draw(0.5, 16), rng.uniform(0.05, 0.5), rng.uniform(0, 2)
    if extreme == "C2":
        c2 = 10.0 ** rng.uniform(-300, -250)
    elif extreme == "Cn":
        cn = 10.0 ** rng.uniform(156, 160)  # C2 C4 Cn^2 overflows
    ref = expect.beta_reference(c2, c4, cn, k)

    def check(result):
        beta, lam, _ = result
        if not abs(beta - ref) <= 1e-9 * ref:
            return f"beta {beta!r}, want {ref!r}"
        if not (0 < lam < math.inf):
            return f"lambda {lam!r} is not positive and finite"
        return None

    if extreme:
        name, kind = f"budget.float_extreme[{extreme}]", \
            "fields.budget.float_extreme"
    else:
        name, kind = f"budget.float[{index}]", "fields.budget.float"
    return Op(name, kind, "error_budget",
              lambda tr: _budget_chain(tr, c2, c4, cn, k, eps, cp), check)


def _factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    for p in PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    assert n == 1
    return out


def _level_ops(rng: random.Random, distinct: int, index: int) -> list[Op]:
    while True:
        fac = {p: rng.randint(1, 7 - distinct)
               for p in rng.sample(PRIMES, distinct)}
        level = math.prod(p ** e for p, e in fac.items())
        if level <= LEVEL_LIMIT:
            break
    n = 2 + index % 3
    want = expect.sl_order(n, fac)

    def check_level(data):
        if data.factorization != fac or data.S_N != tuple(sorted(fac)):
            return f"factorization {data.factorization}, want {fac}"
        return None

    return [Op(f"level_data[{index}:N={level}]", "fields.level_data",
               "arithmetic",
               lambda tr: tr.call("arithmetic.level_data", level_data, level),
               check_level),
            Op(f"sl_index[{index}:n={n},N={level}]", "fields.sl_index",
               "arithmetic",
               lambda tr: tr.call("arithmetic.sl_index", sl_index, n, level),
               lambda got: None if got == want else f"got {got}, want {want}")]


def _oracle_op(n: int, level: int) -> Op:
    want = expect.sl_order(n, _factor(level))

    def run(tr):
        tr.count("oracles.matrices", level ** (n * n))
        brute = tr.call("oracles.sl_group_order", oracles.sl_group_order, n,
                        level)
        return brute, tr.call("arithmetic.sl_index", sl_index, n, level)

    def check(result):
        return None if result == (want, want) else \
            f"oracle/index {result}, want {want}"

    return Op(f"oracle[n={n},N={level}]", f"fields.oracle.sl{n}", "oracles",
              run, check)


def _counted(tr, pair):
    """Wrap the evaluator so the trace counts its calls."""
    f, expansion = pair
    if not tr.enabled:
        return f, expansion
    inner = f.evaluator

    def evaluator(t):
        tr.count("mellin_fp.evals")
        return inner(t)

    return tr.call("mellin_fp.TailFunction", TailFunction, evaluator,
                   f.decay), expansion


def _mellin_op(rng: random.Random, kind: str, index: int) -> Op:
    lo, hi = (0.03, 0.1) if kind == "slow_decay" else (0.5, 8)
    lam = math.exp(rng.uniform(math.log(lo), math.log(hi)))
    t0 = rng.choice((0.5, 1.0, 2.0))
    cut = rng.uniform(1, 4)
    tail_lam = rng.uniform(0.5, 2)
    if kind in ("exp", "slow_decay"):
        want, tol = -math.log(lam), 1e-8

        def run(tr):
            pair = tr.call("mellin_fp.exp_preset", exp_preset, lam, t0)
            return tr.call("mellin_fp.fp_mellin", fp_mellin,
                           *_counted(tr, pair))
    elif kind == "sqrt":
        want, tol = expect.SQRT_FINITE_PART, 1e-7

        def run(tr):
            pair = tr.call("mellin_fp.sqrt_exp_preset", sqrt_exp_preset, t0)
            return tr.call("mellin_fp.fp_mellin", fp_mellin,
                           *_counted(tr, pair))
    elif kind == "tail_exp":
        want, tol = float(mpmath.e1(tail_lam * cut)), 1e-9

        def run(tr):
            pair = tr.call("mellin_fp.exp_preset", exp_preset, tail_lam)
            return tr.call("mellin_fp.truncation_tail", truncation_tail,
                           _counted(tr, pair)[0], cut)
    else:
        want, tol = float(mpmath.gammainc(-0.5, cut)), 1e-9

        def run(tr):
            pair = tr.call("mellin_fp.sqrt_exp_preset", sqrt_exp_preset)
            return tr.call("mellin_fp.truncation_tail", truncation_tail,
                           _counted(tr, pair)[0], cut)

    def check(got):
        return None if abs(got - want) <= tol else \
            f"got {got!r}, want {want!r}"

    return Op(f"mellin.{kind}[{index}]", f"fields.mellin.{kind}", "mellin_fp",
              run, check)


def ops(seed: int) -> list[Op]:
    rng = random.Random(f"fields:{seed}")
    out = []
    for n, count in DISC_SIZES:
        out += [_disc_op(rng, n, n >= 3 and i == 0, i) for i in range(count)]
    out += [_exact_budget_op(rng, surd, i)
            for surd in (True, False) for i in range(12)]
    out += [_float_budget_op(rng, None, i) for i in range(30)]
    out += [_float_budget_op(rng, which, 0) for which in ("C2", "Cn")]
    for i, distinct in enumerate([1] * 3 + [2, 3, 4] * 4):
        out += _level_ops(rng, distinct, i)
    out += [_oracle_op(2, level) for level in rng.sample(range(2, 31), 4)]
    out += [_oracle_op(3, 6), _oracle_op(3, 7)]
    out += [_mellin_op(rng, kind, i)
            for kind in ("exp", "sqrt", "tail_exp", "tail_sqrt")
            for i in range(6 if kind == "exp" else 3)]
    out.append(_mellin_op(rng, "slow_decay", 0))
    rng.shuffle(out)
    return out
