"""The `cli-cold` workload: `python -m tracegeo <sub> ... --json`, one
fresh process per call, one call at a time.

Interpreter start and `import tracegeo` dominate here and almost nowhere
else.  Each pass covers the eight light subcommands, one heavy `k E8`,
one `mellin-fp --spec` on sampled data (the PCHIP path) and three bad
inputs with their documented exit codes.  The seed draws the arguments.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from fractions import Fraction

import expect
from ops import Op

CALL_TIMEOUT_S = 60
SIMPLE_SMALL = ["A1", "A2", "A3", "B2", "B3", "C2", "C3", "D3", "D4", "G2"]
CLASSICAL = [f"{s}{r}" for s in "ABC" for r in range(1, 7)] + \
    [f"D{r}" for r in range(2, 7)] + [f"gl{n}" for n in range(2, 8)]
PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43]


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _envelope(sub: str, check_result):
    """Check a successful call: exit 0, a schema-1 envelope, the answer."""
    def check(outcome):
        code, out, err = outcome
        if code != 0:
            return f"exit {code}: {err.strip()[:200]}"
        env = json.loads(out)
        if env.get("schema") != "1" or env.get("command") != sub or \
                set(env) != {"schema", "command", "result"}:
            return f"bad envelope keys {sorted(env)}"
        return check_result(env["result"])
    return check


def _error(code_want: int):
    def check(outcome):
        code, out, err = outcome
        if code != code_want:
            return f"exit {code}, want {code_want}: {err.strip()[:200]}"
        if out or not err.startswith("error: "):
            return "error call wrote stdout or no 'error: ' line"
        return None
    return check


def _equal(want):
    return lambda got: None if got == want else f"got {got}, want {want}"


def _k_case(rng: random.Random):
    factors = rng.sample(SIMPLE_SMALL, rng.randint(1, 2))
    while expect.rank(factors) > 5:
        factors = factors[:1]
    torus, degree = rng.randint(0, 1), rng.randint(1, 3)
    spec = "x".join(factors) + (f"+T{torus}" if torus else "")
    spec += f"@res={degree}" if degree != 1 else ""
    want = {"spec": spec, **expect.k_report(factors, degree)}
    return ["k", spec], _equal(want)


def _orbits_case(rng: random.Random):
    name = rng.choice(CLASSICAL)

    def check(rows):
        return expect.orbit_dims_ok(name, [row["dim"] for row in rows])
    return ["orbits", name], check


def _parabolics_case(rng: random.Random):
    factors = rng.choice([[t] for t in SIMPLE_SMALL if int(t[1:]) <= 3]
                         + [["A1", "A1"], ["A1", "A2"], ["A1", "B2"]])
    want = math.prod(expect.parabolic_count(f) for f in factors)
    n_roots = expect.root_count(factors)

    def check(rows):
        if len(rows) != want:
            return f"{len(rows)} parabolic subsets, want {want}"
        if any(len(r["levi"]) + 2 * r["dim_V"] != n_roots for r in rows):
            return "levi and radical sizes do not add up to |R|"
        return None
    return ["parabolics", "x".join(factors)], check


def _discriminant_case(rng: random.Random):
    diag = rng.sample([Fraction(a, b) for a in range(-9, 10) if a
                       for b in range(1, 5)], 3)
    p = [[1, rng.choice((-1, 1, 2)), 0], [0, 1, rng.choice((-1, 1))],
         [0, 0, 1]]
    # p is upper unitriangular, so its inverse is exact and integral.
    pinv = [[1, -p[0][1], p[0][1] * p[1][2]], [0, 1, -p[1][2]], [0, 0, 1]]
    rows = [[_frac(sum(p[i][k] * diag[k] * pinv[k][j] for k in range(3)))
             for j in range(3)] for i in range(3)]
    prime = rng.choice(PRIMES[3:])
    value, dim = expect.diagonal_discriminant(diag)

    def check(result):
        if result["value"] != _frac(value) or \
                result["centralizer_dim"] != dim:
            return f"got {result['value']}, want {_frac(value)}"
        return None if str(prime) in result["p_valuations"] else \
            f"valuation at requested prime {prime} missing"
    return ["discriminant", "--matrix", json.dumps(rows), "--primes",
            str(prime)], check


def _index_case(rng: random.Random):
    level = 2 ** 41
    while level > 2 ** 40:
        fac = {p: rng.randint(1, 4) for p in rng.sample(PRIMES, 3)}
        level = math.prod(p ** e for p, e in fac.items())
    n = rng.randint(2, 4)
    want = {"group": "sl", "n": n, "level": level,
            "index": expect.sl_order(n, fac), "prime_support": sorted(fac)}
    return ["index", "--n", str(n), "--level", str(level)], _equal(want)


def _levels_case(rng: random.Random):
    allowed = sorted(rng.sample(PRIMES[:6], 2))
    supports = [rng.sample(PRIMES[:6], rng.randint(1, 2)) for _ in range(3)]
    levels = [math.prod(p ** rng.randint(1, 3) for p in s) for s in supports]
    offenders = [{"level": n, "extra": sorted(set(s) - set(allowed))}
                 for n, s in zip(levels, supports) if set(s) - set(allowed)]
    want = {"ok": not offenders, "reference": allowed,
            "union": sorted({p for s in supports for p in s}),
            "offenders": offenders}
    return ["levels", "check-prime-fixed", ",".join(map(str, levels)),
            "--allowed", ",".join(map(str, allowed))], _equal(want)


def _near(want: float, tol: float):
    def check(result):
        got = float(result["finite_part"])
        return None if abs(got - want) <= tol else f"got {got}, want {want}"
    return check


def _mellin_case(rng: random.Random):
    lam = round(math.exp(rng.uniform(math.log(0.5), math.log(8))), 6)
    return ["mellin-fp", "--preset", "exp", "--lambda", repr(lam)], \
        _near(-math.log(lam), 1e-8)


def _budget_case(rng: random.Random):
    k, c2, cn, beta = (Fraction(rng.randint(1, 20), rng.randint(1, 6))
                       for _ in range(4))
    c4 = expect.beta_square(k, c2, beta, cn)

    def check(result):
        if result["beta"] != _frac(beta) or \
                result["exponents"]["e1"] != _frac(-k) or \
                result["all_ok"] is not True:
            return f"got {result}, want beta {_frac(beta)}, e1 {_frac(-k)}"
        return None
    return ["budget", "--k", _frac(k), "--C2", _frac(c2), "--C4", _frac(c4),
            "--Cn", _frac(cn)], check


def _mellin_spec_case(rng: random.Random):
    lam = round(rng.uniform(0.5, 2.0), 4)
    terms = [[j, repr((-lam) ** j / math.factorial(j))] for j in range(4)]
    samples = [[round(0.05 * i, 2), math.exp(-lam * 0.05 * i)]
               for i in range(1, 121)]
    spec = {"t0": 1.0, "decay": {"C": 1.1, "lambda": lam}, "terms": terms,
            "samples": samples}
    return ["mellin-fp", "--spec", json.dumps(spec), "--tol", "1e-4"], \
        _near(-math.log(lam), 1e-3)


LIGHT = [("k", _k_case), ("orbits", _orbits_case),
         ("parabolics", _parabolics_case),
         ("discriminant", _discriminant_case), ("index", _index_case),
         ("levels", _levels_case), ("mellin-fp", _mellin_case),
         ("budget", _budget_case)]


def _call(argv: list[str], env: dict, cwd: str):
    done = subprocess.run([sys.executable, "-m", "tracegeo", *argv],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=CALL_TIMEOUT_S)
    return done.returncode, done.stdout, done.stderr


def _op(op_id: str, kind: str, sub: str, argv: list[str], check,
        env: dict, cwd: str) -> Op:
    return Op(op_id, kind, "cli",
              lambda tr: tr.call(f"cli.{sub}", _call, argv, env, cwd),
              check)


def ops(seed: int, env: dict, cwd: str) -> list[Op]:
    """One pass; `sub` in each op's kind names the subcommand, or
    "error" for the bad-input calls."""
    rng = random.Random(f"cli-cold:{seed}")
    out = []
    for sub, case in LIGHT:
        argv, check = case(rng)
        argv.append("--json")
        out.append(_op(f"{sub}[{' '.join(argv[1:-1])[:60]}]", f"cli.{sub}",
                       sub, argv, _envelope(sub, check), env, cwd))
    out.append(_op("k[E8]", "cli.k.heavy", "k", ["k", "E8", "--json"],
                   _envelope("k", _equal({"spec": "E8",
                                          **expect.k_report(["E8"])})),
                   env, cwd))
    argv, check = _mellin_spec_case(rng)
    out.append(_op("mellin-fp[--spec samples]", "cli.mellin-fp.spec",
                   "mellin-fp", argv + ["--json"],
                   _envelope("mellin-fp", check), env, cwd))
    big = rng.choice(["A9", "B9", "C9", "D9", "A10"])
    bad = rng.choice(["Z3", "H4", "E9", "A0", "G3"])
    lam = str(rng.randint(1, 4))
    errors = [
        ("guard", ["k", big, "--method", "pairs"], 3),
        ("parse", ["k", bad], 2),
        ("tol0", ["mellin-fp", "--preset", "exp", "--lambda", lam,
                  "--tol", "0"], 2),
    ]
    for name, argv, code in errors:
        out.append(_op(f"error.{name}[{' '.join(argv)}]",
                       f"cli.error.{name}", "error", argv + ["--json"],
                       _error(code), env, cwd))
    rng.shuffle(out)
    return out
