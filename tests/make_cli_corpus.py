"""Regenerate tests/cli_corpus.json, the CLI byte corpus.

The corpus is the one place the bytes `tracegeo` prints are pinned by
digest.  Each entry is one call: its argv, its exit code and the sha256
of its stdout and of its stderr, as `cli.main` writes them in process.
One mask applies before hashing, here and in every replay: reproduce's
per-check timings (`"seconds": "..."` and `(0.12 s)`) are blanked
(TIMINGS).  Every call in process also walks its --json result and fails
on a raw float, which json would write as a number (raw_float_check).

tests/test_cli_corpus.py replays every entry in process, and CI replays
every entry through the installed `tracegeo` console script, one process
per call and 10 s each (check(run_installed)).  A change that alters an
entry's bytes is an output change and is named as one.  The corpus only
grows: this script refuses to write a corpus that drops an argv of the
committed one or lists an argv twice.

Run from the repository root:

    PYTHONPATH=src python tests/make_cli_corpus.py

and replay the corpus in process on any interpreter, pytest or not, with

    PYTHONPATH=src:tests python3.12 -c \
        "import make_cli_corpus as m; raise SystemExit(m.check(m.run))"
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import subprocess
from pathlib import Path

from tracegeo import cli

CORPUS = Path(__file__).with_name("cli_corpus.json")

SIMPLE_TYPES = ([f"{s}{r}" for s in "ABC" for r in range(1, 9)]
                + [f"D{r}" for r in range(2, 9)]
                + ["E6", "E7", "E8", "F4", "G2"])
PRODUCTS = ["A2xB3", "G2xF4", "D4xA1", "E6xA2", "B2xC3", "F4xB4"]

# k of every simple type of rank <= 8 and some products: E8's generated
# roots feed the pairs route; the pairs DP's leaf cases are alpha_8 on
# alpha_6 in D8 and alpha_2 on alpha_4 in E7; pairs runs factor by factor,
# yet the total-rank guard still nulls it above rank 8 (A4xA5).  k
# generates no root above rank 8, so the root guard never trips (A45).
ARGVS = ([["k", name, "--json"] for name in SIMPLE_TYPES + PRODUCTS]
         + [["k", "A4xA5", "--json"], ["k", "E8xA1", "--json"],
            ["k", "D4xA1+T1@res=2", "--json"], ["k", "B3xC2+T2@res=3"]]
         + [["k", "E6xA2", "--method", m]
            for m in ("pairs", "richardson", "minorbit")]
         + [["k", "A9", "--method", "pairs"], ["k", "A46"], ["k", "Z3"]]
         + [["k", "A45", "--json"], ["k", "A2+T" + "9" * 20],
            ["k", "A46", "--degree", "0"]]
         + [["parabolics", name, "--json"]
            for name in ("A1", "A2", "A3", "B2", "G2", "A1xA1")]
         # The root-coordinate guard sits where roots are generated (exit 3),
         # and parabolics reads neither @res= nor @relative=, so it refuses
         # them (exit 2).
         + [["parabolics", "A7"], ["parabolics", "A46"],
            ["parabolics", "A2+T" + "9" * 20], ["parabolics", "A2@res=3"]]
         + [["index", "--n", "4", "--level", "360", "--json"],
            ["levels", "check-prime-fixed", "2,4,8", "--allowed", "2"]]
         # --matrix entries share the number grammar: 1e5000 is refused
         # before it is built, 1_0 is refused, and a nested entry is refused
         # by its JSON kind ("a JSON array").
         + [["discriminant", "--matrix", matrix]
            for matrix in ('[["1e5000","0"],["0","3"]]',
                           '[["1_0","0"],["0","1"]]', "[[[1],0],[0,2]]")])

# e^{-2t} sampled at t = 0.2, 0.4, ..., 12 with its Maclaurin terms: the
# spline (`samples`) path of mellin-fp.
SPLINE_SPEC = json.dumps({
    "t0": "1", "decay": {"C": "1.1", "lambda": "2"},
    "terms": [[i, c] for i, c in enumerate(
        ["1", "-2", "2", "-4/3", "2/3", "-4/15", "4/45", "-8/315", "2/315"])],
    "samples": [[f"{0.2 * i:.10g}", f"{math.exp(-0.4 * i):.12g}"]
                for i in range(1, 61)]}, separators=(",", ":"))

# Semisimple matrices with repeated eigenvalues, n = 2..7: conjugates of
# diagonal matrices by unimodular integer matrices, and at n = 7 a
# conjugate of two copies of the companion matrix of x^3 - 2 beside 5,
# whose charpoly does not split over Q.
DISCRIMINANT_MATRICES = [
    '[["-3/2",0],[0,"-3/2"]]',
    "[[-1,0,-6],[-3,2,-6],[3,0,8]]",
    '[["1/2",-5,"-5/2",5],["5/2","11/2",0,"-5/2"],[0,-5,-2,5],'
    '["5/2",0,"-5/2",3]]',
    "[[16,24,-9,15,18],[-9,-14,6,-9,-12],[-3,-6,4,-3,-6],"
    "[-15,-24,9,-14,-18],[9,15,-6,9,13]]",
    "[[-1,3,-6,-3,-12,-6],[2,2,6,3,10,8],[-2,0,-3,-2,-8,-6],"
    "[4,-6,10,9,22,12],[2,0,5,2,10,6],[-3,3,-7,-4,-14,-6]]",
    '[["-10/3",7,"5/3",-7,-7,-9,"37/3"],["1/3",-4,"-23/3",7,7,-3,"-19/3"],'
    '[4,-5,1,5,5,7,-8],["22/3",-13,"-20/3",16,13,11,"-58/3"],'
    '["10/3",-7,"-14/3",7,10,3,"-28/3"],["7/3",-4,"-5/3",4,4,5,"-19/3"],'
    '["16/3",-8,"-8/3",8,8,8,"-31/3"]]',
    "[[8,-1,12,-3,6,36,-19],[9,11,-10,26,-23,-34,42],"
    "[-5,18,-34,60,-29,-79,84],[1,5,-7,19,-7,-11,17],[5,4,0,14,-3,7,8],"
    "[-2,-11,15,-35,17,34,-45],[-4,-8,9,-24,14,22,-30]]",
]

# Semisimple matrices whose charpoly does not split over Q: the companion
# matrix of the irreducible x^4 + x/3 + 1/2, and x^2 - 2 twice beside 1/3,
# so that +-sqrt 2 each have multiplicity 2.
NON_SPLIT_MATRICES = [
    '[[0,0,0,"-1/2"],[1,0,0,"-1/3"],[0,1,0,0],[0,0,1,0]]',
    '[[0,2,0,0,0],[1,0,0,0,0],[0,0,0,2,0],[0,0,1,0,0],[0,0,0,0,"1/3"]]',
]

ARGVS += ([["mellin-fp", "--preset", "exp", "--lambda", lam, "--t0", t0,
            "--json"]
           for lam in ("1/2", "2", "8", "1e-3")
           for t0 in ("1/2", "1", "2", "1e6")]
          + [["mellin-fp", "--preset", "sqrt", "--t0", t0, "--json"]
             for t0 in ("1/2", "2", "1e6")]
          + [["mellin-fp", "--spec", SPLINE_SPEC, "--tol", "1e-6", "--json"]]
          + [["discriminant", "--matrix", matrix, "--json"]
             for matrix in DISCRIMINANT_MATRICES]
          # a matrix that is not semisimple is refused
          + [["discriminant", "--matrix", "[[2,1,0],[0,2,0],[0,0,3]]"]]
          + [["discriminant", "--matrix", matrix, "--json"]
             for matrix in NON_SPLIT_MATRICES])

# Documented refusals, each exit 2: a bad group spec, matrix or orbit
# family, and every shape check of a mellin-fp spec.
_DECAY = '"decay": {"C": 1, "lambda": 1}'
_SAMPLES = '"samples": [[1, 1], [2, 0.5]]'
ARGVS += ([["k", "+T2"], ["k", "A2@res=0"], ["k", "A2@relative=a@relative=b"],
           ["discriminant", "--matrix", "[[1,2]]"], ["orbits", "gl0"],
           ["mellin-fp", "--preset", "exp"]]
          + [["mellin-fp", "--spec", spec]
             for spec in ("[1]", '{"preset": "foo"}', "{%s}" % _SAMPLES,
                          '{%s, "terms": 5, %s}' % (_DECAY, _SAMPLES),
                          "{%s}" % _DECAY,
                          '{%s, "samples": [[1, 1]]}' % _DECAY,
                          '{%s, "samples": [[2, 0.5], [1, 1]]}' % _DECAY)])

# Tiny split points, where the sqrt preset's split moves to 1/rate, and a
# pole term that overflows a float at the split point (exit 4, by name).
ARGVS += ([["mellin-fp", "--preset", "sqrt", "--t0", t0, "--json"]
           for t0 in ("1e-10", "1e-100", "1e-300")]
          + [["mellin-fp", "--spec",
              '{"t0": "1e-300", "terms": [["-5", 1], ["0", 1]], %s, '
              '"samples": [[1e-3, 1e15], [1, 0.3], [2, 0.1]]}' % _DECAY]])

# Parabolic lattices past rank 2, among them F4's 5,089 subsets, which the
# coset walk lists whole, and the orbit table of every classical type of
# rank <= 8 and of gl2-gl8.
_ORBIT_TYPES = ([t for t in SIMPLE_TYPES if t[0] in "ABCD"]
                + [f"gl{n}" for n in range(2, 9)])
ARGVS += ([["parabolics", name, "--json"]
           for name in ("B3", "C3", "A1xB2", "D4")]
          + [["parabolics", "F4"], ["parabolics", "B4"]]
          + [["orbits", name] for name in _ORBIT_TYPES]
          + [["orbits", name, "--json"] for name in ("B8", "C8", "D8", "gl8")])

# The orbit tables at the rank limit, B20's 5,922 labels among them.
# C20's 7,336 labels come straight from the admissible-partition
# generator; rank 21 is refused at RANK_LIMIT before it starts (3).
ARGVS += ([["orbits", name] for name in ("A20", "B20", "C20", "D20", "gl20")]
          + [["orbits", "C20", "--json"], ["orbits", "C21"]])

# Rank-4 lattices in JSON, each subset's a_M_dim a rank of root
# coordinates.
ARGVS += [["parabolics", name, "--json"] for name in ("A4", "B4", "C4", "D3")]

# One call of every subcommand, human and --json, budget and reproduce
# among them: a surd, a rational and a float beta.  parabolics F4 --json
# prints 11 MB.
ARGVS += [["budget", "--k", "1", "--json"],
          ["budget", "--k", "1", "--C2", "2", "--eps", "1/2", "--json"],
          ["budget", "--k", "2.5", "--C2", "0.3", "--json"],
          ["budget", "--k", "1"],
          ["reproduce", "--json"], ["reproduce"],
          ["parabolics", "F4", "--json"], ["parabolics", "A1xB2"],
          ["k", "B3"], ["orbits", "D4", "--json"],
          ["discriminant", "--matrix",
           '[["1/2", 1, 0], [0, "-3", "2/7"], [1, 0, 5]]',
           "--primes", "3,7", "--json"],
          ["discriminant", "--matrix", '[["2", "0"], ["0", "3"]]'],
          ["index", "--n", "3", "--level", "12"],
          ["levels", "check-prime-fixed", "2,6,10", "--allowed", "2,3",
           "--json"],
          ["levels", "check-prime-fixed", "4,8"],
          ["mellin-fp", "--preset", "exp", "--lambda", "2", "--json"],
          ["mellin-fp", "--preset", "sqrt"]]

# Exit codes by error class.  Unknown names and missing arguments go
# through the parser with every subcommand (2); reproduce has no
# --inject-fault option, so argparse refuses it (2).  The parabolic count
# limit refuses E6 and E8 (3), the index digit limit n = 60 at level 1000
# (3), and orbits a family without orbit tables or a size not in ASCII
# digits (2).
ARGVS += [["k", "Z9"], ["k"], ["nosuch"], ["no-such-command"],
          ["reproduce", "--inject-fault", "no_such_check"],
          ["parabolics", "E6"], ["parabolics", "E8"],
          ["index", "--n", "60", "--level", "1000"],
          ["orbits", "G2"], ["orbits", "gl²"]]

# k generates no root above rank 8, so the root guard never trips at A46
# either ("minorbit": 46).
ARGVS += [["k", "A46", "--json"]]

# Every number is the exact rational it spells: 0.1 is 1/10, and 1e160 is
# an integer, not a float that overflows (e1 is -1/1).  The JSON number 0.5
# in --matrix is 1/2, so the two discriminant calls print the same bytes,
# and the squarefree split runs on integers (value 1/36).
ARGVS += [["budget", "--k", "1", "--eps", "0.1"],
          ["budget", "--k", "1", "--Cn", "1e160", "--json"],
          ["mellin-fp", "--preset", "exp", "--lambda", "1/2"],
          ["discriminant", "--matrix", "[[0.5,0],[0,2]]", "--json"],
          ["discriminant", "--matrix", '[["1/2","0"],["0","2"]]', "--json"],
          ["discriminant", "--matrix", "[[2,0,0],[0,2,0],[0,0,3]]", "--json"]]

# A tiny rate times split point is integrated in log t, so the smallest
# rate accepted gives -log lambda; a flag the chosen source does not use is
# refused; the small-t rule runs in log t, so a far split point is right;
# and a tiny split point moves to 1/rate, where the pole term's closed form
# no longer cancels the tail integral.
ARGVS += [["mellin-fp", "--preset", "exp", "--lambda", "1e-300"],
          ["mellin-fp", "--preset", "sqrt", "--lambda", "3"],
          ["mellin-fp", "--preset", "sqrt", "--t0", "1e60"],
          ["mellin-fp", "--preset", "sqrt", "--t0", "1e-20"]]

# The Richardson route keeps its total-rank guard (3), on a simple type and
# on a product whose factors are each below it; orbits refuses every
# exceptional type (2), not only G2.
ARGVS += ([["k", name, "--method", "richardson"] for name in ("A9", "A4xA5")]
          + [["orbits", name] for name in ("F4", "E6", "E7", "E8")])

# budget's refusals: a k, epsilon or C2 outside its domain (2), and a
# beta or lambda past the float range (4), named by the quantity; and the
# runs where lambda is the nudge above c', beta a surd printed from its
# exact value, or b_conj and m_nonarch given.
ARGVS += ([["budget", "--k", "0"], ["budget", "--k", "-1"],
           ["budget", "--k", "1", "--eps", "0"],
           ["budget", "--k", "1", "--eps", "1"],
           ["budget", "--k", "1", "--C2", "0"],
           ["budget", "--k", "1e400"], ["budget", "--k", "1e300", "--json"],
           ["budget", "--k", "1", "--cprime", "100", "--json"],
           ["budget", "--k", "5/2", "--C2", "1e-300", "--json"],
           ["budget", "--k", "1", "--b-conj", "2", "--m-nonarch", "3"]]
          # an allowed prime or a level past the level limit (3)
          + [["levels", "check-prime-fixed", "6", "--allowed",
              "9999999999999999999"],
             ["levels", "check-prime-fixed", "9999999999999999999"]])

# Argparse's refusals of a missing argument or an extra one, each exit 2
# with one line on stderr whatever the terminal width.
ARGVS += [["orbits"], ["parabolics"], ["discriminant"], ["budget"],
          ["levels"], ["levels", "check-prime-fixed"], ["index", "--n", "3"],
          ["reproduce", "extra"]]

# Exit 4: a beta or lambda whose exact value lies outside the float range,
# and a spec whose samples break their declared decay bound.
LYING_DECAY_SPEC = json.dumps({
    "decay": {"C": "0.0001", "lambda": "5"}, "terms": [[0, "1"]],
    "samples": [[f"{0.5 * i:g}", f"{math.exp(-0.5 * i):.12g}"]
                for i in range(1, 13)]}, separators=(",", ":"))
ARGVS += [["budget", "--k", "1e999"], ["budget", "--k", "1e-999"],
          ["budget", "--k", "1e308", "--json"],
          ["mellin-fp", "--spec", LYING_DECAY_SPEC]]

# An invalid choice of the subcommand, of an option and of levels' nested
# subcommand, each exit 2, worded the same on every Python (cli._Parser).
ARGVS += [["k", "A2", "--method", "x"], ["mellin-fp", "--preset", "x"],
          ["levels", "nosuch"]]

# (1 + t^{-1/2}) e^{-t} sampled at t = 0.2, 0.4, ..., 12 with its terms to
# t^8: two pole terms, t^{-1/2} and t^0, where the presets and SPLINE_SPEC
# have one.
TWO_POLES_SPEC = json.dumps({
    "t0": "1", "decay": {"C": "2", "lambda": "1"},
    "terms": [[a, c] for k, c in enumerate(
        ["1", "-1", "1/2", "-1/6", "1/24", "-1/120", "1/720", "-1/5040",
         "1/40320"]) for a in (f"{2 * k - 1}/2", k)],
    "samples": [[f"{0.2 * i:.10g}",
                 f"{(1 + (0.2 * i) ** -0.5) * math.exp(-0.2 * i):.12g}"]
                for i in range(1, 61)]}, separators=(",", ":"))
ARGVS += [["mellin-fp", "--spec", TWO_POLES_SPEC, "--tol", "1e-6", "--json"]]

# reproduce prints how long each check took, the only bytes that change
# from run to run; both streams are digested with those timings blanked.
TIMINGS = [(re.compile(r'"seconds": "[^"]*"'), '"seconds": ""'),
           (re.compile(r"\(\d+\.\d\d s\)"), "( s)")]


def digest(text: str) -> str:
    for pattern, blank in TIMINGS:
        text = pattern.sub(blank, text)
    return hashlib.sha256(text.encode()).hexdigest()


def entry(argv: list[str], code: int, out: str, err: str) -> dict:
    """One call's entry: argv, exit code and the masked digests of its
    stdout and stderr."""
    return {"argv": argv, "code": code,
            "stdout_sha256": digest(out), "stderr_sha256": digest(err)}


def _no_raw_float(handler):
    """`handler` with its --json result walked first: json would write a
    raw float as a number, not as the %.15g string."""
    def checked(args):
        result, human, code = handler(args)
        stack = [result] if args.json else []
        while stack:
            x = stack.pop()
            assert type(x) is not float, (args.command, x)
            if isinstance(x, dict):
                stack.extend(x.values())
            elif isinstance(x, (list, tuple)):
                stack.extend(x)
        return result, human, code
    return checked


@contextlib.contextmanager
def raw_float_check():
    """Run every handler of `cli._SUBCOMMANDS` under _no_raw_float inside
    the block."""
    saved = dict(cli._SUBCOMMANDS)
    for name, (summary, handler, *rest) in saved.items():
        cli._SUBCOMMANDS[name] = (summary, _no_raw_float(handler), *rest)
    try:
        yield
    finally:
        cli._SUBCOMMANDS.update(saved)


def run(argv: list[str]) -> dict:
    """The entry of one call of `cli.main` in process, its --json result
    walked for raw floats."""
    out, err = io.StringIO(), io.StringIO()
    with raw_float_check(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return entry(argv, code, out.getvalue(), err.getvalue())


def run_installed(argv: list[str]) -> dict:
    """The entry of one call of the installed `tracegeo` console script,
    stopped after 10 s: CI replays the corpus through it."""
    proc = subprocess.run(["tracegeo", *argv], capture_output=True,
                          timeout=10)
    return entry(argv, proc.returncode, proc.stdout.decode(),
                 proc.stderr.decode())


def check(run=run_installed) -> int:
    """Replay every corpus entry through run; print each argv whose entry
    differs and return 1 if any does, else 0."""
    entries = json.loads(CORPUS.read_text())
    bad = [e["argv"] for e in entries if run(e["argv"]) != e]
    print(f"{len(bad)} of {len(entries)} entries differ", *bad, sep="\n")
    return int(bool(bad))


def main() -> None:
    argvs = [tuple(argv) for argv in ARGVS]
    twice = sorted({argv for argv in argvs if argvs.count(argv) > 1})
    dropped = [e["argv"] for e in json.loads(CORPUS.read_text())
               if tuple(e["argv"]) not in argvs]
    if twice or dropped:
        raise SystemExit(f"refusing to write {CORPUS}: argvs listed twice "
                         f"{twice}, committed argvs dropped {dropped}")
    entries = [run(argv) for argv in ARGVS]
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {CORPUS}")


if __name__ == "__main__":
    main()
