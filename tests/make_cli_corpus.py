"""Regenerate tests/cli_corpus.json, the CLI byte corpus.

Each entry is one call of `tracegeo`: its argv, its exit code and the
sha256 of its stdout and of its stderr, as `cli.main` writes them in
process.  tests/test_cli_corpus.py replays every entry.  A change that
alters an entry's bytes is an output change and is named as one.

Run from the repository root:

    PYTHONPATH=src python tests/make_cli_corpus.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

from tracegeo import cli

CORPUS = Path(__file__).with_name("cli_corpus.json")

SIMPLE_TYPES = ([f"{s}{r}" for s in "ABC" for r in range(1, 9)]
                + [f"D{r}" for r in range(2, 9)]
                + ["E6", "E7", "E8", "F4", "G2"])
PRODUCTS = ["A2xB3", "G2xF4", "D4xA1", "E6xA2", "B2xC3", "F4xB4"]

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
         + [["parabolics", "A7"], ["parabolics", "A46"],
            ["parabolics", "A2+T" + "9" * 20], ["parabolics", "A2@res=3"]]
         + [["index", "--n", "4", "--level", "360", "--json"],
            ["levels", "check-prime-fixed", "2,4,8", "--allowed", "2"]]
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

# Parabolic lattices past rank 2, among them F4's 5,089 subsets, and the
# orbit table of every classical type of rank <= 8 and of gl2-gl8.
_ORBIT_TYPES = ([t for t in SIMPLE_TYPES if t[0] in "ABCD"]
                + [f"gl{n}" for n in range(2, 9)])
ARGVS += ([["parabolics", name, "--json"]
           for name in ("B3", "C3", "A1xB2", "D4")]
          + [["parabolics", "F4"], ["parabolics", "B4"]]
          + [["orbits", name] for name in _ORBIT_TYPES]
          + [["orbits", name, "--json"] for name in ("B8", "C8", "D8", "gl8")])

# The orbit tables at the rank limit, B20's 5,922 labels among them.
ARGVS += [["orbits", name] for name in ("A20", "B20", "C20", "D20", "gl20")]

# Rank-4 lattices in JSON, each subset's a_M_dim a rank of root
# coordinates.
ARGVS += [["parabolics", name, "--json"] for name in ("A4", "B4", "C4", "D3")]


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv: list[str]) -> dict:
    """One call's entry: argv, exit code and the digests of its output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": argv, "code": code,
            "stdout_sha256": sha256(out.getvalue()),
            "stderr_sha256": sha256(err.getvalue())}


def main() -> None:
    entries = [run(argv) for argv in ARGVS]
    CORPUS.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {CORPUS}")


if __name__ == "__main__":
    main()
