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
