"""The import contract: no subcommand loads sympy, numpy or scipy, and
none needs sympy to be installed; the light subcommands load neither
dataclasses nor inspect, and those that compute with no Fraction do not
load fractions; a text-mode call that reads no JSON does not load json;
each subcommand loads only the tracegeo modules it runs, and every public
name still resolves through the lazy package namespace."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracegeo

SRC = Path(__file__).resolve().parent.parent / "src"

SPEC = json.dumps({
    "t0": 1.0,
    "decay": {"C": 1.1, "lambda": 1.0},
    "terms": [[j, (-1) ** j / math.factorial(j)] for j in range(4)],
    "samples": [[0.05 * i, math.exp(-0.05 * i)] for i in range(1, 121)],
})

# (argv, expected exit code)
LIGHT_CALLS = [
    (["k", "A2", "--json"], 0),
    (["orbits", "B3", "--json"], 0),
    (["parabolics", "A2", "--json"], 0),
    (["discriminant", "--matrix", "[[1,0],[0,2]]", "--json"], 0),
    (["budget", "--k", "1", "--C2", "2", "--json"], 0),
    (["mellin-fp", "--preset", "exp", "--lambda", "2", "--json"], 0),
    (["mellin-fp", "--preset", "sqrt", "--json"], 0),
    (["mellin-fp", "--spec", SPEC, "--tol", "1e-4", "--json"], 0),
    (["mellin-fp", "--preset", "exp", "--lambda", "2", "--tol", "0"], 2),
    (["index", "--n", "3", "--level", "2", "--json"], 0),
    (["levels", "check-prime-fixed", "2,4,6", "--allowed", "2,3",
      "--json"], 0),
]

# A surd beta and the reproduction suite, which check exact Q(sqrt d)
# values without a simplifier.
EXACT_FIELD_CALLS = [
    (["budget", "--k", "1", "--json"], 0),
    (["reproduce", "--json"], 0),
]

# Run where sympy cannot be imported at all.
WITHOUT_SYMPY_CALLS = [
    (["budget", "--k", "1"], 0),
    (["budget", "--k", "5/2", "--C2", "1/1" + "0" * 300], 0),
    (["reproduce"], 0),
]

BLOCK_SYMPY = 'import sys; sys.modules["sympy"] = None\n'

PROBE = """
import contextlib, io, json, sys
import tracegeo
from tracegeo import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "loaded": sorted(
    m for m in ("sympy", "scipy", "numpy") if m in sys.modules),
    "stdlib": sorted(m for m in ("dataclasses", "inspect", "fractions")
                     if m in sys.modules),
    "modules": sorted(m.split(".", 1)[1] for m in sys.modules
                      if m.startswith("tracegeo."))}))
"""

# One call per fresh process, with the tracegeo submodules besides cli,
# errors and value that it may load.  Without a bytecode cache each module
# compiles on every cold call, so a subcommand loads only what it runs; a
# parse error gets no further than root_datum.
MODULE_CONTRACT = {
    "index": (["index", "--n", "3", "--level", "12", "--json"], 0,
              {"arithmetic"}),
    "levels": (["levels", "check-prime-fixed", "2,4,6", "--allowed", "2,3",
                "--json"], 0, {"arithmetic"}),
    "budget": (["budget", "--k", "1", "--C2", "2", "--json"], 0,
               {"error_budget"}),
    "mellin-fp": (["mellin-fp", "--preset", "sqrt", "--json"], 0,
                  {"mellin_fp"}),
    "discriminant": (["discriminant", "--matrix", "[[1,0],[0,2]]",
                      "--json"], 0, {"local_data", "arithmetic", "linalg"}),
    "orbits": (["orbits", "B3", "--json"], 0,
               {"nilpotent_orbits", "root_datum"}),
    "parabolics": (["parabolics", "A2", "--json"], 0,
                   {"parabolic_lattice", "root_datum", "linalg"}),
    "k": (["k", "A2", "--json"], 0,
          {"invariants_k", "nilpotent_orbits", "root_datum"}),
    "k-parse-error": (["k", "Z3", "--json"], 2, {"root_datum"}),
    "parabolics-parse-error": (["parabolics", "A2+Tx", "--json"], 2,
                               {"root_datum"}),
}


# The calls above that compute with no Fraction, and so do not load
# fractions.
WITHOUT_FRACTIONS = ("index", "levels", "orbits", "k", "k-parse-error",
                     "parabolics", "parabolics-parse-error")


def _probe(calls, prelude=""):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", prelude + PROBE,
                           json.dumps([argv for argv, _ in calls])],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [code for _, code in calls]
    return report


def test_light_subcommands_load_no_heavy_library():
    report = _probe(LIGHT_CALLS)
    assert report["loaded"] == []
    assert not {"dataclasses", "inspect"} & set(report["stdlib"])


def test_surd_budget_and_reproduce_load_no_heavy_library():
    assert _probe(EXACT_FIELD_CALLS)["loaded"] == []


def test_runs_with_sympy_blocked():
    _probe(WITHOUT_SYMPY_CALLS, prelude=BLOCK_SYMPY)


@pytest.mark.parametrize("name", MODULE_CONTRACT)
def test_subcommand_loads_only_its_modules(name):
    argv, code, allowed = MODULE_CONTRACT[name]
    report = _probe([(argv, code)])
    assert set(report["modules"]) <= {"cli", "errors", "value", *allowed}
    if name in WITHOUT_FRACTIONS:
        assert "fractions" not in report["stdlib"]


# json loads only where JSON is read or written: --json, --spec, --matrix
# and --relative.  PROBE imports json itself, so this probe does not.
JSON_PROBE = """
import contextlib, io, sys
from tracegeo import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(code, "json" in sys.modules)
"""


@pytest.mark.parametrize("argv,loads_json", [
    (["k", "A2"], False),
    (["k", "A2", "--json"], True),
    (["discriminant", "--matrix", "[[1,0],[0,2]]"], True),
])
def test_json_loads_only_for_json_text(argv, loads_json):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", JSON_PROBE, *argv],
                          env=env, capture_output=True, text=True)
    assert proc.stdout.split() == ["0", str(loads_json)], proc.stderr


def test_every_public_name_resolves_and_is_listed():
    listed = dir(tracegeo)
    for name in tracegeo.__all__:
        assert getattr(tracegeo, name) is not None, name
        assert name in listed, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        tracegeo.no_such_name
