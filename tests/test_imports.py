"""The import contract: the package and the exact-only subcommands load
none of the heavy numerical libraries, and every public name still
resolves through the lazy package namespace."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tracegeo

SRC = Path(__file__).resolve().parent.parent / "src"

LIGHT_CALLS = [
    ["k", "A2", "--json"],
    ["orbits", "B3", "--json"],
    ["parabolics", "A2", "--json"],
    ["discriminant", "--matrix", "[[1,0],[0,2]]", "--json"],
    ["budget", "--k", "1", "--C2", "2", "--json"],
]

PROBE = """
import contextlib, io, json, sys
import tracegeo
from tracegeo import cli
codes = []
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(cli.main(argv))
print(json.dumps({"codes": codes, "loaded": sorted(
    m for m in ("sympy", "scipy", "numpy") if m in sys.modules)}))
"""


def test_light_subcommands_load_no_heavy_library():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", PROBE,
                           json.dumps(LIGHT_CALLS)],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["codes"] == [0] * len(LIGHT_CALLS)
    assert report["loaded"] == []


def test_every_public_name_resolves_and_is_listed():
    listed = dir(tracegeo)
    for name in tracegeo.__all__:
        assert getattr(tracegeo, name) is not None, name
        assert name in listed, name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError):
        tracegeo.no_such_name
