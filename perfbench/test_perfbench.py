"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import clicold  # noqa: E402
import expect  # noqa: E402
import fields  # noqa: E402
import lattice  # noqa: E402
from ops import run_pass  # noqa: E402
from spans import Tracer  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"),
                                           ("1", "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    done = _run("--workload", "fields", "--seed", "3", "--seconds", "1",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    assert printed == declared
    assert result["correct"] and result["attempted"] >= 1


def test_wrong_expectation_raises_fail_ratio(monkeypatch):
    def a2_failures() -> int:
        ops = [op for op in lattice.ops(1)
               if op.id == "build[A2]" or op.id.startswith("k_report[A2@")]
        return sum(r["error"] is not None
                   for r in run_pass(ops, Tracer(False)))

    assert a2_failures() == 0
    monkeypatch.setitem(expect.DUAL_COXETER, "A2", 4)
    assert a2_failures() == 1


@pytest.mark.parametrize("build", [
    lattice.ops, fields.ops, lambda seed: clicold.ops(seed, {}, ".")])
def test_seed_changes_inputs_not_mix(build):
    first, second = build(1), build(2)
    assert Counter(op.kind for op in first) == \
        Counter(op.kind for op in second)
    assert {op.id for op in first} != {op.id for op in second}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    done = _run("--workload", "lattice", "--seed", "1", "--seconds", "1",
                cwd=tmp_path)
    assert done.returncode != 0 and done.stdout == ""
