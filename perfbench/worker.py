"""One pass of the `lattice` or `fields` workload in a fresh interpreter.

Run by run.py as `python perfbench/worker.py --workload W --seed S
--trace 0|1` with PYTHONPATH pointing at the checkout's src; prints one
JSON object with the operation records, the spans and the counters.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import tracegeo

import fields
import lattice
from ops import run_pass
from spans import Tracer

WORKLOADS = {"lattice": lattice.ops, "fields": fields.ops}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    src = Path(__file__).resolve().parent.parent / "src"
    if src not in Path(tracegeo.__file__).resolve().parents:
        print(f"tracegeo imported from {tracegeo.__file__}, not {src}",
              file=sys.stderr)
        return 2
    ops = WORKLOADS[args.workload](args.seed)
    tracer = Tracer(bool(args.trace))
    records = run_pass(ops, tracer)
    json.dump({"records": records, "spans": tracer.spans,
               "counters": tracer.counters}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
