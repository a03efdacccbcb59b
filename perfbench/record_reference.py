#!/usr/bin/env python3
"""Record the numbers every workload writes, for the given seeds.

    python3 perfbench/record_reference.py [--workload NAME ...] --seeds 0 1 2 ...

Run from the root of a dbarkit checkout.  Each (workload, seed) runs one cold
pass; every gate must pass.  The result replaces ``perfbench/reference/``
entries of the workloads named.  Record only at a commit whose numbers are
the intended reference: later passes are compared against these.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

import outputs
from child import WORKLOADS
from run import WORK_DIR, run_pass


def record(workload, seeds):
    out = os.path.abspath(os.path.join(WORK_DIR, "record", workload))
    paths = None
    values = {}
    for seed in seeds:
        _, _, _, rec = run_pass(workload, seed, out, time.monotonic() + 600)
        checks, numbers = outputs.collect(workload, out, rec["exit_codes"])
        failed = [name for name, passes, info in checks if not passes and not info]
        if failed:
            raise SystemExit(f"{workload} seed {seed}: gates failed: {failed}")
        if paths is None:
            paths = list(numbers)
        elif set(paths) != set(numbers):
            raise SystemExit(f"{workload} seed {seed}: outputs differ in shape")
        values[str(seed)] = [numbers[p] for p in paths]
        print(f"{workload} seed {seed}: {len(checks)} checks pass, {len(paths)} numbers",
              flush=True)
    os.makedirs(outputs.REFERENCE_DIR, exist_ok=True)
    with open(outputs.reference_path(workload), "w") as fh:
        json.dump({"paths": paths, "seeds": values}, fh, allow_nan=False)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--seeds", nargs="+", type=int, required=True)
    args = ap.parse_args()
    try:
        for workload in args.workload:
            record(workload, args.seeds)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
