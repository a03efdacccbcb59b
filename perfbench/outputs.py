"""Correctness of a pass: strict JSON, gate verdicts, and drift from the reference.

Every number a workload writes is compared with the number recorded for the
same seed at the commit that defined the benchmark (``reference/``).  Reports'
``runtime_ms`` is skipped: ``--sequential`` zeroes it and ``cli._check``
measures it wrongly.  For a seed with no recorded reference only the numbers
that are the same at every recorded seed are compared (those that do not
depend on the bump suite); the rest are still covered by the gates.
"""

from __future__ import annotations

import json
import math
import os

REPORTS = {
    "all-default": ("all.json",),
    "solve-fine-csv": ("solve.json", "check-h1.json", "sharpness.json",
                       "uniqueness-probe.json", "curvature.json"),
    "convergence": ("convergence.json",),
}
CSV_DUMPS = {"solve-fine-csv": ("solve_u.csv",)}
CSV_HEADER = "re,im,val_re,val_im"
CSV_SAMPLE_ROWS = 256
SKIPPED_KEYS = {"runtime_ms"}
SKIPPED_PATHS = {"config.output.dir"}

# A number drifts by |a - b| / max(|a|, |b|, DRIFT_FLOOR).  Numbers below the
# floor are mostly errors, residuals and moments of compliant data, whose
# rounding noise is amplified (projection idempotence ~1e-8); they are
# compared on an absolute scale of DRIFT_FLOOR * DRIFT_TOL = 1e-9.  A pass
# fails if the largest drift exceeds DRIFT_TOL, which admits a reordered sum
# but not a changed discretization.
DRIFT_FLOOR = 1e-3
DRIFT_TOL = 1e-6

# gates of the convergence workload: the CLI's identity tolerance at the
# default grid size and above, and the first-order-plus accuracy the solver
# module claims for the Cauchy quadrature and its residual
IDENTITY_REL = 1e-6
IDENTITY_MIN_N = 256
MIN_ORDER = 1.0

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")


class OutputError(Exception):
    """A pass wrote something that is not a well-formed report."""


def _reject_constant(token):
    raise OutputError(f"non-finite token {token} in JSON")


def strict_load(path):
    try:
        with open(path) as fh:
            return json.loads(fh.read(), parse_constant=_reject_constant)
    except (OSError, json.JSONDecodeError) as e:
        raise OutputError(f"{os.path.basename(path)}: {e}") from e


def flatten(obj, prefix, out):
    """Leaves of a parsed report by path, as ``file:key.0.key``."""
    sep = "" if prefix.endswith(":") else "."
    if isinstance(obj, dict):
        for k, v in obj.items():
            if k not in SKIPPED_KEYS:
                flatten(v, f"{prefix}{sep}{k}", out)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            flatten(v, f"{prefix}{sep}{i}", out)
    elif prefix.split(":", 1)[-1] not in SKIPPED_PATHS:
        out[prefix] = obj
    return out


def convergence_checks(table):
    """Orders between consecutive grid sizes, and the workload's gates."""
    rows = table["rows"]
    checks = []
    orders = []
    for row in rows:
        checks.append((f"identity-rel-n={row['n']}", row["identity_rel"] < IDENTITY_REL,
                       row["n"] < IDENTITY_MIN_N))
    for prev, row in zip(rows, rows[1:]):
        ratio = math.log2(row["n"] / prev["n"])
        err_order = math.log2(prev["cauchy_err"] / row["cauchy_err"]) / ratio
        res_order = math.log2(prev["residual"] / row["residual"]) / ratio
        orders.append({"n": row["n"], "err_order": err_order, "res_order": res_order})
        checks.append((f"cauchy-order-n={row['n']}", err_order >= MIN_ORDER, False))
        checks.append((f"residual-order-n={row['n']}", res_order >= MIN_ORDER, False))
    return checks, orders


def _csv_numbers(path, name, numbers):
    with open(path) as fh:
        text = fh.read()
    lines = text.split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise OutputError(f"{name}: bad header or unterminated last row")
    if "nan" in text or "inf" in text:
        raise OutputError(f"{name}: non-finite value")
    rows = lines[1:-1]
    numbers[f"{name}:rows"] = len(rows)
    stride = max(1, len(rows) // CSV_SAMPLE_ROWS)
    for i in range(0, len(rows), stride):
        fields = rows[i].split(",")
        if len(fields) != 4:
            raise OutputError(f"{name}: row {i} has {len(fields)} fields")
        for col, val in zip(CSV_HEADER.split(","), fields):
            numbers[f"{name}:row.{i}.{col}"] = float(val)


def collect(workload, out_dir, exit_codes):
    """Read a pass's outputs.

    Returns ``(checks, numbers)``: checks as ``(name, passes, informational)``
    and every number and label the pass wrote, by path.  Raises OutputError
    for a missing or malformed output or an exit code that contradicts the
    report's verdict.
    """
    checks = []
    numbers = {}
    reports = REPORTS[workload]
    if workload != "convergence" and len(exit_codes) != len(reports):
        raise OutputError(f"{len(exit_codes)} exit codes for {len(reports)} commands")
    for i, name in enumerate(reports):
        doc = strict_load(os.path.join(out_dir, name))
        if workload == "convergence":
            conv, orders = convergence_checks(doc)
            checks += conv
            doc = dict(doc, orders=orders)
        else:
            rep_checks = [(c["name"], c["passes"], c["informational"]) for c in doc["checks"]]
            overall = all(p for _, p, info in rep_checks if not info)
            if doc["overall"] != overall or exit_codes[i] != (0 if overall else 1):
                raise OutputError(f"{name}: overall={doc['overall']} exit={exit_codes[i]} "
                                  f"contradict its checks")
            checks += rep_checks
        flatten(doc, f"{name}:", numbers)
    for name in CSV_DUMPS.get(workload, ()):
        _csv_numbers(os.path.join(out_dir, name), name, numbers)
    return checks, numbers


# -- reference ------------------------------------------------------------


def reference_path(workload):
    return os.path.join(REFERENCE_DIR, f"{workload}.json")


def load_reference(workload, seed):
    """``(expected, paths)``: the numbers to compare at this seed, by path, and
    the path of every number a pass writes.  Without a recording for ``seed``
    only the numbers equal at every recorded seed are expected."""
    with open(reference_path(workload)) as fh:
        ref = json.load(fh)
    paths = ref["paths"]
    if str(seed) in ref["seeds"]:
        return dict(zip(paths, ref["seeds"][str(seed)])), paths
    columns = list(zip(*ref["seeds"].values()))
    return {p: col[0] for p, col in zip(paths, columns)
            if all(v == col[0] for v in col)}, paths


def drift(numbers, expected, paths):
    """Largest relative drift and a list of mismatches (missing, extra or
    differing non-numeric entries)."""
    mismatches = sorted(set(numbers) ^ set(paths))
    worst = 0.0
    for path, ref in expected.items():
        if path not in numbers:
            continue
        got = numbers[path]
        numeric = (isinstance(ref, (int, float)) and not isinstance(ref, bool)
                   and isinstance(got, (int, float)) and not isinstance(got, bool))
        if numeric:
            worst = max(worst, abs(got - ref) / max(abs(got), abs(ref), DRIFT_FLOOR))
        elif got != ref:
            mismatches.append(path)
    return worst, mismatches
