#!/usr/bin/env python3
"""dbarkit benchmark: cold-process passes of three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a dbarkit checkout; the package is imported from its
``src/``.  Every pass is a fresh interpreter (``perfbench/child.py``), as every
``dbarkit`` invocation is, so nothing a pass computes or caches is reused by
the next.  ``--trace 0`` runs as many untraced passes as fit in ``--seconds``
and prints the end-to-end metrics; ``--trace 1`` runs one untraced and one
traced pass and prints the per-layer metrics.  Every pass's outputs are
checked.  The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import outputs
from child import WORKLOADS
from tracer import aggregate

HERE = os.path.dirname(os.path.abspath(__file__))
WORK_DIR = ".perfbench_work"
MIN_SETUP_PROBES = 3
MAX_SETUP_PROBES = 20
RUN_LIMIT_S = 170.0  # a run must end within 180 s
BLAS_THREADS = min(2, os.cpu_count() or 1)

PIPELINE_NAMES = ("verify-identity", "solve", "check-h1", "sharpness", "moments",
                  "diagonal", "bargmann-probe", "curvature", "uniqueness-probe")
SPAN_METRICS = (
    "moments.diagonal_restriction.self_s", "moments.fourier2.calls",
    "moments.fourier2.busy_s", "moments.moments.busy_s", "moments.bargmann_probe.busy_s",
    "bumps.sample.busy_s", "bumps.sample.calls",
    "solver.cauchy_transform.busy_s", "solver.fock_bergman_project.busy_s",
    "solver.fock_bergman_project.calls", "solver.dbar_invert_spectral.busy_s",
    "solver.solve_dbar.self_s", "solver.check_hormander_bound.self_s",
    "solver.uniqueness_probe.busy_s",
    "grid.field_to_csv.busy_s", "cli.emit_report.self_s", "reports.canonical_json.busy_s",
    "grid.sample.busy_s",
    *(f"cli.pipeline.{p}.busy_s" for p in PIPELINE_NAMES),
    "diffops.dbar.busy_s", "diffops.dbar.calls", "diffops.laplacian_hat.busy_s",
    "weights.sample.busy_s", "weights.curvature_margin.busy_s",
    "identity.verify_norm_identity.self_s", "identity.verify_norm_identity.calls",
)
COUNT_METRICS = ("grid.csv_bytes", "grid.nodes.calls", "grid.field.constructions",
                 "kernel.fft.calls", "kernel.fft.points")


class PassFailed(Exception):
    """A pass's process crashed or ran out of time."""


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric == "grid.csv_bytes":
        return "B"
    if metric == "bumps.support_fraction":
        return "ratio"
    return "count"


PER_LAYER = (*SPAN_METRICS, "bumps.support_fraction", *COUNT_METRICS, "trace.overhead_s")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env():
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)
    return env


def run_pass(workload, seed, out, deadline, trace_file=None, setup_only=False):
    """Spawn one pass; returns (wall_s, setup_s, peak_rss_mb, pass record)."""
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--workload", workload,
           "--seed", str(seed), "--out", out]
    if trace_file:
        cmd += ["--trace", trace_file]
    if setup_only:
        cmd.append("--setup-only")
    with open(os.path.join(out, "child.log"), "w") as log:
        t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, env=child_env())
    # wait4 gives this child's own peak RSS; the timer kills a pass that
    # would run past the run's time limit
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        t_exit = time.clock_gettime(time.CLOCK_MONOTONIC)
    except BaseException:
        # interrupted or terminated: leave no pass running
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(os.path.join(out, "child.log")) as fh:
            tail = fh.read()[-2000:]
        raise PassFailed(f"{workload} pass exited with {proc.returncode}:\n{tail}")
    with open(os.path.join(out, "pass.json")) as fh:
        record = json.load(fh)
    expected_pkg = os.path.realpath(os.path.join("src", "dbarkit", "__init__.py"))
    if record["dbarkit_file"] != expected_pkg:
        raise PassFailed(f"dbarkit imported from {record['dbarkit_file']}, not {expected_pkg}")
    return (t_exit - t_spawn, record["t_first_call"] - t_spawn,
            usage.ru_maxrss * 1024 / 1e6, record)


class Verdicts:
    """Checks of every pass in a run, and the largest drift from the reference."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.expected, self.paths = outputs.load_reference(workload, seed)
        self.checks = self.checks_failed = 0
        self.output_checks = self.outputs_failed = 0
        self.max_drift = 0.0
        self.problems = []

    @property
    def attempted(self):
        return self.checks + self.output_checks

    @property
    def failed(self):
        return self.checks_failed + self.outputs_failed

    def fail_output(self, message):
        self.outputs_failed += 1
        self.problems.append(message)

    def check(self, out, record):
        self.output_checks += 1
        if record["unrestored"]:
            self.fail_output(f"tracer left wrappers in place: {record['unrestored']}")
            return
        try:
            checks, numbers = outputs.collect(self.workload, out, record["exit_codes"])
        except outputs.OutputError as e:
            self.fail_output(str(e))
            return
        self.checks += len(checks)
        for name, passes, informational in checks:
            if not passes and not informational:
                self.checks_failed += 1
                self.problems.append(f"check {name} failed")
        worst, mismatches = outputs.drift(numbers, self.expected, self.paths)
        self.max_drift = max(self.max_drift, worst)
        if mismatches or worst > outputs.DRIFT_TOL:
            self.fail_output(f"drift {worst:.3g} from the reference; "
                             f"mismatched entries: {mismatches[:5]}")

    def summary(self):
        frac = self.checks_failed / self.checks if self.checks else float("nan")
        lines = [f"checks_failed_frac: {frac:.6g} ratio "
                 f"({self.checks_failed} of {self.checks} gate checks failed)",
                 f"max_rel_drift: {self.max_drift:.6g} ratio over {len(self.expected)} "
                 f"of {len(self.paths)} recorded numbers (tolerance {outputs.DRIFT_TOL:g})"]
        return lines + [f"problem: {p}" for p in self.problems]


def tail_note(samples):
    """The highest percentile with at least ten samples beyond it, if any."""
    k = len(samples)
    if k < 11:
        return f"no percentile has 10 samples beyond it ({k} samples)"
    i = k - 11
    return f"p{100 * (i + 1) / k:.1f} = {sorted(samples)[i]:.6g} ({k} samples)"


def timed_run(workload, seed, out, end, hard_end, verdicts):
    """Cold passes while another fits before ``end``, then set-up probes
    (spawns that stop at the first call) in the time left, at least
    MIN_SETUP_PROBES of them."""
    walls, peaks, setups = [], [], []
    while True:
        wall, setup, peak, record = run_pass(workload, seed, out, hard_end)
        walls.append(wall)
        setups.append(setup)
        peaks.append(peak)
        verdicts.check(out, record)
        if time.monotonic() + max(walls) > end:
            break
    probe_walls = []
    while len(probe_walls) < MIN_SETUP_PROBES or (
            len(probe_walls) < MAX_SETUP_PROBES and time.monotonic() + max(probe_walls) <= end):
        wall, setup, _, _ = run_pass(workload, seed, out, hard_end, setup_only=True)
        probe_walls.append(wall)
        setups.append(setup)
    metrics = {"wall_s": statistics.median(walls), "setup_s": statistics.median(setups),
               "peak_rss_mb": statistics.median(peaks)}
    notes = [f"wall_s: median of {len(walls)} cold passes {[round(w, 3) for w in walls]}; "
             f"{tail_note(walls)}",
             f"setup_s: median of {len(setups)} spawns ({len(walls)} passes, "
             f"{len(probe_walls)} set-up probes) {[round(x, 3) for x in setups]}; "
             f"{tail_note(setups)}",
             f"peak_rss_mb: median of {len(peaks)} cold passes"]
    return metrics, notes


def layer_metrics(trace, overhead, verdicts):
    spans = trace["spans"]
    per_name, self_time = aggregate(spans)
    for span, own in zip(spans, self_time):
        dur = span[4] - span[3]
        if not -1e-9 <= own <= dur + 1e-9:
            verdicts.fail_output(f"span {span[2]}: self {own} outside [0, {dur}]")
    metrics = {}
    for metric in SPAN_METRICS:
        name, field = metric.rsplit(".", 1)
        metrics[metric] = per_name.get(name, {}).get(field, 0)
    counts = trace["counts"]
    evaluated = counts.get("bumps.evaluated", 0)
    metrics["bumps.support_fraction"] = (counts.get("bumps.nonzero", 0) / evaluated
                                         if evaluated else 0.0)
    for metric in COUNT_METRICS:
        metrics[metric] = counts.get(metric, 0)
    metrics["trace.overhead_s"] = overhead
    return metrics


def traced_run(workload, seed, work, out, hard_end, verdicts):
    wall, _, _, record = run_pass(workload, seed, out, hard_end)
    verdicts.check(out, record)
    trace_file = os.path.join(work, "trace.json")
    traced_wall, _, _, record = run_pass(workload, seed, out, hard_end, trace_file=trace_file)
    verdicts.check(out, record)
    with open(trace_file) as fh:
        trace = json.load(fh)
    metrics = layer_metrics(trace, traced_wall - wall, verdicts)
    notes = [f"traced pass {traced_wall:.4f} s, untraced pass {wall:.4f} s, "
             f"{len(trace['spans'])} spans"]
    return metrics, notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=44.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "dbarkit", "__init__.py")):
        print("run from the root of a dbarkit checkout: src/dbarkit not found",
              file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    start = time.monotonic()
    work = os.path.abspath(os.path.join(WORK_DIR, args.workload))
    out = os.path.join(work, "pass")
    try:
        verdicts = Verdicts(args.workload, args.seed)
        if args.trace:
            metrics, notes = traced_run(args.workload, args.seed, work, out,
                                        start + RUN_LIMIT_S, verdicts)
            units = {m: unit_of(m) for m in PER_LAYER}
        else:
            metrics, notes = timed_run(args.workload, args.seed, out, start + args.seconds,
                                       start + RUN_LIMIT_S, verdicts)
            units = END_TO_END
    except PassFailed as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"OpenBLAS threads {BLAS_THREADS}, {time.monotonic() - start:.1f} s")
    for line in notes + verdicts.summary():
        print(line)
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    result = {
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
