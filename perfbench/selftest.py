#!/usr/bin/env python3
"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Run from the root of a dbarkit checkout.  Checks that the tracer wraps the
names callers look up and restores every original, that self time never
exceeds busy time for nested spans (synthetic and real), that a second seed
changes the bump suite while every gate still passes, and that
``BENCHMARK.json`` lists exactly the metrics ``run.py`` prints.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.abspath("src"))

import numpy as np  # noqa: E402

import outputs  # noqa: E402
import run  # noqa: E402
from tracer import FFT_ENTRY_POINTS, METHOD_SPANS, Tracer, aggregate, dbarkit_modules  # noqa: E402

FAILURES = []


def expect(ok, what):
    print(f"[{'PASS' if ok else 'FAIL'}] {what}")
    if not ok:
        FAILURES.append(what)


def snapshot():
    """Every attribute the tracer may touch, by identity."""
    import dbarkit.cli as cli
    from dbarkit.grid import Field, Grid

    snap = {}
    for mod in dbarkit_modules():
        for attr, obj in vars(mod).items():
            snap[(mod.__name__, attr)] = obj
    for cls in (Grid, Field, *(getattr(sys.modules[f"dbarkit.{layer}"], name)
                               for layer, name in METHOD_SPANS)):
        for attr, obj in vars(cls).items():
            snap[(cls.__qualname__, attr)] = obj
    for key, fn in cli.PIPELINES.items():
        snap[("PIPELINES", key)] = fn
    for name in FFT_ENTRY_POINTS:
        snap[("numpy.fft", name)] = getattr(np.fft, name)
    return snap


def test_wrappers_restore():
    import dbarkit
    import dbarkit.cli as cli

    moments_mod = sys.modules["dbarkit.moments"]
    solver_mod = sys.modules["dbarkit.solver"]
    before = snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = {
            "dbarkit.cli.bargmann_probe": cli.bargmann_probe is not before[("dbarkit.cli", "bargmann_probe")],
            "dbarkit.solver.moments": solver_mod.moments is not before[("dbarkit.solver", "moments")],
            "dbarkit.moments.fourier2": moments_mod.fourier2 is not before[("dbarkit.moments", "fourier2")],
            "dbarkit.verify_norm_identity": dbarkit.verify_norm_identity is not before[("dbarkit", "verify_norm_identity")],
            "PIPELINES[diagonal]": cli.PIPELINES["diagonal"] is not before[("PIPELINES", "diagonal")],
            "numpy.fft.fft2": np.fft.fft2 is not before[("numpy.fft", "fft2")],
        }
    finally:
        tracer.uninstall()
    for name, ok in wrapped.items():
        expect(ok, f"tracer wraps {name}")
    after = snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    expect(not changed and set(after) == set(before),
           f"uninstall restores every original ({len(before)} attributes; changed: {changed[:5]})")
    expect(tracer.unrestored() == [], "Tracer.unrestored() reports nothing")


def test_synthetic_self_time():
    spans = [
        [0, None, "cli.run", 0.0, 10.0],
        [1, 0, "moments.diagonal_restriction", 1.0, 9.0],
        [2, 1, "moments.fourier2", 2.0, 5.0],
        [3, 2, "grid.sample", 3.0, 4.0],
        [4, 1, "grid.sample", 6.0, 7.0],
    ]
    per_name, self_time = aggregate(spans)
    expect(self_time == [2.0, 6.0, 2.0, 1.0, 1.0],
           f"self time subtracts nested spans of other layers only: {self_time}")
    expect(per_name["grid.sample"] == {"calls": 2, "busy_s": 2.0, "self_s": 2.0},
           "busy time and calls add up over spans")
    expect(all(v["self_s"] <= v["busy_s"] for v in per_name.values()),
           "self <= busy on the synthetic nest")


def test_real_self_time():
    import dbarkit
    import dbarkit.cli as cli

    out = os.path.abspath(os.path.join(run.WORK_DIR, "selftest"))
    tracer = Tracer()
    tracer.install()
    try:
        # n = 64 is too coarse for some gates; only the spans matter here
        with contextlib.redirect_stdout(io.StringIO()):
            for sub in ("verify-identity", "solve", "sharpness", "curvature"):
                cli.main([sub, "--grid-n", "64", "--sequential", "--out", out])
        f = dbarkit.bumps.random_suite(1, 3)[0].sample_dbar(dbarkit.build_grid(6.0, 64))
        dbarkit.cauchy_transform(f)
    finally:
        tracer.uninstall()
    spans = tracer.spans
    per_name, self_time = aggregate(spans)
    depth = {}
    for sid, parent, *_ in spans:
        depth[sid] = 0 if parent is None else depth[parent] + 1
    bad = [s[2] for s, own in zip(spans, self_time) if not -1e-9 <= own <= s[4] - s[3] + 1e-9]
    expect(max(depth.values()) >= 3 and not bad,
           f"0 <= self <= duration for all {len(spans)} real spans "
           f"(max depth {max(depth.values())}; bad: {bad[:5]})")
    expect(all(v["self_s"] <= v["busy_s"] + 1e-9 for v in per_name.values()),
           "self <= busy for every traced function")
    expect(tracer.counts["grid.field.constructions"] > 0 and tracer.counts["kernel.fft.calls"] > 0
           and tracer.counts["grid.nodes.calls"] > 0, "Field, Grid.nodes and numpy.fft counters move")


def test_second_seed():
    from dbarkit.bumps import random_suite

    a, b = random_suite(5, 42), random_suite(5, 43)
    expect(all(x != y for x, y in zip(a, b)), "seed 43 gives a different bump suite than seed 42")
    out = os.path.abspath(os.path.join(run.WORK_DIR, "selftest-seed"))
    for seed in (42, 43):
        verdicts = run.Verdicts("all-default", seed)
        _, _, _, record = run.run_pass("all-default", seed, out, time.monotonic() + 120)
        verdicts.check(out, record)
        expect(verdicts.failed == 0 and verdicts.checks > 0,
               f"all-default at seed {seed}: {verdicts.checks} gate checks pass, "
               f"drift {verdicts.max_drift:.3g} over {len(verdicts.expected)} recorded numbers "
               f"{verdicts.problems}")


def test_benchmark_json():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    expect(e2e == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    expect(layers == {m: run.unit_of(m) for m in run.PER_LAYER},
           "BENCHMARK.json per_layer matches run.py")
    names = {w["name"] for w in bench["workloads"]}
    expect(names == set(outputs.REPORTS) == set(run.WORKLOADS),
           "BENCHMARK.json workloads match the harness")


def main():
    try:
        test_wrappers_restore()
        test_synthetic_self_time()
        test_real_self_time()
        test_second_seed()
        test_benchmark_json()
    finally:
        shutil.rmtree(run.WORK_DIR, ignore_errors=True)
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
