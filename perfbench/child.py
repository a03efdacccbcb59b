"""One cold pass of a workload, in the fresh interpreter the runner spawns.

    python3 perfbench/child.py --workload NAME --seed N --out DIR
        [--trace FILE] [--setup-only]

The pass writes its reports under ``--out`` and a small ``pass.json`` there
holding the CLOCK_MONOTONIC time of its first call into a pipeline or layer
(the end of set-up), the exit code of every CLI invocation and the path the
``dbarkit`` package was imported from.  ``--setup-only`` stops at that first
call.  ``--trace`` installs the tracer and writes the spans to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

# the CLI workloads: dbarkit subcommands run one after another in one process
CLI_WORKLOADS = {
    "all-default": [["all", "--sequential"]],
    "solve-fine-csv": [
        ["solve", "--format", "csv", "--grid-n", "1024", "--sequential"],
        ["check-h1", "--grid-n", "1024", "--sequential"],
        ["sharpness", "--grid-n", "1024", "--sequential"],
        ["uniqueness-probe", "--grid-n", "1024", "--sequential"],
        ["curvature", "--grid-n", "1024", "--sequential"],
    ],
}
CONVERGENCE_SIZES = (128, 256, 512, 1024)
CONVERGENCE_SUITE = 5
CONVERGENCE_RADIUS = 6.0
WORKLOADS = (*CLI_WORKLOADS, "convergence")


class SetupDone(Exception):
    """Raised at the first call into a pipeline or layer in --setup-only mode."""


class FirstCallMarker:
    def __init__(self, setup_only):
        self.setup_only = setup_only
        self.t_first_call = None

    def hit(self):
        if self.t_first_call is None:
            self.t_first_call = time.clock_gettime(time.CLOCK_MONOTONIC)
        if self.setup_only:
            raise SetupDone

    def wrap(self, fn):
        def marked(*args, **kwargs):
            self.hit()
            return fn(*args, **kwargs)
        return marked


def run_cli(name, seed, out, marker):
    import dbarkit.cli as cli

    # cli.main parses the arguments and loads the config, then calls cli.run
    cli.run = marker.wrap(cli.run)
    codes = []
    for argv in CLI_WORKLOADS[name]:
        codes.append(cli.main([*argv, "--out", out, "--seed", str(seed)]))
    return codes


def run_convergence(seed, out, marker):
    """The work of scripts/convergence_study.py, through the public API."""
    import dbarkit
    from dbarkit import bumps, diffops, solver

    marker.hit()
    suite = bumps.random_suite(CONVERGENCE_SUITE, seed)
    w = dbarkit.fock_weight(1.0)
    rows = []
    for n in CONVERGENCE_SIZES:
        g = dbarkit.build_grid(CONVERGENCE_RADIUS, n)
        identity_err = max(dbarkit.verify_norm_identity(m.sample(g), w).rel_err
                           for m in suite)
        m0 = suite[0]
        f = m0.sample_dbar(g)
        u = solver.cauchy_transform(f)
        sol_err = diffops.interior_max(u - m0.sample(g), extra_band=2)
        res = diffops.interior_max(diffops.dbar(u, "spectral") - f, extra_band=2)
        rows.append({"n": n, "identity_rel": identity_err, "cauchy_err": sol_err,
                     "residual": res})
    with open(os.path.join(out, "convergence.json"), "w") as fh:
        json.dump({"seed": seed, "suite": CONVERGENCE_SUITE, "radius": CONVERGENCE_RADIUS,
                   "rows": rows}, fh, allow_nan=False)
    return [0]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--trace", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    import dbarkit
    import dbarkit.cli  # noqa: F401  (imports every layer, as the dbarkit command does)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    marker = FirstCallMarker(args.setup_only)
    codes = []
    unrestored = []
    try:
        if args.workload == "convergence":
            codes = run_convergence(args.seed, args.out, marker)
        else:
            codes = run_cli(args.workload, args.seed, args.out, marker)
    except SetupDone:
        pass
    finally:
        if tracer is not None:
            tracer.uninstall()
            unrestored = tracer.unrestored()
            tracer.dump(args.trace)
    with open(os.path.join(args.out, "pass.json"), "w") as fh:
        json.dump({"t_first_call": marker.t_first_call, "exit_codes": codes,
                   "unrestored": unrestored,
                   "dbarkit_file": os.path.realpath(dbarkit.__file__)}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
