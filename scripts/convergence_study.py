#!/usr/bin/env python3
"""Tabulate discretization error against grid size.

Three columns per n: the worst norm-identity relative error over a seeded
bump suite, the sup error of the Cauchy-transform solution against the field
whose derivative was used as the datum, and the sup residual of that
solution.  Orders are estimated from consecutive rows.
"""

import argparse

import numpy as np

from dbarkit import build_grid, fock_weight, verify_norm_identity
from dbarkit.bumps import random_suite
from dbarkit.diffops import dbar, interior_max
from dbarkit.errors import InvalidArgumentError
from dbarkit.solver import cauchy_transform


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radius", type=float, default=6.0)
    ap.add_argument("--sizes", type=int, nargs="+", default=[64, 128, 256])
    ap.add_argument("--suite", type=int, default=5, help="number of bump fields")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args()
    if args.suite < 1:
        ap.error(f"--suite must be at least 1, got {args.suite}")
    if args.seed < 0:
        ap.error(f"--seed must be non-negative, got {args.seed}")
    try:
        grids = [build_grid(args.radius, n) for n in args.sizes]
    except InvalidArgumentError as e:
        ap.error(str(e))

    suite = random_suite(args.suite, seed=args.seed)
    w = fock_weight(1.0)
    rows = []
    for g in grids:
        n = g.n
        identity_err = max(
            verify_norm_identity(m.sample(g), w).rel_err for m in suite
        )
        m0 = suite[0]
        f = m0.sample_dbar(g)
        u = cauchy_transform(f)
        sol_err = interior_max(u - m0.sample(g), extra_band=2)
        res = interior_max(dbar(u) - f, extra_band=2)
        rows.append((n, identity_err, sol_err, res))

    print(f"{'n':>6} {'identity_rel':>14} {'cauchy_err':>12} {'residual':>12}"
          f" {'err_order':>9} {'res_order':>9}")
    for i, (n, ie, se, re_) in enumerate(rows):
        if i == 0:
            print(f"{n:>6} {ie:>14.3e} {se:>12.3e} {re_:>12.3e} {'-':>9} {'-':>9}")
        else:
            po = np.log2(rows[i - 1][2] / se)
            pr = np.log2(rows[i - 1][3] / re_)
            print(f"{n:>6} {ie:>14.3e} {se:>12.3e} {re_:>12.3e} {po:>9.2f} {pr:>9.2f}")


if __name__ == "__main__":
    main()
