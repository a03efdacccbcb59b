#!/usr/bin/env python3
"""Sweep the Gaussian-family Plancherel probe over the decay parameter.

For f(x) = e^{-a x^2} the plane integral of |fhat|^2 against the Gaussian
weight is compared with the two candidate readings of the weighted line
integral -- |f| to the first power versus |f|^2 -- and the matching reading
is printed per row.
"""

import argparse
from math import inf

import numpy as np

from dbarkit.errors import InvalidArgumentError
from dbarkit.moments import bargmann_probe


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=1.0)
    ap.add_argument("--a-min", type=float, default=1.25)
    ap.add_argument("--a-max", type=float, default=4.0)
    ap.add_argument("--steps", type=int, default=12)
    args = ap.parse_args()
    if not 0.0 < args.beta < inf:
        ap.error(f"--beta must be finite and positive, got {args.beta}")
    for flag, a in (("--a-min", args.a_min), ("--a-max", args.a_max)):
        if not 1.0 / args.beta < a < inf:
            ap.error(f"{flag} must be finite and above 1/beta = {1.0 / args.beta:g}, got {a}")
    if args.steps < 1:
        ap.error(f"--steps must be at least 1, got {args.steps}")
    try:  # a*beta too close to 1 needs a larger rule than bargmann_probe allows
        reps = [bargmann_probe(args.beta, float(a))
                for a in np.linspace(args.a_min, args.a_max, args.steps)]
    except InvalidArgumentError as e:
        ap.error(str(e))

    print(f"{'a':>6} {'lhs':>12} {'rhs(|f|)':>12} {'rhs(|f|^2)':>12}"
          f" {'rel(|f|)':>10} {'rel(|f|^2)':>10}  reading")
    for rep in reps:
        print(f"{rep.a:>6.3f} {rep.lhs:>12.6f} {rep.rhs_literal:>12.6f}"
              f" {rep.rhs_quadratic:>12.6f} {rep.rel_err_literal:>10.2e}"
              f" {rep.rel_err_quadratic:>10.2e}  {rep.matching_reading}")


if __name__ == "__main__":
    main()
