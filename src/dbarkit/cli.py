"""Command-line entry point: configuration, pipelines, report emission.

Every verification pipeline is addressable as a subcommand; ``all`` chains
them.  Reports are written as deterministic JSON (and optionally CSV field
dumps) and the process exits 0 exactly when every non-informational check
passes.
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import sys
import time
from dataclasses import dataclass
from math import pi
from pathlib import Path

import numpy as np

from . import identity, solver
from .moments import bargmann_probe, diagonal_restriction
from .moments import moments as compute_moments
from .bumps import random_suite
from .errors import ConfigError, InvalidArgumentError, WeightInvariantViolationError
from .grid import Field, build_grid, sample, write_field_csv
from .reports import canonical_json
from .weights import curvature_margin, custom_weight, fock_weight

DEFAULT_CONFIG = {
    "grid": {"radius": 6.0, "n": 256},
    "weight": {"name": "fock", "t": 1.0},
    "scheme": "spectral",
    "tolerances": {"identity_rel": 1e-6, "moment_abs": 1e-8, "bound_slack": 0.01},
    "seed": 42,
    "output": {"dir": "reports", "format": "json"},
    "sequential": False,
}

# moment/diagonal quadrature needs finer sampling than the default grid
# because monomial and oscillatory factors amplify the aliasing tail
MOMENT_GRID_N = 1024

SUBCOMMANDS = (
    "verify-identity", "solve", "check-h1", "sharpness", "moments",
    "diagonal", "bargmann-probe", "curvature", "uniqueness-probe", "all",
)


@dataclass
class RunConfig:
    radius: float
    n: int
    weight: dict
    scheme: str
    identity_rel: float
    moment_abs: float
    bound_slack: float
    seed: int
    out_dir: str
    out_format: str
    sequential: bool = False

    def to_dict(self):
        return {
            "grid": {"radius": self.radius, "n": self.n},
            "weight": self.weight,
            "scheme": self.scheme,
            "tolerances": {
                "identity_rel": self.identity_rel,
                "moment_abs": self.moment_abs,
                "bound_slack": self.bound_slack,
            },
            "seed": self.seed,
            "output": {"dir": self.out_dir, "format": self.out_format},
            "sequential": self.sequential,
        }


def _merge_validate(base: dict, override: dict, path="") -> dict:
    out = dict(base)
    for k, v in override.items():
        full = f"{path}.{k}" if path else str(k)
        if k not in base:
            raise ConfigError(f"unknown config key: {full}")
        if k == "weight" and not path:
            # weight specs carry catalog-specific parameter keys; the
            # catalog itself validates them
            if not isinstance(v, dict) or "name" not in v:
                raise ConfigError("config key weight must be an object with a 'name'")
            out[k] = v
        elif isinstance(base[k], dict):
            if not isinstance(v, dict):
                raise ConfigError(f"config key {full} must be an object")
            out[k] = _merge_validate(base[k], v, full)
        else:
            out[k] = v
    return out


def _is_int(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _is_positive_real(x) -> bool:
    return (isinstance(x, numbers.Real) and not isinstance(x, bool)
            and math.isfinite(x) and x > 0)


def load_config(path=None, overrides=None) -> RunConfig:
    raw = DEFAULT_CONFIG
    if path is not None:
        try:
            text = Path(path).read_text()
            user = json.loads(text)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot parse config {path}: {e}") from e
        if not isinstance(user, dict):
            raise ConfigError(f"config {path} must contain a JSON object")
        raw = _merge_validate(raw, user)
    if overrides:
        raw = _merge_validate(raw, overrides)
    tol = raw["tolerances"]
    for name, val in tol.items():
        if not _is_positive_real(val):
            raise ConfigError(f"tolerance {name} must be a finite positive number, got {val!r}")
    n, radius = raw["grid"]["n"], raw["grid"]["radius"]
    if not (_is_int(n) and n >= 8):
        raise ConfigError(f"grid.n must be an integer >= 8, got {n!r}")
    if not _is_positive_real(radius):
        raise ConfigError(f"grid.radius must be a finite positive number, got {radius!r}")
    if not _is_int(raw["seed"]):
        raise ConfigError(f"seed must be an integer, got {raw['seed']!r}")
    try:
        custom_weight(raw["weight"])
    except (ValueError, TypeError) as e:
        raise ConfigError(f"invalid weight {raw['weight']!r}: {e}") from e
    if raw["scheme"] not in ("spectral", "fd4"):
        raise ConfigError(f"unknown scheme {raw['scheme']!r}")
    if raw["output"]["format"] not in ("json", "csv"):
        raise ConfigError(f"unknown output format {raw['output']['format']!r}")
    return RunConfig(
        radius=float(radius),
        n=int(n),
        weight=raw["weight"],
        scheme=raw["scheme"],
        identity_rel=float(tol["identity_rel"]),
        moment_abs=float(tol["moment_abs"]),
        bound_slack=float(tol["bound_slack"]),
        seed=int(raw["seed"]),
        out_dir=raw["output"]["dir"],
        out_format=raw["output"]["format"],
        sequential=bool(raw["sequential"]),
    )


def _check(name, passes, measured, bound, tolerance, runtime_s, informational=False):
    """One report entry; ``runtime_s`` is the duration of the computation behind it.

    ``measured`` is None when the computation produced no number; the
    pipeline's details say why.
    """
    return {
        "name": name,
        "passes": bool(passes),
        "measured": None if measured is None else float(measured),
        "bound": float(bound),
        "tolerance": float(tolerance),
        "runtime_ms": float(runtime_s * 1e3),
        "informational": bool(informational),
    }


def _compliant_datum(cfg: RunConfig, grid):
    member = random_suite(1, cfg.seed)[0]
    return member, member.sample_dbar(grid)


def pipe_verify_identity(cfg: RunConfig):
    grid = build_grid(cfg.radius, cfg.n)
    w = custom_weight(cfg.weight)
    checks = []
    worst = 0.0
    t0 = time.perf_counter()
    for i, member in enumerate(random_suite(20, cfg.seed)):
        rep = identity.verify_norm_identity(member.sample(grid), w, cfg.scheme,
                                            cfg.identity_rel)
        worst = max(worst, rep.rel_err)
    dt = time.perf_counter() - t0
    checks.append(_check("norm-identity-suite-max-rel-err", worst < cfg.identity_rel,
                         worst, cfg.identity_rel, cfg.identity_rel, dt))
    return checks, {}


def pipe_solve(cfg: RunConfig):
    grid = build_grid(cfg.radius, cfg.n)
    w = custom_weight(cfg.weight)
    _, f = _compliant_datum(cfg, grid)
    t0 = time.perf_counter()
    rep = solver.solve_dbar(f, w, slack=cfg.bound_slack)
    dt = time.perf_counter() - t0
    checks = [
        _check("solve-h2-bound", rep.h2_lhs <= rep.h2_rhs * (1 + cfg.bound_slack),
               rep.h2_lhs, rep.h2_rhs * (1 + cfg.bound_slack), cfg.bound_slack, dt,
               informational=rep.non_orthogonal_datum),
        _check("solve-residual", rep.residual_inf < 1e-6, rep.residual_inf, 1e-6, 1e-6, dt),
        _check("solve-compliant-not-flagged", not rep.non_orthogonal_datum,
               rep.moment_rel_max, 1e-4, 1e-4, dt),
    ]
    return checks, {"solution_report": rep.to_dict(), "_fields": {"u": rep.u}}


def pipe_check_h1(cfg: RunConfig):
    grid = build_grid(cfg.radius, cfg.n)
    _, f = _compliant_datum(cfg, grid)
    t0 = time.perf_counter()
    rep = solver.check_hormander_bound(f, fock_weight(1.0), slack=cfg.bound_slack)
    dt = time.perf_counter() - t0
    checks = [
        _check("h1-bound", rep.passes, rep.h1_lhs, rep.h1_rhs * (1 + cfg.bound_slack),
               cfg.bound_slack, dt),
        _check("h1-projection-idempotence", rep.projection_idempotence_err < 1e-6,
               rep.projection_idempotence_err, 1e-6, 1e-6, dt),
    ]
    return checks, {"bound_report": rep.to_dict()}


def pipe_sharpness(cfg: RunConfig):
    grid = build_grid(cfg.radius, cfg.n)
    f = sample(lambda z: -z * np.exp(-np.abs(z) ** 2), grid)
    t0 = time.perf_counter()
    rep = solver.solve_dbar(f, fock_weight(1.0), slack=cfg.bound_slack)
    dt = time.perf_counter() - t0
    ratio = rep.h2_lhs / rep.h2_rhs
    checks = [
        _check("sharpness-lhs-pi", abs(rep.h2_lhs - pi) < 1e-6, rep.h2_lhs, pi, 1e-6, dt),
        _check("sharpness-rhs-pi", abs(rep.h2_rhs - pi) < 1e-6, rep.h2_rhs, pi, 1e-6, dt),
        _check("sharpness-ratio-one", abs(ratio - 1.0) < 1e-6, ratio, 1.0, 1e-6, dt),
    ]
    return checks, {"solution_report": rep.to_dict()}


def pipe_moments(cfg: RunConfig):
    n_fine = max(cfg.n, MOMENT_GRID_N)
    grid = build_grid(cfg.radius, n_fine)
    _, f = _compliant_datum(cfg, grid)
    t0 = time.perf_counter()
    mv = compute_moments(f, 10)
    h = grid.spacing
    l1 = float(h * h * np.sum(np.abs(f.values)))
    worst = float(np.max(np.abs(mv.m))) / l1
    checks = [
        _check("moments-compliant", worst < cfg.moment_abs, worst, cfg.moment_abs,
               cfg.moment_abs, time.perf_counter() - t0),
    ]
    t0 = time.perf_counter()
    g = sample(lambda z: np.exp(-np.abs(z) ** 2), grid)
    m0 = compute_moments(g, 0).m[0]
    checks.append(_check("moments-gaussian-m0-pi", abs(m0 - pi) < 1e-8, abs(m0), pi,
                         1e-8, time.perf_counter() - t0, informational=True))
    return checks, {"moments": mv.to_dict(), "gaussian_m0": complex(m0)}


def pipe_diagonal(cfg: RunConfig):
    n_fine = max(cfg.n, MOMENT_GRID_N)
    grid = build_grid(cfg.radius, n_fine)
    _, f = _compliant_datum(cfg, grid)
    t0 = time.perf_counter()
    ds = diagonal_restriction(f)
    worst = float(np.max(np.abs(ds.values)))
    checks = [_check("diagonal-compliant-vanishes", worst < 1e-7, worst, 1e-7, 1e-7,
                     time.perf_counter() - t0)]
    t0 = time.perf_counter()
    g = sample(lambda z: np.exp(-np.abs(z) ** 2), grid)
    dg = diagonal_restriction(g)
    dev = float(np.max(np.abs(dg.values - pi)))
    # necessity direction: the violation must be present for the Gaussian
    checks.append(_check("diagonal-gaussian-constant-pi", dev < 1e-4, dev, 1e-4, 1e-4,
                         time.perf_counter() - t0))
    return checks, {"_csv": {"diagonal_compliant": ds.to_csv(), "diagonal_gaussian": dg.to_csv()}}


def pipe_bargmann(cfg: RunConfig):
    checks = []
    reports = []
    readings = set()
    total = 0.0
    for a in (1.5, 2.0, 3.0):
        t0 = time.perf_counter()
        rep = bargmann_probe(1.0, a)
        dt = time.perf_counter() - t0
        total += dt
        reports.append(rep.to_dict())
        readings.add(rep.matching_reading)
        ok = rep.matching_reading in ("literal", "quadratic")
        checks.append(_check(f"bargmann-unique-reading-a={a:g}", ok,
                             min(rep.rel_err_literal, rep.rel_err_quadratic), 1e-4,
                             1e-4, dt))
    # the reading comparison draws on every probe above
    checks.append(_check("bargmann-consistent-reading", len(readings) == 1,
                         float(len(readings)), 1.0, 0.0, total))
    return checks, {"probes": reports, "matching_reading": sorted(readings)}


def pipe_curvature(cfg: RunConfig):
    grid = build_grid(cfg.radius, cfg.n)
    t0 = time.perf_counter()
    try:
        w = custom_weight(cfg.weight)
        rep = curvature_margin(w, grid)
    except WeightInvariantViolationError as e:
        return [_check("curvature-margin", False, None, 0.0, 1e-9,
                       time.perf_counter() - t0)], {
            "error": "weight-invariant-violation", "detail": str(e)}
    checks = [_check("curvature-margin", rep.passes, rep.min_margin, -1e-9, 1e-9,
                     time.perf_counter() - t0)]
    return checks, {"curvature_report": rep.to_dict()}


def pipe_uniqueness(cfg: RunConfig):
    grid = build_grid(cfg.radius, cfg.n)
    w = fock_weight(1.0)
    u0 = Field(grid, np.zeros((grid.n, grid.n), dtype=complex))
    checks = []
    tables = {}
    for p in range(4):
        t0 = time.perf_counter()
        table = solver.uniqueness_probe(u0, w, p, radii=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        dt = time.perf_counter() - t0
        tables[f"p={p}"] = table
        ok = table["monotone"] and table["growth_ratio"] > 1e3
        checks.append(_check(f"uniqueness-growth-p={p}", ok, table["growth_ratio"],
                             1e3, 1e3, dt))
    return checks, {"tables": tables}


PIPELINES = {
    "verify-identity": pipe_verify_identity,
    "solve": pipe_solve,
    "check-h1": pipe_check_h1,
    "sharpness": pipe_sharpness,
    "moments": pipe_moments,
    "diagonal": pipe_diagonal,
    "bargmann-probe": pipe_bargmann,
    "curvature": pipe_curvature,
    "uniqueness-probe": pipe_uniqueness,
}


def run(cfg: RunConfig, subcommand: str) -> dict:
    """Execute the named pipeline(s); returns the suite result structure."""
    if subcommand == "all":
        names = list(PIPELINES)
    elif subcommand in PIPELINES:
        names = [subcommand]
    else:
        raise InvalidArgumentError(f"unknown subcommand {subcommand!r}")
    all_checks = []
    extras = {}
    for name in names:
        checks, extra = PIPELINES[name](cfg)
        all_checks.extend(checks)
        extra_public = {k: v for k, v in extra.items() if not k.startswith("_")}
        if extra_public:
            extras[name] = extra_public
        extras.setdefault("_artifacts", {})[name] = {
            k: v for k, v in extra.items() if k.startswith("_")
        }
    if cfg.sequential:
        # timings are the only nondeterministic report content
        for c in all_checks:
            c["runtime_ms"] = 0.0
    overall = all(c["passes"] for c in all_checks if not c["informational"])
    return {
        "subcommand": subcommand,
        "config": cfg.to_dict(),
        "checks": all_checks,
        "details": {k: v for k, v in extras.items() if k != "_artifacts"},
        "overall": overall,
        "_artifacts": extras.get("_artifacts", {}),
    }


def emit_report(result: dict, cfg: RunConfig) -> list[str]:
    """Write the JSON report (and CSV field dumps when requested)."""
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    public = {k: v for k, v in result.items() if not k.startswith("_")}
    jpath = out / f"{result['subcommand']}.json"
    jpath.write_text(canonical_json(public) + "\n")
    written.append(str(jpath))
    if cfg.out_format == "csv":
        for pipe, art in result.get("_artifacts", {}).items():
            for fname, fld in art.get("_fields", {}).items():
                p = out / f"{pipe}_{fname}.csv"
                with p.open("w") as fh:
                    write_field_csv(fld, fh)
                written.append(str(p))
            for cname, text in art.get("_csv", {}).items():
                p = out / f"{pipe}_{cname}.csv"
                p.write_text(text)
                written.append(str(p))
    return written


def build_parser():
    ap = argparse.ArgumentParser(prog="dbarkit",
                                 description="dbar-equation verification toolkit")
    ap.add_argument("subcommand", choices=SUBCOMMANDS)
    ap.add_argument("--config", default=None, help="JSON config file")
    ap.add_argument("--grid-n", type=int, default=None)
    ap.add_argument("--grid-radius", type=float, default=None)
    ap.add_argument("--weight", default=None,
                    help="catalog name or JSON weight spec")
    ap.add_argument("--scheme", choices=("spectral", "fd4"), default=None)
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--format", choices=("json", "csv"), default=None)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--sequential", action="store_true",
                    help="force bit-reproducible sequential evaluation")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    if args.grid_n is not None or args.grid_radius is not None:
        overrides["grid"] = {}
        if args.grid_n is not None:
            overrides["grid"]["n"] = args.grid_n
        if args.grid_radius is not None:
            overrides["grid"]["radius"] = args.grid_radius
    if args.scheme is not None:
        overrides["scheme"] = args.scheme
    if args.out is not None or args.format is not None:
        overrides["output"] = {}
        if args.out is not None:
            overrides["output"]["dir"] = args.out
        if args.format is not None:
            overrides["output"]["format"] = args.format
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.sequential:
        overrides["sequential"] = True
    try:
        if args.weight is not None:
            w = args.weight
            overrides["weight"] = json.loads(w) if w.strip().startswith("{") else {"name": w}
        cfg = load_config(args.config, overrides)
        result = run(cfg, args.subcommand)
    except json.JSONDecodeError as e:
        # load_config reports its own file's parse errors as ConfigError
        print(f"config error: cannot parse --weight: {e}", file=sys.stderr)
        return 2
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    emit_report(result, cfg)
    for c in result["checks"]:
        tag = "PASS" if c["passes"] else ("info" if c["informational"] else "FAIL")
        measured = "none" if c["measured"] is None else f"{c['measured']:.6g}"
        print(f"[{tag}] {c['name']}: measured={measured} bound={c['bound']:.6g}")
    print(f"overall: {'PASS' if result['overall'] else 'FAIL'}")
    return 0 if result["overall"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
