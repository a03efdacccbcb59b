"""Command-line entry point: configuration, pipelines, report emission.

Every verification pipeline is addressable as a subcommand; ``all`` chains
them.  The run configuration is a plain dict: ``DEFAULT_CONFIG`` declares
every key, and each default's type is the key's type.  ``load_config``
returns a copy of it with a config file's keys and then flag overrides
merged in and validated; pipelines read that dict, and reports echo it as
their ``config`` block.  ``emit_report`` is the one place that decides the
report format: strict JSON from the stdlib encoder, with sorted keys,
shortest round-trip floats and ASCII escapes (and optionally CSV dumps).
The process exits 0 exactly when every non-informational check passes, and
2 on a configuration error.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import json
import math
import numbers
import sys
import time
from math import pi
from pathlib import Path

import numpy as np

from . import identity, solver
from .moments import bargmann_probe, diagonal_restriction
from .moments import moments as compute_moments
from .bumps import random_suite
from .errors import (ConfigError, DynamicRangeError, InvalidArgumentError, SamplingError,
                     WeightInvariantViolationError)
from .grid import Field, build_grid, sample, write_field_csv
from .weights import curvature_margin, custom_weight, fock_weight

DEFAULT_CONFIG = {
    "grid": {"radius": 6.0, "n": 256},
    "weight": {"name": "fock", "t": 1.0},
    # only "spectral": kept since the benchmark's recorded reports hold the key,
    # until the benchmark-upkeep change records them again (ROADMAP item 7)
    "scheme": "spectral",
    "tolerances": {"identity_rel": 1e-6, "moment_abs": 1e-8, "bound_slack": 0.01},
    "seed": 42,
    "output": {"dir": "reports", "format": "json"},
    "sequential": False,
}
FORMATS = ("json", "csv")

# moment/diagonal quadrature needs finer sampling than the default grid
# because monomial and oscillatory factors amplify the aliasing tail
MOMENT_GRID_N = 1024


# the types a leaf accepts, by the type of its default; bools are told
# apart on their own, since a bool is an int
_LEAF_TYPES = {bool: bool, int: numbers.Integral, float: numbers.Real, str: str}


def _leaf(full, default, v):
    """``v`` converted to the type of ``default``, which it must have."""
    if (isinstance(v, bool) != isinstance(default, bool)
            or not isinstance(v, _LEAF_TYPES[type(default)])):
        raise ConfigError(f"config key {full} must be a {type(default).__name__}, got {v!r}")
    try:
        return type(default)(v)
    except OverflowError as e:
        raise ConfigError(f"config key {full} is out of range: {e}") from e


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
            out[k] = _leaf(full, base[k], v)
    return out


def load_config(path=None, overrides=None) -> dict:
    """``DEFAULT_CONFIG`` with the file at ``path``, then ``overrides``, merged in."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        try:
            user = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot parse config {path}: {e}") from e
        if not isinstance(user, dict):
            raise ConfigError(f"config {path} must contain a JSON object")
        cfg = _merge_validate(cfg, user)
    if overrides:
        cfg = _merge_validate(cfg, overrides)
    if cfg["grid"]["n"] < 8:
        raise ConfigError(f"grid.n must be an integer >= 8, got {cfg['grid']['n']!r}")
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg['seed']!r}")
    positive = {"grid.radius": cfg["grid"]["radius"],
                **{f"tolerances.{k}": v for k, v in cfg["tolerances"].items()}}
    for key, val in positive.items():
        if not (math.isfinite(val) and val > 0):
            raise ConfigError(f"{key} must be a finite positive number, got {val!r}")
    try:
        custom_weight(cfg["weight"])
    except (ValueError, TypeError) as e:
        raise ConfigError(f"invalid weight {cfg['weight']!r}: {e}") from e
    if cfg["scheme"] != "spectral":
        raise ConfigError(f"unknown scheme {cfg['scheme']!r}; only 'spectral' is supported")
    if cfg["output"]["format"] not in FORMATS:
        raise ConfigError(f"unknown output format {cfg['output']['format']!r}")
    return cfg


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


def _details(rep, **extra):
    """The fields of the report dataclass ``rep``, minus sampled ``Field``s, plus ``extra``."""
    values = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}
    return {k: v for k, v in values.items() if not isinstance(v, Field)} | extra


def _grid(cfg, n_min=0):
    return build_grid(cfg["grid"]["radius"], max(cfg["grid"]["n"], n_min))


def _compliant_datum(cfg, grid):
    return random_suite(1, cfg["seed"])[0].sample_dbar(grid)


def pipe_verify_identity(cfg):
    grid = _grid(cfg)
    w = custom_weight(cfg["weight"])
    tol = cfg["tolerances"]["identity_rel"]
    worst = 0.0
    t0 = time.perf_counter()
    for member in random_suite(20, cfg["seed"]):
        rep = identity.verify_norm_identity(member.sample(grid), w, tol)
        worst = max(worst, rep.rel_err)
    dt = time.perf_counter() - t0
    return [_check("norm-identity-suite-max-rel-err", worst < tol, worst, tol, tol, dt)], {}


def pipe_solve(cfg):
    grid = _grid(cfg)
    w = custom_weight(cfg["weight"])
    f = _compliant_datum(cfg, grid)
    slack = cfg["tolerances"]["bound_slack"]
    t0 = time.perf_counter()
    rep = solver.solve_dbar(f, w, slack=slack)
    dt = time.perf_counter() - t0
    checks = [
        _check("solve-h2-bound", rep.h2_passes, rep.h2_lhs, rep.h2_rhs * (1 + slack), slack,
               dt, informational=rep.non_orthogonal_datum),
        _check("solve-residual", rep.residual_inf < 1e-6, rep.residual_inf, 1e-6, 1e-6, dt),
        _check("solve-compliant-not-flagged", not rep.non_orthogonal_datum,
               rep.moment_rel_max, solver.MOMENT_REL_TOL, solver.MOMENT_REL_TOL, dt),
    ]
    return checks, {"solution_report": _details(rep, method="spectral"), "_csv": {"u": rep.u}}


def pipe_check_h1(cfg):
    grid = _grid(cfg)
    f = _compliant_datum(cfg, grid)
    slack = cfg["tolerances"]["bound_slack"]
    t0 = time.perf_counter()
    rep = solver.check_hormander_bound(f, fock_weight(1.0), slack=slack)
    dt = time.perf_counter() - t0
    checks = [
        _check("h1-bound", rep.passes, rep.h1_lhs, rep.h1_rhs * (1 + slack), slack, dt),
        _check("h1-projection-idempotence", rep.projection_idempotence_err < 1e-6,
               rep.projection_idempotence_err, 1e-6, 1e-6, dt),
    ]
    return checks, {"bound_report": _details(rep)}


def pipe_sharpness(cfg):
    grid = _grid(cfg)
    f = sample(lambda z: -z * np.exp(-np.abs(z) ** 2), grid)
    t0 = time.perf_counter()
    rep = solver.solve_dbar(f, fock_weight(1.0), slack=cfg["tolerances"]["bound_slack"])
    dt = time.perf_counter() - t0
    ratio = rep.h2_lhs / rep.h2_rhs
    checks = [
        _check("sharpness-lhs-pi", abs(rep.h2_lhs - pi) < 1e-6, rep.h2_lhs, pi, 1e-6, dt),
        _check("sharpness-rhs-pi", abs(rep.h2_rhs - pi) < 1e-6, rep.h2_rhs, pi, 1e-6, dt),
        _check("sharpness-ratio-one", abs(ratio - 1.0) < 1e-6, ratio, 1.0, 1e-6, dt),
    ]
    return checks, {"solution_report": _details(rep, method="spectral")}


def pipe_moments(cfg):
    grid = _grid(cfg, MOMENT_GRID_N)
    f = _compliant_datum(cfg, grid)
    tol = cfg["tolerances"]["moment_abs"]
    t0 = time.perf_counter()
    mv = compute_moments(f, 10)
    h = grid.spacing
    l1 = float(h * h * np.sum(np.abs(f.values)))
    worst = float(np.max(np.abs(mv.m))) / l1
    checks = [
        _check("moments-compliant", worst < tol, worst, tol, tol, time.perf_counter() - t0),
    ]
    t0 = time.perf_counter()
    g = sample(lambda z: np.exp(-np.abs(z) ** 2), grid)
    m0 = compute_moments(g, 0).m[0]
    checks.append(_check("moments-gaussian-m0-pi", abs(m0 - pi) < 1e-8, abs(m0), pi,
                         1e-8, time.perf_counter() - t0, informational=True))
    return checks, {
        "moments": {"J": mv.J, "m_re": mv.m.real.tolist(), "m_im": mv.m.imag.tolist()},
        "gaussian_m0": {"re": float(m0.real), "im": float(m0.imag)},
    }


def pipe_diagonal(cfg):
    grid = _grid(cfg, MOMENT_GRID_N)
    f = _compliant_datum(cfg, grid)
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


def pipe_bargmann(cfg):
    checks = []
    reports = []
    readings = set()
    total = 0.0
    for a in (1.5, 2.0, 3.0):
        t0 = time.perf_counter()
        rep = bargmann_probe(1.0, a)
        dt = time.perf_counter() - t0
        total += dt
        reports.append(_details(rep))
        readings.add(rep.matching_reading)
        ok = rep.matching_reading in ("literal", "quadratic")
        checks.append(_check(f"bargmann-unique-reading-a={a:g}", ok,
                             min(rep.rel_err_literal, rep.rel_err_quadratic), 1e-4,
                             1e-4, dt))
    # the reading comparison draws on every probe above
    checks.append(_check("bargmann-consistent-reading", len(readings) == 1,
                         float(len(readings)), 1.0, 0.0, total))
    return checks, {"probes": reports, "matching_reading": sorted(readings)}


def pipe_curvature(cfg):
    grid = _grid(cfg)
    t0 = time.perf_counter()
    try:
        w = custom_weight(cfg["weight"])
        rep = curvature_margin(w, grid)
    except WeightInvariantViolationError as e:
        return [_check("curvature-margin", False, None, 0.0, 1e-9,
                       time.perf_counter() - t0)], {
            "error": "weight-invariant-violation", "detail": str(e)}
    checks = [_check("curvature-margin", rep.passes, rep.min_margin, -1e-9, 1e-9,
                     time.perf_counter() - t0)]
    return checks, {"curvature_report": _details(rep)}


def pipe_uniqueness(cfg):
    grid = _grid(cfg)
    w = fock_weight(1.0)
    u0 = Field(grid, np.zeros((grid.n, grid.n), dtype=complex))
    t0 = time.perf_counter()
    probes = solver.uniqueness_probe(u0, w, range(4), radii=[1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    dt = (time.perf_counter() - t0) / len(probes)  # the shared call, split evenly
    checks = []
    tables = {}
    for table in probes:
        p = table["p"]
        tables[f"p={p}"] = table
        ratio = table["growth_ratio"]
        ok = table["monotone"] and ratio is not None and ratio > 1e3
        checks.append(_check(f"uniqueness-growth-p={p}", ok, ratio, 1e3, 1e3, dt))
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


def run(cfg: dict, subcommand: str) -> dict:
    """Execute the named pipeline(s); returns the suite result structure.

    ``_csv`` maps ``<pipeline>_<stem>`` to a ``Field`` or to CSV text.
    """
    if subcommand != "all" and subcommand not in PIPELINES:
        raise InvalidArgumentError(f"unknown subcommand {subcommand!r}")
    names = list(PIPELINES) if subcommand == "all" else [subcommand]
    all_checks = []
    details = {}
    csv = {}
    for name in names:
        checks, extra = PIPELINES[name](cfg)
        all_checks.extend(checks)
        for stem, art in extra.pop("_csv", {}).items():
            csv[f"{name}_{stem}"] = art
        if extra:
            details[name] = extra
    if cfg["sequential"]:
        # timings are the only nondeterministic report content
        for c in all_checks:
            c["runtime_ms"] = 0.0
    return {
        "subcommand": subcommand,
        "config": cfg,
        "checks": all_checks,
        "details": details,
        "overall": all(c["passes"] for c in all_checks if not c["informational"]),
        "_csv": csv,
    }


def emit_report(result: dict, cfg: dict) -> list[str]:
    """Write the JSON report (and the CSV dumps when requested)."""
    out = Path(cfg["output"]["dir"])
    out.mkdir(parents=True, exist_ok=True)
    public = {k: v for k, v in result.items() if not k.startswith("_")}
    jpath = out / f"{result['subcommand']}.json"
    # allow_nan=False raises ValueError on NaN or +-inf, keeping reports strict
    # JSON; the ASCII escapes make any string writable, even an --out path
    # holding an undecodable byte
    jpath.write_text(json.dumps(public, sort_keys=True, allow_nan=False) + "\n")
    written = [str(jpath)]
    if cfg["output"]["format"] == "csv":
        for stem, art in result["_csv"].items():
            p = out / f"{stem}.csv"
            with p.open("w") as fh:
                if isinstance(art, Field):
                    write_field_csv(art, fh)
                else:
                    fh.write(art)
            written.append(str(p))
    return written


# each flag and the dotted config key it overrides
FLAG_KEYS = {"grid_n": "grid.n", "grid_radius": "grid.radius", "weight": "weight",
             "out": "output.dir", "format": "output.format", "seed": "seed",
             "sequential": "sequential"}


def build_parser():
    ap = argparse.ArgumentParser(prog="dbarkit",
                                 description="dbar-equation verification toolkit")
    ap.add_argument("subcommand", choices=(*PIPELINES, "all"))
    ap.add_argument("--config", default=None, help="JSON config file")
    ap.add_argument("--grid-n", type=int, default=None)
    ap.add_argument("--grid-radius", type=float, default=None)
    ap.add_argument("--weight", default=None,
                    help="catalog name or JSON weight spec")
    ap.add_argument("--out", default=None, help="output directory")
    ap.add_argument("--format", choices=FORMATS, default=None)
    ap.add_argument("--seed", type=int, default=None)
    # None when absent, so a config file's "sequential": true stands
    ap.add_argument("--sequential", action="store_true", default=None,
                    help="force bit-reproducible sequential evaluation")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.weight is not None:
            w = args.weight
            args.weight = json.loads(w) if w.strip().startswith("{") else {"name": w}
        overrides = {}
        for dest, key in FLAG_KEYS.items():
            value = getattr(args, dest)
            if value is not None:
                *parents, leaf = key.split(".")
                node = overrides
                for part in parents:
                    node = node.setdefault(part, {})
                node[leaf] = value
        cfg = load_config(args.config, overrides)
        result = run(cfg, args.subcommand)
    except json.JSONDecodeError as e:
        # load_config reports its own file's parse errors as ConfigError
        print(f"config error: cannot parse --weight: {e}", file=sys.stderr)
        return 2
    except (ConfigError, DynamicRangeError, SamplingError) as e:
        # weight factors or closed forms out of the float range make the
        # configuration unusable
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
