"""Command-line entry point: configuration, pipelines, report emission.

Every verification pipeline is addressable as a subcommand; ``all`` chains
them.  The run configuration is a plain dict: ``DEFAULT_CONFIG`` declares
every key, and each default's type is the key's type.  ``load_config``
returns a copy of it with a config file's keys and then flag overrides
merged in and validated; pipelines read that dict, and reports echo it as
their ``config`` block.  ``emit_report`` is the one place that decides the
report format: strict JSON from the stdlib encoder, with sorted keys,
shortest round-trip floats and ASCII escapes (and optionally CSV dumps),
with the pipelines' wall times in a sidecar, so a report depends on its inputs.
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
import os
import sys
import time
from math import pi
from pathlib import Path

import numpy as np

from . import identity, solver
from .moments import (MATCH_TOL, MOMENT_J, DiagonalSeries, MomentVector, _diagonal, _fold,
                      bargmann_probe, default_diagonal_samples)
from .bumps import random_suite
from .errors import (ConfigError, DynamicRangeError, InvalidArgumentError, SamplingError,
                     WeightInvariantViolationError)
from .grid import Field, Grid, _sampled_blocks, build_grid, sample, write_field_csv
from .weights import MARGIN_TOL, curvature_margin, custom_weight, fock_weight

DEFAULT_CONFIG = {
    "grid": {"radius": 6.0, "n": 256},
    "weight": {"name": "fock", "t": 1.0},
    # only "spectral": kept since the benchmark's recorded reports hold the key,
    # until the benchmark-upkeep change records them again (ROADMAP item 1)
    "scheme": "spectral",
    "tolerances": {"identity_rel": 1e-6, "moment_abs": 1e-8, "bound_slack": 0.01},
    "seed": 42,
    "output": {"dir": "reports", "format": "json"},
    # ignored, as no report holds a clock: kept like "scheme", and for the same reason
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
            user = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise ConfigError(f"cannot parse config {path}: {e}") from e
        if not isinstance(user, dict):
            raise ConfigError(f"config {path} must contain a JSON object")
        cfg = _merge_validate(cfg, user)
    if overrides:
        cfg = _merge_validate(cfg, overrides)
    n = cfg["grid"]["n"]
    # an int compares with a float exactly, so a huge n raises nothing here
    if not 8 <= n <= sys.float_info.max:
        shown = repr(n) if n < 8 else f"an integer of {len(str(n))} digits"
        raise ConfigError(f"grid.n must be an integer from 8 to the largest float, got {shown}")
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be a non-negative integer, got {cfg['seed']!r}")
    positive = {"grid.radius": cfg["grid"]["radius"],
                **{f"tolerances.{k}": v for k, v in cfg["tolerances"].items()}}
    for key, val in positive.items():
        if not (math.isfinite(val) and val > 0):
            raise ConfigError(f"{key} must be a finite positive number, got {val!r}")
    h = 2.0 * cfg["grid"]["radius"] / cfg["grid"]["n"]
    if not sys.float_info.min <= h * h <= sys.float_info.max:
        raise ConfigError(f"grid.radius: cell area (2R/n)^2 = {h * h!r} is not a normal float")
    try:
        custom_weight(cfg["weight"])
    except (ValueError, TypeError) as e:
        raise ConfigError(f"invalid weight {cfg['weight']!r}: {e}") from e
    if cfg["scheme"] != "spectral":
        raise ConfigError(f"unknown scheme {cfg['scheme']!r}; only 'spectral' is supported")
    if cfg["output"]["format"] not in FORMATS:
        raise ConfigError(f"unknown output format {cfg['output']['format']!r}")
    return cfg


def _check(name, passes, measured, bound, tolerance, informational=False):
    """One report entry; ``measured`` is None when the computation produced
    no number, and the pipeline's details say why."""
    return {
        "name": name,
        "passes": bool(passes),
        "measured": None if measured is None else float(measured),
        "bound": float(bound),
        "tolerance": float(tolerance),
        "informational": bool(informational),
    }


def _undefined(name, measured, reason):  # the details saying why a check has no number
    return {"undefined": {name: reason}} if measured is None else {}


def _details(rep, **extra):
    """The fields of the report dataclass ``rep``, minus sampled ``Field``s, plus ``extra``."""
    values = {f.name: getattr(rep, f.name) for f in dataclasses.fields(rep)}
    return {k: v for k, v in values.items() if not isinstance(v, Field)} | extra


def _grid(cfg, n_min=0):
    return build_grid(cfg["grid"]["radius"], max(cfg["grid"]["n"], n_min))


@dataclasses.dataclass(frozen=True)
class Reduction:
    """What the moment-grid pipelines read of one datum."""

    moments: MomentVector       # up to MOMENT_J
    l1: float                   # h^2 sum |f|
    diagonal: DiagonalSeries | None  # None unless the run includes ``diagonal``


class RunMemo(dict):
    """What one run samples and reduces once for all its pipelines, made on
    first use: ``memo[name, grid]`` is the datum ``DATA[name]`` sampled on
    ``grid`` for the run's seed, and ``memo.reduced(name, grid)`` its
    ``Reduction``, one ``moments._fold`` of the sampled datum if a pipeline
    has asked for it, else of row blocks sampled from the closed form and
    dropped once folded.  The reduction holds the diagonal restriction only
    when ``pipelines`` names ``diagonal``."""

    # each datum as its closed form and support mask (None for every node):
    # dbar of the seed's first suite member (orthogonal to entire functions)
    # and e^{-|z|^2}, whose m_0 and diagonal restriction are pi
    DATA = {"compliant": lambda seed, g: ((m := random_suite(1, seed)[0]).dbar, m._support(g)),
            "gaussian": lambda seed, g: (lambda z: np.exp(-np.abs(z) ** 2), None)}

    def __init__(self, seed: int, pipelines=()):
        super().__init__()
        self.seed = seed
        self.diagonal = "diagonal" in pipelines

    def __missing__(self, key):
        name, grid = key
        fn, inside = self.DATA[name](self.seed, grid)
        self[key] = sample(fn, grid, inside)
        return self[key]

    def reduced(self, name: str, grid: Grid) -> Reduction:
        key = name, grid, Reduction
        if key not in self:
            blocks = (self[name, grid] if (name, grid) in self
                      else _sampled_blocks(grid, *self.DATA[name](self.seed, grid)))
            xi = default_diagonal_samples()
            mv, l1, values = _fold(grid, blocks, MOMENT_J, True,
                                   (xi, 1j * xi) if self.diagonal else None)
            self[key] = Reduction(mv, l1, None if values is None else _diagonal(xi, values, mv))
        return self[key]


def pipe_verify_identity(cfg, memo):
    grid = _grid(cfg)
    w = custom_weight(cfg["weight"])
    tol = cfg["tolerances"]["identity_rel"]
    worst = 0.0
    for member in random_suite(20, cfg["seed"]):
        rep = identity.verify_norm_identity(member.sample(grid), w, tol)
        worst = max(worst, rep.rel_err)
    return [_check("norm-identity-suite-max-rel-err", worst < tol, worst, tol, tol)], {}


def pipe_solve(cfg, memo):
    grid = _grid(cfg)
    w = custom_weight(cfg["weight"])
    f = memo["compliant", grid]
    slack = cfg["tolerances"]["bound_slack"]
    rep = solver.solve_dbar(f, w, slack=slack)
    checks = [
        _check("solve-h2-bound", rep.h2_passes, rep.h2_lhs, rep.h2_rhs * (1 + slack), slack,
               informational=rep.non_orthogonal_datum),
        _check("solve-residual", rep.residual_inf < 1e-6, rep.residual_inf, 1e-6, 1e-6),
        _check("solve-compliant-not-flagged", not rep.non_orthogonal_datum,
               rep.moment_rel_max, solver.MOMENT_REL_TOL, solver.MOMENT_REL_TOL),
    ]
    return checks, {"solution_report": _details(rep, method="spectral"), "_csv": {"u": rep.u}}


def pipe_check_h1(cfg, memo):
    grid = _grid(cfg)
    f = memo["compliant", grid]
    slack = cfg["tolerances"]["bound_slack"]
    rep = solver.check_hormander_bound(f, fock_weight(1.0), slack=slack)
    checks = [
        _check("h1-bound", rep.passes, rep.h1_lhs, rep.h1_rhs * (1 + slack), slack),
        _check("h1-projection-idempotence", rep.projection_idempotence_err < 1e-6,
               rep.projection_idempotence_err, 1e-6, 1e-6),
    ]
    return checks, {"bound_report": _details(rep)}


def pipe_sharpness(cfg, memo):
    grid = _grid(cfg)
    f = sample(lambda z: -z * np.exp(-np.abs(z) ** 2), grid)
    rep = solver.solve_dbar(f, fock_weight(1.0), slack=cfg["tolerances"]["bound_slack"])
    ratio = rep.h2_lhs / rep.h2_rhs if rep.h2_rhs else None
    checks = [
        _check("sharpness-lhs-pi", abs(rep.h2_lhs - pi) < 1e-6, rep.h2_lhs, pi, 1e-6),
        _check("sharpness-rhs-pi", abs(rep.h2_rhs - pi) < 1e-6, rep.h2_rhs, pi, 1e-6),
        _check("sharpness-ratio-one", ratio is not None and abs(ratio - 1) < 1e-6, ratio, 1, 1e-6),
    ]
    return checks, {"solution_report": _details(rep, method="spectral"),
                    **_undefined("sharpness-ratio-one", ratio, "h2_rhs is 0")}


def pipe_moments(cfg, memo):
    grid = _grid(cfg, MOMENT_GRID_N)
    tol = cfg["tolerances"]["moment_abs"]
    compliant = memo.reduced("compliant", grid)
    mv, l1 = compliant.moments, compliant.l1
    worst = float(np.max(np.abs(mv.m))) / l1 if l1 else None
    # m_0 does not depend on J: it is the plain sum of the datum
    m0 = memo.reduced("gaussian", grid).moments.m[0]
    return [
        _check("moments-compliant", worst is not None and worst < tol, worst, tol, tol),
        _check("moments-gaussian-m0-pi", abs(m0 - pi) < 1e-8, abs(m0), pi, 1e-8,
               informational=True),
    ], {
        "moments": {"J": mv.J, "m_re": mv.m.real.tolist(), "m_im": mv.m.imag.tolist()},
        "gaussian_m0": {"re": float(m0.real), "im": float(m0.imag)},
        **_undefined("moments-compliant", worst, "the datum's L1 norm is 0"),
    }


def pipe_diagonal(cfg, memo):
    grid = _grid(cfg, MOMENT_GRID_N)
    ds = memo.reduced("compliant", grid).diagonal
    worst = float(np.max(np.abs(ds.values)))
    dg = memo.reduced("gaussian", grid).diagonal
    dev = float(np.max(np.abs(dg.values - pi)))
    return [
        _check("diagonal-compliant-vanishes", worst < 1e-7, worst, 1e-7, 1e-7),
        # necessity direction: the violation must be present for the Gaussian
        _check("diagonal-gaussian-constant-pi", dev < 1e-4, dev, 1e-4, 1e-4),
    ], {"_csv": {"diagonal_compliant": ds.to_csv(), "diagonal_gaussian": dg.to_csv()}}


def pipe_bargmann(cfg, memo):
    checks, reports, readings = [], [], set()
    for a in (1.5, 2.0, 3.0):
        rep = bargmann_probe(1.0, a)
        reports.append(_details(rep))
        readings.add(rep.matching_reading)
        ok = rep.matching_reading in ("literal", "quadratic")
        checks.append(_check(f"bargmann-unique-reading-a={a:g}", ok,
                             min(rep.rel_err_literal, rep.rel_err_quadratic),
                             MATCH_TOL, MATCH_TOL))
    checks.append(_check("bargmann-consistent-reading", len(readings) == 1,
                         float(len(readings)), 1.0, 0.0))
    return checks, {"probes": reports, "matching_reading": sorted(readings)}


def pipe_curvature(cfg, memo):
    grid = _grid(cfg)
    try:
        rep = curvature_margin(custom_weight(cfg["weight"]), grid)
    except WeightInvariantViolationError as e:
        return [_check("curvature-margin", False, None, 0.0, MARGIN_TOL)], {
            "error": "weight-invariant-violation", "detail": str(e)}
    checks = [_check("curvature-margin", rep.passes, rep.min_margin, -MARGIN_TOL, MARGIN_TOL)]
    return checks, {"curvature_report": _details(rep)}


def pipe_uniqueness(cfg, memo):
    checks, tables = [], {}
    for table in solver.uniqueness_probe(_grid(cfg), fock_weight(1.0)):
        p = table["p"]
        tables[f"p={p}"] = table
        ratio = table["growth_ratio"]
        ok = table["monotone"] and ratio is not None and ratio > 1e3
        checks.append(_check(f"uniqueness-growth-p={p}", ok, ratio, 1e3, 1e3))
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
    ``_timings`` maps each pipeline to its wall time in ms, which the report
    itself never holds.  The pipelines share one ``RunMemo`` made for
    ``names``, so a datum's sampling and its reduction count towards the
    first pipeline that asks for them: in ``all``, ``moments`` takes the
    moment-grid data's diagonal restrictions too, and ``diagonal`` only
    reads them.
    """
    if subcommand != "all" and subcommand not in PIPELINES:
        raise InvalidArgumentError(f"unknown subcommand {subcommand!r}")
    names = list(PIPELINES) if subcommand == "all" else [subcommand]
    all_checks, details, csv, timings = [], {}, {}, {}
    memo = RunMemo(cfg["seed"], names)
    for name in names:
        t0 = time.perf_counter()
        checks, extra = PIPELINES[name](cfg, memo)
        timings[name] = (time.perf_counter() - t0) * 1e3
        all_checks.extend(checks)
        for stem, art in extra.pop("_csv", {}).items():
            csv[f"{name}_{stem}"] = art
        if extra:
            details[name] = extra
    return {
        "subcommand": subcommand,
        "config": cfg,
        "checks": all_checks,
        "details": details,
        "overall": all(c["passes"] for c in all_checks if not c["informational"]),
        "_csv": csv,
        "_timings": timings,
    }


def emit_report(result: dict, cfg: dict) -> list[str]:
    """Write the JSON report, its timings sidecar ``<subcommand>.timings.json``
    (and the CSV dumps when requested) into the existing output directory,
    each under a temporary name renamed once all are written: a failure
    leaves no file of the call to contradict the exit code."""
    out = Path(cfg["output"]["dir"])
    sub = result["subcommand"]
    public = {k: v for k, v in result.items() if not k.startswith("_")}
    # allow_nan=False raises ValueError on NaN or +-inf, keeping reports strict
    # JSON; the ASCII escapes make any string writable, even an undecodable --out
    files = {f"{sub}.json": json.dumps(public, sort_keys=True, allow_nan=False) + "\n",
             f"{sub}.timings.json": json.dumps({"runtime_ms": result["_timings"]},
                                               sort_keys=True) + "\n"}
    if cfg["output"]["format"] == "csv":
        files |= {f"{stem}.csv": art for stem, art in result["_csv"].items()}
    made = []  # the temporary and renamed files of this call
    try:
        for name, art in files.items():
            with (out / f".{name}.{os.getpid()}.tmp").open("xb") as fh:
                made.append(Path(fh.name))
                if isinstance(art, Field):
                    write_field_csv(art, fh)
                else:
                    fh.write(art.encode("ascii"))
        for tmp, name in zip(list(made), files):
            made.append(tmp.replace(out / name))
    except BaseException:
        for p in made:
            p.unlink(missing_ok=True)
        raise
    return [str(out / name) for name in files]


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
                    help="accepted and ignored: every report is deterministic")
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    made = []  # the output directories this call created
    try:
        if args.weight is not None:
            w = args.weight
            try:
                args.weight = json.loads(w) if w.strip().startswith("{") else {"name": w}
            except (json.JSONDecodeError, RecursionError) as e:
                raise ConfigError(f"cannot parse --weight: {e}") from e
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
        out = Path(cfg["output"]["dir"])
        missing = [p for p in (out, *out.parents) if not p.exists()]
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise ConfigError(f"cannot create output directory: {e}") from e
        made = missing
        result = run(cfg, args.subcommand)
    except (ConfigError, DynamicRangeError, SamplingError) as e:
        # weight factors or closed forms out of the float range make the
        # configuration unusable; it leaves no output directory behind
        for p in made:
            p.rmdir()
        print(f"config error: {e}", file=sys.stderr)
        return 2
    try:
        emit_report(result, cfg)
    except OSError as e:  # a report path that is a directory, say
        print(f"config error: cannot write report: {e}", file=sys.stderr)
        return 2
    for c in result["checks"]:
        tag = "PASS" if c["passes"] else ("info" if c["informational"] else "FAIL")
        measured = "none" if c["measured"] is None else f"{c['measured']:.6g}"
        print(f"[{tag}] {c['name']}: measured={measured} bound={c['bound']:.6g}")
    print(f"overall: {'PASS' if result['overall'] else 'FAIL'}")
    return 0 if result["overall"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
