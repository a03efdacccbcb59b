import importlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbarkit import build_grid, solver
from dbarkit.cli import DEFAULT_CONFIG, build_parser, emit_report, load_config, main, run
from dbarkit.errors import ConfigError, SamplingError
from dbarkit.grid import _line_blocks
from dbarkit.moments import MATCH_TOL, MOMENT_J, diagonal_restriction, moments
from dbarkit.weights import MARGIN_TOL
from oracles import fold_depth, l1_norm, rounding_bound, sum_depth

ROOT = Path(__file__).resolve().parents[1]


def test_default_config_values():
    cfg = load_config()
    assert cfg["grid"] == {"radius": 6.0, "n": 256}
    assert cfg["weight"] == {"name": "fock", "t": 1.0}
    assert cfg["scheme"] == "spectral"
    assert cfg["tolerances"]["identity_rel"] == 1e-6
    assert cfg["sequential"] is False


def test_config_file_merges_over_defaults(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"grid": {"n": 64}, "seed": 7}))
    cfg = load_config(str(p))
    assert cfg["grid"]["n"] == 64
    assert cfg["grid"]["radius"] == 6.0
    assert cfg["seed"] == 7


def test_config_round_trips_through_json(tmp_path):
    cfg = load_config()
    p = tmp_path / "c.json"
    p.write_text(json.dumps(cfg))
    cfg2 = load_config(str(p))
    assert cfg2 == cfg


def test_integer_radius_is_read_as_float(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"grid": {"radius": 6}}))
    radius = load_config(str(p))["grid"]["radius"]
    assert radius == 6.0 and isinstance(radius, float)


def test_load_config_returns_a_fresh_copy():
    first = load_config()
    first["grid"]["n"] = 8
    first["weight"]["t"] = 5.0
    first["tolerances"].clear()
    assert load_config() == DEFAULT_CONFIG
    assert DEFAULT_CONFIG["grid"]["n"] == 256


def test_unknown_config_key_named_in_error(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"grid": {"m": 64}}))
    with pytest.raises(ConfigError, match="grid.m"):
        load_config(str(p))


@pytest.mark.parametrize(
    "body",
    [
        "",                                   # empty file
        "[1, 2]",                             # not an object
        "{not json",                          # parse error
        json.dumps({"scheme": "fd2"}),        # unknown scheme
        json.dumps({"scheme": "fd4"}),        # the tests' oracle, not a scheme of the CLI
        json.dumps({"output": {"format": "xml"}}),
        json.dumps({"grid": {"n": 4}}),
        json.dumps({"tolerances": {"identity_rel": 0.0}}),
        json.dumps({"weight": {"t": 1.0}}),   # weight without a name
        json.dumps({"weight": {"name": "bogus"}}),
        json.dumps({"weight": {"name": "fock", "t": "abc"}}),
        json.dumps({"weight": {"name": "fock", "t": None}}),
        json.dumps({"grid": {"n": "abc"}}),
        json.dumps({"grid": {"n": 64.5}}),
        json.dumps({"grid": {"radius": -1.0}}),
        json.dumps({"grid": {"radius": "6"}}),
        json.dumps({"seed": "x"}),
        json.dumps({"tolerances": {"identity_rel": "x"}}),
        json.dumps({"sequential": "no"}),
        json.dumps({"sequential": 1}),
        json.dumps({"output": {"dir": 5}}),
        json.dumps({"output": {"dir": None}}),
        json.dumps({"seed": True}),
        json.dumps({"seed": -1}),
        '{"grid": {"radius": 1%s}}' % ("0" * 400),
    ],
)
def test_invalid_configs_rejected(tmp_path, body):
    p = tmp_path / "c.json"
    p.write_text(body)
    with pytest.raises(ConfigError):
        load_config(str(p))


# an integer weight parameter past the float range
HUGE_INT = "1" + "0" * 400

# what the config error line must name, for rows whose cause the flags do
# not spell out
CONFIG_ERROR_NAMES = {
    'verify-identity --weight {"name": "fock", "t": 1e308}': "weight 'fock', dbar(phi)",
    "verify-identity --grid-radius 800 --weight cosh-x": "weight 'cosh-x', dbar(phi)",
    "curvature --grid-radius 800 --weight cosh-x": "weight 'cosh-x', laplacian_hat(phi)",
    'verify-identity --weight {"name": "fock", "t": 1e300}':
        "weight 'fock': the norm identity's sides leave the float range (lhs=nan",
    'curvature --weight {"name": "fock", "t": "2"}': "weight parameter t must be a finite number",
    'curvature --weight {"name": "fock", "t": true}': "weight parameter t must be a finite number",
    'curvature --weight {"name": "fock", "t": %s}' % HUGE_INT:
        "weight parameter t must be a finite number",
    'curvature --weight {"name": "zero", "t": NaN}': "weight 'zero' takes no parameter 't'",
    'curvature --weight {"name": "fock", "t": 1, "bogus": 3}':
        "weight 'fock' takes no parameter 'bogus'",
}


@pytest.mark.parametrize(
    "flags",
    [
        ["curvature", "--weight", "bogus"],
        ["curvature", "--weight", '{"name":'],
        ["curvature", "--weight", '{"name": "fock", "t": "abc"}'],
        ["curvature", "--weight", '{"name": "fock", "t": null}'],
        ["curvature", "--weight", '{"name": "fock", "t": 1e400}'],
        ["curvature", "--weight", '{"name": "fock-harmonic", "b": NaN}'],
        ["curvature", "--grid-radius", "-1"],
        ["curvature", "--grid-radius", "inf"],
        ["curvature", "--grid-radius", "nan"],
        # well-formed, but the weight factors leave the float range
        ["check-h1", "--grid-radius", "20"],
        ["solve", "--weight", '{"name": "fock", "t": 200}'],
        # the weight's closed forms overflow where the grid samples them
        ["verify-identity", "--weight", '{"name": "fock", "t": 1e308}'],
        ["verify-identity", "--grid-radius", "800", "--weight", "cosh-x"],
        # a parameter key the catalog entry does not declare
        ["curvature", "--weight", '{"name": "zero", "t": NaN}'],
        ["curvature", "--weight", '{"name": "fock", "t": 1, "bogus": 3}'],
        # a Laplacian that is inf at the corners, caught where it is sampled
        ["curvature", "--grid-radius", "800", "--weight", "cosh-x"],
        # the identity's sides overflow, and a NaN error would read as a pass
        ["verify-identity", "--weight", '{"name": "fock", "t": 1e300}'],
        # weight parameters that are no finite real number
        ["curvature", "--weight", '{"name": "fock", "t": "2"}'],
        ["curvature", "--weight", '{"name": "fock", "t": true}'],
        ["curvature", "--weight", '{"name": "fock", "t": %s}' % HUGE_INT],
        # JSON nested past the interpreter's recursion limit
        ["curvature", "--weight", '{"a":' * 20000],
    ],
)
def test_cli_config_errors_exit_2(tmp_path, capsys, flags):
    """Each row is a subcommand and its flags."""
    rc = main([*flags, "--grid-n", "64", "--out", str(tmp_path / "r")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    assert CONFIG_ERROR_NAMES.get(" ".join(flags), "") in err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "flags",
    [
        ["verify-identity", "--weight", '{"name":"fock","t":1e300}'],
        ["curvature", "--grid-radius", "800", "--weight", "cosh-x"],
    ],
)
def test_overflowing_config_prints_only_the_error_line(tmp_path, flags):
    """numpy's overflow warnings would come before the line and point into the library."""
    env = dict(os.environ)
    env.pop("PYTHONWARNINGS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "dbarkit.cli", *flags, "--grid-n", "64",
         "--out", str(tmp_path / "r")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("config error: "), proc.stderr


def _strict_json(path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=reject)


def _keys(node):
    """Every dict key anywhere in the JSON value ``node``."""
    if isinstance(node, dict):
        return set(node) | {k for v in node.values() for k in _keys(v)}
    if isinstance(node, list):
        return {k for v in node for k in _keys(v)}
    return set()


def test_reports_are_strict_json(tmp_path):
    assert main(["all", "--sequential", "--out", str(tmp_path / "all")]) == 0
    rep = _strict_json(tmp_path / "all" / "all.json")
    assert rep["overall"] is True
    assert "runtime_ms" not in _keys(rep)
    timings = _strict_json(tmp_path / "all" / "all.timings.json")
    assert list(timings) == ["runtime_ms"] and len(timings["runtime_ms"]) == 9
    assert all(math.isfinite(ms) and ms >= 0 for ms in timings["runtime_ms"].values())
    rc = main(["curvature", "--grid-n", "64", "--weight", "quartic",
               "--out", str(tmp_path / "q")])
    assert rc == 1
    rep = _strict_json(tmp_path / "q" / "curvature.json")
    (check,) = rep["checks"]
    assert check["measured"] is None and not check["passes"]
    assert rep["details"]["curvature"]["error"] == "weight-invariant-violation"


@pytest.mark.parametrize("n, rc, rel_err", [(17, 1, 0.596), (257, 0, 1.86e-8)])
def test_quartic_identity_at_odd_n(tmp_path, n, rc, rel_err):
    # an odd n puts a node at the origin, where lap_hat(|z|^4) = 0; the right
    # side is a plain integral, so the check runs as at even n
    assert main(["verify-identity", "--weight", "quartic", "--grid-n", str(n),
                 "--out", str(tmp_path)]) == rc
    rep = _strict_json(tmp_path / "verify-identity.json")
    (check,) = rep["checks"]
    assert check["passes"] is (rc == 0) and rep["overall"] is (rc == 0)
    assert check["measured"] == pytest.approx(rel_err, rel=1e-2)


def test_uniqueness_probe_without_inner_node_fails_cleanly(tmp_path):
    # at R = 6 and n = 8 no node lies in |z| < 1, so no growth ratio exists
    assert main(["uniqueness-probe", "--grid-n", "8", "--out", str(tmp_path)]) == 1
    rep = _strict_json(tmp_path / "uniqueness-probe.json")
    assert rep["overall"] is False
    for check in rep["checks"]:
        assert check["measured"] is None and not check["passes"]
    for table in rep["details"]["uniqueness-probe"]["tables"].values():
        assert table["growth_ratio"] is None


@pytest.mark.parametrize("argv, rc, undefined", [
    # the cell area (2R/n)^2 overflows to inf, or underflows to 0
    (["check-h1", "--grid-n", "8", "--grid-radius", "1e300"], 2, None),
    (["solve", "--grid-n", "8", "--grid-radius", "1e300", "--weight", "zero"], 2, None),
    (["sharpness", "--grid-n", "8", "--grid-radius", "1e-300"], 2, None),
    # no node of the n = 1024 grid lies inside the bump: its L1 norm is 0
    (["moments", "--grid-n", "16", "--grid-radius", "1e6"], 1, "moments-compliant"),
    # a normal cell area, but h2_rhs underflows to 0
    (["sharpness", "--grid-n", "8", "--grid-radius", "1e-150"], 1, "sharpness-ratio-one"),
])
# at R = 1e-150 the sharpness datum fills the square, so its moments warn of boundary mass
@pytest.mark.filterwarnings("ignore::dbarkit.errors.BoundaryMassWarning")
def test_extreme_radii_end_without_a_traceback(tmp_path, capsys, argv, rc, undefined):
    """A cell area outside the normal floats is a config error naming
    grid.radius; a check whose denominator is 0 has no number and fails."""
    assert main([*argv, "--out", str(tmp_path)]) == rc
    if rc == 2:
        assert capsys.readouterr().err.startswith("config error: grid.radius")
        return
    rep = _strict_json(tmp_path / f"{argv[0]}.json")
    assert rep["overall"] is False
    (check,) = [c for c in rep["checks"] if c["name"] == undefined]
    assert check["measured"] is None and not check["passes"]
    assert list(rep["details"][argv[0]]["undefined"]) == [undefined]


def test_grid_n_past_the_floats_is_a_config_error(tmp_path, capsys):
    # 10^400 does not convert to a float: the cell size 2R/n would overflow
    assert main(["curvature", "--grid-n", "1" + "0" * 400, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.startswith("config error: grid.n")
    assert not (tmp_path / "o").exists()


def test_report_bounds_are_the_library_constants():
    cfg = load_config(overrides={"grid": {"n": 64}})
    bargmann = run(cfg, "bargmann-probe")["checks"]
    readings = [c for c in bargmann if c["name"].startswith("bargmann-unique-reading")]
    assert len(readings) == 3
    assert all(c["bound"] == c["tolerance"] == MATCH_TOL for c in readings)
    (margin,) = run(cfg, "curvature")["checks"]
    assert (margin["bound"], margin["tolerance"]) == (-MARGIN_TOL, MARGIN_TOL)
    tables = run(cfg, "uniqueness-probe")["details"]["uniqueness-probe"]["tables"]
    assert list(tables) == [f"p={p}" for p in solver.UNIQUENESS_DEGREES]
    assert all(t["radii"] == list(solver.UNIQUENESS_RADII) for t in tables.values())
    assert run(cfg, "moments")["details"]["moments"]["moments"]["J"] == MOMENT_J


def test_report_text_is_the_stdlib_encoding(tmp_path):
    assert main(["solve", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "solve.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, allow_nan=False) + "\n"


def test_emit_report_rejects_non_finite_floats(tmp_path):
    cfg = load_config(overrides={"output": {"dir": str(tmp_path)}})
    result = {"subcommand": "inf", "checks": [{"measured": float("inf")}], "_csv": {}}
    with pytest.raises(ValueError):
        emit_report(result, cfg)
    assert not (tmp_path / "inf.json").exists()


def test_undecodable_output_dir_is_escaped(tmp_path):
    out = tmp_path / "o_\udcff"
    assert main(["curvature", "--grid-n", "8", "--out", str(out)]) == 0
    rep = _strict_json(out / "curvature.json")
    assert rep["config"]["output"]["dir"] == str(out)


def _random_argv():
    """A subcommand and flags drawn over the configuration space, n kept small."""
    weight_param = st.floats(min_value=-1e308, max_value=1e308, allow_nan=False)
    weight = st.fixed_dictionaries(
        {"name": st.sampled_from(["fock", "fock-harmonic", "cosh-x", "quartic", "zero"])},
        optional={"t": weight_param, "b": weight_param},
    )
    return st.tuples(
        # moments and diagonal raise n to 1024 whatever the flag says
        st.sampled_from(["verify-identity", "solve", "check-h1", "sharpness",
                         "curvature", "uniqueness-probe"]),
        st.sampled_from([8, 9, 16, 17, 32]),
        st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e),
        weight,
    )


# random grids and weights truncate often: the warnings are expected here
@pytest.mark.filterwarnings("ignore::dbarkit.errors.BoundaryMassWarning",
                            "ignore::dbarkit.errors.TruncationMassWarning")
@settings(max_examples=40, deadline=None)
@given(_random_argv())
def test_random_configurations_exit_cleanly(drawn):
    """Exit 0 or 1 with a strict-JSON report whose verdict matches, or 2 with
    a config error line; never an exception."""
    sub, n, radius, weight = drawn
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "r"
        argv = [sub, "--grid-n", str(n), "--grid-radius", repr(radius),
                "--weight", json.dumps(weight), "--out", str(out)]
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            rc = main(argv)
        if rc == 2:
            # numpy's overflow warnings may precede the line
            assert err.getvalue().splitlines()[-1].startswith("config error: ")
        else:
            assert rc in (0, 1)
            rep = _strict_json(out / f"{sub}.json")
            assert rep["overall"] is (rc == 0)


def test_scheme_other_than_spectral_exits_2(tmp_path, capsys):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"scheme": "fd4"}))
    assert main(["verify-identity", "--config", str(p), "--out", str(tmp_path / "r")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Traceback" not in err
    with pytest.raises(SystemExit, match="2"):  # the flag is gone
        main(["verify-identity", "--scheme", "fd4"])


def test_config_keys_match_the_benchmark_reference():
    """A config key added or dropped must go with a newly recorded benchmark reference."""
    ref = json.loads((ROOT / "perfbench/reference/all-default.json").read_text())
    recorded = {p for p in ref["paths"] if p.startswith("all.json:config.")}

    def leaves(d, prefix):
        return {q for k, v in d.items() for q in (
            leaves(v, f"{prefix}.{k}") if isinstance(v, dict) else [f"{prefix}.{k}"])}

    # the benchmark does not compare output.dir, the directory each pass writes to
    assert leaves(load_config(), "all.json:config") - {"all.json:config.output.dir"} == recorded


def test_missing_config_file_rejected():
    with pytest.raises(ConfigError):
        load_config("/nonexistent/config.json")


@pytest.mark.parametrize("body", [b"\xff\xfe{}", b'{"a":' * 20000], ids=["not-utf-8", "nested"])
def test_undecodable_config_file_exits_2(tmp_path, capsys, body):
    path = tmp_path / "c.json"
    path.write_bytes(body)
    assert main(["curvature", "--config", str(path), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err.startswith(f"config error: cannot parse config {path}: ")
    assert not (tmp_path / "r").exists()


def test_parser_accepts_known_subcommands():
    ap = build_parser()
    args = ap.parse_args(["curvature", "--grid-n", "64", "--sequential"])
    assert args.subcommand == "curvature"
    assert args.grid_n == 64
    assert args.sequential


def test_run_curvature_structure():
    cfg = load_config(overrides={"grid": {"n": 64}})
    result = run(cfg, "curvature")
    assert result["overall"]
    assert result["subcommand"] == "curvature"
    names = [c["name"] for c in result["checks"]]
    assert names == ["curvature-margin"]
    for c in result["checks"]:
        assert set(c) == {"name", "passes", "measured", "bound", "tolerance", "informational"}


def test_run_curvature_fails_for_degenerate_weight():
    cfg = load_config(overrides={"grid": {"n": 64}, "weight": {"name": "quartic"}})
    result = run(cfg, "curvature")
    assert not result["overall"]
    assert result["details"]["curvature"]["error"] == "weight-invariant-violation"


@pytest.fixture(scope="module")
def all_run():
    """One in-process ``run(cfg, "all")`` at the defaults: its result, the
    (datum, n) of every sampling of a ``RunMemo.DATA`` datum, whole or in
    blocks, and the (n, J, l1, diagonal) of every ``moments._fold``."""
    cli, mom, sol = (importlib.import_module(f"dbarkit.{m}") for m in ("cli", "moments", "solver"))
    samplings, folds = [], []
    fold = mom._fold

    def counted_fold(g, blocks, J=None, l1=False, freqs=None):
        folds.append((g.n, J, l1, freqs is not None))
        return fold(g, blocks, J, l1, freqs)

    def counted(name, make):
        def datum(seed, grid):
            samplings.append((name, grid.n))
            return make(seed, grid)
        return datum

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli.RunMemo, "DATA", {k: counted(k, v) for k, v in cli.RunMemo.DATA.items()})
        for module in (mom, cli, sol):
            mp.setattr(module, "_fold", counted_fold)
        result = run(load_config(), "all")
    assert result["overall"]
    return result, samplings, folds


@pytest.fixture(scope="module")
def counted_all_run(all_run):
    """The samplings and folds of ``all_run``."""
    return all_run[1:]


def test_all_samples_the_compliant_datum_once_per_grid(counted_all_run):
    samplings, _ = counted_all_run
    # whole at n = 256 for solve and check-h1, in blocks at the moment grid
    assert sorted(samplings) == [("compliant", 256), ("compliant", 1024), ("gaussian", 1024)]


def test_all_takes_each_moment_vector_once(counted_all_run):
    _, folds = counted_all_run
    # solve's and sharpness's data at n = 256, the compliant datum and the
    # Gaussian at 1024 (without the memo the last two are taken twice each),
    # each reduced in one pass: moments and L1 norm, and at 1024 the diagonal
    assert sorted(folds) == [(256, MOMENT_J, True, False)] * 2 + [(1024, MOMENT_J, True, True)] * 2


def _parts(result, name):
    """The checks, details and CSV dumps of pipeline ``name`` in ``result``,
    as JSON text, so floats compare bit for bit."""
    return json.dumps([[c for c in result["checks"] if c["name"].startswith(f"{name}-")],
                       result["details"].get(name),
                       {k: v for k, v in result["_csv"].items() if k.startswith(f"{name}_")}],
                      sort_keys=True)


def test_diagonal_alone_reads_what_all_reads(all_run):
    # in ``all`` the diagonal restrictions are taken in ``moments``' reduction
    every, _, _ = all_run
    alone = run(load_config(), "diagonal")
    assert _parts(alone, "diagonal") == _parts(every, "diagonal")


def test_moments_alone_takes_no_diagonal(monkeypatch, all_run):
    cli = importlib.import_module("dbarkit.cli")
    fold, asked = cli._fold, []

    def counted_fold(g, blocks, J=None, l1=False, freqs=None):
        asked.append(freqs)
        return fold(g, blocks, J, l1, freqs)

    monkeypatch.setattr(cli, "_fold", counted_fold)
    alone = run(load_config(), "moments")
    assert asked == [None, None]
    assert _parts(alone, "moments") == _parts(all_run[0], "moments")


def test_memo_keeps_a_reduction_but_not_the_datum_it_sampled():
    cli = importlib.import_module("dbarkit.cli")
    grid = build_grid(6.0, 64)
    memo = cli.RunMemo(42, ["solve", "diagonal"])
    gaussian = memo.reduced("gaussian", grid)
    assert ("gaussian", grid) not in memo and memo.reduced("gaussian", grid) is gaussian
    f = memo["compliant", grid]
    memo.DATA = {}  # a second sampling would raise KeyError
    compliant = memo.reduced("compliant", grid)
    assert memo["compliant", grid] is f
    assert compliant.l1 > 0 and compliant.diagonal is not None
    assert cli.RunMemo(42, ["moments"]).reduced("compliant", grid).diagonal is None


def _recorded(fn):
    """``fn()`` and the messages of the warnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn()
    return out, [str(w.message) for w in caught]


@pytest.mark.parametrize("name", ["compliant", "gaussian"])
@pytest.mark.parametrize("n, radius", [(1024, 6.0), (255, 3.7)])
def test_memo_fold_is_the_fields_reduction(name, n, radius):
    # the memo folds blocks sampled from the closed form; the library's
    # functions fold the sampled field's blocks
    cli = importlib.import_module("dbarkit.cli")
    grid = build_grid(radius, n)
    streamed, caught = _recorded(lambda: cli.RunMemo(42, ["diagonal"]).reduced(name, grid))
    f = cli.RunMemo(42)[name, grid]

    def reductions():
        mv = moments(f, MOMENT_J)
        return mv, l1_norm(f), diagonal_restriction(f, mv)

    (mv, l1, ds), ref_caught = _recorded(reductions)
    assert caught == ref_caught
    h2, depth = grid.spacing**2, fold_depth(n)
    nz = f.values != 0
    mod, a = np.abs(grid.nodes[nz]), np.abs(f.values[nz])
    magnitude = h2 * np.array([np.sum(mod**j * a) for j in range(MOMENT_J + 1)])
    assert np.all(np.abs(streamed.moments.m - mv.m) <= rounding_bound(magnitude, depth, depth))
    assert abs(streamed.l1 - l1) <= rounding_bound(l1, depth, depth, components=1)
    # each term ex f ey of the diagonal takes at most n additions in the product
    # over columns, a sum over a block's rows and one addition per block, after
    # two complex products (within sqrt(2) gamma_2 each: six units cover both)
    xi, x = ds.xi_samples, grid.axis
    ex, ey = (np.exp(np.outer(np.imag(k), x)) for k in (xi, 1j * xi))  # |e^{-i k x}|
    magnitude = h2 * np.sum((ex @ np.abs(f.values)) * ey, axis=1)
    d = n + len(_line_blocks(0, n, n)) + sum_depth(n) + 6
    assert np.all(np.abs(streamed.diagonal.values - ds.values) <= rounding_bound(magnitude, d, d))
    assert np.array_equal(streamed.diagonal.xi_samples, ds.xi_samples)


def test_memo_fold_raises_the_fields_sampling_error():
    cli = importlib.import_module("dbarkit.cli")
    grid = build_grid(6.0, 300)
    x = grid.axis
    # non-finite on grid row 200, past the first row block, where y > 1
    bad = lambda z: np.where((z.real == x[200]) & (z.imag > 1.0), np.inf, 1.0)  # noqa: E731
    raised = []
    for take in (lambda memo: memo["bad", grid], lambda memo: memo.reduced("bad", grid)):
        memo = cli.RunMemo(42)
        memo.DATA = {"bad": lambda seed, grid: (bad, None)}
        with pytest.raises(SamplingError) as e:
            take(memo)
        raised.append((str(e.value), e.value.node_index))
    first = 200 * 300 + int(np.flatnonzero(x > 1.0)[0])
    assert raised == [(f"non-finite field value at flat node {first}", first)] * 2


@pytest.mark.parametrize("which", ["first", "middle", "last"])
def test_every_sampled_block_counts(monkeypatch, which):
    # a compliant datum that lost one of its nonzero row blocks is no longer
    # orthogonal to entire functions: both its checks must fail
    cli = importlib.import_module("dbarkit.cli")
    sampled_blocks = cli._sampled_blocks

    def lose_one(grid, fn, inside=None, out=None):
        blocks = list(sampled_blocks(grid, fn, inside, out))
        if inside is not None:  # the compliant datum; the Gaussian has no mask
            del blocks[{"first": 0, "middle": len(blocks) // 2, "last": -1}[which]]
        return iter(blocks)

    monkeypatch.setattr(cli, "_sampled_blocks", lose_one)
    for name, check in (("moments", "moments-compliant"),
                        ("diagonal", "diagonal-compliant-vanishes")):
        result = run(load_config(), name)
        assert not result["overall"]
        assert [c["name"] for c in result["checks"] if not c["passes"]] == [check]


def test_all_holds_no_moment_grid_datum():
    # the moment grid's data are folded from row blocks, never made whole (one
    # n = 1024 datum alone is 16 MiB); the run peaks at 10.0 MiB, 2 MiB below
    tracemalloc.start()
    try:
        assert run(load_config(), "all")["overall"]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_config_file_sequential_stands_without_flag(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"sequential": True}))
    argv = ["curvature", "--grid-n", "64", "--config", str(p), "--out", str(tmp_path / "r")]
    assert main(argv) == 0
    rep = json.loads((tmp_path / "r" / "curvature.json").read_text())
    assert rep["config"]["sequential"] is True
    timings = json.loads((tmp_path / "r" / "curvature.timings.json").read_text())
    assert list(timings["runtime_ms"]) == ["curvature"]


def test_sequential_reports_are_byte_identical(tmp_path):
    # with the flag or without it: the flag changes only its echo in the config
    argv = ["uniqueness-probe", "--grid-n", "64", "--out", str(tmp_path / "r")]
    path = tmp_path / "r" / "uniqueness-probe.json"
    reports = []
    for flags in (["--sequential"], ["--sequential"], [], []):
        assert main(argv + flags) == 0
        reports.append(path.read_bytes())
    assert reports[0] == reports[1] and reports[2] == reports[3]
    assert reports[0] == reports[2].replace(b'"sequential": false', b'"sequential": true')


@pytest.mark.parametrize("make_out", [lambda tmp: tmp / "f" / "sub", lambda tmp: tmp / "f"],
                         ids=["under-a-file", "a-file"])
def test_bad_output_dir_exits_2_before_any_pipeline(tmp_path, capsys, monkeypatch, make_out):
    cli = importlib.import_module("dbarkit.cli")
    monkeypatch.setitem(cli.PIPELINES, "curvature", lambda cfg, memo: pytest.fail("ran"))
    (tmp_path / "f").write_text("")
    assert main(["curvature", "--grid-n", "8", "--out", str(make_out(tmp_path))]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    assert lines[0].startswith("config error: cannot create output directory: ")


@pytest.mark.parametrize("argv, target", [(["curvature"], "curvature.json"),
                                          (["solve", "--format", "csv"], "solve_u.csv")],
                         ids=["json", "csv"])
def test_unwritable_report_exits_2(tmp_path, capsys, argv, target):
    (tmp_path / target).mkdir()
    assert main(argv + ["--grid-n", "16", "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and "Traceback" not in err
    assert lines[0].startswith("config error: cannot write report: ")


def test_unwritable_csv_leaves_no_report(tmp_path):
    # the JSON report and its sidecar would say the run passed while it exits 2
    (tmp_path / "solve_u.csv").mkdir()
    assert main(["solve", "--format", "csv", "--grid-n", "16", "--out", str(tmp_path)]) == 2
    assert [p.name for p in tmp_path.rglob("*")] == ["solve_u.csv"]


def test_cli_exit_codes(tmp_path, capsys):
    ok = main(["curvature", "--grid-n", "64", "--out", str(tmp_path / "a")])
    assert ok == 0
    out = capsys.readouterr().out
    assert "[PASS] curvature-margin" in out
    assert "overall: PASS" in out
    bad = main([
        "curvature", "--grid-n", "64", "--weight", "quartic",
        "--out", str(tmp_path / "b"),
    ])
    assert bad == 1
    cfg_err = main(["curvature", "--config", "/nonexistent.json"])
    assert cfg_err == 2


def test_cli_weight_json_spec(tmp_path):
    rc = main([
        "curvature", "--grid-n", "64",
        "--weight", '{"name": "fock", "t": 2.0}',
        "--out", str(tmp_path / "w"),
    ])
    assert rc == 0
    rep = json.loads((tmp_path / "w" / "curvature.json").read_text())
    assert rep["config"]["weight"] == {"name": "fock", "t": 2.0}


def test_csv_emission(tmp_path):
    rc = main([
        "solve", "--format", "csv",
        "--out", str(tmp_path / "r"),
    ])
    assert rc == 0
    upath = tmp_path / "r" / "solve_u.csv"
    assert upath.exists()
    assert upath.read_text().startswith("re,im,val_re,val_im\n")
    assert (tmp_path / "r" / "solve.json").exists()


def test_report_json_is_parseable_and_complete(tmp_path):
    rc = main(["sharpness", "--grid-n", "256", "--out", str(tmp_path / "r")])
    assert rc == 0
    rep = json.loads((tmp_path / "r" / "sharpness.json").read_text())
    assert rep["overall"] is True
    assert {c["name"] for c in rep["checks"]} == {
        "sharpness-lhs-pi", "sharpness-rhs-pi", "sharpness-ratio-one",
    }
    assert "solution_report" in rep["details"]["sharpness"]


def test_cli_import_loads_no_process_pool():
    """Importing the CLI loads no process pool, nor ``fractions``, ``decimal``
    or ``numpy.strings``, and builds none of the CSV formatter's tables (they
    are made on the first dump): each would add set-up time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = ("import sys, dbarkit.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures', 'fractions', 'decimal',"
            " 'numpy.strings') if m in sys.modules], "
            "dbarkit.grid._float_tables.cache_info().currsize)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "[] 0"


def test_a_run_loads_only_numpy_core_and_fft(tmp_path):
    """``all`` and a CSV ``solve`` in one fresh interpreter leave no
    ``numpy.random`` (and OpenSSL behind its ``secrets``) and no
    ``numpy.polynomial`` loaded: the suite's stream and the moment series are
    dbarkit's own."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = ("import sys; from dbarkit.cli import main; "
            f"codes = [main([*a, '--grid-n', '16', '--out', {str(tmp_path)!r}]) "
            "for a in (['all'], ['solve', '--format', 'csv'])]; "
            "assert set(codes) <= {0, 1}, codes; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('secrets', 'hashlib', '_hashlib') or m.startswith(('numpy.random', "
            "'numpy.polynomial'))))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "solve_u.csv").is_file()
