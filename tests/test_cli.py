import io
import json
import os
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbarkit.cli import DEFAULT_CONFIG, build_parser, emit_report, load_config, main, run
from dbarkit.errors import ConfigError

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


# what the config error line must name, for rows whose cause the flags do
# not spell out
CONFIG_ERROR_NAMES = {
    'verify-identity --weight {"name": "fock", "t": 1e308}': "weight 'fock', dbar(phi)",
    "verify-identity --grid-radius 800 --weight cosh-x": "weight 'cosh-x', dbar(phi)",
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


def _strict_json(path):
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    return json.loads(path.read_text(), parse_constant=reject)


def test_reports_are_strict_json(tmp_path):
    assert main(["all", "--sequential", "--out", str(tmp_path / "all")]) == 0
    rep = _strict_json(tmp_path / "all" / "all.json")
    assert rep["overall"] is True
    rc = main(["curvature", "--grid-n", "64", "--weight", "quartic",
               "--out", str(tmp_path / "q")])
    assert rc == 1
    rep = _strict_json(tmp_path / "q" / "curvature.json")
    (check,) = rep["checks"]
    assert check["measured"] is None and not check["passes"]
    assert rep["details"]["curvature"]["error"] == "weight-invariant-violation"


def test_uniqueness_probe_without_inner_node_fails_cleanly(tmp_path):
    # at R = 6 and n = 8 no node lies in |z| < 1, so no growth ratio exists
    assert main(["uniqueness-probe", "--grid-n", "8", "--out", str(tmp_path)]) == 1
    rep = _strict_json(tmp_path / "uniqueness-probe.json")
    assert rep["overall"] is False
    for check in rep["checks"]:
        assert check["measured"] is None and not check["passes"]
    for table in rep["details"]["uniqueness-probe"]["tables"].values():
        assert table["growth_ratio"] is None


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
        st.sampled_from([8, 16, 32]),
        st.floats(min_value=-3.0, max_value=3.0).map(lambda e: 10.0 ** e),
        weight,
    )


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
        for key in ("passes", "measured", "bound", "tolerance", "runtime_ms"):
            assert key in c


def test_run_curvature_fails_for_degenerate_weight():
    cfg = load_config(overrides={"grid": {"n": 64}, "weight": {"name": "quartic"}})
    result = run(cfg, "curvature")
    assert not result["overall"]
    assert result["details"]["curvature"]["error"] == "weight-invariant-violation"


def test_config_file_sequential_stands_without_flag(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"sequential": True}))
    argv = ["curvature", "--grid-n", "64", "--config", str(p), "--out", str(tmp_path / "r")]
    assert main(argv) == 0
    rep = json.loads((tmp_path / "r" / "curvature.json").read_text())
    assert rep["config"]["sequential"] is True
    assert [c["runtime_ms"] for c in rep["checks"]] == [0.0]


def test_sequential_reports_are_byte_identical(tmp_path):
    argv = [
        "uniqueness-probe", "--grid-n", "64", "--sequential",
        "--out", str(tmp_path / "r"),
    ]
    assert main(argv) == 0
    first = (tmp_path / "r" / "uniqueness-probe.json").read_bytes()
    assert main(argv) == 0
    second = (tmp_path / "r" / "uniqueness-probe.json").read_bytes()
    assert first == second


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
    """The CSV writer forks with bare ``os.fork``; a pool module would add set-up time."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    code = ("import sys, dbarkit.cli; "
            "print([m for m in ('multiprocessing', 'concurrent.futures') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
