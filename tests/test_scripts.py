"""The command-line scripts start, parse their options and run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize(
    "argv",
    [
        ["convergence_study.py", "--sizes", "32", "64", "--suite", "1"],
        ["bargmann_sweep.py", "--help"],
        ["run_all_checks.py", "--help"],
    ],
)
def test_script_exits_zero(argv):
    proc = _run_script(argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_bargmann_sweep_near_the_convergence_edge():
    proc = _run_script(["bargmann_sweep.py", "--a-min", "1.02", "--a-max", "4",
                        "--steps", "12"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    rows = proc.stdout.splitlines()[1:]
    assert len(rows) == 12
    assert "nan" not in proc.stdout
    assert all(row.split()[-1] == "quadratic" for row in rows)


def _run_script(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
        capture_output=True, text=True, env=env, timeout=300,
    )
