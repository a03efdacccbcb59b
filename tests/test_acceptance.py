"""Acceptance gate: the eleven headline checks, one pass/fail line each.

Each test computes the measured quantity, prints a single summary line, and
asserts the stated tolerance.  Grid defaults: R = 6, n = 256; the moment and
diagonal checks run at n = 1024 because monomial and oscillatory factors
amplify the aliasing tail of the sampled data.
"""

import time

import numpy as np
import pytest

from dbarkit import (
    build_grid,
    curvature_margin,
    custom_weight,
    fock_weight,
    sample,
    verify_norm_identity,
)
from dbarkit.bumps import random_suite
from dbarkit.diffops import dbar, interior_max
from dbarkit.errors import WeightInvariantViolationError
from dbarkit.moments import bargmann_probe, diagonal_restriction, moments
from dbarkit.solver import (
    cauchy_transform,
    check_hormander_bound,
    solve_dbar,
    uniqueness_probe,
)

R = 6.0
N = 256
N_FINE = 1024
SUITE_SEED = 42


def report(name, passes, detail):
    print(f"[{'PASS' if passes else 'FAIL'}] {name}: {detail}")


@pytest.fixture(scope="module")
def grid():
    return build_grid(R, N)


@pytest.fixture(scope="module")
def suite():
    return random_suite(20, seed=SUITE_SEED)


def l1_norm(f):
    h = f.grid.spacing
    return float(h * h * np.sum(np.abs(f.values)))


def test_01_norm_identity_four_weights(grid, suite):
    t0 = time.perf_counter()
    weights = [
        fock_weight(1.0),
        fock_weight(2.0),
        custom_weight({"name": "fock-harmonic", "t": 1.0, "b": 0.125}),
        custom_weight({"name": "cosh-x"}),
    ]
    worst = 0.0
    for w in weights:
        for m in suite:
            rep = verify_norm_identity(m.sample(grid), w)
            worst = max(worst, rep.rel_err)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 60.0
    report("norm-identity", ok,
           f"max rel_err {worst:.3e} (< 1e-6), runtime {elapsed:.1f}s (< 60s)")
    assert ok


def test_02_trivial_weight_isometry(grid, suite):
    w = custom_weight({"name": "zero"})
    worst = max(verify_norm_identity(m.sample(grid), w).rel_err for m in suite)
    ok = worst < 1e-8
    report("isometry", ok, f"max rel_err {worst:.3e} (< 1e-8)")
    assert ok


def test_03_sharpness_constant_attained(grid):
    f = sample(lambda z: -z * np.exp(-np.abs(z) ** 2), grid)
    rep = solve_dbar(f, fock_weight(1.0))
    d_lhs = abs(rep.h2_lhs - np.pi)
    d_rhs = abs(rep.h2_rhs - np.pi)
    d_ratio = abs(rep.h2_lhs / rep.h2_rhs - 1.0)
    ok = d_lhs < 1e-6 and d_rhs < 1e-6 and d_ratio < 1e-6
    report("sharpness", ok,
           f"|lhs-pi| {d_lhs:.2e}, |rhs-pi| {d_rhs:.2e}, |ratio-1| {d_ratio:.2e} (< 1e-6)")
    assert ok


def test_04_growing_weight_bound(grid, suite):
    worst = 0.0
    w = fock_weight(1.0)
    for m in suite:
        rep = solve_dbar(m.sample_dbar(grid), w)
        assert not rep.non_orthogonal_datum
        worst = max(worst, rep.h2_lhs / rep.h2_rhs)
    ok = worst <= 1.01
    report("weighted-bound", ok, f"max lhs/rhs ratio {worst:.6f} (<= 1.01)")
    assert ok


def test_05_cauchy_solver_convergence(suite):
    m = suite[0]
    errs, ress = [], []
    for n in [128, 256]:
        g = build_grid(R, n)
        f = m.sample_dbar(g)
        u = cauchy_transform(f)
        errs.append(interior_max(u - m.sample(g), extra_band=2))
        ress.append(interior_max(dbar(u) - f, extra_band=2))
    p_err = np.log2(errs[0] / errs[1])
    p_res = np.log2(ress[0] / ress[1])
    ok = p_err >= 1.0 and p_res >= 1.0
    report("cauchy-convergence", ok,
           f"error order {p_err:.2f}, residual order {p_res:.2f} (>= 1)")
    assert ok


def test_06_moment_condition(suite):
    g = build_grid(R, N_FINE)
    worst = 0.0
    for m in suite:
        f = m.sample_dbar(g)
        mv = moments(f, 10)
        worst = max(worst, float(np.max(np.abs(mv.m))) / l1_norm(f))
    gauss = sample(lambda z: np.exp(-np.abs(z) ** 2), g)
    m0_dev = abs(moments(gauss, 0).m[0] - np.pi)
    ok = worst < 1e-8 and m0_dev < 1e-8
    report("moments", ok,
           f"max |m_j|/||f||_L1 {worst:.3e} (< 1e-8), gaussian |m0-pi| {m0_dev:.2e}")
    assert ok


def test_07_diagonal_dichotomy(suite):
    g = build_grid(R, N_FINE)
    f = suite[0].sample_dbar(g)
    ds = diagonal_restriction(f)
    compliant_max = float(np.max(np.abs(ds.values)))
    gauss = sample(lambda z: np.exp(-np.abs(z) ** 2), g)
    dg = diagonal_restriction(gauss)
    gauss_dev = float(np.max(np.abs(dg.values - np.pi)))
    ok = compliant_max < 1e-7 and gauss_dev < 1e-4
    report("diagonal-dichotomy", ok,
           f"compliant max {compliant_max:.3e} (< 1e-7), "
           f"gaussian max|fhat - pi| {gauss_dev:.3e} (< 1e-4)")
    assert ok


def test_08_projection_bound(grid, suite):
    w = fock_weight(1.0)
    worst_ratio = 0.0
    worst_idem = 0.0
    for m in suite[:5]:
        rep = check_hormander_bound(m.sample_dbar(grid), w)
        worst_ratio = max(worst_ratio, rep.h1_lhs / rep.h1_rhs)
        worst_idem = max(worst_idem, rep.projection_idempotence_err)
    ok = worst_ratio <= 1.01 and worst_idem < 1e-6
    report("projection-bound", ok,
           f"max lhs/rhs {worst_ratio:.4f} (<= 1.01), idempotence {worst_idem:.2e} (< 1e-6)")
    assert ok


def test_09_curvature_condition(grid):
    rep_fock = curvature_margin(fock_weight(1.0), grid)
    rep_cosh = curvature_margin(custom_weight({"name": "cosh-x"}), grid)
    try:
        curvature_margin(custom_weight({"name": "quartic"}), grid)
        rejected = False
    except WeightInvariantViolationError:
        rejected = True
    ok = rep_fock.min_margin == 2.0 and rep_cosh.min_margin >= 2.0 and rejected
    report("curvature", ok,
           f"fock margin {rep_fock.min_margin}, cosh-x min {rep_cosh.min_margin:.4f} "
           f"(>= 2), quartic rejected {rejected}")
    assert ok


def test_10_uniqueness_growth(grid):
    w = fock_weight(1.0)
    worst = float("inf")
    radii = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    for p in range(4):
        table = uniqueness_probe(grid, w, p, radii=radii)
        worst = min(worst, table["growth_ratio"])
        assert table["monotone"]
    ok = worst > 1e3
    report("uniqueness-growth", ok, f"min growth ratio r=1..6 {worst:.3e} (> 1e3)")
    assert ok


def test_11_bargmann_unique_reading():
    readings = set()
    worst = 0.0
    for a in (1.5, 2.0, 3.0):
        rep = bargmann_probe(1.0, a)
        readings.add(rep.matching_reading)
        worst = max(worst, min(rep.rel_err_literal, rep.rel_err_quadratic))
    ok = readings in ({"literal"}, {"quadratic"}) and worst < 1e-4
    report("bargmann-reading", ok,
           f"matching reading {sorted(readings)}, worst rel err {worst:.3e} (< 1e-4)")
    assert ok
