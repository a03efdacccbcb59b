import warnings

import numpy as np
import pytest

from dbarkit import build_grid, custom_weight, fock_weight, sample, verify_norm_identity
from dbarkit.bumps import random_suite
from dbarkit.diffops import dbar
from dbarkit.errors import BoundaryMassWarning, DynamicRangeError
from oracles import (
    apply_T,
    apply_Tstar,
    from_dual_picture,
    integrate,
    kernel_check,
    to_dual_picture,
)


@pytest.fixture(scope="module")
def fock():
    return fock_weight(1.0)


def test_apply_T_gaussian_closed_form(grid_default, gaussian_field, fock):
    # T e^{-|z|^2} = (-z - z/2) e^{-|z|^2}
    out = apply_T(gaussian_field, fock)
    expect = sample(lambda z: -1.5 * z * np.exp(-np.abs(z) ** 2), grid_default)
    assert np.max(np.abs((out - expect).values)) < 1e-10


def test_apply_Tstar_gaussian_closed_form(grid_default, gaussian_field, fock):
    # T* e^{-|z|^2} = (zbar - zbar/2) e^{-|z|^2}
    out = apply_Tstar(gaussian_field, fock)
    expect = sample(
        lambda z: 0.5 * np.conj(z) * np.exp(-np.abs(z) ** 2), grid_default
    )
    assert np.max(np.abs((out - expect).values)) < 1e-10


def test_T_Tstar_adjoint_pair(grid_default, fock):
    suite = random_suite(2, seed=7)
    u = suite[0].sample(grid_default)
    v = suite[1].sample(grid_default)
    lhs = integrate(apply_T(u, fock) * v.conj())
    rhs = integrate(u * apply_Tstar(v, fock).conj())
    assert abs(lhs - rhs) / abs(rhs) < 1e-8


@pytest.mark.parametrize(
    "spec",
    [
        {"name": "fock", "t": 1.0},
        {"name": "fock", "t": 0.5},
        {"name": "fock-harmonic", "t": 1.0, "b": 0.125},
        {"name": "cosh-x"},
    ],
)
def test_norm_identity_over_suite(grid_default, suite20, spec):
    w = custom_weight(spec)
    worst = 0.0
    for m in suite20:
        rep = verify_norm_identity(m.sample(grid_default), w)
        assert rep.passes
        worst = max(worst, rep.rel_err)
    assert worst < 1e-6


def test_norm_identity_converges_in_n(one_member, fock):
    errs = []
    for n in [128, 256, 512]:
        g = build_grid(6.0, n)
        errs.append(verify_norm_identity(one_member.sample(g), fock).rel_err)
    assert errs[2] < errs[1] < errs[0]
    assert errs[2] < 1e-10


def test_norm_identity_implies_lower_bound(grid_default, suite20, fock):
    # ||T v||^2 >= 2 * integral |v|^2 lap_hat(phi) since ||T* v||^2 >= 0
    one = np.ones((grid_default.n, grid_default.n))
    lap = fock.sample_lap_hat(grid_default)
    h2 = grid_default.spacing**2
    for m in suite20[:5]:
        v = m.sample(grid_default)
        tnorm = h2 * np.sum(np.abs(apply_T(v, fock).values) ** 2)
        lower = 2 * h2 * np.sum(np.abs(v.values) ** 2 * lap)
        assert tnorm >= lower * (1 - 1e-12)


def test_trivial_weight_isometry(grid_default, one_member):
    w = custom_weight({"name": "zero"})
    rep = verify_norm_identity(one_member.sample(grid_default), w)
    assert rep.isometry_mode
    assert rep.rel_err < 1e-12
    assert rep.passes


def test_dual_picture_round_trip(grid_default, one_member, fock):
    u = one_member.sample(grid_default)
    back = from_dual_picture(to_dual_picture(u, fock), fock)
    assert np.max(np.abs((back - u).values)) < 1e-12


def test_dual_picture_trivial_weight_is_identity(grid_default, one_member):
    w = custom_weight({"name": "zero"})
    u = one_member.sample(grid_default)
    assert np.array_equal(to_dual_picture(u, w).values, u.values)


def test_T_factors_through_dual_picture(fock):
    # T u agrees with e^{phi} dbar(e^{-phi} u) where the conjugated field is
    # resolved; the comparison is made away from the corners, where e^{phi}
    # amplifies the derivative floor
    m = random_suite(2, seed=7)[0]
    diffs = []
    for n in [256, 512]:
        g = build_grid(6.0, n)
        u = m.sample(g)
        direct = apply_T(u, fock)
        factored = to_dual_picture(dbar(from_dual_picture(u, fock)), fock)
        mask = np.abs(g.nodes) < 3.0
        scale = np.max(np.abs(direct.values))
        diffs.append(np.max(np.abs((direct - factored).values)[mask]) / scale)
    assert diffs[1] < diffs[0]
    assert diffs[1] < 1e-5


def test_non_finite_identity_sides_raise(one_member):
    # fock(1e300): (dbar phi) v overflows, so the left side is inf - inf = nan,
    # which would compare below any tolerance as a relative error
    u = one_member.sample(build_grid(6.0, 64))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DynamicRangeError, match="norm identity"):
            verify_norm_identity(u, fock_weight(1e300))


def test_dual_picture_overflow_guard(one_member):
    g = build_grid(6.0, 64)
    u = one_member.sample(g)
    with pytest.raises(DynamicRangeError) as exc:
        to_dual_picture(u, fock_weight(30.0))
    assert exc.value.node_index is not None
    # fock(30) has phi >= 0, so e^{-phi} can only underflow towards 0
    assert np.all(np.isfinite(from_dual_picture(u, fock_weight(30.0)).values))


def test_negative_phi_overflow_guard(one_member):
    # phi = |z|^2/2 + 30 Re(z^2) falls to about -1030 on the imaginary axis
    # of the R = 6 square, so e^{-phi} overflows there
    w = custom_weight({"name": "fock-harmonic", "t": 1.0, "b": 30.0})
    g = build_grid(6.0, 64)
    u = one_member.sample(g)
    with pytest.raises(DynamicRangeError) as exc:
        from_dual_picture(u, w)
    assert exc.value.node_index is not None
    z = g.nodes.reshape(-1)[exc.value.node_index]
    assert -w.phi(z) > 700.0
    with pytest.raises(DynamicRangeError):
        kernel_check(lambda z: np.ones_like(z), w, g)


def test_kernel_check_entire_vs_nonentire(grid_default, fock):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryMassWarning)
        r_const = kernel_check(lambda z: np.ones_like(z), fock, grid_default)
        r_cubic = kernel_check(lambda z: z**3, fock, grid_default)
        r_conj = kernel_check(np.conj, fock, grid_default)
    assert r_const < 1e-6
    assert r_cubic < 1e-4
    assert r_conj > 0.1
