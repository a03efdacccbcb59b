import contextlib
from dataclasses import replace

import numpy as np
import pytest

from dbarkit import build_grid, curvature_margin, custom_weight, fock_weight, sample
from dbarkit.diffops import interior_mask
from dbarkit.errors import DynamicRangeError, InvalidArgumentError, WeightInvariantViolationError
from dbarkit.weights import CATALOG_PARAMS, EXP_CAP
from oracles import FD4_BAND, fd4_curvature_margin, fd4_laplacian_hat

CATALOG = [
    {"name": "fock", "t": 1.0},
    {"name": "fock", "t": 2.0},
    {"name": "fock-harmonic", "t": 1.0, "b": 0.125},
    {"name": "cosh-x"},
]


def test_fock_examples():
    w = fock_weight(1.0)
    z = np.array([2.0 + 0j, 1j, -3.0 + 1j])
    assert np.allclose(w.lap_hat_phi(z), 0.5)
    assert np.conj(w.dphi(np.array([2.0 + 0j])))[0] == 1.0
    w2 = fock_weight(2.0)
    zz = np.array([1.5 - 0.5j])
    assert np.exp(2 * w2.phi(zz))[0] == pytest.approx(np.exp(2 * np.abs(zz[0]) ** 2))


def test_fock_rejects_nonpositive_scale():
    with pytest.raises(InvalidArgumentError):
        fock_weight(0.0)
    with pytest.raises(InvalidArgumentError):
        custom_weight({"name": "fock-harmonic", "t": -1.0})


def test_catalog_harmonic_part_drops_out():
    w = custom_weight({"name": "fock-harmonic", "t": 1.0, "b": 0.125})
    z = np.array([1 + 2j, -0.5j])
    assert np.allclose(w.lap_hat_phi(z), 0.5)


def test_cosh_x_derivatives():
    w = custom_weight({"name": "cosh-x"})
    z = np.array([1.0 + 5j, -2.0 + 0j])
    assert np.allclose(w.lap_hat_phi(z), np.cosh(z.real) / 4)
    assert np.allclose(w.dphi(z), np.sinh(z.real) / 2)


def test_unknown_catalog_entry():
    with pytest.raises(InvalidArgumentError):
        custom_weight({"name": "exp-x2"})
    with pytest.raises(InvalidArgumentError):
        custom_weight({"no_name": 1})


@pytest.mark.parametrize("spec", CATALOG)
def test_dbarphi_is_conj_dphi_exactly(spec):
    g = build_grid(6.0, 64)
    w = custom_weight(spec)
    a = w.sample_dbarphi(g).values
    b = np.conj(w.sample_dphi(g).values)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("spec", CATALOG)
def test_discrete_laplacian_matches_analytic(spec):
    w = custom_weight(spec)
    errs = []
    for n in [64, 128]:
        g = build_grid(6.0, n)
        num = fd4_laplacian_hat(w.sample_phi(g))
        mask = interior_mask(g, FD4_BAND)
        exact = w.sample_lap_hat(g)
        errs.append(np.max(np.abs(num.values[mask].real - exact[mask])))
    if spec["name"] == "cosh-x":
        assert np.log2(errs[0] / errs[1]) > 3.5  # fd4 order
    else:
        # quadratic phi: the 4th-order stencil is exact up to roundoff
        assert errs[1] < 1e-9


@pytest.mark.parametrize("t", [0.5, 1.0, 3.0])
def test_fock_margin_exactly_two(t):
    g = build_grid(6.0, 64)
    rep = curvature_margin(fock_weight(t), g)
    assert rep.analytic_path
    assert rep.min_margin == 2.0
    assert rep.passes


def test_cosh_margin_formula_and_discrete_crosscheck():
    g = build_grid(6.0, 128)
    w = custom_weight({"name": "cosh-x"})
    rep = curvature_margin(w, g)
    x = g.nodes.real
    expected = 1.0 / np.cosh(x) ** 3 + 2.0
    assert np.allclose(rep.margin_field.values.real, expected)
    assert rep.min_margin >= 2.0
    # the fd4 oracle's discrete margin agrees to stencil accuracy
    disc = fd4_curvature_margin(w, g)
    mask = interior_mask(g, FD4_BAND)
    assert np.max(np.abs(disc[mask] - expected[mask])) < 1e-4


def test_normalization_invariance_of_margin():
    g = build_grid(6.0, 128)
    w = custom_weight({"name": "cosh-x"})
    m1 = fd4_curvature_margin(w, g, lap_scale=1.0)
    m4 = fd4_curvature_margin(w, g, lap_scale=4.0)
    mask = interior_mask(g, FD4_BAND)
    d = np.max(np.abs(m1[mask] - m4[mask]))
    assert d < 1e-9


def test_margin_without_closed_form_rejected():
    g = build_grid(6.0, 64)
    with pytest.raises(InvalidArgumentError, match="cosh-x"):
        curvature_margin(replace(custom_weight({"name": "cosh-x"}), margin_fn=None), g)
    # no catalog weight reaches that error: each one that validates has a margin
    for w in (custom_weight({"name": name}) for name in CATALOG_PARAMS):
        with contextlib.suppress(WeightInvariantViolationError):
            w.validate_on(g)
            assert w.margin_fn is not None, w.name


def test_quartic_weight_rejected():
    g = build_grid(6.0, 64)
    w = custom_weight({"name": "quartic"})
    with pytest.raises(WeightInvariantViolationError):
        curvature_margin(w, g)


def test_exp_phi_is_the_guarded_exponential():
    g = build_grid(6.0, 64)
    z = g.nodes
    w = custom_weight({"name": "cosh-x"})
    for factor in (1.0, -1.0, 2.0):
        assert np.array_equal(w.exp_phi(z, factor), np.exp(factor * np.cosh(z.real)))
    disk = np.abs(z) < 2.0
    assert np.array_equal(w.exp_phi(z[disk], 2.0), w.exp_phi(z, 2.0)[disk])


def test_exp_phi_raises_past_cap():
    w = fock_weight(2.0)  # phi = |z|^2
    z = np.array([1.0 + 0j, 10.0 + 0j, 2.0 + 0j])
    assert w.exp_phi(z, EXP_CAP / 100.0)[1] == np.exp(EXP_CAP)
    with pytest.raises(DynamicRangeError) as exc:
        w.exp_phi(z, 7.01)
    assert exc.value.node_index == 1
    # e^{-phi} only underflows towards 0, which is not an overflow
    assert w.exp_phi(z, -EXP_CAP)[1] == 0.0


@pytest.mark.parametrize("name", sorted(CATALOG_PARAMS))
def test_closed_forms_return_the_shape_of_z(name):
    # the weight's fields are sampled with no broadcast of their own
    w = custom_weight({"name": name})
    z = np.linspace(-2.0, 2.0, 12).reshape(3, 4) + 0.5j
    for fn in (w.phi, w.dphi, w.lap_hat_phi, w.margin_fn):
        if fn is not None:
            assert np.shape(fn(z)) == (3, 4)


def test_nonfinite_weight_parameters_rejected():
    with pytest.raises(InvalidArgumentError):
        custom_weight({"name": "fock", "t": float("inf")})
    with pytest.raises(InvalidArgumentError):
        custom_weight({"name": "fock-harmonic", "b": float("nan")})
    # no real number either: rejected as for every other config key
    for bad in ("2", True, None, 10**400):
        with pytest.raises(InvalidArgumentError, match="finite number"):
            custom_weight({"name": "fock", "t": bad})
    assert custom_weight({"name": "fock", "t": 2}).params == {"t": 2.0}
