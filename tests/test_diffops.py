import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbarkit import build_grid, integrate, sample
from dbarkit.bumps import BumpPoly, Poly2
from dbarkit.diffops import dbar, delz, interior_max, laplacian_hat
from dbarkit.errors import InvalidArgumentError
from dbarkit.grid import Field

SCHEMES = ["spectral", "fd4"]


def radial_window(r_plateau, r_support):
    """C-infinity cutoff: exactly 1 for |z| <= r_plateau, 0 for |z| >= r_support."""

    def g(t):
        out = np.zeros_like(t)
        m = t > 0
        out[m] = np.exp(-1.0 / t[m])
        return out

    def window(z):
        r = np.abs(np.asarray(z, dtype=complex))
        t = (r_support - r) / (r_support - r_plateau)
        gt = g(np.clip(t, 0.0, 1.0))
        g1t = g(np.clip(1.0 - t, 0.0, 1.0))
        return gt / (gt + g1t)

    return window


def plateau_mask(grid, r=1.0):
    return np.abs(grid.nodes) < r


@pytest.fixture(scope="module")
def windowed(grid_default=None):
    g = build_grid(6.0, 256)
    w = radial_window(1.5, 4.0)
    return g, w


@pytest.mark.parametrize("scheme", SCHEMES)
def test_dbar_of_zbar_window(windowed, scheme):
    g, w = windowed
    v = sample(lambda z: np.conj(z) * w(z), g)
    out = dbar(v, scheme)
    m = plateau_mask(g)
    assert np.max(np.abs(out.values[m] - 1.0)) < 1e-6


@pytest.mark.parametrize("scheme", SCHEMES)
def test_dbar_kills_analytic(windowed, scheme):
    g, w = windowed
    v = sample(lambda z: z * w(z), g)
    out = dbar(v, scheme)
    assert np.max(np.abs(out.values[plateau_mask(g)])) < 1e-6


@pytest.mark.parametrize("scheme", SCHEMES)
def test_dbar_of_abs2(windowed, scheme):
    g, w = windowed
    v = sample(lambda z: np.abs(z) ** 2 * w(z), g)
    out = dbar(v, scheme)
    m = plateau_mask(g)
    assert np.max(np.abs(out.values[m] - g.nodes[m])) < 1e-5


@pytest.mark.parametrize("scheme", SCHEMES)
def test_del_examples(windowed, scheme):
    g, w = windowed
    m = plateau_mask(g)
    v = sample(lambda z: z * w(z), g)
    assert np.max(np.abs(delz(v, scheme).values[m] - 1.0)) < 1e-6
    v2 = sample(lambda z: np.conj(z) * w(z), g)
    assert np.max(np.abs(delz(v2, scheme).values[m])) < 1e-6


@pytest.mark.parametrize("scheme", SCHEMES)
def test_laplacian_examples(windowed, scheme):
    g, w = windowed
    m = plateau_mask(g)
    v = sample(lambda z: np.abs(z) ** 2 * w(z), g)
    assert np.max(np.abs(laplacian_hat(v, scheme).values[m] - 1.0)) < 1e-5
    vh = sample(lambda z: np.real(z**2) * w(z), g)
    assert np.max(np.abs(laplacian_hat(vh, scheme).values[m])) < 1e-5


@pytest.mark.parametrize("scheme", SCHEMES)
@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_conjugation_identity_bitexact(scheme, seed):
    g = build_grid(2.0, 16)
    rng = np.random.default_rng(seed)
    v = Field(g, rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    a = delz(v.conj(), scheme)
    b = dbar(v, scheme).conj()
    assert np.array_equal(a.values, b.values)


def test_unknown_scheme_rejected():
    g = build_grid(2.0, 16)
    v = Field(g, np.zeros((16, 16), dtype=complex))
    with pytest.raises(InvalidArgumentError):
        dbar(v, "fd2")


def test_fd4_zero_band_flagged():
    g = build_grid(2.0, 16)
    v = sample(lambda z: np.exp(-np.abs(z) ** 2), g)
    out = dbar(v, "fd4")
    assert out.zero_band == 2
    assert np.all(out.values[:2, :] == 0)
    assert np.all(out.values[:, -2:] == 0)


@pytest.fixture(scope="module")
def bump_member():
    return BumpPoly(0.4 + 0.2j, 2.2, Poly2.from_dict({(0, 0): 1.0, (2, 1): 0.5}))


def factorization_err(member, n, scheme):
    g = build_grid(6.0, n)
    v = member.sample(g)
    lhs = laplacian_hat(v, scheme)
    rhs = dbar(v, scheme)
    rhs = delz(rhs, scheme)
    return interior_max(lhs - rhs, extra_band=2)


def gaussian_field_on(n):
    g = build_grid(6.0, n)
    return g, sample(lambda z: np.exp(-np.abs(z) ** 2), g)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_factorization_consistency_converges(scheme):
    errs = [factorization_err_gaussian(n, scheme) for n in (128, 256)]
    if scheme == "spectral":
        assert errs[1] < 1e-12  # superalgebraic
    else:
        assert np.log2(errs[0] / errs[1]) > 3.5  # 4th-order stencils


def factorization_err_gaussian(n, scheme):
    g, v = gaussian_field_on(n)
    lhs = laplacian_hat(v, scheme)
    rhs = delz(dbar(v, scheme), scheme)
    return interior_max(lhs - rhs, extra_band=2)


def test_factorization_on_bump_decreases(bump_member):
    # the bump's edge derivatives are steep, so only monotone decay is
    # asserted at these resolutions
    errs = [factorization_err(bump_member, n, "fd4") for n in (128, 256)]
    assert errs[1] < errs[0]


def test_discrete_derivative_integrates_to_zero(bump_member):
    # centered stencils and the zero-mean spectral symbol both make the
    # discrete integral of a derivative vanish to roundoff
    for scheme in SCHEMES:
        for n in [128, 256]:
            g = build_grid(6.0, n)
            assert abs(integrate(dbar(bump_member.sample(g), scheme))) < 1e-12


def test_cross_scheme_agreement_gaussian():
    errs = []
    for n in [128, 256]:
        g, v = gaussian_field_on(n)
        d = dbar(v, "spectral") - dbar(v, "fd4")
        errs.append(interior_max(d, extra_band=2))
    assert np.log2(errs[0] / errs[1]) > 3.5  # fd4 error dominates


def test_cross_scheme_agreement_bump(bump_member):
    errs = []
    for n in [128, 256]:
        g = build_grid(6.0, n)
        v = bump_member.sample(g)
        d = dbar(v, "spectral") - dbar(v, "fd4")
        errs.append(interior_max(d, extra_band=2))
    assert errs[1] < errs[0]


def test_discrete_dbar_matches_closed_form(bump_member):
    errs = []
    for n in [256, 512]:
        g = build_grid(6.0, n)
        v = bump_member.sample(g)
        exact = bump_member.sample_dbar(g)
        errs.append(interior_max(dbar(v, "spectral") - exact))
    assert errs[1] < errs[0]
    assert errs[1] < 1e-5
