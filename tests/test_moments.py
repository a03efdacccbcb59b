import tracemalloc
import warnings
from math import factorial, fsum

import numpy as np
import pytest

from dbarkit import build_grid, sample
from dbarkit.bumps import random_suite
from dbarkit.diffops import dbar
from dbarkit.errors import BoundaryMassWarning, DynamicRangeError, InvalidArgumentError
from dbarkit.grid import BLOCK_NODES, Field, boundary_mass
from dbarkit.moments import (
    MOMENT_J,
    _probe_rules,
    bargmann_probe,
    diagonal_restriction,
    fourier2,
    moments,
)
from oracles import (bargmann_probe_dense, fold_depth, integrate, l1_norm, moments_gathered,
                     pairing, rounding_bound, sum_depth)


@pytest.fixture(scope="module")
def grid_fine():
    return build_grid(6.0, 768)


@pytest.fixture(scope="module")
def member():
    return random_suite(1, 42)[0]


@pytest.fixture(scope="module")
def compliant_fine(grid_fine, member):
    return member.sample_dbar(grid_fine)


def test_gaussian_moments(grid_default, gaussian_field):
    mv = moments(gaussian_field, 6)
    assert abs(mv.m[0] - np.pi) < 1e-7
    # radial symmetry kills every higher monomial moment
    assert np.max(np.abs(mv.m[1:])) < 1e-10


def test_moments_rejects_negative_order(gaussian_field):
    with pytest.raises(InvalidArgumentError):
        moments(gaussian_field, -1)


def _moment_warnings(f, J):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        moments(f, J)
    return [str(w.message) for w in caught if issubclass(w.category, BoundaryMassWarning)]


def _spike(n, node):
    """A unit value at the center node and a small one at ``node``."""
    v = np.zeros((n, n), dtype=complex)
    v[n // 2, n // 2] = 1.0
    v[node] = 1e-3 - 2e-3j
    return Field(build_grid(6.0, n), v)


@pytest.mark.parametrize("datum", [
    "wide-gaussian",
    # a spike on the innermost row and column of the outer 5% ring (4 nodes
    # wide at n = 64), and one just inside it
    "ring-row", "ring-column", "inside-ring",
])
def test_moments_boundary_mass_warning(datum):
    n, J = 64, 10
    if datum == "wide-gaussian":
        f = sample(lambda z: np.exp(-np.abs(z) ** 2 / 8.0), build_grid(6.0, n))
    else:
        node = {"ring-row": (n - 4, 30), "ring-column": (20, 3), "inside-ring": (4, 59)}[datum]
        f = _spike(n, node)
    # the warning reads the ring of |f| (|z| / zmax)^J over the whole grid
    z = f.grid.nodes
    m = boundary_mass(Field(f.grid, f.values * (np.abs(z) / (np.sqrt(2.0) * 6.0)) ** J))
    got = _moment_warnings(f, J)
    if datum == "inside-ring":
        assert m < 1e-6 and got == []
    else:
        assert m > 1e-6
        assert len(got) == 1 and f"{m:.3e}" in got[0]


def test_compliant_datum_moments_warn_nothing(grid_fine, compliant_fine):
    assert _moment_warnings(compliant_fine, 10) == []


def test_compliant_datum_moments_vanish(grid_fine, compliant_fine):
    mv = moments(compliant_fine, 10)
    h = grid_fine.spacing
    l1 = h * h * np.sum(np.abs(compliant_fine.values))
    assert np.max(np.abs(mv.m)) / l1 < 1e-8


def _assert_moments_match_oracle(f, J):
    """``moments(f, J)`` equals the gathered oracle, which adds the same terms
    z^j a in one ``np.sum``, within the rounding bound of the two summation
    orders; and it warns as the oracle does."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = moments(f, J)
        ref = moments_gathered(f, J)
    assert got.J == ref.J == J
    g = f.grid
    nz = f.values != 0
    mod, a = np.abs(g.nodes[nz]), np.abs(f.values[nz])
    magnitude = g.spacing**2 * np.array([np.sum(mod**j * a) for j in range(J + 1)])
    bound = rounding_bound(magnitude, fold_depth(g.n), sum_depth(a.size))
    assert np.all(np.abs(got.m - ref.m) <= bound)
    assert len(caught) in (0, 2)
    assert [str(w.message) for w in caught[:1]] == [str(w.message) for w in caught[1:]]


@pytest.fixture(scope="module")
def grid_1024():
    return build_grid(6.0, 1024)


@pytest.mark.parametrize("seed", [*range(11), 42])
def test_streamed_moments_match_oracle_on_compliant_data(grid_1024, seed):
    f = random_suite(1, seed)[0].sample_dbar(grid_1024)
    for J in (0, 10):
        _assert_moments_match_oracle(f, J)


def test_streamed_moments_match_oracle_on_the_gaussian(grid_1024):
    g = sample(lambda z: np.exp(-np.abs(z) ** 2), grid_1024)
    for J in (0, 10):
        _assert_moments_match_oracle(g, J)
    # the run's memo reads m_0 from the J = 10 vector
    assert moments(g, 10).m[0] == moments(g, 0).m[0]


@pytest.mark.parametrize("n", [8, 17, 257, 300])
@pytest.mark.parametrize("density", [1.0, 0.1])
def test_streamed_moments_match_oracle_on_random_fields(n, density):
    rng = np.random.default_rng(n)
    v = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    v[rng.uniform(size=(n, n)) >= density] = 0.0
    f = Field(build_grid(6.0, n), v)
    for J in (0, 10):
        _assert_moments_match_oracle(f, J)


@pytest.mark.parametrize("datum", ["zero", "last-node"])
def test_streamed_moments_match_oracle_at_the_edges(datum):
    n = 33
    v = np.zeros((n, n), dtype=complex)
    if datum == "last-node":
        v[-1, -1] = 0.5 - 2.0j
    for J in (0, 10):
        _assert_moments_match_oracle(Field(build_grid(6.0, n), v), J)


def _block_order_sum(v, size):
    """The sums of runs of ``size`` terms of ``v``, added in order from 0, as
    ``moments._fold`` adds its blocks' sums."""
    total = 0.0
    for i in range(0, v.size, size):
        total += np.sum(v[i:i + size])
    return total


def _assert_block_order_within_bound(v, size, components):
    """``np.sum(v)`` is within the bound of numpy's pairwise tree of the exact
    sum, and the block-order sum within the bound of the two orders of it."""
    blocks = -(-v.size // size)
    parts = (v.real, v.imag) if components == 2 else (v,)
    for part in parts:
        exact = fsum(part)
        assert abs(np.sum(part) - exact) <= rounding_bound(
            np.sum(np.abs(part)), sum_depth(v.size), components=1)
    assert abs(_block_order_sum(v, size) - np.sum(v)) <= rounding_bound(
        np.sum(np.abs(v)), sum_depth(size) + blocks, sum_depth(v.size), components=components)


@pytest.mark.parametrize("size", [64, BLOCK_NODES])
@pytest.mark.parametrize("count", [*range(1, 21), *range(127, 131), 8191, 8192, 8193, 141488])
def test_pairwise_tree_is_numpys_sum(count, size):
    # numpy's pairwise complex sum takes at most ``sum_depth`` additions per
    # term, which the moment tests' bounds assume; fails loudly if it ever
    # takes more, on terms spread over 16 orders of magnitude
    rng = np.random.default_rng(count)
    v = rng.standard_normal(count) * 10.0 ** rng.uniform(-8, 8, count)
    v = v + 1j * rng.standard_normal(count) * 10.0 ** rng.uniform(-8, 8, count)
    _assert_block_order_within_bound(v, size, components=2)


@pytest.mark.parametrize("size", [128, BLOCK_NODES])
@pytest.mark.parametrize("count", [1, 8, 9, 129, *range(255, 259), 34969, 65024, 65025])
def test_pairwise_tree_is_numpys_real_sum(count, size):
    # as for complex sums, for the real sums of ``l1_norm``
    rng = np.random.default_rng(count)
    v = rng.standard_normal(count) * 10.0 ** rng.uniform(-8, 8, count)
    _assert_block_order_within_bound(v, size, components=1)


@pytest.mark.parametrize("n", [9, 187, 255, 1024])
def test_l1_norm_is_the_full_grid_sum(n):
    g = build_grid(6.0, n)
    for f in (random_suite(1, 42)[0].sample_dbar(g),
              sample(lambda z: -z * np.exp(-np.abs(z) ** 2), g),
              sample(lambda z: np.exp(-np.abs(z) ** 2), g)):
        h = g.spacing
        ref = float(h * h * np.sum(np.abs(f.values)))
        bound = rounding_bound(ref, fold_depth(n), sum_depth(n * n), components=1)
        assert abs(l1_norm(f) - ref) <= bound


def _traced_peak_mib(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def test_dense_moments_stream_in_little_memory(grid_1024):
    # a gathered kernel peaks at 49.0 MiB here: three full-length copies of
    # a dense field and the warning's weight; the row-block fold, at 1.6 MiB
    g = sample(lambda z: np.exp(-np.abs(z) ** 2), grid_1024)
    assert _traced_peak_mib(lambda: moments(g, 10)) < 2.5


@pytest.mark.parametrize("n", [257, 513])
def test_row_blocked_sampling_is_the_masked_closed_form(n):
    grid = build_grid(6.0, n)
    z = grid.nodes
    for member in random_suite(3, 7):
        inside = member._s(z) < 1.0  # the disk, with the arithmetic of ``_s``
        rows = np.flatnonzero(inside.any(axis=1))
        # the support crosses an edge of the row blocks
        assert rows[0] // (BLOCK_NODES // n) < rows[-1] // (BLOCK_NODES // n)
        for method, fn in (("sample", member), ("sample_dbar", member.dbar),
                           ("sample_dz", member.dz)):
            ref = np.zeros((n, n), dtype=complex)
            ref[inside] = fn(z)[inside]
            got = getattr(member, method)(grid).values
            assert np.array_equal(got.view(np.uint64), ref.view(np.uint64)), method


def test_sampling_stays_within_its_output(grid_1024, member):
    # the field itself is 16 MiB; full-grid masks and nodes peaked at 53.7 MiB
    assert _traced_peak_mib(lambda: member.sample_dbar(grid_1024)) < 24.0


def test_pairing_agrees_with_moments(grid_default, gaussian_field):
    mv = moments(gaussian_field, 3)
    for j in range(4):
        zj = sample(lambda z, j=j: z**j, grid_default)
        assert abs(pairing(gaussian_field, zj) - mv.m[j]) < 1e-12


def test_pairing_integration_by_parts(grid_default, member, gaussian_field):
    # integral (dbar v) g = -integral v (dbar g) for decaying v, g
    v = member.sample(grid_default)
    lhs = pairing(dbar(v), gaussian_field)
    rhs = -pairing(v, dbar(gaussian_field))
    assert abs(lhs - rhs) < 1e-10


def test_fourier2_gaussian_closed_form(gaussian_field):
    for xi, eta in [(0.0, 0.0), (1.0, 0.5), (-2.0, 1.5)]:
        got = fourier2(gaussian_field, xi, eta)
        expect = np.pi * np.exp(-(xi**2 + eta**2) / 4.0)
        assert abs(got - expect) < 1e-8


def test_fourier2_zero_frequency_is_integral(grid_default, member):
    v = member.sample(grid_default)
    assert abs(fourier2(v, 0.0, 0.0) - integrate(v)) < 1e-14


def test_fourier2_analytic_continuation(gaussian_field):
    # complex frequencies continue the same closed form
    xi = 1.0 + 0.5j
    eta = -0.3 + 0.2j
    got = fourier2(gaussian_field, xi, eta)
    expect = np.pi * np.exp(-(xi**2 + eta**2) / 4.0)
    assert abs(got - expect) < 1e-7


def test_fourier2_dynamic_range_guard(gaussian_field):
    with pytest.raises(DynamicRangeError):
        fourier2(gaussian_field, 6.0j, 0.0)


def _fourier2_direct(f, xi, eta):
    """Reference quadrature: the kernel evaluated at all n^2 nodes."""
    Z = f.grid.nodes
    h = f.grid.spacing
    return h * h * np.sum(np.exp(-1j * (xi * Z.real + eta * Z.imag)) * f.values)


@pytest.mark.parametrize("datum", ["compliant", "gaussian"])
def test_diagonal_matches_per_sample_quadrature(grid_default, member, gaussian_field, datum):
    f = member.sample_dbar(grid_default) if datum == "compliant" else gaussian_field
    ds = diagonal_restriction(f, moments(f, MOMENT_J))
    ref = np.array([_fourier2_direct(f, xi, 1j * xi) for xi in ds.xi_samples])
    assert np.max(np.abs(ds.values - ref)) < 1e-12
    for xi in ds.xi_samples[::8]:
        assert abs(fourier2(f, xi, 1j * xi) - _fourier2_direct(f, xi, 1j * xi)) < 1e-12


def test_diagonal_dynamic_range_guard_covers_every_sample(gaussian_field):
    mv = moments(gaussian_field, MOMENT_J)
    # at R = 6, xi = 3 + 3i has growth 6 (|Im xi| + |Im i xi|) = 36 > 30
    with pytest.raises(DynamicRangeError, match="growth exponent 36.0 exceeds cap"):
        diagonal_restriction(gaussian_field, mv, xi_samples=[0.0, 1.0, 3.0 + 3.0j, 0.5j])
    # xi = 3i stays under the cap: i xi = -3 is real, so the growth is 18
    diagonal_restriction(gaussian_field, mv, xi_samples=[3.0j])


def test_diagonal_vanishes_for_compliant_datum(grid_fine, compliant_fine):
    ds = diagonal_restriction(compliant_fine, moments(compliant_fine, MOMENT_J))
    h = grid_fine.spacing
    l1 = h * h * np.sum(np.abs(compliant_fine.values))
    assert np.max(np.abs(ds.values)) / l1 < 1e-7
    assert np.max(np.abs(ds.series_values)) / l1 < 1e-7


def test_diagonal_constant_for_gaussian(gaussian_field):
    # fhat(xi, i*xi) = pi e^{-(xi^2 + (i xi)^2)/4} = pi for every xi
    ds = diagonal_restriction(gaussian_field, moments(gaussian_field, MOMENT_J))
    assert np.max(np.abs(ds.values - np.pi)) < 1e-6
    assert np.max(np.abs(ds.series_values - np.pi)) < 1e-6


def test_diagonal_quadrature_matches_series(grid_fine, compliant_fine):
    ds = diagonal_restriction(compliant_fine, moments(compliant_fine, MOMENT_J))
    assert np.max(np.abs(ds.values - ds.series_values)) < 1e-8


def _series_loop(xi_samples, m):
    """Reference diagonal series: sum_j (-i xi)^j / j! m_j, term by term."""
    out = np.zeros(len(xi_samples), dtype=complex)
    for j in range(len(m)):
        out += (-1j * xi_samples) ** j / factorial(j) * m[j]
    return out


@pytest.mark.parametrize("datum", ["compliant", "gaussian"])
def test_diagonal_series_matches_term_by_term_sum(grid_default, member, gaussian_field, datum):
    f = member.sample_dbar(grid_default) if datum == "compliant" else gaussian_field
    mv = moments(f, MOMENT_J)
    ds = diagonal_restriction(f, mv)
    m = mv.m
    ref = _series_loop(ds.xi_samples, m)
    assert np.max(np.abs(ds.series_values - ref)) < 1e-14 * max(1.0, np.max(np.abs(m)))


def test_diagonal_csv_layout(gaussian_field):
    ds = diagonal_restriction(gaussian_field, moments(gaussian_field, MOMENT_J),
                              xi_samples=[0.0, 1.0])
    lines = ds.to_csv().strip().split("\n")
    assert lines[0] == "xi_re,xi_im,fhat_re,fhat_im,series_re,series_im"
    assert len(lines) == 3


@pytest.mark.parametrize("a", [1.5, 2.0, 3.0])
def test_bargmann_quadratic_reading_matches(a):
    rep = bargmann_probe(beta=1.0, a=a)
    expect_quad = 2.0 * np.pi**2 / np.sqrt(2.0 * a - 1.0)
    expect_lit = 2.0 * np.pi**2 / np.sqrt(a - 1.0)
    assert abs(rep.rhs_quadratic - expect_quad) / expect_quad < 1e-10
    assert abs(rep.rhs_literal - expect_lit) / expect_lit < 1e-10
    assert rep.rel_err_quadratic < 1e-8
    assert rep.rel_err_literal > 1e-2
    assert rep.matching_reading == "quadratic"


def test_bargmann_amplitude_homogeneity():
    r1 = bargmann_probe(beta=1.0, a=2.0, amplitude=1.0)
    r2 = bargmann_probe(beta=1.0, a=2.0, amplitude=2.0)
    assert abs(r2.lhs / r1.lhs - 4.0) < 1e-10
    assert abs(r2.rhs_quadratic / r1.rhs_quadratic - 4.0) < 1e-12
    # a first-power right side scales linearly, breaking the match
    assert abs(r2.rhs_literal / r1.rhs_literal - 2.0) < 1e-12
    assert r2.matching_reading == "quadratic"


def test_bargmann_zero_amplitude_degenerate():
    rep = bargmann_probe(beta=1.0, a=2.0, amplitude=0.0)
    assert rep.lhs == 0.0
    assert rep.matching_reading == "both"


def test_bargmann_rejects_divergent_parameters():
    with pytest.raises(InvalidArgumentError):
        bargmann_probe(beta=1.0, a=1.0)
    with pytest.raises(InvalidArgumentError):
        bargmann_probe(beta=-1.0, a=2.0)
    for beta, a in [(1.0, np.inf), (np.inf, 2.0), (np.nan, 2.0), (1.0, np.nan)]:
        with pytest.raises(InvalidArgumentError):
            bargmann_probe(beta=beta, a=a)


@pytest.mark.parametrize("ab", [1.25, 1.5, 2.0, 3.0, 6.0, 20.0])
@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0, 4.0])
def test_bargmann_derived_rule_matches_dense_rule(beta, ab):
    rep = bargmann_probe(beta, ab / beta)
    ref = bargmann_probe_dense(beta, ab / beta)
    for key in ("lhs", "rhs_literal", "rhs_quadratic"):
        assert abs(getattr(rep, key) - getattr(ref, key)) < 1e-13 * abs(getattr(ref, key))
    assert rep.matching_reading == ref.matching_reading


@pytest.mark.parametrize("beta", [0.5, 1.0, 4.0])
@pytest.mark.parametrize("ab, nx", [(1.5, 90), (2.0, 72), (3.0, 61)])
def test_bargmann_rule_sizes_are_the_documented_ones(beta, ab, nx):
    assert "nx = 90, 72 and 61 at a*beta = 1.5, 2 and 3" in bargmann_probe.__doc__
    assert [len(nodes) for nodes, _ in _probe_rules(beta, ab / beta)] == [nx, 27, 27]


def test_bargmann_rule_size_guard():
    bargmann_probe(1.0, 1.0 + 1.1e-6)  # just inside the 3000 x 480 entries
    with pytest.raises(InvalidArgumentError, match=r"a\*beta - 1 = 1e-06"):
        bargmann_probe(1.0, 1.0 + 1e-6)
    with pytest.raises(InvalidArgumentError, match=r"a\*beta - 1 = 1e-07"):
        bargmann_probe(2.0, (1.0 + 1e-7) / 2.0)


@pytest.mark.parametrize("beta", [0.5, 1.0, 2.0])
def test_bargmann_finite_near_the_convergence_edge(beta):
    a = 1.02 / beta
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = bargmann_probe(beta, a)
    expect_quad = 2.0 * np.pi**2 / np.sqrt(2.0 * a * beta - 1.0)
    assert np.isfinite([rep.lhs, rep.rhs_literal, rep.rhs_quadratic]).all()
    assert abs(rep.rhs_quadratic - expect_quad) < 1e-10 * expect_quad
    assert rep.matching_reading == "quadratic"
