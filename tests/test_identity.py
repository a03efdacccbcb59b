import sys
import tracemalloc
import warnings
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest

from dbarkit import (build_grid, custom_weight, fock_weight, grid, identity, sample,
                     verify_norm_identity)
from dbarkit.bumps import random_suite
from dbarkit.diffops import dbar
from dbarkit.errors import BoundaryMassWarning, DynamicRangeError, SamplingError
from dbarkit.grid import Field, Grid, boundary_mass
from oracles import (
    apply_T,
    apply_Tstar,
    from_dual_picture,
    integrate,
    kernel_check,
    norm_identity_fields,
    norm_identity_terms,
    to_dual_picture,
)

CATALOG = ["fock", "fock-harmonic", "cosh-x", "quartic", "zero"]


@lru_cache(maxsize=None)
def member_field(n):
    """The seed-42 suite's first member on the R = 6 grid of size n."""
    return random_suite(1, seed=42)[0].sample(build_grid(6.0, n))


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


def datum(n):
    """The seed-42 member at n, but at n = 16 a dense random field: with no
    zero line the arms are empty, and every line has a Nyquist term."""
    if n != 16:
        return member_field(n)
    rng = np.random.default_rng(16)
    return Field(build_grid(6.0, 16), rng.standard_normal((16, 16))
                 + 1j * rng.standard_normal((16, 16)))


def assert_sides_near_the_oracle(rep, v, w, rel=1e-14):
    """Each side within ``rel`` of the size it is formed from: ||T v||^2 +
    ||T* v||^2 for a difference of the norms, the side itself otherwise."""
    tv, tsv, rhs = norm_identity_terms(v, w)
    if w.is_trivial():
        want, scale = (tv, tsv), (tv, tsv)
    else:
        want, scale = (tv - tsv, rhs), (tv + tsv, abs(rhs))
    for got, ref, size in zip((rep.lhs, rep.rhs), want, scale):
        assert abs(got - ref) <= rel * size


# per-axis transforms on the support lines against 2-D FFTs of the whole grid;
# the dense datum reaches the boundary, as it is meant to
@pytest.mark.filterwarnings("ignore::dbarkit.errors.BoundaryMassWarning")
@pytest.mark.parametrize("n", [9, 16, 128, 256, 1024])
@pytest.mark.parametrize("name", CATALOG)
def test_identity_sides_are_those_of_field_arithmetic(name, n):
    v, w = datum(n), custom_weight({"name": name})
    assert_sides_near_the_oracle(verify_norm_identity(v, w), v, w)


@pytest.mark.parametrize("name", CATALOG)
def test_identity_sides_off_a_power_of_two(name):
    # n = 300 cuts row blocks of 109, 109 and 82 rows, not at numpy's split points
    v, w = member_field(300), custom_weight({"name": name})
    rep = verify_norm_identity(v, w)
    for got, want in zip((rep.lhs, rep.rhs), norm_identity_fields(v, w)):
        assert abs(got - want) <= 1e-14 * abs(want)


def test_identity_is_bit_identical_for_any_cpu_count(monkeypatch):
    # n = 512: eight row blocks, so up to four threads take them
    v, w = member_field(512), custom_weight({"name": "cosh-x"})
    sides = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(grid, "_usable_cpus", lambda c=cpus: c)
            rep = verify_norm_identity(v, w)
            sides.append((rep.lhs, rep.rhs))
    finally:
        sys.setswitchinterval(interval)
    assert sides[0] == sides[1] == sides[2]
    assert_sides_near_the_oracle(rep, v, w)


@pytest.mark.parametrize("late", ["dbar(phi)", "laplacian_hat(phi)"])
def test_non_finite_weight_names_its_first_node(monkeypatch, late):
    # non-finite from x > 2 on, rows of the sixth of eight blocks; for
    # dbar(phi) the Laplacian is also non-finite in the first block, and
    # dbar(phi) is still the one named, as the full-grid sampling does
    n = 512
    v = member_field(n)
    past = lambda z, f: np.where(z.real > 2.0, np.inf, f)  # noqa: E731
    if late == "dbar(phi)":
        w = replace(fock_weight(1.0), name="late",
                    dphi=lambda z: past(z, 0.5 * np.conj(z)),
                    lap_hat_phi=lambda z: np.where(z.real < -5.0, np.inf, 0.5))
    else:
        w = replace(fock_weight(1.0), name="late", lap_hat_phi=lambda z: past(z, 0.5))
    with pytest.raises(SamplingError) as ref:
        norm_identity_fields(v, w)
    first = int(np.argmax(v.grid.axis > 2.0)) * n
    assert ref.value.node_index == first and late in str(ref.value)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 3):
            monkeypatch.setattr(grid, "_usable_cpus", lambda c=cpus: c)
            with pytest.raises(SamplingError) as exc:
                verify_norm_identity(v, w)
            assert str(exc.value) == str(ref.value)
            assert exc.value.node_index == first
    finally:
        sys.setswitchinterval(interval)


def test_identity_builds_no_nodes_and_no_weight_field(monkeypatch):
    v, w = member_field(256), custom_weight({"name": "cosh-x"})

    def no_nodes(g):
        raise AssertionError("Grid.nodes called")

    built = []
    post_init = Field.__post_init__

    def counted(f):
        built.append(f)
        post_init(f)

    monkeypatch.setattr(Grid, "nodes", property(no_nodes))
    monkeypatch.setattr(Field, "__post_init__", counted)
    rep = verify_norm_identity(v, w)
    monkeypatch.undo()
    assert built == []
    assert_sides_near_the_oracle(rep, v, w)


def test_identity_peak_memory(monkeypatch):
    # n = 256 on one thread: per-axis derivatives on the support lines peak at
    # 2.6 MiB; dbar and del as full-grid fields with their shared spectrum
    # peaked at 4.5 MiB, full-grid weight fields and products at 5.0 MiB
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 1)
    v, w = member_field(256), fock_weight(1.0)
    verify_norm_identity(v, w)  # numpy's FFT plan caches fill on the first call
    tracemalloc.start()
    try:
        verify_norm_identity(v, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.75 * 2**20


def _boxed(g, rows, cols, seed):
    """A field that is random on the box ``rows`` x ``cols`` and 0 off it."""
    rng = np.random.default_rng(seed)
    a = np.zeros((g.n, g.n), dtype=complex)
    shape = a[rows, cols].shape
    a[rows, cols] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return Field(g, a)


def test_identity_reads_boundary_mass_from_the_box(monkeypatch, grid_default, suite20):
    """The warning's ratio, read on the datum's nonzero box, is the whole
    grid's ``boundary_mass`` to the bit: for suite members, whose supports stay
    clear of the ring, boxes that reach into it across rows, columns or a
    corner, and the zero field."""
    seen = []
    monkeypatch.setattr(identity, "warn_boundary_mass", lambda m, **_: seen.append(m))
    g = grid_default
    fields = [m.sample(g) for m in suite20]
    fields += [_boxed(g, rows, cols, k) for k, (rows, cols) in enumerate([
        (slice(2, 40), slice(100, 150)), (slice(100, 150), slice(230, 256)),
        (slice(240, 256), slice(0, 20)), (slice(120, 130), slice(0, 256))])]
    fields.append(Field(g, np.zeros((g.n, g.n), dtype=complex)))
    for v in fields:
        verify_norm_identity(v, fock_weight(1.0))
    want = [boundary_mass(v) for v in fields]
    assert seen == want
    assert want[:20] == [0.0] * 20 and min(want[20:24]) > 0.1 and want[-1] == 0.0
