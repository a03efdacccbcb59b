import sys
import threading
import tracemalloc
from math import lgamma, pi

import numpy as np
import pytest

from dbarkit import build_grid, custom_weight, fock_weight, grid, sample, solver
from dbarkit.bumps import random_suite
from dbarkit.errors import DynamicRangeError, InvalidArgumentError, WeightInvariantViolationError
from dbarkit.grid import Field, Grid
from dbarkit.solver import (
    cauchy_transform,
    check_hormander_bound,
    dbar_invert_spectral,
    fock_bergman_project,
    solve_dbar,
    support_radius,
    uniqueness_probe,
)


@pytest.fixture(scope="module")
def member():
    return random_suite(1, 42)[0]


@pytest.fixture(scope="module")
def compliant(grid_default, member):
    # the derivative of a compactly supported field has all moments zero
    return member.sample_dbar(grid_default)


@pytest.fixture(scope="module")
def fock():
    return fock_weight(1.0)


def cauchy_dense(f, chunk=512):
    """Reference Cauchy quadrature: the literal O(N^2) sum over source nodes,
    diagonal cell -> 0."""
    g = f.grid
    z = g.nodes.reshape(-1)
    vals = f.values.reshape(-1) * (g.spacing**2 / pi)
    out = np.empty(z.shape, dtype=complex)
    for i in range(0, z.size, chunk):
        d = z[i : i + chunk, None] - z[None, :]
        invd = np.zeros_like(d)
        nz = d != 0
        invd[nz] = 1.0 / d[nz]
        out[i : i + chunk] = invd @ vals
    return Field(g, out.reshape(g.n, g.n))


def fock_bergman_project_dense(u):
    """Reference Fock projection: the literal kernel quadrature
    (1/pi) sum e^{z conj(w)} u(w) e^{-|w|^2} h^2, O(N^2) memory and time."""
    g = u.grid
    z = g.nodes.reshape(-1)
    src = u.values.reshape(-1) * np.exp(-np.abs(z) ** 2) * (g.spacing**2 / pi)
    K = np.exp(z[:, None] * np.conj(z)[None, :])
    return Field(g, (K @ src).reshape(g.n, g.n))


def fock_bergman_project_loop(u, terms=120):
    """Reference Fock projection: the series sum_k <u, e_k> e_k over the
    orthonormal monomials e_k = z^k / sqrt(pi k!), term by term with
    full-grid monomial arrays."""
    g = u.grid
    Z = g.nodes
    h = g.spacing
    gauss = np.exp(-(Z.real**2 + Z.imag**2))
    out = np.zeros_like(Z)
    mono = np.ones_like(Z)
    monoc = np.ones_like(Z)
    Zc = np.conj(Z)
    for k in range(terms + 1):
        norm = np.exp(-0.5 * (lgamma(k + 1) + np.log(pi)))
        coeff = h * h * np.sum(monoc * u.values * gauss) * norm
        out += coeff * norm * mono
        mono = mono * Z
        monoc = monoc * Zc
    return Field(g, out)


def gauss_norm(field):
    g = field.grid
    w = np.exp(-np.abs(g.nodes) ** 2)
    return float(np.sqrt(g.spacing**2 * np.sum(np.abs(field.values) ** 2 * w)))


def test_support_radius_examples(grid_default, member):
    zero = Field(grid_default, np.zeros((256, 256), dtype=complex))
    assert support_radius(zero) == 0.0
    r = support_radius(member.sample(grid_default))
    assert abs(r - member.support_radius) < 0.2


def test_cauchy_of_zero_is_zero(grid_small):
    zero = Field(grid_small, np.zeros((64, 64), dtype=complex))
    assert np.all(cauchy_transform(zero).values == 0)


def test_cauchy_dense_matches_fft(member):
    g = build_grid(6.0, 64)
    f = member.sample_dbar(g)
    ud = cauchy_dense(f)
    uf = cauchy_transform(f)
    assert np.max(np.abs((ud - uf).values)) < 1e-10


def test_cauchy_result_holds_no_pad(member):
    u = cauchy_transform(member.sample_dbar(build_grid(6.0, 64)))
    a = u.values
    while a is not None:  # no array the values view reaches is the 2n x 2n pad
        assert a.size == 64 * 64
        a = a.base


@pytest.mark.parametrize("n", [9, 16, 33])
def test_cauchy_corner_spikes_do_not_wrap(n):
    # a spike at a corner node reaches the opposite corner through the
    # longest kernel offset, the entry a too-short pad would alias first
    g = build_grid(6.0, n)
    for j, k in [(0, 0), (0, n - 1), (n - 1, 0), (n - 1, n - 1), (n // 2, n // 2)]:
        spike = np.zeros((n, n), dtype=complex)
        spike[j, k] = 1.0
        f = Field(g, spike)
        assert np.max(np.abs((cauchy_transform(f) - cauchy_dense(f)).values)) < 1e-12


def cauchy_fft2(f):
    """Reference Cauchy transform: the whole-array 2-D FFTs on the 2n x 2n pad
    that ``cauchy_transform`` reproduces bit for bit."""
    n, h = f.grid.n, f.grid.spacing
    s = (2 * n, 2 * n)
    j = np.arange(1 - n, n, dtype=float)
    K = j[:, None] + 1j * j[None, :]
    K[n - 1, n - 1] = 1.0
    np.divide(h / pi, K, out=K)
    K[n - 1, n - 1] = 0.0
    K = np.fft.fft2(K, s=s)
    K *= np.fft.fft2(f.values, s=s)
    conv = np.fft.ifft2(K)
    return conv[n - 1 : 2 * n - 1, n - 1 : 2 * n - 1]


@pytest.mark.parametrize("n", [64, 300, 512])
def test_cauchy_is_bit_identical_to_whole_array_ffts(member, monkeypatch, n):
    # three threads from n = 300 (12 and 32 row blocks of the 2n pad)
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 3)
    f = member.sample_dbar(build_grid(6.0, n))
    ref = cauchy_fft2(f)
    out = cauchy_transform(f).values
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))


def test_cauchy_fft_budget(member, monkeypatch):
    # 1-D transforms only, none past the 2n pad: the datum's n rows and 2n
    # columns, the kernel's 2n - 1 rows and 2n columns, and the inverse's 2n
    # rows and n kept columns
    n = 64
    lengths = []
    lines = {"fft": 0, "ifft": 0}
    for name in ("fft", "ifft"):
        fn = getattr(np.fft, name)

        def counted(a, *args, _fn=fn, _name=name, **kwargs):
            out = _fn(a, *args, **kwargs)
            length = out.shape[kwargs.get("axis", -1)]
            lengths.append(length)
            lines[_name] += out.size // length
            return out

        monkeypatch.setattr(np.fft, name, counted)
    for name in ("fft2", "ifft2"):
        monkeypatch.setattr(np.fft, name, None)
    cauchy_transform(member.sample_dbar(build_grid(6.0, n)))
    assert max(lengths) <= 2 * n
    assert lines["fft"] <= (n + 2 * n) + (2 * n + 2 * n)
    assert lines["ifft"] <= 2 * n + n


def test_cauchy_peak_memory(member, monkeypatch):
    # n = 256 on one thread: the kernel's 2n x 2n spectrum and the datum's
    # n x 2n row pass peak at 6.8 MiB; two 2n x 2n spectra peaked at 9.1 MiB
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 1)
    f = member.sample_dbar(build_grid(6.0, 256))
    cauchy_transform(f)  # numpy's FFT plan caches fill on the first call
    tracemalloc.start()
    try:
        cauchy_transform(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_cauchy_converges_to_exact_inverse(member):
    errs = []
    for n in [64, 128]:
        g = build_grid(6.0, n)
        u = cauchy_transform(member.sample_dbar(g))
        errs.append(np.max(np.abs((u - member.sample(g)).values)))
    assert np.log2(errs[0] / errs[1]) > 1.0  # at least first order
    assert errs[1] < 0.2


def test_spectral_solve_compliant(grid_default, member, compliant, fock):
    rep = solve_dbar(compliant, fock)
    assert not rep.non_orthogonal_datum
    assert rep.moment_rel_max < 1e-6
    assert rep.residual_inf < 1e-6
    # the decaying solution vanishes outside the support disk
    assert rep.tail_mass < 1e-3
    # and agrees with the field whose derivative was taken
    err = np.max(np.abs((rep.u - member.sample(grid_default)).values))
    assert err < 1e-3


def test_spectral_solve_bound_holds(compliant, fock):
    rep = solve_dbar(compliant, fock)
    assert rep.h2_passes
    assert rep.h2_lhs <= rep.h2_rhs * 1.01


def test_spectral_solve_growing_weights(compliant):
    for spec in [{"name": "fock", "t": 0.5}, {"name": "cosh-x"}]:
        rep = solve_dbar(compliant, custom_weight(spec))
        assert rep.h2_passes


def test_solve_guards_e2phi_on_support_disk_only(member):
    # at R = 7, 2 cosh(x) reaches about 1067 at the corners of the square,
    # past EXP_CAP, but stays near 50 on the datum's support disk
    g = build_grid(7.0, 256)
    w = custom_weight({"name": "cosh-x"})
    assert 2.0 * np.max(w.phi(g.nodes)) > 1000.0
    rep = solve_dbar(member.sample_dbar(g), w)
    assert rep.h2_passes
    assert not rep.non_orthogonal_datum
    with pytest.raises(DynamicRangeError):
        uniqueness_probe(g, w, 1)


def test_gaussian_datum_is_flagged(grid_default, gaussian_field, fock):
    rep = solve_dbar(gaussian_field, fock)
    assert rep.non_orthogonal_datum
    assert rep.moment_rel_max > 0.1


def test_sharpness_of_constant_half(fock):
    # f = -z e^{-|z|^2} solves dbar u = f with u = e^{-|z|^2}; both sides of
    # the bound then equal pi, so the constant 1/2 cannot be improved
    g = build_grid(6.0, 256)
    f = sample(lambda z: -z * np.exp(-np.abs(z) ** 2), g)
    rep = solve_dbar(f, fock)
    assert abs(rep.h2_lhs - np.pi) < 1e-8
    assert abs(rep.h2_rhs - np.pi) < 1e-8
    assert abs(rep.h2_lhs / rep.h2_rhs - 1.0) < 1e-8


def test_spectral_inverse_left_inverse(grid_default, member):
    from dbarkit.diffops import dbar, interior_max

    u = dbar_invert_spectral(member.sample_dbar(grid_default))
    res = dbar(u, "spectral") - member.sample_dbar(grid_default)
    assert interior_max(res, extra_band=2) < 1e-6


def test_projection_fixes_constants(grid_default):
    one = Field(grid_default, np.ones((256, 256), dtype=complex))
    p1 = fock_bergman_project(one)
    assert gauss_norm(p1 - one) < 1e-9
    inner = np.abs(grid_default.nodes) < 4
    assert np.max(np.abs(p1.values - 1.0)[inner]) < 1e-6


def test_projection_kills_antianalytic(grid_default):
    zb = Field(grid_default, np.conj(grid_default.nodes))
    assert gauss_norm(fock_bergman_project(zb)) < 1e-9


def test_projection_idempotent(grid_default, member):
    u = member.sample(grid_default)
    pu = fock_bergman_project(u)
    assert gauss_norm(fock_bergman_project(pu) - pu) < 1e-7


def test_projection_self_adjoint(grid_default):
    g = grid_default
    gauss = np.exp(-np.abs(g.nodes) ** 2)
    mem = random_suite(2, seed=5)
    u = mem[0].sample(g)
    v = mem[1].sample(g)

    def ip(a, b):
        return g.spacing**2 * np.sum(a.values * np.conj(b.values) * gauss)

    lhs = ip(fock_bergman_project(u), v)
    rhs = ip(u, fock_bergman_project(v))
    assert abs(lhs - rhs) / abs(rhs) < 1e-10


def test_projection_series_matches_dense_kernel(member):
    g = build_grid(6.0, 48)
    u = member.sample(g)
    ps = fock_bergman_project(u)
    pd = fock_bergman_project_dense(u)
    assert gauss_norm(ps - pd) < 1e-10


@pytest.mark.parametrize("datum", ["member", "spectral-inverse"])
def test_projection_matches_term_by_term_series(grid_default, member, compliant, datum):
    u = member.sample(grid_default) if datum == "member" else dbar_invert_spectral(compliant)
    ref = fock_bergman_project_loop(u)
    assert gauss_norm(fock_bergman_project(u) - ref) < 1e-12 * gauss_norm(ref)


@pytest.fixture(scope="module")
def inverse512(member):
    # eight row blocks of 64 rows: three CPUs give three threads
    return dbar_invert_spectral(member.sample_dbar(build_grid(6.0, 512)))


def _block_threads(monkeypatch):
    """Wrap the block kernel so the test records the threads it ran on."""
    seen = set()
    kernel = solver._monomial_sums

    def recorded(*args):
        seen.add(threading.current_thread())  # idents are reused once a thread ends
        return kernel(*args)

    monkeypatch.setattr(solver, "_monomial_sums", recorded)
    return seen


def test_projection_is_bit_identical_for_any_cpu_count(inverse512, monkeypatch):
    seen = _block_threads(monkeypatch)
    outs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch as often as they can
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(grid, "_usable_cpus", lambda c=cpus: c)
            seen.clear()
            outs.append(fock_bergman_project(inverse512).values)
            assert len(seen) == cpus
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


def test_two_block_grid_stays_on_the_callers_thread(grid_default, member, monkeypatch):
    seen = _block_threads(monkeypatch)
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 4)
    fock_bergman_project(member.sample(grid_default))
    assert seen == {threading.current_thread()}


def test_projection_blocks_of_uneven_rows_match_the_series(member):
    # 300 rows make blocks of 109, 109 and 82 rows
    u = member.sample(build_grid(6.0, 300))
    ref = fock_bergman_project_loop(u)
    assert gauss_norm(fock_bergman_project(u) - ref) < 1e-12 * gauss_norm(ref)


@pytest.mark.parametrize("failing", [0, 5])  # a block of the caller's thread, one of a worker's
def test_projection_block_failure_reaches_the_caller(inverse512, monkeypatch, failing):
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 3)
    kernel = solver._monomial_sums
    first_x = inverse512.grid.axis[64 * failing]

    def flaky(z, *args):
        if z[0, 0].real == first_x:
            raise RuntimeError(f"block {failing} failed")
        return kernel(z, *args)

    monkeypatch.setattr(solver, "_monomial_sums", flaky)
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match=f"block {failing} failed"):
        fock_bergman_project(inverse512)
    assert threading.active_count() == baseline


def test_projection_builds_no_node_array(inverse512, monkeypatch):
    def no_nodes(grid):
        raise AssertionError("Grid.nodes called")

    monkeypatch.setattr(Grid, "nodes", property(no_nodes))
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 2)
    assert np.all(np.isfinite(fock_bergman_project(inverse512).values))


def test_minimal_solution_bound(compliant, fock):
    rep = check_hormander_bound(compliant, fock)
    assert rep.passes
    assert rep.h1_lhs <= rep.h1_rhs * 1.01
    assert rep.projection_idempotence_err < 1e-6


def test_minimal_solution_bound_zero_datum(grid_default, fock):
    zero = Field(grid_default, np.zeros((256, 256), dtype=complex))
    rep = check_hormander_bound(zero, fock)
    assert rep.h1_lhs == 0.0
    assert rep.passes


def test_minimal_solution_bound_fock_only(compliant):
    with pytest.raises(InvalidArgumentError):
        check_hormander_bound(compliant, custom_weight({"name": "cosh-x"}))
    with pytest.raises(InvalidArgumentError):
        check_hormander_bound(compliant, fock_weight(2.0))


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_uniqueness_probe_energies_blow_up(grid_default, fock, p):
    d = uniqueness_probe(grid_default, fock, p)
    assert d["monotone"]
    assert d["growth_ratio"] > 1e3


def test_uniqueness_probe_degrees_share_one_call(grid_default, fock):
    radii = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    tables = uniqueness_probe(grid_default, fock, range(4), radii=radii)
    assert tables == [uniqueness_probe(grid_default, fock, p, radii=radii) for p in range(4)]
    with pytest.raises(InvalidArgumentError):
        uniqueness_probe(grid_default, fock, [0, 4])


def test_uniqueness_probe_zero_amplitude(grid_default, fock):
    d = uniqueness_probe(grid_default, fock, 1, amplitude=0.0)
    assert d["energies"][-1] == 0.0
    assert d["growth_ratio"] == 0.0


def test_uniqueness_probe_overflow_guard(grid_default):
    with pytest.raises(DynamicRangeError) as exc:
        uniqueness_probe(grid_default, fock_weight(30.0), 1)
    assert exc.value.node_index is not None


def test_uniqueness_probe_rejects_bad_inputs(grid_default, fock):
    with pytest.raises(InvalidArgumentError):
        uniqueness_probe(grid_default, fock, 4)
    with pytest.raises(WeightInvariantViolationError):
        uniqueness_probe(grid_default, custom_weight({"name": "quartic"}), 1)
