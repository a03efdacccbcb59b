import contextlib
import sys
import threading
import tracemalloc
from dataclasses import replace
from math import lgamma, pi, sqrt

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
from dbarkit.weights import EXP_CAP
from oracles import (U, check_hormander_bound_full_grid, fft_convolution_bound, fft_error, gamma,
                     solve_sides_full_grid)


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


def fock_bergman_project_loop(u, terms=solver.FOCK_TERMS):
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


def test_cauchy_of_the_zero_datum_is_zero():
    # no nonzero row: the row spectrum's rows are an empty view of the buffer
    n = 1024
    u = cauchy_transform(Field(build_grid(6.0, n), np.zeros((n, n), dtype=complex))).values
    assert u.shape == (n, n) and u.base.size == n * n
    assert not np.any(u)


def test_cauchy_result_holds_no_pad(member):
    u = cauchy_transform(member.sample_dbar(build_grid(6.0, 64)))
    a = u.values
    while a is not None:  # no array the values view reaches is the 2n x 2n pad
        assert a.size == 64 * 64
        a = a.base


@pytest.mark.parametrize("n", [8, 9])
def test_cauchy_under_a_tracer_that_reads_frame_locals(n):
    # as pdb does at a breakpoint: on Python 3.11 the frame keeps a snapshot
    # of its locals, which holds the buffer, so the buffer cannot shrink
    f = dense_datum(build_grid(6.0, n))
    ref = cauchy_transform(f).values
    code = cauchy_transform.__code__

    def tracer(frame, event, arg):
        if frame.f_code is code:
            frame.f_locals
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        out = cauchy_transform(f).values
    finally:
        sys.settrace(previous)
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))


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


def cauchy_kernel(n, h):
    """The kernel (h/pi)/(j + i k) over the offsets |j|, |k| < n, 0 at j = k =
    0, as a (2n - 1) x (2n - 1) array with offset (0, 0) at its centre."""
    j = np.arange(1 - n, n, dtype=float)
    K = j[:, None] + 1j * j[None, :]
    K[n - 1, n - 1] = 1.0
    np.divide(h / pi, K, out=K)
    K[n - 1, n - 1] = 0.0
    return K


def cauchy_pad(f):
    """The textbook Cauchy convolution: ``ifft2(fft2(K, s) * fft2(f, s))`` on
    the 2n x 2n pad, rows and columns n-1 .. 2n-2 kept."""
    n = f.grid.n
    s = (2 * n, 2 * n)
    conv = np.fft.ifft2(np.fft.fft2(cauchy_kernel(n, f.grid.spacing), s=s)
                        * np.fft.fft2(f.values, s=s))
    return conv[n - 1 : 2 * n - 1, n - 1 : 2 * n - 1]


def cauchy_fft2(f):
    """Reference Cauchy transform: the kernel's quarter spectrum and the
    convolution with the datum as whole-array numpy, which ``cauchy_transform``
    reproduces bit for bit."""
    n, h = f.grid.n, f.grid.spacing
    j = np.arange(1, n, dtype=float)[:, None]
    k = np.arange(n, dtype=float)
    even = np.zeros((n - 1, 2 * n))  # A(j, k) = j / (j^2 + k^2), even in k
    even[:, :n] = j / (j * j + k * k)
    even[:, n + 1 :] = even[:, n - 1 : 0 : -1]
    odd = np.zeros((2 * n, n + 1))  # its cosine sums, odd in j
    odd[1:n] = np.fft.rfft(even, axis=1).real
    odd[n + 1 :] = -odd[n - 1 : 0 : -1]
    Q = np.fft.rfft(odd, axis=0).imag * (h / pi)  # -(h/pi) S(p, q), p, q = 0..n
    p = np.arange(2 * n)
    S = np.where(p > n, -1.0, 1.0)[:, None] * Q[np.ix_(np.minimum(p, 2 * n - p),
                                                        np.minimum(p, 2 * n - p))]
    Khat = np.empty((2 * n, 2 * n), dtype=complex)
    Khat.real, Khat.imag = S.T, S
    conv = np.fft.ifft(np.fft.fft2(f.values, s=(2 * n, 2 * n)) * Khat, axis=0)[:n]
    return np.fft.ifft(conv, axis=1)[:, :n]


@pytest.mark.parametrize("n", [64, 300, 512, 9, 255])
def test_cauchy_is_bit_identical_to_whole_array_ffts(member, monkeypatch, n):
    # three threads from n = 300 (12 and 32 column blocks of the 2n pad)
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 3)
    f = member.sample_dbar(build_grid(6.0, n))
    ref = cauchy_fft2(f)
    out = cauchy_transform(f).values
    assert np.array_equal(out.view(np.int64), ref.view(np.int64))


# A priori rounding of the kernel's spectrum, relative to its 2-norm
# (``oracles.fft_convolution_bound``'s eps_a), with e = ``fft_error(2n)``:
# - the pad's kernel rounds (h/pi) once and divides by j + i k within
#   sqrt(2) gamma_7 (Higham 2002, Lemma 3.5); fft2 is two passes of e;
# - the quarter's A(j, k) rounds once; each of its two rfft passes is within
#   e of the full spectrum of its extension, and mirroring the half it keeps
#   at most doubles the squared error (sqrt(2) e); the scaling by h/pi rounds
#   twice.  S's two placements in the spectrum keep its relative error.
def pad_kernel_error(n):
    e = fft_error(2 * n)
    return (1 + U) * (1 + sqrt(2) * gamma(7)) * (1 + e) ** 2 - 1


def quarter_kernel_error(n):
    e = fft_error(2 * n)
    return (1 + U) * (1 + sqrt(2) * e) ** 2 * (1 + gamma(2)) - 1


def datum_error(n):
    return (1 + fft_error(2 * n)) ** 2 - 1  # fft2's two passes


def inverse_error(n):
    return ((1 + fft_error(2 * n)) * (1 + U)) ** 2 - 1  # two passes, each scaled by 1/(2n)


def dense_datum(g):
    rng = np.random.default_rng(g.n)
    return Field(g, rng.standard_normal((g.n, g.n)) + 1j * rng.standard_normal((g.n, g.n)))


@pytest.mark.parametrize("n", [8, 9, 33, 64, 300, 512])
def test_cauchy_is_the_pad_convolution_within_fft_rounding(member, n):
    # the bound is 860-38000 times the measured 2-norm distance, 2.6e-16 to
    # 4.7e-16 of the pad convolution's norm (the least margin at n = 9 for
    # the dense datum, the most at n = 512 for the dense datum): a worst-case
    # bound grows with log2(2n), the rounding seen like its square root
    g = build_grid(6.0, n)
    K = cauchy_kernel(n, g.spacing)
    for f in (member.sample_dbar(g), dense_datum(g)):
        bound = sum(fft_convolution_bound(K, f.values, 2 * n, eps_a, datum_error(n),
                                          inverse_error(n))
                    for eps_a in (pad_kernel_error(n), quarter_kernel_error(n)))
        assert np.linalg.norm(cauchy_transform(f).values - cauchy_pad(f)) <= bound


@pytest.mark.parametrize("n", [8, 9, 33, 64, 300])
def test_cauchy_kernel_spectrum_is_the_placed_kernels_fft2(n):
    # the spectrum formed from the quarter, against fft2 of the kernel placed
    # at offset (j mod 2n, k mod 2n), 0 at offset n; the bound is 63-83 times
    # the measured 2-norm distance (n = 33 and n = 300)
    h = 12.0 / n
    at = np.arange(1 - n, n) % (2 * n)
    placed = np.zeros((2 * n, 2 * n), dtype=complex)
    placed[np.ix_(at, at)] = K = cauchy_kernel(n, h)
    Q = solver._cauchy_quarter(n, h)
    Khat = solver._cauchy_spectrum(Q, slice(0, 2 * n))
    bound = (pad_kernel_error(n) + quarter_kernel_error(n)) * 2 * n * np.linalg.norm(K)
    assert np.linalg.norm(Khat - np.fft.fft2(placed)) <= bound


def test_cauchy_fft_budget(member, monkeypatch):
    # 1-D transforms only, none past the 2n pad: the datum's n rows and 2n
    # columns; the kernel's n - 1 rows and n + 1 columns of length-2n rfft;
    # the inverse's 2n columns and n rows
    n = 64
    lengths = []
    lines = {"fft": 0, "ifft": 0, "rfft": 0}
    for name in lines:
        fn = getattr(np.fft, name)

        def counted(a, _fn=fn, _name=name, **kwargs):
            axis = kwargs.get("axis", -1)
            lengths.append(kwargs.get("n") or a.shape[axis])
            lines[_name] += a.size // a.shape[axis]
            return _fn(a, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    for name in ("fft2", "ifft2", "rfft2", "irfft", "irfft2"):
        monkeypatch.setattr(np.fft, name, None)
    cauchy_transform(member.sample_dbar(build_grid(6.0, n)))
    assert max(lengths) == 2 * n
    assert lines["fft"] <= n + 2 * n
    assert lines["rfft"] == (n - 1) + (n + 1)
    assert lines["ifft"] == 2 * n + n


def test_cauchy_peak_memory(member, monkeypatch):
    # n = 512 on one thread: the n x 2n buffer, which takes the datum's row
    # spectrum in its own rows and is shrunk to the result, 8 MiB; the real
    # (n + 1)^2 quarter, 2.0 MiB; a column block's pad and spectrum, 0.5 MiB
    # each, with room for as much again for the spectrum's gathers from the
    # quarter: 12.01 MiB in all.  Measured 11.33 MiB, a margin of 0.68 MiB;
    # a separate row spectrum and a copied-out result peaked at 14.64 MiB
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 1)
    n = 512
    block = 16 * grid.BLOCK_NODES  # one column block of the 2n pad, complex
    f = member.sample_dbar(build_grid(6.0, n))
    cauchy_transform(f)  # numpy's FFT plan caches fill on the first call
    tracemalloc.start()
    try:
        cauchy_transform(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * n * 2 * n + 8 * (n + 1) ** 2 + 4 * block


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
    # past EXP_CAP, but stays near 50 on the datum's support disk and below
    # 2 cosh 6 = 403 on the probe's disks |z| <= 6
    g = build_grid(7.0, 256)
    w = custom_weight({"name": "cosh-x"})
    Z, h = g.nodes, g.spacing
    assert 2.0 * np.max(w.phi(Z)) > 1000.0
    rep = solve_dbar(member.sample_dbar(g), w)
    assert rep.h2_passes
    assert not rep.non_orthogonal_datum
    for p, table in zip(solver.UNIQUENESS_DEGREES, uniqueness_probe(g, w)):
        energies = []
        for r in solver.UNIQUENESS_RADII:
            z = Z[np.abs(Z) < r]
            dens = np.abs(z**p) ** 2 * (w.exp_phi(z, 2.0) * w.lap_hat_phi(z))
            energies.append(float(h * h * np.sum(dens)))
        assert table["energies"] == energies


@pytest.mark.parametrize("n, radius", [(9, 6.0), (255, 6.0), (256, 6.0), (256, 3.7)])
def test_solve_walks_the_support_disk_from_its_own_lines(member, fock, monkeypatch, n, radius):
    # the disk's square of axis lines gathers what a full-grid mask does, in
    # the same order, so the sides and the tail mass match it to the bit; at
    # R = 3.7 the axis is not exactly antisymmetric
    f = member.sample_dbar(build_grid(radius, n))
    with monkeypatch.context() as m:
        m.setattr(Grid, "nodes", property(lambda g: pytest.fail("Grid.nodes called")))
        rep = solve_dbar(f, fock)
    ref = solve_sides_full_grid(f, rep.u, fock)
    got = (rep.h2_lhs, rep.h2_rhs, rep.tail_mass)
    assert np.array_equal(np.array(got).view(np.int64), np.array(ref).view(np.int64))


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


@pytest.mark.parametrize("n, radius", [(47, 6.0), (48, 3.7)])
def test_projection_off_the_exact_turn_matches_dense_kernel(member, n, radius):
    # an odd n's centre node is its own four turns, a quarter block of share
    # 1/4; at n = 47 its axis value is -8.9e-16, not 0, and at R = 3.7 the
    # axis is not exactly antisymmetric, so a turned node is the stored one
    # only up to rounding (3e-14 relative)
    u = member.sample(build_grid(radius, n))
    assert gauss_norm(fock_bergman_project(u) - fock_bergman_project_dense(u)) < 1e-10


@pytest.mark.parametrize("n, radius", [(47, 6.0), (255, 6.0), (256, 3.7)])
def test_projection_off_the_exact_turn_matches_term_by_term_series(member, n, radius):
    u = member.sample(build_grid(radius, n))
    ref = fock_bergman_project_loop(u)
    assert gauss_norm(fock_bergman_project(u) - ref) < 1e-12 * gauss_norm(ref)


def test_fock_series_length_from_its_tail_bound(member):
    g = build_grid(6.0, 256)
    zero = np.zeros((256, 256), dtype=complex)
    assert solver._fock_terms(zero, g) == 0
    u = member.sample(g)
    K = solver._fock_terms(u.values, g)
    # a constant spreads its weighted mass to the corners of the square, and
    # a corner spike (|z|^2 = 70.6) needs more terms than the cap
    corner = zero.copy()
    corner[0, 0] = 1.0
    assert 0 < K < solver._fock_terms(zero + 1.0, g) < solver.FOCK_TERMS
    assert solver._fock_terms(corner, g) == solver.FOCK_TERMS
    # the terms past K are within rounding of the weighted norm
    ref = fock_bergman_project_loop(u)
    assert gauss_norm(fock_bergman_project_loop(u, K) - ref) < 1e-16 * gauss_norm(ref)


@pytest.mark.parametrize("n", [255, 256, 512])
def test_bound_sides_match_the_full_grid_oracle(member, fock, n):
    f = member.sample_dbar(build_grid(6.0, n))
    ref = check_hormander_bound_full_grid(f, fock)
    rep = check_hormander_bound(f, fock)
    assert abs(rep.h1_lhs / ref.h1_lhs - 1.0) <= 1e-14
    assert abs(rep.h1_rhs / ref.h1_rhs - 1.0) <= 1e-14
    assert abs(rep.projection_idempotence_err - ref.projection_idempotence_err) <= 1e-15
    assert rep.passes == ref.passes


def test_bound_peak_memory(member, fock, monkeypatch):
    # n = 1024 on two usable CPUs: 28.5 MiB (the spectral inverse's 16 MiB
    # and each thread's block arrays), against 73.0 MiB over full-grid arrays
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 2)
    f = member.sample_dbar(build_grid(6.0, 1024))
    tracemalloc.start()
    try:
        check_hormander_bound(f, fock)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 36 * 2**20


@pytest.mark.parametrize("datum", ["member", "spectral-inverse"])
def test_projection_matches_term_by_term_series(grid_default, member, compliant, datum):
    u = member.sample(grid_default) if datum == "member" else dbar_invert_spectral(compliant)
    ref = fock_bergman_project_loop(u)
    assert gauss_norm(fock_bergman_project(u) - ref) < 1e-12 * gauss_norm(ref)


@pytest.fixture(scope="module")
def inverse1024(member):
    # the quarter's 512 rows make eight blocks of 64 rows: three CPUs give
    # three threads (at n = 512 the quarter has two blocks)
    return dbar_invert_spectral(member.sample_dbar(build_grid(6.0, 1024)))


def _block_threads(monkeypatch):
    """Wrap the coefficients' block kernel so the test records the threads it ran on."""
    seen = set()
    kernel = solver._quarter_sums

    def recorded(*args):
        seen.add(threading.current_thread())  # idents are reused once a thread ends
        return kernel(*args)

    monkeypatch.setattr(solver, "_quarter_sums", recorded)
    return seen


@contextlib.contextmanager
def _switching_often():
    """Threads switch as often as they can inside the block."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def test_projection_is_bit_identical_for_any_cpu_count(inverse1024, monkeypatch):
    seen = _block_threads(monkeypatch)
    outs = []
    with _switching_often():
        for cpus in (1, 2, 3):
            monkeypatch.setattr(grid, "_usable_cpus", lambda c=cpus: c)
            seen.clear()
            outs.append(fock_bergman_project(inverse1024).values)
            assert len(seen) == cpus
    assert np.array_equal(outs[0], outs[1])
    assert np.array_equal(outs[0], outs[2])


def test_bound_is_bit_identical_for_any_cpu_count(member, fock, monkeypatch):
    seen = _block_threads(monkeypatch)
    f = member.sample_dbar(build_grid(6.0, 1024))
    reps = []
    with _switching_often():
        for cpus in (1, 2, 3):
            monkeypatch.setattr(grid, "_usable_cpus", lambda c=cpus: c)
            seen.clear()
            reps.append(check_hormander_bound(f, fock))
            assert len(seen) == cpus
    assert reps[0] == reps[1] == reps[2]


def test_odd_grid_is_bit_identical_for_any_cpu_count(member, fock, monkeypatch):
    # n = 1023: eight quarter blocks of 64 rows or fewer and the centre's
    # block, dealt over up to three threads
    f = member.sample_dbar(build_grid(6.0, 1023))
    u = dbar_invert_spectral(f)
    seen = _block_threads(monkeypatch)
    outs = []
    with _switching_often():
        for cpus in (1, 2, 3):
            monkeypatch.setattr(grid, "_usable_cpus", lambda c=cpus: c)
            seen.clear()
            values = fock_bergman_project(u).values
            assert len(seen) == cpus
            seen.clear()
            outs.append((values, check_hormander_bound(f, fock)))
            assert len(seen) == cpus
    for values, rep in outs[1:]:
        assert np.array_equal(values, outs[0][0])
        assert rep == outs[0][1]


@pytest.mark.parametrize("n", [8, 9, 47, 255, 256])
def test_quarter_blocks_cover_every_node_once(n):
    # each block's share, added at its four turns through rot90 views: the
    # centre of an odd n is the turns' fixed point, a block of share 1/4
    cover = np.zeros((n, n))
    for rows, cols, share in solver._quarter_blocks(n):
        for m in range(4):
            np.rot90(cover, -m)[rows, cols] += share
    assert np.array_equal(cover, np.ones((n, n)))


@pytest.mark.parametrize("radius", [19.0, 1e300])
def test_projection_guard_names_the_kernel_exponent(radius):
    # e^{2 R^2} leaves the float range past R = sqrt(EXP_CAP / 2) = 18.7; at
    # R = 1e300, R^2 itself would overflow before any comparison
    u = Field(build_grid(radius, 8), np.zeros((8, 8)))
    with pytest.raises(DynamicRangeError, match="kernel exponent exceeds dynamic range"):
        fock_bergman_project(u)


def test_two_block_grid_stays_on_the_callers_thread(grid_default, member, monkeypatch):
    # n = 256: two blocks of whole rows for the tail bound, one of the quarter
    seen = _block_threads(monkeypatch)
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 4)
    fock_bergman_project(member.sample(grid_default))
    assert seen == {threading.current_thread()}


def test_projection_blocks_of_uneven_rows_match_the_series(member):
    # the quarter's 300 rows of 300 nodes at n = 600 make blocks of 109, 109
    # and 82 rows
    u = member.sample(build_grid(6.0, 600))
    ref = fock_bergman_project_loop(u)
    assert gauss_norm(fock_bergman_project(u) - ref) < 1e-12 * gauss_norm(ref)


@pytest.mark.parametrize("failing", [0, 5])  # a block of the caller's thread, one of a worker's
def test_projection_block_failure_reaches_the_caller(inverse1024, monkeypatch, failing):
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 3)
    kernel = solver._quarter_sums
    first_row = 512 + 64 * failing  # the quarter starts at row n - n//2

    def flaky(v, x, block, *args):
        if block[0].start == first_row:
            raise RuntimeError(f"block {failing} failed")
        return kernel(v, x, block, *args)

    monkeypatch.setattr(solver, "_quarter_sums", flaky)
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match=f"block {failing} failed"):
        fock_bergman_project(inverse1024)
    assert threading.active_count() == baseline


def test_projection_builds_no_node_array(inverse1024, monkeypatch):
    def no_nodes(grid):
        raise AssertionError("Grid.nodes called")

    monkeypatch.setattr(Grid, "nodes", property(no_nodes))
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 2)
    assert np.all(np.isfinite(fock_bergman_project(inverse1024).values))


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
    d = uniqueness_probe(grid_default, fock)[p]
    assert d["p"] == p
    assert d["monotone"]
    assert d["growth_ratio"] > 1e3


@pytest.mark.parametrize("n, radius", [(256, 6.0), (255, 6.0), (256, 3.7)])
def test_uniqueness_probe_degrees_share_one_call(fock, monkeypatch, n, radius):
    # each degree's table is that of its own pass over the grid's disk masks,
    # to the bit, with no full-grid node array made
    g = build_grid(radius, n)
    with monkeypatch.context() as m:
        m.setattr(Grid, "nodes", property(lambda g: pytest.fail("Grid.nodes called")))
        tables = uniqueness_probe(g, fock)
    assert [t["p"] for t in tables] == list(solver.UNIQUENESS_DEGREES)
    Z, h = g.nodes, g.spacing
    density = fock.exp_phi(Z, 2.0) * fock.sample_lap_hat(g)
    for p, table in zip(solver.UNIQUENESS_DEGREES, tables):
        dens = np.abs(Z**p) ** 2 * density
        energies = [float(h * h * np.sum(dens[np.abs(Z) < r])) for r in solver.UNIQUENESS_RADII]
        assert table["radii"] == list(solver.UNIQUENESS_RADII)
        assert table["energies"] == energies
        assert table["growth_ratio"] == energies[-1] / energies[0]


def test_uniqueness_probe_overflow_guard(grid_default):
    with pytest.raises(DynamicRangeError) as exc:
        uniqueness_probe(grid_default, fock_weight(30.0))
    assert exc.value.node_index is not None


def _right_half_overflow():
    """fock(1) but for phi = 400 where x > 1: 2 phi passes EXP_CAP there only,
    so the disks' first offending block is not their first block."""
    w = fock_weight(1.0)
    return replace(w, name="right", phi=lambda z: np.where(z.real > 1.0, 400.0, w.phi(z)))


def _disk_nodes(g, r):
    """The nodes of the full grid with |z| <= r, in row-major order."""
    Z = g.nodes
    return Z[np.abs(Z) <= r]


@pytest.mark.parametrize("n, spec", [(64, {"name": "fock", "t": 200.0}), (64, None),
                                     (512, None)])
def test_solve_overflow_guard_names_a_disk_node(member, n, spec):
    # node_index is a flat index into the support disk's row-major node list,
    # the earlier blocks' nodes counted, and 2 phi passes EXP_CAP at that node
    g = build_grid(6.0, n)
    w = custom_weight(spec) if spec else _right_half_overflow()
    f = member.sample_dbar(g)
    with pytest.raises(DynamicRangeError, match="2 phi reaches") as exc:
        solve_dbar(f, w)
    z = _disk_nodes(g, support_radius(f) + 2.0 * g.spacing)[exc.value.node_index]
    assert 2.0 * w.phi(z) > EXP_CAP
    assert spec or z.real > 1.0


@pytest.mark.parametrize("n", [64, 256])
def test_uniqueness_overflow_guard_names_a_disk_node(n):
    g = build_grid(6.0, n)
    w = _right_half_overflow()
    with pytest.raises(DynamicRangeError) as exc:
        uniqueness_probe(g, w)
    z = _disk_nodes(g, max(solver.UNIQUENESS_RADII))[exc.value.node_index]
    assert 2.0 * w.phi(z) > EXP_CAP and z.real > 1.0


def _sharpness_datum(n):
    """-z e^{-|z|^2} on the R = 6 grid of n nodes a side, dense to the corners."""
    return sample(lambda z: -z * np.exp(-np.abs(z) ** 2), build_grid(6.0, n))


# one block's working set: four complex arrays of ``BLOCK_NODES`` nodes, about
# the most a row block, disk block or moment-fold block keeps alive at once
BLOCK_SET = 4 * 16 * grid.BLOCK_NODES


def test_solve_streams_the_dense_disk_to_the_bit(fock):
    # at n = 512 the support disk of the dense sharpness datum spans 31 blocks
    f = _sharpness_datum(512)
    rep = solve_dbar(f, fock)
    ref = solve_sides_full_grid(f, rep.u, fock)
    got = (rep.h2_lhs, rep.h2_rhs, rep.tail_mass)
    assert np.array_equal(np.array(got).view(np.int64), np.array(ref).view(np.int64))


def test_solve_peak_memory(fock, monkeypatch):
    # n = 512 on one thread, the dense sharpness datum: u and the residual's
    # spectral buffer, 4 MiB each, the two disk-length term vectors, 2.9 MiB,
    # and one block's working set, 2 MiB: 12.9 MiB in all.  Measured 8.76 MiB
    # (u and the residual's buffer with a row block's symbol and product), a
    # margin of 4.1 MiB; the gathered disk with n x n residual, magnitude and
    # index arrays peaked at 24.09 MiB
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 1)
    n = 512
    f = _sharpness_datum(n)
    size = grid._disk(f.grid, support_radius(f) + 2.0 * f.grid.spacing).size
    solve_dbar(f, fock)  # numpy's FFT plan caches fill on the first call
    tracemalloc.start()
    try:
        solve_dbar(f, fock)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 16 * n * n + 2 * 8 * size + BLOCK_SET


def test_uniqueness_probe_peak_memory(fock, monkeypatch):
    # n = 512 on one thread: over the |z| <= 6 disk's nodes, the density and
    # one degree's density vector, six |z| < r masks and one masked gather,
    # 30 bytes a node, 5.9 MiB; and one block's working set, 2 MiB: 7.9 MiB in
    # all.  Measured 6.19 MiB, a margin of 1.7 MiB; the gathered disk with its
    # nodes and a box of nodes and moduli peaked at 14.00 MiB
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 1)
    g = build_grid(6.0, 512)
    size = grid._disk(g, max(solver.UNIQUENESS_RADII)).size
    uniqueness_probe(g, fock)
    tracemalloc.start()
    try:
        uniqueness_probe(g, fock)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30 * size + BLOCK_SET


def test_uniqueness_probe_rejects_bad_inputs(grid_default, fock):
    with pytest.raises(WeightInvariantViolationError):
        uniqueness_probe(grid_default, custom_weight({"name": "quartic"}))
