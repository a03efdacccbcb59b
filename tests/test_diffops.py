import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbarkit import build_grid, grid, sample
from dbarkit.bumps import BumpPoly, Poly2
from dbarkit.diffops import _fft2, dbar, interior_max, laplacian_hat
from dbarkit.errors import InvalidArgumentError
from dbarkit.grid import Field
from oracles import FD4_BAND, SCHEMES, dbar_and_del, fd4_dbar, integrate


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
def windowed():
    return build_grid(6.0, 256), radial_window(1.5, 4.0)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_dbar_of_zbar_window(windowed, scheme):
    g, w = windowed
    v = sample(lambda z: np.conj(z) * w(z), g)
    out = SCHEMES[scheme].dbar(v)
    m = plateau_mask(g)
    assert np.max(np.abs(out.values[m] - 1.0)) < 1e-6


@pytest.mark.parametrize("scheme", SCHEMES)
def test_dbar_kills_analytic(windowed, scheme):
    g, w = windowed
    v = sample(lambda z: z * w(z), g)
    out = SCHEMES[scheme].dbar(v)
    assert np.max(np.abs(out.values[plateau_mask(g)])) < 1e-6


@pytest.mark.parametrize("scheme", SCHEMES)
def test_dbar_of_abs2(windowed, scheme):
    g, w = windowed
    v = sample(lambda z: np.abs(z) ** 2 * w(z), g)
    out = SCHEMES[scheme].dbar(v)
    m = plateau_mask(g)
    assert np.max(np.abs(out.values[m] - g.nodes[m])) < 1e-5


@pytest.mark.parametrize("scheme", SCHEMES)
def test_del_examples(windowed, scheme):
    g, w = windowed
    m = plateau_mask(g)
    delz = SCHEMES[scheme].delz
    v = sample(lambda z: z * w(z), g)
    assert np.max(np.abs(delz(v).values[m] - 1.0)) < 1e-6
    v2 = sample(lambda z: np.conj(z) * w(z), g)
    assert np.max(np.abs(delz(v2).values[m])) < 1e-6


@pytest.mark.parametrize("scheme", SCHEMES)
def test_laplacian_examples(windowed, scheme):
    g, w = windowed
    m = plateau_mask(g)
    lap = SCHEMES[scheme].laplacian_hat
    v = sample(lambda z: np.abs(z) ** 2 * w(z), g)
    assert np.max(np.abs(lap(v).values[m] - 1.0)) < 1e-5
    vh = sample(lambda z: np.real(z**2) * w(z), g)
    assert np.max(np.abs(lap(vh).values[m])) < 1e-5


@pytest.mark.parametrize("scheme", SCHEMES)
@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_conjugation_identity_bitexact(scheme, seed):
    g = build_grid(2.0, 16)
    rng = np.random.default_rng(seed)
    v = Field(g, rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16)))
    a = SCHEMES[scheme].delz(v.conj())
    b = SCHEMES[scheme].dbar(v).conj()
    assert np.array_equal(a.values, b.values)


def test_unknown_scheme_rejected():
    g = build_grid(2.0, 16)
    v = Field(g, np.zeros((16, 16), dtype=complex))
    for scheme in ("fd2", "fd4"):  # fd4 lives in the tests' oracles only
        with pytest.raises(InvalidArgumentError):
            dbar(v, scheme)


@pytest.fixture(scope="module")
def bump_member():
    return BumpPoly(0.4 + 0.2j, 2.2, Poly2.from_dict({(0, 0): 1.0, (2, 1): 0.5}))


def factorization_err(v, scheme):
    s = SCHEMES[scheme]
    lhs = s.laplacian_hat(v)
    rhs = s.delz(s.dbar(v))
    return interior_max(lhs - rhs, extra_band=s.band + 2)


def gaussian_on(n):
    return sample(lambda z: np.exp(-np.abs(z) ** 2), build_grid(6.0, n))


def cross_scheme_errs(field_on):
    """Sup of spectral minus fd4 dbar at n = 128 and 256."""
    return [interior_max(dbar(v) - fd4_dbar(v), extra_band=FD4_BAND + 2)
            for v in map(field_on, (128, 256))]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_factorization_consistency_converges(scheme):
    errs = [factorization_err(gaussian_on(n), scheme) for n in (128, 256)]
    if scheme == "spectral":
        assert errs[1] < 1e-12  # superalgebraic
    else:
        assert np.log2(errs[0] / errs[1]) > 3.5  # 4th-order stencils


def test_factorization_on_bump_decreases(bump_member):
    # the bump's edge derivatives are steep, so only monotone decay is
    # asserted at these resolutions
    errs = [factorization_err(bump_member.sample(build_grid(6.0, n)), "fd4")
            for n in (128, 256)]
    assert errs[1] < errs[0]


def test_discrete_derivative_integrates_to_zero(bump_member):
    # centered stencils and the zero-mean spectral symbol both make the
    # discrete integral of a derivative vanish to roundoff
    for s in SCHEMES.values():
        for n in [128, 256]:
            g = build_grid(6.0, n)
            assert abs(integrate(s.dbar(bump_member.sample(g)))) < 1e-12


def test_cross_scheme_agreement_gaussian():
    errs = cross_scheme_errs(gaussian_on)
    assert np.log2(errs[0] / errs[1]) > 3.5  # fd4 error dominates


def test_cross_scheme_agreement_bump(bump_member):
    errs = cross_scheme_errs(lambda n: bump_member.sample(build_grid(6.0, n)))
    assert errs[1] < errs[0]


def test_discrete_dbar_matches_closed_form(bump_member):
    errs = []
    for n in [256, 512]:
        g = build_grid(6.0, n)
        v = bump_member.sample(g)
        exact = bump_member.sample_dbar(g)
        errs.append(interior_max(dbar(v) - exact))
    assert errs[1] < errs[0]
    assert errs[1] < 1e-5


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


def _bit_identical(a, b):
    return a.shape == b.shape and np.array_equal(_bits(a), _bits(b))


@pytest.mark.parametrize("n", [8, 256, 300, 1024])
def test_fft2_helper_is_numpys_fft2_for_any_cpu_count(n, monkeypatch):
    # 300 rows make row and column blocks of 109, 109 and 82
    rng = np.random.default_rng(n)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    sym = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    V = np.fft.fft2(a)
    refs = (V, np.fft.ifft2(sym * V))
    seen = set()

    def rows(r):
        seen.add(threading.current_thread())  # idents are reused once a thread ends
        return a[r]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads switch as often as they can
    try:
        for cpus in (1, 2, 3):
            monkeypatch.setattr(grid, "_usable_cpus", lambda c=cpus: c)
            seen.clear()
            outs = (_fft2(rows, a.shape),
                    _fft2(lambda r: sym[r] * V[r], a.shape, inverse=True))
            assert all(_bit_identical(o, ref) for o, ref in zip(outs, refs)), cpus
            # each thread takes two blocks or more: only n = 1024 (32 row blocks) spreads
            assert len(seen) == (cpus if n == 1024 else 1)
    finally:
        sys.setswitchinterval(interval)


def test_fft2_helper_pads_and_prunes_like_numpy(monkeypatch):
    # 40 nonzero rows of width 30 in a 96 x 96 pad; the inverse's row pass alone
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 2)
    rng = np.random.default_rng(7)
    a = np.zeros((96, 30), dtype=complex)
    a[:40] = rng.standard_normal((40, 30)) + 1j * rng.standard_normal((40, 30))
    ref = np.fft.fft2(a[:40], s=(96, 96))
    out = _fft2(lambda r: a[r], (96, 96))
    assert _bit_identical(out, ref)
    inv = _fft2(lambda r: ref[r], (96, 96), inverse=True, rows_only=True)
    assert _bit_identical(inv, np.fft.ifft(ref, axis=1))


@pytest.mark.parametrize("failing", [0, 64])  # a block of the caller's thread, one of a worker's
def test_fft2_block_failure_reaches_the_caller(monkeypatch, failing):
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 3)
    a = np.ones((512, 512), dtype=complex)

    def rows(r):
        if r.start == failing:
            raise RuntimeError(f"rows {failing} failed")
        return a[r]

    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match=f"rows {failing} failed"):
        _fft2(rows, a.shape)
    assert threading.active_count() == baseline


@pytest.mark.parametrize("n", [9, 300, 512])
def test_spectral_operators_match_full_grid_symbols(bump_member, monkeypatch, n):
    # the symbols as full-grid arrays, each operator one ifft2(sym * fft2(v))
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 2)
    g = build_grid(6.0, n)
    v = bump_member.sample(g)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=g.spacing)
    sym = 0.5 * (1j * k[:, None] - k[None, :])
    V = np.fft.fft2(v.values)
    dbar_ref = np.fft.ifft2(sym * V)
    del_ref = np.fft.ifft2(np.conj(np.roll(sym[::-1, ::-1], 1, axis=(0, 1))) * V)
    lap_ref = np.fft.ifft2(-0.25 * (k[:, None] ** 2 + k[None, :] ** 2) * V)
    dv, delv = dbar_and_del(v)
    assert _bit_identical(dv.values, dbar_ref)
    assert _bit_identical(delv.values, del_ref)
    assert _bit_identical(dbar(v).values, dbar_ref)
    assert _bit_identical(laplacian_hat(v).values, lap_ref)


def test_dbar_peak_memory(bump_member, monkeypatch):
    # n = 512 on one thread: the forward spectrum, 16 n^2 bytes = 4 MiB, takes
    # its inverse in place, so a row block's symbol and product are all that
    # come beside it: measured 4.76 MiB against the 5 MiB bound; a second
    # n x n buffer for the inverse peaked at 8.76 MiB
    monkeypatch.setattr(grid, "_usable_cpus", lambda: 1)
    n = 512
    v = bump_member.sample(build_grid(6.0, n))
    dbar(v)  # numpy's FFT plan caches fill on the first call
    tracemalloc.start()
    try:
        dbar(v)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * 16 * n * n
