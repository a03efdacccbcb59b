import io
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbarkit import build_grid, grid, sample, weighted_norm_sq
from dbarkit.bumps import BumpPoly, Poly2, random_suite
from dbarkit.diffops import dbar
from dbarkit.errors import InvalidArgumentError, InvalidWeightError, SamplingError
from dbarkit.grid import CSV_CHUNK_ROWS, FLOAT_FMT, Field, field_to_csv, write_field_csv
from oracles import integrate


def test_build_grid_rejects_small_n():
    for n in (2, 8.9):  # a non-integral n is not truncated
        with pytest.raises(InvalidArgumentError):
            build_grid(1.0, n)


def test_build_grid_rejects_nonpositive_radius():
    for radius in (0.0, -2.0, float("inf"), float("nan")):
        with pytest.raises(InvalidArgumentError):
            build_grid(radius, 64)


def test_spacing_example():
    g = build_grid(6.0, 256)
    assert g.spacing == 12.0 / 256 == 0.046875


def test_node_count_and_boundary_distance():
    g = build_grid(3.0, 32)
    z = g.nodes
    assert z.size == 32 * 32
    dist = np.minimum(g.radius - np.abs(z.real), g.radius - np.abs(z.imag))
    assert np.isclose(np.min(dist), g.spacing / 2)
    assert np.all(np.abs(z.real) < g.radius)
    assert np.all(np.abs(z.imag) < g.radius)


@given(n=st.integers(4, 64).map(lambda k: 2 * k), radius=st.floats(0.5, 20.0))
@settings(max_examples=30, deadline=None)
def test_cell_centering_avoids_origin(n, radius):
    g = build_grid(radius, n)
    assert np.min(np.abs(g.nodes)) > 0


@pytest.mark.parametrize("n", [8, 9, 65])
def test_nodes_match_the_meshgrid_sum(n):
    # odd n puts a node at the origin: its signed zeros must match too
    g = build_grid(3.0, n)
    X, Y = np.meshgrid(g.axis, g.axis, indexing="ij")
    ref = X + 1j * Y
    assert np.array_equal(g.nodes.view(np.int64), ref.view(np.int64))


def horner_reference(poly, z):
    """Nested Horner in zbar for each power of z, highest first, then in z."""
    c = dict(poly.coeffs)
    zb = np.conj(z)
    out = None
    for a in range(max((a for a, _ in c), default=0), -1, -1):
        top = max((b for aa, b in c if aa == a), default=0)
        row = np.full(z.shape, c.get((a, top), 0.0), dtype=complex)
        for b in range(top - 1, -1, -1):
            row = row * zb + c.get((a, b), 0.0)
        out = row if out is None else out * z + row
    return out


def test_poly2_matches_the_term_by_term_powers():
    # random points, the four signed complex zeros, and a derivative polynomial:
    # Horner's bits, and within rounding of summing c z^a zbar^b term by term
    # (measured 6.4e-16 of sum |c| |z|^(a+b) over 22 polynomials)
    rng = np.random.default_rng(3)
    z = rng.standard_normal(4000) + 1j * rng.standard_normal(4000)
    z[:4] = [complex(0.0, 0.0), complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]
    zb = np.conj(z)
    for poly in (random_suite(1, 42)[0].poly, random_suite(1, 5)[0].poly.dz(),
                 Poly2.from_dict({(0, 0): 1.0, (2, 1): 0.5})):
        got = poly(z)
        assert np.array_equal(got.view(np.int64), horner_reference(poly, z).view(np.int64))
        terms = np.zeros(z.shape, dtype=complex)
        size = np.zeros(z.shape)
        for (a, b), c in poly.coeffs:
            terms = terms + c * z**a * zb**b
            size += abs(c) * np.abs(z) ** (a + b)
        assert np.all(np.abs(got - terms) <= 2e-15 * size)


def test_sample_zero_and_identity():
    g = build_grid(1.0, 8)
    z0 = sample(lambda z: np.zeros_like(z), g)
    assert np.all(z0.values == 0)
    zf = sample(lambda z: z, g)
    h = g.spacing
    assert zf.values[0, 0] == pytest.approx((-1 + h / 2) * (1 + 1j))


def test_sample_gaussian_range():
    g = build_grid(6.0, 64)
    f = sample(lambda z: np.exp(-np.abs(z) ** 2), g)
    assert np.all(f.values.real > 0)
    assert np.all(f.values.real <= 1)
    assert np.all(f.values.imag == 0)


def test_sample_nonfinite_raises_with_node_index():
    g = build_grid(1.0, 8)
    z0 = g.nodes[3, 5]
    with pytest.raises(SamplingError) as exc, np.errstate(divide="ignore", invalid="ignore"):
        sample(lambda z: 1.0 / (z - z0), g)
    assert exc.value.node_index == 3 * 8 + 5


def test_total_quadrature_weight():
    g = build_grid(2.5, 16)
    ones = Field(g, np.ones((16, 16), dtype=complex))
    assert integrate(ones).real == pytest.approx((2 * 2.5) ** 2, rel=1e-14)


def test_integrate_gaussian_pi():
    g = build_grid(6.0, 256)
    f = sample(lambda z: np.exp(-np.abs(z) ** 2), g)
    assert integrate(f).real == pytest.approx(np.pi, abs=1e-8)


def test_integrate_gaussian_pi_fine():
    g = build_grid(8.0, 512)
    f = sample(lambda z: np.exp(-np.abs(z) ** 2), g)
    assert abs(integrate(f).real - np.pi) < 1e-10


def test_integrate_dbar_of_bump_vanishes():
    m = BumpPoly(0.3 + 0.2j, 2.0, Poly2.from_dict({(0, 0): 1.0}))
    vals = []
    for n in [128, 256]:
        g = build_grid(6.0, n)
        vals.append(abs(integrate(m.sample_dbar(g))))
    assert vals[1] < 1e-6
    assert vals[1] < vals[0]  # aliasing tail shrinks with h
    # the discrete derivative integrates to zero by construction of the rules
    g = build_grid(6.0, 256)
    assert abs(integrate(dbar(m.sample(g)))) < 1e-12


def test_weighted_norm_sq_examples():
    g = build_grid(6.0, 256)
    v = sample(lambda z: np.exp(-np.abs(z) ** 2 / 2), g)
    assert weighted_norm_sq(v, np.ones((256, 256))) == pytest.approx(np.pi, abs=1e-8)
    zero = Field(g, np.zeros((256, 256), dtype=complex))
    assert weighted_norm_sq(zero, np.ones((256, 256))) == 0.0
    f = sample(lambda z: -z * np.exp(-np.abs(z) ** 2), g)
    w = np.exp(np.abs(g.nodes) ** 2)
    assert weighted_norm_sq(f, w) == pytest.approx(np.pi, abs=1e-8)


def test_weighted_norm_sq_rejects_nonpositive_weight():
    g = build_grid(1.0, 8)
    v = sample(lambda z: z, g)
    # zero, and NaN and +inf, which a ``<= 0`` test lets through
    for bad in (0.0, float("nan"), float("inf")):
        w = np.ones((8, 8))
        w[0, 0] = bad
        with pytest.raises(InvalidWeightError):
            weighted_norm_sq(v, w)


def test_field_shape_mismatch_rejected():
    g = build_grid(1.0, 8)
    with pytest.raises(InvalidArgumentError):
        Field(g, np.zeros((4, 4), dtype=complex))


def test_field_shares_the_complex_array_it_is_given():
    g = build_grid(1.0, 8)
    a = np.arange(64, dtype=complex).reshape(8, 8)
    v = Field(g, a)
    assert np.shares_memory(v.values, a)
    assert not v.values.flags.writeable
    assert a.flags.writeable
    with pytest.raises(ValueError):
        v.values[0, 0] = 1.0


def test_sample_works_in_row_blocks():
    # dense sampling at n = 1024 holds no full-grid node array beside its
    # 16 MiB result (32.0 MiB with one)
    g = build_grid(6.0, 1024)
    tracemalloc.start()
    try:
        sample(lambda z: np.exp(-np.abs(z) ** 2), g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 24 * 2**20
    # a scalar closed form is spread into an array of its own
    v = sample(lambda z: 2.0 + 0j, build_grid(1.0, 8))
    assert v.values.flags.c_contiguous and np.all(v.values == 2.0)


def test_csv_of_a_strided_field():
    g = build_grid(1.0, 8)
    a = sample(lambda z: z**2 + 1j / 3, g).values
    assert field_to_csv(Field(g, a.T)) == field_to_csv(Field(g, a.T.copy()))


def test_csv_dump_format_and_determinism():
    g = build_grid(1.0, 8)
    v = sample(lambda z: z**2 + 1j / 3, g)
    text = field_to_csv(v)
    lines = text.strip().split("\n")
    assert lines[0] == "re,im,val_re,val_im"
    assert len(lines) == 1 + 64
    # row order is row-major over (j, k)
    first = lines[1].split(",")
    h = g.spacing
    assert float(first[0]) == -1 + h / 2
    assert float(first[1]) == -1 + h / 2
    # bit-for-bit reproducible
    assert field_to_csv(v) == text
    # 17 significant digits round-trip
    z = complex(float(first[2]), float(first[3]))
    assert z == v.values[0, 0]


@pytest.mark.parametrize("radius,n", [(6.0, 128), (2.0, 64)])
def test_bump_sampling_matches_full_grid_evaluation(radius, n):
    g = build_grid(radius, n)
    suite = random_suite(10, seed=7)
    if radius == 2.0:
        # the small square cuts through some supports
        assert any(max(abs(m.center.real), abs(m.center.imag)) + m.rho > radius
                   for m in suite)
    z = g.nodes
    for m in suite:
        assert np.array_equal(m.sample(g).values, m(z))
        assert np.array_equal(m.sample_dbar(g).values, m.dbar(z))
        assert np.array_equal(m.sample_dz(g).values, m.dz(z))


def _csv_rows_reference(v):
    """Row-by-row formatting over the full node array."""
    fmt = ",".join([FLOAT_FMT] * 4) + "\n"
    lines = ["re,im,val_re,val_im\n"]
    for zz, vv in zip(v.grid.nodes.reshape(-1), v.values.reshape(-1)):
        lines.append(fmt % (zz.real, zz.imag, vv.real, vv.imag))
    return "".join(lines)


def test_write_field_csv_streams_the_same_bytes(tmp_path):
    g = build_grid(3.0, 96)
    assert g.n * g.n > CSV_CHUNK_ROWS  # two row blocks where two CPUs are usable
    v = sample(lambda z: z**2 * np.exp(-np.abs(z) ** 2) + 1j / 3, g)
    path = tmp_path / "v.csv"
    with path.open("w") as fh:
        write_field_csv(v, fh)
    text = path.read_text()
    assert text == field_to_csv(v)
    assert text == _csv_rows_reference(v)


def _bump_field(n):
    return sample(lambda z: z**2 * np.exp(-np.abs(z) ** 2) + 1j / 3, build_grid(3.0, n))


def _count_forks(monkeypatch):
    """Wrap ``os.fork`` so the test process counts the children it forks."""
    forks = []
    real_fork = os.fork

    def fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    return forks


def test_csv_row_blocks_write_the_serial_bytes(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 1, 2})
    forks = _count_forks(monkeypatch)
    v = _bump_field(129)  # 16641 nodes: three blocks of 43 rows
    path = tmp_path / "v.csv"
    with path.open("w") as fh:
        # still in fh's buffer when the children fork: a child that flushed
        # the buffers it inherited would write it again
        fh.write("prefix\n")
        write_field_csv(v, fh)
    assert len(forks) == 2
    text = path.read_text()
    assert text.count("prefix") == 1
    assert text == "prefix\n" + _csv_rows_reference(v)


def test_field_to_csv_rides_on_the_row_blocks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 1, 2})
    forks = _count_forks(monkeypatch)
    v = _bump_field(129)
    assert field_to_csv(v) == _csv_rows_reference(v)
    assert len(forks) == 2


@pytest.mark.parametrize("failing", ["child", "parent"])
def test_csv_block_failure_reaps_every_child(monkeypatch, failing):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 1, 2})
    parent = os.getpid()
    format_rows = grid._format_rows

    def flaky(fh, values, xs, rows):
        if (os.getpid() == parent) == (failing == "parent"):
            raise RuntimeError("formatter failed")
        format_rows(fh, values, xs, rows)

    monkeypatch.setattr(grid, "_format_rows", flaky)
    v = _bump_field(129)
    if failing == "child":
        with pytest.raises(OSError, match="CSV block 1 of 3"):
            field_to_csv(v)
    else:
        with pytest.raises(RuntimeError, match="formatter failed"):
            field_to_csv(v)
    # every child was reaped: none is left, not even a zombie
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("n,cpus,has_fork", [(8, {0, 1, 2}, True), (129, {0}, True),
                                             (129, {0, 1, 2}, False)])
def test_one_csv_block_forks_nothing(monkeypatch, n, cpus, has_fork):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: cpus)
    if has_fork:
        def fork():
            raise AssertionError("a one-block dump forked")

        monkeypatch.setattr(os, "fork", fork)
    else:
        monkeypatch.delattr(os, "fork")
    v = _bump_field(n)
    assert field_to_csv(v) == _csv_rows_reference(v)


def test_csv_blocks_fall_back_to_cpu_count(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    assert [grid._csv_blocks(n) for n in (8, 90, 91, 128, 129, 1024)] == [1, 1, 2, 2, 3, 3]
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert grid._csv_blocks(1024) == 1
