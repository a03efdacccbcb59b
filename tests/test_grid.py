import ast
import functools
import os
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dbarkit import build_grid, cli, grid, sample, solver, weighted_norm_sq
from dbarkit.bumps import BumpPoly, Poly2, random_suite
from dbarkit.diffops import dbar
from dbarkit.errors import InvalidArgumentError, InvalidWeightError, SamplingError
from dbarkit.grid import FLOAT_FMT, Field, field_to_csv, write_field_csv
from dbarkit.weights import custom_weight
from oracles import csv_rows_reference, integrate

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "dbarkit")


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


@pytest.mark.parametrize("n, radius, r", [(8, 3.0, 1.0), (9, 3.0, 0.0), (65, 3.0, 2.5),
                                          (256, 3.7, 3.7), (255, 6.0, 9.0), (16, 1e-150, 1e-151)])
def test_disk_reads_the_full_grid_disk(n, radius, r):
    # the disk's square of axis lines gathers what a full-grid mask does, in
    # the same order, nodes and moduli to the bit
    g = build_grid(radius, n)
    Z = g.nodes
    disk = np.abs(Z) <= r
    a = np.arange(n * n).reshape(n, n)
    box, inside, z, mod = grid._disk(g, r)
    assert np.array_equal(a[box, box][inside], a[disk])
    assert np.array_equal(z.view(np.int64), Z[disk].view(np.int64))
    assert np.array_equal(mod, np.abs(Z[disk]))


def _assigns_node_parts(scope) -> bool:
    """Whether the statements of ``scope``, outside its nested functions and
    classes, assign both ``.real`` and ``.imag`` of something."""
    parts, stack = set(), list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            parts.add(node.attr)
    return {"real", "imag"} <= parts


def test_only_grid_nodes_builds_node_parts():
    # every complex node array comes from grid._nodes, so a node has the same
    # bits wherever it is made
    builders = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                tree = ast.parse(fh.read())
            builders += [f"{name[:-3]}.{scope.name}" for scope in ast.walk(tree)
                         if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
                         and _assigns_node_parts(scope)]
    assert builders == ["grid._nodes"]


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


@functools.cache
def _bump_case(n):
    """A bump field on an n x n grid and its reference dump, made once."""
    v = sample(lambda z: z**2 * np.exp(-np.abs(z) ** 2) + 1j / 3, build_grid(3.0, n))
    return v, csv_rows_reference(v)


def _misformatted(a, fmt=FLOAT_FMT):
    """The numbers of ``a`` whose text from the bulk formatter, fed in blocks
    of 2^15 as the CSV dump feeds it, is not ``fmt % x``."""
    bad = []
    for i in range(0, a.size, 1 << 15):
        block = a[i:i + (1 << 15)]
        fields = grid._float_fields(block)
        fields[:, -1] = ord("\n")
        text = fields[fields != 0].tobytes().decode("ascii")
        if text != (fmt + "\n") * block.size % tuple(block.tolist()):
            got = [bytes(f[f != 0]).decode("ascii").strip() for f in fields]
            bad += [(x, g) for x, g in zip(block.tolist(), got) if g != fmt % x]
    return bad


@functools.cache
def _hard_floats():
    """About 10^6 doubles, of either sign, that take every path of the bulk
    formatter."""
    rng = np.random.default_rng(2024)
    bits = rng.integers(0, 2**64, 150_000, dtype=np.uint64).view(float)
    binades = rng.random(300_000) * 2.0 ** rng.integers(-70, 70, 300_000)
    subnormal = rng.integers(1, 2**52, 10_000, dtype=np.uint64).view(float)
    tens = np.array([float(f"1e{j}") for j in range(-323, 309)])
    switch = np.array([1e-5, 1e-4, 1e16, 1e17])
    whole = np.concatenate([2.0**53 + np.arange(-1000, 1001),
                            rng.integers(10**16, 10**17, 40_000, endpoint=True).astype(float)])
    a = np.concatenate([
        bits[np.isfinite(bits)], binades, subnormal, [0.0, 5e-324, 2.2250738585072014e-308],
        *[np.concatenate([x, np.nextafter(x, 0), np.nextafter(x, np.inf)]) for x in (tens, switch)],
        whole, [9.9999999999999994e-279],
    ])
    return np.concatenate([a, -a])


def test_bulk_format_matches_percent_on_hard_values():
    a = _hard_floats()
    assert a.size > 10**6
    bad = _misformatted(a)
    assert not bad, f"{len(bad)} numbers misformatted, among them {bad[:5]}"
    # among the powers of ten, doubles just below 10^j whose 17 digits round up to it
    carried = [j for j in range(-323, 309) if Fraction(float(f"1e{j}")) < Fraction(10) ** j
               and FLOAT_FMT % float(f"1e{j}") == "1e%+03d" % j]
    assert len(carried) > 5


def test_csv_fallback_writes_the_same_bytes(monkeypatch):
    monkeypatch.setattr(grid, "TIE_WINDOW", 1.0)  # every value is a possible tie
    v, reference = _bump_case(47)
    assert field_to_csv(v) == reference
    # with "%.17G", text from the scaled path would show a lower-case "e"
    monkeypatch.setattr(grid, "FLOAT_FMT", "%.17G")
    assert not _misformatted(_hard_floats()[::20], "%.17G")


def test_csv_of_the_solve_field_at_n1024(tmp_path, monkeypatch):
    """``solve``'s seed-42 solution at n = 1024 (the benchmark's dump) is the
    reference byte for byte.  On two usable CPUs the dump's heap peaked at
    23.3 MiB (tracemalloc): the two blocks being formatted and the four of
    text alive between writes; the bound leaves 37 % over that."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 1})
    cfg = cli.load_config(None, {"grid": {"n": 1024}})
    g = cli._grid(cfg)
    u = solver.solve_dbar(cli.RunMemo(42)["compliant", g], custom_weight(cfg["weight"]),
                          slack=cfg["tolerances"]["bound_slack"]).u
    path = tmp_path / "u.csv"
    tracemalloc.start()
    try:
        with path.open("w") as fh:
            write_field_csv(u, fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20
    assert path.read_text() == csv_rows_reference(u)


def test_write_field_csv_streams_the_same_bytes(tmp_path):
    v, reference = _bump_case(300)
    path = tmp_path / "v.csv"
    with path.open("w") as fh:
        write_field_csv(v, fh)
    text = path.read_text()
    assert text == field_to_csv(v)
    assert text == reference


def test_csv_row_blocks_write_the_serial_bytes(tmp_path, monkeypatch):
    def fork():
        raise AssertionError("the CSV dump forked")

    monkeypatch.setattr(os, "fork", fork)
    for n in (8, 47, 129, 300):  # 300: six row blocks, dealt to threads
        v, reference = _bump_case(n)
        for cpus in (1, 2, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda _, c=cpus: set(range(c)))
            path = tmp_path / f"v{n}-{cpus}.csv"
            with path.open("w") as fh:
                # still in fh's buffer when the blocks are formatted: it is written once
                fh.write("prefix\n")
                write_field_csv(v, fh)
            assert path.read_text() == "prefix\n" + reference


def test_field_to_csv_rides_on_the_row_blocks(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 1})
    seen = []
    csv_text = grid._csv_text

    def record(values, xs, rows):
        seen.append((rows.start, threading.get_ident()))
        return csv_text(values, xs, rows)

    monkeypatch.setattr(grid, "_csv_text", record)
    v, reference = _bump_case(300)
    assert field_to_csv(v) == reference
    assert sorted(start for start, _ in seen) == [r.start for r in grid._line_blocks(0, 300, 600)]
    assert len({thread for _, thread in seen}) == 2


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_csv_block_failure_leaves_no_thread(monkeypatch, failing):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: {0, 1, 2})
    caller = threading.get_ident()
    csv_text = grid._csv_text

    def flaky(values, xs, rows):
        if (threading.get_ident() == caller) == (failing == "caller"):
            raise RuntimeError("formatter failed")
        return csv_text(values, xs, rows)

    monkeypatch.setattr(grid, "_csv_text", flaky)
    threads = set(threading.enumerate())
    with pytest.raises(RuntimeError, match="formatter failed"):
        field_to_csv(_bump_case(300)[0])
    assert set(threading.enumerate()) == threads


@pytest.mark.parametrize("n,cpus,has_fork", [(8, {0, 1, 2}, True), (129, {0}, True),
                                             (129, {0, 1, 2}, False)])
def test_one_csv_block_forks_nothing(monkeypatch, n, cpus, has_fork):
    monkeypatch.setattr(os, "sched_getaffinity", lambda _: cpus)
    if has_fork:
        def fork():
            raise AssertionError("the CSV dump forked")

        monkeypatch.setattr(os, "fork", fork)
    else:
        monkeypatch.delattr(os, "fork")
    v, reference = _bump_case(n)
    assert field_to_csv(v) == reference


def test_csv_blocks_fall_back_to_cpu_count(monkeypatch):
    """Blocks go to ``_map_blocks`` two per usable CPU, counted by
    ``os.cpu_count()`` without an affinity set, and as one CPU without either."""
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    groups = []
    map_blocks = grid._map_blocks

    def record(fn, blocks):
        groups.append(len(blocks))
        return map_blocks(fn, blocks)

    monkeypatch.setattr(grid, "_map_blocks", record)
    v, reference = _bump_case(300)  # six row blocks
    for count, expected in ((3, [6]), (None, [2, 2, 2])):
        monkeypatch.setattr(os, "cpu_count", lambda c=count: c)
        groups.clear()
        assert field_to_csv(v) == reference
        assert groups == expected
