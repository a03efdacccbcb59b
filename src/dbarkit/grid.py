"""Cell-centered grids on a square, complex fields, and midpoint quadrature.

The computational domain is the square [-R, R]^2 truncating the plane.  Nodes
are cell centers z_{jk} = (-R + (j+1/2)h) + i(-R + (k+1/2)h) with h = 2R/n,
stored row-major over (j, k): flat index j*n + k.  All area integrals are
midpoint sums with weight h^2 per node, so the total quadrature weight is
exactly (2R)^2.
"""

from __future__ import annotations

import functools
import io
import os
import threading
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundaryMassWarning,
    InvalidArgumentError,
    InvalidWeightError,
    SamplingError,
)

FLOAT_FMT = "%.17g"
# the CSV dump formats |x| in [10^-EXACT_EXP, 10^(EXACT_EXP+1)) from exact
# decimal scaling; 10^(16-k) and its products stay normal doubles there
EXACT_EXP = 279
# a scaled value this close to a half-integer may be a decimal tie, which
# the scaling cannot resolve: such a value is formatted by ``FLOAT_FMT %``
TIE_WINDOW = 2.0**-30
# the 2-D FFTs work on blocks of whole grid rows or columns, and the Fock
# projection on blocks of whole rows of the grid's quarter, of at most this
# many nodes: a block's complex arrays (0.5 MB each) then stay in a 2 MB L2
# cache
BLOCK_NODES = 1 << 15
# the truncation warnings read the ring of the outer ceil(RING_FRAC n) rows and columns
RING_FRAC = 0.05


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered discretization of [-radius, radius]^2."""

    radius: float
    n: int

    @property
    def spacing(self) -> float:
        return 2.0 * self.radius / self.n

    @property
    def axis(self) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacing
        return -self.radius + (np.arange(self.n) + 0.5) * h

    @property
    def nodes(self) -> np.ndarray:
        """Complex node array of shape (n, n); axis 0 is x, axis 1 is y."""
        return _nodes(self.axis[:, None], self.axis)


def _nodes(x, y) -> np.ndarray:
    """The complex nodes x + iy, ``x`` and ``y`` broadcast: the one place node
    parts are assigned, so a node has the same bits wherever it is made."""
    z = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y)), dtype=complex)
    z.real, z.imag = x, y
    return z


@dataclass(frozen=True)
class Field:
    """Complex-valued function on a Grid, checked for shape and finiteness.
    ``values`` is a read-only view sharing a C-contiguous complex array given;
    any other is copied once, so a slice never holds its parent buffer alive."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.ascontiguousarray(self.values, dtype=complex).view()
        if v.shape != (self.grid.n, self.grid.n):
            raise InvalidArgumentError(
                f"field shape {v.shape} does not match grid ({self.grid.n}, {self.grid.n})"
            )
        _check_finite(v)
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __add__(self, other):
        return Field(self.grid, self.values + _vals(other))

    def __sub__(self, other):
        return Field(self.grid, self.values - _vals(other))

    def __mul__(self, other):
        return Field(self.grid, self.values * _vals(other))

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, -self.values)

    def conj(self) -> "Field":
        return Field(self.grid, np.conj(self.values))


def _vals(x):
    return x.values if isinstance(x, Field) else x


def _first_non_finite(f: np.ndarray, offset: int):
    """``offset`` plus the flat index of the first non-finite entry of ``f``, or None."""
    finite = np.isfinite(f)
    return None if finite.all() else offset + int(np.flatnonzero(~finite)[0])


def _check_finite(v: np.ndarray, start: int = 0):
    """Raise ``SamplingError`` at ``_first_non_finite(v, start)``, if any."""
    bad = _first_non_finite(v, start)
    if bad is not None:
        raise SamplingError(f"non-finite field value at flat node {bad}", node_index=bad)


def build_grid(radius: float, n: int) -> Grid:
    if not (np.isfinite(radius) and radius > 0):
        raise InvalidArgumentError(f"radius must be a finite positive number, got {radius}")
    if not float(n).is_integer() or n < 8:
        raise InvalidArgumentError(f"n must be an integer of at least 8, got {n}")
    return Grid(float(radius), int(n))


def sample(fn, grid: Grid, inside=None) -> Field:
    """The node-by-node closed form ``fn`` where ``inside(rows)`` holds (at
    every node without it), 0 elsewhere, written one ``_sampled_blocks`` row
    block at a time, so no full-grid node array is made; a scalar is spread."""
    out = np.zeros((grid.n, grid.n), dtype=complex)
    for _ in _sampled_blocks(grid, fn, inside, out):
        pass
    return Field(grid, out)


def _sampled_blocks(grid: Grid, fn, inside=None, out=None):
    """``(rows, values)`` for the ``_line_blocks`` row blocks where ``inside``
    holds anywhere, in order: ``fn`` where ``inside(rows)`` holds, 0 elsewhere,
    in a view of ``out`` if given, else in an array checked as ``Field`` is."""
    x = grid.axis
    for r in _line_blocks(0, grid.n, grid.n):
        m = ... if inside is None else inside(r)
        if m is ... or m.any():
            block = np.zeros((r.stop - r.start, grid.n), dtype=complex) if out is None else out[r]
            block[m] = fn(_nodes(x[r, None], x)[m])
            if out is None:
                _check_finite(block, r.start * grid.n)
            yield r, block


def weighted_norm_sq(v: Field, w) -> float:
    """Integral of |v|^2 * w; w is a Field, array or scalar of positive finite reals."""
    wv = _vals(w)
    wr = np.real(wv)
    # NaN fails ``wr > 0``; +inf fails the finiteness test
    if (not np.all(wr > 0) or not np.all(np.isfinite(wr))
            or (np.iscomplexobj(wv) and np.any(np.imag(wv) != 0))):
        raise InvalidWeightError("quadrature weight must be strictly positive, finite and real")
    h = v.grid.spacing
    return float(h * h * _abs2_sum(v.values, wr))


def _abs2(b: np.ndarray) -> np.ndarray:
    """|b|^2 as re^2 + im^2."""
    return b.real**2 + b.imag**2


def _abs2_sum(b: np.ndarray, weight=None):
    """np.sum of |b|^2 (``_abs2``), times ``weight`` if given."""
    b2 = _abs2(b)
    return np.sum(b2 if weight is None else b2 * weight)


def boundary_mass(v: Field, rows: slice = slice(None), cols: slice = slice(None)) -> float:
    """Relative sup of |v| on the ``RING_FRAC`` boundary ring of the square,
    or 0 where v is all zero; read on the box ``rows`` x ``cols`` alone,
    which must hold every nonzero of v (zeros add nothing to a maximum)."""
    mag = np.abs(v.values[rows, cols])
    peak = np.max(mag, initial=0.0)
    ring = np.max(mag[_ring_mask(v.grid.n, rows)[:, cols]], initial=0.0)
    return float(ring / peak) if peak else 0.0


def _ring_mask(n: int, rows: slice = slice(None)) -> np.ndarray:
    """Boolean mask of the ``RING_FRAC`` boundary ring of the n x n square on rows ``rows``."""
    band = max(1, int(np.ceil(RING_FRAC * n)))
    i = np.arange(n)[rows, None]
    mask = (i < band) | (i >= n - band) | np.zeros(n, dtype=bool)
    mask[:, :band] = mask[:, n - band:] = True
    return mask


def warn_boundary_mass(m: float, threshold: float = 1e-14, context: str = "field"):
    """Warn when the relative boundary mass ``m`` (``boundary_mass``, or a
    caller's own reading of its ring) exceeds ``threshold``; return ``m``."""
    if m > threshold:
        warnings.warn(
            f"{context}: relative boundary mass {m:.3e} exceeds {threshold:.1e}",
            BoundaryMassWarning,
            stacklevel=3,
        )
    return m


def write_field_csv(v: Field, fh) -> None:
    """Write the CSV dump of ``v``, ASCII bytes, to the binary stream ``fh``.

    Header re,im,val_re,val_im, then one row per node in row-major order,
    each number exactly as ``FLOAT_FMT % x`` prints it.  The axis coordinates
    are formatted once by ``%``; the values are formatted in bulk
    (``_float_fields``):

    - With k = floor(log10 |x|), y = |x| 10^(16-k) lies in [10^16, 10^17).
      10^(16-k) comes from a table as hi + lo, both rounded from exact
      integers, and y as the double y_hi = fl(|x| hi) plus the correction
      dy = (|x| hi - y_hi) + |x| lo.  The first term is exact (Dekker's
      product over Veltkamp's split, as numpy has no FMA), so y_hi + dy is
      within 2^-47 of y for y < 2^57 (the table, the rounding of |x| lo and
      that of the sum add at most 2^-49 each).  log10 may put k one off
      next to a power of ten; k is then moved by one.
    - y_hi is an integer above 2^53, so the 17 significant digits are
      D = y_hi + rint(dy), a carry to 10^17 raising k.  This is the correctly
      rounded D unless y lies within 2^-47 of a half-integer, so a value
      whose dy lies within ``TIE_WINDOW`` of one, and any |x| outside
      [10^-EXACT_EXP, 10^(EXACT_EXP+1)) but zero, is formatted by
      ``FLOAT_FMT % x`` instead.  Of random bit patterns in range, 0.08 %
      take that way (large integers that end in a decimal half); of
      ``solve``'s field at n = 1024, none.
    - D is read in 4-digit groups from a table and laid out by ``%g``'s rules
      at precision 17: exponent form iff k < -4 or k >= 17, trailing zeros
      and a bare point dropped, the exponent signed and at least two digits.

    The grid rows are cut into ``_line_blocks`` of about 2^15 numbers, which
    ``_map_blocks`` formats on its threads in groups of two per usable CPU, so
    that no more blocks of text than that are alive; they are written in
    row order.
    """
    n = v.grid.n
    xs = np.array([(FLOAT_FMT % x + ",").encode() for x in v.grid.axis.tolist()])
    xs = xs.view(np.uint8).reshape(n, -1)
    _float_tables()  # built here, before any worker thread starts
    blocks = _line_blocks(0, n, 2 * n)
    group = 2 * _usable_cpus()
    fh.write(b"re,im,val_re,val_im\n")
    for i in range(0, len(blocks), group):
        for text in _map_blocks(lambda rows: _csv_text(v.values[rows], xs, rows),
                                blocks[i:i + group]):
            fh.write(text)


def _csv_text(values: np.ndarray, xs: np.ndarray, rows: slice) -> bytes:
    """The CSV lines of the grid rows ``rows``, whose ``values`` these are;
    ``xs`` holds the axis coordinates as NUL-padded ``x,`` byte strings."""
    r, n = values.shape
    w = xs.shape[1]
    lines = np.empty((r, n, 2 * w + 2 * _FIELD_BYTES), np.uint8)
    lines[:, :, :w] = xs[rows, None]
    lines[:, :, w:2 * w] = xs
    lines[:, :, 2 * w:] = _float_fields(values.view(float).reshape(-1)).reshape(r, n, -1)
    lines[:, :, 2 * w + _FIELD_BYTES - 1] = ord(",")
    lines[:, :, -1] = ord("\n")
    # one grid row at a time, so the index array behind the NUL drop stays small
    return b"".join(np.compress(line != 0, line).tobytes()
                    for line in lines.reshape(r, -1))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else ``os.cpu_count()``, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _line_blocks(start: int, stop: int, width: int) -> list:
    """Slices cutting ``range(start, stop)`` into runs of lines (rows or
    columns) ``width`` nodes long, at most ``BLOCK_NODES`` nodes a run; the
    cuts depend on the sizes alone."""
    step = max(1, BLOCK_NODES // max(width, 1))
    return [slice(i, min(i + step, stop)) for i in range(start, stop, step)]


def _nonzero_lines(a: np.ndarray, axis: int) -> slice:
    """The rows (``axis`` 1) or columns (``axis`` 0) of ``a`` from the first
    to the last that holds a nonzero, as a slice; empty for an all-zero ``a``."""
    hit = np.flatnonzero(np.any(a, axis=axis))
    return slice(int(hit[0]), int(hit[-1]) + 1) if hit.size else slice(0, 0)


@dataclass(frozen=True)
class _Disk:
    """The nodes with |z| <= r of a grid (``_disk``), a block of rows at a time.

    ``box`` slices the axis lines with |x| <= r; each of ``blocks`` is
    ``(rows, inside, at)``: a run of the box's rows, the disk's mask over
    ``rows, box`` and the slice of the disk's row-major node list, ``size``
    nodes long, that the block fills.  Iterating yields ``(rows, inside, at,
    z)``, the block's nodes built afresh, so no list of the disk's nodes is
    kept."""

    axis: np.ndarray
    box: slice
    blocks: tuple
    size: int

    def __iter__(self):
        cols = self.axis[self.box]
        for rows, inside, at in self.blocks:
            yield rows, inside, at, _nodes(self.axis[rows, None], cols)[inside]


def _disk(g: Grid, r: float) -> _Disk:
    """The nodes of ``g`` with |z| <= r, from their own square of axis lines,
    which holds the whole disk, as a faithfully rounded |z| is never below
    |x| or |y|.  So ``a[rows, box][inside]`` over the blocks, in order, is
    the full grid's ``a[disk]``, and an elementwise map of the blocks' z,
    written at ``at``, fills a disk-length vector with the terms, in the
    order, of the same map of ``z[disk]``: one ``np.sum`` of it keeps the bits.

    A caller keeps a block's nodes, their gathers of two complex fields and
    the real terms made from them alive at once, about four complex values a
    node; so a block takes a quarter of ``BLOCK_NODES`` nodes, and its
    working set is about one complex array of ``BLOCK_NODES`` nodes."""
    x = g.axis
    box = slice(int(np.searchsorted(x, -r, "left")), int(np.searchsorted(x, r, "right")))
    blocks, size = [], 0
    for rows in _line_blocks(box.start, box.stop, 4 * (box.stop - box.start)):
        inside = np.abs(_nodes(x[rows, None], x[box])) <= r
        count = int(np.count_nonzero(inside))
        blocks.append((rows, inside, slice(size, size + count)))
        size += count
    return _Disk(x, box, tuple(blocks), size)


def _map_blocks(fn, blocks: list) -> list:
    """``[fn(b) for b in blocks]``, the blocks dealt round-robin to one thread
    per usable CPU (the caller's among them), each taking two blocks or more;
    the first exception of a block is raised once all have ended.

    On two blocks of 128 grid rows (n = 256), one thread beats two, as every
    numpy call hands the interpreter lock over. ``fn`` calls no name
    perfbench's tracer opens a span for (``Grid.nodes``, ``Field(...)``, a
    public dbarkit function): the tracer's span stack is shared by all
    threads, so such a call from a worker would corrupt the span tree.
    ``numpy.fft`` is fine, as the tracer only counts its calls.
    """
    count = len(blocks)
    workers = min(_usable_cpus(), count // 2)
    if workers <= 1:
        return [fn(b) for b in blocks]
    results = [None] * count
    errors = []

    def work(first):
        try:
            for i in range(first, count, workers):
                results[i] = fn(blocks[i])
        except BaseException as e:  # raised again in the caller's thread below
            errors.append(e)

    threads = [threading.Thread(target=work, args=(w,)) for w in range(1, workers)]
    for t in threads:
        t.start()
    work(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return results


# A number's CSV field is _FIELD_BYTES bytes, NUL where nothing is printed.
# Byte 0 holds the sign and bytes 25..29 the exponent.  The digit string
# P = "0000" + the 17 significant digits lies in bytes 3..23 of a work row,
# P[j] in byte 3 + j.  The field keeps P[j] in its byte up to P[ip], the last
# digit before the point, with ip = 4 + k in fixed notation and 4 in exponent
# notation; the point takes the next byte and the digits after it move one
# byte on.  Shown are P[j] for min(ip, 4) <= j <= max(ip, 4 + L), where L is
# the index of the last nonzero significant digit, and the point iff a digit
# follows it.  Layout ip * 17 + L holds the masks of (ip, L); one more
# layout prints zero as "0".
_FIELD_BYTES = 32
_ZERO_LAYOUT = 21 * 17
# table row k + _K0 holds decimal exponent k, which may stray 3 past
# EXACT_EXP: log10's estimate, its correction and a carry
_K0 = EXACT_EXP + 3
_VELTKAMP = 2.0**27 + 1


class _FloatTables(NamedTuple):
    pow10: np.ndarray   # (4, 2 _K0 + 1): hi, lo and hi's Veltkamp halves of 10^(16-k)
    head: np.uint32     # the bytes 0, 0, 0, "0" (P[0] in byte 3)
    lead: np.ndarray    # uint32 by digit d: the bytes "000" d (P[1..4])
    quad: np.ndarray    # uint32 by 0..9999: its four ASCII digits
    quad_tz: np.ndarray  # by 0..9999: the trailing zeros of its four digits
    layout: np.ndarray  # by k: the layout for L = 16; L = 16 - trailing zeros
    keep_a: np.ndarray  # by layout: 0xFF on the bytes that keep their work byte
    keep_b: np.ndarray  # by layout: 0xFF on the bytes that take the byte before
    point: np.ndarray   # by layout: the point
    tail: np.ndarray    # by (k, sign): the sign and exponent bytes


@functools.cache
def _float_tables() -> _FloatTables:
    """The tables of ``_float_fields``, built on the first CSV dump."""
    ks = range(-_K0, _K0 + 1)
    hi, lo = [], []
    for k in ks:
        num, den = (10 ** (16 - k), 1) if k <= 16 else (1, 10 ** (k - 16))
        h = num / den  # int true division rounds correctly
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    c = hi * _VELTKAMP
    top = c - (c - hi)
    g = np.arange(10000)
    quad = (g[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    lead = np.full((10, 4), ord("0"), np.uint8)
    lead[:, 3] += np.arange(10, dtype=np.uint8)

    kk = np.arange(-4, 17)[:, None, None]  # the point's place
    L = np.arange(17)[None, :, None]
    j = np.arange(_FIELD_BYTES) - 3  # a byte's index into P
    ip = 4 + kk
    last = np.maximum(ip, 4 + L)
    none = np.zeros(_FIELD_BYTES, bool)

    def layouts(shown, zero):
        m = np.broadcast_to(shown, (21, 17, _FIELD_BYTES)).reshape(-1, _FIELD_BYTES)
        return np.vstack([m, zero]).astype(np.uint8)

    tail = np.zeros((len(ks), 2, _FIELD_BYTES), np.uint8)
    tail[:, 1, 0] = ord("-")
    for r, k in enumerate(ks):
        if k < -4 or k > 16:
            e = np.frombuffer(b"e%+03d" % k, np.uint8)
            tail[r, :, 25:25 + e.size] = e
    return _FloatTables(
        pow10=np.stack([hi, np.array(lo), top, hi - top]),
        head=np.frombuffer(b"\0\0\0" b"0", np.uint32)[0],
        lead=lead.view(np.uint32)[:, 0],
        quad=quad.view(np.uint32)[:, 0],
        quad_tz=(g % 10 == 0).astype(np.intp) + (g % 100 == 0) + (g % 1000 == 0) + (g == 0),
        layout=np.array([(k + 4 if -4 <= k <= 16 else 4) * 17 + 16 for k in ks]),
        keep_a=255 * layouts((j >= np.minimum(ip, 4)) & (j <= ip), j == 3),
        keep_b=255 * layouts((j > ip + 1) & (j - 1 <= last), none),
        point=ord(".") * layouts((j == ip + 1) & (last > ip), none),
        tail=tail.reshape(-1, _FIELD_BYTES),
    )


def _scaled(x: np.ndarray, row: np.ndarray, pow10: np.ndarray):
    """x 10^(16-k) for the table rows ``row`` of k as y_hi + dy (see
    ``write_field_csv``), within 2^-47 of exact below 2^57."""
    hi, lo, top, bottom = pow10.take(row, axis=1)
    y = x * hi
    c = x * _VELTKAMP
    xt = c - (c - x)
    xb = x - xt
    dy = ((xt * top - y) + xt * bottom + xb * top) + xb * bottom  # x hi - y, exactly
    dy += x * lo
    return y, dy


def _divmod(a: np.ndarray, d: int):
    """``np.divmod(a, d)``; numpy divides by a scalar fast, unlike ``divmod``."""
    q = a // d
    return q, a - q * d


def _float_fields(a: np.ndarray) -> np.ndarray:
    """``FLOAT_FMT % x`` for each x of the float64 vector ``a``, as one
    ``_FIELD_BYTES``-byte row with NULs where nothing is printed."""
    t = _float_tables()
    ax = np.abs(a)
    exact = (ax >= 10.0**-EXACT_EXP) & (ax < 10.0 ** (EXACT_EXP + 1))
    x = np.where(exact, ax, 1.0)
    row = np.log10(x)
    np.floor(row, out=row)
    row = row.astype(np.intp) + _K0
    y, dy = _scaled(x, row, t.pow10)
    low = (y < 1e16) | ((y == 1e16) & (dy < 0))
    high = (y > 1e17) | ((y == 1e17) & (dy >= 0))
    off = np.flatnonzero(low | high)
    if off.size:
        row[off] += high[off].astype(np.intp) - low[off]
        y[off], dy[off] = _scaled(x[off], row[off], t.pow10)
    r = np.rint(dy)
    digits = y.astype(np.int64) + r.astype(np.int64)
    carry = np.flatnonzero(digits == 10**17)
    digits[carry] = 10**16
    row[carry] += 1
    zero = a == 0
    slow = np.flatnonzero((~exact & ~zero) | (np.abs(np.abs(dy - r) - 0.5) < TIE_WINDOW))

    upper, lower = _divmod(digits, 10**8)
    d0, upper = _divmod(upper, 10**8)
    g1, g2 = _divmod(upper, 10**4)
    g3, g4 = _divmod(lower, 10**4)
    work = np.zeros((a.size, _FIELD_BYTES // 4), np.uint32)
    work[:, 0] = t.head
    work[:, 1] = t.lead.take(d0)
    for col, group in enumerate((g1, g2, g3, g4), start=2):
        work[:, col] = t.quad.take(group)
    work = work.view(np.uint8).reshape(-1)
    tz = t.quad_tz.take(g4)
    run = np.flatnonzero(g4 == 0)  # the zeros run on into the groups above
    if run.size:
        z3, z2, z1 = (t.quad_tz.take(g[run]) for g in (g3, g2, g1))
        tz[run] += z3 + (g3[run] == 0) * (z2 + (g2[run] == 0) * z1)
    layout = t.layout.take(row) - tz
    layout[zero] = _ZERO_LAYOUT

    out = t.keep_a.take(layout, axis=0)
    flat = out.reshape(-1)
    flat &= work
    before = t.keep_b.take(layout, axis=0).reshape(-1)
    before[1:] &= work[:-1]  # byte i of a field from byte i - 1 of its work row
    flat |= before
    flat |= t.point.take(layout, axis=0).reshape(-1)
    flat |= t.tail.take(2 * row + np.signbit(a), axis=0).reshape(-1)
    if slow.size:
        text = np.array([(FLOAT_FMT % s).encode() for s in a[slow].tolist()],
                        dtype=f"S{_FIELD_BYTES}")
        out[slow] = text.view(np.uint8).reshape(-1, _FIELD_BYTES)
    return out


def field_to_csv(v: Field) -> str:
    """The CSV dump of ``v`` (see ``write_field_csv``) as one string."""
    buf = io.BytesIO()
    write_field_csv(v, buf)
    return buf.getvalue().decode("ascii")
