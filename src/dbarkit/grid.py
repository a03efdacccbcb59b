"""Cell-centered grids on a square, complex fields, and midpoint quadrature.

The computational domain is the square [-R, R]^2 truncating the plane.  Nodes
are cell centers z_{jk} = (-R + (j+1/2)h) + i(-R + (k+1/2)h) with h = 2R/n,
stored row-major over (j, k): flat index j*n + k.  All area integrals are
midpoint sums with weight h^2 per node, so the total quadrature weight is
exactly (2R)^2.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import tempfile
import threading
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundaryMassWarning,
    InvalidArgumentError,
    InvalidWeightError,
    SamplingError,
)

FLOAT_FMT = "%.17g"
# a CSV dump is split into blocks of whole grid rows, one per usable CPU but
# at most one per this many nodes (about 560 kB of text): below it a fork and
# a temporary file cost more than a second block saves (one block against
# two on 2 vCPUs: 9 against 13 ms at n = 64, 19 against 17 ms at n = 96)
CSV_CHUNK_ROWS = 1 << 13
# the Fock projection and the 2-D FFTs work on blocks of whole grid rows or
# columns of at most this many nodes: a block's complex arrays (0.5 MB each)
# then stay in a 2 MB L2 cache
BLOCK_NODES = 1 << 15


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
        x = self.axis
        z = np.empty((self.n, self.n), dtype=complex)
        z.real = x[:, None]
        z.imag = x[None, :]
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
        finite = np.isfinite(v)
        if not finite.all():
            bad = int(np.flatnonzero(~finite)[0])
            raise SamplingError(f"non-finite field value at flat node {bad}", node_index=bad)
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


def build_grid(radius: float, n: int) -> Grid:
    if not (np.isfinite(radius) and radius > 0):
        raise InvalidArgumentError(f"radius must be a finite positive number, got {radius}")
    if not float(n).is_integer() or n < 8:
        raise InvalidArgumentError(f"n must be an integer of at least 8, got {n}")
    return Grid(float(radius), int(n))


def sample(fn, grid: Grid) -> Field:
    """Evaluate a closed form at every node; the field shares its array (a scalar is spread)."""
    # complex here: a real array left for Field to convert raised `all`'s peak RSS 126 -> 135 MB
    vals = np.asarray(fn(grid.nodes), dtype=complex)
    return Field(grid, np.broadcast_to(vals, (grid.n, grid.n)))


def weighted_norm_sq(v: Field, w) -> float:
    """Integral of |v|^2 * w; w is a Field, array or scalar of positive finite reals."""
    wv = _vals(w)
    wr = np.real(wv)
    # NaN fails ``wr > 0``; +inf fails the finiteness test
    if (not np.all(wr > 0) or not np.all(np.isfinite(wr))
            or (np.iscomplexobj(wv) and np.any(np.imag(wv) != 0))):
        raise InvalidWeightError("quadrature weight must be strictly positive, finite and real")
    h = v.grid.spacing
    return float(h * h * np.sum((v.values.real**2 + v.values.imag**2) * wr))


def boundary_mass(v: Field, frac: float = 0.05) -> float:
    """Relative sup of |v| on the outermost ``frac`` ring of the square, or 0
    where v is all zero."""
    mag = np.abs(v.values)
    peak = np.max(mag, initial=0.0)
    return float(np.max(mag[_ring_mask(v.grid.n, frac)]) / peak) if peak else 0.0


def _ring_mask(n: int, frac: float = 0.05) -> np.ndarray:
    """Boolean n x n mask of the outermost ``frac`` ring of the square."""
    band = max(1, int(np.ceil(frac * n)))
    mask = np.ones((n, n), dtype=bool)
    mask[band:-band, band:-band] = False
    return mask


def warn_boundary_mass(v, threshold: float = 1e-14, context: str = "field"):
    """Warn when the relative boundary mass of ``v`` (a Field, or that mass
    already computed) exceeds ``threshold``; return the mass."""
    m = boundary_mass(v) if isinstance(v, Field) else v
    if m > threshold:
        warnings.warn(
            f"{context}: relative boundary mass {m:.3e} exceeds {threshold:.1e}",
            BoundaryMassWarning,
            stacklevel=3,
        )
    return m


def write_field_csv(v: Field, fh) -> None:
    """Write the CSV dump of ``v`` to the text stream ``fh``.

    Header re,im,val_re,val_im, then one row per node in row-major order.
    The axis coordinates are formatted once; each grid row is then one
    ``%`` format of its 2n value parts, written as it is made.

    The grid rows are split into contiguous blocks, as many as there are
    usable CPUs but no more than ``ceil(n^2 / CSV_CHUNK_ROWS)``. The caller's
    process formats the first block straight into ``fh``; each other block is
    formatted by a forked child into a temporary file, which is copied into
    ``fh`` in row order, so the bytes are those of the serial order. With one
    block (a small grid, one usable CPU, or no ``os.fork``) nothing is forked.
    A failed child raises ``OSError`` naming its block.
    """
    n = v.grid.n
    xs = [FLOAT_FMT % x + "," for x in v.grid.axis.tolist()]
    blocks = _csv_blocks(n)
    cuts = [n * b // blocks for b in range(blocks + 1)]
    fh.write("re,im,val_re,val_im\n")
    with contextlib.ExitStack() as files:
        children = []  # (block, pid, file) for blocks 1.., in row order
        # a bare fork, not a spawn pool: the child reads the field already in
        # memory and only formats strings (no BLAS call, no lock of another
        # thread), and importing multiprocessing would add to every set-up
        try:
            for b in range(1, blocks):
                tmp = files.enter_context(tempfile.TemporaryFile("w+"))
                pid = os.fork()
                if pid == 0:
                    _block_child(tmp, v.values, xs, range(cuts[b], cuts[b + 1]))
                children.append((b, pid, tmp))
            _format_rows(fh, v.values, xs, range(cuts[0], cuts[1]))
        finally:
            failed = [b for b, pid, _ in children if os.waitpid(pid, 0)[1] != 0]
        if failed:
            raise OSError(f"CSV block {failed[0]} of {blocks} failed in its child process")
        for _, _, tmp in children:
            tmp.seek(0)
            shutil.copyfileobj(tmp, fh)


def _csv_blocks(n: int) -> int:
    """Number of row blocks a CSV dump of an n x n grid is split into."""
    if not hasattr(os, "fork"):
        return 1
    return min(_usable_cpus(), -(-n * n // CSV_CHUNK_ROWS))


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set, else ``os.cpu_count()``, else 1."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _line_blocks(start: int, stop: int, width: int) -> list:
    """Slices cutting ``range(start, stop)`` into runs of lines (rows or
    columns) ``width`` nodes long, at most ``BLOCK_NODES`` nodes a run; the
    cuts depend on the sizes alone."""
    step = max(1, BLOCK_NODES // width)
    return [slice(i, min(i + step, stop)) for i in range(start, stop, step)]


def _map_blocks(fn, blocks: list) -> list:
    """``[fn(b) for b in blocks]``, the blocks dealt round-robin to one thread
    per usable CPU (the caller's among them), each taking two blocks or more;
    the first exception of a block is raised once all have ended.

    At n = 256 (two blocks) one thread beat two in the Fock projection,
    0.032 s against 0.038 s on 2 vCPUs: every numpy call hands the interpreter
    lock over. ``fn`` calls no name perfbench's tracer opens a span for
    (``Grid.nodes``, ``Field(...)``, a public dbarkit function): the tracer's
    span stack is shared by all threads, so such a call from a worker would
    corrupt the span tree. ``numpy.fft`` is fine, as the tracer only counts
    its calls.
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


def _format_rows(fh, values: np.ndarray, xs: list, rows: range) -> None:
    """Write the CSV lines of grid rows ``rows``; ``xs`` holds the formatted axis."""
    # the line of node (j, k) is xs[j] + tails[k], so grid row j is one
    # template xs[j] + xs[j].join(tails) holding 2n float formats
    tails = [x + FLOAT_FMT + "," + FLOAT_FMT + "\n" for x in xs]
    for j in rows:
        fh.write((xs[j] + xs[j].join(tails)) % tuple(values[j].view(float).tolist()))


def _block_child(tmp, values: np.ndarray, xs: list, rows: range):
    """Body of a forked child: format ``rows`` into ``tmp``, then ``os._exit``.

    The child never returns into the caller's stack and never flushes the
    stdio or ``fh`` buffers it inherited, nor runs exit handlers.
    """
    code = 1
    try:
        _format_rows(tmp, values, xs, rows)
        tmp.flush()
        code = 0
    except BaseException as e:  # the child's only report; it exits below either way
        os.write(2, f"CSV block child: {type(e).__name__}: {e}\n".encode())
    finally:
        os._exit(code)


def field_to_csv(v: Field) -> str:
    """The CSV dump of ``v`` (see ``write_field_csv``) as one string."""
    buf = io.StringIO()
    write_field_csv(v, buf)
    return buf.getvalue()
