"""Discrete complex differential operators on cell-centered grids.

The operators are dbar = (d/dx + i d/dy)/2, del = (d/dx - i d/dy)/2 and the
normalized Laplacian (d2/dx2 + d2/dy2)/4, all spectral: FFT differentiation
treating the field as periodic on the square, legitimate only for fields
that vanish near the boundary.  del is not formed on its own here: the norm
identity (``identity``) takes per-axis derivatives of its datum, with del's
symbol that of conj o dbar o conj, Nyquist lines included.

Spectral operators transform through ``_fft2``, which gives numpy's
``fft2``/``ifft2`` to the bit from 1-D transforms over blocks of whole rows
and then whole columns, spread over the usable CPUs, with each symbol built
row block by row block inside the inverse's row pass.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .grid import Field, _line_blocks, _map_blocks


def _wavenumbers(grid):
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)


def _dbar_symbol(k: np.ndarray, rows: slice) -> np.ndarray:
    """Rows ``rows`` of dbar's Fourier symbol (i k_x - k_y)/2 over wavenumbers ``k``."""
    return 0.5 * (1j * k[rows, None] - k[None, :])


def _fft2(rows, shape, inverse=False, out=None, rows_only=False) -> np.ndarray:
    """``np.fft.fft2`` (``ifft2`` if ``inverse``) to the bit, of the array of
    ``shape`` whose rows ``r`` (a slice) are ``rows(r)``, zero-padded on the right.

    numpy's order, each block one 1-D transform written in place into ``out``
    (a new array by default): axis 1 over blocks of whole rows, then axis 0
    over blocks of whole columns, unless ``rows_only``. The blocks hold at
    most ``BLOCK_NODES`` nodes and go to ``_map_blocks``, so an n = 256 grid
    stays on the caller's thread; pocketfft releases the interpreter lock, so
    more threads pay from n = 512.
    ``rows`` runs in the worker threads and may write into its rows of ``out``.
    """
    m0, m1 = shape
    out = np.empty(shape, dtype=complex) if out is None else out
    fft = np.fft.ifft if inverse else np.fft.fft

    def row_pass(r):
        fft(rows(r), n=m1, axis=1, out=out[r])

    def column_pass(c):
        fft(out[:, c], axis=0, out=out[:, c])

    _map_blocks(row_pass, _line_blocks(0, m0, m1))
    if not rows_only:
        _map_blocks(column_pass, _line_blocks(0, m1, m0))
    return out


def _spectral(v: Field, *symbols) -> tuple[Field, ...]:
    """ifft2(symbol * fft2(v)) for each symbol, sharing one forward FFT; a
    symbol is a function of a row slice giving those rows of it, built block
    by block in the inverse's row pass."""
    a = v.values
    V = _fft2(lambda r: a[r], a.shape)
    return tuple(Field(v.grid, _fft2(lambda r, s=s: s(r) * V[r], a.shape, inverse=True))
                 for s in symbols)


def dbar(v: Field, scheme: str = "spectral") -> Field:
    """Discrete dbar = (d_x + i d_y)/2."""
    # ``scheme`` admits "spectral" alone: kept since the benchmark's convergence
    # workload passes it, until the benchmark-upkeep change (ROADMAP item 1)
    if scheme != "spectral":
        raise InvalidArgumentError(f"unknown scheme {scheme!r}; only 'spectral' is supported")
    k = _wavenumbers(v.grid)
    return _spectral(v, lambda r: _dbar_symbol(k, r))[0]


def laplacian_hat(v: Field) -> Field:
    """Normalized Laplacian (d2_x + d2_y)/4 from the second-derivative symbols."""
    k = _wavenumbers(v.grid)
    return _spectral(v, lambda r: -0.25 * (k[r, None] ** 2 + k[None, :] ** 2))[0]


def interior_max(v: Field, extra_band: int = 0) -> float:
    """Sup norm over nodes outside the outer ``extra_band`` rings."""
    inner = slice(extra_band, v.grid.n - extra_band)
    return float(np.max(np.abs(v.values[inner, inner])))
