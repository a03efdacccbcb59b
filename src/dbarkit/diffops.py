"""Discrete complex differential operators on cell-centered grids.

Two schemes:

* ``spectral`` -- FFT differentiation treating the field as periodic on the
  square.  Legitimate only for fields that vanish near the boundary.
* ``fd4`` -- 4th-order centered finite differences.  No one-sided stencils:
  the outermost two rings of the result are zeroed and flagged via the
  field's ``zero_band``.

The operators are dbar = (d/dx + i d/dy)/2, del = (d/dx - i d/dy)/2 and the
normalized Laplacian (d2/dx2 + d2/dy2)/4.  ``delz`` is implemented as
conj o dbar o conj, which makes the conjugation identity
delz(conj(v)) == conj(dbar(v)) hold bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidArgumentError
from .grid import Field

SCHEMES = ("spectral", "fd4")


def _check_scheme(scheme):
    if scheme not in SCHEMES:
        raise InvalidArgumentError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")


def _wavenumbers(grid):
    return 2.0 * np.pi * np.fft.fftfreq(grid.n, d=grid.spacing)


def dbar_symbol(grid) -> np.ndarray:
    """Fourier symbol (i k_x - k_y)/2 of dbar on the periodic grid; a fresh array."""
    k = _wavenumbers(grid)
    return 0.5 * (1j * k[:, None] - k[None, :])


def _spectral(v: Field, *symbols) -> tuple[Field, ...]:
    """ifft2(symbol * fft2(v)) for each symbol, sharing one forward FFT."""
    V = np.fft.fft2(v.values)
    return tuple(Field(v.grid, np.fft.ifft2(sym * V), v.zero_band) for sym in symbols)


def _fd4(a: np.ndarray, h: float, axis: int, order: int) -> np.ndarray:
    """4th-order centered derivative of order 1 or 2; outer 2 lines left as garbage."""
    p1, m1, p2, m2 = (np.roll(a, shift, axis=axis) for shift in (-1, 1, -2, 2))
    if order == 1:
        return (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h)
    return (-p2 + 16.0 * p1 - 30.0 * a + 16.0 * m1 - m2) / (12.0 * h * h)


def _zero_band(a: np.ndarray, band: int = 2) -> np.ndarray:
    a[:band] = a[-band:] = 0.0
    a[:, :band] = a[:, -band:] = 0.0
    return a


def dbar(v: Field, scheme: str = "spectral") -> Field:
    """Discrete dbar = (d_x + i d_y)/2."""
    _check_scheme(scheme)
    g = v.grid
    if scheme == "spectral":
        return _spectral(v, dbar_symbol(g))[0]
    h = g.spacing
    out = 0.5 * (_fd4(v.values, h, 0, 1) + 1j * _fd4(v.values, h, 1, 1))
    return Field(g, _zero_band(out), 2)


def delz(v: Field, scheme: str = "spectral") -> Field:
    """Discrete del = (d_x - i d_y)/2, via conj o dbar o conj."""
    return dbar(v.conj(), scheme).conj()


def dbar_and_del(v: Field, scheme: str = "spectral") -> tuple[Field, Field]:
    """(dbar v, del v).  The spectral pair shares one forward FFT; del's symbol
    conj(dbar_symbol[-k]) is that of ``delz`` = conj o dbar o conj, Nyquist lines included."""
    if scheme != "spectral":
        return dbar(v, scheme), delz(v, scheme)
    sym = dbar_symbol(v.grid)
    return _spectral(v, sym, np.conj(np.roll(sym[::-1, ::-1], 1, axis=(0, 1))))


def laplacian_hat(v: Field, scheme: str = "spectral") -> Field:
    """Normalized Laplacian (d2_x + d2_y)/4 from second-derivative symbols/stencils."""
    _check_scheme(scheme)
    g = v.grid
    if scheme == "spectral":
        k = _wavenumbers(g)
        return _spectral(v, -0.25 * (k[:, None] ** 2 + k[None, :] ** 2))[0]
    h = g.spacing
    out = 0.25 * (_fd4(v.values, h, 0, 2) + _fd4(v.values, h, 1, 2))
    return Field(g, _zero_band(out), 2)


def interior_mask(grid, band: int) -> np.ndarray:
    """Boolean mask excluding the outer ``band`` rings."""
    m = np.zeros((grid.n, grid.n), dtype=bool)
    m[band : grid.n - band, band : grid.n - band] = True
    return m


def interior_max(v: Field, extra_band: int = 0) -> float:
    """Sup norm over nodes outside any zeroed band."""
    band = v.zero_band + extra_band
    return float(np.max(np.abs(v.values[interior_mask(v.grid, band)])))
