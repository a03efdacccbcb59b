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


def _fd4_d1(a: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order centered first derivative; outer 2 lines left as garbage."""
    p1 = np.roll(a, -1, axis=axis)
    m1 = np.roll(a, 1, axis=axis)
    p2 = np.roll(a, -2, axis=axis)
    m2 = np.roll(a, 2, axis=axis)
    return (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h)


def _fd4_d2(a: np.ndarray, h: float, axis: int) -> np.ndarray:
    """4th-order centered second derivative."""
    p1 = np.roll(a, -1, axis=axis)
    m1 = np.roll(a, 1, axis=axis)
    p2 = np.roll(a, -2, axis=axis)
    m2 = np.roll(a, 2, axis=axis)
    return (-p2 + 16.0 * p1 - 30.0 * a + 16.0 * m1 - m2) / (12.0 * h * h)


def _zero_band(a: np.ndarray, band: int = 2) -> np.ndarray:
    a[:band, :] = 0.0
    a[-band:, :] = 0.0
    a[:, :band] = 0.0
    a[:, -band:] = 0.0
    return a


def dbar(v: Field, scheme: str = "spectral") -> Field:
    """Discrete dbar = (d_x + i d_y)/2."""
    _check_scheme(scheme)
    g = v.grid
    if scheme == "spectral":
        out = np.fft.ifft2(dbar_symbol(g) * np.fft.fft2(v.values))
        return Field(g, out, v.zero_band)
    h = g.spacing
    out = 0.5 * (_fd4_d1(v.values, h, 0) + 1j * _fd4_d1(v.values, h, 1))
    return Field(g, _zero_band(out), 2)


def delz(v: Field, scheme: str = "spectral") -> Field:
    """Discrete del = (d_x - i d_y)/2, via conj o dbar o conj."""
    return dbar(v.conj(), scheme).conj()


def laplacian_hat(v: Field, scheme: str = "spectral") -> Field:
    """Normalized Laplacian (d2_x + d2_y)/4 from second-derivative symbols/stencils."""
    _check_scheme(scheme)
    g = v.grid
    if scheme == "spectral":
        k = _wavenumbers(g)
        out = np.fft.ifft2(-0.25 * (k[:, None] ** 2 + k[None, :] ** 2) * np.fft.fft2(v.values))
        return Field(g, out, v.zero_band)
    h = g.spacing
    out = 0.25 * (_fd4_d2(v.values, h, 0) + _fd4_d2(v.values, h, 1))
    return Field(g, _zero_band(out), 2)


def interior_mask(grid, band: int) -> np.ndarray:
    """Boolean mask excluding the outer ``band`` rings."""
    m = np.zeros((grid.n, grid.n), dtype=bool)
    if band <= 0:
        m[:, :] = True
    else:
        m[band:-band, band:-band] = True
    return m


def interior_max(v: Field, extra_band: int = 0) -> float:
    """Sup norm over nodes outside any zeroed band."""
    band = v.zero_band + extra_band
    return float(np.max(np.abs(v.values[interior_mask(v.grid, band)])))
