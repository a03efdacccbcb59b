"""Independent oracles the tests check dbarkit against, outside the package.

* fd4: 4th-order centered finite differences.  With no one-sided stencils,
  the outer ``FD4_BAND`` rings of a result are zeroed.
* Midpoint-rule ``integrate`` and ``pairing``.
* T = dbar - M_{dbar phi}, T* = -del - M_{del phi} and the dual picture
  v = e^{phi} u.  T = M_{e^phi} dbar M_{e^{-phi}}, so k lies in ker T*
  exactly when e^{phi} conj(k) is entire and square-integrable against
  e^{-2 phi}.
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from dbarkit import diffops
from dbarkit.grid import Field, Grid, warn_boundary_mass

FD4_BAND = 2


def _fd4(a: np.ndarray, h: float, axis: int, order: int) -> np.ndarray:
    """4th-order centered derivative of order 1 or 2; outer 2 lines left as garbage."""
    p1, m1, p2, m2 = (np.roll(a, shift, axis=axis) for shift in (-1, 1, -2, 2))
    if order == 1:
        return (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h)
    return (-p2 + 16.0 * p1 - 30.0 * a + 16.0 * m1 - m2) / (12.0 * h * h)


def _fd4_field(v: Field, cx: complex, cy: complex, order: int) -> Field:
    """cx d_x^order v + cy d_y^order v, the outer ``FD4_BAND`` rings zeroed."""
    h = v.grid.spacing
    out = cx * _fd4(v.values, h, 0, order) + cy * _fd4(v.values, h, 1, order)
    out[:FD4_BAND] = out[-FD4_BAND:] = 0.0
    out[:, :FD4_BAND] = out[:, -FD4_BAND:] = 0.0
    return Field(v.grid, out)


def fd4_dbar(v: Field) -> Field:
    return _fd4_field(v, 0.5, 0.5j, 1)


def fd4_delz(v: Field) -> Field:
    """del via conj o fd4_dbar o conj, as in ``diffops.delz``."""
    return fd4_dbar(v.conj()).conj()


def fd4_laplacian_hat(v: Field) -> Field:
    return _fd4_field(v, 0.25, 0.25, 2)


# a set of discrete operators, and the boundary rings their results zero
Scheme = namedtuple("Scheme", "dbar delz laplacian_hat band")
SCHEMES = {
    "spectral": Scheme(diffops.dbar, diffops.delz, diffops.laplacian_hat, 0),
    "fd4": Scheme(fd4_dbar, fd4_delz, fd4_laplacian_hat, FD4_BAND),
}


def integrate(v: Field) -> complex:
    """Midpoint-rule area integral: h^2 * sum of node values."""
    h = v.grid.spacing
    return complex(h * h * np.sum(v.values))


def pairing(f: Field, g: Field) -> complex:
    """Bilinear pairing integral f*g dA (no conjugation)."""
    return integrate(f * g)


def apply_T(v: Field, w) -> Field:
    return diffops.dbar(v) - w.sample_dbarphi(v.grid) * v


def apply_Tstar(v: Field, w) -> Field:
    return -diffops.delz(v) - w.sample_dphi(v.grid) * v


def to_dual_picture(u: Field, w) -> Field:
    return Field(u.grid, w.exp_phi(u.grid.nodes) * u.values)


def from_dual_picture(v: Field, w) -> Field:
    return Field(v.grid, w.exp_phi(v.grid.nodes, -1.0) * v.values)


def kernel_check(g, w, grid: Grid) -> float:
    """Sup-norm residual of T* on k = e^{-phi} conj(g), small exactly when g is entire."""
    z = grid.nodes
    gz = np.asarray(g(z), dtype=complex) * np.ones((grid.n, grid.n))
    k = Field(grid, w.exp_phi(z, -1.0) * np.conj(gz))
    warn_boundary_mass(k, context="kernel_check input")
    return diffops.interior_max(apply_Tstar(k, w), extra_band=2)


def fd4_curvature_margin(w, grid: Grid, lap_scale: float = 1.0) -> np.ndarray:
    """The curvature margin from the fd4 Laplacian of log(lap_scale * lap_hat), 0 on
    the outer ``FD4_BAND`` rings; fd4, as that log need not vanish at the boundary."""
    lap = w.sample_lap_hat(grid)
    num = fd4_laplacian_hat(Field(grid, np.log(lap_scale * lap).astype(complex)))
    mask = diffops.interior_mask(grid, FD4_BAND)
    margin = np.zeros((grid.n, grid.n))
    margin[mask] = np.real(num.values[mask]) / lap[mask] + 2.0
    return margin
