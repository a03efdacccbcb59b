"""The weighted norm identity, the twisted operators T and T*, and the
kernel characterization of T*.

For a C^2 weight phi and compactly supported smooth v,

    ||dbar v - v dbar(phi)||^2 - ||del v + v del(phi)||^2
        = 2 * integral |v|^2 laplacian_hat(phi) dA.

With T = dbar - M_{dbar phi} and T* = -del - M_{del phi} the left side is
||T v||^2 - ||T* v||^2, and T factors as M_{e^phi} dbar M_{e^{-phi}}, so
k lies in ker T* exactly when e^{phi} conj(k) is entire and square-integrable
against e^{-2 phi}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diffops
from .grid import Field, Grid, warn_boundary_mass, weighted_norm_sq
from .weights import Weight

REL_ERR_FLOOR = 1e-30


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    scheme: str
    passes: bool
    isometry_mode: bool = False


def apply_T(v: Field, w: Weight, scheme: str = "spectral") -> Field:
    """T v = dbar(v) - dbar(phi) * v."""
    return diffops.dbar(v, scheme) - w.sample_dbarphi(v.grid) * v


def apply_Tstar(v: Field, w: Weight, scheme: str = "spectral") -> Field:
    """T* v = -del(v) - del(phi) * v."""
    return -diffops.delz(v, scheme) - w.sample_dphi(v.grid) * v


def verify_norm_identity(v: Field, w: Weight, scheme: str = "spectral",
                         rel_tol: float = 1e-6) -> IdentityReport:
    """Check ||T v||^2 - ||T* v||^2 against 2*integral(|v|^2 lap_hat(phi)).

    For the trivial weight the right side vanishes identically and the check
    degenerates to the isometry |dbar v| vs |del v|: the report then compares
    the two norms directly and the relative error is taken against ||del v||^2.
    """
    warn_boundary_mass(v, context="norm-identity test field")
    dv, delv = diffops.dbar_and_del(v, scheme)
    trivial = w.is_trivial()
    if trivial:
        lhs, rhs = weighted_norm_sq(dv, 1.0), weighted_norm_sq(delv, 1.0)
    else:  # ||T v||^2 - ||T* v||^2
        lhs = (weighted_norm_sq(dv - w.sample_dbarphi(v.grid) * v, 1.0)
               - weighted_norm_sq(delv + w.sample_dphi(v.grid) * v, 1.0))
        rhs = 2.0 * weighted_norm_sq(v, w.sample_lap_hat(v.grid))
    abs_err = abs(lhs - rhs)
    rel_err = abs_err / max(abs(rhs), REL_ERR_FLOOR)
    return IdentityReport(lhs, rhs, abs_err, rel_err, scheme, rel_err < rel_tol, trivial)


def to_dual_picture(u: Field, w: Weight) -> Field:
    """v = e^{phi} u."""
    return Field(u.grid, w.exp_phi(u.grid.nodes) * u.values, u.zero_band)


def from_dual_picture(v: Field, w: Weight) -> Field:
    """u = e^{-phi} v; exact inverse of to_dual_picture."""
    return Field(v.grid, w.exp_phi(v.grid.nodes, -1.0) * v.values, v.zero_band)


def kernel_check(g, w: Weight, grid: Grid, scheme: str = "spectral") -> float:
    """Sup-norm residual of T* applied to e^{-phi} conj(g).

    A small residual certifies that k = e^{-phi} conj(g) lies in ker T*,
    which happens exactly when g is entire (with enough decay of g e^{-phi}).
    """
    z = grid.nodes
    k = Field(grid, w.exp_phi(z, -1.0) * np.conj(np.asarray(g(z), dtype=complex) * np.ones((grid.n, grid.n))))
    warn_boundary_mass(k, context="kernel_check input")
    r = apply_Tstar(k, w, scheme)
    return diffops.interior_max(r, extra_band=2)
