"""The weighted norm identity.

For a C^2 weight phi and compactly supported smooth v,

    ||dbar v - v dbar(phi)||^2 - ||del v + v del(phi)||^2
        = 2 * integral |v|^2 laplacian_hat(phi) dA.

With T = dbar - M_{dbar phi} and T* = -del - M_{del phi} the left side is
||T v||^2 - ||T* v||^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffops
from .errors import DynamicRangeError
from .grid import Field, warn_boundary_mass, weighted_norm_sq
from .weights import Weight

REL_ERR_FLOOR = 1e-30


@dataclass(frozen=True)
class IdentityReport:
    lhs: float
    rhs: float
    abs_err: float
    rel_err: float
    passes: bool
    isometry_mode: bool = False


def verify_norm_identity(v: Field, w: Weight, rel_tol: float = 1e-6) -> IdentityReport:
    """Check ||T v||^2 - ||T* v||^2 against 2*integral(|v|^2 lap_hat(phi)).

    For the trivial weight the right side vanishes identically and the check
    degenerates to the isometry |dbar v| vs |del v|: the report then compares
    the two norms directly and the relative error is taken against ||del v||^2.
    """
    warn_boundary_mass(v, context="norm-identity test field")
    dv, delv = diffops.dbar_and_del(v)
    trivial = w.is_trivial()
    # an overflow here leaves abs_err non-finite, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        if trivial:
            lhs, rhs = weighted_norm_sq(dv, 1.0), weighted_norm_sq(delv, 1.0)
        else:  # ||T v||^2 - ||T* v||^2
            lhs = (weighted_norm_sq(dv - w.sample_dbarphi(v.grid) * v, 1.0)
                   - weighted_norm_sq(delv + w.sample_dphi(v.grid) * v, 1.0))
            rhs = 2.0 * weighted_norm_sq(v, w.sample_lap_hat(v.grid))
    abs_err = abs(lhs - rhs)
    if not math.isfinite(abs_err):  # a NaN error would compare as no error at all
        raise DynamicRangeError(f"weight {w.name!r}: the norm identity's sides leave the "
                                f"float range (lhs={lhs:.6g}, rhs={rhs:.6g})")
    rel_err = abs_err / max(abs(rhs), REL_ERR_FLOOR)
    return IdentityReport(lhs, rhs, abs_err, rel_err, rel_err < rel_tol, trivial)
