"""The weighted norm identity.

For a C^2 weight phi and compactly supported smooth v,

    ||dbar v - v dbar(phi)||^2 - ||del v + v del(phi)||^2
        = 2 * integral |v|^2 laplacian_hat(phi) dA.

With T = dbar - M_{dbar phi} and T* = -del - M_{del phi} the left side is
||T v||^2 - ||T* v||^2.

The check never forms dbar v or del v on the whole grid.  Both are sums of
per-axis parts, dbar v = d_x v + i d_y v and del v = d_x' v - i d_y' v, with
d_s the spectral (d/ds)/2: one 1-D transform pair along each row of v's
nonzero bounding box (its rows R) and along each of its columns (C).  del's
symbol is that of conj o dbar o conj, conj(dbar's at -k): at even n it
flips the sign of each line's Nyquist term, so d_s' is d_s less twice that
term, taken from the line's own Nyquist coefficient.  Off R x C, v = 0, so
T v and T* v reduce to d_y and d_y' on the rows R (the row arms), to d_x and
d_x' on the columns C (the column arms), and to 0 elsewhere.

A column pass over blocks of C keeps d_x on the box in one buffer and sums
the column arms; then a pass over blocks of whole grid rows
(``grid._line_blocks``) evaluates del(phi) and laplacian_hat(phi) on each
block's nodes, checks them, and for its rows in R transforms the row, sums
the row arms and forms T v, T* v and |v|^2 lap_hat(phi) on the box.  Both
passes go to ``grid._map_blocks``; the block sums are added in block order,
and the blocks depend on n alone, so the sides do not depend on the CPU
count.  Against the whole grid's 2-D transforms the sides move by rounding
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diffops
from .errors import DynamicRangeError, SamplingError
from .grid import (Field, _abs2_sum, _first_non_finite, _line_blocks, _map_blocks, _nodes,
                   _nonzero_lines, boundary_mass, warn_boundary_mass)
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
    trivial = w.is_trivial()
    g = v.grid
    x, n = g.axis, g.n
    rows, cols = _nonzero_lines(v.values, 1), _nonzero_lines(v.values, 0)
    box = v.values[rows, cols]
    warn_boundary_mass(boundary_mass(v, rows, cols), context="norm-identity test field")
    nr, nc = box.shape
    half_ik = 0.5j * diffops._wavenumbers(g)
    # filled by the column pass for the row pass: d_x on the box, and each
    # box column's Nyquist term (at even n)
    dx = np.empty(box.shape, dtype=complex)
    qx = np.empty(nc, dtype=complex) if n % 2 == 0 else None

    def column_sums(c):
        """|d_x|^2 and |d_x'|^2 summed over the column arms of box columns ``c``."""
        d, q = _half_derivative(box[:, c].T, n, half_ik)
        dx[:, c] = d[:, :nr].T
        if q is not None:
            qx[c] = q
        arm = _abs2_sum(d[:, nr:])
        _to_del(d, q)
        return arm, _abs2_sum(d[:, nr:])

    def row_sums(r):
        """Over rows ``r``: |T v|^2 and |T* v|^2 summed but for the column
        arms, |v|^2 lap_hat(phi) summed, and the first non-finite del(phi)
        and lap_hat(phi) nodes (or None)."""
        # errstate is per thread; non-finite values are reported below instead
        with np.errstate(over="ignore", invalid="ignore"):
            if not trivial:
                z = _nodes(x[r, None], x)
                d = np.broadcast_to(np.asarray(w.dphi(z), dtype=complex), z.shape)
                lap = np.broadcast_to(np.asarray(w.lap_hat_phi(z), dtype=complex), z.shape)
                bad = [_first_non_finite(f, r.start * n) for f in (d, lap)]
                if bad != [None, None]:
                    return 0.0, 0.0, 0.0, *bad
            b = slice(max(r.start, rows.start) - rows.start, min(r.stop, rows.stop) - rows.start)
            if b.start >= b.stop:  # v = 0 on these rows, so T v = T* v = 0 off the column arms
                return 0.0, 0.0, 0.0, None, None
            av = box[b]
            dy, qy = _half_derivative(av, n, half_ik)
            dx_del = dx[b].copy()
            _to_del(dx_del.T, qx, b.start)
            tv = dx[b] + 1j * dy[:, :nc]  # dbar v, then T v, on the box
            tv_arm = _abs2_sum(dy[:, nc:])
            _to_del(dy, qy)
            tsv = dx_del - 1j * dy[:, :nc]  # del v, then -T* v, on the box
            vlap = 0.0
            if not trivial:
                on = (slice(b.start + rows.start - r.start, b.stop + rows.start - r.start), cols)
                tv -= np.conj(d[on]) * av
                tsv += d[on] * av
                vlap = _abs2_sum(av, lap[on].real)
            return (_abs2_sum(tv) + tv_arm, _abs2_sum(tsv) + _abs2_sum(dy[:, nc:]), vlap,
                    None, None)

    arms = _map_blocks(column_sums, _line_blocks(0, nc, n))
    parts = _map_blocks(row_sums, _line_blocks(0, n, n))
    for k, label in ((3, "dbar(phi)"), (4, "laplacian_hat(phi)")):
        bad = next((p[k] for p in parts if p[k] is not None), None)
        if bad is not None:
            raise SamplingError(f"weight {w.name!r}, {label}: non-finite field value at "
                                f"flat node {bad}", node_index=bad)
    h2 = g.spacing * g.spacing
    # an overflow here leaves abs_err non-finite, which raises below
    with np.errstate(over="ignore", invalid="ignore"):
        tv, tsv = (h2 * (sum(p[k] for p in parts) + sum(p[k] for p in arms)) for k in range(2))
        vlap = h2 * sum(p[2] for p in parts)
        lhs, rhs = (float(tv), float(tsv)) if trivial else (float(tv - tsv), float(2.0 * vlap))
    abs_err = abs(lhs - rhs)
    if not math.isfinite(abs_err):  # a NaN error would compare as no error at all
        raise DynamicRangeError(f"weight {w.name!r}: the norm identity's sides leave the "
                                f"float range (lhs={lhs:.6g}, rhs={rhs:.6g})")
    rel_err = abs_err / max(abs(rhs), REL_ERR_FLOOR)
    return IdentityReport(lhs, rhs, abs_err, rel_err, rel_err < rel_tol, trivial)


def _half_derivative(lines: np.ndarray, n: int, half_ik: np.ndarray):
    """(d/ds)/2 along axis 1 of ``lines``, each zero-padded to length n and
    read as periodic, as ifft(half_ik * fft); with it, at even n, each line's
    Nyquist term q: its share of the result is q (-1)^j.  A line that is a
    box segment starting at grid node s gives node s + j (mod n) at index j:
    the derivative commutes with the shift."""
    d = np.fft.fft(lines, n=n, axis=1)
    d *= half_ik
    q = d[:, n // 2] / n if n % 2 == 0 else None
    np.fft.ifft(d, axis=1, out=d)
    return d, q


def _to_del(d: np.ndarray, q, first: int = 0):
    """Turn ``_half_derivative``'s lines ``d`` (axis 1 from index ``first``)
    into del's parts in place: del's symbol is conj(dbar's at -k), which
    flips the sign of the Nyquist term."""
    if q is not None:
        q2 = 2.0 * np.asarray(q)[:, None]
        d[:, first % 2::2] -= q2
        d[:, 1 - first % 2::2] += q2
