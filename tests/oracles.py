"""Independent oracles the tests check dbarkit against, outside the package.

* fd4: 4th-order centered finite differences.  With no one-sided stencils,
  the outer ``FD4_BAND`` rings of a result are zeroed.
* Spectral ``delz`` = conj o dbar o conj, the del operator on its own, and
  ``dbar_and_del``, both operators from one 2-D forward transform with
  del's symbol conj(dbar's at -k).  The package forms neither: its norm identity takes
  per-axis derivatives on the datum's support lines.
* Midpoint-rule ``integrate`` and ``pairing``.
* ``csv_rows_reference``: the CSV dump of a field, every number formatted
  by ``%``.
* ``moments_gathered``: the moments from one full-length gather of the
  datum's nonzero values and nodes, each m_j one ``np.sum``.
* ``bargmann_probe_dense``: the Plancherel probe on a fixed 3000 x 480 rule,
  with e^{x^2/beta} as its own factor on the right sides.
* ``norm_identity_terms`` and ``norm_identity_fields``: the norms and the
  two sides of the norm identity from ``dbar_and_del``, full-grid weight
  fields, products and ``weighted_norm_sq``.
* ``solve_sides_full_grid``: ``solve_dbar``'s h2 sides and tail mass from
  a full-grid node array and boolean masks of the support disk.
* ``fock_project_full_grid`` and ``check_hormander_bound_full_grid``: the
  Fock projection over k = 0..``FOCK_TERMS`` on full-grid arrays, and the
  classical bound from it: two projections, the sides by ``weighted_norm_sq``.
* T = dbar - M_{dbar phi}, T* = -del - M_{del phi} and the dual picture
  v = e^{phi} u.  T = M_{e^phi} dbar M_{e^{-phi}}, so k lies in ker T*
  exactly when e^{phi} conj(k) is entire and square-integrable against
  e^{-2 phi}.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from math import exp, lgamma, pi, sqrt

import numpy as np

from dbarkit import diffops
from dbarkit.errors import InvalidArgumentError, TruncationMassWarning
from dbarkit.grid import (FLOAT_FMT, Field, Grid, _ring_mask, boundary_mass,
                          warn_boundary_mass, weighted_norm_sq)
from dbarkit.moments import MATCH_TOL, BargmannProbeReport, MomentVector, _monomial_sums
from dbarkit.solver import FOCK_TERMS, BoundReport, dbar_invert_spectral, support_radius

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


def delz(v: Field) -> Field:
    """Spectral del = (d_x - i d_y)/2, via conj o dbar o conj."""
    return diffops.dbar(v.conj()).conj()


def fd4_delz(v: Field) -> Field:
    """del via conj o fd4_dbar o conj, as ``delz``."""
    return fd4_dbar(v.conj()).conj()


def fd4_laplacian_hat(v: Field) -> Field:
    return _fd4_field(v, 0.25, 0.25, 2)


# a set of discrete operators, and the boundary rings their results zero
Scheme = namedtuple("Scheme", "dbar delz laplacian_hat band")
SCHEMES = {
    "spectral": Scheme(diffops.dbar, delz, diffops.laplacian_hat, 0),
    "fd4": Scheme(fd4_dbar, fd4_delz, fd4_laplacian_hat, FD4_BAND),
}


def integrate(v: Field) -> complex:
    """Midpoint-rule area integral: h^2 * sum of node values."""
    h = v.grid.spacing
    return complex(h * h * np.sum(v.values))


def pairing(f: Field, g: Field) -> complex:
    """Bilinear pairing integral f*g dA (no conjugation)."""
    return integrate(f * g)


def csv_rows_reference(v: Field) -> str:
    """The CSV dump of ``v``, every number formatted by ``FLOAT_FMT %``, one
    grid row per ``%``."""
    xs = [FLOAT_FMT % x + "," for x in v.grid.axis.tolist()]
    tails = [y + FLOAT_FMT + "," + FLOAT_FMT + "\n" for y in xs]
    rows = v.values.view(float).tolist()
    return "re,im,val_re,val_im\n" + "".join(
        "".join(x + t for t in tails) % tuple(row) for x, row in zip(xs, rows))


def moments_gathered(f: Field, J: int) -> MomentVector:
    """``moments.moments`` from full-length copies: the nonzero values ``a``,
    their nodes ``z`` and the warning's monomial weight, one array each."""
    g = f.grid
    nz = f.values != 0
    a = f.values[nz]
    z = np.empty(a.shape, dtype=complex)
    z.real = np.repeat(g.axis, np.count_nonzero(nz, axis=1))
    z.imag = np.broadcast_to(g.axis, nz.shape)[nz]
    weight = np.abs(z) / (sqrt(2.0) * g.radius)
    weight **= J
    weight *= np.abs(a)
    peak = np.max(weight, initial=0.0)
    ring = np.max(weight[_ring_mask(g.n)[nz]], initial=0.0)
    warn_boundary_mass(float(ring / peak) if peak else 0.0, threshold=1e-6,
                       context=f"moments up to J={J}")
    return MomentVector(J, _monomial_sums(z, a, J, g.spacing))


def solve_sides_full_grid(f: Field, u: Field, w) -> tuple[float, float, float]:
    """``solver.solve_dbar``'s (h2_lhs, h2_rhs, tail_mass) for the datum f and
    its solution u, gathered through full-grid masks of the disk
    |z| <= support_radius(f) + 2h."""
    g = f.grid
    h = g.spacing
    z = g.nodes
    disk = np.abs(z) <= support_radius(f) + 2.0 * h
    e2phi = w.exp_phi(z[disk], 2.0)
    lap = w.lap_hat_phi(z[disk])
    ud, fd = u.values[disk], f.values[disk]
    u2 = ud.real**2 + ud.imag**2
    f2 = fd.real**2 + fd.imag**2
    h2_lhs = 2.0 * float(h * h * np.sum(u2 * (e2phi * lap)))
    h2_rhs = float(h * h * np.sum(f2 * e2phi))
    tail_mass = float(np.max(np.abs(u.values[~disk]))) if not np.all(disk) else 0.0
    return h2_lhs, h2_rhs, tail_mass


def fock_project_full_grid(u: Field, terms: int = FOCK_TERMS) -> Field:
    """The series sum_k <u, z^k> z^k / (pi k!), k = 0..terms, on full-grid
    arrays: the pairings from ``_monomial_sums``, the sum by Horner's rule."""
    g = u.grid
    z = g.nodes
    gauss = np.exp(-(z.real**2 + z.imag**2))
    c = _monomial_sums(np.conj(z), u.values * gauss, terms, g.spacing)
    c *= [exp(-lgamma(k + 1)) / pi for k in range(terms + 1)]
    out = np.full(z.shape, c[-1])
    for ck in c[-2::-1]:
        out *= z
        out += ck
    return Field(g, out)


def check_hormander_bound_full_grid(f: Field, w, slack: float = 0.01) -> BoundReport:
    """``solver.check_hormander_bound`` from full-grid fields: u, Pu and P(Pu)
    by ``fock_project_full_grid``, and the weight sampled on the grid."""
    g = f.grid
    u = dbar_invert_spectral(f)
    Pu = fock_project_full_grid(u)
    gauss = w.exp_phi(g.nodes, -2.0)
    h1_lhs = weighted_norm_sq(u - Pu, gauss)
    h1_rhs = 0.5 * weighted_norm_sq(f, gauss / w.sample_lap_hat(g))
    idem = sqrt(weighted_norm_sq(fock_project_full_grid(Pu) - Pu, gauss))
    return BoundReport(h1_lhs, h1_rhs, h1_lhs <= h1_rhs * (1.0 + slack), idem)


def apply_T(v: Field, w) -> Field:
    return diffops.dbar(v) - w.sample_dbarphi(v.grid) * v


def apply_Tstar(v: Field, w) -> Field:
    return -delz(v) - w.sample_dphi(v.grid) * v


def dbar_and_del(v: Field) -> tuple[Field, Field]:
    """(dbar v, del v) from one forward FFT; del's symbol conj(dbar symbol[-k])
    is that of conj o dbar o conj, Nyquist lines included."""
    k = diffops._wavenumbers(v.grid)
    kneg = k[-np.arange(v.grid.n)]  # k[-j mod n]
    return diffops._spectral(v, lambda r: diffops._dbar_symbol(k, r),
                             lambda r: np.conj(diffops._dbar_symbol(kneg, r)))


def norm_identity_terms(v: Field, w) -> tuple[float, float, float]:
    """(||T v||^2, ||T* v||^2, 2 integral |v|^2 lap_hat(phi)) in Field
    arithmetic: ``dbar_and_del``, the weight fields, the products T v, T* v
    and the sums over the whole grid.  For the trivial weight T = dbar,
    T* = -del and the last term is 0."""
    dv, delv = dbar_and_del(v)
    with np.errstate(over="ignore", invalid="ignore"):
        if w.is_trivial():
            return weighted_norm_sq(dv, 1.0), weighted_norm_sq(delv, 1.0), 0.0
        tv = weighted_norm_sq(dv - w.sample_dbarphi(v.grid) * v, 1.0)
        tsv = weighted_norm_sq(delv + w.sample_dphi(v.grid) * v, 1.0)
        # a plain integral, as laplacian_hat(phi) need not be positive
        h = v.grid.spacing
        lap = w.sample_lap_hat(v.grid)
        return tv, tsv, 2.0 * float(h * h * np.sum((v.values.real**2 + v.values.imag**2) * lap))


def norm_identity_fields(v: Field, w) -> tuple[float, float]:
    """(lhs, rhs) of ``identity.verify_norm_identity`` from ``norm_identity_terms``:
    (||T v||^2 - ||T* v||^2, 2 integral |v|^2 lap_hat(phi)), and for the
    trivial weight (||dbar v||^2, ||del v||^2)."""
    tv, tsv, rhs = norm_identity_terms(v, w)
    return (tv, tsv) if w.is_trivial() else (tv - tsv, rhs)


def to_dual_picture(u: Field, w) -> Field:
    return Field(u.grid, w.exp_phi(u.grid.nodes) * u.values)


def from_dual_picture(v: Field, w) -> Field:
    return Field(v.grid, w.exp_phi(v.grid.nodes, -1.0) * v.values)


def kernel_check(g, w, grid: Grid) -> float:
    """Sup-norm residual of T* on k = e^{-phi} conj(g), small exactly when g is entire."""
    z = grid.nodes
    gz = np.asarray(g(z), dtype=complex) * np.ones((grid.n, grid.n))
    k = Field(grid, w.exp_phi(z, -1.0) * np.conj(gz))
    warn_boundary_mass(boundary_mass(k), context="kernel_check input")
    return diffops.interior_max(apply_Tstar(k, w), extra_band=2)


def interior_mask(grid, band: int) -> np.ndarray:
    """Boolean mask excluding the outer ``band`` rings."""
    m = np.zeros((grid.n, grid.n), dtype=bool)
    m[band : grid.n - band, band : grid.n - band] = True
    return m


def fd4_curvature_margin(w, grid: Grid, lap_scale: float = 1.0) -> np.ndarray:
    """The curvature margin from the fd4 Laplacian of log(lap_scale * lap_hat), 0 on
    the outer ``FD4_BAND`` rings; fd4, as that log need not vanish at the boundary."""
    lap = w.sample_lap_hat(grid)
    num = fd4_laplacian_hat(Field(grid, np.log(lap_scale * lap).astype(complex)))
    mask = interior_mask(grid, FD4_BAND)
    margin = np.zeros((grid.n, grid.n))
    margin[mask] = np.real(num.values[mask]) / lap[mask] + 2.0
    return margin


def bargmann_probe_dense(beta: float, a: float, amplitude: float = 1.0) -> BargmannProbeReport:
    """``moments.bargmann_probe`` with 3000 x-nodes and 480 nodes per xi axis."""
    if not (beta > 0 and a > 1.0 / beta):
        raise InvalidArgumentError("need beta > 0 and a > 1/beta for convergence")
    rate = min(a, a - 1.0 / beta)
    Lx = sqrt(45.0 / rate)
    nx = 3000
    hx = 2.0 * Lx / nx
    x = -Lx + (np.arange(nx) + 0.5) * hx
    s_rate = 1.0 / (2.0 * a)
    t_rate = beta - 1.0 / (2.0 * a)
    Ls = sqrt(42.0 / s_rate)
    Lt = sqrt(42.0 / t_rate)
    nxi = 480
    hs = 2.0 * Ls / nxi
    ht = 2.0 * Lt / nxi
    s = -Ls + (np.arange(nxi) + 0.5) * hs
    t = -Lt + (np.arange(nxi) + 0.5) * ht
    if amplitude == 0.0:
        return BargmannProbeReport(beta, a, amplitude, 0.0, 0.0, 0.0, "both", 0.0, 0.0)
    E = np.exp(-1j * np.outer(s, x))
    G = np.exp(np.outer(x, t) - a * x[:, None] ** 2)
    FH = amplitude * hx * (E @ G)  # indexed (s, t)
    damped = np.abs(FH) * np.exp(-0.5 * beta * t[None, :] ** 2)
    tail = float(max(np.max(damped[[0, -1], :]), np.max(damped[:, [0, -1]])))
    if tail > 1e-6 * float(np.max(damped)):
        warnings.warn("bargmann_probe: xi-plane truncation tail above tolerance",
                      TruncationMassWarning, stacklevel=2)
    lhs = float(hs * ht * np.sum(np.abs(FH) ** 2 * np.exp(-beta * t[None, :] ** 2)))
    const = 2.0 * pi**1.5 / sqrt(beta)
    fx = abs(amplitude) * np.exp(-a * x**2)
    rhs_literal = float(const * hx * np.sum(fx * np.exp(x**2 / beta)))
    rhs_quadratic = float(const * hx * np.sum(fx**2 * np.exp(x**2 / beta)))
    rel_lit = abs(lhs - rhs_literal) / abs(lhs)
    rel_quad = abs(lhs - rhs_quadratic) / abs(lhs)
    lit_ok = rel_lit < MATCH_TOL
    quad_ok = rel_quad < MATCH_TOL
    reading = ("both" if lit_ok and quad_ok else
               "literal" if lit_ok else
               "quadratic" if quad_ok else "none")
    return BargmannProbeReport(beta, a, amplitude, lhs, rhs_literal, rhs_quadratic,
                               reading, rel_lit, rel_quad)
