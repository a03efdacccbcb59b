"""Moment functionals, the two-variable Fourier transform, its diagonal
restriction, and the Gaussian-weighted Plancherel probe.

The moment sequence m_j = integral z^j f dA vanishes for every j exactly
when f is orthogonal (in the bilinear pairing integral f g dA) to all entire
functions with enough decay; for such data the diagonal Fourier restriction
fhat(xi, i*xi) = sum_j (-i xi)^j / j! * m_j vanishes identically, while a
single nonzero moment keeps it away from zero.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from math import ceil, factorial, inf, pi, sqrt

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import DynamicRangeError, InvalidArgumentError, TruncationMassWarning
from .grid import (FLOAT_FMT, Field, Grid, _line_blocks, _nodes, _nonzero_lines, _ring_mask,
                   warn_boundary_mass)

IM_EXPONENT_CAP = 30.0
# the moments m_0..m_J that the solver and the moment checks take
MOMENT_J = 10
# a reading of the Bargmann display matches when its relative error is below this
MATCH_TOL = 1e-4
# the largest x-node by xi-node count bargmann_probe admits (the fixed
# 3000 x 480 rule it replaced)
MAX_PROBE_NODES = 3000 * 480


@dataclass(frozen=True)
class MomentVector:
    J: int
    m: np.ndarray  # complex, length J+1


@dataclass(frozen=True)
class DiagonalSeries:
    xi_samples: np.ndarray
    values: np.ndarray        # fhat(xi, i*xi) by quadrature
    series_values: np.ndarray  # truncated moment series

    def to_csv(self) -> str:
        fmt = ",".join([FLOAT_FMT] * 6)
        lines = ["xi_re,xi_im,fhat_re,fhat_im,series_re,series_im"]
        for xi, v, s in zip(self.xi_samples, self.values, self.series_values):
            lines.append(fmt % (xi.real, xi.imag, v.real, v.imag, s.real, s.imag))
        return "\n".join(lines) + "\n"


def _monomial_sums(z: np.ndarray, a: np.ndarray, J: int) -> np.ndarray:
    """sum(z^j a) for j = 0..J, multiplying one copy of ``a`` by ``z`` in place."""
    work = np.array(a, dtype=complex)
    out = np.empty(J + 1, dtype=complex)
    for j in range(J + 1):
        if j:
            work *= z
        out[j] = np.sum(work)
    return out


def _fold(g: Grid, blocks, J: int | None = None, l1: bool = False, freqs=None):
    """One pass over the row blocks ``(rows, values)`` of a datum on ``g`` (a
    ``Field``'s ``_line_blocks``, or ``grid._sampled_blocks``), returning the
    ``MomentVector`` up to ``J`` with its boundary-mass warning, h^2 sum |f| if
    ``l1``, and fhat(xi_s, eta_s) for ``freqs`` = (xi, eta); None if not asked.

    Each block with a nonzero adds, in block order, its monomial sums and its
    sum of |f| over its nonzero nodes (one ``np.sum`` each), its two warning
    maxima, and its share of the separable quadrature sum_j e^{-i xi x_j}
    sum_k f_jk e^{-i eta y_k} over its nonzero rows and columns.  The blocks
    depend on n alone, so the result is the same for any CPU count, and it
    differs from one sum over all nodes by rounding within the bound of that
    order (Higham 1993, SIAM J. Sci. Comput. 14(4))."""
    x, h = g.axis, g.spacing
    if isinstance(blocks, Field):
        blocks = [(r, blocks.values[r]) for r in _line_blocks(0, g.n, g.n)]
    sums = np.zeros(0 if J is None else J + 1, dtype=complex)
    total = peak = on_ring = 0.0
    if freqs is not None:
        xi, eta = freqs
        worst = float(np.max(g.radius * (np.abs(xi.imag) + np.abs(eta.imag)), initial=0.0))
        if worst > IM_EXPONENT_CAP:
            raise DynamicRangeError(
                f"fourier2: |Im| growth exponent {worst:.1f} exceeds cap {IM_EXPONENT_CAP}")
        fhat = np.zeros(xi.size, dtype=complex)
        ey, made = np.empty((g.n, xi.size), dtype=complex), np.zeros(g.n, dtype=bool)
    for rows, v in blocks:
        nz = v != 0
        rr, cc = _nonzero_lines(nz, 1), _nonzero_lines(nz, 0)
        if rr.start == rr.stop:
            continue
        if freqs is not None:
            new = cc.start + np.flatnonzero(~made[cc])
            ey[new], made[cc] = np.exp(-1j * np.outer(x[new], eta)), True
            fhat += np.sum(np.exp(-1j * np.outer(x[rows][rr], xi)) * (v[rr, cc] @ ey[cc]), axis=0)
        if J is None and not l1:
            continue
        nz = nz.reshape(-1)
        nz = slice(None) if nz.all() else nz  # a dense block is read in place
        a = v.reshape(-1)[nz]
        mag = np.abs(a)
        total += np.sum(mag) if l1 else 0.0
        if J is not None:
            z = _nodes(x[rows, None], x).reshape(-1)[nz]
            # the boundary requirement scales with the strongest monomial weight; the
            # threshold is looser than for plain fields because the monomial factor
            # suppresses the interior peak, not because more mass is allowed
            weight = (np.abs(z) / (sqrt(2.0) * g.radius)) ** J * mag
            peak = max(peak, np.max(weight))
            ring = _ring_mask(g.n, rows).reshape(-1)[nz]
            on_ring = max(on_ring, np.max(weight[ring], initial=0.0))
            sums += _monomial_sums(z, a, J)
    if J is not None:
        warn_boundary_mass(on_ring / peak if peak else 0.0, threshold=1e-6,
                           context=f"moments up to J={J}")
    return (None if J is None else MomentVector(J, h * h * sums),
            float(h * h * total) if l1 else None, None if freqs is None else h * h * fhat)


def moments(f: Field, J: int) -> MomentVector:
    """m_j = integral z^j f dA for j = 0..J by midpoint quadrature: ``_fold``'s
    sums of z^j f over each row block's nonzero nodes, added in block order."""
    if J < 0:
        raise InvalidArgumentError(f"J must be nonnegative, got {J}")
    return _fold(f.grid, f, J)[0]


def fourier2(f: Field, xi: complex, eta: complex) -> complex:
    """fhat(xi, eta) = integral e^{-i(xi x + eta y)} f(x+iy) dx dy.

    Complex arguments are handled by direct quadrature of the analytically
    continued kernel; the exponent magnitude is capped to keep the integrand
    inside double-precision dynamic range.
    """
    return complex(_fold(f.grid, f, freqs=(np.array([xi], dtype=complex),
                                           np.array([eta], dtype=complex)))[2][0])


def default_diagonal_samples() -> np.ndarray:
    """Real sweep xi in [-2, 2] step 0.1 plus the unit ring at 16 angles."""
    line = np.round(np.arange(-2.0, 2.0 + 1e-9, 0.1), 10).astype(complex)
    ring = np.exp(2j * np.pi * np.arange(16) / 16.0)
    return np.concatenate([line, ring])


def diagonal_restriction(f: Field, mv: MomentVector, xi_samples=None) -> DiagonalSeries:
    """fhat(xi, i*xi) by quadrature, against the moment series truncated
    at ``mv``, the moments of ``f``."""
    xi_samples = np.asarray(default_diagonal_samples() if xi_samples is None else xi_samples,
                            dtype=complex)
    return _diagonal(xi_samples, _fold(f.grid, f, freqs=(xi_samples, 1j * xi_samples))[2], mv)


def _diagonal(xi_samples, values, mv: MomentVector) -> DiagonalSeries:
    """The quadrature ``values`` at ``xi_samples`` beside the series of ``mv``."""
    series = polyval(-1j * xi_samples, mv.m / [factorial(j) for j in range(mv.J + 1)])
    return DiagonalSeries(xi_samples, values, series)


@dataclass(frozen=True)
class BargmannProbeReport:
    beta: float
    a: float
    amplitude: float
    lhs: float
    rhs_literal: float
    rhs_quadratic: float
    matching_reading: str  # "literal" | "quadratic" | "both" | "none"
    rel_err_literal: float
    rel_err_quadratic: float


def _midpoint(L: float, n: int) -> tuple[np.ndarray, float]:
    """The n midpoint nodes of [-L, L] and their step."""
    h = 2.0 * L / n
    return -L + (np.arange(n) + 0.5) * h, h


def _probe_rules(beta: float, a: float):
    """bargmann_probe's x, s and t midpoint rules, each as (nodes, step)."""
    # x range: slowest decay rate among a, 2a - 1/beta, a - 1/beta
    rate = min(a, a - 1.0 / beta)
    Lx = sqrt(45.0 / rate)
    # xi plane: |fhat|^2 e^{-beta t^2} decays like e^{-s^2/(2a)} e^{-(beta-1/(2a)) t^2}
    s_rate = 1.0 / (2.0 * a)
    t_rate = beta - 1.0 / (2.0 * a)
    Ls = sqrt(42.0 / s_rate)
    Lt = sqrt(42.0 / t_rate)
    nxi = ceil(84.0 / pi)  # 2 L / (pi / sqrt(42 rate)) on either axis
    # the x step that keeps the aliasing term below e^-45 over the xi window
    nx = ceil(2.0 * Lx * (Ls + sqrt(Lt**2 + 4.0 * a * 45.0)) / (2.0 * pi))
    if nx * nxi > MAX_PROBE_NODES:
        raise InvalidArgumentError(
            f"bargmann_probe: a*beta - 1 = {a * beta - 1.0:.3g} needs a {nx} x {nxi} rule, "
            f"more than the {MAX_PROBE_NODES} nodes allowed")
    return _midpoint(Lx, nx), _midpoint(Ls, nxi), _midpoint(Lt, nxi)


def bargmann_probe(beta: float, a: float, amplitude: float = 1.0) -> BargmannProbeReport:
    """Test the Gaussian-weighted Plancherel display on f(x) = A e^{-a x^2}.

    The left side is the plane integral of |fhat|^2 e^{-beta (Im xi)^2} with
    fhat the entire extension of the line Fourier transform.  The right side
    is evaluated under two readings of the weighted line integral -- with
    |f| to the first power, and with |f|^2 -- each carrying the constant
    2 pi^{3/2} / sqrt(beta).  All three numbers are reported together with
    which reading (if any) matches the left side to within ``MATCH_TOL``.

    Every integrand is a Gaussian, for which the midpoint rule converges
    geometrically, so the rule sizes follow from the decay rates with the
    windows' exponent budgets (e^-45 in x, e^-42 in the xi plane):

    * xi plane: |fhat(s+it)|^2 e^{-beta t^2} is proportional to
      e^{-s_rate s^2 - t_rate t^2}; a step pi / sqrt(42 rate) per axis puts
      ceil(84/pi) = 27 nodes on each of [-Ls, Ls] and [-Lt, Lt].
    * x: fhat's integrand e^{-a x^2 + (t - i s) x} has the line transform
      sqrt(pi/a) e^{(t - i(s + w))^2/(4a)}, so the rule's aliasing term at
      w = 2 pi/hx stays below e^-45 times sqrt(pi/a) when
      2 pi/hx >= Ls + sqrt(Lt^2 + 4 a 45).  The same step covers the right
      sides, whose rates a - 1/beta and 2a - 1/beta need only
      sqrt(4 * 45 * rate).  nx depends on a*beta alone:
      nx = 90, 72 and 61 at a*beta = 1.5, 2 and 3.

    nx grows like (a*beta - 1)^{-1/2} as a*beta approaches 1.  A rule whose
    (x, xi) matrices would hold more than the 3000 x 480 entries of the
    former fixed rule raises InvalidArgumentError naming a*beta - 1; that
    happens from a*beta - 1 = 1e-6 down.
    """
    if not (0.0 < beta < inf and 1.0 / beta < a < inf):
        raise InvalidArgumentError("need finite beta > 0 and a > 1/beta for convergence")
    (x, hx), (s, hs), (t, ht) = _probe_rules(beta, a)
    if amplitude == 0.0:
        return BargmannProbeReport(beta, a, amplitude, 0.0, 0.0, 0.0, "both", 0.0, 0.0)
    # fhat(s + it) = integral e^{-i s x} e^{t x - a x^2} dx, exponent combined
    E = np.exp(-1j * np.outer(s, x))
    G = np.exp(np.outer(x, t) - a * x[:, None] ** 2)
    FH = amplitude * hx * (E @ G)  # indexed (s, t)
    damped = np.abs(FH) * np.exp(-0.5 * beta * t[None, :] ** 2)
    tail = float(max(np.max(damped[[0, -1], :]), np.max(damped[:, [0, -1]])))
    # the tail enters the integral quadratically, so 1e-6 relative keeps the
    # truncation error far below the match tolerance
    if tail > 1e-6 * float(np.max(damped)):
        warnings.warn("bargmann_probe: xi-plane truncation tail above tolerance",
                      TruncationMassWarning, stacklevel=2)
    lhs = float(hs * ht * np.sum(np.abs(FH) ** 2 * np.exp(-beta * t[None, :] ** 2)))
    const = 2.0 * pi**1.5 / sqrt(beta)
    # |f| e^{x^2/beta} and |f|^2 e^{x^2/beta} with their exponents combined:
    # near a*beta = 1, e^{x^2/beta} alone overflows where e^{-a x^2} underflows
    x2 = x**2
    rhs_literal = float(const * hx * abs(amplitude)
                        * np.sum(np.exp(-(a - 1.0 / beta) * x2)))
    rhs_quadratic = float(const * hx * amplitude**2
                          * np.sum(np.exp(-(2.0 * a - 1.0 / beta) * x2)))
    rel_lit = abs(lhs - rhs_literal) / abs(lhs)
    rel_quad = abs(lhs - rhs_quadratic) / abs(lhs)
    lit_ok = rel_lit < MATCH_TOL
    quad_ok = rel_quad < MATCH_TOL
    reading = ("both" if lit_ok and quad_ok else
               "literal" if lit_ok else
               "quadratic" if quad_ok else "none")
    return BargmannProbeReport(beta, a, amplitude, lhs, rhs_literal, rhs_quadratic,
                               reading, rel_lit, rel_quad)
