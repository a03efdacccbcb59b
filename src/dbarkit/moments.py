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
from math import factorial, pi, sqrt

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import DynamicRangeError, InvalidArgumentError, TruncationMassWarning
from .grid import FLOAT_FMT, Field, _ring_mask, _ring_max_ratio, warn_boundary_mass

IM_EXPONENT_CAP = 30.0


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


def _monomial_sums(z: np.ndarray, a: np.ndarray, J: int, h: float) -> np.ndarray:
    """h^2 sum(z^j a) for j = 0..J, multiplying one copy of ``a`` by ``z`` in place."""
    work = np.array(a, dtype=complex)
    out = np.empty(J + 1, dtype=complex)
    for j in range(J + 1):
        if j:
            work *= z
        out[j] = h * h * np.sum(work)
    return out


def moments(f: Field, J: int) -> MomentVector:
    """m_j = integral z^j f dA for j = 0..J by midpoint quadrature."""
    if J < 0:
        raise InvalidArgumentError(f"J must be nonnegative, got {J}")
    g = f.grid
    # bump data are exact zeros off their support, so every step below runs
    # on the nonzero nodes only; their coordinates come from the axis, as a
    # full node array or index pairs would raise the peak of `dbarkit all`
    # (a dense Gaussian datum at n = 1024) by 16 to 32 MB
    nz = f.values != 0
    a = f.values[nz]
    z = np.empty(a.shape, dtype=complex)
    z.real = np.repeat(g.axis, np.count_nonzero(nz, axis=1))
    z.imag = np.broadcast_to(g.axis, nz.shape)[nz]
    # the boundary requirement scales with the strongest monomial weight;
    # the threshold is looser than for plain fields because the monomial
    # factor suppresses the interior peak, not because more mass is allowed
    weight = np.abs(z) / (sqrt(2.0) * g.radius)
    weight **= J
    weight *= np.abs(a)
    warn_boundary_mass(
        _ring_max_ratio(weight, _ring_mask(g.n)[nz]),
        threshold=1e-6,
        context=f"moments up to J={J}",
    )
    del weight
    return MomentVector(J, _monomial_sums(z, a, J, g.spacing))


def fourier2(f: Field, xi: complex, eta: complex) -> complex:
    """fhat(xi, eta) = integral e^{-i(xi x + eta y)} f(x+iy) dx dy.

    Complex arguments are handled by direct quadrature of the analytically
    continued kernel; the exponent magnitude is capped to keep the integrand
    inside double-precision dynamic range.
    """
    return complex(_fourier2_samples(f, np.array([xi], dtype=complex),
                                     np.array([eta], dtype=complex))[0])


def _fourier2_samples(f: Field, xi: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """fhat(xi_s, eta_s) for every sample s by separable midpoint quadrature.

    On the tensor grid the kernel factors as e^{-i xi x_j} e^{-i eta y_k}, so
    all S samples cost 2 S n exponentials and one (S x n) @ (n x n) product
    instead of S n^2 exponentials.
    """
    g = f.grid
    growth = g.radius * (np.abs(xi.imag) + np.abs(eta.imag))
    worst = float(np.max(growth, initial=0.0))
    if worst > IM_EXPONENT_CAP:
        raise DynamicRangeError(
            f"fourier2: |Im| growth exponent {worst:.1f} exceeds cap {IM_EXPONENT_CAP}"
        )
    x = g.axis
    ex = np.exp(-1j * np.outer(xi, x))
    ey = np.exp(-1j * np.outer(eta, x))
    h = g.spacing
    return h * h * np.sum((ex @ f.values) * ey, axis=1)


def default_diagonal_samples() -> np.ndarray:
    """Real sweep xi in [-2, 2] step 0.1 plus the unit ring at 16 angles."""
    line = np.round(np.arange(-2.0, 2.0 + 1e-9, 0.1), 10).astype(complex)
    ring = np.exp(2j * np.pi * np.arange(16) / 16.0)
    return np.concatenate([line, ring])


def diagonal_restriction(f: Field, xi_samples=None, J: int = 10) -> DiagonalSeries:
    """fhat(xi, i*xi) by quadrature, against the truncated moment series."""
    if xi_samples is None:
        xi_samples = default_diagonal_samples()
    xi_samples = np.asarray(xi_samples, dtype=complex)
    mv = moments(f, J)
    values = _fourier2_samples(f, xi_samples, 1j * xi_samples)
    series = polyval(-1j * xi_samples, mv.m / [factorial(j) for j in range(J + 1)])
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


def bargmann_probe(beta: float, a: float, amplitude: float = 1.0,
                   match_tol: float = 1e-4) -> BargmannProbeReport:
    """Test the Gaussian-weighted Plancherel display on f(x) = A e^{-a x^2}.

    The left side is the plane integral of |fhat|^2 e^{-beta (Im xi)^2} with
    fhat the entire extension of the line Fourier transform.  The right side
    is evaluated under two readings of the weighted line integral -- with
    |f| to the first power, and with |f|^2 -- each carrying the constant
    2 pi^{3/2} / sqrt(beta).  All three numbers are reported together with
    which reading (if any) matches the left side.
    """
    if not (beta > 0 and a > 1.0 / beta):
        raise InvalidArgumentError("need beta > 0 and a > 1/beta for convergence")
    # x range: slowest decay rate among a, 2a - 1/beta, a - 1/beta
    rate = min(a, a - 1.0 / beta)
    Lx = sqrt(45.0 / rate)
    nx = 3000
    hx = 2.0 * Lx / nx
    x = -Lx + (np.arange(nx) + 0.5) * hx
    # xi plane: |fhat|^2 e^{-beta t^2} decays like e^{-s^2/(2a)} e^{-(beta-1/(2a)) t^2}
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
    fx = abs(amplitude) * np.exp(-a * x**2)
    rhs_literal = float(const * hx * np.sum(fx * np.exp(x**2 / beta)))
    rhs_quadratic = float(const * hx * np.sum(fx**2 * np.exp(x**2 / beta)))
    rel_lit = abs(lhs - rhs_literal) / abs(lhs)
    rel_quad = abs(lhs - rhs_quadratic) / abs(lhs)
    lit_ok = rel_lit < match_tol
    quad_ok = rel_quad < match_tol
    reading = ("both" if lit_ok and quad_ok else
               "literal" if lit_ok else
               "quadratic" if quad_ok else "none")
    return BargmannProbeReport(beta, a, amplitude, lhs, rhs_literal, rhs_quadratic,
                               reading, rel_lit, rel_quad)
