"""Solution of dbar u = f and verification of the weighted bounds.

The solver inverts the dbar symbol on the periodic grid with the zero mode
removed, followed by an additive-constant calibration on the boundary ring.
For data whose moments all vanish the decaying solution is identically zero
outside the datum's support disk, so the error left is that of sampled
data: for the seed-42 bump at R = 6, max|u - v| against the closed form v
(max|v| = 8.08) is 1.7e-4 at n = 256 and 2.9e-10 at n = 1024.

``cauchy_transform`` is the independent quadrature of
u(z) = (1/pi) integral f(w)/(z - w) dA(w), with the cell containing the
target contributing zero (the kernel integrates to zero over any region
symmetric about the target), evaluated as an FFT convolution on a 2n x 2n
pad.  Error and residual are of order 2.0: for the seed-42 bump at R = 6 the
sup error is 8.8e-2, 2.2e-2, 5.4e-3, 1.4e-3 at n = 128, 256, 512, 1024.
The convolution runs on ``diffops._fft2``'s threaded row and column blocks
and skips the work whose result is known or dropped; its bits are those of
whole-array ``fft2``/``ifft2``.  One transform at n = 1024 takes about
0.21-0.22 s on 2 vCPUs, against 0.22-0.27 s with the kernel divided out
over every offset and the datum's rows all transformed, 0.30-0.33 s with
two full pads and 0.86 s with the whole-array transforms.

The growing-weight bound (constant 1/2) and the classical bound via the
Fock-space projection are evaluated on the datum's support disk, where both
integrals agree with their plane counterparts for compliant data.

The Fock projection's result, and every report, does not depend on the CPU
count.  One projection at n = 1024 takes about 0.35 s on 2 vCPUs, against
1.4 s over full-grid arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, pi, sqrt

import numpy as np

from . import diffops
from .errors import DynamicRangeError, InvalidArgumentError
from .grid import Field, Grid, _line_blocks, _map_blocks, _nonzero_lines, weighted_norm_sq
from .moments import MOMENT_J, _monomial_sums, moments
from .weights import EXP_CAP, Weight, curvature_margin

# a node holds significant mass when |f| there exceeds this fraction of its peak
SUPPORT_FLOOR = 1e-13
# normalized moments above this flag the datum as non-orthogonal
MOMENT_REL_TOL = 1e-4
FOCK_TERMS = 120  # the Fock projection's series runs over k = 0..FOCK_TERMS
# uniqueness_probe tabulates z^p for these p over the disks |z| < r of these r
UNIQUENESS_DEGREES = (0, 1, 2, 3)
UNIQUENESS_RADII = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


@dataclass(frozen=True)
class SolutionReport:
    u: Field
    residual_inf: float
    moment_max: float
    moment_rel_max: float
    non_orthogonal_datum: bool
    h2_lhs: float
    h2_rhs: float
    h2_passes: bool
    tail_mass: float
    support_radius: float


@dataclass(frozen=True)
class BoundReport:
    h1_lhs: float
    h1_rhs: float
    passes: bool
    projection_idempotence_err: float


def support_radius(f: Field) -> float:
    """Radius of the smallest origin-centered disk holding all significant mass."""
    a = np.abs(f.values)
    peak = float(np.max(a))
    if peak == 0.0:
        return 0.0
    r = np.abs(f.grid.nodes)
    sig = a > SUPPORT_FLOOR * peak
    return float(np.max(r[sig]))


def cauchy_transform(f: Field) -> Field:
    """Quadrature of u(z) = (1/pi) integral f(w)/(z-w) dA(w), diagonal cell -> 0.

    Kernel (h/pi)/(j + i k) over node offsets, circular length 2n per axis:
    an alias of a kept index n-1 .. 2n-2 lies at >= 3n-1, past the last
    linear-convolution entry 3n-3, so none wraps around.

    The bits are those of ``ifft2(fft2(K, s) * fft2(f, s))`` at s = (2n, 2n),
    with less work and memory: the kernel (``_cauchy_kernel``) is transformed
    in place; the datum's row pass covers its rows from the first to the
    last nonzero one (a zero row transforms to zeros), into a buffer of that
    many rows by 2n; one pass over blocks of columns pads each block of the
    datum to 2n rows in a scratch buffer, transforms it there and multiplies
    it into the kernel's spectrum; the inverse runs in place, its column pass
    on the n kept columns only.  At n = 1024 the spectra take 78 MB for the
    seed-42 datum (424 nonzero rows), not the 128 MB of two full pads.
    """
    n, h = f.grid.n, f.grid.spacing
    shape = (2 * n, 2 * n)
    K = _cauchy_kernel(n, h)
    diffops._fft2(lambda r: K[r], shape, out=K)
    rows = _nonzero_lines(f.values, 1)  # the other rows' transforms are 0
    F = diffops._fft2(lambda r: f.values[rows][r], (rows.stop - rows.start, 2 * n),
                      columns=slice(0))  # rows only

    def column_product(c):  # K *= fft2 of the padded datum, on columns c
        pad = np.zeros((2 * n, c.stop - c.start), dtype=complex)
        pad[rows] = F[:, c]
        np.fft.fft(pad, axis=0, out=pad)
        np.multiply(K[:, c], pad, out=K[:, c])

    _map_blocks(column_product, _line_blocks(0, 2 * n, 2 * n))
    del F  # its buffer is free before the result is copied out of K
    keep = slice(n - 1, 2 * n - 1)
    conv = diffops._fft2(lambda r: K[r], shape, inverse=True, columns=keep, out=K)
    return Field(f.grid, conv[keep, keep])  # a strided view: Field copies it, freeing the pad


def _cauchy_kernel(n: int, h: float) -> np.ndarray:
    """The 2n x 2n kernel array: (h/pi)/(j + i k) at row j + n - 1 and column
    k + n - 1 for offsets |j|, |k| < n, 0 at j = k = 0 and on the pad row and
    column 2n - 1, each value bit for bit the division's.

    The divisions run over the quadrant j, k >= 0 only, a block of rows |j|
    at a time; K(j, -k) = conj K(j, k) and K(-j, -k) = -K(j, k) fill the rest
    exactly, but for the signs of the zeros on the lines j = 0 and k = 0,
    which are divided out apart."""
    K = np.empty((2 * n, 2 * n), dtype=complex)
    c = h / pi
    k = np.arange(n, dtype=float)

    def quadrant(r):  # rows j = r and -r of K
        Q = k[r, None] + 1j * k
        if r.start == 0:
            Q[0, 0] = 1.0  # the centre, set to 0 with the lines below
        np.divide(c, Q, out=Q)
        pos = K[n - 1 + r.start : n - 1 + r.stop, : 2 * n - 1]
        pos[:, n - 1 :] = Q
        np.conj(Q[:, :0:-1], out=pos[:, : n - 1])
        Q = Q[: 0 if r.start == 0 else None : -1]  # rows -j, ascending; j = 0 is done
        neg = K[n - r.stop : n - max(r.start, 1), : 2 * n - 1]
        np.negative(Q[:, :0:-1], out=neg[:, : n - 1])
        np.conj(Q, out=neg[:, n - 1 :])
        np.negative(neg[:, n - 1 :], out=neg[:, n - 1 :])

    _map_blocks(quadrant, _line_blocks(0, n, 2 * n))
    j = np.arange(1 - n, n, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):  # at the centre
        K[n - 1, : 2 * n - 1] = c / (0.0 + 1j * j)
        K[: 2 * n - 1, n - 1] = c / (j + 1j * 0.0)
    K[n - 1, n - 1] = 0.0
    K[-1] = 0.0
    K[:, -1] = 0.0
    return K


def dbar_invert_spectral(f: Field) -> Field:
    """Invert the dbar symbol on the periodic grid; calibrate the constant so
    the solution vanishes on the boundary ring."""
    g = f.grid
    k = diffops._wavenumbers(g)
    F = diffops._fft2(lambda r: f.values[r], f.values.shape)

    def spectrum(r):  # fft2(f) / symbol, zero mode removed
        sym = diffops._dbar_symbol(k, r)
        if r.start == 0:
            sym[0, 0] = 1.0
        U = F[r] / sym
        if r.start == 0:
            U[0, 0] = 0.0
        return U

    # in place: a row block of F is read whole before its inverse overwrites it
    u = diffops._fft2(spectrum, f.values.shape, inverse=True, out=F)
    ring = ~diffops.interior_mask(g, 2)
    u = u - np.mean(u[ring])
    return Field(g, u)


def solve_dbar(f: Field, w: Weight, slack: float = 0.01) -> SolutionReport:
    """Solve dbar u = f and evaluate the growing-weight bound with constant 1/2.

    The bound integrals run over the datum's support disk (plus a 2h margin);
    for compliant data the decaying solution vanishes identically outside that
    disk, so the restriction loses nothing while avoiding amplification of
    rounding noise by e^{2 phi} at the corners of the truncation square;
    e^{2 phi} is evaluated, and guarded against overflow, on that disk only.
    When the normalized moments exceed ``MOMENT_REL_TOL`` the report carries
    the non-orthogonal-datum flag and the bound verdict is informational only.
    """
    g = f.grid
    u = dbar_invert_spectral(f)

    res = diffops.dbar(u, "spectral") - f
    residual_inf = diffops.interior_max(res, extra_band=2)

    mv = moments(f, MOMENT_J)
    moment_max = float(np.max(np.abs(mv.m)))
    r_sup = support_radius(f)
    h = g.spacing
    l1 = float(h * h * np.sum(np.abs(f.values)))
    scale = np.array([max(1.0, r_sup) ** j for j in range(MOMENT_J + 1)])
    moment_rel_max = float(np.max(np.abs(mv.m) / (scale * max(l1, 1e-300))))
    flagged = moment_rel_max > MOMENT_REL_TOL

    z = g.nodes
    disk = np.abs(z) <= r_sup + 2.0 * h
    e2phi = w.exp_phi(z[disk], 2.0)
    lap = w.sample_lap_hat(g)[disk]
    ud, fd = u.values[disk], f.values[disk]
    u2 = ud.real**2 + ud.imag**2
    f2 = fd.real**2 + fd.imag**2
    h2_lhs = 2.0 * float(h * h * np.sum(u2 * (e2phi * lap)))
    h2_rhs = float(h * h * np.sum(f2 * e2phi))
    h2_passes = h2_lhs <= h2_rhs * (1.0 + slack)

    tail_mass = float(np.max(np.abs(u.values[~disk]))) if not np.all(disk) else 0.0

    return SolutionReport(
        u=u,
        residual_inf=residual_inf,
        moment_max=moment_max,
        moment_rel_max=moment_rel_max,
        non_orthogonal_datum=flagged,
        h2_lhs=h2_lhs,
        h2_rhs=h2_rhs,
        h2_passes=h2_passes,
        tail_mass=tail_mass,
        support_radius=r_sup,
    )


def fock_bergman_project(u: Field) -> Field:
    """Projection onto entire functions in the e^{-|z|^2}-weighted L^2 space.

    Uses the reproducing kernel e^{z conj(w)}/pi expanded in the orthonormal
    monomials z^k / sqrt(pi k!); the expansion converges superexponentially
    past k ~ (support radius)^2 for data concentrated inside the grid.  The
    series sum_k <u, z^k> z^k / (pi k!), k = 0..FOCK_TERMS, is summed by
    Horner's rule.

    Both passes run on blocks of whole grid rows of at most
    ``grid.BLOCK_NODES`` nodes (fixed by n alone), each building its nodes and
    e^{-|z|^2} from ``grid.axis``, spread over the usable CPUs in threads
    (``_map_blocks``).  Pass one adds the blocks' partial coefficients in
    block order, so the result is the same to the bit for any CPU count; pass
    two runs the Horner loop on each block's rows of the output.
    """
    g = u.grid
    if g.radius > sqrt(EXP_CAP / 2.0):  # e^{2 R^2}; R^2 itself may overflow
        raise DynamicRangeError("fock_bergman_project: kernel exponent exceeds dynamic range")
    n, h, x = g.n, g.spacing, g.axis
    iy = 1j * x
    blocks = _line_blocks(0, n, n)
    vals = u.values

    def coefficients(r):
        gauss = np.exp(-(x[r, None] ** 2 + x[None, :] ** 2))
        zc = x[r, None] + iy
        np.conjugate(zc, out=zc)
        return _monomial_sums(zc, vals[r] * gauss, FOCK_TERMS, h)

    sums = np.sum(_map_blocks(coefficients, blocks), axis=0)
    c = sums * [exp(-lgamma(k + 1)) / pi for k in range(FOCK_TERMS + 1)]
    out = np.empty((n, n), dtype=complex)

    def horner(r):
        z = x[r, None] + iy
        ob = out[r]
        ob.fill(c[-1])
        for ck in c[-2::-1]:
            ob *= z
            ob += ck

    _map_blocks(horner, blocks)
    return Field(g, out)


def check_hormander_bound(f: Field, w: Weight, slack: float = 0.01) -> BoundReport:
    """Classical bound for the minimal-norm solution under the Fock weight.

    u_min = u - P u where P projects onto entire functions in the
    e^{-2 phi} inner product; implemented for fock(1) only, where P is the
    Fock-space projection.
    """
    if w.name != "fock" or abs(w.params.get("t", 0.0) - 1.0) > 1e-15:
        raise InvalidArgumentError("check_hormander_bound supports the fock(1) weight only")
    g = f.grid
    u = dbar_invert_spectral(f)
    Pu = fock_bergman_project(u)
    gauss = w.exp_phi(g.nodes, -2.0)
    h1_lhs = weighted_norm_sq(u - Pu, gauss)
    h1_rhs = 0.5 * weighted_norm_sq(f, gauss / w.sample_lap_hat(g))
    idem = sqrt(weighted_norm_sq(fock_bergman_project(Pu) - Pu, gauss))
    return BoundReport(h1_lhs, h1_rhs, h1_lhs <= h1_rhs * (1.0 + slack), idem)


def uniqueness_probe(g: Grid, w: Weight) -> list[dict]:
    """Growth tables of z^p, p in ``UNIQUENESS_DEGREES``, on ``g``.

    Two solutions of dbar u = f differ by an entire function; each table
    holds the partial weighted energies of z^p over the disks of
    ``UNIQUENESS_RADII``.  Under the curvature condition these must blow up,
    which is why no second decaying solution can exist.  A multiple c z^p
    scales every energy by |c|^2 and leaves the growth ratio as it is.  The
    degrees share the per-grid work: the curvature check, the weight density
    and the disk masks.
    """
    if not curvature_margin(w, g).passes:
        raise InvalidArgumentError("uniqueness probe requires a weight passing the curvature condition")
    Z, h = g.nodes, g.spacing
    density = w.exp_phi(Z, 2.0) * w.sample_lap_hat(g)
    r = np.abs(Z)
    disks = [r < rr for rr in UNIQUENESS_RADII]
    tables = []
    for d in UNIQUENESS_DEGREES:
        dens = np.abs(Z ** d) ** 2 * density
        energies = [float(h * h * np.sum(dens[disk])) for disk in disks]
        first, last = energies[0], energies[-1]
        # None when the innermost disk holds no node but the outer ones carry
        # energy: the growth is real but has no finite ratio
        ratio = last / first if first > 0 else None if last > 0 else 0.0
        tables.append({
            "p": d,
            "radii": list(UNIQUENESS_RADII),
            "energies": energies,
            "growth_ratio": ratio,
            "monotone": all(b >= a for a, b in zip(energies, energies[1:])),
        })
    return tables
