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
and skips the work whose result is known or dropped (the datum's zero pad
rows, the inverse's discarded columns); its bits are those of whole-array
``fft2``/``ifft2``.  The datum is padded to 2n rows one block of columns
at a time, in a scratch buffer whose transform goes straight into the
kernel's spectrum, so at n = 1024 the spectra take 96 MB, not the 128 MB
of two full pads.  One transform at n = 1024 takes 0.26-0.29 s on
2 vCPUs, against 0.30-0.33 s with two full pads and 0.86 s with the
whole-array transforms.

The growing-weight bound (constant 1/2) and the classical bound via the
Fock-space projection are evaluated on the datum's support disk, where both
integrals agree with their plane counterparts for compliant data.

The Fock projection runs on blocks of whole grid rows sized to stay in a
core's L2 cache, spread over the usable CPUs in threads; its partial sums are
added in block order, so its result does not depend on the CPU count and
``--sequential`` reports stay byte-identical.  One projection at n = 1024
takes about 0.35 s on 2 vCPUs, against 1.4 s over full-grid arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, pi, sqrt

import numpy as np

from . import diffops
from .errors import DynamicRangeError, InvalidArgumentError
from .grid import Field, Grid, _line_blocks, _map_blocks, weighted_norm_sq
from .moments import _monomial_sums, moments
from .weights import EXP_CAP, Weight, curvature_margin

SUPPORT_FLOOR = 1e-13
# normalized moments above this flag the datum as non-orthogonal
MOMENT_REL_TOL = 1e-4


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


def support_radius(f: Field, floor: float = SUPPORT_FLOOR) -> float:
    """Radius of the smallest origin-centered disk holding all significant mass."""
    a = np.abs(f.values)
    peak = float(np.max(a))
    if peak == 0.0:
        return 0.0
    r = np.abs(f.grid.nodes)
    sig = a > floor * peak
    return float(np.max(r[sig]))


def cauchy_transform(f: Field) -> Field:
    """Quadrature of u(z) = (1/pi) integral f(w)/(z-w) dA(w), diagonal cell -> 0.

    Kernel (h/pi)/(j + i k) over node offsets, circular length 2n per axis:
    an alias of a kept index n-1 .. 2n-2 lies at >= 3n-1, past the last
    linear-convolution entry 3n-3, so none wraps around.

    The bits are those of ``ifft2(fft2(K, s) * fft2(f, s))`` at s = (2n, 2n),
    with less work and memory: the kernel's offset rows are built block by
    block in its row pass; the datum's row pass covers its n rows, into an
    n x 2n buffer; one pass over blocks of columns pads each block of the
    datum to 2n rows in a scratch buffer, transforms it there and multiplies
    it into the kernel's spectrum; the inverse runs in place, its column pass
    on the n kept columns only.  At n = 1024 the spectra take 96 MB, not the
    128 MB of two full pads.
    """
    n, h = f.grid.n, f.grid.spacing
    shape = (2 * n, 2 * n)
    j = np.arange(1 - n, n, dtype=float)

    def kernel(r):  # offset rows r; the zero offset's entry is 0
        K = j[r, None] + 1j * j[None, :]
        centre = j[r] == 0.0
        K[centre, n - 1] = 1.0
        np.divide(h / pi, K, out=K)
        K[centre, n - 1] = 0.0
        return K

    K = diffops._fft2(kernel, shape, height=2 * n - 1)
    F = diffops._fft2(lambda r: f.values[r], (n, 2 * n), columns=slice(0))  # rows only

    def column_product(c):  # K *= fft2 of the padded datum, on columns c
        pad = np.zeros((2 * n, c.stop - c.start), dtype=complex)
        pad[:n] = F[:, c]
        np.fft.fft(pad, axis=0, out=pad)
        np.multiply(K[:, c], pad, out=K[:, c])

    _map_blocks(column_product, _line_blocks(0, 2 * n, 2 * n))
    del F  # its n x 2n buffer is free before the result is copied out of K
    keep = slice(n - 1, 2 * n - 1)
    conv = diffops._fft2(lambda r: K[r], shape, inverse=True, columns=keep, out=K)
    return Field(f.grid, conv[keep, keep])  # a strided view: Field copies it, freeing the pad


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


def solve_dbar(f: Field, w: Weight, J: int = 10, slack: float = 0.01) -> SolutionReport:
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

    mv = moments(f, J)
    moment_max = float(np.max(np.abs(mv.m)))
    r_sup = support_radius(f)
    h = g.spacing
    l1 = float(h * h * np.sum(np.abs(f.values)))
    scale = np.array([max(1.0, r_sup) ** j for j in range(J + 1)])
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


def fock_bergman_project(u: Field, terms: int = 120) -> Field:
    """Projection onto entire functions in the e^{-|z|^2}-weighted L^2 space.

    Uses the reproducing kernel e^{z conj(w)}/pi expanded in the orthonormal
    monomials z^k / sqrt(pi k!); the expansion converges superexponentially
    past k ~ (support radius)^2 for data concentrated inside the grid.  The
    series sum_k <u, z^k> z^k / (pi k!) is summed by Horner's rule.

    Both passes run on blocks of whole grid rows of at most
    ``grid.BLOCK_NODES`` nodes (fixed by n alone), each building its nodes and
    e^{-|z|^2} from ``grid.axis``, spread over the usable CPUs in threads
    (``_map_blocks``).  Pass one adds the blocks' partial coefficients in
    block order, so the result is the same to the bit for any CPU count; pass
    two runs the Horner loop on each block's rows of the output.
    """
    g = u.grid
    if 2.0 * g.radius**2 > EXP_CAP:
        raise DynamicRangeError("fock_bergman_project: kernel exponent exceeds dynamic range")
    n, h, x = g.n, g.spacing, g.axis
    iy = 1j * x
    blocks = _line_blocks(0, n, n)
    vals = u.values

    def coefficients(r):
        gauss = np.exp(-(x[r, None] ** 2 + x[None, :] ** 2))
        zc = x[r, None] + iy
        np.conjugate(zc, out=zc)
        return _monomial_sums(zc, vals[r] * gauss, terms, h)

    sums = np.sum(_map_blocks(coefficients, blocks), axis=0)
    c = sums * [exp(-lgamma(k + 1)) / pi for k in range(terms + 1)]
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


def uniqueness_probe(g: Grid, w: Weight, p, radii=None,
                     amplitude: float = 1.0):
    """Growth table for amplitude * z^p, the difference of two solutions on ``g``.

    Two solutions of dbar u = f differ by an entire function; this tabulates
    the partial weighted energies of amplitude * z^p over growing disks.
    Under the curvature condition these must blow up, which is why no
    second decaying solution can exist.  ``p`` is a degree 0..3, or a
    sequence of them for a list of tables that share the per-grid work (the
    curvature check, the weight density and the disk masks).
    """
    single = np.ndim(p) == 0
    degrees = [p] if single else list(p)
    if not all(0 <= d <= 3 for d in degrees):
        raise InvalidArgumentError("polynomial degree p must be in 0..3")
    if radii is None:
        radii = [1.0 + 0.5 * i for i in range(int((g.radius - 1.0) / 0.5) + 1)]
    cm = curvature_margin(w, g)
    if not cm.passes:
        raise InvalidArgumentError("uniqueness probe requires a weight passing the curvature condition")
    Z = g.nodes
    h = g.spacing
    density = w.exp_phi(Z, 2.0) * w.sample_lap_hat(g)
    r = np.abs(Z)
    disks = [r < rr for rr in radii]
    tables = []
    for d in degrees:
        dens = (amplitude ** 2) * np.abs(Z ** d) ** 2 * density
        energies = [float(h * h * np.sum(dens[disk])) for disk in disks]
        first, last = energies[0], energies[-1]
        # None when the innermost disk holds no node but the outer ones carry
        # energy: the growth is real but has no finite ratio
        ratio = last / first if first > 0 else None if last > 0 else 0.0
        tables.append({
            "p": d,
            "radii": [float(x) for x in radii],
            "energies": energies,
            "growth_ratio": ratio,
            "monotone": all(b >= a for a, b in zip(energies, energies[1:])),
        })
    return tables[0] if single else tables
