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
symmetric about the target), evaluated as a circular convolution of length
2n per axis.  Error and residual are of order 2.0: for the seed-42 bump at
R = 6 the sup error is 8.8e-2, 2.2e-2, 5.4e-3, 1.4e-3 at n = 128, 256, 512,
1024.  The kernel's spectrum is fixed by a real (n + 1) x (n + 1) quarter,
by its symmetry: the kernel is (h/pi)(A - i A^T), A real, odd in one offset
and even in the other.  Blocks of columns form their part of the spectrum
from the quarter and transform there, so no 2n x 2n array is made.  The
transform holds one n x 2n buffer: the datum's row spectrum in the datum's
own rows of it, the column pass in place, and the kept half of each row
moved forward, one row after another, before the buffer shrinks to the
n x n result.  The blocks depend on n alone, so the bits are those of the
same steps in whole-array numpy for any CPU count, and the result is within
FFT rounding of the pad convolution ``ifft2(fft2(K, s) * fft2(f, s))``.

The growing-weight bound (constant 1/2) and the classical bound via the
Fock-space projection are evaluated on the datum's support disk, where both
integrals agree with their plane counterparts for compliant data.  The
growing-weight bound and ``uniqueness_probe`` stream their disks
(``grid._disk``): blocks of the disk's rows write each node's terms into
disk-length real vectors in row-major order, and one ``np.sum`` adds each,
so every sum has the terms, the order and the bits of a full-grid mask's
gather.  They evaluate e^{2 phi}, and guard it, on the disk's nodes only; a
``DynamicRangeError``'s ``node_index`` indexes the disk's node list.  The
residual's interior maximum, the support radius and the tail mass are
maxima over row blocks, exact, so no n x n magnitude or index array is made.

The Fock projection works on a quarter of the grid, by the square's
symmetry z -> iz: blocks of the quarter's rows, and for an odd n the centre
node, which is its own four turns, as one more block counted with share
1/4.  It sums its series up to a degree K taken from the series' tail bound
(``_fock_terms``), K <= ``FOCK_TERMS``; the seed-42 datum at n = 1024 takes
K = 53.  Its result, and every report, does not depend on the CPU count.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma, pi, sqrt

import numpy as np

from . import diffops
from .errors import DynamicRangeError, InvalidArgumentError
from .grid import (Field, Grid, _abs2, _abs2_sum, _disk, _line_blocks, _map_blocks, _nodes,
                   _nonzero_lines)
from .moments import MOMENT_J, _fold
from .weights import EXP_CAP, Weight, curvature_margin

# a node holds significant mass when |f| there exceeds this fraction of its peak
SUPPORT_FLOOR = 1e-13
# normalized moments above this flag the datum as non-orthogonal
MOMENT_REL_TOL = 1e-4
FOCK_TERMS = 120  # the Fock series runs over k = 0..K, K <= FOCK_TERMS (``_fock_terms``)
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
    """Radius of the smallest origin-centered disk holding all significant
    mass: two passes over row blocks, for the peak of |f| and then for the
    largest |z| where |f| exceeds its floor, maxima being exact."""
    v, x = f.values, f.grid.axis
    blocks = _line_blocks(0, f.grid.n, f.grid.n)
    peak = max(np.max(np.abs(v[r])) for r in blocks)
    radius = 0.0
    for r in blocks if peak else ():
        heavy = np.abs(v[r]) > SUPPORT_FLOOR * peak
        if heavy.any():
            radius = max(radius, np.max(np.abs(_nodes(x[r, None], x))[heavy]))
    return float(radius)


def cauchy_transform(f: Field) -> Field:
    """Quadrature of u(z) = (1/pi) integral f(w)/(z-w) dA(w), diagonal cell -> 0.

    A circular convolution of length 2n per axis with the kernel
    (h/pi)/(j + i k) placed at index (j mod 2n, k mod 2n) for |j|, |k| < n,
    0 at offset 0 and at index n: the kept indices 0 .. n-1 take every
    node-to-node offset once, and none wraps around.  (The pad convolution
    places offset 0 at index n - 1 and keeps n - 1 .. 2n - 2: the same sums,
    but a phase factor in the kernel's spectrum.)  The spectrum is formed
    from its real quarter (``_cauchy_quarter``), one block of columns at a
    time (``_cauchy_spectrum``), never whole.

    One n x 2n buffer holds the whole transform.  The datum's rows from its
    first to its last nonzero one are row-transformed into the same rows of
    the buffer.  One pass over blocks of columns reads each block's columns
    of those rows, pads them to 2n rows, transforms them, multiplies them by
    their part of the spectrum and transforms them back into rows 0 .. n-1
    of the same columns: a block reads and writes its own columns only.  The
    inverse row pass runs in place; then, sequentially, row j's kept half
    moves to entries jn .. (j + 1)n - 1 of the flat buffer, which lie in
    rows already moved, and the buffer shrinks to the n x n result that the
    ``Field`` shares.  Where another reference to the buffer refuses the
    shrink (a debugger's snapshot of this frame's locals), the ``Field``
    shares the buffer's first n^2 entries instead.  The blocks depend on n
    alone: the bits are those of the same steps in whole-array numpy, for
    any CPU count, and the result is within FFT rounding of the pad
    convolution ``ifft2(fft2(K, s) * fft2(f, s))`` at s = (2n, 2n).
    """
    n = f.grid.n
    Q = _cauchy_quarter(n, f.grid.spacing)
    rows = _nonzero_lines(f.values, 1)  # the other rows' transforms are 0
    G = np.empty((n, 2 * n), dtype=complex)
    diffops._fft2(lambda r: f.values[rows][r], (rows.stop - rows.start, 2 * n),
                  out=G[rows], rows_only=True)

    def column_product(c):  # reads its columns of the datum's rows before writing them
        pad = np.zeros((2 * n, c.stop - c.start), dtype=complex)
        pad[rows] = G[rows, c]
        np.fft.fft(pad, axis=0, out=pad)
        pad *= _cauchy_spectrum(Q, c)
        np.fft.ifft(pad, axis=0, out=pad)
        G[:, c] = pad[:n]

    _map_blocks(column_product, _line_blocks(0, 2 * n, 2 * n))
    del Q
    diffops._fft2(lambda r: G[r], G.shape, inverse=True, out=G, rows_only=True)
    flat = G.reshape(-1)  # row j's kept half lands within rows 0 .. j - 1
    for j in range(1, n):
        flat[j * n : (j + 1) * n] = G[j, :n]
    del flat
    try:
        G.resize((n, n))  # refused while another reference holds G, which could dangle
    except ValueError:  # such as a tracer's snapshot of this frame's locals
        G = G.reshape(-1)[: n * n].reshape(n, n)
    return Field(f.grid, G)


# The kernel (h/pi)/(j + i k) = (h/pi)(A(j, k) - i A(k, j)), with
# A(j, k) = j / (j^2 + k^2) real, odd in j and even in k, 0 at j = k = 0.  So
# A's length-2n DFT is -i S, S(p, q) = sum A(j, k) sin(pi j p / n) cos(pi k q / n)
# real, odd in p and even in q, and the kernel's is
# -(h/pi) (S(q, p) + i S(p, q)): the quarter Q = -(h/pi) S over p, q = 0..n
# fixes all of it.


def _cauchy_quarter(n: int, h: float) -> np.ndarray:
    """-(h/pi) S(p, q) for p, q = 0..n, as an (n + 1) x (n + 1) array.

    Two passes of length-2n ``np.fft.rfft`` over ``_line_blocks``: a cosine
    pass over k on rows j = 1..n-1 (the real part of the rfft of A's even
    extension), into rows 1..n-1; then a sine pass over j on each column
    (the imaginary part, -S, of the rfft of the odd extension), in place."""
    Q = np.empty((n + 1, n + 1))
    k2 = np.arange(n, dtype=float) ** 2

    def cosines(r):
        j = np.arange(r.start, r.stop, dtype=float)[:, None]
        even = np.empty((r.stop - r.start, 2 * n))
        np.divide(j, j * j + k2, out=even[:, :n])
        even[:, n] = 0.0
        even[:, n + 1:] = even[:, n - 1:0:-1]
        Q[r] = np.fft.rfft(even, axis=1).real

    def sines(c):  # a block's rows 1..n-1 are read whole before it is written
        odd = np.zeros((2 * n, c.stop - c.start))
        odd[1:n] = Q[1:n, c]
        np.negative(Q[n - 1:0:-1, c], out=odd[n + 1:])
        np.multiply(np.fft.rfft(odd, axis=0).imag, h / pi, out=Q[:, c])

    _map_blocks(cosines, _line_blocks(1, n, 2 * n))
    _map_blocks(sines, _line_blocks(0, n + 1, 2 * n))
    return Q


def _cauchy_spectrum(Q: np.ndarray, c: slice) -> np.ndarray:
    """The kernel's spectrum Q(q, p) + i Q(p, q), Q extended by S's
    parities, on the columns q in ``c`` and all 2n rows p: only the block's
    rows and columns of the quarter ``Q`` are read."""
    n = Q.shape[0] - 1
    q = np.arange(c.start, c.stop)
    at, sign = np.minimum(q, 2 * n - q), np.where(q > n, -1.0, 1.0)  # S(q, .) = sign S(at, .)
    out = np.empty((2 * n, c.stop - c.start), dtype=complex)
    rows = (Q[at] * sign[:, None]).T  # Q(q, p) on p = 0..n, even in p
    out.real[: n + 1] = rows
    out.real[n + 1:] = rows[n - 1:0:-1]
    cols = Q[:, at]  # Q(p, q) on p = 0..n, odd in p
    out.imag[: n + 1] = cols
    np.negative(cols[n - 1:0:-1], out=out.imag[n + 1:])
    return out


def dbar_invert_spectral(f: Field) -> Field:
    """Invert the dbar symbol on the periodic grid, in one round trip of
    ``diffops._spectral``; calibrate the constant so the solution vanishes
    on the boundary ring."""
    g = f.grid
    k = diffops._wavenumbers(g)

    def divide(r, F):  # fft2(f) / symbol on rows r, zero mode removed
        sym = diffops._dbar_symbol(k, r)
        if r.start == 0:
            sym[0, 0] = 1.0
        U = F / sym
        if r.start == 0:
            U[0, 0] = 0.0
        return U

    u = diffops._spectral(f.values, divide)
    # the outer two rings, in row-major order
    u -= np.mean(np.concatenate((u[:2], u[2:-2, [0, 1, -2, -1]], u[-2:]), axis=None))
    return Field(g, u)


def solve_dbar(f: Field, w: Weight, slack: float = 0.01) -> SolutionReport:
    """Solve dbar u = f and evaluate the growing-weight bound with constant 1/2.

    The bound integrals run over the datum's support disk (plus a 2h margin);
    for compliant data the decaying solution vanishes identically outside that
    disk, so the restriction loses nothing while avoiding amplification of
    rounding noise by e^{2 phi} at the corners of the truncation square;
    e^{2 phi} is evaluated, and guarded against overflow, on that disk only.
    The disk is streamed (``grid._disk``): its blocks write |u|^2 e^{2 phi}
    lap_hat(phi) and |f|^2 e^{2 phi} into two disk-length vectors, each side
    one ``np.sum`` of its vector, with the bits of a full-grid mask's gather,
    and read the tail mass, max |u| off the disk.  The residual dbar u - f is
    formed in dbar's own spectral buffer.
    When the normalized moments exceed ``MOMENT_REL_TOL`` the report carries
    the non-orthogonal-datum flag and the bound verdict is informational only.
    """
    g = f.grid
    u = dbar_invert_spectral(f)

    res = diffops._dbar(u)
    res -= f.values
    residual_inf = diffops.interior_max(Field(g, res), extra_band=2)
    del res

    mv, l1, _ = _fold(g, f, MOMENT_J, True)  # the moments and h^2 sum |f| in one pass
    moment_max = float(np.max(np.abs(mv.m)))
    r_sup = support_radius(f)
    h = g.spacing
    scale = np.array([max(1.0, r_sup) ** j for j in range(MOMENT_J + 1)])
    moment_rel_max = float(np.max(np.abs(mv.m) / (scale * max(l1, 1e-300))))
    flagged = moment_rel_max > MOMENT_REL_TOL

    disk = _disk(g, r_sup + 2.0 * h)
    box, n = disk.box, g.n
    lhs, rhs = np.empty(disk.size), np.empty(disk.size)
    tail_mass = 0.0
    for rows in (*_line_blocks(0, box.start, n), *_line_blocks(box.stop, n, n)):
        tail_mass = max(tail_mass, np.max(np.abs(u.values[rows])))
    for rows, inside, at, z in disk:
        e2phi = _exp2phi(w, z, at)
        np.multiply(_abs2(u.values[rows, box][inside]), e2phi * w.lap_hat_phi(z), out=lhs[at])
        np.multiply(_abs2(f.values[rows, box][inside]), e2phi, out=rhs[at])
        tail = np.abs(u.values[rows])
        tail[:, box][inside] = 0.0
        tail_mass = max(tail_mass, np.max(tail))
    h2_lhs = 2.0 * float(h * h * np.sum(lhs))
    h2_rhs = float(h * h * np.sum(rhs))
    h2_passes = h2_lhs <= h2_rhs * (1.0 + slack)

    return SolutionReport(
        u=u,
        residual_inf=residual_inf,
        moment_max=moment_max,
        moment_rel_max=moment_rel_max,
        non_orthogonal_datum=flagged,
        h2_lhs=h2_lhs,
        h2_rhs=h2_rhs,
        h2_passes=h2_passes,
        tail_mass=float(tail_mass),
        support_radius=r_sup,
    )


def _exp2phi(w: Weight, z: np.ndarray, at: slice) -> np.ndarray:
    """``w.exp_phi(z, 2.0)`` at the nodes z of the disk block that fills
    ``at`` of its disk's node list (``grid._disk``); a DynamicRangeError's
    ``node_index`` is made a flat index into that list."""
    try:
        return w.exp_phi(z, 2.0)
    except DynamicRangeError as e:
        e.node_index += at.start
        raise


def fock_bergman_project(u: Field) -> Field:
    """Projection onto entire functions in the e^{-|z|^2}-weighted L^2 space.

    Uses the reproducing kernel e^{z conj(w)}/pi expanded in the orthonormal
    monomials z^k / sqrt(pi k!): the series sum_k c_k z^k with
    c_k = <u, z^k> / (pi k!), k = 0..K, where ``_fock_terms`` takes K from
    the tail bound of u.  The coefficients and the series each take one pass
    over the quarter of the grid (``_quarter_sums``, ``_quarter_series``);
    the result is the same to the bit for any CPU count.
    """
    g = u.grid
    _fock_guard(g)
    c = _fock_coefficients(u.values, g, _fock_terms(u.values, g))
    n, x = g.n, g.axis
    out = np.empty((n, n), dtype=complex)

    def series(block):  # Pu at the block's four turns, written through rot90 views
        z, _ = _quarter_nodes(x, block)
        for m, value in enumerate(_dft4(_quarter_series(c, z))):
            np.rot90(out, -m)[block[:2]] = value

    _map_blocks(series, _quarter_blocks(n))
    return Field(g, out)


def check_hormander_bound(f: Field, w: Weight, slack: float = 0.01) -> BoundReport:
    """Classical bound for the minimal-norm solution under the Fock weight.

    u_min = u - P u where P projects onto entire functions in the
    e^{-2 phi} inner product; implemented for fock(1) only, where P is the
    Fock-space projection (``fock_bergman_project``, whose kernels this runs
    directly).  Three passes over the quarter of the grid, with no full-grid
    temporary: (1) the coefficients c of u; (2) Pu at each block's four
    turns, accumulating |u - Pu|^2 e^{-|z|^2}, |f|^2 e^{-|z|^2} / lap_hat(phi)
    and the coefficients d of Pu; (3) sum_k (d_k - c_k) z^k, whose weighted
    norm is the idempotence error ||P(Pu) - Pu||.  Pu has degree K, so d runs
    over the same k = 0..K as c.
    """
    if w.name != "fock" or abs(w.params.get("t", 0.0) - 1.0) > 1e-15:
        raise InvalidArgumentError("check_hormander_bound supports the fock(1) weight only")
    g = f.grid
    _fock_guard(g)
    n, h, x = g.n, g.spacing, g.axis
    u, fv = dbar_invert_spectral(f).values, f.values
    terms = _fock_terms(u, g)
    c = _fock_coefficients(u, g, terms)
    blocks = _quarter_blocks(n)

    def sides(block):  # the h1 sides and the sums of d on the block
        z, gauss = _quarter_nodes(x, block)
        S = _quarter_series(c, z)
        d = _residue_sums([s * gauss for s in S], np.conj(z), terms)
        weight = gauss / w.lap_hat_phi(z)  # fock's Laplacian is the same at each turn
        lhs = rhs = 0.0
        for m, value in enumerate(_dft4(S)):
            value -= _turn(u, m, block)
            lhs += _abs2_sum(value, gauss)
            rhs += _abs2_sum(_turn(fv, m, block), weight)
        return lhs, rhs, d

    lhs, rhs, dsums = (np.sum(a, axis=0) for a in zip(*_map_blocks(sides, blocks)))
    dsums *= 4.0  # Pu's G_r(z) = sum_m (-i)^{mr} Pu(i^m z) is 4 S_r(z)
    e = dsums * _fock_scale(h, terms) - c

    def residual(block):  # sum_m |E(i^m z)|^2 = 4 sum_r |S_r(z)|^2 for E = sum_k e_k z^k
        z, gauss = _quarter_nodes(x, block)
        return 4.0 * sum(_abs2_sum(s, gauss) for s in _quarter_series(e, z))

    idem = sum(_map_blocks(residual, blocks))
    h1_lhs, h1_rhs = float(h * h * lhs), float(0.5 * h * h * rhs)
    return BoundReport(h1_lhs, h1_rhs, h1_lhs <= h1_rhs * (1.0 + slack), sqrt(h * h * idem))


def _fock_guard(g: Grid) -> None:
    if g.radius > sqrt(EXP_CAP / 2.0):  # e^{2 R^2}; R^2 itself may overflow
        raise DynamicRangeError("fock_bergman_project: kernel exponent exceeds dynamic range")


def _fock_terms(v: np.ndarray, g: Grid) -> int:
    """The last degree K of the Fock series of the grid values ``v``, from the
    series' tail bound; at most ``FOCK_TERMS``.

    By the triangle inequality, the term c_k z^k has weighted norm
    |c_k| sqrt(pi k!) <= t_k = h^2 sum |z|^k |v| e^{-|z|^2} / sqrt(pi k!) on
    the plane, and t_k <= sum_b (b + 1)^{k/2} mu_b / sqrt(pi k!) with mu_b the
    grid's h^2 |v| e^{-|z|^2} on the nodes of b <= |z|^2 < b + 1.  The sum of
    a coefficient rounds with an error of order u times its bound, u = 2^-53
    the unit roundoff, so K is the first degree at which the dropped terms'
    bound sum_{K < k <= FOCK_TERMS} t_k is at most u sum_{k <= K} t_k.  For
    data on the disk |z| < r the bound falls off as r^k / sqrt(k!): the
    seed-42 spectral inverse at R = 6 (r^2 < 9) takes K = 66 at n = 256 and
    K = 53 at n = 1024, where its rounding noise outside the disk is smaller.
    A constant takes K = 105 at n = 256, and data at the corners of the
    square (|z|^2 up to 2 R^2) reach the cap.
    """
    x = g.axis
    x2 = x * x
    ex = np.exp(-x2)
    bins = int(2.0 * np.max(x2)) + 1  # |z|^2 <= 2 max x^2, in floating point too

    def profile(r):  # mu_b over the grid rows r
        a = np.abs(v[r])
        a *= ex[r, None]
        a *= ex
        return np.bincount((x2[r, None] + x2).astype(np.intp).ravel(), a.ravel(), bins)

    mu = np.sum(_map_blocks(profile, _line_blocks(0, g.n, g.n)), axis=0)
    top = np.max(mu)
    if not np.isfinite(top):
        return FOCK_TERMS
    if top == 0.0:
        return 0
    k = np.arange(FOCK_TERMS + 1)
    lg = np.array([lgamma(j + 1.0) for j in k])
    # (b + 1)^{k/2} / sqrt(k!) <= e^{164} for b + 1 <= 2 R^2 + 1 <= 701 and k <= 120
    t = np.exp(0.5 * (k[:, None] * np.log(np.arange(1.0, bins + 1.0)) - lg[:, None])) @ (mu / top)
    dropped = np.append(np.cumsum(t[::-1])[-2::-1], 0.0)  # sum_{j > k} t_j
    return int(np.argmax(dropped <= 0.5 * np.finfo(float).eps * np.cumsum(t)))


def _fock_scale(h: float, terms: int) -> np.ndarray:
    """h^2 / (pi k!) for k = 0..terms."""
    return h * h * np.array([exp(-lgamma(k + 1)) / pi for k in range(terms + 1)])


def _fock_coefficients(v: np.ndarray, g: Grid, terms: int) -> np.ndarray:
    """c_k = h^2 sum conj(z)^k v e^{-|z|^2} / (pi k!), k = 0..terms, over the
    grid values ``v``: the quarter's blocks (``_quarter_sums``), the centre
    of an odd n among them as a block of share 1/4, added in block order."""
    x = g.axis
    sums = _map_blocks(lambda b: _quarter_sums(v, x, b, terms), _quarter_blocks(g.n))
    return np.sum(sums, axis=0) * _fock_scale(g.spacing, terms)


# The quarter D of the grid is rows n - n//2 .. n-1 by columns n//2 .. n-1,
# and for an odd n also the centre node (n//2, n//2).  z -> iz maps the node
# (j, k) to (n-1-k, j), so np.rot90(a, -m)[D] holds a(i^m z) at the nodes z
# of D, and the four turns m = 0..3 cover every node once, but the centre,
# the turns' fixed point, which they cover four times: its block counts with
# share 1/4.  e^{-|z|^2} and the square are invariant under z -> iz, which
# multiplies z^k by i^k: so the Fock series needs the nodes of D only.  Where
# the axis is not exactly antisymmetric (odd n, or R = 3.7), a turned node
# differs from the stored one by rounding; so does the centre, whose cell of
# the series, written at each turn, keeps the last: the series at i^3 z.


def _quarter_blocks(n: int) -> list:
    """The blocks (rows, cols, share) of D, the same for any CPU count:
    ``_line_blocks`` of D's rows with share 1, then for an odd n the centre
    node with share 1/4."""
    half = slice(n // 2, n)
    blocks = [(rows, half, 1.0) for rows in _line_blocks(n - n // 2, n, n - n // 2)]
    if n % 2:
        centre = slice(n // 2, n // 2 + 1)
        blocks.append((centre, centre, 0.25))
    return blocks


def _quarter_nodes(x: np.ndarray, block):
    """The nodes z of the block of D and its share of e^{-|z|^2} there, from
    the axis ``x``."""
    rows, cols, share = block
    gauss = np.exp(-(x[rows, None] ** 2 + x[cols] ** 2))
    if share != 1.0:
        gauss *= share
    return _nodes(x[rows, None], x[cols]), gauss


def _turn(a: np.ndarray, m: int, block) -> np.ndarray:
    """a(i^m z) at the nodes z of the block of D, copied: one block of a
    turned view at a time, not a turned copy of the grid."""
    return np.rot90(a, -m)[block[:2]].copy()


def _dft4(S: list) -> list:
    """[sum_r i^{mr} S_r for m = 0..3], built in place of the four arrays ``S``."""
    s0, s1, s2, s3 = S
    a = s0 + s2
    s0 -= s2
    b = s1 + s3
    s1 -= s3
    s1 *= 1j
    np.subtract(a, b, out=s2)
    a += b
    np.subtract(s0, s1, out=s3)
    s0 += s1
    return [a, s0, s2, s3]


def _quarter_sums(v: np.ndarray, x: np.ndarray, block, terms: int) -> np.ndarray:
    """The block kernel of the coefficients: sum conj(z)^k G_{k mod 4}(z)
    e^{-|z|^2}, k = 0..terms, over the nodes z of the block of D, with
    G_r(z) = sum_m (-i)^{mr} v(i^m z): the sum over all four turns of
    conj(i^m z)^k v(i^m z) e^{-|z|^2}."""
    z, gauss = _quarter_nodes(x, block)
    T = _dft4([_turn(v, m, block) for m in range(4)])  # T_q = sum_m i^{mq} v(i^m z)
    G = [T[0], T[3], T[2], T[1]]  # G_r = T_{-r mod 4}
    for a in G:
        a *= gauss
    return _residue_sums(G, np.conj(z), terms)


def _residue_sums(G: list, zc: np.ndarray, terms: int) -> np.ndarray:
    """sum zc^k G_{k mod 4} over the block for k = 0..terms, multiplying each
    G_r in place by zc^r and then by zc^4."""
    zc2 = zc * zc
    zc4 = zc2 * zc2
    out = np.empty(terms + 1, dtype=complex)
    for r, a in enumerate(G[: terms + 1]):
        for p in ((), (zc,), (zc2,), (zc, zc2))[r]:
            a *= p
        for k in range(r, terms + 1, 4):
            if k > r:
                a *= zc4
            out[k] = np.sum(a)
    return out


def _quarter_series(c: np.ndarray, z: np.ndarray) -> list:
    """S_r(z) = z^r Q_r(z^4), r = 0..3, with Q_r(t) = sum_j c_{4j+r} t^j by
    Horner's rule: sum_k c_k (i^m z)^k = sum_r i^{mr} S_r(z) (``_dft4``)."""
    z2 = z * z
    t = z2 * z2
    S = []
    for r in range(4):
        cr = c[r::4]
        s = np.full(z.shape, cr[-1] if cr.size else 0.0, dtype=complex)
        for ck in cr[-2::-1]:
            s *= t
            s += ck
        for p in ((), (z,), (z2,), (z, z2))[r]:
            s *= p
        S.append(s)
    return S


def uniqueness_probe(g: Grid, w: Weight) -> list[dict]:
    """Growth tables of z^p, p in ``UNIQUENESS_DEGREES``, on ``g``.

    Two solutions of dbar u = f differ by an entire function; each table
    holds the partial weighted energies of z^p over the disks of
    ``UNIQUENESS_RADII``.  Under the curvature condition these must blow up,
    which is why no second decaying solution can exist.  A multiple c z^p
    scales every energy by |c|^2 and leaves the growth ratio as it is.  The
    degrees share the curvature check and the weight density of the largest
    disk, streamed into a disk-length vector (``grid._disk``), each smaller
    open disk an |z| < r mask on that list; so e^{2 phi} is evaluated, and
    guarded against overflow, on that disk only.  Each degree streams
    |z^p|^2 times the density into one more such vector and sums its masked
    gathers, with the bits of a full-grid mask's.
    """
    if not curvature_margin(w, g).passes:
        raise InvalidArgumentError("uniqueness probe requires a weight passing the curvature condition")
    h = g.spacing
    disk = _disk(g, max(UNIQUENESS_RADII))
    r, density = np.empty(disk.size), np.empty(disk.size)
    for _, _, at, z in disk:
        np.abs(z, out=r[at])
        np.multiply(_exp2phi(w, z, at), w.lap_hat_phi(z), out=density[at])
    disks = [r < rr for rr in UNIQUENESS_RADII]
    del r
    dens = np.empty(disk.size)
    tables = []
    for d in UNIQUENESS_DEGREES:
        for _, _, at, z in disk:
            np.multiply(np.abs(z**d) ** 2, density[at], out=dens[at])
        energies = [float(h * h * np.sum(dens[inside])) for inside in disks]
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
