"""Compactly supported smooth test functions with closed-form derivatives.

The suite consists of v = b * p where b is the radial bump

    b(z) = exp(1 / (|z-c|^2 / rho^2 - 1))   for |z-c| < rho, else 0,

and p(z, zbar) is a polynomial of degree <= 4 in z and zbar with seeded
random coefficients in the unit disk.  Both dbar(v) and del(v) are available
in closed form, so suite members serve as independent oracles for the
discrete operators and the solver.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import InvalidArgumentError
from .grid import Field, Grid, sample


@dataclass(frozen=True)
class Poly2:
    """Polynomial sum c_{ab} z^a zbar^b, coefficients keyed by (a, b).

    Evaluated by nested Horner, in zbar for each power of z and then in z.
    The values differ from the sum of every term by rounding: at most
    6.4e-16 of sum |c_{ab}| |z|^(a+b) over the seed-42 suite."""

    coeffs: tuple

    @staticmethod
    def from_dict(d) -> "Poly2":
        return Poly2(tuple(sorted(d.items())))

    def __call__(self, z):
        c = dict(self.coeffs)
        zb = np.conj(z)
        out = None
        for a in range(max((a for a, _ in c), default=0), -1, -1):
            top = max((b for aa, b in c if aa == a), default=0)
            row = np.full(np.shape(z), c.get((a, top), 0.0), dtype=complex)
            for b in range(top - 1, -1, -1):
                row *= zb
                row += c.get((a, b), 0.0)
            if out is None:
                out = row
            else:
                out *= z
                out += row
        return out

    def dz(self) -> "Poly2":
        return Poly2.from_dict(
            {(a - 1, b): a * c for (a, b), c in self.coeffs if a > 0}
        )

    def dzbar(self) -> "Poly2":
        return Poly2.from_dict(
            {(a, b - 1): b * c for (a, b), c in self.coeffs if b > 0}
        )


@dataclass(frozen=True)
class BumpPoly:
    """v = bump(z; center, rho) * poly(z, zbar), with exact first derivatives."""

    center: complex
    rho: float
    poly: Poly2

    @property
    def support_radius(self) -> float:
        """Radius about the origin containing the support."""
        return abs(self.center) + self.rho

    def _s(self, z):
        d = z - self.center
        return (d.real**2 + d.imag**2) / self.rho**2

    def bump(self, z):
        s = self._s(np.asarray(z, dtype=complex))
        out = np.zeros_like(s)
        m = s < 1.0
        out[m] = np.exp(1.0 / (s[m] - 1.0))
        return out

    def _bump_factor(self, z):
        """bump and the common derivative factor -bump/(s-1)^2 / rho^2."""
        s = self._s(np.asarray(z, dtype=complex))
        b = np.zeros_like(s)
        fac = np.zeros_like(s)
        m = s < 1.0
        b[m] = np.exp(1.0 / (s[m] - 1.0))
        fac[m] = -b[m] / (s[m] - 1.0) ** 2 / self.rho**2
        return b, fac

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        return self.bump(z) * self.poly(z)

    @cached_property
    def _poly_dz(self) -> Poly2:
        return self.poly.dz()

    @cached_property
    def _poly_dzbar(self) -> Poly2:
        return self.poly.dzbar()

    def dbar(self, z):
        """Closed-form dbar(v): dbar(b) p + b dbar(p), dbar(b) = fac * (z - c)."""
        z = np.asarray(z, dtype=complex)
        b, fac = self._bump_factor(z)
        return fac * (z - self.center) * self.poly(z) + b * self._poly_dzbar(z)

    def dz(self, z):
        z = np.asarray(z, dtype=complex)
        b, fac = self._bump_factor(z)
        return fac * np.conj(z - self.center) * self.poly(z) + b * self._poly_dz(z)

    def _support(self, grid: Grid):
        """``inside(r)``: the support disk on grid rows ``r``, by ``_s``'s arithmetic."""
        x = grid.axis
        dx2, dy2 = (x - self.center.real) ** 2, (x - self.center.imag) ** 2
        return lambda r: (dx2[r, None] + dy2) / self.rho**2 < 1.0

    def _sample_on_support(self, fn, grid: Grid) -> Field:
        """``grid.sample`` of ``fn`` inside the support disk: bit for bit ``fn(grid.nodes)``
        there, and +0 outside, where ``fn`` gives 0 * p(z), a zero of either sign."""
        return sample(fn, grid, self._support(grid))

    def sample(self, grid: Grid) -> Field:
        return self._sample_on_support(self, grid)

    def sample_dbar(self, grid: Grid) -> Field:
        return self._sample_on_support(self.dbar, grid)

    def sample_dz(self, grid: Grid) -> Field:
        return self._sample_on_support(self.dz, grid)


# MAX_CENTER and RHO_RANGE keep every suite member well inside the default R = 6 square
MAX_CENTER = 0.9
RHO_RANGE = (1.8, 2.6)
POLY_DEGREE = 4


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hashmix(h: int, mult: int):
    """SeedSequence's hash: xor with the constant, step it by ``mult``, multiply
    by the new constant and fold the high half in, all modulo 2^32."""
    def mix(value):
        nonlocal h
        value ^= h
        h = h * mult & _M32
        value = value * h & _M32
        return value ^ value >> 16
    return mix


def _seed_state(seed: int) -> list:
    """numpy's ``SeedSequence(seed).generate_state(4, np.uint64)``: the seed's
    little-endian 32-bit words mixed into a pool of four, then drawn out."""
    entropy = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 1), 32)]
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hashmix = _hashmix(0x8B51F9DD, 0x58F38DED)
    out = [hashmix(pool[i % 4]) for i in range(8)]
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class _Stream:
    """The uniform draws of numpy's ``default_rng(seed)``, bit for bit: PCG64
    (the XSL-RR output of a 128-bit LCG, O'Neill 2014) seeded by
    ``SeedSequence`` as its ``srandom`` does, each double ``(x >> 11) 2^-53``."""

    def __init__(self, seed: int):
        s0, s1, i0, i1 = _seed_state(seed)
        self.inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self.state = (self.inc + (s0 << 64 | s1)) & _M128  # a step from 0 gives inc
        self.state = (self.state * _PCG_MULT + self.inc) & _M128

    def uniform(self, low: float = 0.0, high: float = 1.0) -> float:
        """``Generator.uniform(low, high)``: low + (high - low) d."""
        self.state = s = (self.state * _PCG_MULT + self.inc) & _M128
        x, rot = (s >> 64 ^ s) & _M64, s >> 122
        x = (x >> rot | x << (64 - rot)) & _M64
        return float(low) + (float(high) - float(low)) * ((x >> 11) * 2.0**-53)


def random_suite(count: int, seed: int) -> list[BumpPoly]:
    """Seeded suite of bump-times-polynomial test functions, drawn from the
    stream of numpy's ``default_rng(seed)`` for a non-negative integer seed."""
    if isinstance(seed, bool) or not isinstance(seed, numbers.Integral) or seed < 0:
        raise InvalidArgumentError(f"seed must be a non-negative integer, got {seed!r}")
    rng = _Stream(int(seed))
    suite = []
    for _ in range(count):
        c = MAX_CENTER * (rng.uniform(-1, 1) + 1j * rng.uniform(-1, 1))
        rho = rng.uniform(*RHO_RANGE)
        coeffs = {}
        for a in range(POLY_DEGREE + 1):
            for b in range(POLY_DEGREE + 1 - a):
                r = np.sqrt(rng.uniform())
                th = rng.uniform(0.0, 2.0 * np.pi)
                coeffs[(a, b)] = r * np.exp(1j * th)
        suite.append(BumpPoly(c, rho, Poly2.from_dict(coeffs)))
    return suite
