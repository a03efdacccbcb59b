"""Compactly supported smooth test functions with closed-form derivatives.

The suite consists of v = b * p where b is the radial bump

    b(z) = exp(1 / (|z-c|^2 / rho^2 - 1))   for |z-c| < rho, else 0,

and p(z, zbar) is a polynomial of degree <= 4 in z and zbar with seeded
random coefficients in the unit disk.  Both dbar(v) and del(v) are available
in closed form, so suite members serve as independent oracles for the
discrete operators and the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Field, Grid, sample


@dataclass(frozen=True)
class Poly2:
    """Polynomial sum c_{ab} z^a zbar^b, coefficients keyed by (a, b).

    Evaluated by nested Horner, in zbar for each power of z and then in z.
    On the 141 488 support nodes of a suite member at n = 1024 that takes
    about a third of the time of forming every power and summing the terms
    (5.2 against 15.8 ms), and the values differ from that sum by rounding:
    at most 6.4e-16 of sum |c_{ab}| |z|^(a+b) over the seed-42 suite."""

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


def random_suite(count: int, seed: int) -> list[BumpPoly]:
    """Seeded suite of bump-times-polynomial test functions."""
    rng = np.random.default_rng(seed)
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

