"""Closed-form weight models phi with analytic derivatives.

Each catalog entry supplies phi, del(phi), dbar(phi) and the normalized
Laplacian of phi as closed forms; discrete differentiation is used only as a
consistency check.  The curvature margin

    margin(z) = laplacian_hat(log laplacian_hat(phi)) / laplacian_hat(phi) + 2

is the uniqueness condition quantity; it is invariant under rescaling the
Laplacian, so the normalized convention is used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from . import diffops
from .errors import (DynamicRangeError, InvalidArgumentError, SamplingError,
                     WeightInvariantViolationError)
from .grid import Field, Grid, sample

# largest exponent admitted in a weight factor e^{k phi}; e^x overflows
# float64 just above x = 709.78
EXP_CAP = 700.0
# each catalog entry's parameter keys and defaults; custom_weight rejects any other key
CATALOG_PARAMS = {"fock": {"t": 1.0}, "fock-harmonic": {"t": 1.0, "b": 0.125},
                  "cosh-x": {}, "quartic": {}, "zero": {}}


@dataclass(frozen=True)
class Weight:
    name: str
    params: dict
    phi: Callable
    dphi: Callable          # del(phi)
    dbarphi: Callable       # dbar(phi) == conj(del(phi)) for real phi
    lap_hat_phi: Callable
    margin_fn: Optional[Callable] = None  # analytic curvature margin, if known
    # closed-form knowledge: where (if anywhere) lap_hat_phi fails to be
    # positive; a node check cannot see zeros that fall between cell centers
    positivity_defect: Optional[str] = None

    def _sample(self, fn: Callable, label: str, grid: Grid) -> Field:
        try:
            return sample(fn, grid)
        except SamplingError as e:
            raise SamplingError(f"weight {self.name!r}, {label}: {e}",
                                node_index=e.node_index) from e

    def sample_phi(self, grid: Grid) -> Field:
        return self._sample(self.phi, "phi", grid)

    def sample_dphi(self, grid: Grid) -> Field:
        return self._sample(self.dphi, "del(phi)", grid)

    def sample_dbarphi(self, grid: Grid) -> Field:
        return self._sample(self.dbarphi, "dbar(phi)", grid)

    def sample_lap_hat(self, grid: Grid) -> np.ndarray:
        return np.real(np.asarray(self.lap_hat_phi(grid.nodes), dtype=complex)) * np.ones((grid.n, grid.n))

    def exp_phi(self, z: np.ndarray, factor: float = 1.0) -> np.ndarray:
        """e^{factor * phi} at the nodes ``z`` (``grid.nodes`` or a masked subset).

        Raises DynamicRangeError when factor * phi exceeds EXP_CAP at some
        node; its ``node_index`` is the flat index into ``z``.
        """
        expo = factor * np.real(np.asarray(self.phi(z))) * np.ones(np.shape(z))
        if np.any(expo > EXP_CAP):
            bad = int(np.argmax(expo.reshape(-1)))
            raise DynamicRangeError(
                f"weight {self.name!r}: {factor:g} phi reaches {expo.flat[bad]:.6g}, "
                f"past EXP_CAP = {EXP_CAP:g}",
                node_index=bad,
            )
        return np.exp(expo)

    def is_trivial(self) -> bool:
        return self.name == "zero"

    def validate_on(self, grid: Grid) -> None:
        if self.positivity_defect is not None:
            raise WeightInvariantViolationError(
                f"weight {self.name!r}: {self.positivity_defect}"
            )
        lap = self.sample_lap_hat(grid)
        if np.min(lap) <= 0.0:
            raise WeightInvariantViolationError(
                f"weight {self.name!r}: laplacian_hat(phi) must be positive everywhere, "
                f"min over grid is {np.min(lap):.3e}"
            )


@dataclass(frozen=True)
class CurvatureReport:
    margin_field: Field
    min_margin: float
    passes: bool
    analytic_path: bool


def fock_weight(t: float = 1.0) -> Weight:
    """phi = t |z|^2 / 2, the Gaussian weight."""
    if not t > 0:
        raise InvalidArgumentError(f"fock scale t must be positive, got {t}")
    return Weight(
        name="fock",
        params={"t": float(t)},
        phi=lambda z: 0.5 * t * (np.abs(z) ** 2),
        dphi=lambda z: 0.5 * t * np.conj(z),
        dbarphi=lambda z: 0.5 * t * z,
        lap_hat_phi=lambda z: 0.5 * t * np.ones(np.shape(z)),
        margin_fn=lambda z: 2.0 * np.ones(np.shape(z)),
    )


def _finite_param(spec: dict, key: str, default: float) -> float:
    v = float(spec.get(key, default))
    if not np.isfinite(v):
        raise InvalidArgumentError(f"weight parameter {key} must be finite, got {v}")
    return v


def custom_weight(spec: dict) -> Weight:
    """Build a weight from the catalog.

    Entries: ``fock`` (t), ``fock-harmonic`` (t, b: phi = t|z|^2/2 + Re(b z^2)),
    ``cosh-x`` (phi = cosh x), ``quartic`` (phi = |z|^4, fails validation),
    ``zero`` (phi = 0, admitted only for the norm-identity isometry case).
    """
    if not isinstance(spec, dict) or "name" not in spec:
        raise InvalidArgumentError("weight spec must be a dict with a 'name' key")
    name = spec["name"]
    if not isinstance(name, str) or name not in CATALOG_PARAMS:
        raise InvalidArgumentError(f"unknown weight catalog entry {name!r}")
    for key in spec:
        if key != "name" and key not in CATALOG_PARAMS[name]:
            raise InvalidArgumentError(f"weight {name!r} takes no parameter {key!r}")
    p = {k: _finite_param(spec, k, d) for k, d in CATALOG_PARAMS[name].items()}
    if name == "fock":
        return fock_weight(p["t"])
    if name == "fock-harmonic":
        # the fock weight plus a harmonic term, which changes neither the
        # Laplacian nor the margin
        t, b = p["t"], p["b"]
        return replace(
            fock_weight(t),
            name="fock-harmonic",
            params=p,
            phi=lambda z: 0.5 * t * np.abs(z) ** 2 + b * np.real(z**2),
            dphi=lambda z: 0.5 * t * np.conj(z) + b * z,
            dbarphi=lambda z: 0.5 * t * z + b * np.conj(z),
        )
    if name == "cosh-x":
        # phi = cosh x; lap_hat = cosh(x)/4; margin = sech^3 x + 2
        return Weight(
            name="cosh-x",
            params={},
            phi=lambda z: np.cosh(np.real(z)),
            dphi=lambda z: 0.5 * np.sinh(np.real(z)) + 0j * z,
            dbarphi=lambda z: 0.5 * np.sinh(np.real(z)) + 0j * z,
            lap_hat_phi=lambda z: 0.25 * np.cosh(np.real(z)),
            margin_fn=lambda z: 1.0 / np.cosh(np.real(z)) ** 3 + 2.0,
        )
    if name == "quartic":
        return Weight(
            name="quartic",
            params={},
            phi=lambda z: np.abs(z) ** 4,
            dphi=lambda z: 2.0 * z * np.conj(z) ** 2,
            dbarphi=lambda z: 2.0 * np.conj(z) * z**2,
            lap_hat_phi=lambda z: 4.0 * np.abs(z) ** 2,
            positivity_defect="laplacian_hat(phi) = 4|z|^2 vanishes at z = 0",
        )
    # the last entry, zero
    return Weight(
        name="zero",
        params={},
        phi=lambda z: np.zeros(np.shape(z)),
        dphi=lambda z: np.zeros(np.shape(z), dtype=complex),
        dbarphi=lambda z: np.zeros(np.shape(z), dtype=complex),
        lap_hat_phi=lambda z: np.zeros(np.shape(z)),
    )


def curvature_margin(w: Weight, grid: Grid, tolerance: float = 1e-9,
                     lap_scale: float = 1.0) -> CurvatureReport:
    """Evaluate the curvature-type uniqueness margin on the grid.

    Uses the analytic margin when the catalog provides one, otherwise a
    4th-order discrete Laplacian of log(lap_scale * laplacian_hat(phi)); the
    scale drops out as an additive constant under the Laplacian, making the
    margin normalization-invariant.
    """
    w.validate_on(grid)
    if w.margin_fn is not None and lap_scale == 1.0:
        vals = np.asarray(w.margin_fn(grid.nodes), dtype=float) * np.ones((grid.n, grid.n))
        mf = Field(grid, vals.astype(complex))
        mn = float(np.min(vals))
        return CurvatureReport(mf, mn, mn >= -tolerance, True)
    lap = w.sample_lap_hat(grid)
    loglap = Field(grid, np.log(lap_scale * lap).astype(complex))
    # log(lap) need not vanish at the boundary, so the periodic spectral
    # scheme is not legitimate here; fd4 with its zeroed band is.
    num = diffops.laplacian_hat(loglap, scheme="fd4")
    mask = diffops.interior_mask(grid, num.zero_band)
    margin = np.zeros((grid.n, grid.n))
    margin[mask] = np.real(num.values[mask]) / lap[mask] + 2.0
    mn = float(np.min(margin[mask]))
    return CurvatureReport(Field(grid, margin.astype(complex)), mn, mn >= -tolerance, False)
