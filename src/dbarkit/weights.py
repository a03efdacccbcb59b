"""Closed-form weight models phi with analytic derivatives.

Each catalog entry supplies phi, del(phi) (dbar(phi) is its conjugate, phi
being real) and the normalized Laplacian of phi as closed forms, and each
entry that can pass validation its curvature margin

    margin(z) = laplacian_hat(log laplacian_hat(phi)) / laplacian_hat(phi) + 2

the uniqueness condition quantity, in closed form too; it is invariant under
rescaling the Laplacian, so the normalized convention is used throughout.
``Weight._sample`` evaluates every weight field on a grid.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from .errors import (DynamicRangeError, InvalidArgumentError, SamplingError,
                     WeightInvariantViolationError)
from .grid import Field, Grid, sample

# largest exponent admitted in a weight factor e^{k phi}; e^x overflows
# float64 just above x = 709.78
EXP_CAP = 700.0
# a curvature margin passes from -MARGIN_TOL up, allowing rounding below 0
MARGIN_TOL = 1e-9
# each catalog entry's parameter keys and defaults; custom_weight rejects any other key
CATALOG_PARAMS = {"fock": {"t": 1.0}, "fock-harmonic": {"t": 1.0, "b": 0.125},
                  "cosh-x": {}, "quartic": {}, "zero": {}}


@dataclass(frozen=True)
class Weight:
    name: str
    params: dict
    phi: Callable
    dphi: Callable          # del(phi)
    lap_hat_phi: Callable
    margin_fn: Optional[Callable] = None  # analytic curvature margin, if known
    # closed-form knowledge: where (if anywhere) lap_hat_phi fails to be
    # positive; a node check cannot see zeros that fall between cell centers
    positivity_defect: Optional[str] = None

    def _sample(self, fn: Callable, label: str, grid: Grid) -> Field:
        try:
            # Field rejects a non-finite value with its node, so numpy's warning adds nothing
            with np.errstate(over="ignore", invalid="ignore"):
                return sample(fn, grid)
        except SamplingError as e:
            raise SamplingError(f"weight {self.name!r}, {label}: {e}",
                                node_index=e.node_index) from e

    def sample_phi(self, grid: Grid) -> Field:
        return self._sample(self.phi, "phi", grid)

    def sample_dphi(self, grid: Grid) -> Field:
        return self._sample(self.dphi, "del(phi)", grid)

    def sample_dbarphi(self, grid: Grid) -> Field:
        return self._sample(lambda z: np.conj(self.dphi(z)), "dbar(phi)", grid)

    def sample_lap_hat(self, grid: Grid) -> np.ndarray:
        return self._sample(self.lap_hat_phi, "laplacian_hat(phi)", grid).values.real

    def exp_phi(self, z: np.ndarray, factor: float = 1.0) -> np.ndarray:
        """e^{factor * phi} at the nodes ``z``, an array of any shape.

        Raises DynamicRangeError when factor * phi exceeds EXP_CAP at some
        node; its ``node_index`` is the flat index into ``z``.
        """
        expo = factor * np.real(self.phi(z))
        if np.any(expo > EXP_CAP):
            bad = int(np.argmax(expo))  # a flat index
            raise DynamicRangeError(
                f"weight {self.name!r}: {factor:g} phi reaches {expo.flat[bad]:.6g}, "
                f"past EXP_CAP = {EXP_CAP:g}", node_index=bad)
        return np.exp(expo)

    def is_trivial(self) -> bool:
        return self.name == "zero"

    def validate_on(self, grid: Grid) -> None:
        if self.positivity_defect is not None:
            raise WeightInvariantViolationError(f"weight {self.name!r}: {self.positivity_defect}")
        low = np.min(self.sample_lap_hat(grid))
        if low <= 0.0:
            raise WeightInvariantViolationError(
                f"weight {self.name!r}: laplacian_hat(phi) must be positive everywhere, "
                f"min over grid is {low:.3e}")


@dataclass(frozen=True)
class CurvatureReport:
    margin_field: Field
    min_margin: float
    passes: bool
    # always true: kept since the benchmark's recorded reports hold the key,
    # until the benchmark-upkeep change records them again (ROADMAP item 1)
    analytic_path: bool = True


def fock_weight(t: float = 1.0) -> Weight:
    """phi = t |z|^2 / 2, the Gaussian weight."""
    if not t > 0:
        raise InvalidArgumentError(f"fock scale t must be positive, got {t}")
    return Weight(
        name="fock",
        params={"t": float(t)},
        phi=lambda z: 0.5 * t * (np.abs(z) ** 2),
        dphi=lambda z: 0.5 * t * np.conj(z),
        lap_hat_phi=lambda z: 0.5 * t * np.ones(np.shape(z)),
        margin_fn=lambda z: 2.0 * np.ones(np.shape(z)),
    )


def _finite_param(spec: dict, key: str, default: float) -> float:
    v = spec.get(key, default)
    # as for every config key: no bool or str; NaN, inf and huge ints fail the comparison
    if isinstance(v, bool) or not isinstance(v, numbers.Real) or not abs(v) <= sys.float_info.max:
        raise InvalidArgumentError(f"weight parameter {key} must be a finite number, got {v!r}")
    return float(v)


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
        )
    if name == "cosh-x":
        # phi = cosh x; lap_hat = cosh(x)/4; margin = sech^3 x + 2
        return Weight(
            name="cosh-x",
            params={},
            phi=lambda z: np.cosh(np.real(z)),
            dphi=lambda z: 0.5 * np.sinh(np.real(z)) + 0j * z,
            lap_hat_phi=lambda z: 0.25 * np.cosh(np.real(z)),
            margin_fn=lambda z: 1.0 / np.cosh(np.real(z)) ** 3 + 2.0,
        )
    if name == "quartic":
        return Weight(
            name="quartic",
            params={},
            phi=lambda z: np.abs(z) ** 4,
            dphi=lambda z: 2.0 * z * np.conj(z) ** 2,
            lap_hat_phi=lambda z: 4.0 * np.abs(z) ** 2,
            positivity_defect="laplacian_hat(phi) = 4|z|^2 vanishes at z = 0",
        )
    # the last entry, zero
    return Weight(
        name="zero",
        params={},
        phi=lambda z: np.zeros(np.shape(z)),
        dphi=lambda z: np.zeros(np.shape(z), dtype=complex),
        lap_hat_phi=lambda z: np.zeros(np.shape(z)),
    )


def curvature_margin(w: Weight, grid: Grid) -> CurvatureReport:
    """The weight's closed-form curvature margin on the grid; InvalidArgumentError if none."""
    w.validate_on(grid)
    if w.margin_fn is None:
        raise InvalidArgumentError(f"weight {w.name!r} has no closed-form curvature margin")
    mf = w._sample(w.margin_fn, "curvature margin", grid)
    mn = float(np.min(mf.values.real))
    return CurvatureReport(mf, mn, mn >= -MARGIN_TOL)
