"""dbarkit: numerical verification toolkit for the dbar-equation on the
plane with growing weights."""

from .grid import Field, Grid, build_grid, field_to_csv, sample, weighted_norm_sq
from .diffops import dbar, delz, laplacian_hat
from .weights import CurvatureReport, Weight, curvature_margin, custom_weight, fock_weight
from .identity import IdentityReport, verify_norm_identity
from .solver import (
    BoundReport,
    SolutionReport,
    cauchy_transform,
    check_hormander_bound,
    fock_bergman_project,
    solve_dbar,
    uniqueness_probe,
)
from .moments import (
    BargmannProbeReport,
    DiagonalSeries,
    MomentVector,
    bargmann_probe,
    diagonal_restriction,
    fourier2,
    moments,
)

__version__ = "0.1.0"
