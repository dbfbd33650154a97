"""reillylab: numerical verification of sharp second-eigenvalue bounds for
divergence-form operators on immersed submanifolds of space forms."""

from .balance import BalanceResult, balance_measure
from .ellipticity import (WeightTensorData, mean_curvature_tensor,
                          tilted_sum_minimum)
from .errors import (ArgumentError, ConfigError, ConvergenceError,
                     DegenerateNormalError, EllipticityError, ImmersionError,
                     InequalityViolation, PoleProximityError, ReillyLabError,
                     ShapeError, TopologyError, UnsupportedConfiguration)
from .fem import DiscreteGeometry, assemble_forms
from .gallery import (GALLERY, clifford_torus, ellipsoid, flat_torus, gallery,
                      hyperbolic_geodesic_sphere, list_gallery,
                      product_spheres, ring_torus, sphere, veronese_rp2)
from .identities import identity_suite
from .immersion import (AmbientSpace, FrameBatch, ParametricImmersion,
                        pushforward_under_map)
from .kronecker import contraction_factor, gen_kronecker
from .mesh import (Mesh, icosphere, load_off, projective_icosphere, save_off,
                   torus_grid)
from .moebius import ConformalChain, MoebiusParam, gamma_map, plane_to_sphere
from .newton import NewtonTensor, newton_tensor
from .reports import (OperatorSpec, ReillyReport, check_inequality,
                      closed_form_report, fem_report, mean_tensor_report,
                      operator_from_label, t_minimality, write_report_csv)
from .secondform import SecondFundamentalForm
from .spectra import product_spectrum, solve_pencil

__version__ = "0.1.0"

__all__ = [
    "AmbientSpace", "ArgumentError", "BalanceResult", "ConfigError",
    "ConformalChain", "ConvergenceError", "DegenerateNormalError",
    "DiscreteGeometry", "EllipticityError", "FrameBatch", "GALLERY",
    "ImmersionError",
    "InequalityViolation", "Mesh", "MoebiusParam", "NewtonTensor",
    "OperatorSpec", "ParametricImmersion", "ReillyLabError",
    "ReillyReport", "SecondFundamentalForm", "ShapeError", "TopologyError",
    "UnsupportedConfiguration", "WeightTensorData", "assemble_forms",
    "balance_measure", "check_inequality", "clifford_torus",
    "closed_form_report", "contraction_factor", "ellipsoid", "fem_report",
    "flat_torus", "gallery", "gamma_map", "gen_kronecker",
    "hyperbolic_geodesic_sphere", "icosphere", "identity_suite",
    "list_gallery",
    "load_off", "mean_curvature_tensor", "mean_tensor_report",
    "newton_tensor", "operator_from_label", "plane_to_sphere",
    "product_spectrum", "product_spheres", "projective_icosphere",
    "pushforward_under_map", "ring_torus", "save_off", "solve_pencil",
    "sphere", "t_minimality", "tilted_sum_minimum", "torus_grid",
    "veronese_rp2", "write_report_csv",
]
