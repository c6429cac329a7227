"""P1 finite elements on the unit square with weakly imposed Dirichlet data.

Solves -laplace(u) = f with u = g enforced either by the symmetric
Nitsche method or by stabilized facet-constant Lagrange multipliers,
recovers the boundary normal flux three ways, and ships the measurement
tools (convergence studies, error-representation identities, dual
stability scans) used to verify first-order flux accuracy.
"""

from types import ModuleType as _ModuleType

from .analysis import (
    ConvergenceRecord,
    InterpScan,
    StabilityReport,
    boundary_l2_error,
    boundary_l2_norm,
    dual_stability_report,
    error_norms,
    error_representation_residuals,
    fit_rate,
    interp_error_scan,
    rademacher_boundary_field,
)
from .fem import (
    LinearSystem,
    P1Space,
    QuadratureRule,
    assemble,
    edge_quadrature,
    evaluate_p1,
    nodal_interpolant,
    triangle_quadrature,
)
from .flux import (
    BoundaryFluxField,
    exact_flux,
    multiplier_flux,
    nitsche_flux,
    project_pointwise_flux,
    variational_flux,
)
from .lagrange import SaddleConfig
from .linsolve import (
    NotPositiveDefiniteError,
    SingularSystemError,
    SolveResult,
    SolverError,
    solve_spd,
    solve_sym_indefinite,
)
from .mesh import (
    Mesh,
    OffsetContour,
    build_unit_square_mesh,
    distance_weight,
    offset_contour,
)
from .nitsche import NitscheConfig
from .problems import ManufacturedProblem, affine_problem, constant_problem, trig_problem

# the submodules that the imports above bind stay out of `from fluxfem import *`
__all__ = [name for name in dir() if not (name.startswith("_") or isinstance(globals()[name], _ModuleType))]
__version__ = "0.1.0"
