"""P1 finite elements on the unit square with weakly imposed Dirichlet data.

Solves -laplace(u) = f with u = g enforced either by the symmetric
Nitsche method or by stabilized facet-constant Lagrange multipliers,
recovers the boundary normal flux three ways, and ships the measurement
tools (convergence studies, error-representation identities, dual
stability scans) used to verify first-order flux accuracy.
"""

from .analysis import (
    ConvergenceRecord,
    InterpScan,
    StabilityReport,
    boundary_l2_error,
    boundary_l2_norm,
    contour_l2_norm_discrete,
    dual_stability_report,
    error_norms,
    error_representation_residuals,
    fit_rate,
    interp_error_scan,
    rademacher_boundary_field,
)
from .fem import (
    P1Space,
    QuadratureRule,
    edge_quadrature,
    locate_points,
    located_gradients,
    located_values,
    nodal_interpolant,
    triangle_quadrature,
)
from .flux import (
    BoundaryFluxField,
    ExactFluxField,
    multiplier_flux,
    nitsche_flux,
    project_pointwise_flux,
    variational_flux,
)
from .lagrange import (
    SaddleConfig,
    SaddleSystem,
    assemble_dual_rhs_lm,
    assemble_saddle,
    saddle_matrix,
)
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
from .nitsche import (
    LinearSystem,
    NitscheConfig,
    assemble_dual_rhs_nitsche,
    assemble_nitsche,
    nitsche_matrix,
)
from .problems import ManufacturedProblem, affine_problem, constant_problem, trig_problem

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
