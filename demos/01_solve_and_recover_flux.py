# Solve the Poisson problem with weakly imposed Dirichlet data and
# recover the boundary normal flux three ways.
#
# The manufactured solution is u = cos(2 pi x) cos(2 pi y)
# + sin(2 pi x) sin(2 pi y) = cos(2 pi (x - y)), so f = 8 pi^2 u and the
# exact flux is known in closed form on every side.

import numpy as np

from fluxfem import (
    NitscheConfig,
    P1Space,
    SaddleConfig,
    assemble,
    boundary_l2_error,
    build_unit_square_mesh,
    exact_flux,
    multiplier_flux,
    nitsche_flux,
    solve_spd,
    solve_sym_indefinite,
    trig_problem,
    variational_flux,
)

problem = trig_problem()
n = 32
mesh = build_unit_square_mesh(n)
space = P1Space(mesh)
exact = exact_flux(problem, space)  # sigma_n at the facet Gauss points
print(f"mesh: {mesh.n_vertices} vertices, {mesh.n_triangles} triangles, h = 1/{n}")

# --- Nitsche's method: one SPD solve, two flux recoveries ---------------------

cfg = NitscheConfig(beta=10.0)
system = assemble(space, cfg, problem.f, problem.g)
result = solve_spd(system)
print(f"nitsche solve: residual {result.residual:.2e}, inertia {result.inertia}")

pointwise = nitsche_flux(result.x, problem.g, space, cfg)
variational = variational_flux(result.x, problem.g, problem.f, space)
print(f"pointwise flux error   {boundary_l2_error(pointwise, exact, space):.4e}")
print(f"variational flux error {boundary_l2_error(variational, exact, space):.4e}")

# --- Stabilized Lagrange multipliers: the flux is minus the multiplier --------

saddle = assemble(space, SaddleConfig(alpha=0.25), problem.f, problem.g)
sol = solve_sym_indefinite(saddle)
u, lam = saddle.split(sol.x)
print(f"saddle solve: residual {sol.residual:.2e}, inertia {sol.inertia}")
print(f"multiplier flux error  {boundary_l2_error(multiplier_flux(lam, mesh), exact, space):.4e}")

# The exact flux norm is 2*sqrt(2)*pi; each side carries one sine hump.
from fluxfem import boundary_l2_norm

print(f"|sigma| on the boundary: {boundary_l2_norm(exact, space):.12f}")
print(f"2*sqrt(2)*pi           : {2.0 * np.sqrt(2.0) * np.pi:.12f}")
