# The error-representation identities behind the flux error bound.
#
# For any boundary data psi, the flux error pairs with psi exactly as a
# combination of interpolation errors and the discrete dual solution:
#
#   Nitsche:   (sigma - Sigma, psi)_G = a_h(u - pi u, phi) - m_psi(u - pi u)
#   multiplier: (lambda - lambda_h, psi)_G
#             = A_h(pi u - u, pi lambda - lambda; phi, theta)
#               + (psi, lambda - pi lambda)_G
#
# Both are algebraic identities of the discrete systems: the residual
# below is pure quadrature and solver noise. One function checks both;
# the type of the config picks the identity.

from fluxfem import (
    NitscheConfig,
    P1Space,
    SaddleConfig,
    build_unit_square_mesh,
    error_representation_residuals,
    rademacher_boundary_field,
    trig_problem,
)

problem = trig_problem()
configs = {"nitsche": NitscheConfig(beta=10.0), "multiplier": SaddleConfig(alpha=10.0)}

for n in (8, 16, 32):
    mesh = build_unit_square_mesh(n)
    space = P1Space(mesh)
    psis = [rademacher_boundary_field(mesh, seed) for seed in range(5)]  # rough +-1 per facet
    worst = {
        name: max(0.0, *error_representation_residuals(problem, space, cfg, psis))
        for name, cfg in configs.items()
    }
    print(f"n={n:3d}: worst relative residual  " + "  ".join(f"{k} {v:.3e}" for k, v in worst.items()))
