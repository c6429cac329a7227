# Stability of the discrete dual problem with L2 boundary data.
#
# Rough per-facet +-1 data psi drives the dual solve; the report
# measures the weighted gradient (Q1, weight max(0, dist - h)), the
# h-scaled gradient (Q2), the supremum of |phi| over offset contours
# (Q3), the domain norm (Q4), and for the multiplier method the scaled
# multiplier norm (Q5), all relative to |psi|^2.
#
# The summed ratio staying in a narrow band across levels witnesses the
# boundedness constant. Note two measured effects: Q4 decays under
# refinement (rough data has a vanishing harmonic extension), and the
# multiplier method needs its stabilization below 1/2 on this mesh
# family; at alpha = 10 the dual blows up erratically.

from dataclasses import replace

from fluxfem import (
    NitscheConfig,
    P1Space,
    SaddleConfig,
    build_unit_square_mesh,
    dual_stability_report,
    rademacher_boundary_field,
)

# Each space and its seed-0 psi serve every configuration below.
LEVELS = []
for n in (8, 16, 32, 64):
    mesh = build_unit_square_mesh(n)
    LEVELS.append((P1Space(mesh), rademacher_boundary_field(mesh, seed=0)))

for base in (NitscheConfig(beta=10.0), SaddleConfig(alpha=0.25), SaddleConfig(alpha=10.0)):
    for kappa in (0.0, 10.0):
        cfg = replace(base, kappa=kappa)
        reports = [dual_stability_report(space, cfg, psi) for space, psi in LEVELS]
        print(f"== {cfg} ==")
        for r in reports:
            ratios = " ".join(f"{k}={v:9.4f}" for k, v in r.ratios().items())
            print(f"  n={r.grid_n:3d}: {ratios}")
        sums = [sum(r.ratios().values()) for r in reports]
        print(f"  summed ratio spread: {max(sums) / min(sums):.3f}")
