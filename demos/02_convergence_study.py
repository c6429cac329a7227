# Manufactured-solution convergence study, the same table the CLI
# subcommand `fluxfem converge` writes.
#
# Levels follow n = round(4 * sqrt(2)^k); the slope is fitted on the
# asymptotic window h <= 0.1. First order is expected for the pointwise
# Nitsche flux; the variational flux superconverges on this uniform
# family; the multiplier flux is first order once the stabilization
# parameter sits below the inverse-inequality threshold (1/2 here).

from fluxfem.analysis import fit_rate
from fluxfem.cli import StudyConfig, records_to_csv, run_convergence

nitsche = StudyConfig(method="nitsche", flux_variant="pointwise", kmin=2, kmax=8)
records = run_convergence(nitsche)
print(records_to_csv(records))
window = [r for r in records if r.h_grid <= 0.1]
print(f"pointwise flux slope on h <= 0.1: {fit_rate([(r.h_grid, r.flux_err) for r in window]):.4f}")
print(f"energy-norm slope on h <= 0.1:   {fit_rate([(r.h_grid, r.energy_err) for r in window]):.4f}")
print()

lagrange = StudyConfig(method="lagrange", alpha=0.25, kmin=2, kmax=8)
records = run_convergence(lagrange)
window = [r for r in records if r.h_grid <= 0.1]
print(f"multiplier flux slope (alpha=0.25): {fit_rate([(r.h_grid, r.flux_err) for r in window]):.4f}")
print(f"triple-norm slope (alpha=0.25):     {fit_rate([(r.h_grid, r.energy_err) for r in window]):.4f}")
