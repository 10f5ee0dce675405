"""Compensating imperfect optics: analytic plate ratios and numeric tuning.

Real splitters never hit their design ratios exactly.  Two remedies:
solve the glass-plate transmittances in closed form (hybrid setup), or
numerically re-tune a free parameter until the clones agree (any setup) at
some cost in success probability.
"""

import math

from pcclone import (
    Qubit,
    SpecialBSParams,
    optimize_symmetry,
    run_model,
    solve_hybrid_compensation,
    solve_ideal_reflectance,
)

r_opt = solve_ideal_reflectance()
print(f"design reflectance: {r_opt:.10f}; success at design point:"
      f" {(2 * r_opt - 1) ** 2:.6f}")
print()

print("hybrid separating splitter off its 50:50 spec (52:48 vs 48:52)")
solution = solve_hybrid_compensation(
    math.sqrt(0.52), math.sqrt(0.48), math.sqrt(0.48), math.sqrt(0.52)
)
eta0, eta1, nu0, nu1 = solution.capped_values
print(f"  plate ratios    : nu0/nu1 = {solution.nu_ratio:.5f},"
      f" eta1/eta0 = {solution.eta_ratio:.5f}")
print(f"  transmittances  : eta = ({eta0:.5f}, {eta1:.5f}),"
      f" nu = ({nu0:.5f}, {nu1:.5f})")
print(f"  predicted clones: F1 = {solution.predicted.F1:.8f},"
      f" F2 = {solution.predicted.F2:.8f}")
print()

print("unbalanced splitter whose rail-r0 ratio drifted to 80:20 while")
print("rail r1 stayed at the design value; the clones disagree until a")
print("lossy plate on one output rail restores symmetry.")
broken = SpecialBSParams(R0=0.80, R1=1.0 - r_opt)
before = run_model(broken, Qubit.equatorial(0.0))
print(f"  before: F1 = {before.F1:.6f}, F2 = {before.F2:.6f},"
      f" P_succ = {before.P_succ:.6f}")
result = optimize_symmetry(broken, {"comp_loss_r1": (0.5, 1.0)},
                           "min_fidelity_gap")
after = result.report
print(f"  after : F1 = {after.F1:.6f}, F2 = {after.F2:.6f},"
      f" P_succ = {after.P_succ:.6f}"
      f"  (plate amplitude transmittance {result.params.comp_loss_r1:.6f})")
print()

print("the same optimizer recovers the design reflectance from scratch:")
result = optimize_symmetry(SpecialBSParams(R0=0.6), {"R0": (0.5, 1.0)},
                           "max_avg_fidelity")
print(f"  best R0 = {result.params.R0:.8f} (design {r_opt:.8f}),"
      f" F = {result.report.F1:.8f}")
