"""Tour of the four cloner architectures at their ideal design points.

Every architecture copies any state from the equator of the Bloch sphere
with the same fidelity (1 + 1/sqrt(2))/2 ~ 85.36%, beating both the
universal-cloner limit (5/6) and the best measure-and-prepare strategy
(75%).  They differ in success probability and in which knobs exist.
"""

from pcclone import (
    F_PHASE_COVARIANT,
    F_SEMICLASSICAL,
    F_UNIVERSAL,
    R_OPTIMAL,
    FiberParams,
    HybridParams,
    MachZehnderParams,
    Qubit,
    SpecialBSParams,
    run_model,
)

print("benchmark fidelities")
print(f"  phase-covariant cloner : {F_PHASE_COVARIANT:.10f}")
print(f"  universal cloner       : {F_UNIVERSAL:.10f}")
print(f"  semi-classical bound   : {F_SEMICLASSICAL:.10f}")
print()

print(f"optimal splitter reflectance: R0 = {R_OPTIMAL:.10f} (~79:21),"
      f" R1 = {1 - R_OPTIMAL:.10f} (~21:79)")
print()

state = Qubit.equatorial(0.0)
models = {
    "special beam splitter": SpecialBSParams.ideal(),
    "Mach-Zehnder emulation": MachZehnderParams.ideal(),
    "hybrid (bunch + filter)": HybridParams.ideal(),
    "all-fiber dual rail": FiberParams.ideal(),
}

print(f"{'architecture':<26} {'F1':>12} {'F2':>12} {'P_succ':>10}")
for name, params in models.items():
    report = run_model(params, state)
    print(f"{name:<26} {report.F1:>12.10f} {report.F2:>12.10f}"
          f" {report.P_succ:>10.6f}")
print()

print("removing the filter plate turns the hybrid device into a universal")
print("cloner: the fidelity drops to 5/6 but becomes state independent.")
universal = run_model(HybridParams.universal(), state)
pole = run_model(HybridParams.universal(), Qubit(0.0, 0.0))
print(f"  equator: F = {universal.F1:.10f}")
print(f"  pole:    F = {pole.F1:.10f}")

print()
print("a non-complementary fiber coupler pair still clones well; at the")
print("actually wired 79:21 ratio:")
report = run_model(FiberParams(R_vrc0=0.79, R_vrc1=0.21), state)
print(f"  F1 = F2 = {report.F1:.6f}, P_succ = {report.P_succ:.4f}"
      f" (optimum would give {1 / 3:.4f})")
