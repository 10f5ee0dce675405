"""End-to-end acceptance checks.

Each test exercises one numbered criterion at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s`` to see
the lines as they go by).
"""

import math
import time

import numpy as np

from pcclone import (
    R_OPTIMAL,
    CountingSetup,
    DetectorBank,
    FiberParams,
    HybridParams,
    MachZehnderParams,
    NoiseConfig,
    Qubit,
    SpecialBSParams,
    balance_detectors,
    balanced_coincidence_probability,
    circuit_joint_state,
    estimator_sigma,
    fidelity_from_counts,
    hom_visibility,
    outcome_distribution,
    run_model,
    simulate_counts,
    with_distinguishability,
)
from pcclone.counting import _estimates

F_PC = 0.5 * (1.0 + 1.0 / math.sqrt(2.0))
EQUATOR_32 = [Qubit.equatorial(phi) for phi in np.linspace(0.0, 2 * math.pi, 32,
                                                           endpoint=False)]
NOISELESS = NoiseConfig()


def check(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {number:2d}: {description}{suffix}")
    assert ok, f"criterion {number} failed: {description} {suffix}"


def test_criterion_01_optimal_equatorial_fidelity():
    models = [SpecialBSParams.ideal(), HybridParams.ideal(), FiberParams.ideal()]
    start = time.perf_counter()
    worst = 0.0
    for model in models:
        for qubit in EQUATOR_32:
            report = run_model(model, qubit)
            worst = max(worst, abs(report.F1 - F_PC), abs(report.F2 - F_PC))
    elapsed = time.perf_counter() - start
    check(
        1,
        "ideal SpecialBS/Hybrid/Fiber reach F1 = F2 = 0.8535533906 "
        "on 32 equatorial states (tol 1e-9, < 1 s)",
        worst < 1e-9 and elapsed < 1.0,
        f"max |F - F_pc| = {worst:.2e}, runtime = {elapsed:.3f} s",
    )


def test_criterion_02_success_probabilities():
    q = Qubit.equatorial(0.3)
    p_special = run_model(SpecialBSParams.ideal(), q).P_succ
    p_fiber = run_model(FiberParams.ideal(), q).P_succ
    p_hybrid = run_model(HybridParams.ideal(), q).P_succ
    ok = (
        abs(p_special - 1.0 / 3.0) < 1e-9
        and abs(p_fiber - 1.0 / 3.0) < 1e-9
        and abs(p_hybrid - 1.0 / 16.0) < 1e-9
    )
    check(
        2,
        "P_succ = 1/3 (SpecialBS, Fiber) and 1/16 (Hybrid) (tol 1e-9)",
        ok,
        f"got {p_special:.12f}, {p_fiber:.12f}, {p_hybrid:.12f}",
    )


def test_criterion_03_optimal_reflectance_and_constraints():
    r_opt = R_OPTIMAL
    r0, t0 = math.sqrt(r_opt), math.sqrt(1 - r_opt)
    r1, t1 = math.sqrt(1 - r_opt), -math.sqrt(r_opt)
    c0 = abs(6 * r_opt * r_opt - 6 * r_opt + 1)
    c1 = abs(r0 * r1 + t0 * t1)
    c2 = abs((r0 * r0 - t0 * t0) - math.sqrt(2.0) * r0 * r1)
    ok = (abs(r_opt - 0.7886751346) < 1e-9 and 0.5 < r_opt <= 1.0
          and c0 < 1e-12 and c1 < 1e-12 and c2 < 1e-12)
    check(
        3,
        "optimal reflectance 0.7886751346 (tol 1e-9), the root of "
        "6R^2 - 6R + 1 = 0 in (1/2, 1], satisfying both design constraints "
        "(tol 1e-12)",
        ok,
        f"R = {r_opt:.12f}, |6R^2 - 6R + 1| = {c0:.1e}, |r0r1 + t0t1| = {c1:.1e}, "
        f"|(r0^2 - t0^2) - sqrt(2) r0r1| = {c2:.1e}",
    )


def test_criterion_04_universal_baseline():
    worst = 0.0
    for eta in (1.0, 0.7):
        model = HybridParams(eta0=eta, eta1=eta)
        for qubit in EQUATOR_32:
            report = run_model(model, qubit)
            worst = max(worst, abs(report.F1 - 5.0 / 6.0),
                        abs(report.F2 - 5.0 / 6.0))
    check(
        4,
        "hybrid with equal filter plates clones every equatorial state "
        "at F = 5/6 (tol 1e-9)",
        worst < 1e-9,
        f"max |F - 5/6| = {worst:.2e}",
    )


def test_criterion_05_phase_covariance():
    models = [
        SpecialBSParams.ideal(),
        MachZehnderParams.ideal(),
        HybridParams.ideal(),
        FiberParams.ideal(),
    ]
    worst = 0.0
    for model in models:
        reference = run_model(model, Qubit.equatorial(0.0))
        for phi in np.linspace(0.0, 2 * math.pi, 100, endpoint=False):
            report = run_model(model, Qubit.equatorial(phi))
            worst = max(worst, abs(report.F1 - reference.F1),
                        abs(report.F2 - reference.F2))
    check(
        5,
        "every ideal architecture is phase covariant over 100 phases "
        "(tol 1e-9)",
        worst < 1e-9,
        f"max |F(phi) - F(0)| = {worst:.2e}",
    )


def test_criterion_06_latitude_behavior():
    thetas = np.linspace(0.0, math.pi / 2.0, 10)
    values = [
        run_model(SpecialBSParams.ideal(), Qubit(theta, 0.0)).F1 for theta in thetas
    ]
    strictly_decreasing = all(a > b for a, b in zip(values, values[1:]))
    ok = (
        strictly_decreasing
        and abs(values[0] - 1.0) < 1e-9
        and abs(values[-1] - F_PC) < 1e-9
    )
    check(
        6,
        "F(theta) falls strictly from 1 at the pole to 0.8535533906 at "
        "the equator on a 10-point grid",
        ok,
        f"F(0) = {values[0]:.10f}, F(pi/2) = {values[-1]:.10f}",
    )


def test_criterion_07_hom_physics():
    p_indistinguishable = balanced_coincidence_probability(1.0)
    p_distinguishable = balanced_coincidence_probability(0.0)
    worst_v = max(
        abs(hom_visibility(m) - m * m) for m in np.linspace(0.0, 1.0, 10)
    )
    ok = (
        p_indistinguishable < 1e-12
        and abs(p_distinguishable - 0.5) < 1e-12
        and worst_v < 1e-10
    )
    check(
        7,
        "HOM: coincidences vanish at M = 1, reach 1/2 at M = 0 "
        "(tol 1e-12), and V = M^2 on a 10-point grid (tol 1e-10)",
        ok,
        f"P(1) = {p_indistinguishable:.1e}, P(0) = {p_distinguishable:.12f}, "
        f"max |V - M^2| = {worst_v:.1e}",
    )


def test_criterion_08_monte_carlo_estimator():
    q = Qubit.equatorial(0.0)
    model = SpecialBSParams.ideal()
    bank = DetectorBank()
    seeds = range(100, 200)
    passes = 0
    start = time.perf_counter()
    slowest = 0.0
    for seed in seeds:
        t0 = time.perf_counter()
        record = simulate_counts(model, NOISELESS, q, 10**6, bank, seed)
        slowest = max(slowest, time.perf_counter() - t0)
        f1, f2 = fidelity_from_counts(record)
        sigma = estimator_sigma(F_PC, record.c_sum)
        if abs(f1 - F_PC) < 3 * sigma and abs(f2 - F_PC) < 3 * sigma:
            passes += 1
    elapsed = time.perf_counter() - start
    check(
        8,
        "10^6-pair estimator lands within 3 sigma of 0.8535533906 for "
        ">= 99 of 100 fixed seeds (< 10 s per run)",
        passes >= 99 and slowest < 10.0,
        f"{passes}/100 seeds, slowest run {slowest * 1e3:.1f} ms, "
        f"total {elapsed:.2f} s",
    )


def test_criterion_09_detector_balancing():
    q = Qubit.equatorial(0.0)
    model = SpecialBSParams.ideal()
    bank = DetectorBank(1.0, 1.0, 0.8, 1.0)
    n = 10**6

    report = run_model(model, q)
    probs = outcome_distribution(report, q) * bank.pattern_efficiencies()
    _, f2_expected_bias, _ = _estimates(probs, 1)

    record = simulate_counts(model, NOISELESS, q, n, bank, seed=17)
    _, f2_biased = fidelity_from_counts(record)
    sigma_raw = estimator_sigma(f2_expected_bias, record.c_sum)

    setup = CountingSetup(model, NOISELESS, q, n, seed=17)
    estimates = {
        "rescale": balance_detectors("rescale", record, bank),
        "add_loss": balance_detectors("add_loss", setup, bank),
        "basis_swap": balance_detectors("basis_swap", setup, bank),
    }
    sigmas = {
        "rescale": estimator_sigma(F_PC, record.c_sum),
        "add_loss": estimator_sigma(F_PC, int(n / 3 * 0.64)),
        "basis_swap": estimator_sigma(F_PC, int(n / 3 * 0.8 / 4)),
    }
    bias_ok = (
        abs(f2_expected_bias - 0.823) < 1e-3
        and abs(f2_biased - f2_expected_bias) < 4 * sigma_raw
    )
    balanced_ok = all(
        abs(estimates[name][0] - F_PC) < 4 * sigmas[name]
        and abs(estimates[name][1] - F_PC) < 4 * sigmas[name]
        for name in estimates
    )
    detail = ", ".join(
        f"{name}: F2 = {estimates[name][1]:.5f}" for name in estimates
    )
    check(
        9,
        "efficiencies (1, 1, 0.8, 1) bias F2 to ~0.823 and all three "
        "balancing methods restore 0.8536 within 4 sigma at n = 10^6",
        bias_ok and balanced_ok,
        f"biased F2 = {f2_biased:.5f} (expected {f2_expected_bias:.5f}); {detail}",
    )


def test_criterion_10_fiber_correspondence():
    report = run_model(FiberParams(R_vrc0=0.79, R_vrc1=0.21), Qubit.equatorial(0.0))
    p = report.P_succ
    model_low, model_high = p - 0.0005, p + 0.0005
    measured_low, measured_high = 0.335 - 0.003, 0.335 + 0.003
    overlaps = model_low <= measured_high and measured_low <= model_high
    ok = abs(p - 0.3341) <= 0.0005 and overlaps
    check(
        10,
        "79:21 fiber coupler predicts P_succ = 0.3341 +- 0.0005, "
        "overlapping the measured (33.5 +- 0.3)%",
        ok,
        f"P_succ = {p:.6f}",
    )


def test_criterion_11_visibility_brackets_universal_limit():
    q_states = EQUATOR_32[:8]
    low = [
        with_distinguishability(SpecialBSParams.ideal(), math.sqrt(0.92), q)
        for q in q_states
    ]
    high = [
        with_distinguishability(FiberParams.ideal(), math.sqrt(0.98), q)
        for q in q_states
    ]
    avg_low = float(np.mean([(r.F1 + r.F2) / 2 for r in low]))
    avg_high = float(np.mean([(r.F1 + r.F2) / 2 for r in high]))
    ok = avg_low < 5.0 / 6.0 and avg_high > 5.0 / 6.0
    check(
        11,
        "average equatorial fidelity falls below 5/6 at visibility 0.92 "
        "and exceeds it at 0.98",
        ok,
        f"avg(V=0.92) = {avg_low:.6f}, avg(V=0.98) = {avg_high:.6f}, "
        f"5/6 = {5 / 6:.6f}",
    )


def test_criterion_12_closed_form_matches_circuit():
    rng = np.random.default_rng(2024)
    worst = 0.0
    checked = 0
    for _ in range(10):
        qubit = Qubit(rng.uniform(0.2, math.pi - 0.2), rng.uniform(0, 2 * math.pi))
        special = SpecialBSParams(
            R0=rng.uniform(0.55, 0.95),
            R1=rng.uniform(0.05, 0.45),
            comp_loss_r0=rng.uniform(0.6, 1.0),
            comp_loss_r1=rng.uniform(0.6, 1.0),
        )
        a0 = rng.uniform(0.55, 0.8)
        a1 = rng.uniform(0.55, 0.8)
        hybrid = HybridParams(
            r0=a0, t0=math.sqrt(1 - a0 * a0),
            r1=a1, t1=math.sqrt(1 - a1 * a1),
            eta0=rng.uniform(0.4, 1.0), eta1=rng.uniform(0.4, 1.0),
            nu0=rng.uniform(0.4, 1.0), nu1=rng.uniform(0.4, 1.0),
        )
        for params in (special, hybrid):
            closed = run_model(params, qubit)
            joint, prob = circuit_joint_state(params, qubit)
            worst = max(
                worst,
                abs(prob - closed.P_succ),
                float(np.max(np.abs(joint.rho - closed.joint.rho))),
            )
            checked += 1
    check(
        12,
        "closed-form conditional maps match the Fock-circuit evaluation "
        "on >= 20 random parameter sets (tol 1e-10)",
        worst < 1e-10 and checked >= 20,
        f"{checked} parameter sets, max deviation = {worst:.2e}",
    )
