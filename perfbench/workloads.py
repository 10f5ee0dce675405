"""Seeded workload decks for the pcclone CLI benchmark.

A deck is the fixed list of CLI calls one workload cycles through, in
whole passes.  Its shape (subcommands, variants, rows per call, pair
counts, output formats) is the same for every seed, so the cost of a deck
barely depends on the seed; the seed draws the continuous values: device
parameters near the ideal settings, grids, overlaps, jitter, detector
efficiencies and row seeds.  The program sees only the JSON documents
built here.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("sweep_closed", "sweep_hom", "mc_jitter", "optimize")
VARIANTS = ("special_bs", "mach_zehnder", "hybrid", "fiber")

R_OPTIMAL = 0.5 * (1.0 + 1.0 / math.sqrt(3.0))
HALF = math.sqrt(0.5)
EQUATOR = math.pi / 2.0

#: calls per deck.  With 15 equally frequent entries the median of call
#: time is the 8th entry's and the 90th percentile the 14th's, each in the
#: middle of one entry's samples rather than on the step between two.
DECK_SIZE = 15

#: pair counts of the mc_jitter deck, 10^5 to 10^6 in equal ratios of
#: 10^(1/14), so call time rises with the entry at M = 1
JITTER_PAIRS = tuple(round(1e5 * 10 ** (k / (DECK_SIZE - 1))) for k in range(DECK_SIZE))
#: mc_jitter entries at M < 1, which costs about twice as much per pair.
#: Entry 13 is then the dearest call and entry 14 the second dearest, well
#: apart from the next (1.4x), so the 90th percentile falls inside entry
#: 14's samples; entry 7 stays the median call.  Entry 0 sits below it.
JITTER_MIXED = (0, 13)

#: the yardstick (see yardstick.py) whose work resembles each workload's
YARDSTICK = {
    "sweep_closed": "python",
    "sweep_hom": "python",
    "mc_jitter": "array",
    "optimize": "python",
}


@dataclass(frozen=True)
class Call:
    """One CLI call: ``pcclone <subcommand> --config <file> --format <fmt>``.

    ``rows`` counts the input states the call evaluates (all compared
    configurations for ``compare``; 1 for ``optimize``), ``pairs`` the
    photon pairs it simulates, and ``counted`` whether it carries a
    counting block.
    """

    subcommand: str
    config: dict
    fmt: str
    rows: int
    pairs: int = 0
    counted: bool = False


def near_ideal_model(rng: random.Random, variant: str) -> dict:
    """Model block a small seeded step away from the ideal settings."""
    if variant == "special_bs":
        return {"variant": variant, "R0": R_OPTIMAL + rng.uniform(-0.02, 0.02),
                "comp_loss_r1": rng.uniform(0.95, 1.0)}
    if variant == "mach_zehnder":
        theta_v = math.asin(math.sqrt(R_OPTIMAL)) + rng.uniform(-0.02, 0.02)
        return {"variant": variant, "theta_V": theta_v,
                "theta_H": theta_v + math.pi / 2.0 + rng.uniform(-0.02, 0.02),
                "phase_offset_r1": rng.uniform(-0.05, 0.05)}
    if variant == "hybrid":
        r0 = HALF + rng.uniform(-0.02, 0.02)
        return {"variant": variant, "r0": r0, "t0": math.sqrt(1.0 - r0 * r0),
                "eta0": HALF + rng.uniform(-0.02, 0.02)}
    if variant == "fiber":
        return {"variant": variant, "R_vrc0": R_OPTIMAL + rng.uniform(-0.02, 0.02)}
    raise ValueError(f"unknown variant {variant!r}")


def _axis(rng: random.Random, low: float, high: float, count: int) -> dict:
    start = rng.uniform(low, low + 0.25 * (high - low))
    stop = rng.uniform(high - 0.25 * (high - low), high)
    return {"start": start, "stop": stop, "count": count}


def _grid(rng: random.Random, rows: int, shapes, equatorial: bool) -> dict:
    """Sweep block with ``rows`` states.

    Equatorial sweeps keep theta at pi/2, where the fiber detection blocks
    project onto the input state; the count check relies on that.
    """
    if equatorial:
        return {"theta": EQUATOR, "phi": _axis(rng, 0.0, 2.0 * math.pi, rows)}
    n_theta, n_phi = rng.choice(shapes)
    return {"theta": _axis(rng, 0.0, math.pi, n_theta),
            "phi": _axis(rng, 0.0, 2.0 * math.pi, n_phi)}


def _detectors(rng: random.Random, low: float) -> dict:
    return {k: rng.uniform(low, 1.0) for k in ("eta_1p", "eta_1m", "eta_2p", "eta_2m")}


def _sweep_closed(rng: random.Random) -> list[Call]:
    """13 sweeps of 256 rows and 2 compares of 4 x 64 rows, all at M = 1."""
    shapes = ((16, 16), (8, 32), (32, 8), (4, 64), (1, 256), (256, 1))
    deck = []
    for i in range(DECK_SIZE):
        fmt = "csv" if i % 2 == 0 else "json"
        if i in (7, 14):
            configs = []
            for k, variant in enumerate(VARIANTS):
                configs.append({
                    "label": f"c{k}",
                    "model": near_ideal_model(rng, variant),
                    "sweep": _grid(rng, 64, ((8, 8), (4, 16), (16, 4)), False),
                })
            deck.append(Call("compare", {"configs": configs}, fmt, rows=256))
            continue
        variant = VARIANTS[i % 4]
        config = {"model": near_ideal_model(rng, variant),
                  "sweep": _grid(rng, 256, shapes, False)}
        deck.append(Call("sweep", config, fmt, rows=256))
    return deck


def _sweep_hom(rng: random.Random) -> list[Call]:
    """15 sweeps of 32 rows at M in [0.8, 0.99]; 11 carry static counting."""
    shapes = ((4, 8), (2, 16), (1, 32), (8, 4))
    deck = []
    for i in range(DECK_SIZE):
        variant = VARIANTS[i % 4]
        config = {
            "model": near_ideal_model(rng, variant),
            "noise": {"overlap_M": rng.uniform(0.8, 0.99)},
            "sweep": _grid(rng, 32, shapes, variant == "fiber"),
        }
        fmt = "csv" if i % 2 == 0 else "json"
        if i in (2, 5, 8, 11):  # one uncounted sweep per variant
            deck.append(Call("sweep", config, fmt, rows=32))
            continue
        n_pairs = int(10 ** rng.uniform(4.0, 6.0))
        config["counting"] = {"n_pairs": n_pairs, "seed": rng.randrange(2**31),
                              "detectors": _detectors(rng, 0.7)}
        deck.append(Call("montecarlo", config, fmt, rows=32,
                         pairs=32 * n_pairs, counted=True))
    return deck


def _mc_jitter(rng: random.Random) -> list[Call]:
    """15 single-input jitter runs on the two interferometric devices."""
    deck = []
    for i, n_pairs in enumerate(JITTER_PAIRS):
        variant = ("mach_zehnder", "fiber")[i % 2]
        overlap = rng.uniform(0.8, 0.99) if i in JITTER_MIXED else 1.0
        config = {
            "model": near_ideal_model(rng, variant),
            "noise": {"overlap_M": overlap,
                      "phase_jitter_sigma": rng.uniform(0.01, 0.2),
                      "jitter_reset_period": rng.randint(10, 1000)},
            "input": {"theta": EQUATOR, "phi": rng.uniform(0.0, 2.0 * math.pi)},
            "counting": {"n_pairs": n_pairs, "seed": rng.randrange(2**31),
                         "detectors": _detectors(rng, 0.6)},
        }
        fmt = "csv" if i % 2 == 0 else "json"
        deck.append(Call("montecarlo", config, fmt, rows=1, pairs=n_pairs,
                         counted=True))
    return deck


#: (variant, {free parameter: base interval}); 9 one-parameter searches
#: (~20 ms) and 6 two-parameter ones (~250 ms), so the median falls among
#: the former and the 90th percentile among the latter.  Objectives
#: alternate along the deck.
_OPTIMIZE_PLAN = (
    ("special_bs", {"comp_loss_r1": (0.5, 1.0)}),
    ("hybrid", {"eta0": (0.4, 1.0)}),
    ("fiber", {"R_vrc0": (0.6, 0.9)}),
    ("special_bs", {"comp_loss_r1": (0.5, 1.0), "R0": (0.7, 0.85)}),
    ("special_bs", {"R0": (0.7, 0.85)}),
    ("hybrid", {"eta0": (0.4, 1.0), "nu0": (0.5, 1.0)}),
    ("fiber", {"R_vrc1": (0.1, 0.3)}),
    ("fiber", {"R_vrc0": (0.6, 0.9), "R_vrc1": (0.1, 0.3)}),
    ("special_bs", {"comp_loss_r0": (0.5, 1.0)}),
    ("hybrid", {"nu0": (0.5, 1.0)}),
    ("special_bs", {"comp_loss_r0": (0.5, 1.0), "comp_loss_r1": (0.5, 1.0)}),
    ("hybrid", {"eta1": (0.5, 1.0)}),
    ("hybrid", {"nu0": (0.5, 1.0), "nu1": (0.5, 1.0)}),
    ("fiber", {"R_vrc0": (0.6, 0.9)}),
    ("fiber", {"R_vrc0": (0.6, 0.9), "R_vrc1": (0.1, 0.3)}),
)
OBJECTIVES = ("min_fidelity_gap", "max_avg_fidelity")


def _optimize(rng: random.Random) -> list[Call]:
    deck = []
    for i, (variant, free) in enumerate(_OPTIMIZE_PLAN):
        model = near_ideal_model(rng, variant)
        if variant == "fiber":
            model["R_vrc1"] = 1.0 - model["R_vrc0"] + rng.uniform(-0.02, 0.02)
        config = {
            "model": model,
            "free_parameters": {
                name: [lo + rng.uniform(-0.02, 0.02), hi - rng.uniform(0.0, 0.02)]
                for name, (lo, hi) in free.items()
            },
            "objective": OBJECTIVES[i % 2],
        }
        if i % 3 == 1:
            config["input"] = {"theta": rng.uniform(0.5, 2.6),
                               "phi": rng.uniform(0.0, 2.0 * math.pi)}
        deck.append(Call("optimize", config, "csv" if i % 2 == 0 else "json", rows=1))
    return deck


_BUILDERS = {
    "sweep_closed": _sweep_closed,
    "sweep_hom": _sweep_hom,
    "mc_jitter": _mc_jitter,
    "optimize": _optimize,
}


def deck(workload: str, seed: int) -> list[Call]:
    """The deck of ``workload`` for ``seed``; equal seeds give equal decks."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"))
