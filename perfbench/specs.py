"""The experiment specs each workload runs, and the seeded draws that pick them.

Every spec here is either a committed paper artifact (its spec is read
back from the committed envelope under ``benchmarks/results/``) or one of
a finite pool whose outputs ``perfbench/record.py`` recorded as digests.
The workload seed only draws from those pools, so every output a run
produces has a known correct value.
"""

from __future__ import annotations

import json
import random
from pathlib import Path
from typing import Any, Dict, List, Tuple

RESULTS = Path("benchmarks") / "results"
DIGESTS = Path(__file__).with_name("digests.json")

#: Surrogate seed of the warm daemon's M11 victim and its deployment chip.
DAEMON_SURROGATE_SEED = 7
DAEMON_PROFILE_SEED = 2025
#: M11 classifies ten classes; every ordered pair of distinct classes is a job.
M11_CLASSES = 10

#: Chip seeds the DRAM campaign draws from (all recorded).
CHIP_SEED_POOL = tuple(range(101, 109))
#: Deployment chips profiled per DRAM campaign pass.
DEPLOY_CHIPS = 2


def committed_envelope(name: str) -> Dict[str, Any]:
    return json.loads((RESULTS / f"{name}.json").read_text())


def load_digests() -> Dict[str, Any]:
    return json.loads(DIGESTS.read_text())


# -- table1_row ----------------------------------------------------------
def table1_spec():
    """The committed Table I spec restricted to ResNet-20."""
    from repro.experiments.specs import spec_from_dict

    payload = dict(committed_envelope("table1")["spec"])
    payload["model_keys"] = ["resnet20"]
    return spec_from_dict(payload)


def table1_expected() -> Dict[str, Any]:
    """The committed ResNet-20 entry of Table I."""
    comparisons = committed_envelope("table1")["payload"]["comparisons"]
    return next(entry for entry in comparisons if entry["model_key"] == "resnet20")


# -- daemon_targeted -----------------------------------------------------
def pair_name(source: int, target: int) -> str:
    return f"m11_{source}to{target}"


def daemon_job_spec(source: int, target: int, warmup: bool = False) -> Dict[str, Any]:
    """Targeted M11 comparison payload; ``warmup`` is a one-flip job that trains the victim."""
    from repro.core.bfa import BitSearchConfig
    from repro.core.objective import ObjectiveConfig
    from repro.experiments import ComparisonSpec

    return ComparisonSpec(
        model_keys=("m11",),
        repetitions=1,
        search=BitSearchConfig(max_flips=1 if warmup else 250, top_k_layers=5),
        # Beyond the test-set size selects all of it: the full test set
        # is evaluated after every flip, as targeted Table I reruns do.
        eval_samples=1_000_000,
        seed=DAEMON_SURROGATE_SEED,
        profile_seed=DAEMON_PROFILE_SEED,
        objective=ObjectiveConfig(
            "targeted", params={"source_class": source, "target_class": target}
        ),
    ).to_dict()


def all_pairs() -> List[Tuple[int, int]]:
    return [(s, t) for s in range(M11_CLASSES) for t in range(M11_CLASSES) if s != t]


def draw_pairs(seed: int, flips: Dict[str, int], budget: int) -> List[Tuple[int, int]]:
    """Distinct pairs in seeded order whose recorded flips fill ``budget``.

    Pairs differ up to fourfold in the flips a job commits, so a fixed job
    count would make the stream's work depend on the draw; a fixed flip
    budget keeps the work equal across seeds while the pairs change.
    """
    pairs = all_pairs()
    random.Random(seed).shuffle(pairs)
    chosen, total = [], 0
    for pair in pairs:
        cost = flips[pair_name(*pair)]
        if total + cost <= budget:
            chosen.append(pair)
            total += cost
    return chosen


# -- dram_campaign ------------------------------------------------------
COMMITTED_DRAM = ("fig4", "fig6", "defense_bypass")


def committed_dram_specs():
    from repro.experiments.specs import spec_from_dict

    return {name: spec_from_dict(committed_envelope(name)["spec"]) for name in COMMITTED_DRAM}


def enlarged_dram_specs(chip_seed: int):
    """Chip-profile, flip-sweep, TRR and refsync specs at campaign scale, by kind."""
    from repro.dram.geometry import DramGeometry
    from repro.experiments.specs import (
        ChipProfileSpec,
        FlipSweepSpec,
        RefsyncSweepSpec,
        TrrSamplingSpec,
    )

    geometry = DramGeometry(num_banks=4, rows_per_bank=256, cols_per_row=8192)
    return {
        "chip_profile": ChipProfileSpec(geometry=geometry, chip_seed=chip_seed, row_stride=8),
        "flip_sweep": FlipSweepSpec(geometry=geometry, chip_seed=chip_seed, max_rows_per_bank=16),
        "trr_sampling": TrrSamplingSpec(
            chip_seed=chip_seed, windows=512, policy="random", sampler_seed=chip_seed
        ),
        "refsync_sweep": RefsyncSweepSpec(
            chip_seed=chip_seed, windows=256, policy="random", sampler_seed=chip_seed
        ),
    }


def draw_chips(seed: int, index: int) -> Tuple[int, List[int]]:
    """Pass ``index``'s campaign chip seed and its deployment-chip seeds."""
    rng = random.Random(f"dram:{seed}:{index}")
    chips = rng.sample(CHIP_SEED_POOL, 1 + DEPLOY_CHIPS)
    return chips[0], chips[1:]
