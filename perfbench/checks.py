"""Output checks shared by the workloads and ``record.py``."""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List

import numpy as np


def envelope_digest(path: Path) -> str:
    """The stored envelope's sha256 digest, after verifying it."""
    from repro.experiments.store import verify_envelope

    envelope = json.loads(Path(path).read_text())
    verify_envelope(Path(path), envelope)
    return envelope["integrity"]["digest"]


def profiles_digest(pair) -> str:
    """sha256 over both deployment profiles' flippable bits and directions."""
    digest = hashlib.sha256()
    for profile in (pair.rowhammer, pair.rowpress):
        digest.update(np.ascontiguousarray(profile.flat_indices, dtype=np.int64).tobytes())
        digest.update(np.ascontiguousarray(profile.directions, dtype=np.int8).tobytes())
    return digest.hexdigest()


def comparison_flips(envelope: Dict[str, Any]) -> int:
    """Committed flips summed over every attack of a stored comparison."""
    return sum(
        result["num_flips"]
        for entry in envelope["payload"]["comparisons"]
        for mechanism in ("rowhammer", "rowpress")
        for result in entry[mechanism]["results"]
    )


def replay_mismatches(spec, comparison, victims) -> List[str]:
    """Replay each attack's flips onto the clean quantized victim.

    Returns one message per attack whose replayed accuracy differs from
    the ``accuracy_after`` it reported.
    """
    from repro.models.registry import get_spec
    from repro.nn.quantization import quantize_model, quantized_parameters
    from repro.utils.rng import mix_seed, spawn_seeds

    config = spec.comparison_config()
    model, dataset, clean_state = victims.get_or_prepare(
        get_spec(comparison.model_key), seed=spec.seed, training_epochs=spec.training_epochs
    )
    seeds = spawn_seeds(mix_seed(spec.seed, comparison.model_key, "attack"), spec.repetitions)
    problems = []
    for outcome in (comparison.rowhammer, comparison.rowpress):
        for repetition, result in enumerate(outcome.results):
            model.load_state_dict(clean_state)
            quantize_model(model, num_bits=config.num_bits)
            parameters = quantized_parameters(model)
            for event in result.events:
                parameter = parameters[event.tensor_name]
                parameter.int_repr.flat[event.weight_index] = event.int_after
                parameter.sync_from_int()
            objective = config.objective.build(
                dataset,
                attack_batch_size=config.attack_batch_size,
                eval_samples=config.eval_samples,
                tolerance=config.tolerance,
                seed=seeds[repetition],
            )
            accuracy = objective.evaluate(model, spec.search.eval_batch_size).accuracy
            if accuracy != result.accuracy_after:
                problems.append(
                    f"{outcome.mechanism} replay gives {accuracy}, "
                    f"attack reported {result.accuracy_after}"
                )
    model.load_state_dict(clean_state)
    return problems
