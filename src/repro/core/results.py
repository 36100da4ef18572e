"""Result containers for attack runs (Table-I rows and Fig.-7 curves)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from typing import Dict, List, Optional, Tuple

import numpy as np


def _values_equal(a, b) -> bool:
    """Field equality that treats two ``nan`` values as equal.

    Targeted objectives legitimately produce ``nan`` metrics (undefined
    ASR, no accuracy target), and the serial-vs-parallel determinism
    contract compares whole results; plain ``==`` would make numerically
    identical runs compare unequal.
    """
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_values_equal(x, y) for x, y in zip(a, b))
    return a == b


@dataclass(frozen=True)
class AttackEvent:
    """One committed bit flip."""

    iteration: int
    tensor_name: str
    weight_index: int
    bit_position: int
    int_before: int
    int_after: int
    loss_after: float
    accuracy_after: float

    @property
    def weight_delta_int(self) -> int:
        """Signed change of the quantized integer weight."""
        return self.int_after - self.int_before

    def to_dict(self) -> dict:
        """JSON-serialisable representation (inverse of :meth:`from_dict`)."""
        return {
            "iteration": self.iteration,
            "tensor_name": self.tensor_name,
            "weight_index": self.weight_index,
            "bit_position": self.bit_position,
            "int_before": self.int_before,
            "int_after": self.int_after,
            "loss_after": self.loss_after,
            "accuracy_after": self.accuracy_after,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AttackEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(**payload)


@dataclass
class AttackResult:
    """Outcome of one bit-flip attack run on one model."""

    model_name: str
    mechanism: str
    accuracy_before: float
    accuracy_after: float
    target_accuracy: float
    num_flips: int
    converged: bool
    events: List[AttackEvent] = field(default_factory=list)
    #: Accuracy after each committed flip; index 0 is the pre-attack accuracy.
    accuracy_curve: List[float] = field(default_factory=list)
    loss_curve: List[float] = field(default_factory=list)
    candidate_bits: int = 0
    #: Registry kind of the objective that drove the attack.
    objective_kind: str = "untargeted"
    #: Final attack-success-rate (%) for targeted objectives.  ``None`` means
    #: the objective has no ASR notion (untargeted); ``nan`` means the ASR is
    #: undefined (no source-class evaluation samples) — rendered as ``-``.
    attack_success_rate: Optional[float] = None
    #: ASR after each committed flip (index 0 = pre-attack), when tracked.
    asr_curve: List[float] = field(default_factory=list)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AttackResult):
            return NotImplemented
        return all(
            _values_equal(getattr(self, spec.name), getattr(other, spec.name))
            for spec in fields(self)
        )

    @property
    def accuracy_drop(self) -> float:
        """Total accuracy degradation in percentage points."""
        return self.accuracy_before - self.accuracy_after

    def curve(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(flip_counts, accuracies)`` for Fig.-7 style plots."""
        flips = np.arange(len(self.accuracy_curve))
        return flips, np.asarray(self.accuracy_curve)

    def flips_to_reach(self, accuracy_threshold: float) -> Optional[int]:
        """Smallest number of flips at which accuracy is <= the threshold."""
        for flips, accuracy in enumerate(self.accuracy_curve):
            if accuracy <= accuracy_threshold:
                return flips
        return None

    def flipped_bit_summary(self) -> Dict[str, int]:
        """Number of committed flips per tensor (diagnostic)."""
        summary: Dict[str, int] = {}
        for event in self.events:
            summary[event.tensor_name] = summary.get(event.tensor_name, 0) + 1
        return summary

    def bit_position_histogram(self) -> Dict[int, int]:
        """How many committed flips targeted each bit position (0 = LSB)."""
        histogram: Dict[int, int] = {}
        for event in self.events:
            histogram[event.bit_position] = histogram.get(event.bit_position, 0) + 1
        return histogram

    def to_dict(self) -> dict:
        """JSON-serialisable form; inverse of :meth:`from_dict`.

        Carries the full event log, so the result round-trips losslessly —
        the representation :class:`repro.experiments.store.ResultStore`
        uses — plus the derived per-tensor and per-bit summaries.
        """
        return {
            "model_name": self.model_name,
            "mechanism": self.mechanism,
            "accuracy_before": self.accuracy_before,
            "accuracy_after": self.accuracy_after,
            "target_accuracy": self.target_accuracy,
            "num_flips": self.num_flips,
            "converged": self.converged,
            "accuracy_curve": list(self.accuracy_curve),
            "loss_curve": list(self.loss_curve),
            "candidate_bits": self.candidate_bits,
            "objective_kind": self.objective_kind,
            "attack_success_rate": self.attack_success_rate,
            "asr_curve": list(self.asr_curve),
            "flips_per_tensor": self.flipped_bit_summary(),
            "bit_position_histogram": self.bit_position_histogram(),
            "events": [event.to_dict() for event in self.events],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "AttackResult":
        """Rebuild a result from :meth:`to_dict` output (derived keys ignored)."""
        objective_kind = payload.get("objective_kind", "untargeted")
        # Stored envelopes encode non-finite floats as null (strict JSON);
        # for targeted objectives a null ASR means "undefined", i.e. nan.
        asr = payload.get("attack_success_rate")
        if asr is None and objective_kind != "untargeted":
            asr = float("nan")
        asr_curve = [
            float("nan") if value is None else value
            for value in payload.get("asr_curve", [])
        ]
        # Objectives without an accuracy target (targeted kinds) store a
        # null target_accuracy; restore the live run's nan.
        target_accuracy = payload["target_accuracy"]
        if target_accuracy is None:
            target_accuracy = float("nan")
        return cls(
            model_name=payload["model_name"],
            mechanism=payload["mechanism"],
            accuracy_before=payload["accuracy_before"],
            accuracy_after=payload["accuracy_after"],
            target_accuracy=target_accuracy,
            num_flips=payload["num_flips"],
            converged=payload["converged"],
            events=[AttackEvent.from_dict(event) for event in payload.get("events", [])],
            accuracy_curve=list(payload.get("accuracy_curve", [])),
            loss_curve=list(payload.get("loss_curve", [])),
            candidate_bits=payload.get("candidate_bits", 0),
            objective_kind=objective_kind,
            attack_success_rate=asr,
            asr_curve=asr_curve,
        )
