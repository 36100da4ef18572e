"""Per-layer metrics: where each comes from and what it should move.

Each entry is ``(name, unit, better, moves)``; ``moves`` names the
end-to-end metric and workload a change to that layer should move (the
prediction a perf change is judged against).  Time metrics are the
inclusive time of the calls into the named entry point, summed over the
run (set-up included, so the daemon's warm-up training shows); counts are
counted where the work happens.  ``perfbench/BENCHMARK.md`` explains the
sources.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Mapping

_NN = "table1_row wall_s, daemon_targeted setup_s; none on dram_campaign"
_CORE = "table1_row wall_s, daemon_targeted wall_s and job_s_p50; none on dram_campaign"
_DRAM = "dram_campaign wall_s; ~3% of table1_row wall_s"
_EXP = "daemon_targeted wall_s, job_s_p50 and status_ms_*; negligible elsewhere"

PER_LAYER = (
    ("nn.train_s", "s", "lower", _NN),
    ("nn.train_steps", "count", "lower", _NN),
    ("nn.backward_s", "s", "lower", _NN),
    ("nn.conv_fwd_s", "s", "lower", _NN),
    ("nn.conv_fwd_gmac", "GMAC", "lower", _NN),
    ("nn.conv_fwd_gmac_per_s", "GMAC/s", "higher", _NN),
    ("nn.linear_fwd_s", "s", "lower", _NN),
    ("nn.quantize_s", "s", "lower", _NN),
    ("nn.forward_many_s", "s", "lower", _CORE),
    ("nn.peek_many_s", "s", "lower", _CORE),
    ("core.attack_s", "s", "lower", _CORE),
    ("core.attacks", "count", "lower", _CORE),
    ("core.flips", "count", "lower", _CORE),
    ("core.grad_s", "s", "lower", _CORE),
    ("core.grad_passes", "count", "lower", _CORE),
    ("core.score_s", "s", "lower", _CORE),
    ("core.trials_scored", "count", "lower", _CORE),
    ("core.eval_s", "s", "lower", _CORE),
    ("core.evals", "count", "lower", _CORE),
    ("core.propose_s", "s", "lower", _CORE),
    ("core.converged_frac", "ratio", "higher", _CORE),
    ("faults.deploy_profile_s", "s", "lower", _DRAM),
    ("faults.profile_flips", "count", "lower", _DRAM),
    ("faults.chip_profile_s", "s", "lower", _DRAM),
    ("faults.flip_curve_s", "s", "lower", _DRAM),
    ("dram.timeline_s", "s", "lower", _DRAM),
    ("dram.timeline_windows", "count", "lower", _DRAM),
    ("defenses.matrix_s", "s", "lower", _DRAM),
    ("experiments.run_s", "s", "lower", _EXP),
    ("experiments.units", "count", "lower", _EXP),
    ("experiments.store_save_s", "s", "lower", _EXP),
    ("experiments.store_bytes", "B", "lower", _EXP),
    ("experiments.job_s_p50", "s", "lower", _EXP),
    ("experiments.submit_ms", "ms", "lower", _EXP),
    ("experiments.status_ms_p50", "ms", "lower", _EXP),
    ("experiments.status_ms_p95", "ms", "lower", _EXP),
    ("experiments.claim_wait_s", "s", "lower", _EXP),
    ("experiments.job_run_s", "s", "lower", _EXP),
    ("experiments.registry_hit_ratio", "ratio", "higher", _EXP),
    ("experiments.queue_persist_s", "s", "lower", _EXP),
    ("experiments.checkpoint_save_s", "s", "lower", _EXP),
    ("experiments.checkpoint_bytes", "B", "lower", _EXP),
    ("experiments.shutdown_reply_lost", "count", "lower", _EXP),
)

#: Counts that must repeat exactly across two runs at one seed.
DETERMINISTIC_COUNTS = (
    "core.flips", "core.grad_passes", "core.evals", "core.trials_scored",
    "nn.train_steps", "nn.conv_fwd_gmac", "experiments.units", "experiments.store_bytes",
)

#: metric -> (span name, statistic) for metrics read straight off the spans.
_FROM_SPANS = {
    "nn.train_s": ("nn.train", "total_s"),
    "nn.backward_s": ("nn.backward", "total_s"),
    "nn.conv_fwd_s": ("nn.conv_fwd", "total_s"),
    "nn.linear_fwd_s": ("nn.linear_fwd", "total_s"),
    "nn.quantize_s": ("nn.quantize", "total_s"),
    "nn.forward_many_s": ("nn.forward_many", "total_s"),
    "nn.peek_many_s": ("nn.peek_many", "total_s"),
    "core.attack_s": ("core.attack", "total_s"),
    "core.attacks": ("core.attack", "count"),
    "core.grad_s": ("core.grad", "total_s"),
    "core.grad_passes": ("core.grad", "count"),
    "core.score_s": ("core.score", "total_s"),
    "core.eval_s": ("core.eval", "total_s"),
    "core.evals": ("core.eval", "count"),
    # The attack's own work once gradient, scoring and evaluation are
    # taken out: ranking candidate bits and committing flips.
    "core.propose_s": ("core.attack", "self_s"),
    "faults.deploy_profile_s": ("faults.deploy_profile", "total_s"),
    "faults.chip_profile_s": ("faults.chip_profile", "total_s"),
    "faults.flip_curve_s": ("faults.flip_curve", "total_s"),
    "dram.timeline_s": ("dram.timeline", "total_s"),
    "defenses.matrix_s": ("defenses.matrix", "total_s"),
    "experiments.run_s": ("experiments.run", "total_s"),
    "experiments.store_save_s": ("experiments.store_save", "total_s"),
    "experiments.job_run_s": ("experiments.job", "total_s"),
    "experiments.queue_persist_s": ("experiments.queue_persist", "total_s"),
    "experiments.checkpoint_save_s": ("experiments.checkpoint_save", "total_s"),
}


def merge_tables(*tables: Mapping[str, Mapping[str, float]]) -> Dict[str, Dict[str, float]]:
    merged: Dict[str, Dict[str, float]] = {}
    for table in tables:
        for name, row in table.items():
            into = merged.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            for key in into:
                into[key] += row[key]
    return merged


def median_or_zero(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(
    table: Mapping[str, Mapping[str, float]],
    counters: Mapping[str, float],
    client: Mapping[str, Any],
) -> Dict[str, float]:
    """Every per-layer metric, from the span table, counters and client samples."""
    values: Dict[str, float] = {}
    for metric, (span, statistic) in _FROM_SPANS.items():
        values[metric] = float(table.get(span, {}).get(statistic, 0.0))
    for counter in (
        "nn.train_steps", "nn.conv_fwd_gmac", "core.flips", "core.trials_scored",
        "faults.profile_flips", "dram.timeline_windows", "experiments.units",
        "experiments.store_bytes", "experiments.checkpoint_bytes",
    ):
        values[counter] = float(counters.get(counter, 0))
    conv_s = values["nn.conv_fwd_s"]
    values["nn.conv_fwd_gmac_per_s"] = values["nn.conv_fwd_gmac"] / conv_s if conv_s else 0.0
    attacks = values["core.attacks"]
    values["core.converged_frac"] = counters.get("core.converged", 0) / attacks if attacks else 0.0
    values["experiments.job_s_p50"] = median_or_zero(client.get("job_s", []))
    values["experiments.submit_ms"] = median_or_zero(client.get("submit_ms", []))
    status = client.get("status_ms", [])
    values["experiments.status_ms_p50"] = median_or_zero(status)
    values["experiments.status_ms_p95"] = (
        statistics.quantiles(status, n=20)[-1] if len(status) >= 2 else median_or_zero(status)
    )
    values["experiments.claim_wait_s"] = median_or_zero(client.get("claim_wait_s", []))
    values["experiments.registry_hit_ratio"] = float(client.get("registry_hit_ratio", 0.0))
    values["experiments.shutdown_reply_lost"] = float(client.get("shutdown_reply_lost", 0))
    return values
