"""Self-test of the benchmark: its counts repeat and its seed matters.

    python3 perfbench/selftest.py [--workloads dram_campaign,daemon_targeted] [--seconds 8]

For each workload it makes two traced runs at one seed and one at another.
The work counts of :data:`layers.DETERMINISTIC_COUNTS` must repeat exactly
across the two same-seed runs, and the generated inputs must differ
between the two seeds (``table1_row`` runs the committed Table I spec, whose
inputs no seed changes).  It also checks that ``BENCHMARK.json`` names the
metrics the harness reports.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
from run import END_TO_END, WORKLOADS  # noqa: E402


def traced_run(workload: str, seed: int, seconds: float):
    """The (inputs digest, metric values) of one traced run."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=False,
    )
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{completed.stdout}{completed.stderr}")
    inputs = next(line.split()[1] for line in lines if line.startswith("inputs "))
    report = json.loads(lines[-1])
    return inputs.rstrip(":"), {name: entry["value"] for name, entry in report["metrics"].items()}


def check_manifest() -> list:
    manifest = json.loads(Path("BENCHMARK.json").read_text())
    problems = []
    if [m["name"] for m in manifest["end_to_end"]] != [name for name, _ in END_TO_END]:
        problems.append("BENCHMARK.json end_to_end names differ from the harness")
    if [(m["name"], m["unit"]) for m in manifest["per_layer"]] != [
        (name, unit) for name, unit, _, _ in layers.PER_LAYER
    ]:
        problems.append("BENCHMARK.json per_layer names or units differ from perfbench/layers.py")
    if not {w["name"] for w in manifest["workloads"]} <= set(WORKLOADS):
        problems.append("BENCHMARK.json names a workload the harness does not run")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    problems = check_manifest()
    for workload in args.workloads.split(","):
        inputs_a, first = traced_run(workload, args.seed, args.seconds)
        _, second = traced_run(workload, args.seed, args.seconds)
        inputs_b, _ = traced_run(workload, args.seed + 1, args.seconds)
        for name in layers.DETERMINISTIC_COUNTS:
            status = "ok" if first[name] == second[name] else "DIFFERS"
            print(f"{workload:16s} {name:28s} {first[name]:>16.6f} {second[name]:>16.6f} {status}")
            if first[name] != second[name]:
                problems.append(f"{workload}: {name} differs across two runs at one seed")
        seeded = workload != "table1_row"
        print(f"{workload:16s} inputs seed {args.seed} {inputs_a}, seed {args.seed + 1} {inputs_b}")
        if seeded and inputs_a == inputs_b:
            problems.append(f"{workload}: a different seed generated the same inputs")
    for problem in problems:
        print(f"SELFTEST FAILED: {problem}")
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
