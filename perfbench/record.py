"""Record the digests the benchmark checks its outputs against.

Runs every pooled spec (each daemon job of ``specs.all_pairs()`` plus the
warm-up job, and every campaign spec of ``specs.CHIP_SEED_POOL``) once
through a fresh serial :class:`~repro.experiments.ExperimentRunner` and
writes ``perfbench/digests.json``.  Rerun it only when a change is meant
to alter these outputs, and say so in that change::

    python3 perfbench/record.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, "src")
sys.path.insert(0, str(Path(__file__).parent))

import checks  # noqa: E402
import specs  # noqa: E402


def main() -> int:
    if not Path("src/repro").is_dir():
        print("run from the repository root", file=sys.stderr)
        return 2
    from repro.core.comparison import build_deployment_profiles
    from repro.experiments import ExperimentRunner
    from repro.experiments.specs import spec_from_dict
    from repro.experiments.store import open_store

    digests = {"daemon": {}, "daemon_flips": {}, "dram": {}, "deploy": {}}
    with tempfile.TemporaryDirectory() as tmp:
        runner = ExperimentRunner(store=open_store(tmp, sharded=True))
        jobs = [("m11_warmup", specs.daemon_job_spec(0, 1, warmup=True))]
        jobs += [
            (specs.pair_name(*pair), specs.daemon_job_spec(*pair)) for pair in specs.all_pairs()
        ]
        for name, payload in jobs:
            runner.run(spec_from_dict(payload), save_as=name)
            path = runner.store.path_for(name)
            digests["daemon"][name] = checks.envelope_digest(path)
            digests["daemon_flips"][name] = checks.comparison_flips(json.loads(path.read_text()))
            print(name, digests["daemon_flips"][name], flush=True)
        for chip_seed in specs.CHIP_SEED_POOL:
            for kind, spec in specs.enlarged_dram_specs(chip_seed).items():
                name = f"{kind}_{chip_seed}"
                runner.run(spec, save_as=name)
                digests["dram"][name] = checks.envelope_digest(runner.store.path_for(name))
            digests["deploy"][str(chip_seed)] = checks.profiles_digest(
                build_deployment_profiles(seed=chip_seed)
            )
            print("chip", chip_seed, flush=True)
    specs.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
