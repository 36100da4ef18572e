"""Run the tracked perf microbenchmarks and write ``BENCH_perf.json``.

Usage::

    python benchmarks/perf/run_perf.py                 # quick profile, repo-root output
    python benchmarks/perf/run_perf.py --profile full
    python benchmarks/perf/run_perf.py --output /tmp/bench.json --repeats 5

Each case measures the loop-reference and the vectorized engine on the same
workload (best wall-clock of ``--repeats`` runs) and records the speedup.
Cases that expose a ``compiled`` callable are additionally measured with
the kernel registry active — but only when a backend actually loaded
(otherwise the compiled tier would silently time the vectorized fallback),
and only after :func:`repro.nn.kernels.warmup` so one-time compile cost
never pollutes a measurement.  The output is schema-versioned so future PRs
can extend it without breaking the CI regression gate
(``check_regression.py``).
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

from perf_cases import REPO_ROOT, PerfCase, build_cases

from repro.nn import kernels

#: v2 adds the optional ``compiled_seconds`` / ``compiled_speedup`` columns
#: (compiled tier vs vectorized) and the kernel backend they ran on.
SCHEMA_VERSION = 2


def _seconds(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def measure(case: PerfCase, repeats: int, with_compiled: bool) -> dict:
    # Interleave the engines (ref, vec, [compiled], ref, ...) so all see the
    # same machine conditions; timing all reference repeats first would let
    # CPU frequency drift or noisy neighbours bias the ratio on busy runners.
    reference_seconds = float("inf")
    vectorized_seconds = float("inf")
    compiled_seconds = float("inf")
    timed_compiled = with_compiled and case.compiled is not None
    for _ in range(repeats):
        reference_seconds = min(reference_seconds, _seconds(case.reference))
        vectorized_seconds = min(vectorized_seconds, _seconds(case.vectorized))
        if timed_compiled:
            compiled_seconds = min(compiled_seconds, _seconds(case.compiled))
    result = {
        "description": case.description,
        "reference_seconds": reference_seconds,
        "vectorized_seconds": vectorized_seconds,
        "speedup": reference_seconds / vectorized_seconds,
    }
    if timed_compiled:
        result["compiled_seconds"] = compiled_seconds
        result["compiled_speedup"] = vectorized_seconds / compiled_seconds
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--profile", choices=("quick", "full"), default="quick")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs per engine; the best wall-clock is kept")
    parser.add_argument("--output", type=Path, default=REPO_ROOT / "BENCH_perf.json")
    parser.add_argument("--no-compiled", action="store_true",
                        help="skip the compiled tier even when a backend is available")
    args = parser.parse_args()

    with_compiled = not args.no_compiled and kernels.available()
    if with_compiled:
        # Pay all compile + self-validation cost up front, outside the
        # timed region.
        kernels.warmup()
        print(f"compiled tier: kernel backend {kernels.backend_name()!r} (warmed up)")
    else:
        print("compiled tier: unavailable, timing reference + vectorized only")

    payload = {
        "schema_version": SCHEMA_VERSION,
        "generated_by": "benchmarks/perf/run_perf.py",
        "profile": args.profile,
        "repeats": args.repeats,
        "python": platform.python_version(),
        "kernel_backend": kernels.backend_name() if with_compiled else None,
        "cases": {},
    }
    for case in build_cases(args.profile):
        print(f"[{case.name}] {case.description}")
        result = measure(case, args.repeats, with_compiled)
        payload["cases"][case.name] = result
        lines = (
            f"  reference  {result['reference_seconds'] * 1e3:9.1f} ms\n"
            f"  vectorized {result['vectorized_seconds'] * 1e3:9.1f} ms\n"
            f"  speedup    {result['speedup']:9.2f}x"
        )
        if "compiled_seconds" in result:
            lines += (
                f"\n  compiled   {result['compiled_seconds'] * 1e3:9.1f} ms"
                f"\n  compiled/vectorized {result['compiled_speedup']:9.2f}x"
            )
        print(lines)
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.output}")


if __name__ == "__main__":
    main()
