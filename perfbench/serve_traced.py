"""Run ``repro serve`` with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py TRACE_OUT serve --queue Q --store S ...

Spans are written as JSON lines to ``TRACE_OUT`` once the daemon stops.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer, install  # noqa: E402


def main() -> int:
    trace_out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    install(tracer)
    from repro.experiments.cli import main as cli_main

    try:
        return cli_main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main())
