"""Entry point for ``python -m repro`` (see :mod:`repro.experiments.cli`)."""

import os
import sys

if __name__ == "__main__":
    # One BLAS thread per process (docs/ENGINES.md, "BLAS threads"), chosen
    # before numpy loads OpenBLAS: switching later leaves OpenBLAS's idle
    # worker thread behind, which raised the daemon's peak RSS by about
    # 10 MB.  As in repro.utils.blas, an exported thread variable wins.
    if not {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"} & os.environ.keys():
        os.environ["OPENBLAS_NUM_THREADS"] = "1"

    from repro.experiments.cli import main

    try:
        code = main()
        # Flush explicitly so a downstream pipe closing early (e.g.
        # ``python -m repro report x | head``) surfaces here, not in the
        # interpreter's shutdown traceback.
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    except KeyboardInterrupt:
        # Ctrl-C on a long-lived command (`serve`, `worker`, `submit
        # --wait`) is a normal way to leave; exit with the conventional
        # 130 instead of a traceback.
        code = 130
    raise SystemExit(code)
