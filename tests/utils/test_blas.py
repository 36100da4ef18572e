"""The one-BLAS-thread policy, each case in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.utils.blas import THREAD_ENV, blas_threads

SRC = str(Path(__file__).resolve().parents[2] / "src")

needs_openblas = pytest.mark.skipif(
    blas_threads() is None, reason="numpy's BLAS is not a bundled OpenBLAS"
)

RUN_CHEAP_SPEC = """
from repro.dram.geometry import DramGeometry
from repro.experiments import DefenseMatrixSpec, ExperimentRunner
geometry = DramGeometry(num_banks=1, rows_per_bank=24, cols_per_row=128)
ExperimentRunner().run(DefenseMatrixSpec(geometry=geometry, chip_seed=1))
"""


def _probe(code, **env_vars):
    """Run ``code`` in a fresh interpreter and parse the JSON it prints last.

    ``blas_threads`` is imported first; that import sets no thread count.
    """
    env = {key: value for key, value in os.environ.items() if key not in THREAD_ENV}
    env.update(env_vars)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    code = "from repro.utils.blas import blas_threads\n" + code
    completed = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(completed.stdout.splitlines()[-1])


@needs_openblas
def test_one_thread_after_runner_run():
    assert _probe(RUN_CHEAP_SPEC + "print(blas_threads())") == 1


@needs_openblas
@pytest.mark.parametrize("variable", THREAD_ENV)
def test_exported_thread_variable_is_left_alone(variable):
    code = "before = blas_threads()\n" + RUN_CHEAP_SPEC + "print([before, blas_threads()])"
    before, after = _probe(code, **{variable: "2"})
    assert after == before
    if (os.cpu_count() or 1) >= 2:
        assert after == 2


@needs_openblas
def test_importing_the_package_leaves_the_thread_count_alone():
    before, after, pinned = _probe("""
before = blas_threads()
import repro.experiments, repro.experiments.service, repro.experiments.distributed
from repro.utils import blas
print([before, blas_threads(), int(blas._pinned)])
""")
    assert after == before and not pinned


def test_missing_library_or_symbol_is_a_silent_no_op():
    outcomes = _probe("""
import ctypes.util
from repro.utils import blas
outcomes = []
for paths in (["/nonexistent/libopenblas.so"], [ctypes.util.find_library("c")]):
    blas._library_paths = lambda paths=paths: paths
    blas._openblas_function.cache_clear()
    blas._pinned = False
    blas.pin_blas_threads()
    outcomes.append([int(blas._pinned), blas_threads() or 0])
print(outcomes)
""")
    assert outcomes == [[1, 0], [1, 0]]
