"""End-to-end benchmark of the paper's artifacts, with an optional traced run.

Run from the repository root::

    python3 perfbench/run.py --workload daemon_targeted --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all            # every workload, tracing off

Workloads (``perfbench/BENCHMARK.md`` gives the reasons):

* ``table1_row`` — a fresh serial runner regenerates the committed Table I
  ResNet-20 row (surrogate training, deployment profiling, RowHammer and
  RowPress attacks, save to a sharded store);
* ``daemon_targeted`` — ``python -m repro serve`` with a warm M11 victim
  serves one closed-loop client submitting targeted comparison jobs;
* ``dram_campaign`` — DRAM-only specs: deployment profiling, the
  committed Fig. 4 / Fig. 6 / defense-bypass specs and enlarged campaigns.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of :mod:`layers` with ``--trace 1``.
Every output is checked; a mismatch counts the operation as failed and the
run exits 1.  Everything the run writes stays under ``.perfbench/`` in the
current directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import specs  # noqa: E402

#: Checkout-local state: kernel cache, temporary stores, traces, last results.
STATE = Path(".perfbench")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))

#: Cold set-ups measured per run (daemon starts: :data:`DAEMON_STARTS`);
#: ``setup_s`` is their median.
SETUPS = 5
DAEMON_STARTS = 3
#: Nominal cost of one unit of work on a 2-vCPU machine: it turns
#: ``--seconds`` into a fixed amount of work, so counts repeat exactly.
TABLE1_ROW_SECONDS = 30.0
DAEMON_FLIPS_PER_SECOND = 10
DRAM_PASS_SECONDS = 5.0
#: The client's status poll interval while a job runs.
POLL_SECONDS = 0.05
CHILD_TIMEOUT = 120.0


class Run:
    """What one workload run measured and checked."""

    def __init__(self, args: argparse.Namespace, tracer):
        self.seed = args.seed
        self.seconds = args.seconds
        self.tracer = tracer
        self.tmp = Path(tempfile.mkdtemp(prefix="run-", dir=STATE / "tmp"))
        self.setups: List[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.peak_rss_mb = 0.0
        self.attempted = 0
        self.failures: List[str] = []
        self.inputs: Dict[str, Any] = {}
        self.op_times: Dict[str, List[float]] = {}
        self.samples: Dict[str, Any] = {}
        #: Client-side samples (daemon): job/submit/status/claim timings.
        self.client: Dict[str, Any] = {}
        #: Tracers read back from traced child processes (the daemon).
        self.child_tracers: List[Any] = []

    def span(self, name: str, new_op: bool = False):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(name, new_op)

    def fail(self, message: str) -> None:
        self.failures.append(message)

    @contextlib.contextmanager
    def checking(self) -> Iterator[None]:
        """Pause recording while outputs are checked."""
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            yield
        finally:
            if self.tracer is not None:
                self.tracer.enabled = True


# ----------------------------------------------------------------------
# Measurement helpers
# ----------------------------------------------------------------------
def child_env() -> Dict[str, str]:
    """This environment plus ``src`` on the import path (nothing else changes)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH", "")]))
    return env


def own_cpu_s() -> float:
    """User+sys seconds of this process and every child it has waited for."""
    times = os.times()
    return times.user + times.system + times.children_user + times.children_system


def proc_cpu_s(pid: int) -> float:
    """User+sys seconds of a live process, from ``/proc``."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_peak_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    return 0.0


def own_peak_mb() -> float:
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


def cold_setup(run: Run, code: str) -> None:
    """Time :data:`SETUPS` cold interpreter starts that import and build ``code``."""
    program = (
        "import sys; sys.path[:0] = ['src', " + repr(str(HERE)) + "]; import specs; " + code
    )
    for index in range(SETUPS):
        command = [sys.executable, "-c", program, str(run.tmp / f"setup{index}")]
        started = time.perf_counter()
        process = subprocess.Popen(command, env=child_env())
        # A blocking wait returns the moment the child exits; waiting with a
        # timeout would poll in steps of up to 50 ms and quantise the time.
        watchdog = threading.Timer(CHILD_TIMEOUT, process.kill)
        watchdog.start()
        try:
            code = process.wait()
        finally:
            watchdog.cancel()
        run.setups.append(time.perf_counter() - started)
        if code != 0:
            raise subprocess.CalledProcessError(code, command)


# ----------------------------------------------------------------------
# table1_row
# ----------------------------------------------------------------------
def table1_row(run: Run) -> None:
    from repro.experiments import ExperimentRunner
    from repro.experiments.store import open_store

    cold_setup(
        run,
        "from repro.experiments import ExperimentRunner; "
        "from repro.experiments.store import open_store; "
        "specs.table1_spec(); ExperimentRunner(store=open_store(sys.argv[1], sharded=True))",
    )
    spec = specs.table1_spec()
    run.inputs = {"spec": spec.to_dict()}
    rows = max(1, round(run.seconds / TABLE1_ROW_SECONDS))
    expected = specs.table1_expected()
    outcomes = []
    cpu0 = own_cpu_s()
    started = time.perf_counter()
    with run.span("bench.stream"):
        for row in range(rows):
            with run.span("bench.op", new_op=True):
                op_started = time.perf_counter()
                # A fresh runner per row: nothing is warm, as for a user.
                runner = ExperimentRunner(store=open_store(run.tmp / f"store{row}", sharded=True))
                result = runner.run(spec, save_as="table1_row")
                run.op_times.setdefault("row", []).append(time.perf_counter() - op_started)
            outcomes.append((runner, result))
    run.wall_s = time.perf_counter() - started
    run.cpu_s = own_cpu_s() - cpu0
    run.peak_rss_mb = own_peak_mb()
    run.samples = {"rows": rows}
    with run.checking():
        for row, (runner, result) in enumerate(outcomes):
            # Operations: the clean unit, the two attack units and the stored result.
            run.attempted += 4
            path = runner.store.path_for("table1_row")
            try:
                checks.envelope_digest(path)
                stored = json.loads(path.read_text())
            except (OSError, ValueError) as error:
                run.fail(f"row {row}: stored result unreadable: {error}")
                continue
            entry = stored["payload"]["comparisons"][0]
            clean = {k: v for k, v in entry.items() if k not in ("rowhammer", "rowpress")}
            if clean != {k: v for k, v in expected.items() if k not in ("rowhammer", "rowpress")}:
                run.fail(f"row {row}: clean unit differs from the committed Table I entry")
            replay = checks.replay_mismatches(spec, result.payload[0], runner.context.victims)
            for mechanism in ("rowhammer", "rowpress"):
                problems = [p for p in replay if p.startswith(mechanism)]
                if entry[mechanism] != expected[mechanism]:
                    problems.append(f"{mechanism} attack differs from the committed Table I entry")
                if problems:
                    run.fail(f"row {row}: " + "; ".join(problems))
            if stored["spec"] != spec.to_dict():
                run.fail(f"row {row}: stored spec differs from the submitted spec")


# ----------------------------------------------------------------------
# daemon_targeted
# ----------------------------------------------------------------------
def shm_segments() -> set:
    from repro.experiments.shared import SEGMENT_PREFIX

    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith(SEGMENT_PREFIX)}
    except OSError:
        return set()


class Daemon:
    """One ``repro serve`` child process and its client."""

    def __init__(self, run: Run, name: str, trace_out: Optional[Path] = None):
        self.queue = run.tmp / name / "queue"
        self.store = run.tmp / name / "store"
        serve = ["serve", "--queue", str(self.queue), "--store", str(self.store),
                 "--backend", "serial", "--port", "0"]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", *serve]
        else:
            command = [sys.executable, str(HERE / "serve_traced.py"), str(trace_out), *serve]
        self.log = open(run.tmp / f"{name}.log", "wb")
        self.process = subprocess.Popen(
            command, env=child_env(), stdout=self.log, stderr=subprocess.STDOUT
        )
        self.client = None

    def wait_ready(self) -> None:
        from repro.experiments.service import ServiceClient, ServiceUnavailableError

        deadline = time.monotonic() + CHILD_TIMEOUT
        while True:
            if self.process.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.process.returncode} before serving")
            try:
                client = ServiceClient(queue_dir=self.queue)
                if client.ping()["pid"] == self.process.pid:
                    self.client = client
                    return
            except (ServiceUnavailableError, OSError, ValueError, KeyError):
                pass
            if time.monotonic() > deadline:
                raise TimeoutError("daemon did not start serving")
            time.sleep(0.01)

    def stop(self) -> bool:
        """Ask the daemon to stop; ``True`` when the shutdown reply was lost.

        A lost reply is reported, never retried: the daemon is waited for
        either way.
        """
        lost = False
        try:
            self.client.shutdown()
        except ConnectionError:
            lost = True
        finally:
            try:
                self.process.wait(timeout=CHILD_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.send_signal(signal.SIGKILL)
                self.process.wait()
            self.log.close()
        return lost

    def kill(self) -> None:
        if self.process.poll() is None:
            self.process.kill()
            self.process.wait()
        self.log.close()


def wait_job(run: Run, client, job_id: str, submitted: float) -> Dict[str, Any]:
    """Poll ``status`` every :data:`POLL_SECONDS` until the job ends."""
    claimed = False
    while True:
        sent = time.perf_counter()
        job = client.status(job_id)
        now = time.perf_counter()
        run.client.setdefault("status_ms", []).append((now - sent) * 1e3)
        if not claimed and job["state"] != "pending":
            claimed = True
            run.client.setdefault("claim_wait_s", []).append(now - submitted)
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        if now - submitted > CHILD_TIMEOUT:
            raise TimeoutError(f"job {job_id} still {job['state']}")
        time.sleep(POLL_SECONDS)


def check_job(run: Run, client, name: str, expected: str) -> None:
    from repro.experiments.store import verify_envelope

    envelope = client.result(name)
    try:
        verify_envelope(Path(name), envelope)
    except ValueError as error:
        run.fail(f"{name}: {error}")
        return
    if envelope["integrity"]["digest"] != expected:
        run.fail(f"{name}: payload digest differs from the serial-runner recording")


def daemon_targeted(run: Run) -> None:
    digests = specs.load_digests()
    before = shm_segments()
    trace_out = None
    if run.tracer is not None:
        trace_out = STATE / "traces" / f"daemon_targeted-{run.seed}-child.jsonl"
    # Start-to-serving, measured on throwaway daemons.
    for index in range(DAEMON_STARTS):
        started = time.perf_counter()
        daemon = Daemon(run, f"start{index}")
        try:
            daemon.wait_ready()
            run.setups.append(time.perf_counter() - started)
            daemon.stop()
        finally:
            daemon.kill()
    daemon = Daemon(run, "daemon", trace_out)
    try:
        started = time.perf_counter()
        daemon.wait_ready()
        ready_s = time.perf_counter() - started
        client = daemon.client
        # Warm-up: a one-flip job that trains the M11 victim into the registry.
        started = time.perf_counter()
        warm = client.submit(specs.daemon_job_spec(0, 1, warmup=True), name="m11_warmup")
        job = wait_job(run, client, warm["job_id"], started)
        warmup_s = time.perf_counter() - started
        run.setups = [start + warmup_s for start in run.setups]
        run.samples["warmup_s"] = round(warmup_s, 4)
        run.samples["ready_s"] = round(ready_s, 4)
        with run.checking():
            if job["state"] != "done":
                run.fail(f"warm-up job {job['state']}: {job.get('error')}")
            else:
                check_job(run, client, "m11_warmup", digests["daemon"]["m11_warmup"])
        run.client = {}

        budget = int(run.seconds * DAEMON_FLIPS_PER_SECOND)
        pairs = specs.draw_pairs(run.seed, digests["daemon_flips"], budget)
        run.inputs = {"pairs": pairs, "flip_budget": budget}
        done: List[str] = []
        cpu0 = own_cpu_s() + proc_cpu_s(daemon.process.pid)
        started = time.perf_counter()
        with run.span("bench.stream"):
            for source, target in pairs:
                name = specs.pair_name(source, target)
                with run.span("bench.op", new_op=True):
                    submitted = time.perf_counter()
                    reply = client.submit(specs.daemon_job_spec(source, target), name=name)
                    run.client.setdefault("submit_ms", []).append(
                        (time.perf_counter() - submitted) * 1e3
                    )
                    job = wait_job(run, client, reply["job_id"], submitted)
                    run.op_times.setdefault("job", []).append(time.perf_counter() - submitted)
                run.attempted += 1
                if job["state"] == "done":
                    done.append(name)
                else:
                    run.fail(f"{name}: job {job['state']}: {job.get('error')}")
        run.wall_s = time.perf_counter() - started
        run.cpu_s = own_cpu_s() + proc_cpu_s(daemon.process.pid) - cpu0
        run.peak_rss_mb = max(own_peak_mb(), proc_peak_mb(daemon.process.pid))
        with run.checking():
            for name in done:
                check_job(run, client, name, digests["daemon"][name])
        stats = client.registry_stats()
        lookups = stats.get("hits", 0) + stats.get("misses", 0)
        run.client["registry_hit_ratio"] = stats.get("hits", 0) / lookups if lookups else 0.0
        run.client["shutdown_reply_lost"] = int(daemon.stop())
    finally:
        daemon.kill()
    if daemon.process.returncode != 0:
        run.fail(f"daemon exited with code {daemon.process.returncode}")
    leaked = shm_segments() - before
    if leaked:
        run.fail(f"shared-memory segments left behind: {sorted(leaked)}")
    run.samples.update(
        jobs=len(run.op_times.get("job", [])), status_polls=len(run.client.get("status_ms", []))
    )
    if trace_out is not None:
        from tracer import Tracer

        run.child_tracers.append(Tracer.load(str(trace_out)))


# ----------------------------------------------------------------------
# dram_campaign
# ----------------------------------------------------------------------
def dram_campaign(run: Run) -> None:
    from repro.core.comparison import build_deployment_profiles
    from repro.experiments import ExperimentRunner
    from repro.experiments.store import open_store

    cold_setup(
        run,
        "from repro.experiments import ExperimentRunner; "
        "from repro.experiments.store import open_store; "
        "specs.committed_dram_specs(); specs.enlarged_dram_specs(specs.CHIP_SEED_POOL[0]); "
        "ExperimentRunner(store=open_store(sys.argv[1], sharded=True))",
    )
    passes = max(1, round(run.seconds / DRAM_PASS_SECONDS))
    committed = specs.committed_dram_specs()
    runner = ExperimentRunner(store=open_store(run.tmp / "store", sharded=True))
    plan = []
    for index in range(passes):
        chip, deploy = specs.draw_chips(run.seed, index)
        plan.append((index, chip, deploy))
    run.inputs = {"passes": [(chip, deploy) for _, chip, deploy in plan]}
    saved: List[tuple] = []
    profiles: List[tuple] = []
    # Digesting a profile pair inline keeps memory flat; its time is
    # taken back out of the stream's wall and CPU time.
    check_wall = check_cpu = 0.0
    cpu0 = own_cpu_s()
    started = time.perf_counter()
    with run.span("bench.stream"):
        for index, chip, deploy in plan:
            pass_started = time.perf_counter()
            for chip_seed in deploy:
                with run.span("bench.op", new_op=True):
                    op_started = time.perf_counter()
                    pair = build_deployment_profiles(seed=chip_seed)
                    run.op_times.setdefault("deploy", []).append(time.perf_counter() - op_started)
                check_started, check_cpu0 = time.perf_counter(), own_cpu_s()
                with run.checking():
                    profiles.append((chip_seed, checks.profiles_digest(pair)))
                del pair
                check_wall += time.perf_counter() - check_started
                check_cpu += own_cpu_s() - check_cpu0
            pass_specs = [(name, name, spec) for name, spec in committed.items()]
            pass_specs += [(f"{kind}_{chip}", kind, spec)
                           for kind, spec in specs.enlarged_dram_specs(chip).items()]
            for name, kind, spec in pass_specs:
                with run.span("bench.op", new_op=True):
                    op_started = time.perf_counter()
                    runner.run(spec, save_as=f"{name}_p{index}")
                    run.op_times.setdefault(kind, []).append(time.perf_counter() - op_started)
                saved.append((name, f"{name}_p{index}"))
            run.op_times.setdefault("pass", []).append(time.perf_counter() - pass_started)
    run.wall_s = time.perf_counter() - started - check_wall
    run.cpu_s = own_cpu_s() - cpu0 - check_cpu
    run.peak_rss_mb = own_peak_mb()
    run.samples = {"passes": passes, "operations": len(saved) + len(profiles)}
    with run.checking():
        digests = specs.load_digests()
        expected = {
            name: specs.committed_envelope(name)["integrity"]["digest"] for name in committed
        }
        expected.update(digests["dram"])
        for name, stored_as in saved:
            run.attempted += 1
            try:
                digest = checks.envelope_digest(runner.store.path_for(stored_as))
            except (OSError, ValueError) as error:
                run.fail(f"{stored_as}: {error}")
                continue
            if digest != expected[name]:
                run.fail(f"{stored_as}: result differs from the committed/recorded one")
        for chip_seed, digest in profiles:
            run.attempted += 1
            if digest != digests["deploy"][str(chip_seed)]:
                run.fail(f"deployment profiles of chip {chip_seed} differ from the recording")


WORKLOADS: Dict[str, Callable[[Run], None]] = {
    "table1_row": table1_row,
    "daemon_targeted": daemon_targeted,
    "dram_campaign": dram_campaign,
}


# ----------------------------------------------------------------------
# Environment, reporting and the traced run
# ----------------------------------------------------------------------
def blas_threads() -> Optional[int]:
    """OpenBLAS's own thread count, asked through ctypes (``None`` if unknown)."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*blas*")
    for path in glob.glob(libs):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> Dict[str, Any]:
    import numpy

    from repro.nn import kernels
    from repro.utils.validation import default_engine

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "kernel_backend": kernels.backend_name(),
        "default_engine": default_engine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {key: os.environ[key] for key in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "REPRO_DEFAULT_ENGINE")
                       if key in os.environ},
    }


def digest_of(value: Any) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()[:16]


def end_to_end(run: Run) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(run.setups),
        "wall_s": run.wall_s,
        "cpu_s": run.cpu_s,
        "peak_rss_mb": run.peak_rss_mb,
    }


def print_breakdown(table: Dict[str, Dict[str, float]], root: str, title: str) -> None:
    """Self time per span name; together they account for the ``root`` spans' wall."""
    wall = table.get(root, {}).get("total_s", 0.0)
    print(f"{title}: self times account for {wall:.4f} s of {root} wall")
    covered = 0.0
    for name, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
        covered += row["self_s"]
        print(f"  {name:34s} self {row['self_s']:9.4f} s  total {row['total_s']:9.4f} s"
              f"  calls {int(row['count'])}")
    print(f"  {'sum of self times':34s} {covered:9.4f} s")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (Path("src/repro/__init__.py").is_file() and specs.RESULTS.is_dir()):
        print("perfbench: run from the root of a repository checkout "
              "(src/repro and benchmarks/results are missing)", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                            "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode
            for name in WORKLOADS
        ]
        return max(codes)

    # A terminated run still stops its daemon and removes its temporary files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    for directory in ("tmp", "traces", "last", "kernels"):
        (STATE / directory).mkdir(parents=True, exist_ok=True)
    # The compiled-kernel cache lives in the checkout, like every other write.
    os.environ.setdefault("REPRO_KERNEL_CACHE", str((STATE / "kernels").resolve()))
    sys.path.insert(0, "src")
    env = environment()  # probing the kernel backend builds it once, before any timing

    tracer = None
    if args.trace:
        from tracer import Tracer, install

        tracer = Tracer()
        install(tracer)
    run = Run(args, tracer)
    try:
        WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.tmp, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"inputs {digest_of(run.inputs)}: {json.dumps(run.inputs)[:300]}")
    print(f"env: {json.dumps(env)}")
    failed = min(len(run.failures), run.attempted)
    for message in run.failures:
        print(f"CHECK FAILED: {message}")
    attempted = max(run.attempted, 1)
    print(f"operations attempted {attempted}  failed {failed}  "
          f"failed_frac {failed / attempted:.4f}")
    print(f"samples: {json.dumps(run.samples)}  setups {len(run.setups)}")
    print("ops: " + json.dumps({k: [round(x, 4) for x in v] for k, v in run.op_times.items()}))
    e2e = end_to_end(run)
    last = STATE / "last" / f"{args.workload}-{args.seed}-{args.seconds:g}.json"
    if tracer is None:
        metrics = e2e
        last.write_text(json.dumps({"metrics": e2e, "env": env, "samples": run.samples}))
        if run.op_times.get("job"):
            print(f"daemon client: job_s_p50 {statistics.median(run.op_times['job']):.4f} s "
                  f"(n={len(run.op_times['job'])})  status_ms_p50 "
                  f"{statistics.median(run.client['status_ms']):.3f} ms "
                  f"(n={len(run.client['status_ms'])})  shutdown_reply_lost "
                  f"{run.client['shutdown_reply_lost']}")
    else:
        trace_path = STATE / "traces" / f"{args.workload}-{args.seed}.jsonl"
        tracer.dump(str(trace_path))
        table = layers.merge_tables(tracer.by_name(), *(c.by_name() for c in run.child_tracers))
        counters = dict(tracer.counters)
        for child in run.child_tracers:
            for name, value in child.counters.items():
                counters[name] = counters.get(name, 0) + value
        client = {**run.client, "job_s": run.op_times.get("job", [])}
        metrics = layers.layer_metrics(table, counters, client)
        print_breakdown(tracer.by_name("bench.stream"), "bench.stream", "benchmark process")
        for child in run.child_tracers:
            print_breakdown(child.by_name("experiments.job"), "experiments.job",
                            "daemon process, warm-up and stream jobs")
        if last.is_file():
            untraced = json.loads(last.read_text())["metrics"]["wall_s"]
            print(f"tracing overhead: {run.wall_s - untraced:+.4f} s wall "
                  f"({run.wall_s:.4f} traced vs {untraced:.4f} untraced; "
                  "run-to-run noise included)")
        else:
            print("tracing overhead: no untraced run of this workload, seed and seconds to compare")
        print(f"spans written to {trace_path}")
    units = dict(END_TO_END) if tracer is None else {n: u for n, u, _, _ in layers.PER_LAYER}
    moves = {n: m for n, _, _, m in layers.PER_LAYER}
    metrics = {name: metrics[name] for name in units}
    for name, value in metrics.items():
        if name == "setup_s":
            samples = f"median of {len(run.setups)} set-ups"
        elif tracer is None:
            samples = f"1 stream of {attempted} operations"
        else:
            samples = "moves " + moves[name]
        print(f"  {name:36s} {value:14.6f} {units[name]:6s} {samples}")
    report = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(report))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
