"""Span tracer installed from outside the program, around each layer's public calls.

Nothing here is imported by ``src/``: :func:`install` replaces the layer
entry points named in :data:`TARGETS` with wrappers that record a span per
call (name, start, end, parent, operation id) and per-call counts.  Spans
stay in memory and are written as JSON lines by :meth:`Tracer.dump` once
the run ends.

A function is replaced at every module attribute bound to it (so
``from repro.nn.training import train`` call sites see the wrapper too); a
method is replaced on each class that defines it.  A call that re-enters a
span of the same name (``conv1d`` delegating to ``conv2d``, a subclass
``evaluate`` calling its parent's) records no second span, so counts are
counted once per outermost call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import pkgutil
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


def _conv_gmac(args, kwargs, result) -> Dict[str, float]:
    weight = args[1] if len(args) > 1 else kwargs["weight"]
    out_channels, in_channels, kh, kw = weight.shape
    batch, _, out_h, out_w = result.shape
    macs = batch * out_channels * out_h * out_w * in_channels * kh * kw
    return {"nn.conv_fwd_gmac": macs / 1e9}


def _attack_counts(args, kwargs, result) -> Dict[str, float]:
    return {"core.flips": result.num_flips, "core.converged": int(bool(result.converged))}


def _trial_count(args, kwargs, result) -> Dict[str, float]:
    return {"core.trials_scored": len(result)}


def _profile_flips(args, kwargs, result) -> Dict[str, float]:
    return {"faults.profile_flips": len(result.rowhammer) + len(result.rowpress)}


def _timeline_windows(args, kwargs, result) -> Dict[str, float]:
    return {"dram.timeline_windows": len(result.windows)}


def _unit_count(args, kwargs, result) -> Dict[str, float]:
    return {"experiments.units": 1}


def _file_bytes(counter: str) -> Callable:
    def count(args, kwargs, result) -> Dict[str, float]:
        return {counter: result.stat().st_size}

    return count


#: (module, attribute path, span name, counter hook).  The attribute path is
#: ``function`` or ``Class.method``; a subclass overriding a wrapped method
#: is listed on its own line.
TARGETS: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    # repro.nn
    ("repro.nn.training", "train", "nn.train", None),
    ("repro.nn.autograd", "Tensor.backward", "nn.backward", None),
    ("repro.nn.functional", "conv2d", "nn.conv_fwd", _conv_gmac),
    ("repro.nn.functional", "linear", "nn.linear_fwd", None),
    ("repro.nn.quantization", "quantize_model", "nn.quantize", None),
    ("repro.nn.inference", "SuffixEvaluator.forward_many", "nn.forward_many", None),
    ("repro.nn.inference", "SuffixEvaluator.peek_many", "nn.peek_many", None),
    # repro.core
    ("repro.core.bfa", "BitFlipAttack.run", "core.attack", _attack_counts),
    ("repro.core.objective", "AttackObjective.attack_loss_and_gradients", "core.grad", None),
    ("repro.core.objective", "AttackObjective.attack_losses", "core.score", _trial_count),
    ("repro.core.objective", "UntargetedDegradation.evaluate", "core.eval", None),
    ("repro.core.objective", "TargetedMisclassification.evaluate", "core.eval", None),
    ("repro.core.objective", "StealthyTargeted.evaluate", "core.eval", None),
    # repro.faults / repro.dram / repro.defenses
    ("repro.core.comparison", "build_deployment_profiles", "faults.deploy_profile", _profile_flips),
    ("repro.faults.profiler", "ChipProfiler.profile_rowhammer", "faults.chip_profile", None),
    ("repro.faults.profiler", "ChipProfiler.profile_rowpress", "faults.chip_profile", None),
    ("repro.faults.sweep", "rowhammer_flip_curve", "faults.flip_curve", None),
    ("repro.faults.sweep", "rowpress_flip_curve", "faults.flip_curve", None),
    ("repro.dram.timeline", "TimelineEngine.run", "dram.timeline", _timeline_windows),
    ("repro.defenses.evaluation", "evaluate_defense", "defenses.matrix", None),
    # repro.experiments
    ("repro.experiments.runner", "ExperimentRunner.run", "experiments.run", None),
    ("repro.experiments.store", "ResultStore.save", "experiments.store_save",
     _file_bytes("experiments.store_bytes")),
    ("repro.experiments.store", "ShardedResultStore.save", "experiments.store_save",
     _file_bytes("experiments.store_bytes")),
    ("repro.experiments.queue", "JobQueue._persist", "experiments.queue_persist", None),
    ("repro.experiments.checkpoint", "ChunkCheckpoint.save_chunk", "experiments.checkpoint_save",
     _file_bytes("experiments.checkpoint_bytes")),
    ("repro.experiments.service", "ExperimentService._run_job", "experiments.job", None),
)

#: ``run_unit`` of every registered spec kind is one ``experiments.unit`` span.
UNIT_SPAN = "experiments.unit"


class Tracer:
    """In-memory spans and counters; one span stack per thread."""

    def __init__(self):
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_op = 0
        #: Output checks run with recording paused, outside every metric.
        self.enabled = True

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + value

    def open(self, name: str, new_op: bool = False) -> int:
        """Start a span; returns its index (``new_op`` starts an operation)."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            if new_op or parent is None:
                self._next_op += 1
                op = self._next_op
            else:
                op = self.spans[parent]["op"]
            index = len(self.spans)
            self.spans.append(
                {"name": name, "start": time.perf_counter(), "end": None,
                 "parent": parent, "op": op, "thread": threading.get_ident()}
            )
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] == index:
            stack.pop()

    def current_name(self) -> Optional[str]:
        stack = self._stack()
        return self.spans[stack[-1]]["name"] if stack else None

    def inside(self, name: str) -> bool:
        return any(self.spans[index]["name"] == name for index in self._stack())

    @contextlib.contextmanager
    def span(self, name: str, new_op: bool = False) -> Iterator[int]:
        index = self.open(name, new_op)
        try:
            yield index
        finally:
            self.close(index)

    def wrap(self, function: Callable, name: str, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not tracer.enabled or tracer.current_name() == name:
                return function(*args, **kwargs)
            if name == "nn.backward" and tracer.inside("nn.train"):
                tracer.count("nn.train_steps", 1)
            index = tracer.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                tracer.close(index)
            if hook is not None:
                for counter, value in hook(args, kwargs, result).items():
                    tracer.count(counter, value)
            return result

        return traced

    # -- reduction -------------------------------------------------------
    def by_name(self, root: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: call count, total (inclusive) and self time.

        With ``root``, only spans named ``root`` and their descendants count.
        """
        keep = [span["end"] is not None for span in self.spans]
        if root is not None:
            inside: Dict[int, bool] = {}
            for index, span in enumerate(self.spans):
                parent = span["parent"]
                inside[index] = span["name"] == root or (parent is not None and inside[parent])
                keep[index] = keep[index] and inside[index]
        child_time: Dict[int, float] = {}
        for index, span in enumerate(self.spans):
            if keep[index] and span["parent"] is not None:
                child_time[span["parent"]] = (
                    child_time.get(span["parent"], 0.0) + span["end"] - span["start"]
                )
        table: Dict[str, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            if not keep[index]:
                continue
            duration = span["end"] - span["start"]
            row = table.setdefault(span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - child_time.get(index, 0.0)
        return table

    def dump(self, path: str) -> None:
        """Write every span, then the counters, as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
            handle.write(json.dumps({"counters": self.counters}) + "\n")

    @classmethod
    def load(cls, path: str) -> "Tracer":
        tracer = cls()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                if "counters" in record:
                    tracer.counters = record["counters"]
                else:
                    tracer.spans.append(record)
        return tracer


def _import_all(package: str = "repro") -> None:
    """Import every submodule so each name binding of a target exists."""
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=package + "."):
        try:
            importlib.import_module(info.name)
        except ImportError:
            # Optional backends (numba) are absent on some machines.
            continue


def _rebind_function(original: Callable, wrapper: Callable) -> int:
    """Point every ``repro.*`` module attribute bound to ``original`` at ``wrapper``."""
    replaced = 0
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attribute, value in list(vars(module).items()):
            if value is original:
                setattr(module, attribute, wrapper)
                replaced += 1
    return replaced


def install(tracer: Tracer) -> None:
    """Wrap every entry point in :data:`TARGETS` (and each spec's ``run_unit``)."""
    _import_all()
    for module_name, path, name, hook in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method_name = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method_name]
            setattr(owner, method_name, tracer.wrap(original, name, hook))
        else:
            original = getattr(module, path)
            if _rebind_function(original, tracer.wrap(original, name, hook)) == 0:
                raise RuntimeError(f"no binding of {module_name}.{path} found")
    from repro.experiments.specs import ExperimentSpec

    pending = list(ExperimentSpec.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "run_unit" in cls.__dict__:
            cls.run_unit = tracer.wrap(cls.__dict__["run_unit"], UNIT_SPAN, _unit_count)
