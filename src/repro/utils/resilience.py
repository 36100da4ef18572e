"""Resilience primitives: retries, deadlines, breakers, one config.

The experiment service stack (daemon, job queue, TCP distributed backend,
sharded result store) runs long campaigns across processes and hosts that
*will* fail mid-flight.  This module centralises the policies those layers
use to survive failures — previously a scatter of hardcoded timeouts —
while keeping the repo's core contract intact: **retried or degraded runs
must stay bit-identical to the fault-free serial run**, which is why every
source of retry timing randomness here is explicitly seeded and why none
of these helpers ever touches experiment randomness.

* :class:`RetryPolicy` — bounded exponential backoff whose jitter comes
  from a seeded generator, so two replays of the same failing run sleep
  the same schedule (reproducible logs, reproducible tests).
* :class:`Deadline` — a monotonic time budget that can be shared across
  nested calls (``remaining()`` shrinks as work proceeds).
* :class:`CircuitBreaker` — a small closed/open/half-open breaker that
  stops hammering a peer which keeps failing.
* :class:`ResilienceConfig` — every knob of the distributed/service
  failure model in one JSON-round-trippable dataclass with ``REPRO_*``
  environment defaults.
"""

from __future__ import annotations

import dataclasses
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Mapping, Optional, Tuple, Type

from repro.utils.codec import Codec


class DeadlineExceeded(TimeoutError):
    """Raised by :meth:`Deadline.check` when the time budget is spent."""


class CircuitOpenError(ConnectionError):
    """Raised by :meth:`CircuitBreaker.check` while the circuit is open."""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded exponential backoff with *seeded* jitter.

    ``delay(attempt)`` for attempt ``k`` (0-based) is
    ``min(base_delay * multiplier**k, max_delay)`` scaled by a jitter
    factor drawn uniformly from ``[1 - jitter, 1 + jitter]``.  The jitter
    stream is derived from ``seed`` alone, so the full sleep schedule of a
    retried run is a pure function of the policy — retried runs stay
    reproducible, which is part of the repo's golden contract.
    """

    max_attempts: int = 5
    base_delay: float = 0.1
    multiplier: float = 2.0
    max_delay: float = 30.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError(f"jitter must be in [0, 1), got {self.jitter}")

    def delays(self) -> Iterator[float]:
        """Yield the sleep before each retry (``max_attempts - 1`` values)."""
        rng = random.Random(self.seed)
        for attempt in range(self.max_attempts - 1):
            delay = min(self.base_delay * self.multiplier**attempt, self.max_delay)
            scale = 1.0 + self.jitter * (2.0 * rng.random() - 1.0)
            yield delay * scale

    def call(
        self,
        fn: Callable[[], Any],
        retry_on: Tuple[Type[BaseException], ...] = (OSError,),
        sleep: Callable[[float], None] = time.sleep,
        on_retry: Optional[Callable[[int, BaseException], None]] = None,
        deadline: Optional["Deadline"] = None,
    ) -> Any:
        """Run ``fn`` up to ``max_attempts`` times, backing off between tries.

        Only exceptions matching ``retry_on`` are retried; the final
        failure (or a spent ``deadline``) re-raises the last exception.
        ``on_retry(attempt, error)`` is called before each backoff sleep —
        use it for logging or counters.
        """
        last: Optional[BaseException] = None
        for attempt, delay in enumerate(list(self.delays()) + [None]):
            try:
                return fn()
            except retry_on as error:  # noqa: PERF203 - retry loop by design
                last = error
                if delay is None or (deadline is not None and deadline.expired()):
                    raise
                if on_retry is not None:
                    on_retry(attempt, error)
                if deadline is not None:
                    delay = min(delay, max(deadline.remaining(), 0.0))
                sleep(delay)
        raise last  # pragma: no cover - loop always returns or raises


class Deadline:
    """A monotonic time budget shared across nested operations.

    ``Deadline(5.0)`` expires five seconds after construction;
    ``Deadline(None)`` never expires (an unlimited budget callers can
    thread through uniformly).  The clock is injectable for deterministic
    tests.
    """

    def __init__(
        self,
        seconds: Optional[float],
        clock: Callable[[], float] = time.monotonic,
    ):
        self._clock = clock
        self.seconds = seconds
        self._expires = None if seconds is None else clock() + seconds

    @classmethod
    def unlimited(cls) -> "Deadline":
        """A deadline that never expires."""
        return cls(None)

    def remaining(self) -> float:
        """Seconds left (clamped to 0); ``inf`` for an unlimited deadline."""
        if self._expires is None:
            return float("inf")
        return max(0.0, self._expires - self._clock())

    def expired(self) -> bool:
        """Whether the budget is spent."""
        return self._expires is not None and self._clock() >= self._expires

    def check(self, label: str = "operation") -> None:
        """Raise :class:`DeadlineExceeded` when the budget is spent."""
        if self.expired():
            raise DeadlineExceeded(f"{label} exceeded its {self.seconds:.1f}s deadline")

    def extend(self, seconds: float) -> None:
        """Push the expiry ``seconds`` further out (no-op when unlimited)."""
        if self._expires is not None:
            self._expires += seconds


class CircuitBreaker:
    """Closed / open / half-open breaker for a repeatedly failing peer.

    ``failure_threshold`` consecutive failures open the circuit: further
    :meth:`allow` calls return ``False`` (callers skip the peer) until
    ``reset_timeout`` seconds pass, after which one probe is allowed
    (half-open).  A success closes the circuit again; a failure re-opens
    it.  The clock is injectable so tests drive transitions without
    sleeping.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ):
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._failures = 0
        self._opened_at: Optional[float] = None
        self._probing = False

    @property
    def state(self) -> str:
        """The current breaker state (``closed``/``open``/``half-open``)."""
        if self._opened_at is None:
            return self.CLOSED
        if self._clock() - self._opened_at >= self.reset_timeout:
            return self.HALF_OPEN
        return self.OPEN

    def allow(self) -> bool:
        """Whether the caller may attempt the operation right now.

        Closed always allows; open always refuses; half-open allows one
        probe at a time (further calls refuse until the probe reports).
        """
        state = self.state
        if state == self.CLOSED:
            return True
        if state == self.HALF_OPEN and not self._probing:
            self._probing = True
            return True
        return False

    def check(self, label: str = "peer") -> None:
        """Raise :class:`CircuitOpenError` instead of returning ``False``."""
        if not self.allow():
            raise CircuitOpenError(
                f"circuit for {label} is {self.state} after {self._failures} failures"
            )

    def record_success(self) -> None:
        """Report a successful operation: close the circuit."""
        self._failures = 0
        self._opened_at = None
        self._probing = False

    def record_failure(self) -> None:
        """Report a failure; opens the circuit at the threshold."""
        self._failures += 1
        self._probing = False
        if self._failures >= self.failure_threshold:
            self._opened_at = self._clock()


def _env_float(env: Mapping[str, str], key: str, default: float) -> float:
    raw = env.get(key)
    if raw is None or raw == "":
        return default
    return float(raw)


def _env_int(env: Mapping[str, str], key: str, default: int) -> int:
    raw = env.get(key)
    if raw is None or raw == "":
        return default
    return int(raw)


def _env_str(env: Mapping[str, str], key: str, default: Optional[str]) -> Optional[str]:
    raw = env.get(key)
    if raw is None:
        return default
    return raw or None  # empty string disables the knob


@dataclass(frozen=True)
class ResilienceConfig(Codec):
    """Every failure-model knob of the experiment stack, in one place.

    Replaces the hardcoded timeouts that used to live inline in
    :mod:`repro.experiments.distributed` (a 30 s worker dial, magic
    ``0.1``/``10`` sleeps and joins).  Each field has a ``REPRO_*``
    environment default (see :meth:`from_env`), the whole config JSON
    round-trips via :meth:`to_dict`/:meth:`from_dict`, and instances are
    immutable — derive variants with :meth:`replace`.

    Fields
    ------
    ``connect_timeout``
        How long the distributed backend waits for any worker to connect
        (or reconnect) before declaring the run stalled.
    ``dial_timeout`` / ``dial_retries`` / ``dial_backoff``
        The worker side of the same handshake: per-attempt socket timeout,
        number of dial attempts, base backoff between them.
    ``accept_poll``
        The backend's server-socket accept poll interval.
    ``chunk_timeout``
        Absolute wall-clock budget for one chunk on one worker; ``None``
        disables the bound.  Heartbeats do **not** extend it.
    ``heartbeat_interval`` / ``heartbeat_timeout``
        Workers send a heartbeat frame every ``heartbeat_interval`` seconds
        while connected; a backend that hears nothing for
        ``heartbeat_timeout`` seconds declares the worker dead and requeues
        its chunk.  ``heartbeat_interval=0`` disables worker heartbeats.
    ``max_chunk_retries``
        How many times one chunk may be requeued after worker losses
        before it is quarantined and the run fails with per-chunk
        diagnostics.
    ``fallback_backend``
        First rung of the graceful-degradation ladder taken when no worker
        connects within ``connect_timeout`` (``process`` → ``thread`` →
        ``serial``); ``None`` disables degradation and stalls raise.
    ``worker_respawns``
        How many replacement local workers the backend may spawn when the
        fleet dies with work outstanding.
    ``breaker_threshold`` / ``breaker_reset``
        The :class:`CircuitBreaker` used for repeatedly failing peers.
    ``shutdown_grace``
        Seconds granted to worker processes and handler threads to wind
        down before they are killed.
    ``retry_seed``
        Seed of every backoff jitter stream, keeping retried runs
        reproducible.
    """

    connect_timeout: float = 60.0
    dial_timeout: float = 30.0
    dial_retries: int = 50
    dial_backoff: float = 0.1
    accept_poll: float = 0.1
    chunk_timeout: Optional[float] = 600.0
    heartbeat_interval: float = 1.0
    heartbeat_timeout: float = 30.0
    max_chunk_retries: int = 3
    fallback_backend: Optional[str] = None
    worker_respawns: int = 3
    breaker_threshold: int = 5
    breaker_reset: float = 30.0
    shutdown_grace: float = 10.0
    retry_seed: int = 0

    #: (field, environment variable, parser) — the env surface of the config.
    _ENV_FIELDS = (
        ("connect_timeout", "REPRO_CONNECT_TIMEOUT", _env_float),
        ("dial_timeout", "REPRO_DIAL_TIMEOUT", _env_float),
        ("dial_retries", "REPRO_DIAL_RETRIES", _env_int),
        ("dial_backoff", "REPRO_DIAL_BACKOFF", _env_float),
        ("accept_poll", "REPRO_ACCEPT_POLL", _env_float),
        ("chunk_timeout", "REPRO_CHUNK_TIMEOUT", _env_float),
        ("heartbeat_interval", "REPRO_HEARTBEAT_INTERVAL", _env_float),
        ("heartbeat_timeout", "REPRO_HEARTBEAT_TIMEOUT", _env_float),
        ("max_chunk_retries", "REPRO_MAX_CHUNK_RETRIES", _env_int),
        ("fallback_backend", "REPRO_FALLBACK_BACKEND", _env_str),
        ("worker_respawns", "REPRO_WORKER_RESPAWNS", _env_int),
        ("breaker_threshold", "REPRO_BREAKER_THRESHOLD", _env_int),
        ("breaker_reset", "REPRO_BREAKER_RESET", _env_float),
        ("shutdown_grace", "REPRO_SHUTDOWN_GRACE", _env_float),
        ("retry_seed", "REPRO_RETRY_SEED", _env_int),
    )

    def __post_init__(self):
        if self.max_chunk_retries < 0:
            raise ValueError(
                f"max_chunk_retries must be >= 0, got {self.max_chunk_retries}"
            )
        if self.fallback_backend not in (None, "serial", "thread", "process"):
            raise ValueError(
                f"fallback_backend must be serial/thread/process or None, "
                f"got {self.fallback_backend!r}"
            )

    @classmethod
    def from_env(
        cls, env: Optional[Mapping[str, str]] = None, **overrides: Any
    ) -> "ResilienceConfig":
        """Build a config from ``REPRO_*`` variables plus explicit overrides.

        Resolution order per field: explicit keyword override, then the
        environment variable, then the dataclass default.  Pass
        ``fallback_backend=""`` (or set ``REPRO_FALLBACK_BACKEND=``) to
        explicitly disable degradation.
        """
        env = os.environ if env is None else env
        values: Dict[str, Any] = {}
        for name, variable, parse in cls._ENV_FIELDS:
            default = getattr(cls, name)
            values[name] = parse(env, variable, default)
        if values["chunk_timeout"] == 0:
            values["chunk_timeout"] = None  # 0 disables the per-chunk bound
        for key, value in overrides.items():
            if value is None:
                continue
            if key == "fallback_backend" and value == "":
                value = None
            if key == "chunk_timeout" and value == 0:
                value = None
            values[key] = value
        return cls(**values)

    def replace(self, **changes: Any) -> "ResilienceConfig":
        """A copy with ``changes`` applied (config objects are immutable)."""
        return dataclasses.replace(self, **changes)

    def retry_policy(self, **overrides: Any) -> RetryPolicy:
        """A :class:`RetryPolicy` seeded from this config's ``retry_seed``."""
        defaults = dict(
            max_attempts=max(1, self.dial_retries),
            base_delay=self.dial_backoff,
            seed=self.retry_seed,
        )
        defaults.update(overrides)
        return RetryPolicy(**defaults)

    def breaker(self, clock: Callable[[], float] = time.monotonic) -> CircuitBreaker:
        """A :class:`CircuitBreaker` parameterised from this config."""
        return CircuitBreaker(
            failure_threshold=self.breaker_threshold,
            reset_timeout=self.breaker_reset,
            clock=clock,
        )
