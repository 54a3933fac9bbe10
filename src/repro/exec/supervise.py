"""Supervision policy and the worker-side primitives behind it.

:func:`repro.exec.parallel.run_parallel_sweep` is the one sweep loop;
this module holds what its supervision needs on both sides of the
process boundary:

* :class:`SupervisionPolicy` — four frozen knobs: a per-unit deadline
  (``max_sample_seconds``), a hung-worker watchdog (``hang_seconds``),
  a retry budget (``max_retries``) and the root ``seed`` of the retry
  jitter.  The all-defaults policy is disabled: no channel, no polling,
  no retry, and a worker crash is an ordinary failure.
* :func:`tick` — the cooperative hook long solver loops call.  While a
  dispatch unit is armed it raises
  :class:`~repro.errors.DeadlineExceeded` past the deadline and ships
  throttled heartbeats to the parent's watchdog.
* :func:`sample_deadline` — arms that state for one dispatch unit,
  in a worker or in-process.
* :func:`trap_termination` — routes SIGTERM to
  :class:`KeyboardInterrupt`, so a terminated sweep writes its final
  checkpoint and returns a partial outcome.
* :func:`_backoff_delay` — exponential retry delay with jitter drawn
  from ``SeedSequence(policy.seed, spawn_key=(index, attempt))``, a
  branch disjoint from every sample's model stream, so a retried
  sample is bit-identical to a first-attempt success.

The executor contract (dispatch units, blame, budgets, ordered merge)
is documented in ``docs/ARCHITECTURE.md`` §12.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import signal
import threading
import time
from typing import Any, Iterator, Optional

import numpy as np

from repro.analysis.effects import (deterministic_under_seed,
                                    mutates_global_state, observational,
                                    pure)
from repro.errors import ConfigurationError, DeadlineExceeded

#: Slack added to ``max_sample_seconds`` before the parent hard-kills a
#: worker: the cooperative :func:`tick` raise gets first claim on the
#: deadline, the SIGKILL is the backstop for non-cooperating units.
_KILL_GRACE = 0.25

#: How long the parent waits for in-flight futures to settle after a
#: pool break before abandoning their results.
_SETTLE_SECONDS = 5.0

#: Retry delay: ``_BACKOFF_BASE * _BACKOFF_FACTOR**(attempt-1)`` seconds,
#: capped at ``_BACKOFF_MAX``, times ``1 + _JITTER_FRACTION * U(-1, 1)``.
_BACKOFF_BASE = 0.05
_BACKOFF_FACTOR = 2.0
_BACKOFF_MAX = 2.0
_JITTER_FRACTION = 0.25

#: Pool losses before the worker count halves; a single-worker pool
#: lost again falls back to in-process evaluation.
_SHRINK_AFTER = 2

#: Parent loop cadence while a deadline or the hang watchdog is armed.
_POLL_SECONDS = 0.02


@dataclasses.dataclass(frozen=True)
class SupervisionPolicy:
    """Frozen knobs for one supervised sweep (``None`` = that guard off).

    ``enabled`` is False for the all-defaults policy, which is the
    executor's default: disabled supervision costs nothing.
    """

    #: Hard per-unit wall-clock ceiling (cooperative raise, then kill).
    max_sample_seconds: Optional[float] = None
    #: Heartbeat silence after which an in-flight unit counts as hung.
    hang_seconds: Optional[float] = None
    #: Extra attempts per item after the first (0 = never retry).
    max_retries: int = 0
    #: Root entropy for the retry-jitter stream (independent of every
    #: sample's model stream by construction).
    seed: int = 0

    @property
    @pure
    def enabled(self) -> bool:
        """True when any guard is active (deadline, watchdog, retry)."""
        return self.watchdog or self.max_retries > 0

    @property
    @pure
    def watchdog(self) -> bool:
        """True when the parent must watch heartbeats and the clock."""
        return (self.max_sample_seconds is not None
                or self.hang_seconds is not None)

    @pure
    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on meaningless knobs."""
        if (self.max_sample_seconds is not None
                and self.max_sample_seconds <= 0):
            raise ConfigurationError("max_sample_seconds must be > 0")
        if self.hang_seconds is not None and self.hang_seconds <= 0:
            raise ConfigurationError("hang_seconds must be > 0")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")

    @pure
    def beat_seconds(self) -> float:
        """Worker heartbeat period: a quarter of the hang window."""
        if self.hang_seconds is None:
            return 0.0
        return max(0.005, self.hang_seconds / 4.0)

    @pure
    def describe(self) -> str:
        parts = []
        if self.max_sample_seconds is not None:
            parts.append(f"deadline {self.max_sample_seconds:g}s")
        if self.hang_seconds is not None:
            parts.append(f"hang watchdog {self.hang_seconds:g}s")
        if self.max_retries:
            parts.append(f"retries {self.max_retries}")
        return ", ".join(parts) if parts else "disabled"


@dataclasses.dataclass(frozen=True)
class TimeoutFailure:
    """One deadline/hang strike against an item (possibly non-final)."""

    key: str
    kind: str  # "deadline" | "hang"
    elapsed_s: float
    limit_s: float
    attempt: int

    @pure
    def describe(self) -> str:
        return (f"{self.key}: {self.kind} after {self.elapsed_s:.3f}s "
                f"(limit {self.limit_s:g}s, attempt {self.attempt})")


# -- worker-side state (per-process globals, set via the pool initializer) ----

_CHANNEL: Optional[Any] = None  # heartbeat queue, inherited at fork/spawn
_TOKEN: Optional[Any] = None  # id of the armed dispatch unit (None = off)
_STARTED: float = 0.0  # monotonic time the armed unit started
_DEADLINE: Optional[float] = None  # cooperative per-unit ceiling
_BEAT_EVERY: float = 0.0  # min seconds between heartbeats (0 = off)
_LAST_BEAT: float = 0.0


@mutates_global_state
def _init_worker(channel: Any) -> None:
    """Pool initializer: adopt the parent's heartbeat queue (or None).

    Also restores the default SIGTERM disposition — a forked worker
    must not inherit the parent's :func:`trap_termination` handler
    (executor teardown TERMs workers, and a trapped TERM would turn
    into a spurious in-worker :class:`KeyboardInterrupt`).
    """
    global _CHANNEL
    _CHANNEL = channel
    try:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass


@mutates_global_state
def _arm(token: Any, deadline: Optional[float], beat_every: float) -> None:
    """Install the per-unit watchdog state for this process."""
    global _TOKEN, _STARTED, _DEADLINE, _BEAT_EVERY, _LAST_BEAT
    _TOKEN = token
    _STARTED = time.monotonic()
    _LAST_BEAT = _STARTED
    _DEADLINE = deadline
    _BEAT_EVERY = beat_every


@mutates_global_state
def _disarm() -> None:
    """Clear the per-unit watchdog state (unit finished)."""
    global _TOKEN, _DEADLINE, _BEAT_EVERY
    _TOKEN = None
    _DEADLINE = None
    _BEAT_EVERY = 0.0


@observational
def _send(kind: str) -> None:
    """Ship one ``(kind, unit token, pid)`` message to the parent."""
    if _CHANNEL is not None:
        try:
            _CHANNEL.put((kind, _TOKEN, os.getpid()))
        except Exception:  # noqa: D307 - channel torn down: parent is
            pass           # exiting, nobody is listening any more


@mutates_global_state
def _note_beat(now: float) -> None:
    """Record and ship one heartbeat (throttle bookkeeping is global)."""
    global _LAST_BEAT
    _LAST_BEAT = now
    _send("beat")


@observational
def tick() -> None:
    """Supervision hook for long loops (transient steps, recovery rungs).

    Near-zero cost when no unit is armed.  When one is, this check
    (a) raises :class:`~repro.errors.DeadlineExceeded` once the unit
    overruns its cooperative deadline, and (b) ships a throttled
    heartbeat so the parent's hang watchdog knows the unit is alive.
    Annotated ``@observational``: under a fault-free run it observes
    the clock and never changes any computed value.
    """
    if _TOKEN is None:
        return
    now = time.monotonic()
    if _DEADLINE is not None and now - _STARTED > _DEADLINE:
        raise DeadlineExceeded("sample exceeded its deadline",
                               elapsed=now - _STARTED, limit=_DEADLINE)
    if _BEAT_EVERY and now - _LAST_BEAT >= _BEAT_EVERY:
        _note_beat(now)  # noqa: D303 - worker-local heartbeat bookkeeping,
        #                  consumed by the parent over the queue


@contextlib.contextmanager
def sample_deadline(token: Any, seconds: Optional[float],
                    beat_every: float = 0.0) -> Iterator[None]:
    """Arm the cooperative deadline (and heartbeats) for one unit.

    The state is what :func:`tick` checks; the heartbeats go to the
    parent only inside a worker that holds a channel.
    """
    _arm(token, seconds, beat_every)  # noqa: D303 - worker-local
    try:                                #   watchdog state for tick()
        yield
    finally:
        _disarm()  # noqa: D303 - worker-local watchdog state for tick()


@deterministic_under_seed
def _backoff_delay(policy: SupervisionPolicy, index: int,
                   attempt: int) -> float:
    """Retry delay for one (item, attempt): exponential + seeded jitter.

    The jitter generator is seeded from ``SeedSequence(policy.seed,
    spawn_key=(index, attempt))`` — a branch of the policy's entropy
    tree that is disjoint from every sample's model stream, so backoff
    randomness can never perturb what a retried sample computes.
    """
    base = min(_BACKOFF_MAX, _BACKOFF_BASE * _BACKOFF_FACTOR ** (attempt - 1))
    seq = np.random.SeedSequence(entropy=policy.seed,
                                 spawn_key=(index, attempt))
    u = float(np.random.default_rng(seq).random())
    return base * (1.0 + _JITTER_FRACTION * (2.0 * u - 1.0))


@contextlib.contextmanager
def trap_termination() -> Iterator[None]:
    """Route SIGTERM to :class:`KeyboardInterrupt` for graceful shutdown.

    Installed around the sweep loop so an orchestrator's TERM gets the
    same cancel-futures / final-checkpoint / partial-outcome treatment
    as Ctrl-C.  A no-op off the main thread or where signals are
    unavailable; the previous handler is always restored.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    owner_pid = os.getpid()

    def _to_interrupt(signum, frame):
        if os.getpid() != owner_pid:
            # A forked worker inherited the trap: restore the default
            # disposition and let the TERM do what TERM does.
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
            os.kill(os.getpid(), signal.SIGTERM)
            return
        raise KeyboardInterrupt

    try:
        previous = signal.signal(signal.SIGTERM, _to_interrupt)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        yield
        return
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
