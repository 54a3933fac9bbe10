"""The one sweep loop: keyed work items, dispatch units, ordered merge.

``run_parallel_sweep`` evaluates ``(key, fn, args)`` work items and
returns a :class:`~repro.checkpoint.SweepOutcome`.  ``jobs=1`` runs
them in-process; ``jobs > 1`` fans *dispatch units* — consecutive
chunks of items — out over a :class:`~concurrent.futures.ProcessPoolExecutor`.
The outcome, the checkpoint contents and the parent-side telemetry are
identical at every ``jobs`` and chunk size:

* **Ordered merge.**  Finished items are merged in item order, whatever
  order their units complete in.  A merge updates the ``done`` mapping,
  the failure lists, the :class:`~repro.checkpoint.BudgetClock` and the
  ``progress`` reporter (one ``advance`` per item), and writes the
  checkpoint every ``save_every`` completed items.
* **Budgets per merged item.**  The budget is checked before each
  merge, so ``max_failures`` stops every (jobs, chunk) combination at
  the same item.
* **Parent-only checkpoints.**  Workers never touch the file, so a run
  killed mid-way resumes — in-process or pooled — to the same state.
* **One blame scheme.**  A pool break re-runs the in-flight units one
  at a time.  A unit that breaks the pool alone is split into single
  items, also run alone; a single item that breaks it is the culprit.
  The disabled policy records the culprit as a failure; an enabled
  :class:`~repro.exec.supervise.SupervisionPolicy` retries it with
  seeded backoff and quarantines it once its retries are spent.
* **Per-unit deadline and watchdog.**  ``max_sample_seconds`` and
  ``hang_seconds`` apply to a dispatch unit.  A struck single-item unit
  charges its item; a struck multi-item unit is split and its items
  re-run uncharged.  The parent polls only while one of the two is
  armed; otherwise it blocks on ``wait(FIRST_COMPLETED)``.

Evaluation failures (:class:`~repro.errors.ReproError`) are recorded;
any other exception is a programming error, re-raised in the parent
after the checkpoint is saved.  A work function may carry a ``batch``
attribute, ``fn.batch(list_of_args) -> [(ok, value_or_error), ...]``:
a unit whose items all share that ``fn`` is then evaluated by one
``batch`` call (the Monte-Carlo driver solves a unit of samples as one
batched transient this way), and its outcomes are still merged, budgeted
and retried per item.  Workers run under fresh telemetry instances and
ship their snapshots back; a unit's snapshot rides on its first item
and is folded into the parent's instances when that item merges.

``fn``, ``args`` and the returned values must pickle when ``jobs > 1``.
SIGTERM/Ctrl-C are trapped: the final checkpoint is written and the
partial outcome comes back with ``interrupted=True``.
"""

from __future__ import annotations

import collections
import logging
import math
import multiprocessing
import os
import pickle
import queue as queue_module
import signal
import time
from concurrent.futures import (FIRST_COMPLETED, CancelledError,
                                ProcessPoolExecutor, wait)
from concurrent.futures.process import BrokenProcessPool
from typing import (Any, Callable, Deque, Dict, List, Optional, Sequence,
                    Tuple)

from repro import obs
from repro.analysis.effects import (mutates_global_state, observational,
                                    pure)
from repro.checkpoint import (BudgetClock, Checkpoint, RunBudget,
                              SweepOutcome)
from repro.errors import ConfigurationError, DeadlineExceeded, ReproError
from repro.exec.supervise import (_KILL_GRACE, _POLL_SECONDS,
                                  _SETTLE_SECONDS, _SHRINK_AFTER,
                                  SupervisionPolicy, TimeoutFailure,
                                  _backoff_delay, _init_worker, _send,
                                  sample_deadline, tick, trap_termination)

_log = logging.getLogger(__name__)

#: One work item: (unique key, picklable callable, arguments).
WorkItem = Tuple[str, Callable[..., Any], Tuple[Any, ...]]


# -- evaluating one dispatch unit (in a worker or in-process) -----------------


def _evaluate(unit: Sequence[WorkItem]) -> List[Tuple[str, Any]]:
    """``(status, payload)`` for a prefix of ``unit``, in item order.

    Status ``"ok"`` carries the value, ``"fail"`` the stringified
    :class:`ReproError`, ``"timeout"`` ``(elapsed, message)`` of a
    cooperative deadline raise and ``"raise"`` any other exception.
    Evaluation stops after a timeout or a raise; the items after it
    are left out, not failed.
    """
    fn = unit[0][1]
    batch = getattr(fn, "batch", None)
    outcomes: Optional[List[Tuple[bool, Any]]] = None
    if batch is not None and len(unit) > 1 and all(
            item_fn is fn for _key, item_fn, _args in unit):
        try:
            outcomes = list(batch([args for _key, _fn, args in unit]))
        except Exception as exc:  # noqa: D307 - recorded below as the
            outcomes = [(False, exc)]  # first item's structured status
    results: List[Tuple[str, Any]] = []
    for offset, (_key, item_fn, args) in enumerate(unit):
        if outcomes is None:
            try:
                tick()
                ok, value = True, item_fn(*args)
            except Exception as exc:  # noqa: D307 - classified below into
                ok, value = False, exc  # a recorded status, never dropped
        elif offset < len(outcomes):
            ok, value = outcomes[offset]
        else:
            break
        if ok:
            results.append(("ok", value))
        elif isinstance(value, DeadlineExceeded):
            results.append(("timeout", (value.elapsed or 0.0, str(value))))
            break
        elif isinstance(value, ReproError):
            results.append(("fail", f"{type(value).__name__}: {value}"))
        else:
            results.append(("raise", value))
            break
    return results


@pure
def _portable_exception(exc: Exception) -> Exception:
    """``exc`` if it survives pickling, else a string-carrying stand-in."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:  # noqa: D307 - the stand-in *is* the record
        return RuntimeError(f"{type(exc).__name__}: {exc}")
    return exc


@mutates_global_state
def _run_unit(unit: Sequence[WorkItem], token: int,
              deadline: Optional[float], beat_every: float,
              instrument: bool):
    """Worker-side evaluation of one dispatch unit (module-level for
    pickling): ``(results, telemetry)``, where ``telemetry`` bundles
    fresh per-unit metrics, events and time series (``None`` while the
    parent is not instrumented)."""
    if instrument:
        registry = obs.MetricsRegistry()
        event_log = obs.EventLog()
        recorder = obs.TimeSeriesRecorder()
        # The one sanctioned worker-side global mutation: fresh telemetry
        # instances whose snapshots the *parent* merges in item order.
        obs.enable(registry=registry, tracer=obs.Tracer(),  # noqa: D303
                   events=event_log, timeseries=recorder)
    with sample_deadline(token, deadline, beat_every):
        _send("start")
        results = _evaluate(unit)
    results = [(status, _portable_exception(payload)
                if status == "raise" else payload)
               for status, payload in results]
    telemetry = None
    if instrument:
        telemetry = {
            "metrics": registry.snapshot(),
            "events": event_log.to_dicts(),
            "timeseries": recorder.snapshot(),
        }
    return results, telemetry


@observational
def _merge_telemetry(telemetry) -> None:
    """Fold one unit's worker telemetry into the parent's instances."""
    if not obs.is_enabled():
        return
    obs.metrics().merge_snapshot(telemetry.get("metrics", {}))
    obs.events().extend(telemetry.get("events", []))
    obs.timeseries().merge_snapshot(telemetry.get("timeseries", {}))


def _pool_context():
    """Prefer fork (cheap, inherits imports); fall back to the default."""
    if "fork" in multiprocessing.get_all_start_methods():
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()  # pragma: no cover - non-POSIX


# -- parent-side bookkeeping ---------------------------------------------------

#: A dispatch unit: the positions, in ``_Sweep.work``, of consecutive
#: items.  Splitting a unit yields single-item ranges.
Unit = range


class _Flight:
    """One dispatched unit, as the parent tracks it in the pool."""

    __slots__ = ("unit", "future", "pid", "started_at", "last_beat")

    def __init__(self, unit: Unit, future: Any) -> None:
        self.unit = unit
        self.future = future
        self.pid: Optional[int] = None  # worker pid, from its "start"
        self.started_at: Optional[float] = None
        self.last_beat = 0.0


class _Sweep:
    """State of one :func:`run_parallel_sweep` call.

    Items are tracked by position in ``work`` (the items not restored
    from the checkpoint): ``status`` is ``None`` until final, then
    ``"ok"``, ``"fail"`` or ``"quarantined"``, with the result or the
    failure detail in ``value``.  Retry bookkeeping lives in sparse
    dicts, touched only by items that were charged.
    """

    def __init__(self, items: Sequence[WorkItem], jobs: int,
                 checkpoint: Optional[Checkpoint],
                 budget: Optional[RunBudget], save_every: int,
                 encode: Optional[Callable[[Any], Any]],
                 chunk_size: Optional[int],
                 progress: Optional[Any],
                 policy: SupervisionPolicy) -> None:
        self.jobs = jobs
        self.checkpoint = checkpoint
        self.save_every = save_every
        self.encode = encode
        self.progress = progress
        self.policy = policy
        self.done: Dict[str, Any] = {}
        if checkpoint is not None:
            self.done = checkpoint.load() or {}
        if progress is not None and self.done:
            progress.note_restored(len(self.done))
        #: Index in the caller's list of each item still to evaluate.
        self.origin = [index for index, work in enumerate(items)
                       if work[0] not in self.done]
        self.work = [items[index] for index in self.origin]
        count = len(self.work)
        self.status: List[Optional[str]] = [None] * count
        self.value: List[Any] = [None] * count
        self.attempts: Dict[int, int] = {}  # charged strikes per item
        self.faults: Dict[int, List[str]] = {}  # one kind per strike
        self.ready_at: Dict[int, float] = {}  # a retry's backoff gate
        self.telemetry: Dict[int, List[dict]] = {}  # unit snapshots
        size = chunk_size or (1 if jobs == 1 else max(
            1, math.ceil(count / (4 * jobs))))
        self.pending: Deque[Unit] = collections.deque(
            range(start, min(start + size, count))
            for start in range(0, count, size))
        self.isolate: List[Unit] = []  # suspects, dispatched one at a time
        self.inflight: Dict[int, _Flight] = {}
        self.tokens = 0
        self.clock = BudgetClock(budget)
        self.budgeted = not self.clock.budget.unlimited
        self.cursor = 0  # work[:cursor] is merged
        self.dirty = 0
        self.failures: List[str] = []
        self.quarantined: List[str] = []
        self.timeouts: List[TimeoutFailure] = []
        self.exhausted: Optional[str] = None
        self.interrupted = False
        self.instrument = obs.is_enabled()
        self.pool_losses = 0
        self.context = _pool_context()
        self.channel = (self.context.Queue()
                        if jobs > 1 and policy.watchdog else None)
        self.executor: Optional[ProcessPoolExecutor] = None
        self.broken = False  # a submit found the pool dead

    # -- the loop --------------------------------------------------------------

    def run(self) -> None:
        try:
            with trap_termination():
                if self.jobs > 1 and self.pending:
                    self.executor = self._new_executor()
                while self.cursor < len(self.work) and not (
                        self.budgeted and self._out_of_budget()):
                    if self.executor is None:
                        self._run_in_process()
                    else:
                        self._submit_ready()
                        self._collect()
                    self._merge()
                if self.exhausted is not None:
                    _log.info("sweep stopped on %s after %d item(s)",
                              self.exhausted, len(self.done))
        except KeyboardInterrupt:
            # Graceful interruption (Ctrl-C, or SIGTERM via the trap):
            # keep every merged result, write the final checkpoint
            # below, and report a partial outcome.
            self.interrupted = True
            pending = len(self.work) - self.cursor
            _log.warning("sweep interrupted: %d item(s) done, %d pending",
                         len(self.done), pending)
            obs.event("sweep.interrupted", completed=len(self.done),
                      pending=pending)
        finally:
            if self.executor is not None:
                self.executor.shutdown(wait=False, cancel_futures=True)
            if self.channel is not None:
                self.channel.close()
        self._save_if_dirty()

    def _out_of_budget(self) -> bool:
        self.exhausted = self.clock.exhausted()
        return self.exhausted is not None

    def _run_in_process(self) -> None:
        """Evaluate the next unit here, after its retry backoff."""
        unit = self.pending.popleft()
        if self.ready_at:
            delay = self.ready_at.get(unit[0], 0.0) - time.monotonic()
            if delay > 0:
                time.sleep(delay)
        work = self.work[unit.start:unit.stop]
        deadline = self.policy.max_sample_seconds
        if deadline is None:
            results = _evaluate(work)
        else:
            self.tokens += 1
            with sample_deadline(self.tokens, deadline):
                results = _evaluate(work)
        self._record(unit, results, None)

    def _merge(self) -> None:
        """Merge the finished prefix of the items, in item order."""
        work, statuses, values = self.work, self.status, self.value
        done, encode, progress = self.done, self.encode, self.progress
        while self.cursor < len(work):
            position = self.cursor
            status = statuses[position]
            if status is None or (self.budgeted and self._out_of_budget()):
                return
            self.cursor = position + 1
            if self.telemetry:
                for telemetry in self.telemetry.pop(position, ()):
                    _merge_telemetry(telemetry)
            key = work[position][0]
            value = values[position]
            if status == "ok":
                done[key] = value if encode is None else encode(value)
                if progress is not None:
                    progress.advance(completed=1)
                if self.checkpoint is not None:
                    self.dirty += 1
                    if self.dirty >= self.save_every:
                        self._save_if_dirty()
                continue
            if status == "fail":
                _log.warning("sweep item %r failed: %s", key, value)
                obs.metrics().counter("sweep.failures").inc()
                self.failures.append(key)
            else:
                attempts = self.attempts[position]
                _log.warning("item %r quarantined after %d attempt(s): %s",
                             key, attempts, value)
                obs.metrics().counter("sweep.supervise.quarantined").inc()
                obs.event("exec.supervise.quarantine", key=key,
                          attempts=attempts)
                self.quarantined.append(key)
            self.clock.fail()
            if self.progress is not None:
                self.progress.advance(failed=1)

    def _save_if_dirty(self) -> None:
        if self.checkpoint is not None and self.dirty:
            self.checkpoint.save(self.done)
            self.dirty = 0

    # -- recording results and faults ----------------------------------------

    def _record(self, unit: Unit, results, telemetry) -> None:
        """Apply one unit's results; unevaluated items run again alone."""
        if telemetry is not None:
            self.telemetry.setdefault(unit[0], []).append(telemetry)
        statuses, values = self.status, self.value
        for offset, (status, payload) in enumerate(results):
            position = unit[offset]
            if status == "ok":
                statuses[position] = "ok"
                values[position] = payload
            elif status == "fail":
                self._charge(position, "fail", payload)
            elif status == "timeout":
                elapsed, detail = payload
                self._strike(unit, unit[offset:], "deadline", detail,
                             elapsed, isolate=False)
                return
            else:  # a programming error: save progress, then surface it
                self._merge()
                self._save_if_dirty()
                raise payload
        if len(results) < len(unit):
            self._queue(self._singles(unit[len(results):]))

    @staticmethod
    def _singles(rest: Unit) -> List[Unit]:
        return [range(position, position + 1) for position in rest]

    def _strike(self, unit: Unit, rest: Unit, kind: str, detail: str,
                elapsed: float, isolate: bool) -> None:
        """A fault hit ``unit``: charge its lone item, or run ``rest``
        (its unfinished items) again one item per unit, uncharged —
        one at a time when ``isolate``."""
        if len(unit) == 1:
            limit = (self.policy.hang_seconds if kind == "hang"
                     else self.policy.max_sample_seconds)
            self._charge(unit[0], kind, detail, elapsed, limit)
            return
        obs.event("exec.supervise.split", fault=kind, items=len(rest))
        if isolate:
            self.isolate[:0] = self._singles(rest)
        else:
            self._queue(self._singles(rest))

    def _queue(self, units: List[Unit]) -> None:
        """Put units back at the head of the queue: they hold the
        lowest unmerged items, which the ordered merge waits on."""
        self.pending.extendleft(reversed(units))

    def _charge(self, position: int, kind: str, detail: str,
                elapsed: Optional[float] = None,
                limit: Optional[float] = None) -> None:
        """One strike against an item: retry with backoff or retire it."""
        key = self.work[position][0]
        attempt = self.attempts[position] = self.attempts.get(position, 0) + 1
        faults = self.faults.setdefault(position, [])
        faults.append(kind)
        if kind in ("deadline", "hang"):
            strike = TimeoutFailure(
                key=key, kind=kind, elapsed_s=float(elapsed or 0.0),
                limit_s=float(limit or 0.0), attempt=attempt)
            self.timeouts.append(strike)
            _log.warning("item %r %s (attempt %d): %s", key, kind, attempt,
                         detail)
            obs.metrics().counter("sweep.supervise.timeouts").inc()
            obs.event("exec.supervise.timeout", key=key, fault=kind,
                      elapsed_s=strike.elapsed_s, limit_s=strike.limit_s,
                      attempt=attempt)
        elif kind == "crash":
            _log.warning("sweep worker crashed evaluating item %r "
                         "(attempt %d)", key, attempt)
            obs.metrics().counter("sweep.worker_crashes").inc()
            obs.event("sweep.worker_crash", key=key, attempt=attempt)
        if attempt <= self.policy.max_retries:
            delay = _backoff_delay(self.policy, self.origin[position],
                                   attempt)
            self.ready_at[position] = time.monotonic() + delay
            self._queue([range(position, position + 1)])
            obs.event("exec.supervise.retry", key=key, attempt=attempt,
                      delay_s=round(delay, 6))
            return
        process_fault = any(fault != "fail" for fault in faults)
        quarantine = self.policy.enabled and process_fault
        self.status[position] = "quarantined" if quarantine else "fail"
        self.value[position] = detail

    # -- the pool ----------------------------------------------------------------

    def _new_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=self.jobs,
                                   mp_context=self.context,
                                   initializer=_init_worker,
                                   initargs=(self.channel,))

    def _window(self) -> int:
        """Units in flight at once: one suspect while isolating, else
        four per worker — all the units of the default chunking, while
        a pool break still has a bounded number of suspects."""
        return 1 if self.isolate else 4 * self.jobs

    def _ready(self, unit: Unit, now: float) -> bool:
        return self.ready_at.get(unit[0], 0.0) <= now

    def _submit_ready(self) -> None:
        """Fill the dispatch window with ready units, in queue order."""
        source = self.isolate or self.pending
        now = time.monotonic()
        while len(self.inflight) < self._window():
            ready = next((index for index, unit in enumerate(source)
                          if self._ready(unit, now)), None)
            if ready is None:
                return
            unit = source[ready]
            del source[ready]
            self.tokens += 1
            assert self.executor is not None
            try:
                future = self.executor.submit(
                    _run_unit, self.work[unit.start:unit.stop],
                    self.tokens, self.policy.max_sample_seconds,
                    self.policy.beat_seconds(), self.instrument)
            except BrokenProcessPool:
                source.insert(0, unit)
                self.broken = True  # the pool died under us
                return
            self.inflight[self.tokens] = _Flight(unit, future)

    def _wait_seconds(self) -> Optional[float]:
        """How long the parent may block: a poll period while the
        watchdog is armed, the next retry's backoff, else until a unit
        finishes."""
        if self.channel is not None:
            return _POLL_SECONDS
        if (self.isolate or not self.pending
                or len(self.inflight) >= self._window()):
            return None
        soonest = min(self.ready_at.get(unit[0], 0.0)
                      for unit in self.pending)
        return max(0.0, soonest - time.monotonic())

    def _collect(self) -> None:
        """Wait for progress, harvest it, and handle pool faults."""
        futures = [flight.future for flight in self.inflight.values()]
        timeout = self._wait_seconds()
        if futures:
            wait(futures, timeout=timeout, return_when=FIRST_COMPLETED)
        elif timeout is not None:
            time.sleep(timeout)
        broke = self._harvest() or self.broken
        self.broken = False
        struck = False
        if self.channel is not None:
            self._pump_channel()
            struck = self._watchdog_scan()
        if broke or struck:
            if self.inflight:
                wait([flight.future for flight in self.inflight.values()],
                     timeout=_SETTLE_SECONDS)
                self._harvest()
            self._blame(deliberate=struck)
            self._rebuild_pool()

    def _harvest(self) -> bool:
        """Record finished units; True when the pool broke."""
        broke = False
        for token, flight in list(self.inflight.items()):
            if not flight.future.done():
                continue
            try:
                results, telemetry = flight.future.result()
            except (BrokenProcessPool, CancelledError, OSError):
                broke = True  # stays in flight for blame assignment
                continue
            del self.inflight[token]
            self._record(flight.unit, results, telemetry)
        return broke

    def _pump_channel(self) -> None:
        assert self.channel is not None
        while True:
            try:
                _kind, token, pid = self.channel.get_nowait()
            except queue_module.Empty:
                return
            except (OSError, EOFError):  # pragma: no cover - torn queue
                return
            flight = self.inflight.get(token)
            if flight is None:
                continue  # a ghost from a finished or killed unit
            now = time.monotonic()
            if flight.started_at is None:
                flight.started_at = now
                flight.pid = pid
            flight.last_beat = now

    def _watchdog_scan(self) -> bool:
        """Strike and kill overdue or silent units; True if any were."""
        struck = False
        now = time.monotonic()
        limit = self.policy.max_sample_seconds
        hang = self.policy.hang_seconds
        for token, flight in list(self.inflight.items()):
            if flight.started_at is None or flight.future.done():
                continue
            elapsed = now - flight.started_at
            if limit is not None and elapsed > limit + _KILL_GRACE:
                kind, detail = "deadline", "worker overran its deadline"
            elif hang is not None and now - flight.last_beat > hang:
                kind, detail = "hang", "worker went silent"
            else:
                continue
            del self.inflight[token]
            self._strike(flight.unit, flight.unit, kind, detail, elapsed,
                         isolate=False)
            if flight.pid:
                try:
                    os.kill(flight.pid, signal.SIGKILL)
                except OSError:  # pragma: no cover - already gone
                    pass
            struck = True
        return struck

    def _blame(self, deliberate: bool) -> None:
        """Assign a pool break to the units that were in flight."""
        broken = [flight.unit for flight in self.inflight.values()]
        self.inflight.clear()
        if deliberate:
            self._queue(broken)  # the watchdog already struck its units
        elif len(broken) == 1:
            self._strike(broken[0], broken[0], "crash",
                         "worker process died", 0.0, isolate=True)
        elif broken:
            obs.event("exec.supervise.isolate", suspects=len(broken))
            self.isolate.extend(broken)

    def _rebuild_pool(self) -> None:
        assert self.executor is not None
        self.executor.shutdown(wait=False, cancel_futures=True)
        self.pool_losses += 1
        if self.policy.enabled and self.pool_losses % _SHRINK_AFTER == 0:
            if self.jobs > 1:
                self.jobs = max(1, self.jobs // 2)
                _log.warning("repeated worker loss: shrinking pool to "
                             "%d job(s)", self.jobs)
                obs.event("exec.supervise.pool_shrink", jobs=self.jobs)
            else:
                remaining = len(self.work) - self.cursor
                _log.warning("single-worker pool lost again: falling back "
                             "to in-process evaluation of %d item(s)",
                             remaining)
                obs.event("exec.supervise.serial_fallback",
                          remaining=remaining)
                self._queue(self.isolate)
                self.isolate = []
                self.executor = None
                return
        self.executor = self._new_executor()


def run_parallel_sweep(items: Sequence[WorkItem],
                       jobs: int = 1,
                       checkpoint: Optional[Checkpoint] = None,
                       budget: Optional[RunBudget] = None,
                       save_every: int = 1,
                       encode: Optional[Callable[[Any], Any]] = None,
                       decode: Optional[Callable[[Any], Any]] = None,
                       chunk_size: Optional[int] = None,
                       progress: Optional[Any] = None,
                       policy: Optional[SupervisionPolicy] = None
                       ) -> SweepOutcome:
    """Evaluate keyed ``(key, fn, args)`` work items; see the module
    docstring for the contract.

    Items found in ``checkpoint`` are restored, not re-evaluated
    (``progress.note_restored``); ``encode``/``decode`` convert results
    to and from the checkpoint's JSON form.  ``chunk_size`` is the
    dispatch unit (default: one item in-process, else about four units
    per worker); it never changes results.  ``policy`` defaults to the
    disabled :class:`SupervisionPolicy`.
    """
    keys = [key for key, _fn, _args in items]
    if len(set(keys)) != len(keys):
        raise ConfigurationError("sweep item keys must be unique")
    if jobs < 1:
        raise ConfigurationError("jobs must be >= 1")
    if save_every < 1:
        raise ConfigurationError("save_every must be >= 1")
    if chunk_size is not None and chunk_size < 1:
        raise ConfigurationError("chunk_size must be >= 1")
    policy = policy or SupervisionPolicy()
    policy.validate()
    sweep = _Sweep(items, jobs, checkpoint, budget, save_every, encode,
                   chunk_size, progress, policy)
    with obs.span("sweep.run", items=len(items), jobs=jobs):
        sweep.run()
    done = sweep.done
    results = {key: done[key] if decode is None else decode(done[key])
               for key in keys if key in done}
    return SweepOutcome(
        results=results,
        completed=len(results),
        attempted=(len(results) + len(sweep.failures)
                   + len(sweep.quarantined)),
        failures=tuple(sweep.failures),
        exhausted=sweep.exhausted,
        quarantined=tuple(sweep.quarantined),
        interrupted=sweep.interrupted,
        timeouts=tuple(sweep.timeouts),
    )
