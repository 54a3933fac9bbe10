"""Atomic JSON checkpoints and run budgets for long sweeps.

Production-scale sweeps (Monte-Carlo populations, design grids) die two
ways: the process is killed mid-run, or a pathological point burns the
whole time budget.  This module gives every long-running engine the
same three defences:

* :class:`Checkpoint` — periodic atomic JSON snapshots keyed by a
  config fingerprint, so ``--resume`` continues exactly where a killed
  run stopped (and refuses to resume a checkpoint written by a run with
  a different configuration);
* :class:`RunBudget` / :class:`BudgetClock` — wall-clock and
  failure-count ceilings checked between work items;
* :class:`SweepOutcome` — explicit ``completed/attempted`` accounting
  of a partial or complete sweep, returned instead of an exception by
  the one sweep loop, :func:`repro.exec.run_parallel_sweep`.

Checkpoints are written atomically (temp file + ``os.replace``), so a
kill during a save never corrupts the previous snapshot.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import os
import pathlib
import tempfile
import time
from typing import Any, Dict, Optional, Tuple

from repro import obs
from repro.analysis.effects import pure
from repro.errors import ConfigurationError

_log = logging.getLogger(__name__)

#: Bumped whenever the checkpoint layout changes incompatibly.
#: Schema 2 added the ``checksum`` content hash; schema-1 files (no
#: checksum) are still readable.
CHECKPOINT_SCHEMA = 2

#: Oldest schema :meth:`Checkpoint.load` still accepts.
_OLDEST_READABLE_SCHEMA = 1


@pure
def _content_checksum(done: Dict[str, Any]) -> str:
    """Hex digest over the canonical JSON rendering of ``done``.

    Canonical means ``sort_keys=True`` with default separators, so the
    digest is independent of insertion order and of how the enclosing
    payload happens to be formatted on disk.
    """
    canonical = json.dumps(done, sort_keys=True)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:32]


@dataclasses.dataclass(frozen=True)
class RunBudget:
    """Ceilings a sweep must respect (``None`` = unlimited).

    Deliberately *not* validated at construction: ``repro check`` rule
    M212 flags inconsistent budgets (non-positive ceilings) instead, so
    a config file can be linted without crashing the loader.
    """

    max_seconds: Optional[float] = None
    max_failures: Optional[int] = None

    @property
    @pure
    def unlimited(self) -> bool:
        return self.max_seconds is None and self.max_failures is None


class BudgetClock:
    """Tracks one run against its :class:`RunBudget`."""

    def __init__(self, budget: Optional[RunBudget] = None) -> None:
        self.budget = budget or RunBudget()
        self._started = time.monotonic()
        self.failures = 0

    def elapsed(self) -> float:
        return time.monotonic() - self._started

    def fail(self) -> None:
        self.failures += 1

    def exhausted(self) -> Optional[str]:
        """The ceiling that was hit, or ``None`` while within budget."""
        budget = self.budget
        if (budget.max_seconds is not None
                and self.elapsed() >= budget.max_seconds):
            return "max_seconds"
        if (budget.max_failures is not None
                and self.failures >= budget.max_failures):
            return "max_failures"
        return None


class Checkpoint:
    """One atomic JSON checkpoint file, keyed by a config fingerprint.

    The fingerprint (use :func:`repro.obs.config_fingerprint` over the
    sweep's effective configuration) guards against resuming a
    checkpoint that belongs to a different run: a mismatch raises
    :class:`~repro.errors.ConfigurationError` naming both fingerprints.
    """

    def __init__(self, path: "str | pathlib.Path",
                 fingerprint: str) -> None:
        self.path = pathlib.Path(path)
        self.fingerprint = fingerprint

    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> Optional[Dict[str, Any]]:
        """The saved ``done`` mapping, or ``None`` if no usable file exists.

        A checkpoint that cannot be trusted — truncated or torn JSON,
        undecodable bytes, a non-object payload, or a content checksum
        that does not match
        the stored ``done`` mapping (schema >= 2) — is **quarantined**,
        not fatal: the file is renamed to a ``.corrupt`` sidecar, a
        one-line warning is logged, and the sweep resumes from the last
        good state (here: empty, since the corrupt file *was* the last
        state).  Genuine configuration conflicts — an unreadable path,
        a schema from a newer library, a fingerprint from a different
        run — still raise :class:`~repro.errors.ConfigurationError`:
        those are operator errors, not media faults.
        """
        if not self.path.exists():
            return None
        try:
            text = self.path.read_text()
        except UnicodeDecodeError as exc:
            return self._quarantine(f"undecodable bytes ({exc})")
        except OSError as exc:
            raise ConfigurationError(
                f"checkpoint {self.path} is unreadable: {exc}") from exc
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            return self._quarantine(f"truncated or torn JSON ({exc})")
        if not isinstance(payload, dict):
            return self._quarantine(
                f"payload is {type(payload).__name__}, not an object")
        schema = payload.get("schema")
        if not (isinstance(schema, int)
                and _OLDEST_READABLE_SCHEMA <= schema <= CHECKPOINT_SCHEMA):
            raise ConfigurationError(
                f"checkpoint {self.path} has schema {schema!r}, "
                f"expected {_OLDEST_READABLE_SCHEMA}..{CHECKPOINT_SCHEMA}")
        saved = payload.get("fingerprint")
        if saved != self.fingerprint:
            raise ConfigurationError(
                f"checkpoint {self.path} was written by a run with "
                f"fingerprint {saved!r}, not {self.fingerprint!r}; "
                "delete it or rerun with the original configuration")
        done = payload.get("done", {})
        if not isinstance(done, dict):
            return self._quarantine(
                f"'done' is {type(done).__name__}, not an object")
        if schema >= 2:
            expected = payload.get("checksum")
            actual = _content_checksum(done)
            if expected != actual:
                return self._quarantine(
                    f"checksum mismatch (stored {expected!r}, "
                    f"content {actual!r})")
        obs.metrics().counter("checkpoint.resumes").inc()
        obs.event("checkpoint.resumed", path=str(self.path), items=len(done))
        _log.info("resumed checkpoint %s: %d item(s) already done",
                  self.path, len(done))
        return done

    def _quarantine(self, reason: str) -> Optional[Dict[str, Any]]:
        """Move a corrupt checkpoint aside and resume from scratch."""
        sidecar = self.path.with_name(self.path.name + ".corrupt")
        try:
            os.replace(self.path, sidecar)
        except OSError:
            sidecar = self.path  # could not move it; leave it in place
        _log.warning("checkpoint %s is corrupt (%s); quarantined to %s, "
                     "resuming from scratch", self.path, reason, sidecar)
        obs.metrics().counter("checkpoint.corruptions").inc()
        obs.event("checkpoint.corrupt", path=str(self.path),
                  sidecar=str(sidecar), reason=reason)
        return None

    def save(self, done: Dict[str, Any]) -> None:
        """Atomically snapshot ``done`` (temp file + fsync + rename).

        The temp fd is fsynced before the rename so a power loss right
        after ``os.replace`` cannot leave the *new* name pointing at
        unwritten blocks; the directory is fsynced best-effort so the
        rename itself is durable.  The payload carries a content
        checksum over ``done`` (schema 2), which is what lets
        :meth:`load` distinguish a torn write from a good snapshot.
        """
        payload = {
            "schema": CHECKPOINT_SCHEMA,
            "fingerprint": self.fingerprint,
            "checksum": _content_checksum(done),
            "done": done,
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(
            dir=self.path.parent, prefix=self.path.name, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, self.path)
            try:
                dir_fd = os.open(self.path.parent, os.O_RDONLY)
            except OSError:
                pass  # platform without directory fds: rename still atomic
            else:
                try:
                    os.fsync(dir_fd)
                except OSError:
                    pass  # best-effort: some filesystems refuse dir fsync
                finally:
                    os.close(dir_fd)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        obs.metrics().counter("checkpoint.saves").inc()
        obs.event("checkpoint.saved", path=str(self.path), items=len(done))

    def clear(self) -> None:
        """Delete the checkpoint file (a completed run needs no resume)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


@dataclasses.dataclass(frozen=True)
class SweepOutcome:
    """Accounting of one (possibly partial) sweep.

    ``results`` maps item key -> decoded result for every *completed*
    item, in sweep order.  ``attempted`` counts items actually tried
    this process plus those restored from a checkpoint; items skipped
    because the budget ran out are neither attempted nor failed.
    ``failures`` are keys whose evaluation raised a
    :class:`~repro.errors.ReproError`; ``quarantined`` are keys the
    supervision layer gave up on after exhausting their retry budget
    on process-level faults (crash, hang, deadline) — every item the
    sweep touched lands in exactly one of the three.  ``interrupted``
    marks an outcome cut short by SIGTERM/Ctrl-C: partial but honest,
    with the final checkpoint already written.
    """

    results: Dict[str, Any]
    completed: int
    attempted: int
    failures: Tuple[str, ...]  # item keys whose evaluation raised
    exhausted: Optional[str]  # "max_seconds" | "max_failures" | None
    quarantined: Tuple[str, ...] = ()  # keys retired by the supervisor
    interrupted: bool = False  # cut short by SIGTERM / KeyboardInterrupt
    #: Structured :class:`repro.exec.supervise.TimeoutFailure` records,
    #: one per deadline/hang strike (including strikes on samples that
    #: later succeeded on retry).  Typed loosely to keep this module
    #: free of an executor dependency.
    timeouts: Tuple[Any, ...] = ()

    @property
    @pure
    def complete(self) -> bool:
        """Every item finished and none failed."""
        return (self.exhausted is None and not self.failures
                and not self.quarantined and not self.interrupted)

    @pure
    def describe(self) -> str:
        parts = [f"{self.completed}/{self.attempted} completed"]
        if self.failures:
            parts.append(f"{len(self.failures)} failed")
        if self.quarantined:
            parts.append(f"{len(self.quarantined)} quarantined")
        if self.exhausted:
            parts.append(f"stopped on {self.exhausted}")
        if self.interrupted:
            parts.append("interrupted")
        return ", ".join(parts)
