"""Live sweep progress: rate, ETA and failure counts on stderr.

Long sweeps (``repro mc --jobs 8``, ``repro optimize --jobs 4``) used
to be silent until done.  :class:`SweepProgress` renders a single
self-overwriting status line::

    mc:  1337/10000  412.3/s  eta 21s  failures 2

It is deliberately dumb and cheap: the sweep loop calls
:meth:`advance` once per merged item, and the reporter re-renders at
most every ``min_interval`` seconds.  By default the line only appears
when the stream is a TTY (CI logs stay clean); ``enabled=True`` forces
it (the ``--progress`` flag), ``enabled=False`` silences it.

The counts come from the parent's deterministic ordered merge — one
``advance`` per merged item, a Monte-Carlo sample even inside a
``--batch`` unit — so the progress line ends on the final
:class:`~repro.checkpoint.SweepOutcome`'s completed/failed counts.
"""

from __future__ import annotations

import sys
import time
from typing import Any, Optional, TextIO


class SweepProgress:
    """Single-line progress reporter for keyed sweeps."""

    def __init__(self, total: int, label: str = "sweep",
                 stream: Optional[TextIO] = None,
                 enabled: Optional[bool] = None,
                 min_interval: float = 0.2) -> None:
        self.total = max(0, int(total))
        self.label = label
        self.stream = stream if stream is not None else sys.stderr
        if enabled is None:
            enabled = bool(getattr(self.stream, "isatty", lambda: False)())
        self.enabled = enabled
        self.min_interval = min_interval
        self.completed = 0
        self.failed = 0
        self.restored = 0
        self._started = time.monotonic()
        self._last_render = 0.0
        self._line_open = False

    # -- accounting ------------------------------------------------------------

    def note_restored(self, count: int) -> None:
        """Items already done (checkpoint resume) — excluded from rate."""
        self.restored += count
        self.completed += count
        self.render()

    def advance(self, completed: int = 0, failed: int = 0) -> None:
        """Record merged items; re-renders the line when due."""
        self.completed += completed
        self.failed += failed
        self.render()

    # -- rendering -------------------------------------------------------------

    def _rate(self) -> float:
        fresh = (self.completed - self.restored) + self.failed
        elapsed = time.monotonic() - self._started
        return fresh / elapsed if elapsed > 0 and fresh > 0 else 0.0

    def _eta_seconds(self) -> Optional[float]:
        rate = self._rate()
        if rate <= 0:
            return None
        remaining = self.total - self.completed - self.failed
        return max(0.0, remaining / rate)

    def status_line(self) -> str:
        parts = [f"{self.label}: {self.completed:>4}/{self.total}"]
        rate = self._rate()
        if rate > 0:
            parts.append(f"{rate:.1f}/s")
        eta = self._eta_seconds()
        if eta is not None:
            parts.append(f"eta {_format_seconds(eta)}")
        if self.failed:
            parts.append(f"failures {self.failed}")
        return "  ".join(parts)

    def render(self, force: bool = False) -> None:
        if not self.enabled:
            return
        now = time.monotonic()
        if not force and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        self.stream.write("\r\x1b[2K" + self.status_line())
        self.stream.flush()
        self._line_open = True

    def finish(self) -> None:
        """Final render plus the newline that releases the line."""
        if not self.enabled:
            return
        self.render(force=True)
        if self._line_open:
            self.stream.write("\n")
            self.stream.flush()
            self._line_open = False


def _format_seconds(seconds: float) -> str:
    if seconds < 90:
        return f"{seconds:.0f}s"
    if seconds < 5400:
        return f"{seconds / 60:.1f}m"
    return f"{seconds / 3600:.1f}h"


def progress_for_args(args: Any, total: int, label: str) -> SweepProgress:
    """Build the CLI's progress reporter from parsed arguments.

    ``--progress`` forces the line on; without it the reporter
    auto-enables only on a TTY stderr.
    """
    forced = bool(getattr(args, "progress", False))
    return SweepProgress(total=total, label=label,
                         enabled=True if forced else None)
