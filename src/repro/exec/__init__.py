"""repro.exec — the one sweep executor.

:func:`run_parallel_sweep` evaluates keyed ``(key, fn, args)`` work
items in-process (``jobs=1``) or over a process pool, in dispatch
units of ``chunk_size`` items, with the same
:class:`~repro.checkpoint.SweepOutcome` accounting, checkpoint format
and ordered merge at every setting.  A :class:`SupervisionPolicy`
(disabled by default) adds a per-unit deadline, a hung-worker
watchdog, seeded retry with backoff, quarantine and pool degradation;
:func:`tick` and :func:`sample_deadline` are the cooperative hooks,
:func:`trap_termination` the SIGTERM trap.
"""

from repro.exec.parallel import run_parallel_sweep
from repro.exec.supervise import (SupervisionPolicy, TimeoutFailure,
                                  sample_deadline, tick, trap_termination)

__all__ = [
    "run_parallel_sweep",
    "SupervisionPolicy",
    "TimeoutFailure",
    "sample_deadline",
    "tick",
    "trap_termination",
]
