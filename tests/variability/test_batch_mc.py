"""Monte-Carlo ``batch`` wiring: identity, checkpoints, progress.

The engine contract is that ``batch`` (like ``jobs``) is a pure
throughput knob: every combination of the two produces bit-identical
sample vectors, resumes the same checkpoints, and reports progress in
*samples*.  The workload is a deliberately tiny transistor-level
local-block column (2 cells, 50 steps) so the full matrix of
combinations stays fast.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.cells.dram1t1c import Dram1t1cCell
from repro.checkpoint import Checkpoint, RunBudget
from repro.errors import ConfigurationError, SimulationError
from repro.units import ns, ps
from repro.variability.localblock_mc import LocalBlockMcModel
from repro.variability.montecarlo import (run_monte_carlo,
                                          run_monte_carlo_resumable)


def tiny_model() -> LocalBlockMcModel:
    return LocalBlockMcModel(Dram1t1cCell.scratchpad(), cells_per_lbl=2,
                             t_stop=0.05 * ns, dt=1.0 * ps)


class _Killed(BaseException):
    """Simulated kill; BaseException so no handler can swallow it."""


class _KillAfterSaves(Checkpoint):
    """Checkpoint that dies right *after* its n-th successful save —
    the poweroff-at-checkpoint-boundary scenario, deterministically."""

    def __init__(self, path, fingerprint, saves: int) -> None:
        super().__init__(path, fingerprint)
        self._remaining = saves

    def save(self, state) -> None:
        super().save(state)
        self._remaining -= 1
        if self._remaining == 0:
            raise _Killed


class _RecordingProgress:
    """Stands in for SweepProgress; records sample-level accounting."""

    def __init__(self) -> None:
        self.restored = 0
        self.completed = 0
        self.failed = 0

    def note_restored(self, count: int) -> None:
        self.restored += count

    def advance(self, completed: int = 0, failed: int = 0) -> None:
        self.completed += completed
        self.failed += failed


class TestBatchIdentity:
    def test_batch_matches_serial(self):
        model = tiny_model()
        serial = run_monte_carlo(model, 6, seed=3, batch=1)
        for batch in (2, 3, 6, 8):
            batched = run_monte_carlo(model, 6, seed=3, batch=batch)
            np.testing.assert_array_equal(batched.samples, serial.samples)

    def test_resumable_batch_matches_serial(self):
        model = tiny_model()
        serial = run_monte_carlo_resumable(model, 5, seed=9)
        batched = run_monte_carlo_resumable(model, 5, seed=9, batch=2)
        assert batched.complete
        np.testing.assert_array_equal(batched.result.samples,
                                      serial.result.samples)

    def test_batch_composes_with_jobs_and_counts_samples(self):
        model = tiny_model()
        serial = run_monte_carlo(model, 6, seed=3, batch=1)
        progress = _RecordingProgress()
        outcome = run_monte_carlo_resumable(model, 6, seed=3, jobs=2,
                                            batch=3, progress=progress)
        assert outcome.complete
        np.testing.assert_array_equal(outcome.result.samples,
                                      serial.samples)
        # The progress line advanced once per *sample*, not per chunk.
        assert progress.completed == 6
        assert progress.failed == 0


class TestBatchFallbackAndValidation:
    def test_plain_callable_falls_back_observably(self):
        model = lambda rng: float(rng.normal())  # noqa: E731
        with obs.instrumented() as registry:
            batched = run_monte_carlo(model, 8, seed=5, batch=4)
        assert registry.counter("mc.batch.fallback").value == 1
        serial = run_monte_carlo(model, 8, seed=5)
        np.testing.assert_array_equal(batched.samples, serial.samples)

    def test_batch_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            run_monte_carlo(tiny_model(), 4, batch=0)
        with pytest.raises(ConfigurationError):
            run_monte_carlo_resumable(tiny_model(), 4, batch=0)


class TestCheckpointCompat:
    """A ``--batch`` run's checkpoints are byte-compatible with every
    other (jobs, batch) combination — the ISSUE's resume guarantee."""

    def test_killed_batch_run_resumes_on_scalar_path(self, tmp_path):
        model = tiny_model()
        ckpt = _KillAfterSaves(tmp_path / "mc.json", "fp", saves=1)
        with pytest.raises(_Killed):
            run_monte_carlo_resumable(model, 6, seed=4, batch=2,
                                      checkpoint=ckpt, save_every=2)
        saved = Checkpoint(tmp_path / "mc.json", "fp").load()
        assert 0 < saved["next"] < 6  # genuinely partial
        resumed = run_monte_carlo_resumable(
            model, 6, seed=4, checkpoint=Checkpoint(tmp_path / "mc.json",
                                                    "fp"))
        assert resumed.complete
        straight = run_monte_carlo(model, 6, seed=4)
        np.testing.assert_array_equal(resumed.result.samples,
                                      straight.samples)

    def test_killed_scalar_run_resumes_on_batched_path(self, tmp_path):
        model = tiny_model()
        ckpt = _KillAfterSaves(tmp_path / "mc.json", "fp", saves=3)
        with pytest.raises(_Killed):
            run_monte_carlo_resumable(model, 6, seed=4, checkpoint=ckpt,
                                      save_every=1)
        saved = Checkpoint(tmp_path / "mc.json", "fp").load()
        assert saved["next"] == 3  # resume lands mid-batch-grid
        resumed = run_monte_carlo_resumable(
            model, 6, seed=4, batch=4,
            checkpoint=Checkpoint(tmp_path / "mc.json", "fp"))
        assert resumed.complete
        straight = run_monte_carlo(model, 6, seed=4)
        np.testing.assert_array_equal(resumed.result.samples,
                                      straight.samples)

    def test_budget_stops_between_batches(self):
        outcome = run_monte_carlo_resumable(
            tiny_model(), 6, seed=1, batch=2,
            budget=RunBudget(max_seconds=0.0))
        assert outcome.exhausted == "max_seconds"
        assert outcome.completed == 0



class _FlakyLocalBlock(LocalBlockMcModel):
    """Fails deterministically per stream: on an even picosecond count."""

    def measure(self, result, params):
        value = super().measure(result, params)
        if int(value * 1e12) % 2 == 0:
            raise SimulationError("flaky local block")
        return value


class TestBudgetPerSample:
    """``max_failures`` and the progress line count samples, not
    dispatch units, at every (jobs, batch)."""

    @staticmethod
    def run(jobs: int, batch: int):
        model = _FlakyLocalBlock(Dram1t1cCell.scratchpad(), cells_per_lbl=2,
                                 t_stop=0.05 * ns, dt=1.0 * ps)
        progress = _RecordingProgress()
        outcome = run_monte_carlo_resumable(
            model, 12, seed=3, jobs=jobs, batch=batch, progress=progress,
            budget=RunBudget(max_failures=1))
        return outcome, progress

    @pytest.mark.parametrize("jobs,batch", [(1, 1), (1, 4), (2, 1), (2, 4)])
    def test_max_failures_and_progress_per_sample(self, jobs, batch):
        reference, _ = self.run(1, 1)
        assert reference.exhausted == "max_failures"
        outcome, progress = self.run(jobs, batch)
        assert ((outcome.requested, outcome.attempted, outcome.completed,
                 outcome.failed, outcome.exhausted)
                == (reference.requested, reference.attempted,
                    reference.completed, reference.failed,
                    reference.exhausted))
        assert (outcome.result.samples.tobytes()
                == reference.result.samples.tobytes())
        assert (progress.completed, progress.failed) == (outcome.completed,
                                                         outcome.failed)
