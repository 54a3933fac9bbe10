"""The parallel executor's determinism contract, exercised end to end.

Every test here compares a parallel run against the serial harness (or
against the executor's own ``jobs=1`` delegation) because the contract
is *bit-identity*, not statistical similarity.  Worker callables live
at module level so they pickle across the process boundary.
"""

import os

import numpy as np
import pytest

from repro import obs
from repro.checkpoint import Checkpoint, RunBudget
from repro.errors import ConfigurationError, SimulationError
from repro.exec import run_parallel_sweep
from repro.variability.montecarlo import (
    run_monte_carlo,
    run_monte_carlo_resumable,
)

# -- picklable work functions (module-level by necessity) --------------------


def square(value):
    return value * value


def flaky(value):
    if value == 7:
        raise SimulationError("sample diverged")
    return value * value


def crashy(value):
    if value == 11:
        os._exit(3)  # simulate a segfaulting worker
    return value * value


def counting(value):
    obs.metrics().counter("test.work_items").inc()
    return value + 1


def emitting(value):
    obs.event("test.tick", key=value)
    obs.timeseries().series("test.values").sample(float(value), float(value))
    return value


def must_not_run(value):  # resumed items must come from the checkpoint
    raise AssertionError("evaluated an already-checkpointed item")


def mc_model(rng):
    return float(rng.normal(loc=1.0, scale=0.1))


def mc_flaky_model(rng):
    value = float(rng.normal())
    if value > 1.2:  # deterministic per seed stream
        raise SimulationError("tail sample rejected")
    return value


def items_of(fn, count=20):
    return [(f"k{i}", fn, (i,)) for i in range(count)]


# -- ordering and determinism ------------------------------------------------


class TestDeterminism:
    def test_parallel_matches_serial_results(self):
        serial = run_parallel_sweep(items_of(square), jobs=1)
        parallel = run_parallel_sweep(items_of(square), jobs=2)
        assert parallel.results == serial.results
        assert parallel.failures == serial.failures == ()
        assert parallel.completed == serial.completed == 20

    def test_result_order_is_item_order(self):
        outcome = run_parallel_sweep(items_of(square), jobs=3)
        assert list(outcome.results) == [f"k{i}" for i in range(20)]

    def test_chunk_size_never_changes_results(self):
        one = run_parallel_sweep(items_of(square), jobs=2, chunk_size=1)
        big = run_parallel_sweep(items_of(square), jobs=2, chunk_size=16)
        assert one.results == big.results

    def test_jobs_one_is_the_serial_harness(self):
        thunks = [(key, lambda fn=fn, args=args: fn(*args), ())
                  for key, fn, args in items_of(square)]
        assert (run_parallel_sweep(items_of(square), jobs=1).results
                == run_parallel_sweep(thunks).results)


# -- failure isolation -------------------------------------------------------


class TestFailureIsolation:
    def test_repro_error_is_a_recorded_failure(self):
        outcome = run_parallel_sweep(items_of(flaky), jobs=2)
        assert outcome.failures == ("k7",)
        assert "k7" not in outcome.results
        assert outcome.completed == 19 and outcome.attempted == 20

    def test_worker_crash_costs_one_sample(self):
        outcome = run_parallel_sweep(items_of(crashy), jobs=2)
        assert outcome.failures == ("k11",)
        assert outcome.results["k10"] == 100
        assert outcome.results["k12"] == 144
        assert outcome.completed == 19

    def test_crash_increments_counter_when_instrumented(self):
        with obs.instrumented() as registry:
            run_parallel_sweep(items_of(crashy), jobs=2)
            snapshot = registry.snapshot()
        assert snapshot["counters"]["sweep.worker_crashes"] == 1

    def test_non_repro_error_reraises_in_parent(self):
        items = [("k0", square, (1,)),
                 ("k1", int, ("not-a-number",))]
        with pytest.raises(ValueError):
            run_parallel_sweep(items, jobs=2)

    def test_max_failures_budget_stops_the_sweep(self):
        outcome = run_parallel_sweep(
            items_of(flaky), jobs=2, chunk_size=1,
            budget=RunBudget(max_failures=1))
        assert outcome.exhausted == "max_failures"
        assert outcome.failures == ("k7",)


# -- checkpointing -----------------------------------------------------------


class TestCheckpointResume:
    def test_resume_skips_completed_items(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "sweep.json", "fp-exec")
        first = run_parallel_sweep(items_of(square), jobs=2, checkpoint=ckpt)
        # Re-running must read every value back rather than re-evaluate.
        second = run_parallel_sweep(items_of(must_not_run), jobs=2,
                                    checkpoint=ckpt)
        assert second.results == first.results

    def test_parallel_checkpoint_equals_serial_checkpoint(self, tmp_path):
        serial = Checkpoint(tmp_path / "serial.json", "fp-eq")
        parallel = Checkpoint(tmp_path / "parallel.json", "fp-eq")
        run_parallel_sweep(items_of(square), jobs=1, checkpoint=serial)
        run_parallel_sweep(items_of(square), jobs=3, checkpoint=parallel)
        assert serial.load() == parallel.load()

    def test_failures_are_not_checkpointed(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "flaky.json", "fp-flaky")
        run_parallel_sweep(items_of(flaky), jobs=2, checkpoint=ckpt)
        assert "k7" not in ckpt.load()


# -- worker metrics ----------------------------------------------------------


class TestMetricsMerge:
    def test_worker_counters_fold_into_parent(self):
        with obs.instrumented() as registry:
            run_parallel_sweep(items_of(counting), jobs=2)
            snapshot = registry.snapshot()
        assert snapshot["counters"]["test.work_items"] == 20

    def test_disabled_instrumentation_ships_no_snapshots(self):
        outcome = run_parallel_sweep(items_of(counting), jobs=2)
        assert outcome.completed == 20  # NullRegistry absorbed the incs


class TestTelemetryForwarding:
    def test_worker_events_fold_into_parent_in_item_order(self):
        with obs.instrumented():
            run_parallel_sweep(items_of(emitting), jobs=2, chunk_size=3)
            events = obs.events().events()
        # Events arrive in submission order regardless of which worker
        # finished first — the deterministic ordered merge.
        assert [e.payload["key"] for e in events] == list(range(20))
        assert all(e.kind == "test.tick" for e in events)

    def test_parallel_event_order_matches_serial(self):
        def payloads(jobs):
            with obs.instrumented():
                run_parallel_sweep(items_of(emitting), jobs=jobs)
                return [(e.kind, e.payload) for e in obs.events().events()]
        assert payloads(3) == payloads(1)

    def test_worker_series_merge_exactly(self):
        with obs.instrumented():
            run_parallel_sweep(items_of(emitting), jobs=2, chunk_size=4)
            series = obs.timeseries().series("test.values")
            assert series.count == 20
            assert series.sum == sum(range(20))
            assert series.min == 0.0
            assert series.max == 19.0

    def test_crash_emits_event_in_parent(self):
        with obs.instrumented():
            run_parallel_sweep(items_of(crashy), jobs=2)
            kinds = obs.events().kinds()
        assert kinds.get("sweep.worker_crash") == 1


class FakeProgress:
    def __init__(self):
        self.restored = 0
        self.calls = []

    def note_restored(self, count):
        self.restored += count

    def advance(self, completed=0, failed=0):
        self.calls.append((completed, failed))


class TestProgressReporting:
    def test_one_advance_per_item(self):
        progress = FakeProgress()
        run_parallel_sweep(items_of(square), jobs=2, progress=progress)
        assert progress.calls == [(1, 0)] * 20

    def test_failures_reported(self):
        progress = FakeProgress()
        run_parallel_sweep(items_of(flaky), jobs=2, progress=progress)
        assert progress.calls.count((0, 1)) == 1
        assert progress.calls.count((1, 0)) == 19

    def test_checkpoint_restores_noted(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "sweep.json", "fp-progress")
        run_parallel_sweep(items_of(square), jobs=2, checkpoint=ckpt)
        progress = FakeProgress()
        run_parallel_sweep(items_of(must_not_run), jobs=2, checkpoint=ckpt,
                           progress=progress)
        assert progress.restored == 20
        assert progress.calls == []


# -- validation --------------------------------------------------------------


class TestValidation:
    def test_duplicate_keys_rejected(self):
        items = [("dup", square, (1,)), ("dup", square, (2,))]
        with pytest.raises(ConfigurationError):
            run_parallel_sweep(items, jobs=2)

    def test_bad_jobs_rejected(self):
        with pytest.raises(ConfigurationError):
            run_parallel_sweep(items_of(square), jobs=0)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigurationError):
            run_parallel_sweep(items_of(square), jobs=2, chunk_size=0)


# -- Monte-Carlo integration -------------------------------------------------


class TestMonteCarloParallel:
    def test_samples_bit_identical_across_jobs(self):
        serial = run_monte_carlo(mc_model, 32, seed=9)
        parallel = run_monte_carlo(mc_model, 32, seed=9, jobs=2)
        assert np.array_equal(serial.samples, parallel.samples)

    def test_resumable_parallel_matches_serial(self):
        serial = run_monte_carlo_resumable(mc_flaky_model, 40, seed=3)
        parallel = run_monte_carlo_resumable(mc_flaky_model, 40, seed=3,
                                             jobs=4)
        assert np.array_equal(serial.result.samples, parallel.result.samples)
        assert parallel.failed == serial.failed
        assert parallel.completed == serial.completed

    def test_parallel_resume_from_serial_checkpoint(self, tmp_path):
        reference = run_monte_carlo_resumable(mc_model, 24, seed=5)
        # Hand-write the state a killed serial run would have left.
        ckpt = Checkpoint(tmp_path / "mc.json", "fp-mc")
        ckpt.save({"next": 13,
                   "samples": list(reference.result.samples[:13]),
                   "failed": []})
        resumed = run_monte_carlo_resumable(mc_model, 24, seed=5,
                                            checkpoint=ckpt, jobs=4)
        assert np.array_equal(resumed.result.samples,
                              reference.result.samples)

    def test_parallel_checkpoint_keeps_sequential_schema(self, tmp_path):
        ckpt = Checkpoint(tmp_path / "schema.json", "fp-schema")
        run_monte_carlo_resumable(mc_model, 16, seed=1, checkpoint=ckpt,
                                  jobs=2, save_every=4)
        state = ckpt.load()
        assert set(state) == {"next", "samples", "failed"}
        assert state["next"] == 16 and len(state["samples"]) == 16
