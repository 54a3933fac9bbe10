"""Monte-Carlo engine and worst-case estimators.

``run_monte_carlo`` evaluates a scalar model under sampled parameters;
the worst-case helpers extrapolate to the paper's "6 sigma worst case",
which brute-force sampling cannot reach (P(6 sigma) ~ 1e-9) — exactly
why analytic tail extrapolation on a fitted distribution is the standard
memory-design practice this module implements.

``batch > 1`` vectorizes the sampling axis: it is the executor's
dispatch unit, and when the model is a
:class:`~repro.spice.batch.BatchTransientModel` the ``batch`` consecutive
samples of a unit are solved together by the batched stamp-plan Newton
engine
(:func:`~repro.spice.batch.eval_model_batch`), which is bit-identical to
the per-sample serial path by construction — so every ``batch`` setting
produces the same statistics and resumes from the same checkpoints.  A
model without a batched twin silently degrades to ``batch=1`` (logged as
an ``mc.batch.fallback`` event).
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro import obs
from repro.analysis.effects import deterministic_under_seed
from repro.checkpoint import Checkpoint, RunBudget
from repro.errors import ConfigurationError, SimulationError
from repro.exec import SupervisionPolicy, run_parallel_sweep
from repro.spice.batch import BatchTransientModel, eval_model_batch


@dataclasses.dataclass(frozen=True)
class MonteCarloResult:
    """Samples plus summary statistics of one MC run."""

    samples: np.ndarray

    def __post_init__(self) -> None:
        if len(self.samples) < 2:
            raise ConfigurationError("need at least 2 MC samples")

    @property
    def mean(self) -> float:
        return float(np.mean(self.samples))

    @property
    def std(self) -> float:
        return float(np.std(self.samples, ddof=1))

    @property
    def median(self) -> float:
        return float(np.median(self.samples))

    def log_stats(self) -> tuple[float, float]:
        """(mu, sigma) of ln(samples); requires positive samples."""
        if np.any(self.samples <= 0):
            raise ConfigurationError("log statistics need positive samples")
        logs = np.log(self.samples)
        return float(np.mean(logs)), float(np.std(logs, ddof=1))


@deterministic_under_seed
def _mc_eval(model: Callable[[np.random.Generator], float],
             child: np.random.SeedSequence) -> float:
    """One sample from its seed stream (module-level so workers can
    unpickle it)."""
    return float(model(np.random.default_rng(child)))


class _BatchedEval:
    """:func:`_mc_eval` whose dispatch units are solved as one batch.

    The executor evaluates a unit of items sharing this callable by one
    :meth:`batch` call: a single :func:`eval_model_batch` over the
    samples' own streams, bit-identical to evaluating each, with one
    ``(ok, value or error)`` outcome per sample.
    """

    def __call__(self, model: BatchTransientModel,
                 child: np.random.SeedSequence) -> float:
        return _mc_eval(model, child)

    @staticmethod
    def batch(calls) -> List[Tuple[bool, object]]:
        model = calls[0][0]
        return eval_model_batch(
            model, [np.random.default_rng(child) for _model, child in calls])


def _effective_batch(model, batch: int) -> int:
    """Clamp ``batch`` to 1 for models without a batched twin.

    Only a :class:`~repro.spice.batch.BatchTransientModel` carries the
    draw/build/measure decomposition the batched engine needs; any other
    callable runs per-sample exactly as before.  The degradation is
    observable (``mc.batch.fallback``), not an error, so sweep scripts
    can pass ``--batch`` unconditionally.
    """
    if batch < 1:
        raise ConfigurationError("batch must be >= 1")
    if batch > 1 and not isinstance(model, BatchTransientModel):
        obs.metrics().counter("mc.batch.fallback").inc()
        obs.event("mc.batch.fallback", batch=batch,
                  model=type(model).__name__)
        return 1
    return batch


def run_monte_carlo(model: Callable[[np.random.Generator], float],
                    count: int,
                    seed: Optional[int] = 0,
                    jobs: int = 1,
                    batch: int = 1) -> MonteCarloResult:
    """Evaluate ``model`` ``count`` times with independent RNG streams.

    Each call receives a generator spawned from a common seed sequence,
    so results are reproducible yet streams are independent.  This is
    :func:`run_monte_carlo_resumable` without checkpoint, stopping at
    the first failed sample with a :class:`SimulationError`.  Every
    ``jobs`` (process pool; ``model`` must be picklable) and ``batch``
    (module docstring) setting returns bit-identical samples.
    """
    outcome = run_monte_carlo_resumable(
        model, count, seed=seed, jobs=jobs, batch=batch,
        budget=RunBudget(max_failures=1))
    if outcome.failed:
        raise SimulationError(
            f"Monte-Carlo sample {outcome.attempted - 1} of {count} failed")
    if outcome.result is None or not outcome.complete:
        raise KeyboardInterrupt  # the sweep was interrupted, not finished
    return outcome.result


@dataclasses.dataclass(frozen=True)
class MonteCarloOutcome:
    """A (possibly partial) resumable MC run with explicit accounting.

    ``result`` is ``None`` when fewer than 2 samples completed (nothing
    statistical can be said); otherwise it summarises the completed
    samples.  ``completed + failed <= attempted <= requested``; samples
    never attempted (budget ran out first) make up the difference.
    """

    result: Optional[MonteCarloResult]
    requested: int
    completed: int
    attempted: int
    failed: int
    exhausted: Optional[str]  # "max_seconds" | "max_failures" | None

    @property
    def complete(self) -> bool:
        return self.completed == self.requested

    def describe(self) -> str:
        parts = [f"{self.completed}/{self.requested} samples"]
        if self.failed:
            parts.append(f"{self.failed} failed")
        if self.exhausted:
            parts.append(f"stopped on {self.exhausted}")
        return ", ".join(parts)


class _SequentialStateCheckpoint:
    """Adapts the executor's ``done``-dict saves to MC's state format.

    :func:`run_parallel_sweep` snapshots a ``{key: value}`` mapping;
    the MC checkpoint schema is ``{"next", "samples", "failed"}``.
    Because the executor merges in item order, the ``done`` keys are
    always a contiguous run of sample indexes, which translates exactly
    at every ``jobs`` and ``batch``.  A *failed* sample leaves a hole,
    so mid-run saves advance ``next`` only up to the first new failure
    — resuming from such a snapshot deterministically recomputes (and
    re-fails) the same samples, keeping the final statistics
    bit-identical; the caller writes the exact reconciled state once
    the sweep returns.
    """

    def __init__(self, checkpoint: Checkpoint, state: dict) -> None:
        self._checkpoint = checkpoint
        self._next0 = int(state["next"])
        self._samples0 = list(state["samples"])
        self._failed0 = list(state["failed"])

    def load(self) -> None:
        return None  # the caller already consumed the base state

    def save(self, done: dict) -> None:
        samples = list(self._samples0)
        index = self._next0
        while str(index) in done:
            samples.append(done[str(index)])
            index += 1
        self._checkpoint.save({"next": index, "samples": samples,
                               "failed": list(self._failed0)})


def run_monte_carlo_resumable(model: Callable[[np.random.Generator], float],
                              count: int,
                              seed: Optional[int] = 0,
                              checkpoint: Optional[Checkpoint] = None,
                              budget: Optional[RunBudget] = None,
                              save_every: int = 64,
                              jobs: int = 1,
                              progress=None,
                              policy: Optional[SupervisionPolicy] = None,
                              batch: int = 1) -> MonteCarloOutcome:
    """Checkpointed, budget-bounded Monte-Carlo over ``count`` samples.

    Sample ``i`` is sweep item ``str(i)`` and always draws from child
    stream ``i`` of the seed sequence, so a run killed mid-sweep and
    resumed from its checkpoint produces *bit-identical* statistics to
    an uninterrupted run with the same seed.  A sample whose model
    raises a :class:`~repro.errors.ReproError` is recorded as failed
    and skipped (deterministically — the same seed fails the same
    sample), counting against ``budget.max_failures``.

    The samples run through :func:`repro.exec.run_parallel_sweep` at
    every setting: in-process at ``jobs=1``, else over a process pool
    (the model must be picklable).  ``batch > 1`` is the dispatch
    unit, solved by one batched transient when the model supports it
    (module docstring).  Failures, the budget clock and ``progress``
    (one ``advance`` per sample, ``note_restored`` for checkpointed
    ones) stay per sample at every (jobs, batch); the budget is checked
    per merged sample, though a batch already dispatched runs to its
    end.  The checkpoint keeps the per-sample schema and is written
    only by this process, so any run resumes any other's checkpoint.
    A worker crash costs the one sample, not the sweep.  A ``policy``
    (:class:`~repro.exec.SupervisionPolicy`) adds per-unit deadlines,
    the hang watchdog, seeded retry and quarantine; quarantined samples
    are counted as failed.
    """
    if count < 2:
        raise ConfigurationError("count must be >= 2")
    batch = _effective_batch(model, batch)
    children = np.random.SeedSequence(seed).spawn(count)

    state: dict = {"next": 0, "samples": [], "failed": []}
    if checkpoint is not None:
        loaded = checkpoint.load()
        if loaded:
            state = {"next": int(loaded.get("next", 0)),
                     "samples": list(loaded.get("samples", [])),
                     "failed": list(loaded.get("failed", []))}
            if progress is not None and state["next"]:
                progress.note_restored(state["next"])

    start = state["next"]
    exhausted: Optional[str] = None
    if budget is not None and budget.max_failures is not None:
        # Failures restored from the checkpoint count against the budget.
        budget = dataclasses.replace(
            budget, max_failures=budget.max_failures - len(state["failed"]))
    if start < count:
        fn = _BatchedEval() if batch > 1 else _mc_eval
        outcome = run_parallel_sweep(
            [(str(index), fn, (model, children[index]))
             for index in range(start, count)],
            jobs=jobs,
            checkpoint=(_SequentialStateCheckpoint(checkpoint, state)
                        if checkpoint is not None else None),
            budget=budget, save_every=save_every,
            chunk_size=batch if batch > 1 else None,
            progress=progress, policy=policy)
        # The ordered merge makes the attempted samples a prefix.
        state["samples"].extend(outcome.results.values())
        state["failed"].extend(sorted(
            int(key) for key in outcome.failures + outcome.quarantined))
        state["next"] = start + outcome.attempted
        exhausted = outcome.exhausted
        if checkpoint is not None:
            checkpoint.save(state)

    samples = np.asarray(state["samples"], dtype=float)
    result = MonteCarloResult(samples=samples) if len(samples) >= 2 else None
    return MonteCarloOutcome(
        result=result,
        requested=count,
        completed=len(samples),
        attempted=state["next"],
        failed=len(state["failed"]),
        exhausted=exhausted,
    )


def worst_case_gaussian(result: MonteCarloResult, n_sigma: float,
                        tail: str = "low") -> float:
    """n-sigma worst case assuming a Gaussian population.

    ``tail="low"`` returns the low tail (e.g. slowest retention).
    """
    _check_tail(tail)
    sign = -1.0 if tail == "low" else 1.0
    return result.mean + sign * n_sigma * result.std

def worst_case_lognormal(result: MonteCarloResult, n_sigma: float,
                         tail: str = "low") -> float:
    """n-sigma worst case assuming a lognormal population.

    Retention times (inverse of a lognormal leakage) are lognormal; a
    Gaussian fit would produce negative retention at 6 sigma, which is
    the tell that the lognormal fit is the right one.
    """
    _check_tail(tail)
    mu, sigma = result.log_stats()
    sign = -1.0 if tail == "low" else 1.0
    return math.exp(mu + sign * n_sigma * sigma)


def empirical_quantile(result: MonteCarloResult, quantile: float) -> float:
    """Plain empirical quantile of the samples (for validated regions)."""
    if not 0.0 <= quantile <= 1.0:
        raise ConfigurationError("quantile must lie in [0, 1]")
    return float(np.quantile(result.samples, quantile))


def _check_tail(tail: str) -> None:
    if tail not in ("low", "high"):
        raise ConfigurationError(f"tail must be 'low' or 'high', got {tail!r}")
