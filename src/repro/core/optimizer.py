"""Design-space optimisation over the architecture knobs.

Given a capacity and constraints (max access time, minimum sensing
yield, supply ceiling), the optimiser walks the discrete design grid —
cells per LBL, word width, supply voltage — prices every feasible
candidate with the macro models, and returns the best candidate per
objective plus the Pareto front of the (access time, total power, area)
space.  This is the tool a system integrator would actually run before
adopting the paper's macro.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence

from repro.analysis.effects import deterministic_under_seed
from repro.checkpoint import Checkpoint, RunBudget
from repro.core.fastdram import FastDramDesign
from repro.exec import SupervisionPolicy, run_parallel_sweep
from repro.core.voltage import scaled_supply_design
from repro.errors import ConfigurationError
from repro.units import MHz, kb, ms

OBJECTIVES = ("access_time", "total_power", "area", "energy_per_bit")


@dataclasses.dataclass(frozen=True)
class DesignCandidate:
    """One evaluated point of the design grid."""

    cells_per_lbl: int
    word_bits: int
    vdd: float
    access_time: float
    read_energy: float
    write_energy: float
    energy_per_bit: float
    area: float
    static_power: float
    total_power: float  # at the optimiser's activity point

    def metric(self, objective: str) -> float:
        if objective not in OBJECTIVES:
            raise ConfigurationError(
                f"unknown objective {objective!r}; choose from {OBJECTIVES}")
        return getattr(self, objective)

    def dominates(self, other: "DesignCandidate") -> bool:
        """Pareto dominance on (access_time, total_power, area)."""
        axes = ("access_time", "total_power", "area")
        no_worse = all(getattr(self, a) <= getattr(other, a) for a in axes)
        better = any(getattr(self, a) < getattr(other, a) for a in axes)
        return no_worse and better


@dataclasses.dataclass(frozen=True)
class OptimisationResult:
    """Outcome of one (possibly partial) grid search.

    ``completed``/``attempted`` count grid points actually evaluated
    (``attempted`` includes points whose evaluation failed);
    ``exhausted`` names the budget ceiling that stopped a partial run
    (``None`` for a full search).  A partial result still carries the
    front and per-objective bests over the points it did evaluate.
    """

    candidates: List[DesignCandidate]
    pareto_front: List[DesignCandidate]
    best: Dict[str, DesignCandidate]
    completed: int = 0
    attempted: int = 0
    exhausted: Optional[str] = None

    def __post_init__(self) -> None:
        if not self.candidates:
            raise ConfigurationError("no feasible design candidates")

    @property
    def complete(self) -> bool:
        return self.exhausted is None and self.completed == self.attempted


@dataclasses.dataclass(frozen=True)
class DesignOptimizer:
    """Exhaustive search over the fast-DRAM design grid.

    Parameters
    ----------
    total_bits:
        Macro capacity.
    max_access_time:
        Feasibility constraint, seconds (None = unconstrained).
    activity:
        Activity point for the total-power objective, defined for
        32-bit-word traffic.  Candidates with other word widths carry a
        bandwidth-fair scaled activity (a 16-bit macro must access twice
        per 32 bits delivered), so the word-width axis is compared at
        constant data bandwidth, not constant access rate.
    clock_frequency:
        Clock for the dynamic-power term.
    retention:
        Refresh period basis for the static-power term.
    """

    total_bits: int = 128 * kb
    max_access_time: float | None = None
    activity: float = 0.1
    clock_frequency: float = 500 * MHz
    retention: float = 1 * ms
    cells_per_lbl_grid: Sequence[int] = (16, 32, 64, 128)
    word_bits_grid: Sequence[int] = (16, 32, 64)
    vdd_grid: Sequence[float] = (1.0, 1.2, 1.3)

    def __post_init__(self) -> None:
        if not 0.0 <= self.activity <= 1.0:
            raise ConfigurationError("activity must lie in [0, 1]")
        if self.clock_frequency <= 0 or self.retention <= 0:
            raise ConfigurationError("clock and retention must be positive")

    # -- evaluation ----------------------------------------------------------

    @deterministic_under_seed
    def _evaluate(self, cells: int, word_bits: int,
                  vdd: float) -> DesignCandidate | None:
        if self.total_bits % (cells * word_bits):
            return None
        try:
            design = scaled_supply_design(
                FastDramDesign(cells_per_lbl=cells), vdd)
            macro = design.build(self.total_bits, word_bits=word_bits,
                                 retention_override=self.retention)
            access_time = macro.access_time()
        except ConfigurationError:
            return None  # infeasible corner of the grid (signal, supply)
        if (self.max_access_time is not None
                and access_time > self.max_access_time):
            return None
        read = macro.read_energy().total
        write = macro.write_energy().total
        static = macro.static_power().power
        bandwidth_fair_activity = min(1.0, self.activity * 32.0 / word_bits)
        dynamic = (bandwidth_fair_activity * self.clock_frequency
                   * 0.5 * (read + write))
        return DesignCandidate(
            cells_per_lbl=cells,
            word_bits=word_bits,
            vdd=vdd,
            access_time=access_time,
            read_energy=read,
            write_energy=write,
            energy_per_bit=read / word_bits,
            area=macro.area(),
            static_power=static,
            total_power=static + dynamic,
        )

    # -- the search -----------------------------------------------------------

    def grid_points(self) -> List[tuple]:
        """The (cells, word_bits, vdd) grid in evaluation order."""
        return [(cells, word_bits, vdd)
                for cells in self.cells_per_lbl_grid
                for word_bits in self.word_bits_grid
                for vdd in self.vdd_grid]

    def run(self, checkpoint: Optional[Checkpoint] = None,
            budget: Optional[RunBudget] = None,
            jobs: int = 1,
            progress=None,
            policy: Optional[SupervisionPolicy] = None,
            batch: int = 1) -> OptimisationResult:
        """Evaluate the grid; returns candidates, front and bests.

        With a ``checkpoint`` the evaluated points are snapshotted and a
        killed search resumes where it stopped; with a ``budget`` the
        search stops at the ceiling and returns the partial result with
        explicit ``completed/attempted`` accounting (still an error if
        *no* evaluated point is feasible).  ``jobs > 1`` prices grid
        points in worker processes (this frozen dataclass pickles, so
        the bound evaluator ships directly) with identical results.
        A ``policy`` (:class:`~repro.exec.SupervisionPolicy`) with any
        knob enabled adds deadlines per dispatch unit, the hang
        watchdog and seeded retry on top, at any ``jobs`` setting.

        The grid pricing is analytic (no transient Newton solve), so
        ``batch`` here controls only the executor's dispatch chunking:
        each worker round-trip prices ``batch`` grid points.  Results
        are identical at every setting; ``batch=1`` keeps the
        executor's own default chunking.
        """
        if batch < 1:
            raise ConfigurationError("batch must be >= 1")
        grid = self.grid_points()
        items = [
            (f"cells={cells},word={word_bits},vdd={vdd:g}",
             self._evaluate, (cells, word_bits, vdd))
            for cells, word_bits, vdd in grid
        ]
        outcome = run_parallel_sweep(
            items, jobs=jobs, checkpoint=checkpoint, budget=budget,
            encode=lambda c: None if c is None else dataclasses.asdict(c),
            decode=lambda raw: (None if raw is None
                                else DesignCandidate(**raw)),
            chunk_size=batch if batch > 1 else None,
            progress=progress, policy=policy,
        )
        candidates = [c for c in outcome.results.values() if c is not None]
        if not candidates:
            raise ConfigurationError(
                "no design on the grid satisfies the constraints"
                + (f" (stopped on {outcome.exhausted} after "
                   f"{outcome.completed} point(s))" if outcome.exhausted
                   else ""))
        front = [c for c in candidates
                 if not any(other.dominates(c) for other in candidates)]
        # Tie-break single-objective winners on the remaining axes so a
        # winner is never a dominated duplicate (e.g. equal-area designs
        # at different supplies).
        best = {
            objective: min(
                candidates,
                key=lambda c: (c.metric(objective), c.access_time,
                               c.total_power, c.area))
            for objective in OBJECTIVES
        }
        return OptimisationResult(candidates=candidates,
                                  pareto_front=front, best=best,
                                  completed=outcome.completed,
                                  attempted=outcome.attempted,
                                  exhausted=outcome.exhausted)
