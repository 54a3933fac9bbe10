"""Fixed-step transient engine.

Each time point is solved with damped Newton iteration over the
companion-model stamps of all elements.  Linear circuits converge in a
single iteration; the MOSFET and switch elements make it genuinely
nonlinear.  Backward Euler is the default (L-stable, forgiving);
trapezoidal integration is available when waveform energy accuracy
matters more than start-up transients.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from typing import Dict, Optional

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, ConvergenceError, SimulationError
from repro.exec.supervise import tick as _supervision_tick
from repro.spice.elements import Capacitor
from repro.spice.mna import MnaSystem, StampContext
from repro.spice.netlist import Circuit
from repro.spice.recovery import (DEFAULT_RECOVERY, RecoveryConfig,
                                  RecoveryReport, note_recovery_success)
from repro.spice.stampplan import StampPlan, stamping_order

_log = logging.getLogger(__name__)

_MAX_NEWTON = 250
_V_TOL = 1e-7
_DAMP_LIMIT = 0.4

#: Histogram buckets for Newton iterations spent per accepted timestep
#: (recovery rungs can burn hundreds on one stiff step).
_NEWTON_BUCKETS = (1, 2, 3, 5, 10, 20, 50, 100, 250)


class _NewtonMeter:
    """Accumulates Newton iterations across one output timestep.

    One histogram observation per *accepted timestep* (not per solve
    point): recovery attempts, substeps and ladder stages all fold into
    the step that needed them, so the fast path's iterate savings show
    up directly in run reports.  ``substeps`` records how many local
    substeps the *last* attempt used — after a successful step that is
    the accepted attempt, so ``dt / substeps`` is the effective local
    time step the telemetry series samples.
    """

    __slots__ = ("iterations", "substeps")

    def __init__(self) -> None:
        self.iterations = 0
        self.substeps = 1

    def add(self, iterations: int) -> None:
        self.iterations += iterations


@dataclasses.dataclass
class TransientResult:
    """Waveforms produced by :func:`simulate_transient`.

    ``data`` holds the raw solution matrix (time points x unknowns);
    access it through :meth:`voltage` and :meth:`branch_current`.
    """

    circuit: Circuit
    time: np.ndarray
    data: np.ndarray
    node_index: Dict[str, int]
    branch_index: Dict[str, int]

    def voltage(self, node: str) -> np.ndarray:
        """Waveform of ``node``; ground returns all zeros."""
        if node == "0":
            return np.zeros_like(self.time)
        try:
            return self.data[:, self.node_index[node]]
        except KeyError as exc:
            raise SimulationError(f"no node {node!r} in results") from exc

    def branch_current(self, source_name: str) -> np.ndarray:
        """Current through a voltage source (flowing p -> n inside it).

        A source delivering power to the circuit shows a *negative*
        branch current under this convention.
        """
        try:
            return self.data[:, self.branch_index[source_name]]
        except KeyError as exc:
            raise SimulationError(
                f"no voltage source named {source_name!r} in results"
            ) from exc

    def final_voltage(self, node: str) -> float:
        return float(self.voltage(node)[-1])


def simulate_transient(circuit: Circuit, t_stop: float, dt: float,
                       initial_voltages: Optional[Dict[str, float]] = None,
                       integrator: str = "be",
                       recovery: Optional[RecoveryConfig] = None,
                       stamp_plan: bool = True,
                       backend: str = "auto") -> TransientResult:
    """Simulate ``circuit`` from 0 to ``t_stop`` with fixed step ``dt``.

    ``initial_voltages`` pins the t=0 node voltages (unlisted nodes start
    at 0 V); capacitors with an ``initial_voltage`` override the implied
    difference across themselves by adjusting nothing — their companion
    history simply starts from the node values, so set the *node*
    voltages to express initial charge.

    ``recovery`` tunes the escalation ladder walked when a time point
    fails to converge (see :mod:`repro.spice.recovery`).

    ``stamp_plan`` selects the compiled fast path
    (:class:`~repro.spice.stampplan.StampPlan`, the default) or the
    legacy per-element stamping loop; both produce bit-identical
    results — the flag exists for benchmarking and verification.

    ``backend`` selects the linear kernel of the fast path: ``"dense"``,
    ``"sparse"``, or ``"auto"`` (the default: sparse at and above
    :data:`~repro.spice.stampplan.SPARSE_AUTO_THRESHOLD` unknowns).
    The sparse backend agrees with dense within the documented
    tolerance (see ``docs/ARCHITECTURE.md`` §15) instead of bit-exactly
    — a different elimination order rounds differently.

    Returns a :class:`TransientResult` with one row per accepted time
    point, including t=0.
    """
    _validate_time_grid(t_stop, dt)
    if integrator not in ("be", "trap"):
        raise SimulationError(f"unknown integrator {integrator!r}")
    if recovery is None:
        recovery = DEFAULT_RECOVERY
    steps = int(round(t_stop / dt))
    if steps < 1:
        raise SimulationError("t_stop shorter than one time step")

    system = MnaSystem(circuit)
    if not stamp_plan and backend == "sparse":
        raise ConfigurationError(
            "backend='sparse' requires the stamp-plan fast path")
    plan = StampPlan(system, backend=backend) if stamp_plan else None
    n_unknowns = system.size
    n_nodes = len(system.node_index)

    x = _initial_state(circuit, system, initial_voltages)

    capacitors = [e for e in circuit.elements if isinstance(e, Capacitor)]
    cap_state: Dict[str, float] = {c.name: 0.0 for c in capacitors}

    times = np.linspace(0.0, steps * dt, steps + 1)
    data = np.empty((steps + 1, n_unknowns))
    data[0] = x

    _log.debug("transient %r: %d steps of %gs (%s)",
               circuit.name, steps, dt, integrator)
    # Hoisted once per run: the disabled path pays a single None check
    # per accepted step, never a sampler call.
    if obs.is_enabled():
        iter_series = obs.timeseries().series("spice.newton.iterations")
        dt_series = obs.timeseries().series("spice.dt.effective")
    else:
        iter_series = dt_series = None
    with obs.span("spice.transient", circuit=circuit.name, steps=steps,
                  integrator=integrator,
                  backend=plan.backend if plan is not None else "dense",
                  device=plan.device if plan is not None else "legacy"):
        for step in range(1, steps + 1):
            # Cooperative deadline check: a supervised sample whose
            # transient runs past its budget raises DeadlineExceeded
            # here instead of waiting for the parent's hard kill.
            _supervision_tick()
            t = times[step]
            x_prev = data[step - 1]
            # Trapezoidal needs a consistent capacitor-current history,
            # which an arbitrary initial condition does not provide; the
            # standard remedy is one backward-Euler step to damp the
            # inconsistency.
            step_integrator = "be" if (integrator == "trap" and step == 1) \
                else integrator
            meter = _NewtonMeter()
            x = _solve_step_with_recovery(
                system, circuit, x_prev, t - dt, dt, step_integrator,
                cap_state, capacitors, recovery, plan=plan, meter=meter)
            obs.metrics().histogram("spice.newton.iterations",
                                    _NEWTON_BUCKETS).observe(meter.iterations)
            if iter_series is not None:
                iter_series.sample(t, meter.iterations)
                dt_series.sample(t, dt / meter.substeps)
            if integrator == "trap" and step == 1:
                ctx = StampContext(system=system, x=x, x_prev=x_prev, dt=dt,
                                   time=t, integrator="be",
                                   cap_state=cap_state)
                for cap in capacitors:
                    cap_state[cap.name] = cap.branch_current(ctx, x)
            data[step] = x
        obs.metrics().counter("spice.timesteps").inc(steps)

    return TransientResult(
        circuit=circuit,
        time=times,
        data=data,
        node_index=dict(system.node_index),
        branch_index=dict(system.branch_index),
    )


def _initial_state(circuit: Circuit, system: MnaSystem,
                   initial_voltages: Optional[Dict[str, float]]
                   ) -> np.ndarray:
    """The t=0 unknown vector: pinned nodes, then capacitor overrides.

    Shared with :mod:`repro.spice.batch` so batched runs start from the
    byte-identical state a scalar run would.  Capacitor overrides apply
    sequentially in circuit order (an override may read a node another
    capacitor just set), so this stays a Python loop by design.
    """
    x = np.zeros(system.size)
    if initial_voltages:
        for node, voltage in initial_voltages.items():
            idx = system.index(node)
            if idx >= 0:
                x[idx] = voltage
    for element in circuit.elements:
        if isinstance(element, Capacitor) and element.initial_voltage is not None:
            ia = system.index(element.node_a)
            ib = system.index(element.node_b)
            if ia >= 0 and (initial_voltages is None
                            or element.node_a not in initial_voltages):
                base = x[ib] if ib >= 0 else 0.0
                x[ia] = base + element.initial_voltage
    return x


def _validate_time_grid(t_stop: float, dt: float) -> None:
    """Reject meaningless time grids before the solve loop sees them.

    Non-finite or non-positive values used to fail deep in the Newton
    loop (or silently produce a one-point run); the error now names the
    offending value at the API boundary.
    """
    for name, value in (("t_stop", t_stop), ("dt", dt)):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigurationError(
                f"{name} must be a real number, got {value!r}")
        if not math.isfinite(value):
            raise ConfigurationError(f"{name}={value!r} is not finite")
        if value <= 0:
            raise ConfigurationError(f"{name}={value:g} must be positive")
    if dt > t_stop:
        raise ConfigurationError(
            f"dt={dt:g}s exceeds t_stop={t_stop:g}s: the run would not "
            "contain a single time step")


def _solve_step_with_recovery(system: MnaSystem, circuit: Circuit,
                              x_start: np.ndarray, t_start: float,
                              dt: float, integrator: str,
                              cap_state: Dict[str, float],
                              capacitors: list,
                              config: RecoveryConfig = DEFAULT_RECOVERY,
                              plan: "StampPlan | None" = None,
                              meter: "_NewtonMeter | None" = None
                              ) -> np.ndarray:
    """Advance one output step, escalating through the recovery ladder.

    Rung order is fixed (see :mod:`repro.spice.recovery`): plain Newton,
    stronger damping, local time-step halving, gmin stepping, source
    stepping.  The trapezoidal capacitor history is committed per
    successful substep (and restored before a retry), so every rung
    stays consistent for both integration methods.
    """
    report = RecoveryReport(circuit=circuit.name, time=t_start + dt)
    saved_state = dict(cap_state)

    def restore_state() -> None:
        cap_state.clear()
        cap_state.update(saved_state)

    def run_substeps(substeps: int, **solve_kwargs) -> np.ndarray:
        if meter is not None:
            meter.substeps = substeps
        x = x_start
        sub_dt = dt / substeps
        for sub in range(1, substeps + 1):
            t_sub = t_start + sub * sub_dt
            x_new = _solve_point(system, circuit, x, t_sub, sub_dt,
                                 integrator, cap_state,
                                 max_newton=config.max_newton,
                                 plan=plan, meter=meter,
                                 **solve_kwargs)
            if integrator == "trap":
                ctx = StampContext(
                    system=system, x=x_new, x_prev=x, dt=sub_dt,
                    time=t_sub, integrator=integrator,
                    cap_state=cap_state)
                for cap in capacitors:
                    cap_state[cap.name] = cap.branch_current(ctx, x_new)
            x = x_new
        return x

    last_error: ConvergenceError | None = None

    def attempt(rung: str, detail: str, substeps: int = 1,
                **solve_kwargs) -> "np.ndarray | None":
        nonlocal last_error
        # Each ladder rung is a fresh chance to notice an expired
        # per-sample deadline before burning more Newton iterations.
        _supervision_tick()
        restore_state()
        try:
            x = run_substeps(substeps, **solve_kwargs)
        except ConvergenceError as exc:
            last_error = exc
            report.record(rung, detail, converged=False)
            return None
        report.record(rung, detail, converged=True)
        return x

    # Rung 0: plain Newton over the full step.
    x = attempt("newton", "plain")
    if x is not None:
        return x

    # Rung 1: much stronger damping from the first iteration.
    if config.enable_damping:
        for factor in config.damping_factors:
            x = attempt("damping", f"damping={factor:g}",
                        initial_damping=factor)
            if x is not None:
                note_recovery_success(report)
                return x

    # Rung 2: local time-step halving with bounded retries.  Stiff
    # regeneration regions (latch sense amplifiers firing) recover here
    # without shrinking the global time step.
    if config.enable_substep:
        for halving in range(1, config.max_halvings + 1):
            obs.metrics().counter("spice.substep_halvings").inc()
            x = attempt("substep", f"substeps={2 ** halving}",
                        substeps=2 ** halving)
            if x is not None:
                note_recovery_success(report)
                return x
        obs.metrics().counter("spice.refinement_exhausted").inc()

    # Rung 3: gmin stepping — a strong leak to ground everywhere makes
    # the system benign; relax it decade by decade with warm starts.
    if config.enable_gmin:
        x = _gmin_stepping(system, circuit, x_start, t_start, dt,
                           integrator, cap_state, config, report,
                           plan=plan, meter=meter)
        if x is not None:
            note_recovery_success(report)
            return x

    # Rung 4: source stepping — ramp all independent sources from a
    # solvable fraction up to 100 %, warm-starting each stage.
    if config.enable_source:
        x = _source_stepping(system, circuit, x_start, t_start, dt,
                             integrator, cap_state, config, report,
                             plan=plan, meter=meter)
        if x is not None:
            note_recovery_success(report)
            return x

    restore_state()
    obs.metrics().counter("spice.recovery.exhausted").inc()
    obs.event("spice.recovery.exhausted", circuit=circuit.name,
              time=t_start + dt, attempts=len(report.attempts))
    _log.warning("recovery ladder exhausted for circuit %r at t=%gs "
                 "(%d attempts)", circuit.name, t_start + dt,
                 len(report.attempts))
    base = last_error or ConvergenceError(
        f"transient Newton failed for circuit {circuit.name!r}")
    raise ConvergenceError(
        f"transient Newton failed for circuit {circuit.name!r} and every "
        f"recovery rung was exhausted",
        time=base.time if base.time is not None else t_start + dt,
        iterations=base.iterations,
        worst_node=base.worst_node,
        recovery=report,
    )


def _gmin_stepping(system: MnaSystem, circuit: Circuit, x_start: np.ndarray,
                   t_start: float, dt: float, integrator: str,
                   cap_state: Dict[str, float], config: RecoveryConfig,
                   report: RecoveryReport,
                   plan: "StampPlan | None" = None,
                   meter: "_NewtonMeter | None" = None
                   ) -> "np.ndarray | None":
    """Walk the gmin ladder for one full step; None if any stage fails."""
    if meter is not None:
        meter.substeps = 1  # gmin stages solve the full step
    x = x_start
    for gmin in config.gmin_ladder:
        try:
            x = _solve_point(system, circuit, x, t_start + dt, dt,
                             integrator, cap_state,
                             max_newton=config.max_newton,
                             extra_gmin=gmin, x_history=x_start,
                             plan=plan, meter=meter)
        except ConvergenceError:
            report.record("gmin", f"gmin={gmin:g}", converged=False)
            return None
        report.record("gmin", f"gmin={gmin:g}", converged=True)
    return x


def _source_stepping(system: MnaSystem, circuit: Circuit,
                     x_start: np.ndarray, t_start: float, dt: float,
                     integrator: str, cap_state: Dict[str, float],
                     config: RecoveryConfig,
                     report: RecoveryReport,
                     plan: "StampPlan | None" = None,
                     meter: "_NewtonMeter | None" = None
                     ) -> "np.ndarray | None":
    """Walk the source ladder for one full step; None if a stage fails."""
    if meter is not None:
        meter.substeps = 1  # source stages solve the full step
    x = x_start
    for alpha in config.source_ladder:
        try:
            x = _solve_point(system, circuit, x, t_start + dt, dt,
                             integrator, cap_state,
                             max_newton=config.max_newton,
                             source_scale=alpha, x_history=x_start,
                             plan=plan, meter=meter)
        except ConvergenceError:
            report.record("source", f"sources={100 * alpha:g}%",
                          converged=False)
            return None
        report.record("source", f"sources={100 * alpha:g}%", converged=True)
    return x


def _solve_point(system: MnaSystem, circuit: Circuit, x_prev: np.ndarray,
                 t: float, dt: float, integrator: str,
                 cap_state: Dict[str, float], *,
                 max_newton: "int | None" = None,
                 initial_damping: float = 1.0,
                 extra_gmin: float = 0.0,
                 source_scale: float = 1.0,
                 x_history: "np.ndarray | None" = None,
                 plan: "StampPlan | None" = None,
                 meter: "_NewtonMeter | None" = None) -> np.ndarray:
    """Damped Newton solve of one time point.

    ``x_prev`` seeds the iteration; ``x_history`` is the solution at the
    previous *accepted* time point used by the capacitor companion
    models (defaults to ``x_prev`` — they differ only while a recovery
    rung warm-starts from an intermediate ladder stage).  ``extra_gmin``
    and ``source_scale`` implement the gmin- and source-stepping rungs;
    ``initial_damping`` starts the oscillation guard already damped.
    With a ``plan`` the iterates run on the compiled fast path; without
    one each iterate re-stamps every element (the bit-identical legacy
    reference).
    """
    x = x_prev.copy()
    if x_history is None:
        x_history = x_prev
    n_nodes = len(system.node_index)
    previous_delta: np.ndarray | None = None
    damping = initial_damping
    damp_limit = _DAMP_LIMIT * initial_damping
    damping_events = 0
    v_delta = None
    budget = _MAX_NEWTON if max_newton is None else max_newton
    if plan is not None:
        point = plan.begin_point(
            t=t, dt=dt, integrator=integrator, cap_state=cap_state,
            x_history=x_history, gmin=1e-12, extra_gmin=extra_gmin,
            source_scale=source_scale)
        order = None
    else:
        point = None
        order = stamping_order(circuit)
    for iteration in range(1, budget + 1):
        if plan is not None:
            x_new = plan.solve_iterate(point, x)
        else:
            system.reset()
            ctx = StampContext(system=system, x=x, x_prev=x_history, dt=dt,
                               time=t, integrator=integrator,
                               cap_state=cap_state, gmin=1e-12,
                               source_scale=source_scale)
            for element in order:  # noqa: L107 - the legacy reference path
                element.stamp(ctx)
            if extra_gmin > 0.0:
                for idx in range(n_nodes):
                    system.matrix[idx, idx] += extra_gmin
            x_new = system.solve()
        delta = x_new - x
        v_delta = delta[:n_nodes]
        max_step = float(np.abs(v_delta).max()) if n_nodes else 0.0
        if max_step > damp_limit:
            delta = delta * (damp_limit / max_step)
        # Oscillation guard: when successive updates point in opposite
        # directions (a limit cycle around a curvature change), shrink
        # the step until the cycle collapses into the fixed point.
        if previous_delta is not None:
            if float(np.dot(delta, previous_delta)) < 0.0:
                damping = max(damping * 0.5, 1.0 / 256.0)
                damping_events += 1
            else:
                damping = min(initial_damping, damping * 1.5)
        previous_delta = delta
        x = x + delta * damping
        if max_step < _V_TOL:
            if meter is not None:
                meter.add(iteration)
            if damping_events:
                obs.metrics().counter(
                    "spice.damping_events").inc(damping_events)
                obs.event("spice.newton.damped", circuit=circuit.name,
                          time=t, events=damping_events)
            return x
    if meter is not None:
        meter.add(budget)
    obs.metrics().counter("spice.convergence_failures").inc()
    worst_node = _worst_residual_node(system, v_delta)
    _log.debug("transient Newton failed at t=%gs for circuit %r "
               "(worst residual at node %r)", t, circuit.name, worst_node)
    raise ConvergenceError(
        f"transient Newton failed for circuit {circuit.name!r}",
        time=t, iterations=budget, worst_node=worst_node,
    )


def _worst_residual_node(system: MnaSystem,
                         v_delta: "np.ndarray | None") -> Optional[str]:
    """Name of the node whose last Newton update was largest."""
    if v_delta is None or not len(v_delta):
        return None
    worst = int(np.argmax(np.abs(v_delta)))
    for name, index in system.node_index.items():
        if index == worst:
            return name
    return None
