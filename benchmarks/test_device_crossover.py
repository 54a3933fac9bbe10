"""Device-evaluation crossover: per-element closures vs grouped kernels.

A :class:`~repro.spice.stampplan.StampPlan` evaluates its diodes,
switches and MOSFETs either through one compiled closure per element
or through the class-wise kernels of :mod:`repro.spice.devices`.  The
closures are cheap per call; the grouped kernels pay a fixed NumPy
dispatch cost per call and a much lower cost per device.  This
benchmark times both on the same circuits and the same iterates, so
``DEVICE_GROUP_THRESHOLD`` can be set where the lines cross.

Workloads are the 261 MOSFETs of the global-bitline read (16 blocks
x 16 cells, the ``repro mc --model globalbitline`` circuit) and
subsets of 8, 16, 32 and 64 of them picked evenly across the netlist,
all evaluated at node voltages recorded from the full read transient.
Switches are left out, so the device count is the MOSFET count.  Per
size the two evaluators run interleaved reps; the median µs per
evaluation is reported.

Asserted:

* the grouped kernels write the closures' value bytes at every
  recorded iterate;
* grouped is at least ``MIN_SPEEDUP_261``x faster at 261 MOSFETs;
* ``DEVICE_GROUP_THRESHOLD`` lies above the last size where grouped
  loses and at or below the first size where it wins.
"""

from __future__ import annotations

import os
import platform
import statistics
import time

import numpy as np
import scipy

from repro import FastDramDesign
from repro.array.globalbitline import (build_globalbitline_read_circuit,
                                       globalbitline_initial_voltages)
from repro.spice import Circuit, MosfetElement, Switch, simulate_transient
from repro.spice import stampplan
from repro.spice.mna import MnaSystem
from repro.units import ns, ps
from benchmarks._util import check_regression, record_json, record_result

#: Acceptance floor: grouped over closures at the full 261 MOSFETs.
MIN_SPEEDUP_261 = 2.0
#: MOSFET counts timed; 261 is the whole global-bitline read.
SIZES = (8, 16, 32, 64, 261)
#: Interleaved reps per size (the median is reported).
REPS = 15
#: Every STRIDE-th timestep of the recorded transient is one iterate.
STRIDE = 12
GMIN = 1e-12  # noqa: L101 - the transient's fixed gmin, siemens


def _cpu_model() -> str:
    """The CPU model name (Linux ``/proc/cpuinfo``), else the platform's
    processor string."""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _recorded_states():
    """The full read circuit and node voltages along its transient."""
    cell = FastDramDesign().cell()
    circuit = build_globalbitline_read_circuit(cell)
    result = simulate_transient(
        circuit, t_stop=1.2 * ns, dt=1.0 * ps,
        initial_voltages=globalbitline_initial_voltages(cell))
    states = [{node: float(result.data[i, idx])
               for node, idx in result.node_index.items()}
              for i in range(0, result.data.shape[0], STRIDE)]
    return circuit, states


def _subset(circuit: Circuit, count: int) -> Circuit:
    """The circuit's linear elements plus ``count`` of its MOSFETs,
    picked evenly across the netlist (switches dropped, so the device
    count is the MOSFET count)."""
    mosfets = [el for el in circuit.elements if type(el) is MosfetElement]
    picks = {id(mosfets[int(i)])
             for i in np.linspace(0, len(mosfets) - 1, count).round()}
    assert len(picks) == count
    sub = Circuit(f"{circuit.name}-{count}mos")
    for el in circuit.elements:
        if type(el) is Switch:
            continue
        if type(el) is MosfetElement and id(el) not in picks:
            continue
        sub.add(el)
    return sub


def _plan(circuit: Circuit, threshold: int) -> stampplan.StampPlan:
    saved = stampplan.DEVICE_GROUP_THRESHOLD
    stampplan.DEVICE_GROUP_THRESHOLD = threshold
    try:
        return stampplan.StampPlan(MnaSystem(circuit))
    finally:
        stampplan.DEVICE_GROUP_THRESHOLD = saved


def _iterates(plan: stampplan.StampPlan, states):
    xs = []
    for state in states:
        x = np.zeros(plan.size)
        for node, idx in plan.system.node_index.items():
            x[idx] = state[node]
        xs.append(x)
    return xs


def _time_us(plan: stampplan.StampPlan, xs) -> float:
    values = plan.device_values
    start = time.perf_counter()
    for x in xs:
        values(x, GMIN)
    return (time.perf_counter() - start) / len(xs) * 1e6


def test_device_crossover():
    full, states = _recorded_states()
    metrics = {"reps": REPS, "iterates": len(states),
               "device_threshold": stampplan.DEVICE_GROUP_THRESHOLD,
               "cpu_count": os.cpu_count() or 1,
               "machine": platform.machine(),
               "cpu_model": _cpu_model(),
               "python": platform.python_version(),
               "numpy": np.__version__, "scipy": scipy.__version__}
    lines = ["device evaluation, closures vs grouped kernels "
             "(global-bitline MOSFETs, us per evaluation):"]
    speedups = {}
    for count in SIZES:
        circuit = _subset(full, count)
        closures = _plan(circuit, 10**9)
        grouped = _plan(circuit, 0)
        assert (closures.device, grouped.device) == ("closures", "grouped")
        assert grouped.nonlinear_count == count
        xs = _iterates(closures, states)
        for x in xs:  # the speedup must never buy a changed bit
            assert (grouped.device_values(x, GMIN).tobytes()
                    == closures.device_values(x, GMIN).tobytes())
        times = {"closures": [], "grouped": []}
        for rep in range(REPS):
            order = (("closures", closures), ("grouped", grouped))
            for name, plan in order if rep % 2 == 0 else order[::-1]:
                times[name].append(_time_us(plan, xs))
        t_closures = statistics.median(times["closures"])
        t_grouped = statistics.median(times["grouped"])
        speedups[count] = t_closures / t_grouped
        metrics[f"closures_fill_us_n{count}"] = round(t_closures, 1)
        metrics[f"grouped_fill_us_n{count}"] = round(t_grouped, 1)
        metrics[f"speedup_grouped_n{count}"] = round(speedups[count], 3)
        lines.append(
            f"  {count:4d} MOSFETs: closures {t_closures:8.1f} us, "
            f"grouped {t_grouped:8.1f} us, speedup {speedups[count]:5.2f}x")
    losing = [n for n in SIZES if speedups[n] < 1.0]
    winning = [n for n in SIZES if speedups[n] >= 1.0]
    threshold = stampplan.DEVICE_GROUP_THRESHOLD
    lines.append(f"  DEVICE_GROUP_THRESHOLD = {threshold}; asserted: "
                 f"261-MOSFET speedup >= {MIN_SPEEDUP_261}x and the "
                 f"threshold between the last losing and first winning "
                 f"size")

    record_json("BENCH_device", metrics)
    record_result("device_crossover", "\n".join(lines))

    assert speedups[SIZES[-1]] >= MIN_SPEEDUP_261, (
        f"grouped speedup {speedups[SIZES[-1]]:.2f}x at 261 MOSFETs fell "
        f"below the {MIN_SPEEDUP_261}x floor")
    assert winning, "grouped kernels never beat the closures"
    last_losing = max(losing, default=0)
    first_winning = min(n for n in winning if n > last_losing)
    assert last_losing < threshold <= first_winning, (
        f"DEVICE_GROUP_THRESHOLD={threshold} is outside the measured "
        f"crossover ({last_losing} loses, {first_winning} wins)")
    check_regression("BENCH_device", metrics)
