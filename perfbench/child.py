"""One benchmark process: set up a workload, run its units, check them.

``run.py`` launches this file in a fresh interpreter, with ``src`` on
``PYTHONPATH`` and bytecode writing off:

    python3 perfbench/child.py SPEC_JSON OUT_JSON

``SPEC_JSON`` holds the workload, seed, mode (``e2e`` or ``trace``),
the launch time on the monotonic clock and the time slice; the result
goes to ``OUT_JSON``.  The loop is closed: one client, and each unit
starts when the previous one ends.  The host reference loop
(:func:`host.ref_loop`) runs between units, outside their timing, so
every unit is bracketed by two of them.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

from host import host_seconds, ref_loop  # noqa: E402

#: The first reference loop of this process: it opens the bracket
#: around the set-up, which the loop after the warm-up unit closes.
START_REF_S = ref_loop()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from typing import Any, Dict, List, Optional  # noqa: E402

#: The dense/sparse agreement the sparse backend documents.
DENSE_TOLERANCE_V = 1e-9


class UnitClock:
    """Times closed-loop units; doubles as the driver's progress sink.

    ``run_monte_carlo_resumable`` calls :meth:`advance` once per
    finished sample; every ``samples_per_unit`` samples end a unit.
    Each unit is bracketed by two reference loops, so it gets a wall
    time (``unit_s``) and a host-scaled time (``host_s``).
    """

    def __init__(self, samples_per_unit: int) -> None:
        self.samples_per_unit = samples_per_unit
        self.samples = 0
        self.unit_s: List[float] = []
        self.host_s: List[float] = []
        self.ends: List[float] = []
        self.ref_s: List[float] = []
        self._start = time.monotonic()

    def _ref(self) -> float:
        self.ref_s.append(ref_loop())
        return self.ref_s[-1]

    def start(self) -> None:
        self._ref()
        self._start = time.monotonic()

    def note_restored(self, count: int) -> None:
        pass

    def advance(self, completed: int = 0, failed: int = 0) -> None:
        self.samples += completed + failed
        if self.samples % self.samples_per_unit == 0:
            self.stop_unit()

    def stop_unit(self) -> None:
        now = time.monotonic()
        wall = now - self._start
        before = self.ref_s[-1]
        self.unit_s.append(wall)
        self.host_s.append(host_seconds(wall, before, self._ref()))
        self.ends.append(now)
        self._start = time.monotonic()


class Run:
    """What one pass over a workload's units produced."""

    def __init__(self, clock: UnitClock, attempted: int, failed: int,
                 digests: List[str], values: Optional[Any] = None) -> None:
        self.clock = clock
        self.attempted = attempted
        self.failed = failed
        self.digests = digests  # one per unit: the unit's output bytes
        self.values = values


def _digest(samples) -> str:
    return hashlib.sha256(samples.tobytes()).hexdigest()


class McWorkload:
    """A ``repro mc`` workload driven through the library's MC driver."""

    samples_per_unit = 1
    batch = 1
    #: Units (warm-up included) of the workload's reference job, whose
    #: cold time is ``suite_s``.
    suite_units = 1
    #: Steady units a traced run times, after its warm-up unit.
    trace_units = 1

    def __init__(self) -> None:
        from repro.core import FastDramDesign
        self.model = self.build_model(FastDramDesign())

    def build_model(self, design):
        raise NotImplementedError

    def run(self, seed: int, units: int,
            clock: Optional[UnitClock] = None) -> Run:
        """``units`` units through the MC driver, as ``repro mc`` runs them."""
        from repro.variability import montecarlo
        clock = clock or UnitClock(self.samples_per_unit)
        first = len(clock.unit_s)
        clock.start()
        outcome = montecarlo.run_monte_carlo_resumable(
            self.model, count=self.samples_per_unit * units, seed=seed,
            jobs=1, batch=self.batch, progress=clock)
        samples = outcome.result.samples
        spu = self.samples_per_unit
        digests = [_digest(samples[i * spu:(i + 1) * spu])
                   for i in range(len(clock.unit_s) - first)]
        return Run(clock, outcome.attempted, outcome.failed, digests,
                   samples)

    def check(self, run: Run, seed: int) -> List[str]:
        raise NotImplementedError

    def _streams(self, seed: int, count: int):
        import numpy as np
        return np.random.SeedSequence(seed).spawn(count)


class GblMc(McWorkload):
    """``repro mc --model globalbitline --batch 1 --jobs 1``."""

    suite_units = 8
    trace_units = 5

    def build_model(self, design):
        from repro.variability.globalbitline_mc import GlobalBitlineMcModel
        return GlobalBitlineMcModel(design.cell())

    def check(self, run: Run, seed: int) -> List[str]:
        """First steady sample against a dense-backend solve."""
        import copy

        import numpy as np
        index = 1
        dense = copy.copy(self.model)
        dense.backend = "dense"
        stream = self._streams(seed, index + 1)[index]
        value = dense(np.random.default_rng(stream))
        error = abs(value - float(run.values[index]))
        if not error <= DENSE_TOLERANCE_V:
            return [f"sample {index}: sparse and dense differ by {error:g} V"]
        return []


class LbBatch(McWorkload):
    """``repro mc --model localblock --batch 32``."""

    samples_per_unit = 32
    batch = 32
    suite_units = 4
    trace_units = 2

    def build_model(self, design):
        from repro.variability.localblock_mc import LocalBlockMcModel
        return LocalBlockMcModel(design.cell())

    def check(self, run: Run, seed: int) -> List[str]:
        """Two samples of the first steady batch against scalar runs."""
        import numpy as np
        picks = np.random.default_rng(seed).choice(32, size=2, replace=False)
        streams = self._streams(seed, 64)
        failures = []
        for index in (32 + int(p) for p in picks):
            scalar = self.model(np.random.default_rng(streams[index]))
            if scalar != float(run.values[index]):  # noqa: L102 - bit identity
                failures.append(f"sample {index}: batch {run.values[index]!r}"
                                f" != scalar {scalar!r}")
        return failures


class RetentionCkpt(McWorkload):
    """``repro mc --samples 2000 --jobs 2 --checkpoint FILE``."""

    samples_per_unit = 2000
    suite_units = 10
    trace_units = 6

    def __init__(self, workdir: pathlib.Path) -> None:
        super().__init__()
        self.path = workdir / "retention.ckpt.json"

    def build_model(self, design):
        return design.cell().retention_model().sample_retention

    def sweep(self, seed: int, checkpoint: bool = True):
        from repro import obs
        from repro.checkpoint import Checkpoint
        from repro.variability import montecarlo
        ckpt = None
        if checkpoint:
            # The fingerprint cmd_mc writes for the default --kb.
            ckpt = Checkpoint(self.path, obs.config_fingerprint(
                {"command": "mc", "samples": self.samples_per_unit,
                 "seed": seed, "kb": 128}))
        outcome = montecarlo.run_monte_carlo_resumable(
            self.model, count=self.samples_per_unit, seed=seed,
            checkpoint=ckpt, jobs=1 if ckpt is None else 2)
        if ckpt is not None and outcome.complete:
            ckpt.clear()
        return outcome

    def run(self, seed: int, units: int,
            clock: Optional[UnitClock] = None) -> Run:
        clock = clock or UnitClock(self.samples_per_unit)
        attempted = failed = 0
        digests = []
        clock.start()
        for _ in range(units):
            outcome = self.sweep(seed)
            clock.stop_unit()
            attempted += outcome.attempted
            failed += outcome.failed
            digests.append(_digest(outcome.result.samples))
        return Run(clock, attempted, failed, digests)

    def check(self, run: Run, seed: int) -> List[str]:
        """Every sweep's samples against one no-checkpoint run."""
        reference = _digest(self.sweep(seed, checkpoint=False).result.samples)
        bad = sum(1 for d in run.digests if d != reference)
        return [f"{bad} checkpointed sweep(s) differ from the "
                "no-checkpoint run"] if bad else []


def make_workload(name: str, workdir: pathlib.Path):
    if name == "gbl-mc":
        return GblMc()
    if name == "lb-batch":
        return LbBatch()
    if name == "retention-ckpt":
        return RetentionCkpt(workdir)
    raise ValueError(f"unknown workload {name!r}")


def run_e2e(spec: Dict[str, Any]) -> Dict[str, Any]:
    """Setup, the reference job, then steady units until the slice ends."""
    workdir = pathlib.Path(spec["workdir"])
    seed = spec["seed"]
    workload = make_workload(spec["workload"], workdir)
    clock = UnitClock(workload.samples_per_unit)
    job = workload.run(seed, units=workload.suite_units, clock=clock)
    setup_s = clock.ends[0] - spec["launch"]
    setup_host_s = host_seconds(setup_s, START_REF_S, clock.ref_s[1])
    # Steady units fill the slice; the reference job's count toward it.
    steady_s = clock.unit_s[1:]
    remaining = spec["slice_s"] - sum(steady_s)
    attempted, failed = job.attempted, job.failed
    if remaining > 0:
        more = workload.run(
            seed + 1, units=max(2, round(remaining * len(steady_s)
                                         / sum(steady_s))), clock=clock)
        attempted += more.attempted
        failed += more.failed
    checks = workload.check(job, seed) if spec["check"] else []
    steady = slice(1, workload.suite_units)
    return {"setup_s": setup_s, "setup_host_s": setup_host_s,
            "suite_s": setup_s + sum(clock.unit_s[steady]),
            "suite_host_s": setup_host_s + sum(clock.host_s[steady]),
            "unit_s": clock.unit_s[1:], "host_s": clock.host_s[1:],
            "ref_s": clock.ref_s,
            "samples_per_unit": workload.samples_per_unit,
            "attempted": attempted, "failed": failed + len(checks),
            "checks": checks}


def run_trace(spec: Dict[str, Any], tracer) -> Dict[str, Any]:
    """Traced, untraced, traced again: the same units in each pass.

    The first pass starts cold, so its spans, which the per-layer
    metrics come from, include the one-time compile work.  The second
    traced pass only brackets the untraced one in time, for
    ``trace.overhead_frac``; its spans are dropped.
    """
    from repro.obs.tracing import Tracer

    import layers
    workdir = pathlib.Path(spec["workdir"])
    seed = spec["seed"]
    workload = make_workload(spec["workload"], workdir)
    units = 1 + spec.get("units", workload.trace_units)

    def traced_pass(pass_tracer) -> Run:
        with layers.LayerPatches(pass_tracer), \
                pass_tracer.span(f"perfbench.{spec['workload']}"):
            return workload.run(seed, units=units)

    first = traced_pass(tracer)
    plain = workload.run(seed, units=units)
    second = traced_pass(Tracer())
    passes = (first, plain, second)
    checks = workload.check(plain, seed)
    if not first.digests == plain.digests == second.digests:
        checks.append("traced outputs differ from untraced outputs")
    pairs = [((a + b) / 2, u) for a, u, b in zip(
        first.clock.host_s[1:], plain.clock.host_s[1:],
        second.clock.host_s[1:])]
    return {"pairs": pairs, "units": units, "warm": {},
            "ref_s": [r for run in passes for r in run.clock.ref_s],
            "attempted": sum(run.attempted for run in passes),
            "failed": sum(run.failed for run in passes) + len(checks),
            "checks": checks}


# -- paper-cli: warm in-process commands -----------------------------------

def _call_cli(argv: List[str]) -> tuple:
    from repro.cli import main
    buffer = io.StringIO()
    start = time.monotonic()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return time.monotonic() - start, code, buffer.getvalue()


def run_cli_trace(spec: Dict[str, Any], tracer) -> Dict[str, Any]:
    """Each command warm in-process, untraced and traced in turn."""
    import layers
    seed = spec["seed"]
    golden = pathlib.Path(spec["golden"])
    patches = layers.LayerPatches(tracer)
    warm: Dict[str, float] = {}
    pairs = []
    ref_s = []
    bad: Dict[str, int] = {}
    attempted = 0

    def call(command: str, traced: bool) -> float:
        nonlocal attempted
        argv = [command, "--seed", str(seed)]
        if traced:
            with patches, tracer.span(f"perfbench.{command}"), \
                    tracer.span(f"cli.{command}"):
                elapsed, code, out = _call_cli(argv)
        else:
            elapsed, code, out = _call_cli(argv)
        ref_s.append(ref_loop())
        attempted += 1
        expected = (golden / f"{command}.txt").read_text()
        if code != 0 or out != expected:
            bad[command] = bad.get(command, 0) + 1
        return elapsed

    for command in spec["commands"]:
        call(command, traced=False)  # the first call pays lazy imports
        plain_s = []
        for rep in range(spec["reps"]):
            if rep % 2:
                traced_s = call(command, traced=True)
                plain_s.append(call(command, traced=False))
            else:
                plain_s.append(call(command, traced=False))
                traced_s = call(command, traced=True)
            pairs.append((traced_s, plain_s[-1]))
        warm[f"cli.{command}.warm_s"] = statistics.median(plain_s)
    checks = [f"{command}: {n} output(s) differ from golden"
              for command, n in bad.items()]
    return {"pairs": pairs, "ref_s": ref_s, "warm": warm,
            "units": spec["reps"], "attempted": attempted,
            "failed": sum(bad.values()), "checks": checks}


def finish_trace(spec: Dict[str, Any], tracer, result: Dict[str, Any]
                 ) -> None:
    """Add the per-layer metrics; write the run report (schema 2)."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.report import build_run_report

    import layers
    values = layers.layer_metrics(
        tracer.to_dict(), result["pairs"], result["ref_s"],
        {**spec["cli_import"], **result["warm"]})
    registry = MetricsRegistry()
    for name, value in values.items():
        if value is not None:
            registry.gauge(name).set(value)
    config = {"workload": spec["workload"], "seed": spec["seed"],
              "units": result["units"], "fingerprint": spec["fingerprint"]}
    report = build_run_report(f"perfbench {spec['workload']}", config,
                              registry, tracer)
    pathlib.Path(spec["report"]).write_text(json.dumps(report))
    result["metrics"] = values


def main() -> int:
    spec = json.loads(sys.argv[1])
    if spec["mode"] == "trace":
        from repro.obs.tracing import Tracer
        tracer = Tracer()
        run = run_cli_trace if spec["workload"] == "paper-cli" else run_trace
        result = run(spec, tracer)
        finish_trace(spec, tracer, result)
    else:
        result = run_e2e(spec)
    pathlib.Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
