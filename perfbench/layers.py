"""Outside-in layer tracing for the traced benchmark run.

The traced run wraps the public callables of each layer at the
attribute its caller looks up (a module global such as
``repro.spice.batch.simulate_transient``, or a class attribute such as
``SymbolicLU.refactor``) and records one span per call in a
benchmark-owned :class:`repro.obs.tracing.Tracer`.  The program's own
instrumentation (``repro.obs.enable()``) stays off, so the wrapped code
runs exactly as it does untraced.

Span names are ``<layer>.<operation>``; :data:`METRICS` maps the span
forest to the per-layer metrics of ``BENCHMARK.json``.  A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Per-layer metrics: name -> (unit, better, meaning).  The order is
#: the order of ``per_layer`` in BENCHMARK.json.
METRICS: Dict[str, Tuple[str, str, str]] = {
    "variability.draw_s": ("s", "lower", "model.draw calls, inclusive"),
    "variability.build_s": ("s", "lower", "model.build calls, inclusive"),
    "variability.measure_s": ("s", "lower",
                              "model.measure calls, inclusive"),
    "variability.driver_self_s": ("s", "lower",
                                  "run_monte_carlo_resumable self time"),
    "transient.timesteps": ("count", "lower",
                            "accepted steps of scalar transients"),
    "transient.self_s": ("s", "lower",
                         "simulate_transient self time: stepping, Newton "
                         "control, recovery"),
    "transient.iterates_per_step": ("iter/step", "lower",
                                    "stampplan.iterates / timesteps"),
    "stampplan.iterates": ("count", "lower", "StampPlan.solve_iterate calls"),
    "stampplan.iterate_self_s": ("s", "lower",
                                 "solve_iterate self time: device "
                                 "evaluation and assembly"),
    "stampplan.us_per_iterate": ("us", "lower",
                                 "iterate_self_s per iterate"),
    "stampplan.compile_s": ("s", "lower", "StampPlan construction"),
    "stampplan.begin_point_s": ("s", "lower", "StampPlan.begin_point"),
    "sparse.analyses": ("count", "lower", "symbolic analyses"),
    "sparse.analyze_s": ("s", "lower", "SymbolicLU construction"),
    "sparse.refactors": ("count", "lower", "numeric refactorisations"),
    "sparse.refactor_s": ("s", "lower", "SymbolicLU.refactor"),
    "sparse.solve_s": ("s", "lower", "SymbolicLU.solve"),
    "linalg.factors": ("count", "lower", "scalar dense lu_factorize calls"),
    "linalg.factor_s": ("s", "lower", "lu_factorize"),
    "linalg.backsolve_s": ("s", "lower", "lu_backsolve"),
    "linalg.factor_per_iterate": ("ratio", "lower",
                                  "factors per dense iterate "
                                  "(1 - LU-cache hit rate)"),
    "linalg.batch_solves": ("count", "lower",
                            "row solves of the batched kernels"),
    "linalg.batch_solve_s": ("s", "lower",
                             "solve_rows_t_into, solve_fresh_row_t, "
                             "lu_backsolve_into"),
    "batch.self_s": ("s", "lower",
                     "batch_transient_outcomes + eval_model_batch self "
                     "time: grouped kernels, assembly, control"),
    "batch.compile_s": ("s", "lower", "BatchStampPlan construction"),
    "batch.ejected_frac": ("ratio", "lower",
                           "samples rerun on the scalar path / samples "
                           "batched"),
    "exec.items": ("count", "lower", "items given to run_parallel_sweep"),
    "exec.sweep_self_s": ("s", "lower",
                          "run_parallel_sweep minus the checkpoint saves "
                          "it triggers (parent side)"),
    "checkpoint.saves": ("count", "lower", "Checkpoint.save calls"),
    "checkpoint.save_s": ("s", "lower", "Checkpoint.save"),
    "checkpoint.bytes_written": ("bytes", "lower",
                                 "file size after each save, summed"),
    "cli.import_s": ("s", "lower", "import repro.cli (-X importtime)"),
    "cli.import.scipy_s": ("s", "lower",
                           "scipy share of import repro.cli"),
    "cli.import.spice_s": ("s", "lower",
                           "repro.spice share of import repro.cli"),
    "cli.modules_loaded": ("count", "lower",
                           "modules added by import repro.cli"),
    "cli.headline.warm_s": ("s", "lower", "warm in-process repro headline"),
    "cli.compare.warm_s": ("s", "lower", "warm in-process repro compare"),
    "cli.methodology.warm_s": ("s", "lower",
                               "warm in-process repro methodology"),
    "trace.overhead_frac": ("ratio", "lower",
                            "traced / untraced unit time - 1"),
    "trace.unattributed_frac": ("ratio", "lower",
                                "root self time / root duration"),
    "host.ref_s": ("s", "lower", "interleaved reference loop, median"),
}

#: Metrics that are counts; the traced run's counts repeat exactly
#: for a given seed and unit count.
COUNTS = tuple(name for name, (unit, _b, _m) in METRICS.items()
               if unit in ("count", "bytes"))


def _post_transient(span, args, result) -> None:
    span.set_attr("steps", len(result.time) - 1)


def _post_batch(span, args, result) -> None:
    span.set_attr("samples", len(args[0]))


def _post_rows(span, args, result) -> None:
    rhs = args[1]
    span.set_attr("rows", rhs.shape[0] if rhs.ndim == 2 else 1)


def _post_items(span, args, result) -> None:
    span.set_attr("items", len(args[0]))


def _post_save(span, args, result) -> None:
    span.set_attr("bytes", args[0].path.stat().st_size)


#: (span name, module, attribute path, post hook).  A dotted attribute
#: path names a class attribute; a plain one a module function, which
#: is rebound in every loaded ``repro`` module that imported it.
TARGETS: List[Tuple[str, str, str, Optional[Callable]]] = [
    ("variability.run", "repro.variability.montecarlo",
     "run_monte_carlo_resumable", None),
    ("variability.draw", "repro.variability.globalbitline_mc",
     "GlobalBitlineMcModel.draw", None),
    ("variability.build", "repro.variability.globalbitline_mc",
     "GlobalBitlineMcModel.build", None),
    ("variability.measure", "repro.variability.globalbitline_mc",
     "GlobalBitlineMcModel.measure", None),
    ("variability.draw", "repro.variability.localblock_mc",
     "LocalBlockMcModel.draw", None),
    ("variability.build", "repro.variability.localblock_mc",
     "LocalBlockMcModel.build", None),
    ("variability.measure", "repro.variability.localblock_mc",
     "LocalBlockMcModel.measure", None),
    ("transient.simulate", "repro.spice.transient", "simulate_transient",
     _post_transient),
    ("stampplan.compile", "repro.spice.stampplan", "StampPlan.__init__",
     None),
    ("stampplan.begin_point", "repro.spice.stampplan",
     "StampPlan.begin_point", None),
    ("stampplan.iterate", "repro.spice.stampplan",
     "StampPlan.solve_iterate", None),
    ("sparse.analyze", "repro.spice.sparse", "SymbolicLU.__init__", None),
    ("sparse.refactor", "repro.spice.sparse", "SymbolicLU.refactor", None),
    ("sparse.solve", "repro.spice.sparse", "SymbolicLU.solve", None),
    ("linalg.factor", "repro.spice.linalg", "lu_factorize", None),
    ("linalg.backsolve", "repro.spice.linalg", "lu_backsolve", None),
    ("linalg.batch_solve", "repro.spice.linalg", "solve_rows_t_into",
     _post_rows),
    ("linalg.batch_solve", "repro.spice.linalg", "solve_fresh_row_t",
     _post_rows),
    ("linalg.batch_solve", "repro.spice.linalg", "lu_backsolve_into",
     _post_rows),
    ("batch.eval_model", "repro.spice.batch", "eval_model_batch", None),
    ("batch.transient", "repro.spice.batch", "batch_transient_outcomes",
     _post_batch),
    ("batch.compile", "repro.spice.batch", "BatchStampPlan.__init__", None),
    ("exec.sweep", "repro.exec.parallel", "run_parallel_sweep",
     _post_items),
    ("checkpoint.save", "repro.checkpoint", "Checkpoint.save", _post_save),
]


def _wrap(fn: Callable, name: str, tracer, post: Optional[Callable]
          ) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(name) as span:
            result = fn(*args, **kwargs)
        if post is not None:
            post(span, args, result)
        return result
    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


class LayerPatches:
    """Installs the :data:`TARGETS` wrappers; :meth:`remove` undoes them.

    Use as a context manager.  Modules of :data:`TARGETS` that are not
    imported yet are imported first, so a later ``from X import f``
    binds the wrapper.
    """

    def __init__(self, tracer) -> None:
        self._tracer = tracer
        self._undo: List[Tuple[Any, str, Any]] = []

    def install(self) -> "LayerPatches":
        for name, module_name, attr, post in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[method]
                self._set(owner, method, original,
                          _wrap(original, name, self._tracer, post))
                continue
            original = getattr(module, attr)
            wrapper = _wrap(original, name, self._tracer, post)
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "").startswith("repro")
                        and getattr(loaded, attr, None) is original):
                    self._set(loaded, attr, original, wrapper)
        return self

    def _set(self, owner, attr: str, original, wrapper) -> None:
        self._undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "LayerPatches":
        return self.install()

    def __exit__(self, *exc) -> bool:
        self.remove()
        return False


class SpanStats:
    """Per-name aggregates of a span forest (report ``spans`` form)."""

    def __init__(self, roots: List[Dict[str, Any]]) -> None:
        self.count: Dict[str, int] = {}
        self.total: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}
        self.attrs: Dict[str, Dict[str, float]] = {}
        #: transient.simulate spans run inside a batch.transient span:
        #: samples the batch ejected to the scalar path.
        self.ejected = 0
        for root in roots:
            self._walk(root, in_batch=False)

    def _walk(self, node: Dict[str, Any], in_batch: bool) -> None:
        name = node["name"]
        children = node.get("children", [])
        self.count[name] = self.count.get(name, 0) + 1
        self.total[name] = self.total.get(name, 0.0) + node["duration_s"]
        self.self_s[name] = self.self_s.get(name, 0.0) + _self_s(node)
        sums = self.attrs.setdefault(name, {})
        for key, value in node.get("attrs", {}).items():
            if isinstance(value, (int, float)):
                sums[key] = sums.get(key, 0) + value
        if name == "transient.simulate" and in_batch:
            self.ejected += 1
        inside = in_batch or name == "batch.transient"
        for child in children:
            self._walk(child, inside)

    def n(self, name: str) -> int:
        return self.count.get(name, 0)

    def incl(self, name: str) -> float:
        return self.total.get(name, 0.0)

    def own(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def attr(self, name: str, key: str) -> float:
        return self.attrs.get(name, {}).get(key, 0)

    def has_layer(self, layer: str) -> bool:
        return any(name.startswith(layer + ".") for name in self.count)


def _ratio(num: float, den: float) -> Optional[float]:
    return num / den if den else None


def span_metrics(stats: SpanStats) -> Dict[str, Optional[float]]:
    """The span-derived per-layer metrics; ``None`` marks a metric absent.

    A layer none of whose spans occurred is absent as a whole; a ratio
    whose denominator is zero is absent on its own.
    """
    s = stats
    iterates = s.n("stampplan.iterate")
    steps = s.attr("transient.simulate", "steps")
    batched = s.attr("batch.transient", "samples")
    values: Dict[str, Optional[float]] = {
        "variability.draw_s": s.incl("variability.draw"),
        "variability.build_s": s.incl("variability.build"),
        "variability.measure_s": s.incl("variability.measure"),
        "variability.driver_self_s": s.own("variability.run"),
        "transient.timesteps": steps,
        "transient.self_s": s.own("transient.simulate"),
        "transient.iterates_per_step": _ratio(iterates, steps),
        "stampplan.iterates": iterates,
        "stampplan.iterate_self_s": s.own("stampplan.iterate"),
        "stampplan.us_per_iterate": _ratio(
            s.own("stampplan.iterate") * 1e6, iterates),
        "stampplan.compile_s": s.incl("stampplan.compile"),
        "stampplan.begin_point_s": s.incl("stampplan.begin_point"),
        "sparse.analyses": s.n("sparse.analyze"),
        "sparse.analyze_s": s.incl("sparse.analyze"),
        "sparse.refactors": s.n("sparse.refactor"),
        "sparse.refactor_s": s.incl("sparse.refactor"),
        "sparse.solve_s": s.incl("sparse.solve"),
        "linalg.factors": s.n("linalg.factor"),
        "linalg.factor_s": s.incl("linalg.factor"),
        "linalg.backsolve_s": s.incl("linalg.backsolve"),
        # Every dense scalar iterate backsolves once, cached or not.
        "linalg.factor_per_iterate": _ratio(s.n("linalg.factor"),
                                            s.n("linalg.backsolve")),
        "linalg.batch_solves": s.attr("linalg.batch_solve", "rows"),
        "linalg.batch_solve_s": s.incl("linalg.batch_solve"),
        "batch.self_s": s.own("batch.transient") + s.own("batch.eval_model"),
        "batch.compile_s": s.incl("batch.compile"),
        "batch.ejected_frac": _ratio(s.ejected, batched),
        "exec.items": s.attr("exec.sweep", "items"),
        "exec.sweep_self_s": s.own("exec.sweep"),
        "checkpoint.saves": s.n("checkpoint.save"),
        "checkpoint.save_s": s.incl("checkpoint.save"),
        "checkpoint.bytes_written": s.attr("checkpoint.save", "bytes"),
    }
    for name in values:
        if not s.has_layer(name.split(".")[0]):
            values[name] = None
    return values


def parse_importtime(stderr: str) -> Dict[str, float]:
    """Split ``python -X importtime -c "import repro.cli"`` output.

    Returns seconds for the whole ``repro`` import, its outermost
    ``scipy`` imports and its outermost ``repro.spice`` imports.
    Nesting is read from the indentation of the package column.
    """
    total = scipy = spice = 0.0
    rows = []
    for line in stderr.splitlines():
        parts = line[len("import time:"):].split("|")
        if (not line.startswith("import time:") or len(parts) != 3
                or not parts[1].strip().isdigit()):
            continue  # not a timing row, or the header row
        label = parts[2].rstrip()
        depth = len(label) - len(label.lstrip())
        rows.append((depth, label.strip(), int(parts[1]) * 1e-6))

    def package(name: str) -> str:
        return name.split(".")[0]

    def in_spice(name: str) -> bool:
        return name == "repro.spice" or name.startswith("repro.spice.")

    # importtime prints children before their parent, so walk backwards
    # to see each parent first.
    stack: List[Tuple[int, str]] = []
    for depth, name, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        ancestors = [n for _d, n in stack]
        if not ancestors and package(name) == "repro":
            total += cumulative
        if package(name) == "scipy" and all(package(a) != "scipy"
                                            for a in ancestors):
            scipy += cumulative
        if in_spice(name) and not any(in_spice(a) for a in ancestors):
            spice += cumulative
        stack.append((depth, name))
    return {"cli.import_s": total, "cli.import.scipy_s": scipy,
            "cli.import.spice_s": spice}


def layer_metrics(spans: List[Dict[str, Any]],
                  pairs: List[Tuple[float, float]], ref_s: List[float],
                  extra: Dict[str, float]) -> Dict[str, Optional[float]]:
    """Every per-layer metric of a traced run; ``None`` marks it absent.

    ``spans`` is the tracer's forest, whose roots are the benchmark's
    own ``perfbench.*`` spans; ``pairs`` holds (traced, untraced) times
    of the same unit; ``extra`` carries the ``cli.*`` values measured
    outside the span tree.
    """
    values: Dict[str, Optional[float]] = dict.fromkeys(METRICS)
    values.update(span_metrics(SpanStats(spans)))
    values.update(extra)
    own = sum(_self_s(root) for root in spans)
    total = sum(root["duration_s"] for root in spans)
    values["trace.unattributed_frac"] = own / total if total else None
    ratios = [traced / plain for traced, plain in pairs]
    values["trace.overhead_frac"] = (statistics.median(ratios) - 1.0
                                     if ratios else None)
    values["host.ref_s"] = statistics.median(ref_s) if ref_s else None
    return values


def _self_s(node: Dict[str, Any]) -> float:
    """A span's duration minus its direct children's durations."""
    return node["duration_s"] - sum(child["duration_s"]
                                    for child in node.get("children", []))

