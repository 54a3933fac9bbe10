"""The repo's benchmark: one workload, one seed, one closed-loop client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gbl-mc --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing;
``--trace 1`` is the separate traced run that gives the per-layer
metrics and writes a ``repro.obs`` run report (schema 2) to
``.perfbench/``.  Both run the workload's output checks.  The last
stdout line is the result::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

and the line before it the full record: machine fingerprint,
``host.ref_s``, the unit count behind each statistic, the checks and
the per-layer metrics the workload's path never reached (``absent``).

Workloads, metrics and the layer map are described in
``perfbench/README.md``; ``BENCHMARK.json`` holds the names, units,
directions and bounds.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from typing import Any, Dict, List, Optional, Tuple  # noqa: E402

import layers  # noqa: E402
from host import host_seconds  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"
GOLDEN = HERE / "golden"

#: Fresh interpreters per end-to-end run of a Monte-Carlo workload;
#: each contributes one set-up time and a slice of the steady units.
PROCESSES = {"gbl-mc": 3, "lb-batch": 3, "retention-ckpt": 3}
WORKLOADS = (*PROCESSES, "paper-cli")
CLI_COMMANDS = ("headline", "compare", "methodology")
#: paper-cli launches every command at least this often per run.
CLI_MIN_ROUNDS = 4
#: Warm (untraced, traced) call pairs per command in the traced run.
CLI_TRACE_REPS = 2
END_TO_END = {"samples_per_s": "1/s", "suite_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
#: Wall-clock cap on one child process.
CHILD_TIMEOUT_S = 60


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def launch(argv: List[str], timeout: float = CHILD_TIMEOUT_S
           ) -> Tuple[float, int, str, str]:
    """Run ``argv`` to completion in its own session; time it.

    Returns (wall seconds, exit code, stdout, stderr).  On timeout the
    whole process group, pool workers included, is killed and reaped.
    """
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    return time.monotonic() - start, proc.returncode, out, err


def run_child(spec: Dict[str, Any]) -> Dict[str, Any]:
    """One ``child.py`` process; returns its result document."""
    out = WORKDIR / f"child-{os.getpid()}.json"
    # The launch time travels in the spec: set-up is timed from here.
    spec = dict(spec, workdir=str(WORKDIR), launch=time.monotonic())
    _, code, _, err = launch([sys.executable, str(HERE / "child.py"),
                              json.dumps(spec), str(out)])
    if code != 0:
        raise RuntimeError(f"{spec['workload']} child failed:\n{err}")
    try:
        return json.loads(out.read_text())
    finally:
        out.unlink()


def peak_rss_mb() -> float:
    """Largest resident set of this process or any reaped descendant."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def fingerprint() -> Dict[str, Any]:
    _, code, out, err = launch([sys.executable, str(HERE / "host.py")])
    if code != 0:
        raise RuntimeError(f"fingerprint failed:\n{err}")
    fp = json.loads(out)
    fp["inherited_PYTHONDONTWRITEBYTECODE"] = os.environ.get(
        "PYTHONDONTWRITEBYTECODE")
    return fp


def cli_import() -> Dict[str, float]:
    """``cli.import*`` and ``cli.modules_loaded`` from a fresh interpreter."""
    code_text = ("import sys; n = len(sys.modules); import repro.cli; "
                 "print(len(sys.modules) - n)")
    _, code, out, err = launch([sys.executable, "-X", "importtime", "-c",
                                code_text])
    if code != 0:
        raise RuntimeError(f"import repro.cli failed:\n{err}")
    values = layers.parse_importtime(err)
    values["cli.modules_loaded"] = int(out.strip())
    return values


def _stat(value: float, unit: str, n: int, statistic: str,
          wall: Optional[float] = None) -> Dict[str, Any]:
    stat = {"value": value, "unit": unit, "n": n, "statistic": statistic}
    if wall is not None:
        stat["wall"] = wall  # the same statistic on unscaled wall time
    return stat


def mc_end_to_end(workload: str, seed: int, seconds: float
                  ) -> Dict[str, Any]:
    processes = PROCESSES[workload]
    # Each process draws its own sample streams; the last one also
    # runs the output checks, after its timed units.
    results = [run_child({"workload": workload, "mode": "e2e",
                          "seed": seed * 100 + 2 * k,
                          "slice_s": seconds / processes,
                          "check": k == processes - 1})
               for k in range(processes)]
    spu = results[0]["samples_per_unit"]

    def throughput(key: str) -> float:
        # Samples over the summed steady time: a slow stretch weighs
        # in by its length, as it does for a user.
        units = [u for r in results for u in r[key]]
        return spu * len(units) / sum(units)

    def median(key: str) -> float:
        return statistics.median(r[key] for r in results)

    n_units = sum(len(r["unit_s"]) for r in results)
    stats = {
        "samples_per_s": _stat(throughput("host_s"), "1/s", n_units,
                               "samples / summed steady unit time",
                               throughput("unit_s")),
        "suite_s": _stat(median("suite_host_s"), "s", processes,
                         "median over processes", median("suite_s")),
        "setup_s": _stat(median("setup_host_s"), "s", processes,
                         "median over processes", median("setup_s")),
    }
    return {"stats": stats, "ref_s": [x for r in results for x in r["ref_s"]],
            "unit_s": [r["unit_s"] for r in results],
            "host_s": [r["host_s"] for r in results],
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "checks": [c for r in results for c in r["checks"]]}


#: A cold launch: the reference loop brackets the launched work inside
#: the launched process, whose vCPU may run at another speed than ours.
COLD_LAUNCH = """\
import sys
sys.path.append({here!r})
from host import ref_loop
before = ref_loop()
try:
{body}
finally:
    sys.stderr.write("\\nperfbench-ref %r %r\\n" % (before, ref_loop()))
"""


def cold_launch(body: str, ref_s: List[float]
                ) -> Tuple[float, float, int, str]:
    """Wall and host-scaled seconds, exit code and stdout of ``body``.

    The two reference loop times are appended to ``ref_s``.
    """
    code_text = COLD_LAUNCH.format(here=str(HERE), body=body)
    elapsed, code, out, err = launch([sys.executable, "-c", code_text])
    tag, before, after = err.rstrip().splitlines()[-1].split()
    if tag != "perfbench-ref":
        raise RuntimeError(f"cold launch lost its reference loop:\n{err}")
    ref_s += [float(before), float(after)]
    return elapsed, host_seconds(elapsed, *ref_s[-2:]), code, out


def cli_end_to_end(seed: int, seconds: float) -> Dict[str, Any]:
    """Cold launches of each paper-cli command and of ``import repro.cli``."""
    golden = {c: (GOLDEN / f"{c}.txt").read_text() for c in CLI_COMMANDS}
    wall: Dict[str, List[float]] = {c: [] for c in ("import",
                                                    *CLI_COMMANDS)}
    scaled: Dict[str, List[float]] = {c: [] for c in wall}
    order = list(wall)
    shuffle = random.Random(seed)
    ref_s: List[float] = []
    failed = 0
    checks = []
    start = time.monotonic()
    rounds = 0
    while rounds < CLI_MIN_ROUNDS or time.monotonic() - start < seconds:
        shuffle.shuffle(order)
        for item in order:
            if item == "import":
                body = "    import repro.cli"
            else:
                # What ``python -m repro <item> --seed <seed>`` runs.
                body = ("    import runpy\n"
                        f"    sys.argv = ['repro', {item!r}, '--seed', "
                        f"'{seed}']\n"
                        "    runpy.run_module('repro', run_name='__main__', "
                        "alter_sys=True)")
            elapsed, host_s, code, out = cold_launch(body, ref_s)
            wall[item].append(elapsed)
            scaled[item].append(host_s)
            if code != 0 or (item != "import" and out != golden[item]):
                failed += 1
                checks.append(f"{item}: exit {code} or stdout differs "
                              "from golden")
        rounds += 1

    def suite(times: Dict[str, List[float]]) -> float:
        return sum(statistics.median(times[c]) for c in CLI_COMMANDS)

    stats = {
        "samples_per_s": _stat(len(CLI_COMMANDS) / suite(scaled), "1/s",
                               rounds, "commands / suite_s",
                               len(CLI_COMMANDS) / suite(wall)),
        "suite_s": _stat(suite(scaled), "s", rounds,
                         "sum over commands of the median launch",
                         suite(wall)),
        "setup_s": _stat(statistics.median(scaled["import"]), "s", rounds,
                         "median cold import repro.cli",
                         statistics.median(wall["import"])),
    }
    return {"stats": stats, "ref_s": ref_s, "launch_s": wall,
            "attempted": rounds * len(order), "failed": failed,
            "checks": checks}


def traced(workload: str, seed: int) -> Dict[str, Any]:
    fp = fingerprint()
    report = WORKDIR / f"trace-{workload}-{seed}.json"
    result = run_child({
        "workload": workload, "mode": "trace", "seed": seed,
        "report": str(report), "cli_import": cli_import(),
        "fingerprint": fp, "golden": str(GOLDEN),
        "commands": list(CLI_COMMANDS), "reps": CLI_TRACE_REPS})
    values = result["metrics"]
    stats = {name: _stat(values[name], layers.METRICS[name][0],
                         result["units"], layers.METRICS[name][2])
             for name in layers.METRICS if values[name] is not None}
    return {"stats": stats, "ref_s": result["ref_s"], "fingerprint": fp,
            "attempted": result["attempted"], "failed": result["failed"],
            "checks": result["checks"], "report": str(report),
            "absent": [n for n in layers.METRICS if values[n] is None]}


def measure(workload: str, seed: int, seconds: float, trace: bool
            ) -> Dict[str, Any]:
    WORKDIR.mkdir(exist_ok=True)
    if trace:
        return traced(workload, seed)
    if workload == "paper-cli":
        record = cli_end_to_end(seed, seconds)
    else:
        record = mc_end_to_end(workload, seed, seconds)
    record["fingerprint"] = fingerprint()
    record["stats"]["peak_rss_mb"] = _stat(peak_rss_mb(), "MB", 1,
                                           "max over processes")
    return record


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    record = measure(args.workload, args.seed, args.seconds,
                     bool(args.trace))
    names = layers.METRICS if args.trace else END_TO_END
    ref = record["ref_s"]
    record.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  host_ref_s=_stat(statistics.median(ref), "s", len(ref),
                                   "median of interleaved reference loops"),
                  failed_frac=record["failed"] / record["attempted"])
    record.setdefault("absent", [])
    (WORKDIR / f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1))
    for raw in ("ref_s", "unit_s", "host_s", "launch_s"):
        record.pop(raw, None)
    # Absent per-layer metrics read 0 in the result line, which needs
    # a number for every metric; the record names them under "absent".
    metrics = {}
    for name in names:
        stat = record["stats"].get(name)
        metrics[name] = ({"value": stat["value"], "unit": stat["unit"]}
                         if stat else
                         {"value": 0, "unit": layers.METRICS[name][0]})
    print(json.dumps({"perfbench": record}))
    print(json.dumps({"correct": record["failed"] == 0,
                      "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
