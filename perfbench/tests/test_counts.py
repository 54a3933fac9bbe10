"""The traced run's deterministic counts repeat for a fixed seed.

Each workload runs twice as a short traced run (one steady unit after
the warm-up) in fresh processes; every count, and ``cli.modules_loaded``
from a fresh ``import repro.cli``, must come out identical.
"""

import subprocess
import sys

import pytest

import layers
import run

SEED = 11


def _counts(workload):
    result = run.run_child({
        "workload": workload, "mode": "trace", "seed": SEED, "units": 1,
        "report": str(run.WORKDIR / f"test-trace-{workload}.json"),
        "cli_import": {}, "fingerprint": {}, "golden": str(run.GOLDEN),
        "commands": list(run.CLI_COMMANDS), "reps": 1})
    assert result["checks"] == []
    assert result["failed"] == 0
    return {name: result["metrics"][name] for name in layers.COUNTS}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_counts_repeat_exactly(workload):
    run.WORKDIR.mkdir(exist_ok=True)
    first = _counts(workload)
    second = _counts(workload)
    assert first == second
    assert any(value for value in first.values())


def test_modules_loaded_repeats():
    first = run.cli_import()["cli.modules_loaded"]
    second = run.cli_import()["cli.modules_loaded"]
    assert first == second > 0


def test_refuses_to_run_without_the_program(tmp_path):
    """Only BENCHMARK.json and perfbench/: exit non-zero, print no result."""
    import shutil
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gbl-mc",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
