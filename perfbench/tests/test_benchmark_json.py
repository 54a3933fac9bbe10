"""BENCHMARK.json agrees with the benchmark code and the name rules."""

import json
import pathlib
import re

import pytest

import layers
import run

ROOT = pathlib.Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_top_level_keys(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int)
    assert 1 <= spec["run_seconds"] <= 60


def test_every_name_matches_the_pattern(spec):
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for name in layers.METRICS:
        assert NAME.fullmatch(name), name


def test_workloads_match_the_runner(spec):
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for workload in spec["workloads"]:
        assert set(workload) == {"name", "why"}
        assert 0 < len(workload["why"]) <= 200
        assert "\n" not in workload["why"]


def test_end_to_end_units_directions_and_bounds(spec):
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    assert list(metrics) == list(run.END_TO_END)
    for name, metric in metrics.items():
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert metric["unit"] == run.END_TO_END[name]
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
    assert metrics["setup_s"]["unit"] == "s"
    assert metrics["setup_s"]["better"] == "lower"
    assert metrics["samples_per_s"]["better"] == "higher"
    assert metrics["setup_s"]["bound"] == max(
        m["bound"] for m in metrics.values())


def test_per_layer_matches_the_layer_map(spec):
    per_layer = spec["per_layer"]
    assert [m["name"] for m in per_layer] == list(layers.METRICS)
    for metric in per_layer:
        assert set(metric) == {"name", "unit", "better"}
        unit, better, _meaning = layers.METRICS[metric["name"]]
        assert metric["unit"] == unit
        assert metric["better"] == better
        assert UNIT.fullmatch(unit)
