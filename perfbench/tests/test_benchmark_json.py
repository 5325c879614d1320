"""BENCHMARK.json must list exactly the metrics the benchmark prints."""

import json
import os
import re

from perfbench.metrics import END_TO_END, PER_LAYER
from perfbench.run import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_keys_and_command():
    spec = _spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60


def test_workloads_match_the_runner():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and "\n" not in w["why"] and len(w["why"]) <= 200


def test_metrics_match_the_tables():
    spec = _spec()
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    assert list(e2e) == list(END_TO_END)
    assert list(layer) == list(PER_LAYER)
    for name, m in e2e.items():
        assert set(m) == {"name", "unit", "better", "bound"}
        assert (m["unit"], m["better"]) == END_TO_END[name]
        assert 0 < m["bound"] <= 0.25
    for name, m in layer.items():
        assert set(m) == {"name", "unit", "better"}
        assert (m["unit"], m["better"]) == PER_LAYER[name]
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    for m in list(e2e.values()) + list(layer.values()):
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
    assert len(set(e2e) | set(layer)) == len(e2e) + len(layer)
