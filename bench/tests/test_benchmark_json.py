"""BENCHMARK.json says what the code reports, inside the contract's
limits."""

import json
import os
import re

from bench import metrics
from bench.__main__ import DEFAULT_SECONDS
from bench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


def _load():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def test_keys_and_command():
    doc = _load()
    assert set(doc) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "-m", "bench"]
    assert doc["paths"] == ["bench"]
    assert doc["run_seconds"] == DEFAULT_SECONDS
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) < 64 * 1024


def test_workloads_match():
    doc = _load()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    for entry in doc["workloads"]:
        assert set(entry) == {"name", "why"}
        assert NAME.match(entry["name"])
        assert "\n" not in entry["why"] and len(entry["why"]) <= 200
        assert entry["why"] == WORKLOADS[entry["name"]].why


def test_metrics_match():
    doc = _load()
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] \
        == [tuple(m) for m in metrics.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == [tuple(m) for m in metrics.PER_LAYER]
    assert len(doc["per_layer"]) <= 128 and len(doc["end_to_end"]) <= 16
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]] \
        + [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert NAME.match(m["name"]) and UNIT.match(m["unit"])
        assert m["better"] in ("lower", "higher")
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])


def test_every_kernel_group_is_a_metric():
    names = {m.name for m in metrics.PER_LAYER}
    assert set(metrics.KERNEL_GROUPS) <= names
