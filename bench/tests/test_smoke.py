"""``python -m bench --smoke`` end to end: every workload, both runs, a
schema-valid document, and nothing left behind."""

import json
import os
import subprocess
import sys
import time

import pytest

from bench import SCHEMA_VERSION, metrics
from bench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def _env():
    return {k: v for k, v in os.environ.items()
            if not k.startswith("REPRO_")}


def _shm_segments():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("repro_")}
    except OSError:
        return set()


def _spawned_children():
    """Pids of multiprocessing children (replicas, resource trackers)."""
    found = set()
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/cmdline", "rb") as handle:
                if b"multiprocessing" in handle.read():
                    found.add(int(pid))
        except OSError:
            pass
    return found


def test_smoke_runs_everything_and_leaves_nothing(tmp_path):
    segments, children = _shm_segments(), _spawned_children()
    out = tmp_path / "bench.json"
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke", "--out", str(out)],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=120)
    elapsed = time.perf_counter() - start
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert elapsed < 30.0

    doc = json.loads(out.read_text())
    assert doc["schema"] == SCHEMA_VERSION and doc["smoke"] is True
    assert set(doc["host"]) >= {"nproc", "cpu_model", "python", "numpy",
                                "blas", "git_commit"}
    (one_set,) = doc["sets"]
    assert list(one_set) == list(WORKLOADS)
    for name, runs in one_set.items():
        untraced, traced = runs["end_to_end"], runs["traced"]
        assert untraced["correct"] and traced["correct"]
        assert untraced["failed_share"] == 0.0
        assert untraced["seed"] == 0
        assert [m for m in untraced["metrics"]] == \
            [m.name for m in metrics.END_TO_END]
        for metric in metrics.END_TO_END:
            cell = untraced["metrics"][metric.name]
            assert cell["unit"] == metric.unit
            assert cell["value"] > 0, (name, metric.name)
        for phase in ("warm_up", "low", "mid", "high", "saturation"):
            counts = untraced["phases"][phase]
            assert counts["attempted"] == counts["succeeded"] > 0
            assert counts["failed"] == 0
            assert counts["elapsed_s"] > 0
        assert [m for m in traced["metrics"]] == \
            [m.name for m in metrics.PER_LAYER]
        for metric in metrics.PER_LAYER:
            value = traced["metrics"][metric.name]["value"]
            if value is None:
                assert traced["nulls"][metric.name]
            else:
                assert isinstance(value, (int, float))
        closure = traced["metrics"][
            ("engine" if WORKLOADS[name].frontend == "engine"
             else "replicas") + ".phase_closure"]["value"]
        assert closure is not None and closure > 0
        assert traced["metrics"]["shm.leaked_segments"]["value"] == 0
        assert traced["metrics"]["telemetry.trace_overhead_share"][
            "value"] is not None
        assert os.path.exists(os.path.join(ROOT, traced["trace_file"]))
    tier = one_set["frame_tier"]["traced"]["metrics"]
    assert tier["replicas.restarts"]["value"] == 0
    assert tier["replicas.shm_fallbacks"]["value"] == 0
    assert tier["replicas.shm_requests"]["value"] > 0
    assert one_set["mlp_engine"]["traced"]["metrics"][
        "batcher.adaptive_shed_share"]["value"] is not None

    assert _shm_segments() <= segments
    assert _spawned_children() <= children


def test_one_run_ends_with_the_contract_line():
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "mlp_engine",
         "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    line = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0
    assert line["attempted"] >= 1
    assert set(line["metrics"]) == {m.name for m in metrics.END_TO_END}
    for cell in line["metrics"].values():
        assert set(cell) == {"value", "unit"}
        assert isinstance(cell["value"], (int, float))


def _session_pids():
    """Pids of this session's processes, exiting ones included (their
    command line is already empty, their ``stat`` is not)."""
    session, found = os.getsid(0), set()
    for pid in os.listdir("/proc"):
        if not pid.isdigit():
            continue
        try:
            with open(f"/proc/{pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == session:
            found.add(int(pid))
    return found


def test_a_tier_run_has_stopped_every_process_when_it_exits():
    """The replica is joined by ``close()``; multiprocessing's resource
    tracker would outlive the run by some milliseconds unless the run
    stops it and waits."""
    before = _session_pids()
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "frame_tier",
         "--seed", "1", "--seconds", "1", "--trace", "0", "--smoke"],
        cwd=ROOT, env=_env(), capture_output=True, text=True, timeout=60)
    after = _session_pids()
    assert done.returncode == 0, done.stderr[-2000:]
    assert after <= before


def test_refuses_a_configured_environment():
    env = dict(_env(), REPRO_NUM_THREADS="2")
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--smoke"], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "REPRO_NUM_THREADS" in done.stderr


def test_fails_without_the_program(tmp_path):
    """Where only the benchmark's own files exist there is nothing to
    measure: exit non-zero and print no result."""
    import shutil
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    env = {k: v for k, v in _env().items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "mlp_engine",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
