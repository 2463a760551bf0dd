"""Tests for repro.runtime.plan_cache: the persistent compiled-plan store.

Covers the cache-key contract (stable across processes, moved by any
weight/config/topology change), hit/miss/store accounting, bitwise
equality of warm-loaded plans, corruption tolerance, maintenance
operations, and the serving engine's hit/miss metrics integration.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.ir import build_model
from repro.ir.serialization import graph_fingerprint
from repro.optim import AOTConfig
from repro.runtime import Executor, PlanCache, default_cache_dir, load_or_build
from repro.runtime.plan_cache import CACHE_ENV_VAR, ENTRY_VERSION
from repro.serving import InferenceEngine


def small_graph(name="tiny_convnet", batch=1):
    return build_model(name, batch=batch)


def reference_feeds(graph, seed=0):
    rng = np.random.default_rng(seed)
    return {
        spec.name: rng.normal(size=spec.shape).astype(spec.dtype.to_numpy())
        for spec in graph.inputs
    }


class TestCacheKey:
    def test_stable_within_process(self, tmp_path):
        cache = PlanCache(tmp_path)
        g = small_graph()
        assert cache.key_for(g) == cache.key_for(g)
        assert cache.key_for(g) == cache.key_for(g.copy())

    def test_stable_across_processes(self, tmp_path):
        """The same model must hash identically in a fresh interpreter —
        the whole point of a *persistent* cache."""
        g = small_graph("mlp")
        parent_fp = graph_fingerprint(g)
        parent_key = PlanCache(tmp_path).key_for(g)
        script = (
            "from repro.ir import build_model\n"
            "from repro.ir.serialization import graph_fingerprint\n"
            "from repro.runtime import PlanCache\n"
            "g = build_model('mlp', batch=1)\n"
            "print(graph_fingerprint(g))\n"
            f"print(PlanCache({str(tmp_path)!r}).key_for(g))\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            check=True, cwd=str(Path(__file__).resolve().parent.parent),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        child_fp, child_key = out.stdout.split()
        assert child_fp == parent_fp
        assert child_key == parent_key

    def test_weight_change_moves_key(self, tmp_path):
        cache = PlanCache(tmp_path)
        g = small_graph()
        before = cache.key_for(g)
        name = next(iter(g.initializers))
        g.initializers[name] = g.initializers[name] + np.float32(1e-3)
        assert cache.key_for(g) != before

    def test_config_change_moves_key(self, tmp_path):
        cache = PlanCache(tmp_path)
        g = small_graph()
        assert cache.key_for(g, AOTConfig()) != \
            cache.key_for(g, AOTConfig(fold_constants=False))
        assert cache.key_for(g, AOTConfig()) != \
            cache.key_for(g, AOTConfig(prepack=False))

    def test_topology_change_moves_key(self, tmp_path):
        cache = PlanCache(tmp_path)
        g = small_graph(batch=1)
        assert cache.key_for(g) != cache.key_for(g.with_batch(2))


class TestLoadStore:
    def test_miss_builds_then_hit_loads(self, tmp_path):
        cache = PlanCache(tmp_path)
        g = small_graph()
        cold = load_or_build(g, cache=cache)
        assert not cold.from_cache
        assert cache.stats.misses == 1 and cache.stats.stores == 1
        warm = load_or_build(g, cache=cache)
        assert warm.from_cache
        assert warm.key == cold.key
        assert cache.stats.hits == 1

    def test_warm_plan_is_bitwise_identical(self, tmp_path):
        cache = PlanCache(tmp_path)
        g = small_graph("tiny_yolo")
        feeds = reference_feeds(g)
        reference = Executor(g).run(feeds)
        cold = load_or_build(g, cache=cache)
        warm = load_or_build(g, cache=cache)
        assert warm.from_cache
        for model in (cold, warm):
            got = Executor(model.graph, plan=model.plan).run(feeds)
            for name, value in reference.items():
                assert got[name].dtype == value.dtype
                np.testing.assert_array_equal(got[name], value)

    def test_warm_plan_supports_arena_execution(self, tmp_path):
        cache = PlanCache(tmp_path)
        g = small_graph()
        feeds = reference_feeds(g)
        reference = Executor(g).run(feeds)
        load_or_build(g, cache=cache)
        warm = load_or_build(g, cache=cache)
        executor = Executor(warm.graph, plan=warm.plan, reuse_buffers=True)
        for _ in range(2):
            got = executor.run(feeds)
            for name, value in reference.items():
                np.testing.assert_array_equal(got[name], value)
            executor.recycle(got)

    def test_corrupt_meta_is_a_miss_and_rebuilds(self, tmp_path):
        cache = PlanCache(tmp_path)
        g = small_graph()
        cold = load_or_build(g, cache=cache)
        (tmp_path / cold.key / "meta.json").write_text("{not json")
        rebuilt = load_or_build(g, cache=cache)
        assert not rebuilt.from_cache
        assert load_or_build(g, cache=cache).from_cache

    def test_truncated_blob_is_a_miss(self, tmp_path):
        cache = PlanCache(tmp_path)
        g = small_graph()
        cold = load_or_build(g, cache=cache)
        blob = tmp_path / cold.key / "weights.bin"
        blob.write_bytes(blob.read_bytes()[: blob.stat().st_size // 2])
        assert cache.load(cold.key) is None
        assert not load_or_build(g, cache=cache).from_cache

    def test_entry_version_mismatch_is_a_miss(self, tmp_path):
        cache = PlanCache(tmp_path)
        g = small_graph()
        cold = load_or_build(g, cache=cache)
        meta_path = tmp_path / cold.key / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 999
        meta_path.write_text(json.dumps(meta))
        assert cache.load(cold.key) is None

    def test_old_entry_version_is_a_miss(self, tmp_path):
        """A version-5 entry (it carried a threaded executor's step
        schedule) misses, is rebuilt in place, and runs with the bits of
        the interpreter."""
        cache = PlanCache(tmp_path)
        g = small_graph()
        feeds = reference_feeds(g)
        reference = Executor(g).run(feeds)
        cold = load_or_build(g, cache=cache)
        meta_path = tmp_path / cold.key / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = 5
        meta["schedule"] = {"indegree": [0] * len(meta["releases"])}
        meta_path.write_text(json.dumps(meta))
        assert cache.load(cold.key) is None
        rebuilt = load_or_build(g, cache=cache)
        assert not rebuilt.from_cache and rebuilt.key == cold.key
        assert json.loads(meta_path.read_text())["version"] == ENTRY_VERSION
        assert "schedule" not in json.loads(meta_path.read_text())
        for model in (rebuilt, load_or_build(g, cache=cache)):
            got = Executor(model.graph, plan=model.plan).run(feeds)
            for name, value in reference.items():
                assert got[name].dtype == value.dtype
                assert got[name].tobytes() == value.tobytes(), name

    def test_default_load_memmaps_weights_read_only(self, tmp_path):
        cache = PlanCache(tmp_path)
        g = small_graph("mlp")
        cold = load_or_build(g, cache=cache)
        graph, _ = cache.load(cold.key)
        assert graph.initializers            # mlp has weights
        for name, value in graph.initializers.items():
            # Views into one shared file mapping: not writable, and the
            # base chain bottoms out in np.memmap — the property the
            # replica tier's zero-copy weight sharing rests on.
            assert not value.flags.writeable
            base = value
            while isinstance(base, np.ndarray) and \
                    not isinstance(base, np.memmap):
                base = base.base
            assert isinstance(base, np.memmap)

    def test_mmap_false_loads_private_writable_copy(self, tmp_path):
        cache = PlanCache(tmp_path)
        g = small_graph("mlp")
        cold = load_or_build(g, cache=cache)
        feeds = reference_feeds(g)
        graph, plan = cache.load(cold.key, mmap=False)
        reference = Executor(graph, plan=plan).run(feeds)
        name = next(iter(graph.initializers))
        value = graph.initializers[name]
        assert value.flags.writeable
        # Mutating the private copy must not reach the file: a fresh
        # mmap load still executes identically.
        value.fill(0.0)
        fresh_graph, fresh_plan = cache.load(cold.key)
        got = Executor(fresh_graph, plan=fresh_plan).run(feeds)
        for out_name, out_value in reference.items():
            np.testing.assert_array_equal(got[out_name], out_value)

    def test_mmap_and_private_loads_execute_identically(self, tmp_path):
        cache = PlanCache(tmp_path)
        g = small_graph()
        feeds = reference_feeds(g)
        load_or_build(g, cache=cache)
        key = cache.key_for(g)
        mapped_graph, mapped_plan = cache.load(key)
        private_graph, private_plan = cache.load(key, mmap=False)
        mapped = Executor(mapped_graph, plan=mapped_plan).run(feeds)
        private = Executor(private_graph, plan=private_plan).run(feeds)
        for name, value in mapped.items():
            assert value.dtype == private[name].dtype
            np.testing.assert_array_equal(value, private[name])


class TestMaintenance:
    def test_entries_report_metadata(self, tmp_path):
        cache = PlanCache(tmp_path)
        g = small_graph()
        cold = load_or_build(g, cache=cache)
        entries = cache.entries()
        assert len(entries) == 1
        entry = entries[0]
        assert entry["key"] == cold.key
        assert entry["graph"] == g.name
        assert entry["nodes"] == len(cold.graph.nodes)
        assert entry["bytes"] > 0

    def test_clear_removes_everything(self, tmp_path):
        cache = PlanCache(tmp_path)
        load_or_build(small_graph("mlp"), cache=cache)
        load_or_build(small_graph("tiny_convnet"), cache=cache)
        assert cache.clear() == 2
        assert cache.entries() == []
        assert not load_or_build(small_graph("mlp"), cache=cache).from_cache

    def test_default_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "custom"))
        assert default_cache_dir() == tmp_path / "custom"
        monkeypatch.delenv(CACHE_ENV_VAR)
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
        assert default_cache_dir() == \
            tmp_path / "xdg" / "repro" / "plan-cache"


class TestEngineIntegration:
    def test_engine_counts_misses_then_hits(self, tmp_path):
        cache = PlanCache(tmp_path)
        g = small_graph(batch=1)
        sample = reference_feeds(g)
        with InferenceEngine(g, workers=1, max_batch=1,
                             plan_cache=cache) as engine:
            first = engine.infer_sync(sample, timeout=30)
            snapshot = engine.metrics()
        assert snapshot.plan_cache_misses == 1
        assert snapshot.plan_cache_hits == 0
        # A restarted engine over the same cache warm-starts from disk.
        with InferenceEngine(g, workers=1, max_batch=1,
                             plan_cache=cache) as engine:
            second = engine.infer_sync(sample, timeout=30)
            snapshot = engine.metrics()
        assert snapshot.plan_cache_hits == 1
        assert snapshot.plan_cache_misses == 0
        assert "plan cache" in snapshot.report()
        for name, value in first.items():
            np.testing.assert_array_equal(value, second[name])
