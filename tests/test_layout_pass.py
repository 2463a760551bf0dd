"""Tests for the per-plan memory-layout pass (LayoutPlanner).

The pass rewrites quantized conv regions to NHWC with boundary
transposes.  Its contract is absolute: with the pass enabled, every
model in the zoo — float, quantized, at any thread count, packed or
interpreted — produces *bitwise* identical outputs to the plain graph.
Float graphs contain no eligible regions, so the pass must leave them
untouched; quantized conv nets must form regions and still match.
"""

import json

import numpy as np
import pytest

from repro.ir import build_model
from repro.optim import (
    AOTConfig,
    QuantizePass,
    calibrate,
    fuse_graph,
    specialize_graph,
)
from repro.optim.passes import LayoutPlanner, PassManager
from repro.runtime import (
    Executor,
    PlanCache,
    compile_plan,
    load_or_build,
)
from repro.runtime import kernels


def quantized_net(name="tiny_convnet", batch=2, **overrides):
    g = fuse_graph(build_model(name, batch=batch, **overrides))
    rng = np.random.default_rng(7)
    shape = tuple(g.inputs[0].shape)
    feeds = [{g.inputs[0].name: rng.normal(size=shape).astype(np.float32)}
             for _ in range(3)]
    return QuantizePass(calibrate(g, feeds)).run(g)


def reference_feeds(graph, seed=3):
    rng = np.random.default_rng(seed)
    return {
        spec.name: rng.normal(size=spec.shape)
        .astype(spec.dtype.to_numpy())
        for spec in graph.inputs
    }


def assert_bitwise(expected, got):
    assert set(expected) == set(got)
    for name, value in expected.items():
        assert got[name].dtype == value.dtype
        np.testing.assert_array_equal(got[name], value)


class TestRegionFormation:
    def test_quantized_convnet_forms_one_region(self):
        g = quantized_net()
        pm = PassManager([LayoutPlanner()])
        g2 = pm.run(g)
        details = pm.reports[-1].details
        assert details["regions"] == 1
        assert details["transposes"] == 2  # one entry, one exit
        nhwc_convs = [n for n in g2.nodes if n.op_type == "qconv2d"
                      and n.attrs.get("layout") == "NHWC"]
        assert nhwc_convs
        transposes = [n for n in g2.nodes if n.op_type == "transpose"]
        assert len(transposes) == 2
        perms = sorted(tuple(n.attrs["perm"]) for n in transposes)
        assert perms == [(0, 2, 3, 1), (0, 3, 1, 2)]

    def test_float_graph_untouched(self):
        g = fuse_graph(build_model("tiny_convnet", batch=1))
        pm = PassManager([LayoutPlanner()])
        g2 = pm.run(g)
        assert pm.reports[-1].details["regions"] == 0
        assert [n.op_type for n in g2.nodes] == \
            [n.op_type for n in g.nodes]

    def test_min_convs_threshold(self):
        g = quantized_net()
        pm = PassManager([LayoutPlanner(min_convs=1000)])
        g2 = pm.run(g)
        assert pm.reports[-1].details["regions"] == 0
        assert not any(n.op_type == "transpose" for n in g2.nodes)

    def test_disabled_exact_qgemm_disables_pass(self):
        g = quantized_net()
        prev = kernels.set_exact_qgemm(False)
        try:
            pm = PassManager([LayoutPlanner()])
            pm.run(g)
            assert pm.reports[-1].details["regions"] == 0
        finally:
            kernels.set_exact_qgemm(prev)

    def test_graph_revalidates_and_output_names_survive(self):
        g = quantized_net()
        g2 = PassManager([LayoutPlanner()]).run(g)
        g2.validate()
        assert g2.output_names == g.output_names
        specs = g2.infer_specs()
        ref_specs = g.infer_specs()
        for name in g.output_names:
            assert specs[name].shape == ref_specs[name].shape


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("model,overrides", [
        ("tiny_convnet", {}),
        ("tiny_yolo", {}),
        ("mobilenet_v3_small", {"image_size": 64}),
    ])
    @pytest.mark.parametrize("prepack", [True, False])
    def test_zoo_quantized_bitwise(self, model, overrides, prepack):
        g = quantized_net(model, **overrides)
        g2 = PassManager([LayoutPlanner()]).run(g)
        feeds = reference_feeds(g)
        ref = Executor(g, plan=compile_plan(g, prepack=prepack)).run(feeds)
        plan = compile_plan(g2, prepack=prepack)
        for threads in (1, 2, 8):
            got = Executor(g2, plan=plan, num_threads=threads).run(feeds)
            assert_bitwise(ref, got)

    def test_arena_execution_bitwise(self):
        g = quantized_net("tiny_yolo")
        g2 = PassManager([LayoutPlanner()]).run(g)
        feeds = reference_feeds(g)
        ref = Executor(g).run(feeds)
        ex = Executor(g2, reuse_buffers=True, prewarm=True)
        for _ in range(2):
            assert_bitwise(ref, ex.run(feeds))

    def test_specialize_graph_knob(self):
        g = quantized_net()
        feeds = reference_feeds(g)
        ref = Executor(g).run(feeds)
        g2 = specialize_graph(g, AOTConfig(plan_layout=True))
        assert any(n.op_type == "transpose" for n in g2.nodes)
        assert_bitwise(ref, Executor(g2).run(feeds))

    def test_float_zoo_models_pass_is_noop(self):
        for model in ("tiny_convnet", "tiny_yolo"):
            g = fuse_graph(build_model(model, batch=1))
            g2 = PassManager([LayoutPlanner()]).run(g)
            feeds = reference_feeds(g)
            assert_bitwise(Executor(g).run(feeds), Executor(g2).run(feeds))


class TestCacheTokenAndPlanCache:
    def test_cache_token_includes_layout_knob(self):
        off = AOTConfig().cache_token()
        on = AOTConfig(plan_layout=True).cache_token()
        assert off != on
        assert ":ly=0" in off and ":ly=1" in on

    def test_layout_plans_round_trip_through_cache(self, tmp_path):
        g = quantized_net()
        cache = PlanCache(tmp_path)
        config = AOTConfig(plan_layout=True)
        feeds = reference_feeds(g)
        ref = Executor(g).run(feeds)
        cold = load_or_build(g, config=config, cache=cache)
        assert not cold.from_cache
        warm = load_or_build(g, config=config, cache=cache)
        assert warm.from_cache
        assert any(n.op_type == "transpose" for n in warm.graph.nodes)
        assert_bitwise(ref, Executor(warm.graph, plan=warm.plan).run(feeds))

    def test_exact_packs_round_trip(self, tmp_path):
        """The exact-GEMM panels (float32 under the prepacker's proof,
        float64 otherwise) must survive the blob round trip and load as
        bit-identical arrays of the dtype they were packed in."""
        g = quantized_net()
        cache = PlanCache(tmp_path)
        cold = load_or_build(g, cache=cache)
        warm = load_or_build(g, cache=cache)
        assert warm.from_cache
        exact_packs = 0
        for node_name, entries in cold.plan.packs.items():
            for entry_name, value in entries.items():
                loaded = warm.plan.packs[node_name][entry_name]
                assert loaded.dtype == value.dtype
                np.testing.assert_array_equal(loaded, value)
                if entry_name.endswith("_exact"):
                    assert value.dtype in (np.float32, np.float64)
                    exact_packs += 1
        assert exact_packs > 0

    def test_stale_version_entry_rebuilt_in_place(self, tmp_path):
        g = quantized_net()
        cache = PlanCache(tmp_path)
        cold = load_or_build(g, cache=cache)
        meta_path = tmp_path / cold.key / "meta.json"
        meta = json.loads(meta_path.read_text())
        meta["version"] = meta["version"] - 1  # pretend an old format
        meta_path.write_text(json.dumps(meta))
        rebuilt = load_or_build(g, cache=cache)
        assert not rebuilt.from_cache  # stale entry was a miss
        # ... and the store replaced it in place: next load hits v-now
        assert json.loads(meta_path.read_text())["version"] == \
            json.loads((tmp_path / cold.key / "meta.json").read_text())[
                "version"]
        warm = load_or_build(g, cache=cache)
        assert warm.from_cache
        feeds = reference_feeds(g)
        assert_bitwise(Executor(g).run(feeds),
                       Executor(warm.graph, plan=warm.plan).run(feeds))
