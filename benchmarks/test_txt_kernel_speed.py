"""Txt-P — implicit-GEMM convolution and cache-blocked quantized GEMM.

PR 7 rebuilt the convolution lowering three ways: the float path feeds
geometry-tagged column buffers (border-zeroed once, in-bounds patches
gathered per call) straight to the GEMM instead of materializing a
padded copy first; the quantized path runs its integer GEMM exactly in
BLAS panels sized to the L2 budget (`QGEMM_PANEL_BYTES`; float64 in
PR 7, float32 over proven reduction chunks since PR 23) instead of
int32 `matmul`; and the layout-planner pass converts
quantized conv regions to NHWC between boundary transposes.  All three
are bitwise-identical to the seed paths — speed is the only thing that
may change, and this benchmark is the CI guard on it:

1. *quantized conv throughput* (tiny_yolo int8, single core, arena
   steady state): exact blocked float GEMM vs. the seed int32 path.
   Guarded at >= 1.3x — the headline win of this PR.
2. *float conv throughput* (tiny_yolo fp32): implicit-GEMM vs. seed
   materialized im2col.  The float GEMM call itself is unchanged, so the
   win is only the avoided pad-copy — reported honestly and guarded
   against regression (>= 0.95x).
3. *warm plan build* with the layout pass on vs. off: hydrating a cached
   layout-planned plan must cost <= 1.1x the plain warm build.
4. *scratch footprint*: peak kernel-workspace bytes, implicit vs. seed
   (must shrink — the padded-input copy is gone), plus the per-conv
   column-buffer sizes for both paths.

``REPRO_BENCH_SMOKE=1`` shrinks repeats for CI smoke jobs.  Results go
to ``BENCH_pr7.json`` at the repo root.
"""

import json
import os
import time
from pathlib import Path

import numpy as np

from repro.ir import build_model
from repro.ir.tensor import DType
from repro.optim import AOTConfig, fuse_graph, quantize_int8
from repro.runtime import Executor, PlanCache, compile_plan, load_or_build
from repro.runtime import kernels

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REPEATS = 3 if SMOKE else 7
RUNS = 15 if SMOKE else 40

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_pr7.json"

MODEL = "tiny_yolo"


def _steady_state_us(executor, feeds):
    """Best-of mean microseconds per run in arena steady state."""
    executor.recycle(executor.run(feeds))  # warm arenas and workspaces
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(RUNS):
            executor.recycle(executor.run(feeds))
        best = min(best, (time.perf_counter() - start) / RUNS)
    return best * 1e6


def _interleaved(executors, feeds):
    for executor in executors:
        executor.recycle(executor.run(feeds))
    best = [float("inf")] * len(executors)
    for _ in range(REPEATS):
        for index, executor in enumerate(executors):
            start = time.perf_counter()
            for _ in range(RUNS):
                executor.recycle(executor.run(feeds))
            best[index] = min(best[index],
                              (time.perf_counter() - start) / RUNS)
    return [b * 1e6 for b in best]


def quantized_conv_study():
    """Exact blocked float quantized GEMM vs. the seed int32 path."""
    rng = np.random.default_rng(0)
    base = fuse_graph(build_model(MODEL, batch=1))
    shape = tuple(base.inputs[0].shape)
    x = rng.normal(size=shape).astype(np.float32)
    graph = quantize_int8(base, [{base.inputs[0].name: x}])
    feeds = {base.inputs[0].name: x}

    # Seed path: exact packs off at *compile* time (w_int packs) and the
    # im2col conv mode at *run* time — exactly the pre-PR-7 pipeline.
    prev_exact = kernels.set_exact_qgemm(False)
    prev_mode = kernels.set_conv_mode("im2col")
    try:
        seed_exec = Executor(graph,
                             plan=compile_plan(graph, prepack=True),
                             reuse_buffers=True)
        seed_us = _steady_state_us(seed_exec, feeds)
        seed_peak = seed_exec.plan.workspace.peak_bytes
    finally:
        kernels.set_exact_qgemm(prev_exact)
        kernels.set_conv_mode(prev_mode)

    exact_exec = Executor(graph, plan=compile_plan(graph, prepack=True),
                          reuse_buffers=True)
    exact_us = _steady_state_us(exact_exec, feeds)
    exact_out = exact_exec.run(feeds)

    # Hard bar: the fast path earns nothing unless it is bit-identical.
    prev_exact = kernels.set_exact_qgemm(False)
    prev_mode = kernels.set_conv_mode("im2col")
    try:
        ref_out = Executor(graph).run(feeds)
    finally:
        kernels.set_exact_qgemm(prev_exact)
        kernels.set_conv_mode(prev_mode)
    for name in ref_out:
        np.testing.assert_array_equal(ref_out[name], exact_out[name])

    return {
        "model": f"{MODEL} int8", "seed_us": seed_us,
        "exact_us": exact_us, "speedup": seed_us / exact_us,
        "seed_fps": 1e6 / seed_us, "exact_fps": 1e6 / exact_us,
    }


def float_conv_study():
    """Implicit-GEMM vs. seed materialized im2col, fp32."""
    graph = fuse_graph(build_model(MODEL, batch=1))
    rng = np.random.default_rng(1)
    shape = tuple(graph.inputs[0].shape)
    feeds = {graph.inputs[0].name:
             rng.normal(size=shape).astype(np.float32)}
    implicit_exec = Executor(graph,
                             plan=compile_plan(graph, prepack=True),
                             reuse_buffers=True)
    seed_exec = Executor(graph, plan=compile_plan(graph, prepack=True),
                         reuse_buffers=True)

    prev = kernels.set_conv_mode("implicit")
    try:
        implicit_us = _steady_state_us(implicit_exec, feeds)
        kernels.set_conv_mode("im2col")
        seed_us = _steady_state_us(seed_exec, feeds)
    finally:
        kernels.set_conv_mode(prev)

    return {
        "model": f"{MODEL} fp32", "seed_us": seed_us,
        "implicit_us": implicit_us, "speedup": seed_us / implicit_us,
        "implicit_peak_workspace_bytes":
            implicit_exec.plan.workspace.peak_bytes,
        "seed_peak_workspace_bytes": seed_exec.plan.workspace.peak_bytes,
    }


def plan_build_study(cache_dir):
    """Warm plan hydration with the layout pass on vs. off."""
    rng = np.random.default_rng(2)
    base = fuse_graph(build_model(MODEL, batch=1))
    shape = tuple(base.inputs[0].shape)
    x = rng.normal(size=shape).astype(np.float32)
    graph = quantize_int8(base, [{base.inputs[0].name: x}])
    cache = PlanCache(cache_dir)
    configs = {"off": AOTConfig(), "on": AOTConfig(plan_layout=True)}
    warm = {}
    for name, config in configs.items():
        assert not load_or_build(graph, config=config,
                                 cache=cache).from_cache
    for _ in range(REPEATS):
        for name, config in configs.items():
            start = time.perf_counter()
            model = load_or_build(graph, config=config, cache=cache)
            elapsed = time.perf_counter() - start
            assert model.from_cache
            warm[name] = min(warm.get(name, float("inf")), elapsed)
    return {
        "model": f"{MODEL} int8",
        "warm_layout_off_ms": warm["off"] * 1e3,
        "warm_layout_on_ms": warm["on"] * 1e3,
        "ratio": warm["on"] / warm["off"],
    }


def conv_intermediate_study():
    """Per-conv column-buffer bytes: seed im2col vs. implicit path."""
    graph = fuse_graph(build_model(MODEL, batch=1))
    specs = graph.infer_specs()
    rows = []
    for node in graph.nodes:
        if node.op_type not in ("conv2d", "fused_conv2d", "qconv2d"):
            continue
        data = specs[node.inputs[0]]
        weight = specs[node.inputs[1]]
        out = specs[node.outputs[0]]
        n, _, oh, ow = out.shape
        out_c, in_c, kh, kw = weight.shape
        item = np.dtype(data.dtype.to_numpy()).itemsize
        cols = n * in_c * kh * kw * oh * ow * item
        stride = kernels._pair(node.attrs.get("stride", 1))
        ph, pw = kernels._pair(node.attrs.get("padding", 0))
        pointwise = (kh, kw) == (1, 1) and stride == (1, 1) \
            and not (ph or pw)
        h, w = data.shape[2], data.shape[3]
        padded_input = n * in_c * (h + 2 * ph) * (w + 2 * pw) * item
        rows.append({
            "node": node.name,
            "seed_bytes": cols + (padded_input if (ph or pw) else 0),
            "implicit_bytes": 0 if pointwise else cols,
        })
    return rows


def render(quant, flt, build, inter):
    lines = [
        f"quantized conv throughput ({quant['model']}, 1 core)",
        f"  seed int32 path:  {quant['seed_us']:>10.1f} us/run "
        f"({quant['seed_fps']:.0f} fps)",
        f"  exact blocked:    {quant['exact_us']:>10.1f} us/run "
        f"({quant['exact_fps']:.0f} fps)",
        f"  speedup:          {quant['speedup']:>10.2f}x  (guard >= 1.30x)",
        f"float conv throughput ({flt['model']}, 1 core)",
        f"  seed im2col:      {flt['seed_us']:>10.1f} us/run",
        f"  implicit GEMM:    {flt['implicit_us']:>10.1f} us/run",
        f"  speedup:          {flt['speedup']:>10.2f}x  (guard >= 0.95x)",
        f"  peak workspace:   "
        f"{flt['seed_peak_workspace_bytes']:>10d} B seed -> "
        f"{flt['implicit_peak_workspace_bytes']:>10d} B implicit",
        f"warm plan build ({build['model']})",
        f"  layout pass off:  {build['warm_layout_off_ms']:>10.2f} ms",
        f"  layout pass on:   {build['warm_layout_on_ms']:>10.2f} ms",
        f"  ratio:            {build['ratio']:>10.2f}x  (guard <= 1.10x)",
        "per-conv column buffers (bytes, seed -> implicit)",
    ]
    for row in inter:
        lines.append(f"  {row['node']:<24} {row['seed_bytes']:>10d} -> "
                     f"{row['implicit_bytes']:>10d}")
    return "\n".join(lines)


def test_txt_kernel_speed(benchmark, report, tmp_path):
    def study():
        return (quantized_conv_study(), float_conv_study(),
                plan_build_study(tmp_path / "plan-cache"),
                conv_intermediate_study())

    quant, flt, build, inter = benchmark.pedantic(study, rounds=1,
                                                  iterations=1)
    report("txt_kernel_speed", render(quant, flt, build, inter))
    BENCH_JSON.write_text(json.dumps({
        "benchmark": "txt_kernel_speed",
        "smoke": SMOKE,
        "quantized_conv": quant,
        "float_conv": flt,
        "plan_build": build,
        "conv_intermediates": inter,
    }, indent=2) + "\n")

    # CI guards.  The quantized rewrite is the tentpole: >= 1.3x or the
    # PR has not delivered.  The float path only drops the pad copy, so
    # it is guarded against regression, not oversold.
    assert quant["speedup"] >= 1.3, quant
    assert flt["speedup"] >= 0.95, flt
    # The layout pass must not make warm starts meaningfully slower.
    assert build["ratio"] <= 1.10, build
    # The padded-input copy is gone, so the scratch high-water mark must
    # shrink on conv-heavy float workloads.
    assert flt["implicit_peak_workspace_bytes"] < \
        flt["seed_peak_workspace_bytes"], flt
    # The pointwise convs run straight off input views.
    assert any(row["implicit_bytes"] == 0 and row["seed_bytes"] > 0
               for row in inter), inter
