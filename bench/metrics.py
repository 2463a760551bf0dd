"""Every metric the benchmark reports, by name.

``BENCHMARK.json`` lists the same names (a test holds the two
together); ``README.md`` says how each is measured and which end-to-end
metric it should move on which workload.
"""

from __future__ import annotations

from typing import List, NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str       # "lower" or "higher"


# name, unit, better — reported for every workload by the untraced run.
END_TO_END: List[Metric] = [Metric(*row) for row in (
    ("setup_s", "s", "lower"),
    ("unloaded_p50_ms", "ms", "lower"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_p95_ms", "ms", "lower"),
    ("throughput_rps", "1/s", "higher"),
    ("max_rate_in_slo_rps", "1/s", "higher"),
    ("succeeded_share", "ratio", "higher"),
    ("cpu_s_per_1k_req", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)]

# Reported by the traced run.  A metric of a layer that is not on a
# workload's path reads 0 there (and null, with the reason, in the
# run's record).
PER_LAYER: List[Metric] = [Metric(*row) for row in (
    ("gen.lag_p95_ms", "ms", "lower"),
    ("gen.offered_rps", "1/s", "higher"),
    ("gen.step_reruns", "count", "lower"),
    ("ir.build_s", "s", "lower"),
    ("optim.quantize_s", "s", "lower"),
    ("optim.specialize_s", "s", "lower"),
    ("plan.compile_b1_s", "s", "lower"),
    ("plan.compile_b8_s", "s", "lower"),
    ("plan_cache.cold_build_s", "s", "lower"),
    ("plan_cache.warm_load_s", "s", "lower"),
    ("plan_cache.entry_bytes", "bytes", "lower"),
    ("executor.run_b1_ms", "ms", "lower"),
    ("executor.run_b8_ms", "ms", "lower"),
    ("executor.step_overhead_us", "us", "lower"),
    ("kernels.conv_ms", "ms", "lower"),
    ("kernels.qconv_ms", "ms", "lower"),
    ("kernels.dense_ms", "ms", "lower"),
    ("kernels.qdense_ms", "ms", "lower"),
    ("kernels.requant_ms", "ms", "lower"),
    ("kernels.pool_ms", "ms", "lower"),
    ("kernels.elementwise_ms", "ms", "lower"),
    ("kernels.layout_ms", "ms", "lower"),
    ("kernels.gflops_b8", "GFLOP/s", "higher"),
    ("kernels.peak_share_b8", "ratio", "higher"),
    ("kernels.bytes_moved_mb_b1", "MB", "lower"),
    ("host.sgemm_gflops", "GFLOP/s", "higher"),
    ("host.dgemm_gflops", "GFLOP/s", "higher"),
    ("host.memcpy_gbps", "GB/s", "higher"),
    ("arena.allocations_sat", "count", "lower"),
    ("arena.reuses_sat", "count", "higher"),
    ("batcher.submit_us", "us", "lower"),
    ("batcher.next_batch_us", "us", "lower"),
    ("batcher.mean_batch_mid", "count", "higher"),
    ("batcher.mean_batch_sat", "count", "higher"),
    ("batcher.adaptive_shed_share", "ratio", "lower"),
    ("batcher.adaptive_goodput_share", "ratio", "higher"),
    ("engine.admit_us", "us", "lower"),
    ("engine.start_s", "s", "lower"),
    ("engine.close_s", "s", "lower"),
    ("engine.overhead_unloaded_ms", "ms", "lower"),
    ("engine.overhead_sat_us", "us", "lower"),
    ("engine.cpu_share_sat", "ratio", "lower"),
    ("engine.phase.queue_wait_ms", "ms", "lower"),
    ("engine.phase.dispatch_wait_ms", "ms", "lower"),
    ("engine.phase.batch_assembly_ms", "ms", "lower"),
    ("engine.phase.execute_ms", "ms", "lower"),
    ("engine.phase.finalize_ms", "ms", "lower"),
    ("engine.phase_closure", "ratio", "higher"),
    ("replicas.spawn_s", "s", "lower"),
    ("replicas.close_s", "s", "lower"),
    ("replicas.overhead_unloaded_ms", "ms", "lower"),
    ("replicas.parent_cpu_share_sat", "ratio", "lower"),
    ("replicas.child_cpu_share_sat", "ratio", "higher"),
    ("replicas.shm_requests", "count", "higher"),
    ("replicas.shm_fallbacks", "count", "lower"),
    ("replicas.restarts", "count", "lower"),
    ("replicas.refused", "count", "lower"),
    ("replicas.phase.queue_wait_ms", "ms", "lower"),
    ("replicas.phase.slot_wait_ms", "ms", "lower"),
    ("replicas.phase.batch_assembly_ms", "ms", "lower"),
    ("replicas.phase.dispatch_ms", "ms", "lower"),
    ("replicas.phase.finalize_ms", "ms", "lower"),
    ("replicas.phase_closure", "ratio", "higher"),
    ("shm.write_us_b8", "us", "lower"),
    ("shm.read_us_b8", "us", "lower"),
    ("shm.gbps", "GB/s", "higher"),
    ("shm.leaked_segments", "count", "lower"),
    ("wire.pack_us_b8", "us", "lower"),
    ("wire.decode_us_b8", "us", "lower"),
    ("telemetry.trace_overhead_share", "ratio", "lower"),
    ("telemetry.scrape_ms", "ms", "lower"),
)]

# The Profiler's op types, grouped the way the kernels.* metrics read.
KERNEL_GROUPS = {
    "kernels.conv_ms": ("conv2d", "fused_conv2d", "bconv2d"),
    "kernels.qconv_ms": ("qconv2d",),
    "kernels.dense_ms": ("dense", "fused_dense", "bdense"),
    "kernels.qdense_ms": ("qdense",),
    "kernels.requant_ms": ("quantize", "dequantize"),
    "kernels.pool_ms": ("maxpool2d", "avgpool2d", "global_avgpool2d"),
    "kernels.elementwise_ms": (
        "relu", "relu6", "leaky_relu", "sigmoid", "tanh", "mish",
        "hardsigmoid", "hardswish", "batchnorm", "add", "sub", "mul",
        "maximum", "softmax", "identity"),
    "kernels.layout_ms": ("transpose", "flatten", "reshape", "concat",
                          "pad", "upsample2d"),
}
