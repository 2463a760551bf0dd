"""The four workloads.  Names are fixed: later issues cite them.

Rates were measured once on the 2-core reference host against the
unchanged ``src/`` and are frozen here; ``high`` sits well inside each
workload's saturated throughput so ``max_rate_in_slo_rps`` equals it at
seed and only a real regression moves it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    frontend: str                 # "engine" (in-process) or "tier"
    model: str                    # key of adapters.build_graph
    int8: bool                    # quantize_int8 after building
    rates: Tuple[float, float, float]   # low / mid / high, requests/s
    slo_ms: float                 # limit on p95 at each rate
    why: str


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        "mlp_engine", "engine", "mlp", False, (500.0, 2500.0, 6000.0), 5.0,
        "dispatch-bound: batcher, engine and per-step executor overhead "
        "do nearly all the work, kernels almost none"),
    Workload(
        "yolo_int8_engine", "engine", "tiny_yolo", True,
        (10.0, 25.0, 40.0), 150.0,
        "kernel-bound int8: quantized conv kernels dominate, so a "
        "serving change must not move it"),
    Workload(
        "convnet_tier", "tier", "tiny_convnet64", False,
        (30.0, 120.0, 250.0), 50.0,
        "the realistic replica-tier case on the fp32 conv path: kernels "
        "dominate, IPC is a small share"),
    Workload(
        "frame_tier", "tier", "frame_pool_net", False,
        (100.0, 600.0, 1400.0), 10.0,
        "data-plane-bound: 192 KiB per request through the shm rings "
        "with 0.2 ms of compute, so payload copies and slot traffic "
        "dominate"),
)}

# Distinct inputs a workload cycles through.
INPUTS = 16
# Requests the closed-loop saturation phase keeps outstanding; at most
# the tier's default queue_limit (64), so nothing is refused.
OUTSTANDING = 32
