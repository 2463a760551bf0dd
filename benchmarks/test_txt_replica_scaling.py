"""Txt-O — replica scaling: the multi-process serving tier vs one process.

Txt-N (EXPERIMENTS.md) documented the GIL ceiling: intra-process plan
threading *lost* throughput (7-13 % slower at 2-8 threads).  The replica
tier answers with processes — N executors, each a full interpreter,
weights shared as one resident mmap of the plan cache's blob.  This
benchmark measures the closed-loop serving throughput of:

1. the in-process engine (one worker, micro-batching) — the baseline,
2. the replica tier at 1, 2, and 4 processes with identical batching
   knobs,

for a compute-light workload (``mlp``, IPC-overhead dominated) and a
compute-heavier one (``tiny_convnet``, where multi-core scale should
pay).  Every row must finish with zero failures, zero restarts, and
zero shed requests — throughput bought with dropped work doesn't count.

``REPRO_BENCH_SMOKE=1`` shrinks request counts for CI smoke jobs.
Results are written to ``BENCH_pr6.json`` at the repo root.  The CI
speedup guard (>= 1.5x at 4 replicas over the in-process baseline, on
the convnet workload) only arms on hosts with at least 4 CPUs — on
smaller runners the numbers are recorded but cannot show scaling.
"""

import json
import os
import tempfile
from pathlib import Path

from repro.ir import build_model
from repro.serving import run_replica_bench

SMOKE = os.environ.get("REPRO_BENCH_SMOKE") == "1"
REQUESTS = 32 if SMOKE else 256
WARMUP = 8 if SMOKE else 32

REPLICAS = (1, 2, 4)
MAX_BATCH = 4
BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_pr6.json"


def replica_sweep(graph):
    with tempfile.TemporaryDirectory(prefix="repro-replica-bench-") \
            as cache_dir:
        rows = run_replica_bench(
            graph, replica_counts=REPLICAS, requests=REQUESTS,
            warmup=WARMUP, max_batch=MAX_BATCH, cache_dir=cache_dir)
    base = rows[0].throughput_rps
    for row in rows:
        assert row.failures == 0, f"{row.mode}-{row.replicas} dropped work"
        assert row.restarts == 0, f"{row.mode}-{row.replicas} restarted"
    return {
        "rows": [
            {
                "mode": row.mode,
                "replicas": row.replicas,
                "clients": row.clients,
                "requests": row.requests,
                "throughput_rps": row.throughput_rps,
                "mean_batch": row.mean_batch,
                "p50_ms": row.p50_ms,
                "p95_ms": row.p95_ms,
                "speedup": row.throughput_rps / base if base else 0.0,
            }
            for row in rows
        ],
    }


def render(results):
    lines = []
    for name, row in results.items():
        lines.append(name)
        for entry in row["rows"]:
            label = entry["mode"] if entry["replicas"] == 0 \
                else f"{entry['mode']}-{entry['replicas']}"
            lines.append(
                f"  {label:<12} {entry['throughput_rps']:>9.1f} req/s "
                f"mean_b {entry['mean_batch']:.2f} "
                f"p95 {entry['p95_ms']:.2f} ms "
                f"({entry['speedup']:.2f}x)")
    lines.append(f"host cpus: {os.cpu_count()}")
    return "\n".join(lines)


def test_txt_replica_scaling(benchmark, report):
    workloads = {
        "mlp": build_model("mlp"),
        "tiny_convnet": build_model("tiny_convnet"),
    }

    def study():
        return {name: replica_sweep(graph)
                for name, graph in workloads.items()}

    results = benchmark.pedantic(study, rounds=1, iterations=1)
    report("txt_replica_scaling", render(results))
    BENCH_JSON.write_text(json.dumps({
        "benchmark": "txt_replica_scaling",
        "smoke": SMOKE,
        "cpus": os.cpu_count(),
        "workloads": results,
    }, indent=2) + "\n")

    # Functional floor everywhere: every sweep completed all requests
    # (asserted in replica_sweep).  The scaling guard needs real cores
    # to mean anything: on >= 4-CPU hosts (the CI runner class), 4
    # replica processes must beat the in-process engine by >= 1.5x on
    # the compute-heavier workload.
    if (os.cpu_count() or 1) >= 4:
        convnet = results["tiny_convnet"]["rows"]
        at4 = next(entry for entry in convnet if entry["replicas"] == 4)
        assert at4["speedup"] >= 1.5, (
            f"4-replica speedup {at4['speedup']:.2f}x < 1.5x on "
            f"{os.cpu_count()}-cpu host")
