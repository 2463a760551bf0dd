"""Command-line interface: the toolchain's Kenning-style front end.

Subcommands:

    models                      list the model zoo with sizes and compute
    accelerators [--family F]   list the accelerator catalog (Fig. 3 data)
    predict                     roofline prediction of a model on a platform
    plan                        compile a model's execution plan + memory arena
    plan-cache                  inspect/clear/warm the persistent plan cache
    serve-bench                 benchmark the batched serving engine
    metrics                     run a short workload, export the registry
    trace                       export a Chrome/Perfetto trace of a run
                                (--replicas N merges the fleet's spans)
    flightrec                   dump the always-on serving event ring
    optimize                    run the deployment pipeline on a dataset
    simulate                    assemble and run a program on the RV32 SoC

Run ``python -m repro.cli <command> --help`` for per-command options.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np


def _cmd_models(args: argparse.Namespace) -> int:
    from .ir import available_models, build_model

    print(f"{'model':<22}{'params':>14}{'GMACs':>9}{'input':>20}")
    for name in available_models():
        if args.small and name in ("resnet50", "yolov4",
                                   "mobilenet_v3_large",
                                   "mobilenet_v3_small"):
            continue
        graph = build_model(name)
        cost = graph.total_cost()
        shape = "x".join(str(d) for d in graph.inputs[0].shape)
        print(f"{name:<22}{graph.num_parameters():>14,}"
              f"{cost.macs / 1e9:>9.3f}{shape:>20}")
    return 0


def _cmd_accelerators(args: argparse.Namespace) -> int:
    from .hw import DeviceFamily, catalog

    family = DeviceFamily(args.family) if args.family else None
    print(f"{'accelerator':<16}{'class':<7}{'peak GOPS':>11}{'prec':>6}"
          f"{'TDP W':>8}{'TOPS/W':>8}")
    for spec in sorted(catalog(family), key=lambda s: s.tdp_w):
        print(f"{spec.name:<16}{spec.family.value:<7}"
              f"{spec.peak_gops_best:>11,.0f}"
              f"{spec.best_precision.value:>6}{spec.tdp_w:>8.2f}"
              f"{spec.efficiency_tops_per_w:>8.2f}")
    return 0


def _measured_fps(graph, batch: int, repeat: int) -> float:
    """Measured host throughput: run ``repeat`` arena-backed inferences."""
    import time

    from .runtime import Executor
    from .serving.bench import sample_feeds

    batched = graph.with_batch(batch)
    feeds = {name: np.concatenate([array] * batch, axis=0) if batch > 1
             else array
             for name, array in sample_feeds(graph).items()}
    executor = Executor(batched, reuse_buffers=True)
    executor.recycle(executor.run(feeds))        # warmup
    start = time.perf_counter()
    for _ in range(repeat):
        executor.recycle(executor.run(feeds))
    elapsed = time.perf_counter() - start
    return repeat * batch / elapsed if elapsed > 0 else 0.0


def _cmd_predict(args: argparse.Namespace) -> int:
    from .hw import RooflineModel, resolve_platform
    from .ir import build_model
    from .ir.tensor import DType

    graph = build_model(args.model)
    spec = resolve_platform(args.platform)
    model = RooflineModel(spec)
    dtype = DType(args.dtype) if args.dtype else None
    batches = [args.batch] if args.batch is not None else args.batches
    measured = args.repeat > 0
    print(f"{args.model} on {spec.name}:")
    header = (f"{'batch':>6}{'dtype':>7}{'lat ms':>9}{'GOPS':>8}{'W':>7}"
              f"{'mJ/inf':>9}{'fps':>8}")
    if measured:
        header += f"{'host fps':>10}"
    if args.slo_ms is not None:
        header += f"{'slo':>6}"
    print(header)
    for batch in batches:
        prediction = model.predict(graph, batch=batch, dtype=dtype)
        line = (f"{batch:>6}{prediction.dtype.value:>7}"
                f"{prediction.latency_s * 1e3:>9.2f}"
                f"{prediction.throughput_gops:>8.0f}"
                f"{prediction.avg_power_w:>7.1f}"
                f"{prediction.energy_per_inference_j * 1e3:>9.2f}"
                f"{prediction.fps:>8.1f}")
        if measured:
            line += f"{_measured_fps(graph, batch, args.repeat):>10.1f}"
        if args.slo_ms is not None:
            meets = prediction.latency_s * 1e3 <= args.slo_ms
            line += f"{'ok' if meets else 'MISS':>6}"
        print(line)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    from .ir import build_model
    from .optim import plan_memory
    from .runtime import compile_plan

    graph = build_model(args.model, batch=args.batch)
    plan = compile_plan(graph)
    memory = plan_memory(graph)
    if args.steps:
        print(plan.summary())
    else:
        print(f"execution plan for {graph.name!r}: {len(plan)} steps, "
              f"peak live {plan.peak_live_bytes / 1024:.1f} KiB")
        if plan.schedule is not None:
            print(f"  schedule depth {plan.schedule.depth} (critical "
                  f"path), max width {plan.schedule.max_width}")
    print(memory.report())
    if args.repeat > 0:
        import time

        from .runtime import Executor
        from .serving.bench import sample_feeds

        feeds = {name: np.concatenate([array] * args.batch, axis=0)
                 if args.batch > 1 else array
                 for name, array in sample_feeds(graph).items()}
        executor = Executor(graph, reuse_buffers=True, plan=plan,
                            num_threads=args.num_threads)
        executor.recycle(executor.run(feeds))            # warmup
        arena = executor.plan.arena
        baseline = arena.stats.snapshot()
        start = time.perf_counter()
        for _ in range(args.repeat):
            executor.recycle(executor.run(feeds))
        elapsed = time.perf_counter() - start
        steady = arena.stats.allocations - baseline.allocations
        per_batch_ms = elapsed / args.repeat * 1e3
        print(f"executed {args.repeat}x batch={args.batch}: "
              f"{per_batch_ms:.2f} ms/batch, "
              f"{args.repeat * args.batch / elapsed:.1f} samples/s, "
              f"{steady} steady-state allocations "
              f"({arena.stats.reuses - baseline.reuses} buffer reuses)")
    return 0


def _cmd_plan_cache(args: argparse.Namespace) -> int:
    import time

    from .runtime.plan_cache import PlanCache, load_or_build

    cache = PlanCache(args.cache_dir)
    if args.action == "stats":
        entries = cache.entries()
        print(f"plan cache at {cache.directory}: {len(entries)} entries")
        if entries:
            print(f"{'key':<16}{'model':<22}{'nodes':>7}{'packed':>8}"
                  f"{'size KiB':>10}")
            for entry in entries:
                print(f"{entry['key'][:12] + '…':<16}{entry['graph']:<22}"
                      f"{entry['nodes']:>7}{entry['packed_arrays']:>8}"
                      f"{entry['bytes'] / 1024:>10.1f}")
        return 0
    if args.action == "clear":
        removed = cache.clear()
        print(f"removed {removed} entries from {cache.directory}")
        return 0
    # warm <zoo-model>: specialize + compile + store (or confirm a hit).
    from .ir import build_model

    graph = build_model(args.model, batch=args.batch)
    start = time.perf_counter()
    model = load_or_build(graph, cache=cache)
    elapsed = (time.perf_counter() - start) * 1e3
    source = "cache hit" if model.from_cache else "cold build (stored)"
    packed = sum(len(p) for p in model.plan.packs.values())
    print(f"{args.model} batch={args.batch}: {source} in {elapsed:.1f} ms "
          f"({len(model.plan)} steps, {packed} prepacked arrays, "
          f"key {model.key[:12]}…)")
    return 0


def _cmd_serve_bench(args: argparse.Namespace) -> int:
    import json

    from .ir import build_model
    from .serving import render, run_bench
    from .telemetry import (
        Tracer,
        registry_to_json,
        traces_to_chrome,
        write_chrome_trace,
    )

    kwargs = {}
    if args.image_size:
        kwargs["image_size"] = args.image_size
    graph = build_model(args.model, **kwargs)
    if args.replicas:
        return _serve_bench_replicas(args, graph)
    if args.trace:
        return _serve_bench_trace(args, graph)
    configs = []
    for raw in args.configs:
        try:
            workers, max_batch = (int(part) for part in raw.split("x"))
        except ValueError:
            print(f"bad config {raw!r}: expected WORKERSxBATCH, e.g. 1x8",
                  file=sys.stderr)
            return 2
        configs.append((workers, max_batch))
    tracer = Tracer(sample_rate=args.trace_sample,
                    capacity=4096) if args.trace_out else None
    results = run_bench(graph, configs=configs, requests=args.requests,
                        clients=args.clients, warmup=args.warmup,
                        max_latency_ms=args.max_latency_ms,
                        num_threads=args.num_threads, tracer=tracer,
                        slow_request_ms=args.slow_request_ms)
    print(render(results, name=args.model))
    if args.metrics_json:
        with open(args.metrics_json, "w") as handle:
            json.dump(registry_to_json(), handle, indent=2)
        print(f"metrics snapshot written to {args.metrics_json}")
    if args.trace_out:
        events = traces_to_chrome(tracer.traces())
        write_chrome_trace(args.trace_out, events)
        print(f"chrome trace with {len(events)} events "
              f"({tracer.sampled_count} sampled requests) written to "
              f"{args.trace_out}")
    return 0


def _serve_bench_trace(args: argparse.Namespace, graph) -> int:
    """Open-loop trace replay: ``serve-bench --trace bursty --slo-ms 25``.

    Replays a deterministic arrival trace against the fixed-knob and/or
    SLO-aware adaptive engine and reports per-mode goodput, shedding,
    and admitted-request percentiles.  With neither ``--adaptive`` nor
    ``--no-adaptive`` both modes run, so the table is the comparison.
    """
    from .serving import make_trace, render_trace_replay, run_trace_replay

    arrivals = make_trace(args.trace, rate_rps=args.rate,
                          duration_s=args.duration, seed=args.seed)
    modes = [args.adaptive] if args.adaptive is not None else [False, True]
    rows = []
    for adaptive in modes:
        rows.append(run_trace_replay(
            graph, arrivals, slo_ms=args.slo_ms, trace_name=args.trace,
            adaptive=adaptive, max_batch=args.max_batch,
            max_latency_ms=args.max_latency_ms,
            num_threads=args.num_threads, warmup=args.warmup))
    print(render_trace_replay(rows, name=args.model))
    return 0


def _serve_bench_replicas(args: argparse.Namespace, graph) -> int:
    import json

    from .serving import render_replicas, run_replica_bench
    from .telemetry import (
        Tracer,
        chrome_trace_processes,
        registry_to_json,
        traces_to_chrome,
        write_chrome_trace,
    )

    # Scrape inside the sweep, while the last tier (and its per-replica
    # labeled series) is still live.
    scraped = {}

    def _scrape(tier) -> None:
        scraped["payload"] = registry_to_json()

    tracer = Tracer(sample_rate=args.trace_sample,
                    capacity=4096) if args.trace_out else None
    results = run_replica_bench(
        graph, replica_counts=tuple(args.replicas),
        requests=args.requests, clients=args.clients,
        warmup=args.warmup, max_batch=args.max_batch,
        max_latency_ms=args.max_latency_ms,
        max_inflight=args.max_inflight, cache_dir=args.cache_dir,
        shm=args.shm,
        on_tier=_scrape if args.metrics_json else None,
        tracer=tracer, slow_request_ms=args.slow_request_ms)
    print(render_replicas(results, name=args.model))
    if args.metrics_json:
        with open(args.metrics_json, "w") as handle:
            json.dump(scraped["payload"], handle, indent=2)
        print(f"metrics snapshot written to {args.metrics_json}")
    if args.trace_out:
        events = traces_to_chrome(tracer.traces())
        write_chrome_trace(args.trace_out, events)
        tracks = chrome_trace_processes(events)
        names = ", ".join(tracks[pid] for pid in sorted(tracks))
        print(f"fleet chrome trace with {len(events)} events "
              f"({tracer.sampled_count} sampled requests) across "
              f"{len(tracks)} process tracks [{names}] written to "
              f"{args.trace_out}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json
    import tempfile

    from .ir import build_model
    from .runtime.plan_cache import PlanCache
    from .serving import InferenceEngine
    from .serving.bench import sample_feeds
    from .telemetry import (
        registry_to_json,
        render_prometheus,
        render_summary,
    )

    graph = build_model(args.model)
    feeds = sample_feeds(graph)
    with tempfile.TemporaryDirectory(prefix="repro-metrics-") as scratch:
        cache = PlanCache(args.cache_dir if args.cache_dir else scratch)
        with InferenceEngine(graph, max_batch=args.max_batch,
                             plan_cache=cache,
                             num_threads=args.num_threads) as engine:
            engine.infer_many([feeds] * args.requests, timeout=60.0)
            # Scrape while the engine (and its queue gauge) is live.
            if args.format == "json":
                payload = json.dumps(registry_to_json(), indent=2)
            elif args.format == "summary":
                payload = render_summary()
            else:
                payload = render_prometheus()
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(payload)
        print(f"metrics written to {args.output}")
    else:
        print(payload, end="")
    return 0


def _run_traced_tier(model: str, replicas: int, requests: int,
                     tracer, flight_recorder=None, shm=None):
    """Drive a short concurrent workload through a traced replica tier.

    Submissions overlap (the whole wave is enqueued before the first
    result is awaited) so batches spread across every replica and the
    merged trace shows real slot-wait / dispatch interleaving.
    """
    import tempfile

    from .ir import build_model
    from .serving.bench import sample_feeds
    from .serving.replicas import ReplicaEngine

    graph = build_model(model)
    feeds = sample_feeds(graph)
    with tempfile.TemporaryDirectory(prefix="repro-trace-") as scratch:
        with ReplicaEngine(graph, replicas=replicas, max_batch=4,
                           max_latency_ms=2.0, cache_dir=scratch,
                           shm=shm, tracer=tracer,
                           flight_recorder=flight_recorder) as tier:
            futures = [tier.infer(feeds) for _ in range(requests)]
            for future in futures:
                future.result(timeout=120.0)


def _trace_replicas(args: argparse.Namespace) -> int:
    """``repro trace --replicas N``: merged fleet trace of a live tier."""
    from .telemetry import (
        Tracer,
        chrome_trace_processes,
        traces_to_chrome,
        validate_chrome_trace,
        write_chrome_trace,
    )

    tracer = Tracer(sample_rate=1.0, capacity=4096)
    requests = max(args.runs, 1) * args.replicas * 8
    _run_traced_tier(args.model, args.replicas, requests, tracer)
    events = traces_to_chrome(tracer.traces())
    validate_chrome_trace({"traceEvents": events})
    write_chrome_trace(args.out, events)
    tracks = chrome_trace_processes(events)
    names = ", ".join(tracks[pid] for pid in sorted(tracks))
    print(f"{args.model} x{requests} requests over {args.replicas} "
          f"replicas: {len(events)} events on {len(tracks)} process "
          f"tracks [{names}] -> {args.out}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import time

    from .ir import build_model
    from .runtime import Executor
    from .serving.bench import sample_feeds
    from .telemetry import timeline_to_chrome, write_chrome_trace

    if args.replicas:
        return _trace_replicas(args)
    graph = build_model(args.model, batch=args.batch)
    feeds = {name: np.concatenate([array] * args.batch, axis=0)
             if args.batch > 1 else array
             for name, array in sample_feeds(graph).items()}
    executor = Executor(graph, reuse_buffers=True,
                        num_threads=args.num_threads)
    executor.recycle(executor.run(feeds))            # warmup
    executor.record_timeline = True
    timelines = []
    offsets = []
    origin = time.perf_counter()
    try:
        for _ in range(args.runs):
            offsets.append(time.perf_counter() - origin)
            executor.recycle(executor.run(feeds))
            timelines.append(executor.last_timeline or [])
    finally:
        executor.record_timeline = False
    events = timeline_to_chrome(timelines, offsets_s=offsets)
    write_chrome_trace(args.out, events)
    tracks = {event["tid"] for event in events if event.get("ph") == "X"}
    print(f"{args.model} batch={args.batch} x{args.runs} runs at "
          f"{executor.num_threads} threads: {len(events)} events on "
          f"{len(tracks)} tracks -> {args.out}")
    print("open in https://ui.perfetto.dev or chrome://tracing")
    return 0


def _cmd_flightrec(args: argparse.Namespace) -> int:
    """``repro flightrec dump``: capture a short replica workload into
    the flight recorder and write the versioned dump (+ Chrome trace
    sibling) for inspection."""
    from .telemetry import FlightRecorder, load_flightrec_dump

    recorder = FlightRecorder()
    _run_traced_tier(args.model, args.replicas, args.requests,
                     tracer=None, flight_recorder=recorder)
    path = recorder.dump("on-demand", path=args.out)
    payload = load_flightrec_dump(path)       # self-check before report
    kinds = {}
    for event in payload["events"]:
        kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
    summary = ", ".join(f"{kind}={count}"
                        for kind, count in sorted(kinds.items()))
    print(f"flight recorder dump v{payload['version']} with "
          f"{len(payload['events'])} events ({summary}) written to "
          f"{path}")
    print(f"chrome trace sibling: "
          f"{path.with_name(path.stem + '.trace.json')}")
    return 0


_DATASETS = ("shapes", "arc", "motor", "keywords")


def _load_dataset(name: str, seed: int):
    from . import datasets

    if name == "shapes":
        return datasets.make_shapes_dataset(240, image_size=32, seed=seed)
    if name == "arc":
        return datasets.make_arc_dataset(150, window=128, seed=seed)
    if name == "motor":
        return datasets.make_motor_dataset(60, window=256, seed=seed)
    if name == "keywords":
        from .datasets.audio import make_keyword_dataset

        return make_keyword_dataset(50, seed=seed)
    raise ValueError(f"unknown dataset {name!r}")


def _default_model_for(dataset: str, num_classes: int):
    from .ir import build_model

    if dataset == "shapes":
        return build_model("tiny_convnet", batch=8, image_size=32,
                           num_classes=num_classes)
    if dataset == "arc":
        return build_model("arc_net", batch=16, window=128)
    if dataset == "motor":
        return build_model("motor_net", batch=8, window=256)
    return build_model("mlp", batch=8, in_features=64, hidden=(128,),
                       num_classes=num_classes)


def _cmd_optimize(args: argparse.Namespace) -> int:
    from .core import DeploymentPipeline
    from .hw import resolve_platform

    dataset = _load_dataset(args.dataset, args.seed)
    graph = _default_model_for(args.dataset, dataset.num_classes)
    target = resolve_platform(args.platform) if args.platform else None
    pipeline = DeploymentPipeline(graph, dataset, target=target,
                                  optimizations=tuple(args.passes),
                                  profile_runs=1)
    report = pipeline.run(seed=args.seed)
    print(report.render())
    if args.confusion:
        final = args.passes[-1] if args.passes else "fp32"
        print()
        print(report.confusions[final].render())
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    from .simulator import Machine, SimdMacCfu

    machine = Machine(cfu=SimdMacCfu() if args.cfu else None)
    with open(args.program) as handle:
        machine.load_assembly(handle.read())
    result = machine.run(max_steps=args.max_steps)
    if result.uart_output:
        print(result.uart_output, end="")
        if not result.uart_output.endswith("\n"):
            print()
    state = "halted" if result.halted else "step budget exhausted"
    print(f"[{state}: {result.steps} steps, {result.cycles} cycles, "
          f"exit code {result.exit_code}]")
    if result.exit_code is None:
        return 2
    return int(result.exit_code)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VEDLIoT reproduction toolchain",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_models = sub.add_parser("models", help="list the model zoo")
    p_models.add_argument("--small", action="store_true",
                          help="skip the large reference models")
    p_models.set_defaults(fn=_cmd_models)

    p_accel = sub.add_parser("accelerators",
                             help="list the accelerator catalog")
    p_accel.add_argument("--family",
                         choices=[f.value for f in __import__(
                             "repro.hw", fromlist=["DeviceFamily"]
                         ).DeviceFamily],
                         help="filter by device class")
    p_accel.set_defaults(fn=_cmd_accelerators)

    p_pred = sub.add_parser("predict",
                            help="roofline prediction on a platform")
    p_pred.add_argument("--model", required=True)
    p_pred.add_argument("--platform", required=True,
                        help="catalog name, optionally NAME:MODE")
    p_pred.add_argument("--dtype", choices=("fp32", "fp16", "int8"))
    p_pred.add_argument("--batches", type=int, nargs="+",
                        default=[1, 4, 8])
    p_pred.add_argument("--batch", type=int, default=None,
                        help="predict a single batch size (overrides "
                             "--batches)")
    p_pred.add_argument("--slo-ms", type=float, default=None,
                        help="mark each batch size ok/MISS against this "
                             "per-inference latency SLO (the static "
                             "counterpart of serve-bench --slo-ms)")
    p_pred.add_argument("--repeat", type=int, default=0,
                        help="also measure host throughput over K "
                             "arena-backed runs per batch size")
    p_pred.set_defaults(fn=_cmd_predict)

    p_plan = sub.add_parser("plan",
                            help="compile an execution plan and arena layout")
    p_plan.add_argument("--model", required=True)
    p_plan.add_argument("--batch", type=int, default=1)
    p_plan.add_argument("--steps", action="store_true",
                        help="list every bound step with its release set")
    p_plan.add_argument("--repeat", type=int, default=0,
                        help="execute the compiled plan K times on the "
                             "scratch arena and report timing")
    p_plan.add_argument("--num-threads", type=int, default=None,
                        help="worker threads for plan execution "
                             "(default: $REPRO_NUM_THREADS or 1)")
    p_plan.set_defaults(fn=_cmd_plan)

    p_cache = sub.add_parser("plan-cache",
                             help="inspect or warm the persistent plan "
                                  "cache")
    cache_sub = p_cache.add_subparsers(dest="action", required=True)
    c_stats = cache_sub.add_parser("stats", help="list cached entries")
    c_clear = cache_sub.add_parser("clear", help="remove every entry")
    c_warm = cache_sub.add_parser(
        "warm", help="specialize + compile a zoo model into the cache")
    c_warm.add_argument("model", help="zoo model name")
    c_warm.add_argument("--batch", type=int, default=1)
    for sub_parser in (c_stats, c_clear, c_warm):
        sub_parser.add_argument("--cache-dir", default=None,
                                help="cache directory (default: "
                                     "$REPRO_PLAN_CACHE_DIR or "
                                     "~/.cache/repro/plan-cache)")
        sub_parser.set_defaults(fn=_cmd_plan_cache)

    p_serve = sub.add_parser("serve-bench",
                             help="benchmark the batched serving engine")
    p_serve.add_argument("--model", default="tiny_convnet")
    p_serve.add_argument("--image-size", type=int, default=None,
                         help="override the model's input resolution")
    p_serve.add_argument("--configs", nargs="+", default=["1x1", "1x8"],
                         help="WORKERSxBATCH configurations to sweep")
    p_serve.add_argument("--requests", type=int, default=64,
                         help="measured requests per configuration")
    p_serve.add_argument("--clients", type=int, default=None,
                         help="closed-loop client threads (default: "
                              "workers * max_batch)")
    p_serve.add_argument("--warmup", type=int, default=8)
    p_serve.add_argument("--max-latency-ms", type=float, default=2.0,
                         help="upper bound on how long a request "
                              "lingers for its batch to fill")
    p_serve.add_argument("--num-threads", type=int, default=None,
                         help="threads per batch execution "
                              "(default: $REPRO_NUM_THREADS or 1)")
    p_serve.add_argument("--metrics-json", default=None, metavar="PATH",
                         help="write a JSON snapshot of the telemetry "
                              "registry after the sweep")
    p_serve.add_argument("--trace-out", default=None, metavar="PATH",
                         help="trace sampled requests and write a "
                              "Chrome/Perfetto trace file")
    p_serve.add_argument("--trace-sample", type=float, default=1.0,
                         help="request sampling rate for --trace-out "
                              "(default 1.0)")
    p_serve.add_argument("--slow-request-ms", type=float, default=None,
                         help="log requests slower than this threshold "
                              "on the repro.serving logger")
    p_serve.add_argument("--replicas", type=int, nargs="+", default=None,
                         metavar="N",
                         help="benchmark the multi-process replica tier "
                              "at each count instead of the in-process "
                              "WORKERSxBATCH sweep (a 1-worker "
                              "in-process baseline row is always "
                              "included)")
    p_serve.add_argument("--max-batch", type=int, default=8,
                         help="micro-batch size for --replicas mode "
                              "(in-process mode takes it from "
                              "--configs)")
    p_serve.add_argument("--max-inflight", type=int, default=2,
                         help="admission-control budget: batches in "
                              "flight per replica (--replicas mode)")
    p_serve.add_argument("--shm", default=None,
                         action=argparse.BooleanOptionalAction,
                         help="force the shared-memory data plane on "
                              "(--shm) or off (--no-shm) for --replicas "
                              "mode; default follows $REPRO_REPLICA_SHM "
                              "(on where supported)")
    p_serve.add_argument("--trace", default=None,
                         choices=("bursty", "diurnal", "poisson"),
                         help="replay a deterministic open-loop arrival "
                              "trace (SLO-aware mode) instead of the "
                              "closed-loop sweep")
    p_serve.add_argument("--slo-ms", type=float, default=25.0,
                         help="per-request completion SLO for --trace "
                              "replay (default 25)")
    p_serve.add_argument("--rate", type=float, default=2000.0,
                         help="mean arrival rate for --trace (req/s, "
                              "default 2000)")
    p_serve.add_argument("--duration", type=float, default=2.0,
                         help="trace length in seconds (default 2)")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="trace arrival-process seed")
    p_serve.add_argument("--adaptive", default=None,
                         action=argparse.BooleanOptionalAction,
                         help="run only the adaptive (or with "
                              "--no-adaptive, only the fixed-knob) "
                              "engine in --trace replay; default runs "
                              "both and prints the comparison")
    p_serve.add_argument("--cache-dir", default=None,
                         help="plan-cache directory shared by the "
                              "replica processes (default: "
                              "$REPRO_PLAN_CACHE_DIR or "
                              "~/.cache/repro/plan-cache)")
    p_serve.set_defaults(fn=_cmd_serve_bench)

    p_metrics = sub.add_parser(
        "metrics",
        help="run a short serving workload and export the metrics "
             "registry")
    p_metrics.add_argument("--model", default="mlp")
    p_metrics.add_argument("--requests", type=int, default=32)
    p_metrics.add_argument("--max-batch", type=int, default=8)
    p_metrics.add_argument("--num-threads", type=int, default=None)
    p_metrics.add_argument("--format", choices=("prom", "json", "summary"),
                           default="prom",
                           help="Prometheus text exposition (default), "
                                "JSON snapshot, or a fixed-width "
                                "summary with interpolated p50/p95/p99 "
                                "columns for every histogram")
    p_metrics.add_argument("--output", default=None, metavar="PATH",
                           help="write to a file instead of stdout")
    p_metrics.add_argument("--cache-dir", default=None,
                           help="plan-cache directory for the workload "
                                "(default: a throwaway temp dir)")
    p_metrics.set_defaults(fn=_cmd_metrics)

    p_trace = sub.add_parser(
        "trace",
        help="execute a zoo model and export a Chrome/Perfetto trace "
             "of its per-step timeline")
    p_trace.add_argument("--model", default="wide_branch_net")
    p_trace.add_argument("--batch", type=int, default=1)
    p_trace.add_argument("--runs", type=int, default=3)
    p_trace.add_argument("--num-threads", type=int, default=None,
                         help="worker threads (default: "
                              "$REPRO_NUM_THREADS or 1); at >= 2 the "
                              "trace shows steps spread across worker "
                              "tracks")
    p_trace.add_argument("--replicas", type=int, default=None, metavar="N",
                         help="trace a live N-replica serving tier "
                              "instead of a single executor: the merged "
                              "fleet trace has one process track per "
                              "replica, clock-aligned onto the parent's "
                              "timeline")
    p_trace.add_argument("--out", default="trace.json", metavar="PATH")
    p_trace.set_defaults(fn=_cmd_trace)

    p_frec = sub.add_parser(
        "flightrec",
        help="inspect the always-on flight recorder (recent serving "
             "events ring)")
    frec_sub = p_frec.add_subparsers(dest="action", required=True)
    f_dump = frec_sub.add_parser(
        "dump",
        help="run a short replica workload and dump the event ring "
             "(versioned JSON + Chrome trace sibling)")
    f_dump.add_argument("--model", default="mlp")
    f_dump.add_argument("--replicas", type=int, default=2)
    f_dump.add_argument("--requests", type=int, default=32)
    f_dump.add_argument("--out", default=None, metavar="PATH",
                        help="dump file path (default: a timestamped "
                             "file under $REPRO_FLIGHTREC_DIR or "
                             "~/.cache/repro/flightrec)")
    f_dump.set_defaults(fn=_cmd_flightrec)

    p_opt = sub.add_parser("optimize",
                           help="run the deployment pipeline")
    p_opt.add_argument("--dataset", choices=_DATASETS, default="shapes")
    p_opt.add_argument("--passes", nargs="*", default=["fuse", "int8"],
                       help="optimization variants, e.g. fuse int8 "
                            "prune:0.25 fp16")
    p_opt.add_argument("--platform", help="optional target accelerator")
    p_opt.add_argument("--confusion", action="store_true",
                       help="print the final confusion matrix")
    p_opt.add_argument("--seed", type=int, default=0)
    p_opt.set_defaults(fn=_cmd_optimize)

    p_sim = sub.add_parser("simulate",
                           help="run an assembly program on the RV32 SoC")
    p_sim.add_argument("program", help="assembly source file")
    p_sim.add_argument("--cfu", action="store_true",
                       help="attach the SIMD MAC CFU")
    p_sim.add_argument("--max-steps", type=int, default=1_000_000)
    p_sim.set_defaults(fn=_cmd_simulate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
