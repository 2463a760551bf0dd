"""One run of one workload: the untraced end-to-end run, or the traced
per-layer run.  Both return a record (a JSON-able dict) whose
``metrics`` map has every metric of that run's table by name."""

from __future__ import annotations

import math
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import OUT_DIR, SCHEMA_VERSION, adapters, host, layers, loadgen, \
    stats
from .loadgen import Feeds, Oracle, PhaseResult
from .metrics import END_TO_END, PER_LAYER
from .spans import SpanRecorder
from .workloads import INPUTS, OUTSTANDING, Workload

# Request spans kept per phase in the trace file; the rest are counted.
MAX_REQUEST_SPANS = 20_000
NOT_ON_PATH = "layer is not on this workload's path"


@dataclass(frozen=True)
class Plan:
    """How one run spends its ``--seconds``.

    The untraced run measures for all of them: three open-loop steps and
    the saturation phase.  The traced run fits inside the same budget.
    Set-up and warm-up come before the clock starts.
    """

    seconds: float
    min_setups: int = 3
    setup_budget_s: float = 1.0     # keep setting up until this is spent

    def share(self, part: float) -> float:
        return self.seconds * part

    @property
    def warm_s(self) -> float:
        return min(1.5, max(0.2, self.share(0.06)))

    @property
    def layer_budget_s(self) -> float:
        return min(0.5, self.share(0.01))


SMOKE = Plan(seconds=1.0, min_setups=0, setup_budget_s=0.0)

# Shares of --seconds: the untraced run's phases, then the traced run's.
STEP_SHARES = {"low": 0.15, "mid": 0.5, "high": 0.15}
SAT_SHARE = 0.2
TRACED_SHARES = {"low": 0.1, "sat_untraced": 0.15, "mid": 0.25,
                 "sat": 0.15, "probe": 0.25}


class Run:
    """State shared by both kinds of run: seeded inputs, the oracle, a
    scratch directory inside the benchmark's own tree, and the totals
    the contract's last line reports."""

    def __init__(self, workload: Workload, seed: int, plan: Plan) -> None:
        self.workload = workload
        self.seed = seed
        self.plan = plan
        os.makedirs(OUT_DIR, exist_ok=True)
        self.scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
        graph = adapters.build_graph(workload.model)
        self.inputs = loadgen.make_inputs(adapters.input_specs(graph),
                                          seed, INPUTS)
        if workload.int8:
            graph = adapters.quantize(graph, self.calibration)
        # Planned int8 execution accumulates exactly, so the quantized
        # model's responses must equal the reference bit for bit at any
        # batch size; fp32 GEMMs round differently per batch shape and
        # get a tolerance.
        self.oracle = Oracle([adapters.reference(graph, feeds)
                              for feeds in self.inputs],
                             exact=workload.int8)
        self.attempted = 0
        self.failed = 0
        self.phases: Dict[str, Dict[str, object]] = {}
        self.child_peak_mib = 0.0
        self.leaked = 0
        self.setup_parts: List[Dict[str, float]] = []

    @property
    def calibration(self) -> List[Feeds]:
        return self.inputs[:4]

    def cleanup(self) -> None:
        shutil.rmtree(self.scratch, ignore_errors=True)

    # -- set-up and tear-down -----------------------------------------------

    def setup(self, tracer=None, probe: bool = False):
        """One cold set-up: model -> front end on an empty cache
        directory -> first correct result.  Returns the front end (None
        when the SLO probe's constructor is gone); the timings land in
        ``setup_parts``."""
        workload = self.workload
        clock = time.perf_counter
        t0 = clock()
        graph = adapters.build_graph(workload.model)
        t1 = clock()
        if workload.int8:
            graph = adapters.quantize(graph, self.calibration)
        t2 = clock()
        if probe:
            front = adapters.start_slo_probe_engine(graph)
            if front is None:
                return None
        elif workload.frontend == "engine":
            front = adapters.start_engine(graph, tracer)
        else:
            front = adapters.start_tier(
                graph, tempfile.mkdtemp(dir=self.scratch), tracer)
        t3 = clock()
        try:
            first = front.infer(self.inputs[0]).result(timeout=60.0)
            t4 = clock()
            if not self.oracle.check(0, [first])[0]:
                raise RuntimeError(f"{workload.name}: first response "
                                   f"does not match the oracle")
        except BaseException:
            front.close()
            raise
        self.setup_parts.append({
            "total_s": t4 - t0, "build_s": t1 - t0, "quantize_s": t2 - t1,
            "start_s": t3 - t2, "first_result_s": t4 - t3})
        return front

    def close(self, front) -> float:
        """Close a front end, first reading what only a live one shows;
        returns the seconds ``close()`` took."""
        for pid in adapters.child_pids(front):
            self.child_peak_mib = max(self.child_peak_mib,
                                      host.peak_rss_mib(pid))
        names = adapters.shm_segment_names(front)
        start = time.perf_counter()
        front.close()
        seconds = time.perf_counter() - start
        self.leaked += sum(os.path.exists(os.path.join("/dev/shm", name))
                           for name in names)
        return seconds

    def timed_setups(self) -> None:
        """Cold set-ups (each closed again) until the plan's count and
        budget are both spent: fast set-ups repeat more often, so their
        median is as steady as a slow one's."""
        start = time.perf_counter()
        while len(self.setup_parts) < self.plan.min_setups or (
                time.perf_counter() - start < self.plan.setup_budget_s
                and len(self.setup_parts) < 40):
            self.close(self.setup())

    # -- phases -------------------------------------------------------------

    def warm_up(self, front, name: str = "warm_up") -> None:
        """Lazy set-up finishes before timing: a burst of every batch
        size the queue can form (the in-process engine compiles a plan
        the first time it sees a size), then a short closed loop."""
        for size in range(1, 9):
            futures = [front.infer(self.inputs[i % INPUTS])
                       for i in range(size)]
            for future in futures:
                future.result(timeout=60.0)
        result = loadgen.closed_loop(front.infer, self.inputs,
                                     self.plan.warm_s, OUTSTANDING,
                                     self.oracle, adapters.REFUSALS)
        self.note(name, result)

    def note(self, name: str, result: PhaseResult, reruns: int = 0,
             **extra) -> None:
        """Add a phase to the totals and the record; print its counts."""
        self.attempted += result.attempted
        self.failed += result.failed
        entry: Dict[str, object] = {
            "kind": result.kind, "rate_rps": result.rate,
            "elapsed_s": result.elapsed_s, **result.counts(),
            "reruns": reruns}
        if result.ok:
            latency_ms = result.latency_s * 1e3
            q, value = stats.tail(latency_ms)
            entry.update(
                samples=len(latency_ms),
                p50_ms=stats.percentile(latency_ms, 50),
                p95_ms=stats.percentile(latency_ms, 95),
                p99_ms=stats.percentile(latency_ms, 99),
                tail_percentile=q, tail_ms=value,
                admit_p50_us=stats.median(result.admit_s) * 1e6)
        if result.kind == "open":
            entry.update(
                lag_p95_ms=result.lag_p95_s * 1e3,
                lag_valid=result.lag_ok,
                offered_rps=result.offered_rps,
                backlog_mid=result.backlog_mid,
                backlog_end=result.backlog_end,
                meets_slo=result.meets(self.workload.slo_ms))
        else:
            entry["throughput_rps"] = result.completion_rps
        entry.update(extra)
        self.phases[name] = entry
        print(_phase_line(name, entry))

    def step(self, front, name: str, rate: float, seconds: float
             ) -> PhaseResult:
        """One open-loop step at a fixed rate.  A step the generator ran
        late on is run again, at most twice; the last attempt stands and
        is marked invalid rather than averaged with anything."""
        count = max(1, math.ceil(rate * seconds))
        schedule = loadgen.poisson_schedule(rate, count)
        before = adapters.counters(front)
        for reruns in range(3):
            result = loadgen.open_loop(front.infer, self.inputs, schedule,
                                       rate, self.oracle,
                                       adapters.REFUSALS)
            after = adapters.counters(front)
            if result.lag_ok:
                break
            self.attempted += result.attempted
            self.failed += result.failed
            before = after
        self.note(name, result, reruns=reruns,
                  mean_batch=_mean_batch(before, after))
        return result

    def saturate(self, front, name: str, seconds: float
                 ) -> Tuple[PhaseResult, Dict[str, float], Dict[str, float]]:
        """The closed-loop phase, with CPU and counter deltas over it."""
        meter = host.CpuMeter(adapters.child_pids(front))
        before = adapters.counters(front)
        meter.start()
        result = loadgen.closed_loop(front.infer, self.inputs, seconds,
                                     OUTSTANDING, self.oracle,
                                     adapters.REFUSALS)
        cpu = meter.stop()
        after = adapters.counters(front)
        delta = {key: after[key] - before[key] for key in after}
        self.note(name, result, mean_batch=_mean_batch(before, after),
                  **cpu)
        return result, cpu, delta

    # -- the record ---------------------------------------------------------

    def record(self, mode: str, table, values: Dict[str, Optional[float]],
               nulls: Dict[str, str], **extra) -> Dict[str, object]:
        metrics = {}
        for metric in table:
            value = values.get(metric.name)
            if value is None:
                nulls.setdefault(metric.name, NOT_ON_PATH)
            metrics[metric.name] = {"value": value, "unit": metric.unit}
        return {
            "schema": SCHEMA_VERSION, "mode": mode,
            "workload": self.workload.name, "why": self.workload.why,
            "seed": self.seed, "seconds": self.plan.seconds,
            "rates_rps": list(self.workload.rates),
            "slo_ms": self.workload.slo_ms,
            "oracle": ("exact" if self.workload.int8
                       else "allclose rtol 1e-5 atol 1e-6"),
            "host": host.fingerprint(),
            "correct": self.failed == 0, "attempted": self.attempted,
            "failed": self.failed,
            "phases": self.phases, "metrics": metrics, "nulls": nulls,
            **extra}


def _mean_batch(before: Dict[str, float], after: Dict[str, float]) -> float:
    batches = after["batches"] - before["batches"]
    return (after["requests"] - before["requests"]) / batches \
        if batches else 0.0


def _phase_line(name: str, entry: Dict[str, object]) -> str:
    parts = [f"  {name:<14} attempted {entry['attempted']} "
             f"succeeded {entry['succeeded']} failed {entry['failed']}"]
    if "p50_ms" in entry:
        parts.append(f"p50 {entry['p50_ms']:.3f} ms  p95 "
                     f"{entry['p95_ms']:.3f} ms  p99 {entry['p99_ms']:.3f}"
                     f" ms  ({entry['samples']} samples)")
    if "lag_p95_ms" in entry:
        parts.append(f"gen lag p95 {entry['lag_p95_ms']:.3f} ms"
                     + ("" if entry["lag_valid"] else " INVALID")
                     + (f" reruns {entry['reruns']}"
                        if entry["reruns"] else ""))
    if "throughput_rps" in entry:
        parts.append(f"{entry['throughput_rps']:.1f} req/s")
    return "  ".join(parts)


def run_end_to_end(workload: Workload, seed: int, plan: Plan
                   ) -> Dict[str, object]:
    run = Run(workload, seed, plan)
    try:
        run.timed_setups()
        front = run.setup()
        setups = [part["total_s"] for part in run.setup_parts]
        try:
            run.warm_up(front)
            steps = {
                name: run.step(front, name, rate, plan.share(share))
                for (name, share), rate in zip(STEP_SHARES.items(),
                                               workload.rates)}
            sat, cpu, _ = run.saturate(front, "saturation",
                                       plan.share(SAT_SHARE))
        finally:
            run.close(front)
        within = [step.rate for step in steps.values()
                  if step.meets(workload.slo_ms)]
        # The CPU meter runs until the phase has drained, so every
        # correct completion of the phase is in the denominator.
        done = max(sat.ok, 1)
        values = {
            "setup_s": stats.median(setups),
            "unloaded_p50_ms": _p(steps["low"], 50),
            "latency_p50_ms": _p(steps["mid"], 50),
            "latency_p95_ms": _p(steps["mid"], 95),
            "throughput_rps": sat.completion_rps,
            # A workload that meets its limit at no rate reports a
            # tenth of the lowest, so the metric is never zero.
            "max_rate_in_slo_rps": max(within, default=workload.rates[0]
                                       / 10),
            "succeeded_share": 1.0 - run.failed / run.attempted,
            "cpu_s_per_1k_req": (cpu["parent_cpu_s"] + cpu["child_cpu_s"])
            / done * 1e3,
            "peak_rss_mb": host.own_peak_rss_mib() + run.child_peak_mib,
        }
        return run.record(
            "end_to_end", END_TO_END, values, {},
            failed_share=run.failed / run.attempted,
            setups_s=setups, setup_parts=run.setup_parts,
            leaked_shm_segments=run.leaked)
    finally:
        run.cleanup()


def _p(result: PhaseResult, q: float) -> float:
    """Percentile of a phase's latencies in ms; a phase with nothing
    correct reports its drain timeout, never a flattering zero."""
    if not result.ok:
        return loadgen.DRAIN_TIMEOUT_S * 1e3
    return stats.percentile(result.latency_s, q) * 1e3


def run_traced(workload: Workload, seed: int, plan: Plan
               ) -> Dict[str, object]:
    """The per-layer run: layer microbenchmarks, then an untraced and a
    traced front end side by side, under the benchmark's own spans."""
    run = Run(workload, seed, plan)
    spans = SpanRecorder()
    values: Dict[str, Optional[float]] = {}
    nulls: Dict[str, str] = {}
    prefix = "engine" if workload.frontend == "engine" else "replicas"
    try:
        values.update(layers.measure(workload, run.inputs, spans,
                                     run.scratch, plan.layer_budget_s,
                                     plan.share(0.04)))
        share = {k: plan.share(v) for k, v in TRACED_SHARES.items()}
        low_rate, mid_rate, _ = workload.rates

        # Untraced front end: the unloaded latency and the saturated
        # throughput the traced numbers are held against.
        front = run.setup()
        try:
            run.warm_up(front)
            low = run.step(front, "low", low_rate, share["low"])
            sat0, cpu0, delta0 = run.saturate(front, "saturation_untraced",
                                              share["sat_untraced"])
        finally:
            close_s = run.close(front)
        start_s = run.setup_parts[-1]["start_s"]

        tracer = adapters.make_tracer()
        front = run.setup(tracer)
        try:
            run.warm_up(front, "warm_up_traced")
            tracer.clear()
            with spans.span("step.mid") as mid_span:
                mid = run.step(front, "mid_traced", mid_rate, share["mid"])
            phase_ms = adapters.phase_durations_ms(tracer)
            _request_spans(spans, mid_span, mid, prefix)
            scrape_span: List[int] = []

            def scrape() -> None:
                with spans.span("telemetry.scrape") as span_id:
                    adapters.scrape()
                scrape_span.append(span_id)

            # One scrape of the live registry in the middle of the
            # saturated phase, from a thread of its own.
            scraper = threading.Timer(share["sat"] / 2, scrape)
            with spans.span("step.saturation") as sat_span:
                scraper.start()
                sat1, _, _ = run.saturate(front, "saturation_traced",
                                          share["sat"])
                scraper.join()
            _request_spans(spans, sat_span, sat1, prefix)
        finally:
            run.close(front)

        throughput0, throughput1 = sat0.completion_rps, sat1.completion_rps
        unloaded_ms = _p(low, 50)
        overhead_sat_us = 1e6 / max(throughput0, 1e-9) \
            - values["executor.run_b8_ms"] * 1e3 / 8
        phases, traced, outside_ms, closure = _phase_closure(phase_ms, mid)

        values.update({
            "gen.lag_p95_ms": max(low.lag_p95_s, mid.lag_p95_s) * 1e3,
            "gen.offered_rps": mid.offered_rps,
            "gen.step_reruns": float(run.phases["low"]["reruns"]
                                     + run.phases["mid_traced"]["reruns"]),
            "arena.allocations_sat": float(delta0["arena_allocations"]),
            "arena.reuses_sat": float(delta0["arena_reuses"]),
            "batcher.mean_batch_mid": run.phases["mid_traced"]["mean_batch"],
            "batcher.mean_batch_sat":
                run.phases["saturation_untraced"]["mean_batch"],
            "engine.admit_us": stats.median(mid.admit_s) * 1e6,
            "shm.leaked_segments": values["shm.leaked_segments"]
            + run.leaked,
            "telemetry.trace_overhead_share":
                1.0 - throughput1 / throughput0,
            "telemetry.scrape_ms": spans.duration(scrape_span[0]) * 1e3,
            f"{prefix}.close_s": close_s,
            f"{prefix}.overhead_unloaded_ms":
                unloaded_ms - values["executor.run_b1_ms"],
            f"{prefix}.phase_closure": closure,
        })
        for name, value in phases.items():
            values[f"{prefix}.phase.{name}_ms"] = value
        if workload.frontend == "engine":
            values.update({
                "engine.start_s": start_s,
                "engine.overhead_sat_us": overhead_sat_us,
                "engine.cpu_share_sat":
                    cpu0["parent_cpu_s"] / cpu0["wall_s"],
            })
        else:
            values.update({
                "replicas.spawn_s": start_s,
                "replicas.parent_cpu_share_sat":
                    cpu0["parent_cpu_s"] / cpu0["wall_s"],
                "replicas.child_cpu_share_sat":
                    cpu0["child_cpu_s"] / cpu0["wall_s"],
                "replicas.shm_requests": float(delta0["shm_requests"]),
                "replicas.shm_fallbacks": float(delta0["shm_fallbacks"]),
                "replicas.restarts": float(delta0["restarts"]),
                "replicas.refused": float(delta0["refused"]),
            })
        if workload.name == "mlp_engine":
            _slo_probe(run, mid_rate, share["probe"], values, nulls)
        else:
            for name in ("batcher.adaptive_shed_share",
                         "batcher.adaptive_goodput_share"):
                nulls[name] = "the SLO probe runs on mlp_engine only"

        trace_path = os.path.join(OUT_DIR, f"trace-{workload.name}.json")
        spans.dump(trace_path)
        return run.record(
            "traced", PER_LAYER, values, nulls,
            trace_file=os.path.relpath(trace_path),
            tracer_traces=traced, tracer_phase_medians_ms=phases,
            outside_latency_ms=outside_ms,
            throughput_untraced_rps=throughput0,
            throughput_traced_rps=throughput1)
    finally:
        run.cleanup()


def _phase_closure(phase_ms: Dict[str, List[float]], mid: PhaseResult):
    """Hold the program's own phases against the latency the generator
    measured for the same requests: (median ms per phase, traces read,
    mean outside latency, sum of mean phases / mean outside latency).

    The tracer's ring holds the most recent requests, so the outside
    latency is that of the last as many completions, taken from the
    send (where the program's clock starts).  Means, because the parts
    of a mean add up to it."""
    columns = {name: column for name, column in phase_ms.items()
               if name != "total"}
    phases = {name: stats.median(column)
              for name, column in columns.items()}
    traced = len(phase_ms.get("total", ()))
    if not traced or not mid.rows:
        return phases, traced, None, None
    recent = sorted(mid.rows, key=lambda row: row[4])[-traced:]
    outside_ms = float(np.mean([(row[4] - row[2]) * 1e3
                                for row in recent]))
    phase_sum = sum(float(np.mean(column)) for column in columns.values())
    return phases, traced, outside_ms, phase_sum / outside_ms


def _request_spans(spans: SpanRecorder, parent: int, result: PhaseResult,
                   prefix: str) -> None:
    """One span per request (due -> done) with the call into the front
    end as its child, so a request's self time is the time it spent
    inside the program after admission plus the generator's lag."""
    for index, due, sent, admitted, done in result.rows[:MAX_REQUEST_SPANS]:
        request = spans.add("request", due, done, parent, index)
        spans.add(f"{prefix}.admit", sent, admitted, request, index)


def _slo_probe(run: Run, rate: float, seconds: float,
               values: Dict[str, Optional[float]],
               nulls: Dict[str, str]) -> None:
    """One mid-rate step against the adaptive SLO batcher: reported,
    never gated, because that path is bistable today."""
    front = run.setup(probe=True)
    names = ("batcher.adaptive_shed_share", "batcher.adaptive_goodput_share")
    if front is None:
        for name in names:
            nulls[name] = "InferenceEngine no longer takes adaptive / " \
                          "default_slo_ms"
        return
    # The probe's refusals are what it measures; keep them out of the
    # run's own failure count.
    attempted, failed = run.attempted, run.failed
    try:
        run.warm_up(front, "warm_up_slo_probe")
        before = adapters.counters(front)
        result = run.step(front, "slo_probe", rate, seconds)
        after = adapters.counters(front)
    finally:
        run.close(front)
        run.attempted, run.failed = attempted, failed
    shed = after["shed"] - before["shed"]
    missed = after["slo_misses"] - before["slo_misses"]
    values[names[0]] = shed / result.attempted
    values[names[1]] = max(0, result.ok - missed) / result.attempted


def contract_line(record: Dict[str, object]) -> Dict[str, object]:
    """The last line of standard output: numbers only, a layer that is
    not on the workload's path reads 0."""
    return {
        "correct": record["correct"], "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": 0.0 if m["value"] is None else m["value"],
                   "unit": m["unit"]}
            for name, m in record["metrics"].items()},
    }


def print_metrics(record: Dict[str, object]) -> None:
    for name, metric in record["metrics"].items():
        value = metric["value"]
        shown = f"null ({record['nulls'][name]})" if value is None \
            else f"{value:.6g} {metric['unit']}"
        print(f"  {name:<34} {shown}")
