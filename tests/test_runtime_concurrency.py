"""Tests for the concurrency that the sequential run path serves.

``Executor.run`` is one sequential loop; the concurrency left in the
runtime is the serving engine's: several workers on the shared
:class:`~repro.runtime.parallel.WorkerPool`, each running the *same*
compiled plan (steps and weight packs shared) on its own arena and
workspace.  The bar is the one the parallel executor used to meet:
bitwise equality with a lone sequential run, on the float, fp16, int8
and binary paths.  Around it: the release schedule is safe in plan
order on every zoo model, the per-step timeline is sequential and on
the running thread, a failing step leaves its arena usable, and the
pool keeps its FIFO / grow-only / error-tolerant contract.
"""

import threading

import numpy as np
import pytest

from repro.ir import available_models, build_model
from repro.optim import binarize, convert_fp16, fuse_graph, quantize_int8
from repro.runtime import (
    ExecutionError,
    Executor,
    WorkerPool,
    compile_plan,
    fresh_buffers,
)
from repro.runtime.parallel import get_pool
from repro.runtime.plan import CompiledStep, ExecutionPlan
from repro.serving import InferenceEngine

# Same reduced resolutions as the zoo property tests in test_runtime_plan.
ZOO_OVERRIDES = {
    "resnet50": {"image_size": 64},
    "yolov4": {"image_size": 64},
    "mobilenet_v3_large": {"image_size": 64},
    "mobilenet_v3_small": {"image_size": 64},
}

MODELS = ("mlp", "tiny_convnet", "wide_branch_net")
VARIANTS = ("float", "fp16", "int8", "binary")
WORKER_COUNTS = (2, 4)
RUNS_PER_WORKER = 3


def feeds_for(graph, seed):
    rng = np.random.default_rng(seed)
    return {spec.name: rng.normal(size=spec.shape)
            .astype(spec.dtype.to_numpy()) for spec in graph.inputs}


def assert_bitwise(want, got, context=""):
    assert want.keys() == got.keys()
    for name in want:
        assert want[name].dtype == got[name].dtype, (context, name)
        assert want[name].shape == got[name].shape, (context, name)
        assert want[name].tobytes() == got[name].tobytes(), (context, name)


def variant_graph(model, variant, batch=2):
    graph = build_model(model, batch=batch)
    if variant == "fp16":
        return convert_fp16(graph)
    if variant == "int8":
        return quantize_int8(graph, [feeds_for(graph, s) for s in range(2)])
    if variant == "binary":
        return binarize(graph, keep_first_and_last=False)
    return graph


def run_on_pool(workers, task):
    """Run ``task(index)`` on ``workers`` pool threads at once; returns
    the per-index results, re-raising the first failure."""
    pool = get_pool(ensure=workers)
    barrier = threading.Barrier(workers, timeout=30.0)
    results = [None] * workers
    errors = []
    done = threading.Semaphore(0)

    def job(index):
        def run():
            try:
                barrier.wait()          # make the workers overlap
                results[index] = task(index)
            except BaseException as exc:   # surfaced below
                errors.append(exc)
                barrier.abort()
            finally:
                done.release()
        return run

    for index in range(workers):
        pool.submit(job(index))
    for _ in range(workers):
        assert done.acquire(timeout=120.0), "pool task never finished"
    if errors:
        raise errors[0]
    return results


class TestSharedPlanAcrossWorkers:
    """Workers running one compiled plan concurrently, each on its own
    buffers, return what a lone sequential run returns, bit for bit."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("model", MODELS)
    def test_concurrent_runs_are_bitwise(self, model, variant, workers):
        graph = variant_graph(model, variant)
        plan = compile_plan(graph)
        seeds = [[100 * w + r for r in range(RUNS_PER_WORKER)]
                 for w in range(workers)]
        want = {seed: Executor(graph).run(feeds_for(graph, seed))
                for row in seeds for seed in row}
        executors = [Executor(graph, plan=plan, reuse_buffers=True)
                     for _ in range(workers)]
        assert len({id(e.plan.arena) for e in executors}) == workers

        def task(index):
            executor = executors[index]
            outputs = []
            for seed in seeds[index]:
                got = executor.run(feeds_for(graph, seed))
                # compare before recycling: recycled storage backs the
                # next run
                outputs.append((seed, {k: v.copy() for k, v in got.items()}))
                executor.recycle(got)
            return outputs

        for outputs in run_on_pool(workers, task):
            for seed, got in outputs:
                assert_bitwise(want[seed], got,
                               f"{model}/{variant}/w{workers}/s{seed}")
        for executor in executors:
            assert executor.plan.arena._active is None


class TestEngineWorkersRouteResults:
    """Every request gets its own answer back, bitwise, however many
    engine workers run batches concurrently."""

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_each_request_gets_its_own_bits(self, variant, workers):
        graph = variant_graph("tiny_convnet", variant, batch=1)
        samples = [feeds_for(graph, seed) for seed in range(12)]
        reference = Executor(graph)
        want = [reference.run(sample) for sample in samples]
        with InferenceEngine(graph, workers=workers, max_batch=1) as engine:
            results = engine.infer_many(samples, timeout=60)
        assert len(results) == len(samples)
        for index, got in enumerate(results):
            assert_bitwise(want[index], got, f"{variant}/w{workers}/#{index}")


@pytest.mark.parametrize("fused", [False, True], ids=["plain", "fused"])
@pytest.mark.parametrize("name", available_models())
class TestReleaseOrderSafety:
    """Walking the plan in order, no step reads a tensor the release
    schedule already freed, every intermediate is freed exactly once at
    its last consumer, and graph outputs are never freed."""

    def test_release_schedule_is_safe_in_plan_order(self, name, fused):
        graph = build_model(name, batch=1, **ZOO_OVERRIDES.get(name, {}))
        if fused:
            graph = fuse_graph(graph)
        plan = compile_plan(graph)
        produced = {out for step in plan.steps for out in step.node.outputs}
        outputs = set(graph.output_names)
        last_use = {}
        for position, step in enumerate(plan.steps):
            for tensor in (*step.node.inputs, *step.node.outputs):
                last_use[tensor] = position
        live, freed = set(), set()
        for position, step in enumerate(plan.steps):
            for tensor in step.node.inputs:
                if tensor in produced:
                    assert tensor not in freed, \
                        f"{step.node.name} reads freed {tensor}"
                    assert tensor in live, tensor
            live.update(step.node.outputs)
            for tensor in step.release:
                assert tensor in live, f"{tensor} freed while not live"
                assert tensor not in outputs, f"output {tensor} freed"
                assert last_use[tensor] == position, tensor
                live.discard(tensor)
                freed.add(tensor)
        assert freed == produced - outputs
        assert live == outputs & produced


class TestSequentialTimeline:
    """The recorded timeline is one span per step, in plan order, never
    overlapping, all on the thread that ran the plan."""

    def check(self, executor, timeline, thread):
        assert [entry["name"] for entry in timeline] == \
            [step.node.name for step in executor.plan.steps]
        assert [entry["op"] for entry in timeline] == \
            [step.node.op_type for step in executor.plan.steps]
        for before, after in zip(timeline, timeline[1:]):
            assert before["end"] <= after["start"]
        assert all(entry["end"] >= entry["start"] >= 0.0
                   for entry in timeline)
        assert {entry["thread"] for entry in timeline} == {thread}

    @pytest.mark.parametrize("reuse", [False, True],
                             ids=["allocating", "arena"])
    def test_caller_thread(self, reuse):
        graph = build_model("wide_branch_net", batch=2)
        executor = Executor(graph, reuse_buffers=reuse)
        executor.record_timeline = True
        executor.run(feeds_for(graph, 0))
        self.check(executor, executor.last_timeline, threading.get_ident())

    def test_pool_worker_thread(self):
        graph = build_model("wide_branch_net", batch=2)
        executors = [Executor(graph, reuse_buffers=True) for _ in range(2)]
        for executor in executors:
            executor.record_timeline = True

        def task(index):
            executors[index].run(feeds_for(graph, index))
            return threading.get_ident()

        threads = run_on_pool(2, task)
        assert threads[0] != threads[1]
        for executor, thread in zip(executors, threads):
            self.check(executor, executor.last_timeline, thread)


class TestFailingStepLeavesArenaUsable:
    def test_next_run_is_bitwise_after_a_failure(self):
        graph = build_model("wide_branch_net", batch=2)
        plan = compile_plan(graph)
        victim = len(plan.steps) // 2

        def boom(args, ctx=None):
            raise RuntimeError("kernel exploded")

        steps = list(plan.steps)
        steps[victim] = CompiledStep(steps[victim].node, boom,
                                     steps[victim].release)
        broken = ExecutionPlan(plan.graph_name, steps, plan.specs,
                               plan.peak_live_bytes, packs=plan.packs)
        buffers = fresh_buffers()
        feeds = feeds_for(graph, 1)
        want = Executor(graph).run(feeds)
        failing = Executor(graph, plan=broken, reuse_buffers=True,
                           buffers=buffers)
        with pytest.raises(ExecutionError, match="kernel exploded"):
            failing.run(feeds)
        assert buffers.arena._active is None
        healthy = Executor(graph, plan=plan, reuse_buffers=True,
                           buffers=buffers)
        assert_bitwise(want, healthy.run(feeds), "after failure")


class TestWorkerPoolContract:
    def test_single_worker_runs_tasks_in_fifo_order(self):
        pool = WorkerPool(name="test-fifo")
        pool.ensure(1)
        order, done = [], threading.Event()
        for index in range(20):
            pool.submit(lambda index=index: order.append(index))
        pool.submit(done.set)
        assert done.wait(10.0)
        assert order == list(range(20))

    def test_raising_task_does_not_kill_the_worker(self):
        pool = WorkerPool(name="test-raise")
        pool.ensure(1)

        def fail():
            raise RuntimeError("task failed")

        done = threading.Event()
        pool.submit(fail)
        pool.submit(done.set)
        assert done.wait(10.0)
        assert pool.size == 1
        assert pool.tasks_submitted == 2

    def test_pending_counts_queued_tasks(self):
        pool = WorkerPool(name="test-pending")
        pool.ensure(1)
        started, release = threading.Event(), threading.Event()

        def blocker():
            started.set()
            release.wait(10.0)

        pool.submit(blocker)
        assert started.wait(10.0)
        finished = threading.Event()
        pool.submit(lambda: None)
        pool.submit(lambda: None)
        pool.submit(finished.set)
        assert pool.pending() == 3
        release.set()
        assert finished.wait(10.0)
        assert pool.pending() == 0

    def test_concurrent_ensure_settles_at_the_maximum(self):
        pool = WorkerPool(name="test-ensure")
        callers = [threading.Thread(target=pool.ensure, args=(want,))
                   for want in (1, 3, 2, 3)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(10.0)
        assert pool.size == 3
        assert len({thread.name for thread in pool._threads}) == 3

    def test_shared_pool_is_one_instance(self):
        pool = get_pool()
        assert get_pool(ensure=2) is pool
        assert pool.size >= 2
