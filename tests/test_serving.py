"""Tests for repro.serving: micro-batching queue, engine, metrics, bench."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ir import build_model
from repro.runtime import Executor, WorkerPool
from repro.serving import (
    BatchQueue,
    EngineClosedError,
    InferenceEngine,
    InferenceRequest,
    MetricsRecorder,
    QueueClosedError,
    ReplicaEngine,
    check_sample,
    percentile,
    run_bench,
    sample_feeds,
)
from repro.serving.batcher import linger_deadline
from repro.serving.bench import render


def make_request(value=0.0, shape=(1, 4)):
    return InferenceRequest(feeds={"input": np.full(shape, value,
                                                    dtype=np.float32)})


class TestBatchQueue:
    def test_coalesces_up_to_max_batch(self):
        queue = BatchQueue(max_batch=4, max_latency_s=10.0)
        for i in range(6):
            queue.submit(make_request(i))
        first = queue.next_batch()
        second = queue.next_batch()
        assert len(first) == 4 and len(second) == 2
        assert queue.depth() == 0

    def test_deadline_dispatches_partial_batch(self):
        queue = BatchQueue(max_batch=8, max_latency_s=0.02)
        queue.submit(make_request())
        start = time.monotonic()
        batch = queue.next_batch()
        waited = time.monotonic() - start
        assert len(batch) == 1
        assert waited >= 0.015

    def test_batch_one_skips_deadline_wait(self):
        queue = BatchQueue(max_batch=1, max_latency_s=10.0)
        queue.submit(make_request())
        start = time.monotonic()
        assert len(queue.next_batch()) == 1
        assert time.monotonic() - start < 1.0

    def test_submit_after_close_raises(self):
        queue = BatchQueue()
        queue.close()
        with pytest.raises(RuntimeError):
            queue.submit(make_request())

    def test_next_batch_returns_none_when_closed_and_empty(self):
        queue = BatchQueue()
        results = []

        def consumer():
            results.append(queue.next_batch())

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5)
        assert results == [None]

    def test_close_releases_blocked_deadline_wait(self):
        queue = BatchQueue(max_batch=8, max_latency_s=30.0)
        queue.submit(make_request())
        results = []

        def consumer():
            results.append(queue.next_batch())

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5)
        assert len(results) == 1 and len(results[0]) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            BatchQueue(max_batch=0)
        with pytest.raises(ValueError):
            BatchQueue(max_latency_s=-1.0)
        with pytest.raises(ValueError):
            BatchQueue(queue_limit=0, on_shed=lambda r: None)
        with pytest.raises(ValueError):
            BatchQueue(queue_limit=4)       # queue_limit needs on_shed


class TestBatchQueueDeadlineEdges:
    def test_max_latency_zero_dispatches_immediately(self):
        # The fast path: no timer, whatever is queued goes at once.
        queue = BatchQueue(max_batch=8, max_latency_s=0.0)
        for i in range(3):
            queue.submit(make_request(i))
        start = time.monotonic()
        batch = queue.next_batch()
        assert len(batch) == 3
        assert time.monotonic() - start < 0.5

    def test_submit_after_close_raises_typed_error(self):
        queue = BatchQueue()
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.submit(make_request())

    def test_burst_arriving_at_deadline_expiry_is_not_lost(self):
        # Requests landing exactly as the oldest request's timer fires
        # must end up in this dispatch or the next one — never dropped.
        queue = BatchQueue(max_batch=8, max_latency_s=0.05)
        served = []
        done = threading.Event()

        def consumer():
            while True:
                batch = queue.next_batch()
                if batch is None:
                    return
                served.extend(batch)
                if len(served) >= 8:
                    done.set()
                    queue.close()

        thread = threading.Thread(target=consumer)
        queue.submit(make_request())
        thread.start()
        time.sleep(0.05)                     # the oldest's deadline
        for i in range(7):
            queue.submit(make_request(i))
        assert done.wait(timeout=5)
        thread.join(timeout=5)
        assert len(served) == 8
        assert queue.depth() == 0

    def test_close_during_adaptive_deadline_wait_flushes_request(self):
        # A request parked in the adaptive wait-for-more-arrivals state
        # must be dispatched (not stranded) when the queue closes.
        shed = []
        queue = BatchQueue(max_batch=8, max_latency_s=30.0,
                           cost_model=lambda n: 1e-4,
                           on_shed=shed.append)
        request = make_request()
        request.deadline_s = time.monotonic() + 10.0
        queue.submit(request)
        results = []

        def consumer():
            results.append(queue.next_batch())

        thread = threading.Thread(target=consumer)
        thread.start()
        time.sleep(0.05)
        queue.close()
        thread.join(timeout=5)
        assert len(results) == 1 and results[0] is not None
        assert len(results[0]) == 1
        assert shed == []


WINDOW = 0.2                  # linger window of the behaviour tests (s)
clock = st.floats(min_value=0.0, max_value=1e7)
window = st.floats(min_value=0.0, max_value=60.0)


class TestLingerDeadline:
    """The one deadline both assemblers use, as a pure function."""

    @given(oldest=clock, waiting_since=st.none() | clock, latency=window)
    def test_never_later_than_the_oldest_requests_own_window(
            self, oldest, waiting_since, latency):
        # No request is dispatched later than under the arrival-anchored
        # rule: max_latency_s stays the upper bound on linger.
        assert linger_deadline(oldest, waiting_since, latency) \
            <= oldest + latency

    @given(oldest=clock, latency=window)
    def test_busy_consumer_gets_the_arrival_anchored_deadline(
            self, oldest, latency):
        # A consumer that found the queue non-empty never started
        # waiting: its deadline is the oldest request's, bit for bit.
        assert linger_deadline(oldest, None, latency) == oldest + latency

    @given(oldest=clock, waiting_since=clock, latency=window,
           overrun=st.floats(min_value=0.0, max_value=60.0))
    def test_a_full_window_of_idleness_leaves_nothing_to_wait(
            self, oldest, waiting_since, latency, overrun):
        now = waiting_since + latency + overrun
        assert linger_deadline(oldest, waiting_since, latency) <= now


class Consumer:
    """``next_batch()`` in a loop on a thread of its own, as the
    engines' dispatchers call it; records when each batch came out."""

    def __init__(self, queue):
        self.queue = queue
        self.handed_out = []                 # (time.monotonic(), batch)
        self.started = time.monotonic()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while True:
            batch = self.queue.next_batch()
            if batch is None:
                return
            self.handed_out.append((time.monotonic(), batch))

    def wait_for(self, count, timeout=5.0):
        deadline = time.monotonic() + timeout
        while len(self.handed_out) < count:
            assert time.monotonic() < deadline, \
                f"{len(self.handed_out)} of {count} batches came out"
            time.sleep(0.001)
        return self.handed_out[count - 1]

    def stop(self):
        self.queue.close()
        self._thread.join(timeout=5)
        assert not self._thread.is_alive()


class TestLingerWindow:
    """The window opens when the consumer starts waiting, not when the
    request arrives.  Window 200 ms, margins of tens of ms."""

    def test_consumer_idle_a_whole_window_dispatches_at_once(self):
        consumer = Consumer(BatchQueue(max_batch=8,
                                       max_latency_s=WINDOW))
        try:
            time.sleep(1.5 * WINDOW)
            request = make_request()
            consumer.queue.submit(request)
            at, batch = consumer.wait_for(1)
        finally:
            consumer.stop()
        assert batch == [request]
        assert at - request.enqueued_at < 0.05

    def test_consumer_idle_half_a_window_waits_the_other_half(self):
        consumer = Consumer(BatchQueue(max_batch=8,
                                       max_latency_s=WINDOW))
        try:
            time.sleep(0.5 * WINDOW)
            request = make_request()
            consumer.queue.submit(request)
            at, batch = consumer.wait_for(1)
        finally:
            consumer.stop()
        assert batch == [request]
        # Out when the window that opened with the consumer's wait
        # closes: never before it, and well short of a window of the
        # request's own.
        assert at - consumer.started >= WINDOW
        assert at - request.enqueued_at < 0.75 * WINDOW

    def test_busy_consumer_still_waits_the_full_timer(self):
        # The consumer idles more than a window and gets the arrival at
        # once; handing it out ends the wait, so the request that comes
        # in while the consumer is away (busy with that batch) lingers
        # a whole window from its own arrival, exactly as before.
        queue = BatchQueue(max_batch=8, max_latency_s=WINDOW)
        first, second = make_request(0), make_request(1)

        def arrive_late():
            time.sleep(1.5 * WINDOW)
            first.enqueued_at = time.monotonic()
            queue.submit(first)

        producer = threading.Thread(target=arrive_late)
        producer.start()
        assert queue.next_batch() == [first]
        assert time.monotonic() - first.enqueued_at < 0.05
        producer.join(timeout=5)
        second.enqueued_at = time.monotonic()
        queue.submit(second)
        time.sleep(0.25 * WINDOW)        # the consumer is busy
        assert queue.next_batch() == [second]
        assert time.monotonic() - second.enqueued_at >= WINDOW - 0.005

    def test_burst_after_long_idle_ships_head_then_the_rest_together(self):
        # Five requests hit an idle consumer: the head goes out alone
        # at once, and the other four are not shipped as fragments —
        # they share the window that opens after that hand-out.
        consumer = Consumer(BatchQueue(max_batch=8,
                                       max_latency_s=WINDOW))
        try:
            time.sleep(1.5 * WINDOW)
            head = make_request(0)
            consumer.queue.submit(head)
            head_at, _ = consumer.wait_for(1)
            for i in range(1, 5):
                consumer.queue.submit(make_request(i))
            rest_at, _ = consumer.wait_for(2)
        finally:
            consumer.stop()
        assert [len(batch) for _, batch in consumer.handed_out] == [1, 4]
        assert head_at - head.enqueued_at < 0.05
        # Non-full batches: at most one per window of consumer time.
        assert rest_at - head_at >= WINDOW - 0.005

    def test_adaptive_arrival_wait_does_not_reopen_the_window(self):
        # The consumer has idled half a window when a request with a
        # far deadline arrives: the adaptive assembler waits out the
        # other half and returns [] for a re-examination, which must
        # find the window closed — not open a fresh one for the same
        # wait.
        calls = []

        def cost(size):
            calls.append(size)
            return 1e-4

        consumer = Consumer(BatchQueue(max_batch=8, max_latency_s=WINDOW,
                                       cost_model=cost,
                                       on_shed=lambda r: None))
        try:
            time.sleep(0.5 * WINDOW)
            request = make_request()
            request.deadline_s = request.enqueued_at + 60.0
            consumer.queue.submit(request)
            at, batch = consumer.wait_for(1)
        finally:
            consumer.stop()
        assert batch == [request]
        # cost(depth + 1) is asked once per decision that considers
        # waiting: two of them means the [] path ran.
        assert calls.count(2) >= 2
        assert at - request.enqueued_at < 0.75 * WINDOW

    def test_shedding_to_depth_zero_does_not_reopen_the_window(self):
        # A doomed request arrives three quarters into the window and
        # is shed, emptying the queue again; the consumer's wait began
        # before it and is still the same wait when a viable request
        # arrives a window and a quarter in: that one goes at once.
        shed = []
        consumer = Consumer(BatchQueue(max_batch=8, max_latency_s=WINDOW,
                                       cost_model=lambda n: 0.010,
                                       on_shed=shed.append,
                                       headroom_s=0.0))
        try:
            time.sleep(0.75 * WINDOW)
            doomed = make_request(0)
            doomed.deadline_s = doomed.enqueued_at + 0.001
            consumer.queue.submit(doomed)
            time.sleep(0.5 * WINDOW)
            assert shed == [doomed] and not consumer.handed_out
            viable = make_request(1)
            viable.deadline_s = viable.enqueued_at + 60.0
            consumer.queue.submit(viable)
            at, batch = consumer.wait_for(1)
        finally:
            consumer.stop()
        assert batch == [viable]
        assert at - viable.enqueued_at < 0.05


class TestMetrics:
    def test_percentile_nearest_rank(self):
        values = sorted([1.0, 2.0, 3.0, 4.0])
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 4.0
        assert percentile([], 50) == 0.0

    def test_recorder_snapshot(self):
        recorder = MetricsRecorder()
        recorder.record_batch(4, [0.001, 0.002, 0.003, 0.004])
        recorder.record_batch(1, [0.010])
        recorder.record_failure(2)
        snapshot = recorder.snapshot(queue_depth=3)
        assert snapshot.requests == 5
        assert snapshot.batches == 2
        assert snapshot.failures == 2
        assert snapshot.queue_depth == 3
        assert snapshot.batch_histogram == {4: 1, 1: 1}
        assert snapshot.mean_batch == pytest.approx(2.5)
        assert snapshot.p99_ms == pytest.approx(10.0)
        assert "requests 5" in snapshot.report()


@pytest.fixture(scope="module")
def mlp_graph():
    return build_model("mlp")


@pytest.fixture(scope="module")
def mlp_feeds(mlp_graph):
    return sample_feeds(mlp_graph, seed=3)


class TestWorkerPool:
    def test_worker_pool_grows_only(self):
        pool = WorkerPool(name="test-pool")
        assert pool.ensure(2) == 2
        assert pool.ensure(1) == 2
        done = threading.Event()
        pool.submit(done.set)
        assert done.wait(5.0)


class TestInferenceEngine:
    def test_single_request_matches_direct_executor(self, mlp_graph,
                                                    mlp_feeds):
        reference = Executor(mlp_graph.with_batch(1)).run(mlp_feeds)
        with InferenceEngine(mlp_graph, workers=1, max_batch=1) as engine:
            got = engine.infer_sync(mlp_feeds, timeout=10)
        assert set(got) == set(reference)
        for name in reference:
            assert got[name].dtype == reference[name].dtype
            np.testing.assert_allclose(got[name], reference[name],
                                       rtol=1e-5, atol=1e-6)

    def test_burst_is_batched_and_results_match(self, mlp_graph, mlp_feeds):
        reference = Executor(mlp_graph.with_batch(1)).run(mlp_feeds)
        with InferenceEngine(mlp_graph, workers=1, max_batch=8,
                             max_latency_ms=50.0) as engine:
            results = engine.infer_many([mlp_feeds] * 16, timeout=10)
            snapshot = engine.metrics()
        assert len(results) == 16
        for result in results:
            for name in reference:
                np.testing.assert_allclose(result[name], reference[name],
                                           rtol=1e-5, atol=1e-6)
        assert snapshot.requests == 16
        assert snapshot.mean_batch > 1.0          # coalescing happened
        assert max(snapshot.batch_histogram) > 1

    def test_adaptive_path_is_bitwise_identical_to_fixed(self, mlp_graph,
                                                         mlp_feeds):
        # The semantics bar extended to SLO-aware batching: for the same
        # batch composition, an admitted request's outputs must be
        # bit-for-bit what the fixed-knob engine produces.  Both engines
        # are forced into one deterministic batch of 4 (huge timer, 4
        # submissions, generous deadline; the adaptive model is
        # pre-warmed so the deadline-aware policy — not the cold-model
        # fallback — does the assembly).
        from repro.serving import BatchLatencyModel

        def run(adaptive):
            model = None
            if adaptive:
                model = BatchLatencyModel(min_samples=1)
                for size in (1, 2, 4):
                    for _ in range(8):
                        model.observe(size, 1e-5 * size)
            with InferenceEngine(mlp_graph, workers=1, max_batch=4,
                                 max_latency_ms=5000.0,
                                 adaptive=adaptive,
                                 latency_model=model) as engine:
                futures = [engine.infer(mlp_feeds, slo_ms=60_000.0)
                           for _ in range(4)]
                results = [future.result(timeout=30) for future in futures]
                histogram = engine.metrics().batch_histogram
            return results, histogram

        fixed_results, fixed_hist = run(adaptive=False)
        adaptive_results, adaptive_hist = run(adaptive=True)
        # Same composition (one batch of 4) on both paths...
        assert fixed_hist == {4: 1}
        assert adaptive_hist == {4: 1}
        # ...therefore bitwise-identical outputs.
        for fixed, got in zip(fixed_results, adaptive_results):
            assert set(fixed) == set(got)
            for name in fixed:
                assert fixed[name].dtype == got[name].dtype
                np.testing.assert_array_equal(fixed[name], got[name])

    def test_light_load_degrades_to_batch_one(self, mlp_graph, mlp_feeds):
        with InferenceEngine(mlp_graph, workers=1, max_batch=8,
                             max_latency_ms=1.0) as engine:
            for _ in range(3):
                engine.infer_sync(mlp_feeds, timeout=10)
                time.sleep(0.01)
            snapshot = engine.metrics()
        assert snapshot.batch_histogram.get(1, 0) >= 3

    def test_steady_state_is_allocation_free(self, mlp_graph, mlp_feeds):
        with InferenceEngine(mlp_graph, workers=1, max_batch=4,
                             max_latency_ms=20.0) as engine:
            engine.infer_many([mlp_feeds] * 8, timeout=10)   # warmup
            before = engine.metrics()
            engine.infer_many([mlp_feeds] * 8, timeout=10)
            after = engine.metrics()
        assert after.arena_allocations == before.arena_allocations
        assert after.arena_large_allocations == before.arena_large_allocations
        assert after.arena_reuses > before.arena_reuses

    def test_shape_and_name_validation(self, mlp_graph, mlp_feeds):
        with InferenceEngine(mlp_graph, workers=1, max_batch=1) as engine:
            with pytest.raises(ValueError, match="missing feed"):
                engine.infer({})
            bad = {name: np.concatenate([arr, arr], axis=0)
                   for name, arr in mlp_feeds.items()}
            with pytest.raises(ValueError, match="shape"):
                engine.infer(bad)
            with pytest.raises(ValueError, match="unknown feed"):
                engine.infer({**mlp_feeds, "bogus": np.zeros(3)})

    def test_submit_after_close_raises(self, mlp_graph, mlp_feeds):
        engine = InferenceEngine(mlp_graph, workers=1, max_batch=1)
        engine.close()
        with pytest.raises(EngineClosedError):
            engine.infer(mlp_feeds)
        engine.close()                            # idempotent

    def test_execution_error_propagates_to_futures(self, mlp_graph,
                                                   mlp_feeds,
                                                   monkeypatch):
        engine = InferenceEngine(mlp_graph, workers=1, max_batch=2,
                                 max_latency_ms=20.0)
        try:
            def explode(self, feeds):
                raise RuntimeError("kernel exploded")

            monkeypatch.setattr(Executor, "run", explode)
            futures = [engine.infer(mlp_feeds) for _ in range(2)]
            for future in futures:
                with pytest.raises(RuntimeError, match="kernel exploded"):
                    future.result(timeout=10)
            assert engine.metrics().failures == 2
        finally:
            monkeypatch.undo()
            engine.close()

    def test_worker_pool_serves_concurrent_clients(self, mlp_graph,
                                                   mlp_feeds):
        with InferenceEngine(mlp_graph, workers=2, max_batch=2,
                             max_latency_ms=1.0) as engine:
            errors = []

            def client():
                try:
                    for _ in range(5):
                        engine.infer_sync(mlp_feeds, timeout=10)
                except BaseException as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=client) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            snapshot = engine.metrics()
        assert not errors
        assert snapshot.requests == 20
        assert snapshot.failures == 0


class TestLingerWindowFrontEnds:
    """Both front ends inherit the rule from the queue they share."""

    @pytest.mark.parametrize("front_end", [
        lambda graph: InferenceEngine(graph, max_latency_ms=1e3 * WINDOW),
        lambda graph: ReplicaEngine(graph, replicas=1,
                                    max_latency_ms=1e3 * WINDOW),
    ], ids=["engine", "tier"])
    def test_front_ends_answer_a_lone_request_after_idleness(
            self, front_end, mlp_graph, mlp_feeds):
        with front_end(mlp_graph) as engine:
            engine.infer_sync(mlp_feeds, timeout=30)   # compiles batch 1
            time.sleep(1.5 * WINDOW)
            start = time.monotonic()
            engine.infer_sync(mlp_feeds, timeout=30)
            elapsed = time.monotonic() - start
        assert elapsed < 0.5 * WINDOW

    def test_closed_loop_still_fills_its_batches(self, mlp_graph,
                                                 mlp_feeds):
        # 32 outstanding, each completion lets the one generator thread
        # send one more: the generator, not the engine, is the
        # bottleneck, and batches of 8 form only because the queue
        # lingers for a busy dispatcher.
        total = 4000
        with InferenceEngine(mlp_graph) as engine:
            for size in range(1, 9):                   # compile 1..8
                engine.infer_many([mlp_feeds] * size, timeout=30)
            before = engine.metrics()
            slots = threading.Semaphore(32)
            futures = []
            for _ in range(total):
                assert slots.acquire(timeout=30)
                future = engine.infer(mlp_feeds)
                future.add_done_callback(lambda _: slots.release())
                futures.append(future)
            for future in futures:
                future.result(timeout=30)
            after = engine.metrics()
        assert after.requests - before.requests == total
        assert total / (after.batches - before.batches) >= 7.0


class TestEngineShutdownRaces:
    def test_queue_closed_race_surfaces_typed_error(self, mlp_graph,
                                                    mlp_feeds):
        # Deterministic replay of the submit-vs-close race window: the
        # engine's _closed flag is still False but the queue is already
        # closed.  Submitting must surface EngineClosedError, never the
        # queue's internal QueueClosedError (or a bare RuntimeError).
        engine = InferenceEngine(mlp_graph, workers=1, max_batch=1)
        try:
            engine.queue.close()
            with pytest.raises(EngineClosedError):
                engine.infer(mlp_feeds)
        finally:
            engine.close()

    def test_queue_submit_raises_typed_error(self):
        queue = BatchQueue()
        queue.close()
        with pytest.raises(QueueClosedError):
            queue.submit(make_request())
        assert issubclass(QueueClosedError, RuntimeError)

    def test_submit_vs_close_stress_every_future_resolves(self, mlp_graph,
                                                          mlp_feeds):
        # 100 consecutive engine lifetimes with a client submitting
        # concurrently with close(): every accepted future must resolve
        # (result or EngineClosedError) — nothing hangs, nothing leaks a
        # bare RuntimeError.
        for _ in range(100):
            engine = InferenceEngine(mlp_graph, workers=1, max_batch=2,
                                     max_latency_ms=0.5)
            futures = []
            started = threading.Barrier(2)

            def client():
                started.wait()
                for _ in range(8):
                    try:
                        futures.append(engine.infer(mlp_feeds))
                    except EngineClosedError:
                        return

            thread = threading.Thread(target=client)
            thread.start()
            started.wait()
            engine.close(timeout=10)
            thread.join(timeout=10)
            assert not thread.is_alive()
            for future in futures:
                try:
                    result = future.result(timeout=10)
                except EngineClosedError:
                    continue
                assert set(result) == {
                    name for name in mlp_graph.output_names}

    def test_close_counts_drained_requests_as_failures(self, mlp_graph,
                                                       mlp_feeds):
        engine = InferenceEngine(mlp_graph, workers=1, max_batch=1,
                                 max_latency_ms=1.0)
        captured = []

        class CapturingPool:
            def submit(self, task):
                captured.append(task)

        # The captured task never runs, so the dispatcher's only worker
        # slot stays held and every later request is stuck in the queue:
        # close() must drain those as *counted* failures.
        engine._pool = CapturingPool()
        blocker = engine.infer(mlp_feeds)
        deadline = time.monotonic() + 5
        while not captured and time.monotonic() < deadline:
            time.sleep(0.01)
        assert captured
        queued = [engine.infer(mlp_feeds) for _ in range(3)]
        engine.close(timeout=0.5)
        for future in queued:
            with pytest.raises(EngineClosedError):
                future.result(timeout=10)
        snapshot = engine.metrics()
        assert snapshot.failures == 3
        assert snapshot.failure_rate > 0.0
        # Run the stranded batch: the slot releases and its request
        # completes normally (close never abandoned it).
        captured[0]()
        assert blocker.result(timeout=10)

    def test_pool_submit_failure_releases_slot(self, mlp_graph, mlp_feeds):
        engine = InferenceEngine(mlp_graph, workers=1, max_batch=1)

        class RejectingPool:
            def submit(self, task):
                raise RuntimeError("pool rejected task")

        engine._pool = RejectingPool()
        future = engine.infer(mlp_feeds)
        with pytest.raises(RuntimeError, match="pool rejected task"):
            future.result(timeout=10)
        assert engine.metrics().failures == 1
        # A leaked permit would stall the slot drain below for the full
        # timeout; with the release in place close() returns promptly.
        start = time.monotonic()
        engine.close(timeout=10)
        assert time.monotonic() - start < 5
        assert engine._slots.acquire(timeout=1)   # permit survived
        engine._slots.release()


class TestFeedAliasing:
    def test_check_sample_never_aliases_caller_arrays(self, mlp_graph,
                                                      mlp_feeds):
        specs = {spec.name: spec
                 for spec in mlp_graph.with_batch(1).inputs}
        owned = check_sample(specs, mlp_feeds)
        for name, raw in mlp_feeds.items():
            # Same dtype means astype(copy=False) would alias; the
            # pipeline must own its inputs regardless.
            assert not np.shares_memory(owned[name], raw)
        # Conversion path still converts.
        as_f64 = {name: array.astype(np.float64)
                  for name, array in mlp_feeds.items()}
        converted = check_sample(specs, as_f64)
        for name, spec in specs.items():
            assert converted[name].dtype == spec.dtype.to_numpy()

    def test_mutating_feed_after_infer_keeps_batch_intact(self, mlp_graph,
                                                          mlp_feeds):
        reference = Executor(mlp_graph.with_batch(1)).run(mlp_feeds)
        with InferenceEngine(mlp_graph, workers=1, max_batch=2,
                             max_latency_ms=500.0) as engine:
            victim = {name: array.copy()
                      for name, array in mlp_feeds.items()}
            first = engine.infer(victim)
            # The request now waits for its batch to fill; a caller
            # reusing its buffer must not corrupt it.
            for array in victim.values():
                array.fill(1e6)
            second = engine.infer(mlp_feeds)
            for result in (first.result(timeout=10),
                           second.result(timeout=10)):
                for name in reference:
                    np.testing.assert_allclose(
                        result[name], reference[name],
                        rtol=1e-5, atol=1e-6)


class TestBench:
    def test_run_bench_and_render(self, mlp_graph):
        rows = run_bench(mlp_graph, configs=[(1, 1), (1, 4)], requests=8,
                         warmup=2)
        assert len(rows) == 2
        assert all(row.requests == 8 for row in rows)
        assert all(row.throughput_rps > 0 for row in rows)
        table = render(rows, name="mlp")
        assert "serve-bench: mlp" in table
        assert "req/s" in table
