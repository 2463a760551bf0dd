"""The load generator measures what it says it measures."""

import time
from concurrent.futures import Future

import numpy as np

from bench import loadgen
from bench.loadgen import Oracle


class Refused(RuntimeError):
    pass


SPECS = [("input", (1, 4), np.dtype(np.float32))]


def _done(value) -> Future:
    future = Future()
    future.set_result(value)
    return future


def _echo_oracle(inputs):
    return Oracle([{"out": feeds["input"]} for feeds in inputs], exact=True)


def test_schedule_and_inputs_are_pure_functions_of_their_arguments():
    """The arrival trace depends on rate and count only (every run
    replays it); the inputs depend on the seed only."""
    a = loadgen.poisson_schedule(100.0, 500)
    assert np.array_equal(a, loadgen.poisson_schedule(100.0, 500))
    assert not np.array_equal(a[:400], loadgen.poisson_schedule(100.0, 400))
    assert not np.array_equal(a, loadgen.poisson_schedule(101.0, 500))
    assert np.all(np.diff(a) > 0)
    # 500 arrivals at 100/s take about 5 s.
    assert 4.0 < a[-1] < 6.0
    x = loadgen.make_inputs(SPECS, 7, 16)
    y = loadgen.make_inputs(SPECS, 7, 16)
    assert all(np.array_equal(p["input"], q["input"]) for p, q in zip(x, y))
    z = loadgen.make_inputs(SPECS, 8, 16)
    assert not np.array_equal(x[0]["input"], z[0]["input"])


def test_latency_runs_from_the_due_time():
    """An engine that stalls 50 ms in admission answers every request
    instantly, yet the requests that were due during the stall are
    charged the wait."""
    inputs = loadgen.make_inputs(SPECS, 0, 16)
    calls = []

    def submit(feeds):
        calls.append(time.perf_counter())
        if len(calls) == 5:
            time.sleep(0.05)
        return _done({"out": feeds["input"]})

    schedule = np.arange(1, 41) * 0.002        # one every 2 ms, 80 ms
    result = loadgen.open_loop(submit, inputs, schedule, 500.0,
                               _echo_oracle(inputs), (Refused,))
    assert result.ok == 40 and result.failed == 0
    latency_ms = result.latency_s * 1e3
    # Requests 6.. were due 2, 4, 6 ms into the stall: they waited out
    # the rest of it although their own service took microseconds.
    assert latency_ms[5] > 40.0
    assert latency_ms[10] > 30.0
    assert np.median(latency_ms[:4]) < 5.0
    # The generator reports how late it ran.
    assert result.lag_s.max() > 0.04
    # ... and a send-time clock would have hidden all of it.
    assert np.all(result.admit_s[5:] < 0.005)


def test_each_kind_of_failure_counts_once(monkeypatch):
    monkeypatch.setattr(loadgen, "DRAIN_TIMEOUT_S", 0.05)
    inputs = loadgen.make_inputs(SPECS, 0, 16)
    never = Future()

    def submit(feeds):
        index = submit.calls
        submit.calls += 1
        if index == 1:
            return _done({"out": feeds["input"] + 1})      # wrong answer
        if index == 2:
            future = Future()
            future.set_exception(ValueError("boom"))        # raised
            return future
        if index == 3:
            raise Refused("full")                           # refused
        if index == 4:
            return never                                    # times out
        if index == 5:
            future = Future()
            future.set_exception(Refused("shed"))           # refused late
            return future
        return _done({"out": feeds["input"]})

    submit.calls = 0
    schedule = np.arange(1, 11) * 0.001
    result = loadgen.open_loop(submit, inputs, schedule, 1000.0,
                               _echo_oracle(inputs), (Refused,))
    assert result.attempted == 10
    assert result.mismatched == 1
    assert result.raised == 1
    assert result.refused == 2
    assert result.timed_out == 1
    assert result.failed == 5
    assert result.ok == 5
    assert len(result.latency_s) == 5


def test_closed_loop_keeps_a_fixed_number_outstanding():
    inputs = loadgen.make_inputs(SPECS, 0, 16)
    pending = []
    peak = [0]

    def submit(feeds):
        future = Future()
        pending.append((future, feeds))
        peak[0] = max(peak[0], len(pending))
        if len(pending) == 4:
            for fut, f in pending[:]:
                fut.set_result({"out": f["input"]})
            pending.clear()
        return future

    result = loadgen.closed_loop(submit, inputs, 0.05, 4,
                                 _echo_oracle(inputs), (Refused,))
    assert peak[0] == 4
    assert result.ok >= 4 and result.mismatched == 0


def test_slo_needs_success_latency_and_a_steady_backlog():
    result = loadgen.PhaseResult(
        kind="open", rate=10.0, elapsed_s=1.0, attempted=100, ok=100,
        latency_s=np.full(100, 0.004), backlog_mid=2.0, backlog_end=3.0)
    assert result.meets(5.0)
    assert not result.meets(3.0)
    result.backlog_end = 40.0
    assert not result.meets(5.0)
    result.backlog_end = 3.0
    result.ok, result.refused = 98, 2
    assert not result.meets(5.0)
