import pytest

from bench import stats
from bench.compare import verdict
from bench.spans import SpanRecorder


@pytest.mark.parametrize("count, expected", [
    (99, None), (100, 90.0), (199, 90.0), (200, 95.0), (999, 95.0),
    (1000, 99.0), (10000, 99.9)])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(
        count, expected):
    assert stats.supported_tail(count) == expected


def test_tail_value():
    q, value = stats.tail(list(range(1000)))
    assert q == 99.0
    assert 985 < value < 995


def test_spread_is_interquartile_over_median():
    values = [10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0, 10.0]
    assert stats.spread_share(values) == 0.0
    assert stats.spread_share([8.0, 9.0, 10.0, 11.0, 12.0]) == \
        pytest.approx(0.3)


def test_self_time_is_the_span_minus_what_its_children_cover():
    spans = SpanRecorder()
    parent = spans.add("request", 0.0, 10.0)
    spans.add("admit", 1.0, 3.0, parent)
    spans.add("execute", 2.0, 5.0, parent)      # overlaps admit by 1
    spans.add("late", 9.0, 12.0, parent)        # runs past the parent
    other = spans.add("other", 20.0, 21.0)
    self_times = spans.self_times()
    # Children cover [1, 5] and [9, 10]: 5 of the 10 seconds.
    assert self_times[parent] == pytest.approx(5.0)
    assert self_times[other] == pytest.approx(1.0)
    table = spans.by_name()
    assert table["request"]["self_s"] == pytest.approx(5.0)
    assert table["admit"]["count"] == 1


def test_span_context_manager_nests():
    spans = SpanRecorder()
    with spans.span("outer") as outer:
        with spans.span("inner", outer):
            pass
    (o, i) = spans.rows
    assert i[4] == o[0]
    assert o[2] <= i[2] <= i[3] <= o[3]
    assert spans.duration(outer) >= 0.0


def test_compare_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert verdict(steady, [10.2, 10.3, 10.1, 10.2], "lower",
                   0.1)["verdict"] == "ok"
    assert verdict(steady, [12.0, 12.1, 11.9, 12.0], "lower",
                   0.1)["verdict"] == "worse"
    # higher-is-better: a drop is what is worse.
    assert verdict(steady, [8.0, 8.1, 7.9, 8.0], "higher",
                   0.1)["verdict"] == "worse"
    assert verdict(steady, [12.0, 12.1, 11.9, 12.0], "higher",
                   0.1)["verdict"] == "ok"
    noisy = [8.0, 12.0, 9.0, 11.0]
    assert verdict(noisy, [10.0, 10.1, 9.9, 10.0], "lower",
                   0.1)["verdict"] == "unresolved"
    # ... unless every run of B beats every run of A.
    assert verdict(noisy, [7.0, 7.1, 6.9, 7.0], "lower",
                   0.1)["verdict"] == "ok"
