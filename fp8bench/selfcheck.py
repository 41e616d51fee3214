"""Checks of the benchmark's own statistics helpers.

Runs at the start of every benchmark run (a failure aborts the run before
anything is measured) and standalone::

    python3 fp8bench/selfcheck.py
"""

from __future__ import annotations

from stats import (
    due_latencies,
    least_disturbed,
    median,
    percentile,
    summarize,
    summarize_rounds,
    supports,
)


def _expect_error(call, *args) -> None:
    try:
        call(*args)
    except ValueError:
        return
    raise AssertionError(f"{call.__name__}{args!r} did not raise ValueError")


def check_percentile() -> None:
    values = [float(v) for v in range(1, 101)]
    # linear interpolation between closest ranks, as numpy's default
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 100.0
    assert abs(percentile(values, 50) - 50.5) < 1e-12
    assert abs(percentile(values, 90) - 90.1) < 1e-12
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert percentile([7.0], 90) == 7.0
    _expect_error(percentile, [], 50)
    _expect_error(percentile, [1.0], 101)


def check_sample_count() -> None:
    # p90 needs ten samples beyond it: 100 samples is the smallest that does
    assert supports(100, 90) and not supports(99, 90)
    assert supports(20, 50) and not supports(19, 50)
    sample = summarize([v / 1000.0 for v in range(1, 101)], 90, "ms", 1e3)
    assert sample.samples == 100 and sample.unit == "ms"
    assert abs(sample.value - 90.1) < 1e-9
    # a tail from a handful of points is refused, never reported as p50 == p90
    _expect_error(summarize, [0.001] * 50, 90, "ms")


def check_rounds() -> None:
    # the median of round rates: one slow round out of three moves it by nothing
    assert median([10.0, 5.0, 10.0]) == 10.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5
    # likewise a latency percentile taken per round
    fast = [0.010] * 100
    slow = [0.050] * 100
    sample = summarize_rounds([fast, slow, fast], 50, "ms", 1e3)
    assert abs(sample.value - 10.0) < 1e-9 and sample.samples == 300
    # rounds too small for p90 are merged into the most groups that support it
    sample = summarize_rounds([[0.01] * 60] * 4, 90, "ms", 1e3)
    assert sample.samples == 240 and abs(sample.value - 10.0) < 1e-9
    sample = summarize_rounds([[0.01] * 60, [0.02] * 60, [0.03] * 60, [0.04] * 60], 50, "ms", 1e3)
    assert abs(sample.value - 25.0) < 1e-9
    _expect_error(summarize_rounds, [[0.01] * 40, [0.01] * 40], 90, "ms")


def check_least_disturbed() -> None:
    # every round at or below 2% steal is kept, in round order
    assert least_disturbed([0.0, 0.05, 0.0, 0.1, 0.0, 0.03, 0.01]) == [0, 2, 4, 6]
    assert least_disturbed([0.0] * 7) == list(range(7))
    # no reading counts as undisturbed
    assert least_disturbed([None] * 5) == list(range(5))
    # a mostly disturbed run still reports its four least disturbed rounds
    assert least_disturbed([0.2, 0.1, 0.3, 0.05, 0.04, 0.25, 0.03]) == [1, 3, 4, 6]
    # and more when the kept rounds are too few for the figure
    kept = least_disturbed([0.2, 0.1, 0.3, 0.05, 0.04, 0.25, 0.03], lambda k: len(k) >= 6)
    assert kept == [0, 1, 3, 4, 5, 6]


def check_due_latency() -> None:
    due = [0.0, 0.1, 0.2, 0.3]
    done = [0.05, 0.3, None, 0.35]
    # request 1 was sent late (stalled generator): its wait counts from 0.1
    lat = due_latencies(due, done)
    assert len(lat) == 3
    assert [round(v, 9) for v in lat] == [0.05, 0.2, 0.05]
    _expect_error(due_latencies, [0.0], [])


def run() -> None:
    check_percentile()
    check_sample_count()
    check_rounds()
    check_least_disturbed()
    check_due_latency()


if __name__ == "__main__":
    run()
    print("selfcheck: ok")
