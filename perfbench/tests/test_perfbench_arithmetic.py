"""Self-tests for the benchmark's own arithmetic (no program code runs).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from layers import summarize  # noqa: E402
from loadstats import (  # noqa: E402
    Outcomes,
    highest_supported_percentile,
    latencies_from_due,
    lateness,
    nearest_rank,
    samples_beyond,
    schedule,
)
from spans import Recorder, Span, outermost, self_times, union_length  # noqa: E402


# ----------------------------------------------------------------------
# self time
# ----------------------------------------------------------------------
def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([(0, 2), (1, 3), (5, 6), (4, 4)]) == pytest.approx(4.0)
    assert union_length([]) == 0.0


def test_self_time_subtracts_same_thread_children_only_once():
    spans = [
        Span("outer", 1, 0.0, 10.0),
        Span("child", 1, 1.0, 4.0),
        Span("grandchild", 1, 2.0, 3.0),
        Span("child", 1, 5.0, 6.0),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0])


def test_wait_span_subtracts_children_on_other_threads():
    spans = [
        Span("stream.drain_wait", 1, 0.0, 10.0),
        Span("tail", 1, 6.5, 7.0),                 # same-thread child
        Span("stream.ingest", 2, 1.0, 4.0),        # shard thread 2
        Span("mechanisms.privatize", 2, 2.0, 3.0),  # nested, not a root
        Span("stream.ingest", 3, 3.0, 6.0),        # overlaps thread 2's work
        Span("stream.ingest", 4, 8.0, 12.0),       # runs past the wait
        Span("stream.ingest", 5, 11.0, 13.0),      # after the wait: ignored
    ]
    own = self_times(spans, wait_names=["stream.drain_wait"])
    # covered: [1, 6] from threads 2 and 3, [6.5, 7], [8, 10]
    assert own[0] == pytest.approx(10.0 - (5.0 + 0.5 + 2.0))
    assert own[2] == pytest.approx(2.0)


def test_ordinary_span_does_not_adopt_other_threads():
    spans = [Span("core.calibrate", 1, 0.0, 10.0), Span("stream.ingest", 2, 1.0, 4.0)]
    assert self_times(spans, wait_names=["stream.drain_wait"])[0] == pytest.approx(10.0)


def test_wait_span_ignores_asynchronous_spans():
    spans = [Span("stream.drain_wait", 1, 0.0, 10.0), Span("serve.query", 0, 0.0, 10.0)]
    assert self_times(spans, wait_names=["stream.drain_wait"])[0] == pytest.approx(10.0)


def test_outermost_skips_recursive_calls():
    spans = [
        Span("mechanisms.privatize", 1, 0.0, 5.0),
        Span("mechanisms.privatize", 1, 1.0, 4.0),
        Span("mechanisms.privatize", 1, 6.0, 7.0),
    ]
    assert outermost(spans, ["mechanisms.privatize"]) == [0, 2]


def test_recorder_wrap_records_nested_calls_and_info():
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))
    inner = recorder.wrap(lambda x: x * 2, "inner", lambda a, k, r: r)
    outer = recorder.wrap(lambda x: inner(x) + 1, "outer")
    assert outer(3) == 7
    names = [(span.name, span.start, span.end, span.info) for span in recorder.spans]
    assert names == [("inner", 1.0, 2.0, 6), ("outer", 0.0, 3.0, None)]


def test_summarize_attributes_busy_wall_and_query_waits():
    loop = 1
    spans = [
        Span("loop.idle", loop, 0.0, 2.0),
        Span("serve.decode", loop, 2.0, 5.0, [4, 400]),
        Span("serve.flush", loop, 5.0, 6.0),
        Span("stream.ingest", 7, 5.5, 8.0, [11, 100]),
        Span("stream.ingest", 8, 5.5, 7.0, [12, 100]),
        Span("stream.drain_wait", 9, 8.0, 9.0),
        Span("serve.query", 0, 7.5, 9.5),
    ]
    metrics = summarize(spans, 0.0, 10.0, loop, shards=2)["metrics"]
    # loop busy = 10 - 2 idle = 8; spans cover [2, 6] -> 4 unattributed
    assert metrics["trace.unattributed_frac"] == pytest.approx(0.5)
    assert metrics["serve.frames"] == 4 and metrics["serve.bytes_in"] == 400
    assert metrics["stream.ingest_s"] == pytest.approx(4.0)
    assert metrics["stream.shard_busy_frac"] == pytest.approx(4.0 / 20.0)
    assert metrics["stream.shard_imbalance"] == pytest.approx(1.0)
    assert metrics["serve.query_wait_frac"] == pytest.approx(1.0 / 2.0)


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def test_nearest_rank():
    samples = list(range(1, 101))
    assert nearest_rank(samples, 50) == 50
    assert nearest_rank(samples, 90) == 90
    assert nearest_rank([5.0], 90) == 5.0


@pytest.mark.parametrize(
    "n, expected",
    [(5, None), (20, 50.0), (99, 75.0), (100, 90.0), (134, 90.0),
     (1000, 99.0), (10_000, 99.9)],
)
def test_highest_percentile_with_ten_samples_beyond(n, expected):
    assert highest_supported_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


# ----------------------------------------------------------------------
# open-loop schedule
# ----------------------------------------------------------------------
def test_schedule_covers_the_run_at_fixed_interval():
    assert schedule(10.0, 0.5, 2.0) == [10.0, 10.5, 11.0, 11.5]
    assert len(schedule(0.0, 0.15, 20.0)) == 134


def test_latency_counts_a_stall_against_every_request_it_delayed():
    due = [0.0, 1.0, 2.0, 3.0]
    sent = [0.0, 1.0, 2.6, 3.0]    # the second request stalled until 2.5
    done = [0.1, 2.5, 2.7, 3.1]
    assert latencies_from_due(due, done) == pytest.approx([0.1, 1.5, 0.7, 0.1])
    assert lateness(due, sent) == pytest.approx([0.0, 0.0, 0.6, 0.0])


def test_lateness_is_never_negative():
    assert lateness([1.0], [0.9]) == [0.0]


# ----------------------------------------------------------------------
# failure counting
# ----------------------------------------------------------------------
def test_failure_counting():
    outcomes = Outcomes()
    assert outcomes.failed_frac == 1.0        # nothing attempted is no pass
    assert outcomes.check(True, "estimate")
    assert not outcomes.check(False, "lost reports")
    outcomes.attempt(2)
    outcomes.fail("query timeout")
    outcomes.fail("lost reports", 2)
    assert outcomes.attempted == 4
    assert outcomes.failed == 4
    assert outcomes.failures == {"lost reports": 3, "query timeout": 1}
    assert outcomes.failed_frac == pytest.approx(1.0)
