"""Tests of the benchmark's own statistics, tracing and load-generator
helpers.  Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import math

import pytest

from perfbench.layers import COMMIT_OP, timing_metrics
from perfbench.loadgen import (
    REFERENCE_MS,
    HostProbe,
    closed_loop,
    open_loop,
    verdict_ok,
    violated_assertions,
)
from perfbench.stats import self_time, summarize, tail_percentile
from perfbench.tracing import Span, SpanRecorder, layer_times, op_trees


class FakeClock:
    def __init__(self, now: float = 100.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# -- tail percentile ---------------------------------------------------------


@pytest.mark.parametrize(
    "n, expected",
    [(1000, 99), (5000, 99), (999, 98), (500, 98), (150, 93), (11, 9), (10, None), (3, None)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_summarize_reports_the_value_with_ten_beyond():
    values = [float(v) for v in range(1, 501)]
    summary = summarize(values[::-1])
    assert summary["tail_q"] == 98
    assert summary["p99"] == 490.0
    assert sum(v > summary["p99"] for v in values) == 10
    assert summary["p50"] == 250.0
    assert summary["count"] == 500


def test_summarize_falls_back_to_the_maximum_for_tiny_samples():
    summary = summarize([3.0, 1.0, 2.0])
    assert summary["tail_q"] is None
    assert summary["p99"] == 3.0


def test_summarize_median_is_nearest_rank():
    assert summarize([5.0, 1.0, 3.0, 2.0, 4.0])["p50"] == 3.0
    assert summarize([1.0, 2.0])["p50"] == 1.0


# -- self time ---------------------------------------------------------------


def test_self_time_subtracts_the_union_of_overlapping_children():
    # children [1,4] and [3,6] overlap; [8,12] runs past the parent
    assert self_time(0.0, 10.0, [(1.0, 4.0), (3.0, 6.0), (8.0, 12.0)]) == pytest.approx(3.0)


def test_self_time_of_a_leaf_is_its_duration():
    assert self_time(2.0, 5.0, []) == pytest.approx(3.0)


def test_layer_times_sum_to_the_operation_duration():
    clock = FakeClock()
    recorder = SpanRecorder(clock)

    def leaf(seconds):
        clock.sleep(seconds)

    def middle():
        clock.sleep(0.5)
        recorder.call("inner", leaf, (1.0,))
        clock.sleep(0.25)

    with recorder.span(COMMIT_OP, key=7):
        recorder.call("outer", middle)
        clock.sleep(0.125)
    (op,) = op_trees(recorder.spans, {COMMIT_OP})
    selfs, totals, calls = layer_times(op)
    assert selfs == pytest.approx({COMMIT_OP: 0.125, "outer": 0.75, "inner": 1.0})
    assert totals["outer"] == pytest.approx(1.75)
    assert sum(selfs.values()) == pytest.approx(op.end - op.start)
    assert calls == {COMMIT_OP: 1, "outer": 1, "inner": 1}


def test_blocking_path_leaves_out_the_operation_root():
    """The coverage sum holds the wrapped layers only; the root's own
    time (lateness, glue) is reported apart, so coverage is not 1 by
    construction."""
    clock = FakeClock(0.0)
    recorder = SpanRecorder(clock)
    with recorder.span(COMMIT_OP, key=1):
        clock.sleep(0.002)
        recorder.call("core.check", clock.sleep, (0.006,))
    _, path_ms, unattributed_ms = timing_metrics(recorder)
    assert path_ms == pytest.approx(6.0)
    assert unattributed_ms == pytest.approx(2.0)


def test_blocking_path_describes_the_median_commit():
    clock = FakeClock(0.0)
    recorder = SpanRecorder(clock)
    for key, check_s in enumerate((0.050, 0.001, 0.004)):
        with recorder.span(COMMIT_OP, key=key):
            recorder.call("core.check", clock.sleep, (check_s,))
            clock.sleep(0.001)
    _, path_ms, unattributed_ms = timing_metrics(recorder)
    assert path_ms == pytest.approx(4.0)
    assert unattributed_ms == pytest.approx(1.0)


def test_server_side_roots_join_the_operation_with_their_key():
    """Work done on another thread nests under the client span of the
    operation whose key it carries and whose interval contains it."""
    client_op = Span(COMMIT_OP, 0.0, None, 42, thread=1)
    client_op.end = 10.0
    round_trip = Span("net.client_commit", 1.0, client_op, None, thread=1)
    round_trip.end = 9.0
    server = Span("server.commit", 2.0, None, 42, thread=2)
    server.end = 6.0
    check = Span("core.check", 3.0, server, None, thread=2)
    check.end = 5.0
    stranger = Span("server.commit", 2.0, None, 43, thread=3)
    stranger.end = 3.0
    (op,) = op_trees([check, server, stranger, round_trip, client_op], {COMMIT_OP})
    assert round_trip.children == [server]
    selfs, _, _ = layer_times(op)
    assert selfs["net.client_commit"] == pytest.approx(4.0)
    assert selfs["server.commit"] == pytest.approx(2.0)
    assert selfs["core.check"] == pytest.approx(2.0)
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_wrap_records_spans_and_restore_puts_the_original_back():
    class Target:
        def work(self, n):
            return n * 2

    original = Target.work
    recorder = SpanRecorder()
    recorder.wrap(Target, "work", "target.work", key=lambda a, k, r: r)
    assert Target().work(21) == 42
    recorder.restore()
    assert Target.work is original
    (span,) = recorder.spans
    assert (span.name, span.key, span.parent) == ("target.work", 42, None)


# -- load generators ---------------------------------------------------------


def test_open_loop_latency_counts_from_the_due_time():
    """A stalled operation delays the next one; the delay is charged
    to the next one's latency and reported as lateness."""
    clock = FakeClock()
    durations = [1.0, 0.01, 0.01]

    def run_op(client, index, op, due):
        clock.sleep(durations[index])
        return True, True

    result = open_loop([0, 1, 2], run_op, rate=10.0, clients=1, clock=clock, sleep=clock.sleep)
    first, second, third = result.records
    t0 = first.due
    assert second.due == pytest.approx(t0 + 0.1)
    assert second.late == pytest.approx(0.9)
    assert second.latency == pytest.approx(0.91)
    assert third.latency == pytest.approx(0.82)
    assert result.elapsed == pytest.approx(1.02)


def test_open_loop_records_errors_as_failed_operations():
    def run_op(client, index, op, due):
        if index == 1:
            raise RuntimeError("boom")
        return index != 2, index != 3

    result = open_loop(list(range(4)), run_op, rate=1000.0, clients=2)
    assert [r.ok for r in result.records] == [True, False, False, True]
    assert [r.committed for r in result.records] == [True, None, True, False]
    assert result.records[1].error == "RuntimeError: boom"
    assert result.records[2].error is None


def test_closed_loop_stops_when_the_window_ends():
    clock = FakeClock()

    def run_op(client, index, op, due):
        clock.sleep(0.3)
        return True, True

    result = closed_loop(range(100), run_op, seconds=1.0, clock=clock)
    assert len(result.records) == 4
    assert all(r.latency == pytest.approx(0.3) for r in result.records)
    assert all(r.late == 0.0 for r in result.records)


def test_closed_loop_stops_after_count_and_probes_outside_the_timing():
    clock = FakeClock(0.0)
    probes = []

    def run_op(client, index, op, due):
        clock.sleep(0.3)
        return True, True

    def after_op():
        probes.append(clock())
        clock.sleep(0.1)

    result = closed_loop(
        range(100), run_op, seconds=math.inf, first=5, clock=clock,
        after_op=after_op, count=3,
    )
    assert [r.index for r in result.records] == [5, 6, 7]
    assert all(r.latency == pytest.approx(0.3) for r in result.records)
    assert probes == [pytest.approx(t) for t in (0.3, 0.7, 1.1)]


def test_host_probe_scales_to_the_reference_speed():
    ticks = iter([0.0, 0.0005, 1.0, 1.001, 2.0, 2.0005])
    probe = HostProbe(clock=lambda: next(ticks))
    for _ in range(3):
        probe()
    # median sample 0.5 ms: a host twice as slow as the reference
    assert probe.samples == [pytest.approx(t) for t in (0.0005, 0.001, 0.0005)]
    assert probe.scale() == pytest.approx(REFERENCE_MS / 0.5)


# -- verdicts ----------------------------------------------------------------


def test_violated_assertions_reads_objects_and_wire_strings():
    class Violation:
        assertion = "qtyBound0"

    wire = ["assertion 'entryHasBucket' violated (entryHasBucket1): 1 witness tuple(s)"]
    assert violated_assertions([Violation()]) == {"qtyBound0"}
    assert violated_assertions(wire) == {"entryHasBucket"}


def test_a_planted_rejection_counts_only_for_the_planted_reason():
    wire = ["assertion 'atLeastOneItem' violated (atLeastOneItem1): 1 witness tuple(s)"]
    assert verdict_ok(False, False, wire, None, "atLeastOneItem")
    # rejected, but for another assertion, a prepare failure or a shed
    assert not verdict_ok(False, False, wire, None, "qtyBound0")
    assert not verdict_ok(False, False, [], "shard 1 failed during prepare", "atLeastOneItem")
    assert not verdict_ok(False, False, [], None, "atLeastOneItem")
    # an accepted update must commit; a planted one must not
    assert verdict_ok(True, True, [], None, None)
    assert not verdict_ok(False, True, wire, None, None)
    assert not verdict_ok(True, False, [], None, "atLeastOneItem")
