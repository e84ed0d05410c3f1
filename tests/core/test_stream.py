"""Tests for EventStream: splits, routing, queries, retention, faults."""

import random

import pytest

from repro.core.config import ChronicleConfig
from repro.core.devices import DeviceProvider, RetryPolicy
from repro.core.scheduler import Pressure
from repro.core.stream import EventStream
from repro.errors import DiskCrashed, QueryError, TransientDiskError
from repro.events import Event, EventSchema
from repro.index import AttributeRange
from repro.simdisk import FaultPlan

SCHEMA = EventSchema.of("x", "y")


def make_stream(**overrides):
    defaults = dict(
        lblock_size=512,
        macro_size=2048,
        queue_capacity=16,
        memtable_capacity=64,
    )
    defaults.update(overrides)
    config = ChronicleConfig(**defaults)
    devices = DeviceProvider()
    return EventStream("s", SCHEMA, config, devices)


def events_for(n, start=0, step=1):
    return [Event.of(start + i * step, float(i), float(i % 5)) for i in range(n)]


def test_single_split_roundtrip():
    stream = make_stream()
    events = events_for(500)
    stream.append_many(events)
    assert list(stream.scan()) == events
    assert len(stream.splits) == 1


def test_regular_splits_roll_at_boundaries():
    stream = make_stream(time_split_interval=1000)
    stream.append_many(events_for(3000))
    assert len(stream.splits) == 3
    assert [s.t_start for s in stream.splits] == [0, 1000, 2000]
    assert stream.splits[0].sealed and stream.splits[1].sealed
    assert not stream.splits[2].sealed


def test_split_alignment_to_interval():
    stream = make_stream(time_split_interval=100)
    stream.append(Event.of(250, 1.0, 1.0))
    assert stream.splits[0].t_start == 200
    assert stream.splits[0].t_end == 300


def test_time_travel_across_splits():
    stream = make_stream(time_split_interval=500)
    events = events_for(2000)
    stream.append_many(events)
    result = list(stream.time_travel(400, 1200))
    assert result == [e for e in events if 400 <= e.t <= 1200]


def test_late_event_routed_to_earlier_split():
    stream = make_stream(time_split_interval=500, lblock_spare=0.3)
    stream.append_many(events_for(1600))
    late = Event.of(123, 777.0, 0.0)
    stream.append(late)
    result = list(stream.time_travel(123, 123))
    assert late in result
    # It landed in the first split's structures (queue or tree).
    first = stream.splits[0]
    assert first.manager.queued_inserts >= 1


def test_aggregate_across_splits_matches_naive():
    stream = make_stream(time_split_interval=300)
    events = events_for(1200)
    stream.append_many(events)
    lo, hi = 150, 1000
    values = [e.values[0] for e in events if lo <= e.t <= hi]
    assert stream.aggregate(lo, hi, "x", "sum") == pytest.approx(sum(values))
    assert stream.aggregate(lo, hi, "x", "count") == len(values)
    assert stream.aggregate(lo, hi, "x", "min") == min(values)
    assert stream.aggregate(lo, hi, "x", "max") == max(values)


def test_whole_split_aggregate_uses_summary():
    stream = make_stream(time_split_interval=200)
    events = events_for(1000)
    stream.append_many(events)
    # Splits 0..3 are sealed; aggregate fully covering split 1.
    total = stream.aggregate(200, 399, "x", "sum")
    expected = sum(e.values[0] for e in events if 200 <= e.t <= 399)
    assert total == pytest.approx(expected)
    assert stream.splits[1].summary is not None


def test_aggregate_stdev_scan_path():
    stream = make_stream(time_split_interval=400)
    events = events_for(900)
    stream.append_many(events)
    values = [e.values[1] for e in events]
    mean = sum(values) / len(values)
    expected = (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5
    assert stream.aggregate(0, 10**9, "y", "stdev") == pytest.approx(expected)


def test_aggregate_empty_raises():
    stream = make_stream()
    stream.append_many(events_for(10))
    with pytest.raises(QueryError):
        stream.aggregate(10**6, 10**7, "x", "avg")


def test_filter_across_splits():
    stream = make_stream(time_split_interval=250)
    events = events_for(1000)
    stream.append_many(events)
    result = list(stream.time_travel(0, 10**9, [AttributeRange("y", 2.0, 3.0)]))
    assert result == [e for e in events if 2.0 <= e.values[1] <= 3.0]


def test_search_with_secondary_index():
    stream = make_stream(secondary_indexes={"y": "lsm"})
    events = events_for(800)
    stream.append_many(events)
    hits = stream.search("y", 3.0)
    expected = [e for e in events if e.values[1] == 3.0]
    assert sorted(hits, key=lambda e: e.t) == expected


def test_search_without_secondary_falls_back_to_lightweight():
    stream = make_stream()
    events = events_for(600)
    stream.append_many(events)
    hits = stream.search("x", 100.0, 120.0)
    assert sorted(e.values[0] for e in hits) == [float(v) for v in range(100, 121)]


def test_search_with_cola_secondary():
    stream = make_stream(secondary_indexes={"y": "cola"})
    events = events_for(700)
    stream.append_many(events)
    hits = stream.search("y", 1.0)
    assert sorted(hits, key=lambda e: e.t) == [
        e for e in events if e.values[1] == 1.0
    ]


def test_delete_before_drops_splits_and_keeps_summaries():
    stream = make_stream(time_split_interval=200)
    events = events_for(1000)
    stream.append_many(events)
    removed = stream.delete_before(400)
    assert removed == 2
    assert all(s.t_start >= 400 for s in stream.splits)
    assert len(stream.retired_summaries) == 2
    assert stream.retired_summaries[0]["count"] == 200
    # Recent data still queryable; ancient data gone.
    assert list(stream.time_travel(0, 399)) == []
    assert len(list(stream.time_travel(400, 999))) == 600


def test_overload_creates_irregular_split():
    stream = make_stream(secondary_indexes={"y": "lsm"}, time_split_interval=10_000)
    stream.append_many(events_for(300))
    assert stream.splits[-1].secondary_attributes == ["y"]
    stream.scheduler.report_queue_depth(10**6)  # overload
    assert stream.scheduler.pressure is Pressure.OVERLOAD
    assert len(stream.splits) == 2
    assert stream.splits[-1].kind == "irregular"
    assert stream.splits[-1].secondary_attributes == []
    stream.append_many(events_for(300, start=400))
    # Data remains queryable across the irregular boundary.
    assert len(list(stream.scan())) == 600


def test_rebuild_secondary_after_overload():
    stream = make_stream(secondary_indexes={"y": "lsm"}, time_split_interval=10_000)
    stream.append_many(events_for(300))
    stream.scheduler.report_queue_depth(10**6)
    stream.append_many(events_for(300, start=400))
    irregular = stream.splits[-1]
    assert "y" not in irregular.secondaries
    stream.rebuild_secondary("y", irregular.index)
    hits = stream.search("y", 2.0)
    expected = sorted(
        e for e in stream.scan() if e.values[1] == 2.0
    )
    assert sorted(hits, key=lambda e: e.t) == sorted(expected, key=lambda e: e.t)


def test_tc_scores_recorded_at_seal():
    stream = make_stream(time_split_interval=100)
    stream.append_many(events_for(250))
    sealed = stream.splits[0]
    assert sealed.tc_scores
    assert 0.0 <= sealed.tc_scores["y"] <= 1.0
    # x is a smooth ramp: tc = 1 - 1/(n-1) for n values, near-perfect.
    assert sealed.tc_scores["x"] > 0.98


def test_event_validation():
    stream = make_stream(validate_events=True)
    from repro.errors import SchemaError

    with pytest.raises(SchemaError):
        stream.append(Event.of(1, 1.0))  # wrong arity


@pytest.mark.parametrize("values", [(1.0,), (1.0, 2.0, 3.0)], ids=["under", "over"])
def test_wrong_arity_is_refused_before_any_side_effect(values):
    """Without ``validate_events`` too: an event with too many values is
    never silently truncated, one with too few never half-ingested."""
    from repro.errors import SchemaError

    stream = make_stream()
    stream.append_batch(events_for(10))
    bad = Event(10, values)
    with pytest.raises(SchemaError, match="attribute values"):
        stream.append(bad)
    with pytest.raises(SchemaError, match="attribute values"):
        stream.append_batch(events_for(5, start=10) + [bad])
    assert stream.appended == 10

    good = events_for(20, start=10)
    stream.append_batch(good)
    assert list(stream.scan()) == events_for(10) + good
    # No statistic saw the refused batch: the sealed tc and the tree's
    # summary are those of a stream that never received it.
    clean = make_stream()
    clean.append_batch(events_for(10) + good)
    (split,), (reference,) = stream.splits, clean.splits
    split.seal()
    reference.seal()
    assert repr(split.tc_scores) == repr(reference.tc_scores)
    assert split.tree.summary() == reference.tree.summary()


def test_stream_stats_invariant_with_out_of_order_events():
    stream = EventStream(
        "s", SCHEMA, ChronicleConfig(lblock_size=512, macro_size=2048),
        DeviceProvider(),
    )
    rng = random.Random(7)
    timestamps = list(range(2000))
    # Displace a tenth of the events so some sit in the OOO queue.
    for i in range(0, len(timestamps) - 20, 10):
        j = i + rng.randrange(1, 20)
        timestamps[i], timestamps[j] = timestamps[j], timestamps[i]
    for t in timestamps:
        stream.append(Event.of(t, float(t), 0.0))
    stats = stream.stats()
    assert stats["appended"] == 2000
    assert stats["events_indexed"] + stats["ooo_pending"] == 2000
    stream.flush()
    stats = stream.stats()
    assert stats["ooo_pending"] == 0
    assert stats["events_indexed"] == 2000


# Device faults under one-event-at-a-time appends: transient errors are
# absorbed below the stream by the retrying device layer; an exhausted
# retry budget or a power failure surfaces in the caller.

FAULT_CONFIG = ChronicleConfig(
    lblock_size=256, macro_size=512, lblock_spare=0.2, queue_capacity=8
)


def _faulty_stream(plan, retry=None):
    devices = DeviceProvider(fault_plan=plan, retry=retry)
    return EventStream("s", SCHEMA, FAULT_CONFIG, devices)


def _fault_events(n):
    return [Event.of(i * 5, float(i), float(i % 3)) for i in range(n)]


def test_transient_faults_are_invisible_to_ingestion():
    plan = FaultPlan(transient_writes={3: 2, 17: 1, 40: 3})
    stream = _faulty_stream(plan)
    events = _fault_events(300)
    for event in events:
        stream.append(event)
    assert plan.transient_faults == 6
    assert stream.appended == 300
    assert list(stream.scan()) == events


def test_exhausted_retry_budget_raises_in_the_caller():
    plan = FaultPlan(transient_writes={0: 50})
    stream = _faulty_stream(plan, retry=RetryPolicy(max_attempts=2))
    with pytest.raises(TransientDiskError):
        for event in _fault_events(300):
            stream.append(event)


def test_crash_raises_in_the_caller():
    plan = FaultPlan(crash_at_write=4)
    stream = _faulty_stream(plan)
    with pytest.raises(DiskCrashed):
        for event in _fault_events(300):
            stream.append(event)
