"""Partial-indexing lifecycle (paper, Section 5.5 and Figure 6).

Overload stops secondary indexing and opens an irregular split;
re-activation only happens at the next *regular* split boundary; skipped
ranges can be re-indexed later when resources allow.
"""

from repro.core.config import ChronicleConfig
from repro.core.devices import DeviceProvider
from repro.core.scheduler import Pressure
from repro.core.stream import EventStream
from repro.events import Event, EventSchema

SCHEMA = EventSchema.of("x", "y")


def make_stream():
    config = ChronicleConfig(
        lblock_size=512, macro_size=2048,
        secondary_indexes={"y": "lsm"},
        time_split_interval=1000,
        memtable_capacity=64,
    )
    return EventStream("s", SCHEMA, config, DeviceProvider())


def fill(stream, start, n):
    for i in range(n):
        stream.append(Event.of(start + i, float(i), float(i % 5)))


def test_overload_splits_irregularly_and_reactivates_at_regular_boundary():
    stream = make_stream()
    fill(stream, 0, 400)
    assert stream.splits[-1].secondary_attributes == ["y"]

    # Overload mid-interval: irregular split, no secondaries.
    stream.scheduler.report_queue_depth(10**6)
    assert stream.scheduler.pressure is Pressure.OVERLOAD
    irregular = stream.splits[-1]
    assert irregular.kind == "irregular"
    assert irregular.secondary_attributes == []

    # Load drops back to NORMAL *within* the same interval: the irregular
    # split keeps running without secondaries (paper: "Re-activation only
    # takes place at regular splits").
    stream.scheduler.report_queue_depth(0)
    assert stream.scheduler.pressure is Pressure.NORMAL
    fill(stream, 400, 400)
    assert stream.splits[-1] is irregular
    assert irregular.secondary_attributes == []

    # Crossing the next regular boundary re-activates secondary indexing.
    fill(stream, 1000, 200)
    fresh = stream.splits[-1]
    assert fresh is not irregular
    assert fresh.kind == "regular"
    assert fresh.secondary_attributes == ["y"]

    # All data remains queryable across the three splits.
    assert len(list(stream.scan())) == 1000
    hits = stream.search("y", 3.0)
    expected = [e for e in stream.scan() if e.values[1] == 3.0]
    assert sorted(hits, key=lambda e: e.t) == expected


def test_rebuild_backfills_the_irregular_gap():
    stream = make_stream()
    fill(stream, 0, 300)
    stream.scheduler.report_queue_depth(10**6)
    stream.scheduler.report_queue_depth(0)
    fill(stream, 300, 400)
    irregular = next(s for s in stream.splits if s.kind == "irregular")
    assert "y" not in irregular.secondaries
    stream.rebuild_secondary("y", irregular.index)
    assert "y" in irregular.secondaries
    hits = stream.search("y", 1.0)
    expected = [e for e in stream.scan() if e.values[1] == 1.0]
    assert sorted(hits, key=lambda e: e.t) == expected


def test_elevated_pressure_drops_high_tc_attributes_only():
    config = ChronicleConfig(
        lblock_size=512, macro_size=2048,
        secondary_indexes={"x": "lsm", "y": "lsm"},
        time_split_interval=1000,
        memtable_capacity=64,
    )
    stream = EventStream("s", SCHEMA, config, DeviceProvider())
    # x is a smooth ramp (high tc); y cycles 0..4 (lower tc).
    fill(stream, 0, 1100)  # first split sealed with tc scores
    active = stream.splits[-1]
    assert set(active.secondary_attributes) == {"x", "y"}
    stream.scheduler.report_queue_depth(stream.scheduler.high_watermark + 1)
    assert stream.scheduler.pressure is Pressure.ELEVATED
    # x (tc ~ 0.999) loses its index; y (tc ~ 0.5) keeps it.
    assert active.secondary_attributes == ["y"]
