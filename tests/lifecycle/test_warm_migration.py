"""Warm-tier migration: exactness, compression, guards, tier-log records."""

import pytest

from repro.core.config import ChronicleConfig
from repro.core.devices import DeviceProvider
from repro.core.stream import EventStream
from repro.errors import StorageError
from repro.events import Event, EventSchema
from repro.index import AttributeRange
from repro.lifecycle import LifecyclePolicy, TierLog, migrate_split_to_warm

SCHEMA = EventSchema.of("x", "y")
CONFIG = ChronicleConfig(
    lblock_size=256,
    macro_size=512,
    lblock_spare=0.2,
    time_split_interval=100,
    lifecycle=LifecyclePolicy(hot_to_warm_after=150, warm_macro_factor=4),
)
POLICY = CONFIG.lifecycle
_HUGE = 2**62


def _stream_with_sealed_split(n=260):
    devices = DeviceProvider()
    stream = EventStream("s", SCHEMA, CONFIG, devices)
    for i in range(n):
        stream.append(Event.of(i, float(i), float(i % 7)))
    return stream, TierLog(devices.tier_log_device("s"))


def _migrate_first(stream, log):
    split = stream.splits[0]
    warm = migrate_split_to_warm(stream, split, log, POLICY)
    stream.splits.remove(split)
    stream.tiers.warm[split.index] = warm
    return warm


def test_warm_split_serves_identical_raw_events():
    stream, log = _stream_with_sealed_split()
    before = [(e.t, e.values) for e in stream.scan()]
    warm = _migrate_first(stream, log)
    assert warm.t_start == 0 and warm.t_end == 100
    assert [(e.t, e.values) for e in stream.scan()] == before
    # The warm range alone, straight off the re-compressed tree.
    assert [e.t for e in stream.time_travel(0, 99)] == list(range(100))


def test_warm_split_uses_heavier_codec_and_larger_blocks():
    stream, log = _stream_with_sealed_split()
    hot_bytes = stream.devices.data_device("s", 0).size
    warm = _migrate_first(stream, log)
    assert warm.layout.codec.name == POLICY.warm_codec
    assert warm.layout.macro_size == CONFIG.macro_size * POLICY.warm_macro_factor
    # Delta + max-level zlib on larger blocks beats the ingest layout on
    # this (highly regular) data.
    assert warm.size_bytes() < hot_bytes


def test_warm_migration_drops_hot_devices_and_logs_done():
    stream, log = _stream_with_sealed_split()
    _migrate_first(stream, log)
    assert not stream.devices.exists("s", 0)
    ops = [record["op"] for record in log.replay()]
    assert ops == ["warm_begin", "warm_commit", "warm_done"]


def test_aggregates_and_filters_cover_the_warm_tier():
    stream, log = _stream_with_sealed_split()
    want_sum = stream.aggregate(0, 259, "x", "sum")
    want_hits = sorted(e.t for e in stream.time_travel(
        0, 259, [AttributeRange("y", 2.0, 2.0)]
    ))
    _migrate_first(stream, log)
    assert stream.aggregate(0, 259, "x", "sum") == want_sum
    got_hits = sorted(e.t for e in stream.time_travel(
        0, 259, [AttributeRange("y", 2.0, 2.0)]
    ))
    assert got_hits == want_hits
    assert sorted(e.t for e in stream.search("y", 2.0)) == want_hits


def test_appends_into_warm_ranges_are_rejected():
    stream, log = _stream_with_sealed_split()
    _migrate_first(stream, log)
    with pytest.raises(StorageError):
        stream.append(Event.of(50, 0.0, 0.0))
    # The hot side of the frontier still ingests.
    stream.append(Event.of(300, 1.0, 1.0))


def test_migration_guards():
    stream, log = _stream_with_sealed_split()
    active = stream.splits[-1]
    assert not active.sealed
    with pytest.raises(StorageError):
        migrate_split_to_warm(stream, active, log, POLICY)


def test_warm_split_survives_reopen_from_device():
    from repro.lifecycle.tiers import WarmSplit

    stream, log = _stream_with_sealed_split()
    warm = _migrate_first(stream, log)
    reopened = WarmSplit("s", 0, SCHEMA, CONFIG, stream.devices)
    assert reopened.t_start == warm.t_start
    assert reopened.t_end == warm.t_end
    assert [
        (e.t, e.values) for e in reopened.tree.time_travel(-_HUGE, _HUGE)
    ] == [(e.t, e.values) for e in warm.tree.time_travel(-_HUGE, _HUGE)]


def test_warm_split_without_bounds_sorts_by_its_oldest_event():
    """A warm split whose source split was restored without bounds has no
    ``t_start``; time-ordered reads still sort it (by the tree's oldest
    event: a warm split queues nothing)."""
    stream, log = _stream_with_sealed_split()
    before = [(e.t, e.values) for e in stream.scan()]
    warm = _migrate_first(stream, log)
    warm.t_start = None
    assert warm.manager.queue.min_t is None
    assert EventStream._split_start_key(warm) == warm.tree.min_t == 0
    assert [(e.t, e.values) for e in stream.time_travel(-_HUGE, _HUGE)] == before
