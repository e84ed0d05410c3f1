"""Tests for the extended (sum-of-squares) aggregate extension."""

import random

import pytest

from repro.core.config import ChronicleConfig
from repro.core.devices import DeviceProvider
from repro.core.stream import EventStream
from repro.events import ColumnarEvents, Event, EventSchema
from repro.index import TabTree
from repro.index.node import NodeCodec
from repro.simdisk import SimulatedDisk
from repro.storage import ChronicleLayout

SCHEMA = EventSchema.of("x", "y")


def make_tree(extended):
    layout = ChronicleLayout.create(
        SimulatedDisk(), lblock_size=512, macro_size=2048, compressor="zlib"
    )
    return TabTree(layout, SCHEMA, extended_aggregates=extended,
                   lblock_spare=0.2)


def naive_stdev(values):
    mean = sum(values) / len(values)
    return (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5


def events_for(n, rng):
    return [Event.of(i, rng.uniform(-5, 5), rng.uniform(0, 100))
            for i in range(n)]


def test_extended_entries_are_larger():
    basic = NodeCodec(SCHEMA, 512)
    extended = NodeCodec(SCHEMA, 512, extended_aggregates=True)
    assert extended.entry_size == basic.entry_size + 8 * SCHEMA.arity
    assert extended.index_capacity <= basic.index_capacity


def test_extended_codec_roundtrip():
    from repro.index.entry import IndexEntry
    from repro.index.node import IndexNode

    codec = NodeCodec(SCHEMA, 512, extended_aggregates=True)
    node = IndexNode(
        node_id=1, level=1,
        entries=[IndexEntry(0, 0, 9, 10,
                            [(0.0, 1.0, 5.0, 3.0), (2.0, 4.0, 30.0, 95.0)])],
    )
    out = codec.decode(codec.encode_index(node))
    assert out.entries == node.entries


def test_stdev_from_statistics_matches_scan():
    rng = random.Random(1)
    events = events_for(1500, rng)
    fast = make_tree(extended=True)
    slow = make_tree(extended=False)
    fast.append_run(ColumnarEvents.of(events, SCHEMA.arity))
    slow.append_run(ColumnarEvents.of(events, SCHEMA.arity))
    for lo, hi in [(0, 1499), (100, 800), (37, 38)]:
        selected = [e.values[0] for e in events if lo <= e.t <= hi]
        expected = naive_stdev(selected)
        assert fast.aggregate(lo, hi, "x", "stdev") == pytest.approx(
            expected, rel=1e-6
        )
        assert slow.aggregate(lo, hi, "x", "stdev") == pytest.approx(
            expected, rel=1e-6
        )


def test_stdev_fast_path_avoids_leaf_reads():
    rng = random.Random(2)
    tree = make_tree(extended=True)
    tree.append_run(ColumnarEvents.of(events_for(3000, rng), SCHEMA.arity))
    tree.flush_all()
    disk = tree.layout.device
    before = disk.stats.bytes_read
    tree.aggregate(-1, 10**9, "y", "stdev")
    fast_bytes = disk.stats.bytes_read - before

    scan_tree = make_tree(extended=False)
    scan_tree.append_run(ColumnarEvents.of(events_for(3000, rng), SCHEMA.arity))
    scan_tree.flush_all()
    scan_disk = scan_tree.layout.device
    before = scan_disk.stats.bytes_read
    scan_tree.aggregate(-1, 10**9, "y", "stdev")
    scan_bytes = scan_disk.stats.bytes_read - before
    assert fast_bytes < scan_bytes / 5


def test_extended_aggregates_survive_ooo_inserts():
    rng = random.Random(3)
    tree = make_tree(extended=True)
    events = events_for(800, rng)
    tree.append_run(ColumnarEvents.of(events, SCHEMA.arity))
    late = [Event.of(rng.randrange(0, 800), rng.uniform(-5, 5), 1.0)
            for _ in range(40)]
    for e in late:
        tree.ooo_insert(e.t, e.values)
    values = [e.values[0] for e in events] + [e.values[0] for e in late]
    assert tree.aggregate(-1, 10**9, "x", "stdev") == pytest.approx(
        naive_stdev(values), rel=1e-6
    )


def test_stream_level_extended_stdev():
    config = ChronicleConfig(
        lblock_size=512, macro_size=2048,
        extended_aggregates=True, time_split_interval=300,
    )
    stream = EventStream("s", SCHEMA, config, DeviceProvider())
    rng = random.Random(4)
    events = events_for(1000, rng)
    stream.append_many(events)
    values = [e.values[1] for e in events if 100 <= e.t <= 900]
    assert stream.aggregate(100, 900, "y", "stdev") == pytest.approx(
        naive_stdev(values), rel=1e-6
    )


def test_extended_tree_recovers():
    disk = SimulatedDisk()
    layout = ChronicleLayout.create(
        disk, lblock_size=512, macro_size=2048, compressor="zlib"
    )
    tree = TabTree(layout, SCHEMA, extended_aggregates=True)
    rng = random.Random(5)
    events = events_for(900, rng)
    tree.append_run(ColumnarEvents.of(events, SCHEMA.arity))
    tree.flush_all()
    flushed = tree.event_count - tree.leaf.count
    recovered = TabTree.recover(
        ChronicleLayout.open(disk), SCHEMA, extended_aggregates=True
    )
    selected = [e.values[0] for e in events[:flushed]]
    assert recovered.aggregate(-1, 10**9, "x", "stdev") == pytest.approx(
        naive_stdev(selected), rel=1e-6
    )
