"""TAB+-tree crash recovery (paper, Section 6.2)."""

import random

import pytest

from repro.events import ColumnarEvents, Event, EventSchema
from repro.index import TabTree
from repro.simdisk import SimulatedDisk
from repro.storage import ChronicleLayout

SCHEMA = EventSchema.of("x", "y")
LBLOCK = 512
MACRO = 2048


def build_tree(disk, events, spare=0.1, flush_layout=True):
    layout = ChronicleLayout.create(
        disk, lblock_size=LBLOCK, macro_size=MACRO, compressor="zlib"
    )
    tree = TabTree(layout, SCHEMA, lblock_spare=spare)
    tree.append_run(ColumnarEvents.of(events, SCHEMA.arity))
    if flush_layout:
        tree.flush_all()
    return tree


def recover(disk):
    layout = ChronicleLayout.open(disk)  # no commit record -> TLB recovery
    return TabTree.recover(layout, SCHEMA)


def events_for(n, start=0, step=2):
    return [Event.of(start + i * step, float(i), float(i % 13)) for i in range(n)]


@pytest.mark.parametrize("n", [0, 5, 50, 500, 2500])
def test_recover_preserves_flushed_events(n):
    disk = SimulatedDisk()
    tree = build_tree(disk, events_for(n))
    flushed_count = tree.event_count - tree.leaf.count
    recovered = recover(disk)
    assert recovered.event_count == flushed_count
    scanned = list(recovered.full_scan())
    assert len(scanned) == flushed_count
    assert scanned == events_for(n)[:flushed_count]


def test_recovered_tree_continues_appending():
    disk = SimulatedDisk()
    original = build_tree(disk, events_for(1000))
    lost = original.leaf.count
    recovered = recover(disk)
    extra = events_for(500, start=10**6)
    recovered.append_run(ColumnarEvents.of(extra, SCHEMA.arity))
    scanned = list(recovered.full_scan())
    assert len(scanned) == 1000 - lost + 500
    assert scanned[-1] == extra[-1]
    ts = [e.t for e in scanned]
    assert ts == sorted(ts)


def test_recovered_tree_queries_match():
    disk = SimulatedDisk()
    tree = build_tree(disk, events_for(1500))
    flushed_count = tree.event_count - tree.leaf.count
    flushed = events_for(1500)[:flushed_count]
    recovered = recover(disk)
    expected = [e for e in flushed if 100 <= e.t <= 600]
    assert list(recovered.time_travel(100, 600)) == expected
    total = sum(e.values[0] for e in flushed)
    assert recovered.aggregate(-1, 10**9, "x", "sum") == pytest.approx(total)


def test_recover_reflects_durable_ooo_inserts():
    disk = SimulatedDisk()
    layout = ChronicleLayout.create(
        disk, lblock_size=LBLOCK, macro_size=MACRO, compressor="zlib"
    )
    tree = TabTree(layout, SCHEMA, lblock_spare=0.3)
    tree.append_run(ColumnarEvents.of(events_for(800), SCHEMA.arity))
    rng = random.Random(5)
    inserted = [Event.of(rng.randrange(0, 1000), 9999.0, 9999.0) for _ in range(30)]
    for e in inserted:
        tree.ooo_insert(e.t, e.values)
    tree.flush_all()  # checkpoint: dirty pages now durable
    boundary = tree.flank_boundary_t
    durable_inserts = [e for e in inserted if e.t <= boundary]
    recovered = recover(disk)
    count_99 = sum(1 for e in recovered.full_scan() if e.values[0] == 9999.0)
    assert count_99 == len(durable_inserts)
    ts = [e.t for e in recovered.full_scan()]
    assert ts == sorted(ts)


def test_recover_after_splits():
    disk = SimulatedDisk()
    layout = ChronicleLayout.create(
        disk, lblock_size=LBLOCK, macro_size=MACRO, compressor="zlib"
    )
    tree = TabTree(layout, SCHEMA, lblock_spare=0.0)
    tree.append_run(ColumnarEvents.of(events_for(600), SCHEMA.arity))
    for i in range(60):
        tree.ooo_insert(300 + (i % 5), (7.0, 7.0))
    assert tree.splits_performed > 0
    tree.flush_all()
    expected = [e.t for e in tree.full_scan() if e.t <= tree.flank_boundary_t]
    recovered = recover(disk)
    ts = [e.t for e in recovered.full_scan()]
    assert ts == sorted(ts)
    assert ts == expected


def test_recover_empty_tree():
    disk = SimulatedDisk()
    build_tree(disk, [])
    recovered = recover(disk)
    assert recovered.event_count == 0
    assert list(recovered.full_scan()) == []
    recovered.append_run(ColumnarEvents([1], [[1.0], [1.0]]))
    assert len(list(recovered.full_scan())) == 1
