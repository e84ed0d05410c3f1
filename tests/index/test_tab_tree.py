"""Tests for the TAB+-tree: construction, queries, out-of-order inserts."""

import random

import pytest

from repro.errors import QueryError
from repro.events import ColumnarEvents, Event, EventSchema
from repro.index import AttributeRange, TabTree
from repro.simdisk import SimulatedDisk
from repro.storage import ChronicleLayout

SCHEMA = EventSchema.of("x", "y")
LBLOCK = 512
MACRO = 2048


def make_tree(**kwargs):
    disk = SimulatedDisk()
    layout = ChronicleLayout.create(
        disk, lblock_size=LBLOCK, macro_size=MACRO, compressor="zlib"
    )
    tree = TabTree(layout, SCHEMA, **kwargs)
    return tree, layout, disk


def events_for(n, start=0, step=2):
    # x follows a smooth ramp, y a deterministic wobble.
    return [
        Event.of(start + i * step, float(i), float((i * 7) % 50))
        for i in range(n)
    ]


def fill(tree, events):
    tree.append_run(ColumnarEvents.of(events, SCHEMA.arity))


def test_append_and_full_scan_roundtrip():
    tree, _, _ = make_tree()
    events = events_for(500)
    fill(tree, events)
    assert list(tree.full_scan()) == events
    assert tree.event_count == 500


def test_small_tree_stays_in_memory():
    tree, layout, _ = make_tree()
    events = events_for(3)
    fill(tree, events)
    assert list(tree.full_scan()) == events
    assert tree.height == 1


def test_tree_grows_levels():
    tree, _, _ = make_tree()
    fill(tree, events_for(2000))
    assert tree.height >= 3


def test_time_travel_exact_range():
    tree, _, _ = make_tree()
    events = events_for(1000)  # timestamps 0, 2, ..., 1998
    fill(tree, events)
    result = list(tree.time_travel(100, 220))
    expected = [e for e in events if 100 <= e.t <= 220]
    assert result == expected


def test_time_travel_range_boundaries_inclusive():
    tree, _, _ = make_tree()
    fill(tree, events_for(100))
    result = list(tree.time_travel(10, 10))
    assert len(result) == 1 and result[0].t == 10


def test_time_travel_between_timestamps_is_empty():
    tree, _, _ = make_tree()
    fill(tree, events_for(100))  # even timestamps only
    assert list(tree.time_travel(11, 11)) == []


def test_time_travel_includes_open_leaf():
    tree, _, _ = make_tree()
    events = events_for(205)
    fill(tree, events)
    result = list(tree.time_travel(events[-3].t, events[-1].t))
    assert result == events[-3:]


def test_time_travel_rejects_inverted_range():
    tree, _, _ = make_tree()
    fill(tree, events_for(10))
    with pytest.raises(QueryError):
        list(tree.time_travel(10, 5))


def test_aggregate_matches_naive():
    tree, _, _ = make_tree()
    events = events_for(1500)
    fill(tree, events)
    lo, hi = 300, 2500
    selected = [e.values[0] for e in events if lo <= e.t <= hi]
    assert tree.aggregate(lo, hi, "x", "sum") == pytest.approx(sum(selected))
    assert tree.aggregate(lo, hi, "x", "count") == len(selected)
    assert tree.aggregate(lo, hi, "x", "min") == min(selected)
    assert tree.aggregate(lo, hi, "x", "max") == max(selected)
    assert tree.aggregate(lo, hi, "x", "avg") == pytest.approx(
        sum(selected) / len(selected)
    )


def test_aggregate_full_range_uses_entry_statistics():
    tree, _, disk = make_tree()
    fill(tree, events_for(2000))
    reads_before = disk.stats.bytes_read
    total = tree.aggregate(-1, 10**9, "x", "sum")
    reads_after = disk.stats.bytes_read
    assert total == pytest.approx(sum(float(i) for i in range(2000)))
    # Fully covered subtrees are answered from index entries: almost no
    # leaf reads (Section 5.6.2).
    assert reads_after - reads_before < 40 * LBLOCK


def test_aggregate_stdev_by_scan():
    tree, _, _ = make_tree()
    events = events_for(300)
    fill(tree, events)
    values = [e.values[1] for e in events]
    mean = sum(values) / len(values)
    expected = (sum((v - mean) ** 2 for v in values) / len(values)) ** 0.5
    assert tree.aggregate(0, 10**9, "y", "stdev") == pytest.approx(expected)


def test_aggregate_empty_range_raises():
    tree, _, _ = make_tree()
    fill(tree, events_for(10))
    with pytest.raises(QueryError):
        tree.aggregate(10**6, 10**7, "x", "sum")


def test_aggregate_unknown_function():
    tree, _, _ = make_tree()
    fill(tree, events_for(10))
    with pytest.raises(QueryError):
        tree.aggregate(0, 100, "x", "median")


def test_filter_scan_matches_naive():
    tree, _, _ = make_tree()
    events = events_for(1200)
    fill(tree, events)
    ranges = [AttributeRange("y", 10.0, 20.0)]
    result = list(tree.time_travel(0, 10**9, ranges))
    expected = [e for e in events if 10.0 <= e.values[1] <= 20.0]
    assert result == expected


def test_filter_scan_prunes_subtrees():
    """Lightweight indexing: a range outside all data touches few blocks."""
    tree, _, disk = make_tree()
    fill(tree, events_for(2000))
    tree.flush_all()
    reads_before = disk.stats.bytes_read
    result = list(tree.time_travel(0, 10**9, [AttributeRange("x", 1e9, 2e9)]))
    assert result == []
    assert disk.stats.bytes_read - reads_before < 20 * LBLOCK


def test_filter_scan_on_temporally_correlated_attribute():
    # x is a smooth ramp: a narrow x-range maps to few leaves.
    tree, _, disk = make_tree()
    events = events_for(3000)
    fill(tree, events)
    tree.flush_all()
    reads_before = disk.stats.bytes_read
    result = list(tree.time_travel(0, 10**9, [AttributeRange("x", 100.0, 110.0)]))
    assert [e.values[0] for e in result] == [float(i) for i in range(100, 111)]
    assert disk.stats.bytes_read - reads_before < 30 * LBLOCK


def test_filter_with_time_and_attribute():
    tree, _, _ = make_tree()
    events = events_for(800)
    fill(tree, events)
    result = list(tree.time_travel(200, 900, [AttributeRange("y", 0.0, 5.0)]))
    expected = [
        e for e in events if 200 <= e.t <= 900 and 0.0 <= e.values[1] <= 5.0
    ]
    assert result == expected


def test_non_indexed_attribute_filter_still_correct():
    tree, _, _ = make_tree(indexed_attributes=["x"])
    events = events_for(600)
    fill(tree, events)
    result = list(tree.time_travel(0, 10**9, [AttributeRange("y", 10.0, 12.0)]))
    expected = [e for e in events if 10.0 <= e.values[1] <= 12.0]
    assert result == expected


def test_indexed_subset_reduces_entry_size():
    full, _, _ = make_tree()
    partial, _, _ = make_tree(indexed_attributes=[])
    assert partial.codec.index_capacity > full.codec.index_capacity


# ---------------------------------------------------------------- ooo path


def test_ooo_insert_into_spare_space():
    tree, _, _ = make_tree(lblock_spare=0.3)
    events = events_for(400)
    fill(tree, events)
    late = Event.of(101, -1.0, -1.0)  # between existing timestamps 100, 102
    tree.ooo_insert(late.t, late.values)
    scanned = list(tree.full_scan())
    assert len(scanned) == 401
    ts = [e.t for e in scanned]
    assert ts == sorted(ts)
    assert late in scanned


def test_ooo_insert_updates_aggregates():
    tree, _, _ = make_tree(lblock_spare=0.3)
    fill(tree, events_for(400))
    before = tree.aggregate(0, 10**9, "x", "sum")
    tree.ooo_insert(101, (1000.0, 0.0))
    assert tree.aggregate(0, 10**9, "x", "sum") == pytest.approx(before + 1000.0)
    assert tree.aggregate(0, 10**9, "x", "max") == 1000.0


def test_ooo_insert_many_triggers_split():
    tree, _, _ = make_tree(lblock_spare=0.05)
    fill(tree, events_for(600))
    rng = random.Random(9)
    extra = [Event.of(rng.randrange(0, 600), 5.0, 5.0) for _ in range(120)]
    for e in extra:
        tree.ooo_insert(e.t, e.values)
    assert tree.splits_performed > 0
    scanned = list(tree.full_scan())
    assert len(scanned) == 720
    ts = [e.t for e in scanned]
    assert ts == sorted(ts)


def test_ooo_split_preserves_queries_after_flush():
    tree, layout, _ = make_tree(lblock_spare=0.0)
    events = events_for(500)
    fill(tree, events)
    target = 250
    inserted = [Event.of(target, float(100 + i), 0.0) for i in range(40)]
    for e in inserted:
        tree.ooo_insert(e.t, e.values)
    tree.flush_all()
    result = list(tree.time_travel(target, target))
    assert len(result) == 1 + 40  # the original event plus inserts
    total = tree.aggregate(0, 10**9, "x", "count")
    assert total == 540


def test_ooo_insert_newer_than_boundary_appends():
    tree, _, _ = make_tree()
    fill(tree, events_for(300))
    newest = Event.of(10**6, 1.0, 1.0)
    tree.ooo_insert(newest.t, newest.values)
    assert list(tree.full_scan())[-1] == newest


def test_ooo_insert_before_all_data():
    tree, _, _ = make_tree(lblock_spare=0.3)
    fill(tree, events_for(300, start=1000))
    early = Event.of(1, 0.0, 0.0)
    tree.ooo_insert(early.t, early.values)
    assert list(tree.full_scan())[0] == early
    assert tree.aggregate(0, 10, "x", "count") == 1


def test_ooo_redo_skips_already_applied():
    tree, _, _ = make_tree(lblock_spare=0.3)
    fill(tree, events_for(400))
    event = Event.of(55, 9.0, 9.0)
    lsn = tree.next_lsn()
    tree.ooo_insert(event.t, event.values, lsn)
    assert not tree.ooo_insert_if_newer(event.t, event.values, lsn)  # idempotent redo
    assert tree.ooo_insert_if_newer(57, (1.0, 1.0), lsn + 1)
    assert tree.aggregate(0, 10**9, "x", "count") == 402


def test_sibling_links_consistent_after_splits():
    tree, _, _ = make_tree(lblock_spare=0.0)
    fill(tree, events_for(400))
    rng = random.Random(4)
    for _ in range(60):
        tree.ooo_insert(rng.randrange(0, 800), (1.0, 1.0))
    tree.flush_all()
    # Walk the leaf chain forward and compare with a full scan.
    chain_counts = 0
    leaf = tree._descend_to_leaf(-1)
    seen = set()
    while leaf is not None:
        assert leaf.node_id not in seen
        seen.add(leaf.node_id)
        chain_counts += leaf.count
        if leaf is tree.leaf:
            break
        leaf = tree._get_node(leaf.next_id) if leaf.next_id != -1 else None
    assert chain_counts == tree.event_count
