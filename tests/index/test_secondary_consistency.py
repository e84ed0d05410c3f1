"""Section 5.7.2: lazy secondary-index consistency under block splits.

Secondary postings carry (timestamp, block id).  When out-of-order
insertions split a leaf, the split leaf keeps a flag instead of eagerly
updating every secondary index; searches that land on a flagged block
fall back to a timestamp-driven primary-index search.
"""

import random

import pytest

from repro.events import ColumnarEvents, Event, EventSchema
from repro.index import LsmIndex, TabTree
from repro.index.node import FLAG_SPLIT
from repro.index.secondary import SecondaryRef, resolve_refs
from repro.simdisk import SimulatedDisk
from repro.storage import ChronicleLayout

SCHEMA = EventSchema.of("x", "y")


def make_tree(spare=0.0):
    layout = ChronicleLayout.create(
        SimulatedDisk(), lblock_size=512, macro_size=2048, compressor="zlib"
    )
    return TabTree(layout, SCHEMA, lblock_spare=spare)


def build_with_secondary(n=600, spare=0.0):
    tree = make_tree(spare)
    index = LsmIndex(SimulatedDisk(), memtable_capacity=256)
    def flush_hook(leaf, stats):
        for row in range(leaf.count):
            index.insert(float(leaf.columns[1][row]), leaf.timestamps[row],
                         leaf.node_id)

    def ooo_hook(t, values, leaf_id):
        index.insert(float(values[1]), t, leaf_id)

    tree.leaf_flush_hook = flush_hook
    tree.ooo_insert_hook = ooo_hook
    tree.append_run(ColumnarEvents(
        list(range(n)), [[float(i) for i in range(n)], [float(i % 40) for i in range(n)]]
    ))
    return tree, index


def test_split_flag_set_on_split_leaves():
    tree, _ = build_with_secondary()
    target = 100
    for i in range(40):  # overflow one leaf
        tree.ooo_insert(target, (1.0, 1.0))
    assert tree.splits_performed > 0
    leaf = tree._descend_to_leaf(target)
    assert leaf.flags & FLAG_SPLIT


def test_resolve_refs_direct_path_on_unsplit_blocks():
    tree, index = build_with_secondary()
    refs = index.lookup_exact(7.0)
    index.flush()
    refs = index.lookup_exact(7.0)
    events = resolve_refs(tree, "y", refs)
    expected = [e for e in tree.full_scan() if e.values[1] == 7.0]
    assert sorted(events, key=lambda e: e.t) == expected


def test_resolve_refs_falls_back_after_split():
    """Postings pointing at a split block must still find their events."""
    tree, index = build_with_secondary()
    # Split leaves around t=200 with many late inserts of y=39.
    rng = random.Random(1)
    for _ in range(60):
        tree.ooo_insert(200 + rng.randrange(3), (0.0, 39.0))
    assert tree.splits_performed > 0
    tree.flush_all()
    index.flush()
    refs = index.lookup_exact(39.0)
    events = resolve_refs(tree, "y", refs)
    # Only flushed events have postings; the open leaf is served by the
    # split's live scan (see TimeSplit.search_secondary).
    boundary = tree.flank_boundary_t
    expected = [
        e for e in tree.full_scan()
        if e.values[1] == 39.0 and e.t <= boundary
    ]
    assert sorted(events, key=lambda e: (e.t, e.values)) == sorted(
        expected, key=lambda e: (e.t, e.values)
    )


def test_resolve_refs_with_stale_block_id():
    """A posting whose block id no longer matches (moved event) resolves
    through the timestamp fallback."""
    tree, _ = build_with_secondary()
    # Fabricate a stale posting: event at t=10 with a wrong block id.
    stale = SecondaryRef(value=10.0, t=10, block_id=999_999)
    events = resolve_refs(tree, "y", [stale])
    assert events == [e for e in tree.full_scan()
                      if e.t == 10 and e.values[1] == 10.0]


def test_resolve_refs_ignores_nonexistent_event():
    tree, _ = build_with_secondary()
    ghost = SecondaryRef(value=123.456, t=10, block_id=0)
    assert resolve_refs(tree, "y", [ghost]) == []


def test_ooo_hook_feeds_secondary_index():
    tree, index = build_with_secondary(spare=0.3)
    tree.ooo_insert(55, (-1.0, 777.0))
    index.flush()
    refs = index.lookup_exact(777.0)
    assert len(refs) == 1
    events = resolve_refs(tree, "y", refs)
    assert events == [Event.of(55, -1.0, 777.0)]
