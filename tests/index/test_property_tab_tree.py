"""Property-based tests: the TAB+-tree against a sorted-list oracle."""

from bisect import insort

import pytest
from hypothesis import given, settings, strategies as st

from repro.events import ColumnarEvents, EventSchema
from repro.index import AttributeRange, TabTree
from repro.simdisk import SimulatedDisk
from repro.storage import ChronicleLayout

SCHEMA = EventSchema.of("x")


def make_tree(spare=0.2):
    layout = ChronicleLayout.create(
        SimulatedDisk(), lblock_size=512, macro_size=2048, compressor="zlib"
    )
    return TabTree(layout, SCHEMA, lblock_spare=spare)


events_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=5000),
        st.floats(min_value=-100, max_value=100, allow_nan=False),
    ),
    min_size=1,
    max_size=400,
)


@settings(max_examples=30, deadline=None)
@given(events_strategy)
def test_mixed_in_and_out_of_order_inserts_match_oracle(rows):
    """Feed an arbitrary (partially unsorted) stream through ooo_insert."""
    tree = make_tree()
    oracle: list[tuple[int, float]] = []
    for t, x in rows:
        tree.ooo_insert(t, (x,))
        insort(oracle, (t, x))
    scanned = [(e.t, e.values[0]) for e in tree.full_scan()]
    assert sorted(scanned) == oracle
    assert [t for t, _ in scanned] == sorted(t for t, _ in scanned)
    assert tree.event_count == len(oracle)


@settings(max_examples=25, deadline=None)
@given(
    events_strategy,
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=0, max_value=5000),
)
def test_time_travel_matches_oracle(rows, a, b):
    t_start, t_end = min(a, b), max(a, b)
    tree = make_tree()
    oracle = []
    for t, x in sorted(rows):
        tree.append_run(ColumnarEvents([t], [[x]]))
        insort(oracle, (t, x))
    expected = [
        item for item in oracle if t_start <= item[0] <= t_end
    ]
    result = [(e.t, e.values[0]) for e in tree.time_travel(t_start, t_end)]
    assert sorted(result) == sorted(expected)


@settings(max_examples=25, deadline=None)
@given(
    events_strategy,
    st.integers(min_value=0, max_value=5000),
    st.integers(min_value=0, max_value=5000),
)
def test_aggregates_match_oracle(rows, a, b):
    t_start, t_end = min(a, b), max(a, b)
    tree = make_tree()
    for t, x in sorted(rows):
        tree.append_run(ColumnarEvents([t], [[x]]))
    values = [x for t, x in rows if t_start <= t <= t_end]
    if not values:
        return
    assert tree.aggregate(t_start, t_end, "x", "sum") == pytest.approx(
        sum(values), abs=1e-6
    )
    assert tree.aggregate(t_start, t_end, "x", "count") == len(values)
    assert tree.aggregate(t_start, t_end, "x", "min") == pytest.approx(
        min(values)
    )
    assert tree.aggregate(t_start, t_end, "x", "max") == pytest.approx(
        max(values)
    )


@settings(max_examples=20, deadline=None)
@given(
    events_strategy,
    st.floats(min_value=-100, max_value=100, allow_nan=False),
    st.floats(min_value=-100, max_value=100, allow_nan=False),
)
def test_filter_scan_matches_oracle(rows, lo, hi):
    low, high = min(lo, hi), max(lo, hi)
    tree = make_tree()
    for t, x in sorted(rows):
        tree.append_run(ColumnarEvents([t], [[x]]))
    expected = sorted(
        (t, x) for t, x in rows if low <= x <= high
    )
    result = sorted(
        (e.t, e.values[0])
        for e in tree.time_travel(-1, 10**9, [AttributeRange("x", low, high)])
    )
    assert result == expected


@settings(max_examples=15, deadline=None)
@given(events_strategy)
def test_crash_recovery_preserves_flushed_prefix(rows):
    disk = SimulatedDisk()
    layout = ChronicleLayout.create(
        disk, lblock_size=512, macro_size=2048, compressor="zlib"
    )
    tree = TabTree(layout, SCHEMA, lblock_spare=0.2)
    for t, x in sorted(rows):
        tree.append_run(ColumnarEvents([t], [[x]]))
    tree.flush_all()
    flushed = tree.event_count - tree.leaf.count
    recovered = TabTree.recover(ChronicleLayout.open(disk), SCHEMA)
    scanned = [(e.t, e.values[0]) for e in recovered.full_scan()]
    assert len(scanned) == flushed
    assert scanned == sorted(sorted(rows))[:flushed]
