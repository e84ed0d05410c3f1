"""The one tree walk: every read of a TAB+-tree is a leaf window.

``TabTree.leaf_slices`` is the only walk that reaches a leaf.  Without a
range on an indexed attribute it descends once and follows the leaf
sibling chain; with one it prunes subtrees by their min/max entries
(Algorithm 2).  Both branches are checked here against a sorted-list
model of the stored rows, across the relinks of leaf splits, and the
chain branch by count: a cold unfiltered scan loads one index node per
level below the root and requests every leaf once.
"""

from bisect import bisect_right

from hypothesis import example, given, settings, strategies as st

from repro.events import ColumnarEvents, EventSchema
from repro.index import AttributeRange, TabTree
from repro.simdisk import HDD_2017, SimulatedClock, SimulatedDisk
from repro.storage import ChronicleLayout
from repro.storage.prefetch import SequentialBlockReader

SCHEMA = EventSchema.of("x", "y")
_HUGE = 2**62


def make_tree(spare=0.2):
    layout = ChronicleLayout.create(
        SimulatedDisk(), lblock_size=512, macro_size=2048, compressor="zlib"
    )
    return TabTree(layout, SCHEMA, indexed_attributes=["x"],
                   lblock_spare=spare)


# ------------------------------------------------------------ count guard


def _make_cold(tree):
    tree.buffer._frames.clear()
    tree.layout._macro_cache.clear()
    tree.layout.tlb._leaf_cache.clear()


def _counted_scan(tree, monkeypatch, t_start, t_end):
    """Windows of an unfiltered scan, the ids the reader was asked for
    and the ids read through ``layout.read_block``."""
    requested, read = [], []
    reader_get = SequentialBlockReader.get
    read_block = tree.layout.read_block

    def counting_get(self, block_id):
        requested.append(block_id)
        return reader_get(self, block_id)

    def counting_read(block_id):
        read.append(block_id)
        return read_block(block_id)

    monkeypatch.setattr(SequentialBlockReader, "get", counting_get)
    monkeypatch.setattr(tree.layout, "read_block", counting_read)
    stats = {}
    windows = list(tree.leaf_slices(t_start, t_end, stats=stats))
    return windows, requested, read, stats


def test_unfiltered_scan_descends_once_then_follows_the_chain(monkeypatch):
    n = 2000
    tree = make_tree()
    tree.append_run(ColumnarEvents(
        list(range(0, 2 * n, 2)),
        [[float(i) for i in range(n)], [float(i % 7) for i in range(n)]],
    ))
    tree.flush_all()
    assert tree.height >= 3
    for t_start, t_end in ((-_HUGE, _HUGE), (1001, 3001)):
        _make_cold(tree)
        windows, requested, read, stats = _counted_scan(
            tree, monkeypatch, t_start, t_end
        )
        flushed = [leaf.node_id for leaf, _, _ in windows
                   if leaf is not tree.leaf]
        assert flushed and flushed == sorted(set(flushed))
        # Every flushed leaf is requested once, through the one reader.
        assert requested == flushed
        assert stats["blocks_requested"] == len(flushed)
        assert stats["leaves_scanned"] == len(windows)
        # One index node per level below the in-memory root, at most.
        index_reads = [i for i in read if i not in set(flushed)]
        assert len(index_reads) <= tree.height - 1
        rows = [t for leaf, lo, hi in windows for t in leaf.timestamps[lo:hi]]
        assert rows == [t for t in range(0, 2 * n, 2) if t_start <= t <= t_end]


def test_split_right_halves_keep_the_scan_sequential(monkeypatch):
    """A split's right half takes a fresh, high id at the end of the log,
    so a scan asks for it and then for lower ids.  Those requests are
    served from the reader's buffer or by seeking the walk back, not by
    a random ``read_block`` each: at most one per relocated leaf plus a
    few seeks, against one per leaf after the split."""
    n = 6000
    layout = ChronicleLayout.create(
        SimulatedDisk(HDD_2017, SimulatedClock()), lblock_size=512,
        macro_size=2048, compressor="zlib",
    )
    tree = TabTree(layout, SCHEMA, indexed_attributes=["x"])
    tree.append_run(ColumnarEvents(
        list(range(0, 10 * n, 10)),
        [[float(i) for i in range(n)], [float(i % 7) for i in range(n)]],
    ))
    for _ in range(24):  # one early timestamp: its leaf splits repeatedly
        tree.ooo_insert(105, (0.5, 0.5))
    tree.flush_all()
    assert tree.splits_performed >= 4
    _make_cold(tree)
    windows, requested, read, stats = _counted_scan(
        tree, monkeypatch, -_HUGE, _HUGE
    )
    flushed = [leaf.node_id for leaf, _, _ in windows if leaf is not tree.leaf]
    assert requested == flushed and len(flushed) > 300
    assert flushed != sorted(flushed)  # the right halves come out of order
    leaf_reads = [i for i in read if i in set(flushed)]
    assert len(leaf_reads) <= tree.splits_performed + 3
    assert stats["blocks_requested"] == stats["blocks_inflated"] == len(flushed)
    rows = [t for leaf, lo, hi in windows for t in leaf.timestamps[lo:hi]]
    assert rows == sorted(list(range(0, 10 * n, 10)) + [105] * 24)


# ------------------------------------------------------------ list model

values = st.integers(min_value=0, max_value=20).map(float)


def rows(t_max):
    return st.tuples(st.integers(min_value=0, max_value=t_max), values,
                     values)


@settings(max_examples=50, deadline=None)
@example(  # a tie across a leaf flush, then a late row at that t
    in_order=[(t, 0.0, 0.0) for t in range(14)]
    + [(100, 1.0, 0.0), (100, 2.0, 0.0), (105, 3.0, 0.0)],
    late=[(100, 4.0, 1.0), (3, 5.0, 1.0)],
    a=0, b=200, xs=[0.0, 20.0], ys=[1.0, 1.0],
)
@given(
    st.lists(rows(600), min_size=1, max_size=300),
    # Late rows crowd the oldest leaves, so most examples split some.
    st.lists(rows(120), max_size=60),
    st.integers(min_value=-10, max_value=610),
    st.integers(min_value=-10, max_value=610),
    st.tuples(values, values).map(sorted),
    st.tuples(values, values).map(sorted),
)
def test_windows_match_the_sorted_list_model(in_order, late, a, b, xs, ys):
    """In-order appends, then late ``ooo_insert`` s that split leaves:
    windows with no range, an indexed range (``x``) and a non-indexed
    range (``y``) hold the model's rows, row for row."""
    tree = make_tree()
    model = sorted(in_order, key=lambda row: row[0])
    for t, x, y in model:
        tree.append_run(ColumnarEvents([t], [[x], [y]]))
    for row in late:
        if row[0] == tree.flank_boundary_t:
            # At the flank boundary a late row joins the last flushed
            # leaf: behind its rows at t, ahead of the open leaf's.
            at = len(model) - tree.leaf.count
        else:
            at = bisect_right([t for t, _, _ in model], row[0])
        tree.ooo_insert(row[0], row[1:])
        model.insert(at, row)
    for cold in (False, True):
        if cold:
            # Again with every flushed node read back from storage.
            tree.flush_all()
            _make_cold(tree)
        _check_windows(tree, model, min(a, b), max(a, b), xs, ys)
        # A point query at each leaf's last timestamp: where both
        # branches choose the leaf a read starts from.
        for leaf, _, _ in list(tree.leaf_slices(-_HUGE, _HUGE)):
            _check_windows(tree, model, leaf.t_max, leaf.t_max, xs, ys)


def _check_windows(tree, model, t_start, t_end, xs, ys):
    ranges = {
        "none": None,
        "indexed": [AttributeRange("x", *xs)],
        "non-indexed": [AttributeRange("y", *ys)],
    }
    for name, attr_ranges in ranges.items():
        check = attr_ranges[0] if attr_ranges else None
        position = SCHEMA.index_of(check.name) if check else None

        def passes(row):
            return check is None or check.contains(row[1 + position])

        want = [row for row in model
                if t_start <= row[0] <= t_end and passes(row)]
        windows = tree.leaf_slices(t_start, t_end, attr_ranges)
        got = [
            (leaf.timestamps[i], leaf.column(0)[i], leaf.column(1)[i])
            for leaf, lo, hi in windows for i in range(lo, hi)
        ]
        if attr_ranges is None or name == "non-indexed":
            # No pruning: the windows hold every row in the time range.
            assert got == [row for row in model
                           if t_start <= row[0] <= t_end], name
        assert [row for row in got if passes(row)] == want, name
        events = tree.time_travel(t_start, t_end, attr_ranges)
        assert [(e.t, *e.values) for e in events] == want, name
