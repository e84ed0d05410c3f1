"""Count-based guard (no wall clock): tree recovery reads what it summarizes.

On a format-v1 store the header pass reads every stored leaf's node
header but fully inflates only index nodes and the leaves the rebuilt
flank summarizes.  On an in-order store that is at most ``index nodes +
index_capacity × height + 1`` full decodes, and the number of fully
inflated *leaves* does not grow with the store: doubling the complete
level-1 nodes leaves it as it was.

On a v3 store a leaf's node header is stored raw in front of its
deflated columns: whether the flank walk or the scan classifies the
leaves, reading their headers inflates nothing.

On a v2 store the flank walk reads no header beyond those TLB recovery
handed over: its block reads are at most ``height × (index_capacity +
2)`` — each flank node's children, its predecessor and the node that
bounds them.  Only the children term depends on the store (the root's
child count grows with it, as a B+-tree's does); every other read, and
every leaf read, stays the same when the complete level-1 nodes double.
"""

import zlib

import pytest

from repro import obs
from repro.compression import zlibc
from repro.compression.zlibc import ZlibCompressor
from repro.core.devices import DeviceProvider
from repro.events import ColumnarEvents, EventSchema
from repro.index.node import LeafNode
from repro.index.tab_tree import TabTree
from repro.recovery import tree_recovery
from repro.storage import layout as layout_module
from repro.storage.layout import ChronicleLayout

SCHEMA = EventSchema.of("x", "y")


def _crashed_store(full_parents: int, extra_leaves: int, version: int = 1):
    """An in-order store whose flank was lost: ``(device, stored leaves,
    stored index nodes)``."""
    device = DeviceProvider().data_device("s", 0)
    original = layout_module.FORMAT_VERSION
    layout_module.FORMAT_VERSION = version
    try:
        layout = ChronicleLayout.create(device, lblock_size=512, macro_size=2048)
    finally:
        layout_module.FORMAT_VERSION = original
    tree = TabTree(layout, SCHEMA)
    leaves = full_parents * tree.codec.index_capacity + extra_leaves
    # Half a leaf more: the open leaf holds events when the crash hits.
    n = leaves * tree.leaf_write_capacity + tree.leaf_write_capacity // 2
    obs.reset()
    obs.enable()
    try:
        tree.append_run(
            ColumnarEvents(
                list(range(n)),
                [[float(i) for i in range(n)], [float(i % 7) for i in range(n)]],
            )
        )
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()
    assert counters["index.leaf_flushes"] == leaves
    tree.flush()  # the flank stays in memory: the crash loses it
    return device, leaves, counters.get("index.flank_flushes", 0)


def _recover(device, monkeypatch, scan=False):
    """Recover the tree; returns it with the recovery counters, the
    number of leaves decoded in full and the number of block reads.
    *scan* drops what TLB recovery handed over, forcing the header scan."""
    leaf_decodes = []
    read_node = tree_recovery._read_node

    def counted(tree, node_id):
        node = read_node(tree, node_id)
        if isinstance(node, LeafNode):
            leaf_decodes.append(node_id)
        return node

    monkeypatch.setattr(tree_recovery, "_read_node", counted)
    layout = ChronicleLayout.open(device)
    reads = []
    read_framed = layout.read_framed

    def counted_read(block_id):
        reads.append(block_id)
        return read_framed(block_id)

    layout.read_framed = counted_read
    if scan:
        layout.recovered_tail = None
    obs.reset()
    obs.enable()
    try:
        tree = TabTree.recover(layout, SCHEMA)
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()
    return tree, counters, len(leaf_decodes), len(reads)


@pytest.mark.parametrize("extra_leaves", [0, 3])
def test_recovery_inflates_only_the_flank(monkeypatch, extra_leaves):
    inflated_leaves = []
    for full_parents in (6, 12):
        device, leaves, index_nodes = _crashed_store(full_parents, extra_leaves)
        tree, counters, leaf_decodes, _ = _recover(device, monkeypatch)
        height = len(tree.flank)
        assert height >= 2
        assert counters["recovery.flank_scan_fallback"] == 1
        assert tree.event_count == leaves * tree.leaf_write_capacity
        assert counters["recovery.nodes_header_only"] == leaves
        assert (
            counters["recovery.nodes_inflated"]
            <= index_nodes + tree.codec.index_capacity * height + 1
        )
        assert leaf_decodes <= tree.codec.index_capacity + 1
        inflated_leaves.append(leaf_decodes)
    # Twice the stored leaves, the same leaves decoded in full.
    assert inflated_leaves[0] == inflated_leaves[1]


@pytest.mark.parametrize("extra_leaves", [0, 3])
def test_v2_recovery_reads_are_flat(monkeypatch, extra_leaves):
    beyond_children, leaf_reads = [], []
    for full_parents in (6, 12):
        device, leaves, _ = _crashed_store(full_parents, extra_leaves, version=2)
        tree, counters, leaf_decodes, reads = _recover(device, monkeypatch)
        height = len(tree.flank) + 1
        assert len(tree.flank) >= 2
        assert counters["recovery.flank_walk"] == 1
        assert counters.get("recovery.flank_scan_fallback", 0) == 0
        assert counters.get("recovery.nodes_header_only", 0) == 0
        assert tree.event_count == leaves * tree.leaf_write_capacity
        assert reads <= height * (tree.codec.index_capacity + 2)
        children = sum(node.count for node in tree.flank)
        beyond_children.append(reads - children)
        leaf_reads.append(leaf_decodes)
    # Twice the complete level-1 nodes: the same reads besides the
    # flank's children, the same leaves read.
    assert beyond_children[0] == beyond_children[1]
    assert leaf_reads[0] == leaf_reads[1]


class _InflatedBytes:
    """``zlib`` as the codec sees it, adding up the bytes it inflates."""

    def __init__(self):
        self.total = 0

    def __getattr__(self, name):
        return getattr(zlib, name)

    def decompress(self, data, *args):
        out = zlib.decompress(data, *args)
        self.total += len(out)
        return out

    def decompressobj(self, *args):
        inner, owner = zlib.decompressobj(*args), self

        class _Counted:
            def decompress(self, data, *rest):
                out = inner.decompress(data, *rest)
                owner.total += len(out)
                return out

        return _Counted()


@pytest.mark.parametrize("scan", [False, True])
def test_v3_leaf_headers_inflate_nothing(monkeypatch, scan):
    device, leaves, _ = _crashed_store(6, 3, version=3)
    inflated = _InflatedBytes()
    monkeypatch.setattr(zlibc, "zlib", inflated)
    header_reads = []
    prefix = ZlibCompressor.decompress_prefix

    def counted(self, blob, original_size, size):
        before = inflated.total
        header = prefix(self, blob, original_size, size)
        if header[:4] == zlibc.LEAF_MAGIC:
            header_reads.append(inflated.total - before)
        return header

    monkeypatch.setattr(ZlibCompressor, "decompress_prefix", counted)
    tree, counters, _, _ = _recover(device, monkeypatch, scan=scan)
    assert tree.layout.format_version == 3
    assert tree.event_count == leaves * tree.leaf_write_capacity
    if scan:
        assert counters["recovery.flank_scan_fallback"] == 1
        assert counters["recovery.nodes_header_only"] == leaves
    else:
        assert counters["recovery.flank_walk"] == 1
    assert len(header_reads) >= (leaves if scan else 1)
    assert sum(header_reads) == 0
