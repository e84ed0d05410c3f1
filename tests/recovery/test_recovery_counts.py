"""Count-based guard (no wall clock): tree recovery decodes what it summarizes.

The header pass reads every stored leaf's node header but fully inflates
only index nodes and the leaves the rebuilt flank summarizes.  On an
in-order store that is at most ``index nodes + index_capacity × height
+ 1`` full decodes, and the number of fully inflated *leaves* does not
grow with the store: doubling the complete level-1 nodes leaves it as it
was.
"""

import pytest

from repro import obs
from repro.core.devices import DeviceProvider
from repro.events import ColumnarEvents, EventSchema
from repro.index.node import LeafNode
from repro.index.tab_tree import TabTree
from repro.recovery import tree_recovery
from repro.storage.layout import ChronicleLayout

SCHEMA = EventSchema.of("x", "y")


def _crashed_store(full_parents: int, extra_leaves: int):
    """An in-order store whose flank was lost: ``(device, stored leaves,
    stored index nodes)``."""
    device = DeviceProvider().data_device("s", 0)
    layout = ChronicleLayout.create(device, lblock_size=512, macro_size=2048)
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


def _recover(device, monkeypatch):
    """Recover the tree; returns it with the recovery counters and the
    number of leaves decoded in full."""
    leaf_decodes = []
    read_node = tree_recovery._read_node

    def counted(tree, node_id):
        node = read_node(tree, node_id)
        if isinstance(node, LeafNode):
            leaf_decodes.append(node_id)
        return node

    monkeypatch.setattr(tree_recovery, "_read_node", counted)
    layout = ChronicleLayout.open(device)
    obs.reset()
    obs.enable()
    try:
        tree = TabTree.recover(layout, SCHEMA)
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()
    return tree, counters, len(leaf_decodes)


@pytest.mark.parametrize("extra_leaves", [0, 3])
def test_recovery_inflates_only_the_flank(monkeypatch, extra_leaves):
    inflated_leaves = []
    for full_parents in (6, 12):
        device, leaves, index_nodes = _crashed_store(full_parents, extra_leaves)
        tree, counters, leaf_decodes = _recover(device, monkeypatch)
        height = len(tree.flank)
        assert height >= 2
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
