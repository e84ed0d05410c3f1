"""The flank walk vouches for its answer or hands over to the scan.

A format-v2 TLB slot of a reserved flank id names the node's level and
predecessor.  Corrupt one such placeholder — wrong predecessor, wrong
level, or no tag at all — and tree recovery must notice, fall back to
the header scan and rebuild exactly the tree the intact file gives.
"""

import pytest

from repro import obs
from repro.core.devices import DeviceProvider
from repro.storage.addressing import NULL_ADDR, decode_reserved, encode_reserved
from repro.storage.layout import ChronicleLayout
from repro.storage.tlb import decode_tlb_block, encode_tlb_block
from repro.index.tab_tree import TabTree
from tests.recovery.test_recovery_counts import SCHEMA, _crashed_store


def _device(data: bytes):
    device = DeviceProvider().data_device("s", 0)
    device.append(data)
    return device


def _recover(data: bytes):
    """The recovered tree's state and the recovery path counters."""
    layout = ChronicleLayout.open(_device(data))
    obs.reset()
    obs.enable()
    try:
        tree = TabTree.recover(layout, SCHEMA)
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()
    state = (
        tree.leaf.node_id,
        tree.leaf.prev_id,
        tree.last_flushed_leaf,
        [(n.node_id, n.level, n.prev_id, n.entries) for n in tree.flank],
        tree.lsn,
        tree.event_count,
        tree.min_t,
    )
    return state, counters


def _corrupt(data: bytes, mutate) -> bytes:
    """*data* with the placeholder of one durable upper-level flank id
    replaced by ``mutate(level, prev_id)``."""
    layout = ChronicleLayout.open(_device(data))
    tlb = layout.tlb
    gap, (level, prev_id) = max(
        (item for item in layout.recovered_tail.reserved.items()
         if item[1][1] != -1),
        key=lambda item: item[1][0],
    )
    assert level >= 1
    offset = tlb._block_offset(0, gap // tlb.b)
    block = decode_tlb_block(bytes(data[offset : offset + layout.lblock_size]))
    assert decode_reserved(block.entries[gap % tlb.b]) == (level, prev_id)
    block.entries[gap % tlb.b] = mutate(level, prev_id)
    out = bytearray(data)
    out[offset : offset + layout.lblock_size] = encode_tlb_block(
        block, layout.lblock_size
    )
    return bytes(out)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda level, prev_id: encode_reserved(level, prev_id - 1),
        lambda level, prev_id: encode_reserved(level + 1, prev_id),
        lambda level, prev_id: NULL_ADDR,
    ],
    ids=["wrong_predecessor", "wrong_level", "tag_cleared"],
)
def test_corrupted_placeholder_falls_back_to_the_same_tree(mutate):
    device, _, _ = _crashed_store(60, 3, version=2)
    data = device.read(0, device.size)
    intact, counters = _recover(data)
    assert counters["recovery.flank_walk"] == 1
    corrupted, counters = _recover(_corrupt(data, mutate))
    assert counters["recovery.flank_scan_fallback"] == 1
    assert counters.get("recovery.flank_walk", 0) == 0
    assert corrupted == intact
