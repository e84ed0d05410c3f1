"""The header pass classifies the tree exactly as a full decode does.

Tree recovery walks the macro blocks once and reads only a leaf's node
header; :func:`repro.testing.tree_scan.scan_nodes_full` reads every id
through the TLB and decodes every node.  At every crash point of the
canonical matrices (in-order, out-of-order, batched, torn), each split's
surviving data device is recovered twice — once per classifier — and the
two must agree on the classification and on the recovered tree, down to
the bytes recovery writes back.  ``CRASH_MATRIX_STRIDE=k`` subsamples.
"""

import copy
from unittest import mock

from repro.core.devices import DeviceProvider
from repro.core.stream import EventStream
from repro.errors import ChronicleError, DiskCrashed
from repro.index.tab_tree import TabTree
from repro.recovery import tree_recovery
from repro.simdisk import FaultPlan
from repro.storage.constants import SUPERBLOCK_SIZE
from repro.storage.layout import ChronicleLayout
from repro.testing import crashkit
from repro.testing.tree_scan import scan_nodes_full
from tests.recovery.test_crash_matrix import (
    CONFIG,
    SCHEMA,
    STRIDE,
    in_order_workload,
    ooo_workload,
)


def _classification(scan):
    nodes, unwritten, occupied, orphans = scan
    return (
        {
            node_id: (
                node.level,
                node.prev_id,
                node.next_id,
                node.lsn,
                copy.deepcopy(getattr(node, "entries", None)),
            )
            for node_id, node in nodes.items()
        },
        list(nodes),
        list(unwritten),
        set(occupied),
        set(orphans),
    )


def _recover(data: bytes, scan_nodes):
    """Tree-recover a copy of a split's data device with *scan_nodes*.

    Returns ``None`` for a sealed split (its tree comes from the commit
    footer, not from a scan), else the classification, the recovered
    tree's state and the device bytes afterwards.
    """
    device = DeviceProvider().data_device(crashkit.STREAM, 0)
    device.append(data)
    layout = ChronicleLayout.open(device, cost=CONFIG.cost_model)
    if layout.sealed_metadata is not None:
        return None
    # Without what TLB recovery handed over, tree recovery scans: the
    # classifiers compared here are the scan's.
    layout.recovered_tail = None
    seen = {}

    def recording_scan(tree):
        result = scan_nodes(tree)
        seen["scan"] = _classification(result)
        return result

    tombstones = []
    write_tombstone = layout.write_tombstone

    def recording_tombstone(block_id):
        tombstones.append(block_id)
        write_tombstone(block_id)

    layout.write_tombstone = recording_tombstone
    try:
        with mock.patch.object(tree_recovery, "_scan_nodes", recording_scan):
            tree = TabTree.recover(
                layout,
                SCHEMA,
                indexed_attributes=CONFIG.indexed_attributes,
                lblock_spare=CONFIG.lblock_spare,
                buffer_capacity=CONFIG.buffer_capacity,
                extended_aggregates=CONFIG.extended_aggregates,
            )
    except ChronicleError as exc:
        return seen.get("scan"), f"{type(exc).__name__}: {exc}"
    state = (
        tree.leaf.node_id,
        tree.last_flushed_leaf,
        [(n.node_id, n.level, n.prev_id, n.entries) for n in tree.flank],
        tree.lsn,
        tree.event_count,
        tree.min_t,
        tombstones,
        layout.next_id,
    )
    tree.buffer.flush_dirty()
    layout.flush()
    return seen["scan"], state, device.read(0, device.size)


def _crashed_data_devices(events, crash_point, batch_size, torn_bytes):
    plan = FaultPlan(crash_at_write=crash_point, torn_bytes=torn_bytes)
    devices = DeviceProvider(fault_plan=plan)
    stream = EventStream(crashkit.STREAM, SCHEMA, CONFIG, devices)
    try:
        crashkit.ingest_workload(stream, events, batch_size)
    except DiskCrashed:
        pass
    plan.disarm()
    return [
        data
        for key, data in crashkit.device_bytes(devices).items()
        if key.endswith(".cdb") and len(data) >= SUPERBLOCK_SIZE
    ]


def _check(events, batch_size=None, torn_bytes=0):
    total, _ = crashkit.count_device_writes(
        SCHEMA, CONFIG, events, batch_size=batch_size
    )
    recovered = 0
    for crash_point in range(0, total, STRIDE):
        for data in _crashed_data_devices(
            events, crash_point, batch_size, torn_bytes
        ):
            header = _recover(data, tree_recovery._scan_nodes)
            full = _recover(data, scan_nodes_full)
            assert header == full, f"crash point {crash_point}"
            recovered += header is not None
    assert recovered > 0


def test_in_order_matrix():
    _check(in_order_workload())


def test_out_of_order_matrix():
    _check(ooo_workload())


def test_batch_matrix():
    _check(in_order_workload(), batch_size=33)


def test_torn_write_matrix():
    _check(ooo_workload(400), torn_bytes="half")
