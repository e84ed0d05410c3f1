"""End-to-end tests for Algorithm 3 and Section 6.3 log recovery."""

import random

import pytest

from repro.errors import StorageError
from repro.events import ColumnarEvents, Event, EventSchema
from repro.index import TabTree
from repro.ooo import OutOfOrderManager
from repro.simdisk import SimulatedDisk
from repro.storage import ChronicleLayout

SCHEMA = EventSchema.of("x", "y")
LBLOCK = 512
MACRO = 2048


def make_setup(queue_capacity=16, checkpoint_interval=64, spare=0.2):
    disk = SimulatedDisk()
    layout = ChronicleLayout.create(
        disk, lblock_size=LBLOCK, macro_size=MACRO, compressor="zlib"
    )
    tree = TabTree(layout, SCHEMA, lblock_spare=spare)
    manager = OutOfOrderManager(
        tree,
        wal_device=SimulatedDisk(),
        mirror_device=SimulatedDisk(),
        queue_capacity=queue_capacity,
        checkpoint_interval=checkpoint_interval,
    )
    return manager, tree, disk


def run(events):
    """*events* (non-decreasing timestamps) as one chronological run."""
    return ColumnarEvents.of(list(events), SCHEMA.arity)


def mixed_workload(n, ooo_fraction, rng, max_delay=200):
    """Chronological stream with a fraction of delayed events."""
    events = []
    for i in range(n):
        t = i * 10
        if rng.random() < ooo_fraction and i > 30:
            t -= rng.randrange(1, max_delay) * 10
        events.append(Event.of(t, float(i), float(i % 7)))
    return events


def test_in_order_events_bypass_queue():
    manager, tree, _ = make_setup()
    manager.insert_run(run(Event.of(i, float(i), 0.0) for i in range(100)))
    assert manager.queued_inserts == 0
    assert manager.flank_inserts == 100
    assert tree.event_count == 100


def test_late_events_enter_queue_and_mirror():
    manager, tree, _ = make_setup(queue_capacity=50)
    manager.insert_run(run(Event.of(i * 10, float(i), 0.0) for i in range(200)))
    manager.insert_run(run([Event.of(5, -1.0, 0.0)]))
    assert manager.pending == 1
    assert list(manager.mirror.replay()) == [(0, 5, (-1.0, 0.0))]


def test_queue_flush_inserts_into_tree():
    manager, tree, _ = make_setup(queue_capacity=4)
    manager.insert_run(run(Event.of(i * 10, float(i), 0.0) for i in range(300)))
    # Fills the queue, triggers a flush.
    manager.insert_run(run(Event.of(t, 111.0, 0.0) for t in (15, 25, 35, 45)))
    assert manager.pending == 0
    assert manager.queue_flushes == 1
    assert tree.event_count == 304
    # The mirror log is cleared by the flush (Algorithm 3).
    assert list(manager.mirror.replay()) == []
    ts = [e.t for e in tree.full_scan()]
    assert ts == sorted(ts)


def test_full_workload_keeps_time_order():
    manager, tree, _ = make_setup(queue_capacity=32)
    rng = random.Random(11)
    events = mixed_workload(2000, 0.05, rng)
    for e in events:
        manager.insert_run(run([e]))
    manager.close()
    scanned = list(tree.full_scan())
    assert len(scanned) == 2000
    ts = [e.t for e in scanned]
    assert ts == sorted(ts)
    assert sorted(ts) == sorted(e.t for e in events)


def test_checkpoint_truncates_wal():
    manager, tree, _ = make_setup(queue_capacity=4, checkpoint_interval=8)
    manager.insert_run(run(Event.of(i * 10, float(i), 0.0) for i in range(300)))
    # Two queue flushes -> checkpoint.
    manager.insert_run(run(Event.of(5 + k, 1.0, 0.0) for k in range(8)))
    assert manager.queue_flushes == 2
    assert manager.checkpoints == 1
    assert list(manager.wal.replay()) == []


def test_recovery_replays_wal_and_mirror():
    disk = SimulatedDisk()
    wal_disk = SimulatedDisk()
    mirror_disk = SimulatedDisk()
    layout = ChronicleLayout.create(
        disk, lblock_size=LBLOCK, macro_size=MACRO, compressor="zlib"
    )
    tree = TabTree(layout, SCHEMA, lblock_spare=0.2)
    manager = OutOfOrderManager(
        tree, wal_disk, mirror_disk, queue_capacity=8, checkpoint_interval=10**9
    )
    manager.insert_run(run(Event.of(i * 10, float(i), 0.0) for i in range(500)))
    # 8 late events flush the queue (WAL-logged, pages dirty, NOT checkpointed).
    flushed_late = [Event.of(100 + k, 5555.0, 0.0) for k in range(8)]
    manager.insert_run(run(flushed_late))
    assert manager.queue_flushes == 1
    # 3 more remain in the queue (mirror log only).
    queued_late = [Event.of(200 + k, 7777.0, 0.0) for k in range(3)]
    manager.insert_run(run(queued_late))
    layout.flush()  # crash: dirty tree pages lost, logs survive

    recovered_layout = ChronicleLayout.open(disk)
    recovered_tree = TabTree.recover(recovered_layout, SCHEMA)
    recovered_manager = OutOfOrderManager(
        recovered_tree, wal_disk, mirror_disk, queue_capacity=8
    )
    applied = recovered_manager.recover()
    assert applied >= 1
    # All WAL-logged late events are back.
    count_5555 = sum(
        1 for e in recovered_tree.full_scan() if e.values[0] == 5555.0
    )
    assert count_5555 == len(flushed_late)
    # Queued (never-inserted) events were rebuilt from the mirror log.
    assert recovered_manager.pending == len(queued_late)
    assert recovered_manager.queue.drain().materialize() == queued_late
    ts = [e.t for e in recovered_tree.full_scan()]
    assert ts == sorted(ts)


def test_recovery_is_idempotent_when_pages_were_flushed():
    disk = SimulatedDisk()
    wal_disk = SimulatedDisk()
    mirror_disk = SimulatedDisk()
    layout = ChronicleLayout.create(
        disk, lblock_size=LBLOCK, macro_size=MACRO, compressor="zlib"
    )
    tree = TabTree(layout, SCHEMA, lblock_spare=0.2)
    manager = OutOfOrderManager(
        tree, wal_disk, mirror_disk, queue_capacity=4, checkpoint_interval=10**9
    )
    manager.insert_run(run(Event.of(i * 10, float(i), 0.0) for i in range(400)))
    manager.insert_run(run(Event.of(50 + k, 9999.0, 0.0) for k in range(4)))
    # Pages flushed but WAL NOT truncated (crash before checkpoint's clear).
    tree.buffer.flush_dirty()
    layout.flush()

    recovered_layout = ChronicleLayout.open(disk)
    recovered_tree = TabTree.recover(recovered_layout, SCHEMA)
    recovered_manager = OutOfOrderManager(
        recovered_tree, wal_disk, mirror_disk, queue_capacity=4
    )
    applied = recovered_manager.recover()
    assert applied == 0  # leaf LSNs already cover the WAL records
    count = sum(1 for e in recovered_tree.full_scan() if e.values[0] == 9999.0)
    assert count == 4


def test_insert_after_a_failed_leaf_flush_retries_the_flush(monkeypatch):
    """A leaf flush that fails leaves the open leaf full; the next insert
    retries the flush instead of making no progress forever."""
    manager, tree, _ = make_setup()
    capacity = tree.leaf_write_capacity
    write_block = tree.layout.write_block

    def fail_once(*args):
        monkeypatch.setattr(tree.layout, "write_block", write_block)
        raise StorageError("injected write failure")

    monkeypatch.setattr(tree.layout, "write_block", fail_once)
    with pytest.raises(StorageError):
        manager.insert_run(run(Event.of(i, float(i), 0.0) for i in range(capacity)))
    assert tree.leaf.count == capacity
    manager.insert_run(run([Event.of(capacity, 0.0, 0.0)]))
    assert tree.flank_boundary_t == capacity - 1
    assert [e.t for e in tree.full_scan()] == list(range(capacity + 1))
