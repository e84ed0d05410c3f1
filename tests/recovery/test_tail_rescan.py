"""TLB recovery rescans only the tail behind the last TLB leaf, exactly.

The TLB writes its leaf flank out only when the flank holds whole leaves
and no out-of-order mapping waits, so every C-block in front of a TLB
leaf on disk is mapped by one.  These tests crash layout-level
out-of-order writers at every device write and check that the bounded
rescan recovers what a rescan from the superblock does; and they count
what recovery of a crashed TAB+-tree store reads.
"""

import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import obs
from repro.compression import ZlibCompressor
from repro.core.devices import DeviceProvider
from repro.errors import DiskCrashed, StorageError
from repro.events import ColumnarEvents, EventSchema
from repro.index.tab_tree import TabTree
from repro.recovery import tlb_recovery
from repro.recovery.tlb_recovery import unmapped_ids
from repro.simdisk import FaultPlan, SimulatedDisk
from repro.storage import ChronicleLayout
from repro.storage.addressing import decode_addr, is_stored
from repro.storage.constants import SUPERBLOCK_SIZE
from repro.testing.crashkit import recovered_tlb

LBLOCK = 256
MACRO = 1024
#: Entries per TLB block at this L-block size: (256 - 36) // 8.
B = 27


def block_bytes(block_id: int) -> bytes:
    """Part noise, part zeros: a few C-blocks per macro block, some split
    across two."""
    rng = random.Random(block_id)
    noise = bytes(rng.randrange(256) for _ in range(rng.randrange(LBLOCK)))
    return (noise + bytes(LBLOCK))[:LBLOCK]


# ------------------------------------------------ layout-level writers


def _write(n: int, ops, plan: FaultPlan):
    """Run *ops* over *n* allocated ids until the plan's crash; returns the
    disk, each id's macro block offset (for ops that returned) and the ids
    whose op began (a crashed op may have reached the disk)."""
    disk = SimulatedDisk(fault_plan=plan)
    macros: dict[int, int] = {}
    begun: set[int] = set()
    try:
        layout = ChronicleLayout.create(
            disk, lblock_size=LBLOCK, macro_size=MACRO,
            compressor=ZlibCompressor(),
        )
        for _ in range(n):
            layout.allocate_id()
        for op, block_id in ops:
            if op == "flush":
                layout.flush()
                continue
            begun.add(block_id)
            if op == "write":
                layout.write_block(block_id, block_bytes(block_id))
            else:
                layout.write_tombstone(block_id)
            macros[block_id] = decode_addr(layout._resolve(block_id))[0]
        layout.flush()
    except DiskCrashed:
        pass
    plan.disarm()
    return disk, macros, begun


def _on_disk(disk, macros, spans: int) -> set[int]:
    """Ids whose C-block is on *disk*, if it spans at most *spans* macro
    blocks (the second of a C-block is the unit right behind its first)."""
    return {
        block_id for block_id, offset in macros.items()
        if offset + spans * MACRO <= disk.size
    }


def _recover(data: bytes, full: bool):
    disk = SimulatedDisk()
    disk.append(data)
    if not full:
        return ChronicleLayout.open(disk), disk
    with mock.patch.object(
        tlb_recovery, "_scan_start_offset", lambda layout: SUPERBLOCK_SIZE
    ):
        return ChronicleLayout.open(disk), disk


def _check_every_crash(n: int, ops, torn) -> int:
    """Crash *ops* at every device write; returns the number of points."""
    counting = FaultPlan()
    _write(n, ops, counting)
    tombstoned = {block_id for op, block_id in ops if op == "tombstone"}
    gaps = set(range(n)) - {block_id for _, block_id in ops}
    # Write 0 is the superblock: a crash there leaves no database.
    for crash_point in range(1, counting.writes + 1):
        disk, macros, begun = _write(
            n, ops, FaultPlan(crash_at_write=crash_point, torn_bytes=torn)
        )
        durable = _on_disk(disk, macros, 2)
        # A tombstone is a bare header, it never spans; one whose op
        # returned is on disk exactly when its macro block is.
        lost_tombstones = tombstoned & set(macros) - _on_disk(disk, macros, 1)
        data = disk.read(0, disk.size)
        bounded, bounded_disk = _recover(data, full=False)
        full, full_disk = _recover(data, full=True)
        where = f"crash@{crash_point}"
        # Bounded rescan == rescan from the superblock.
        assert recovered_tlb(bounded) == recovered_tlb(full), where
        assert bounded_disk.read(0, bounded_disk.size) == full_disk.read(
            0, full_disk.size
        ), where
        # Every written block reads back; nothing else reads as data.
        for block_id in durable:
            assert is_stored(bounded.tlb.lookup(block_id)), (where, block_id)
        for block_id in range(bounded.next_id):
            try:
                addr = bounded.tlb.lookup(block_id)
            except StorageError:
                continue
            if not is_stored(addr):
                continue
            if block_id in tombstoned:
                with pytest.raises(StorageError):
                    bounded.read_block(block_id)
            else:
                assert bounded.read_block(block_id) == block_bytes(block_id)
        # unmapped_ids: the open gaps below the next id, no written block.
        missing = set(unmapped_ids(bounded))
        assert not missing & durable, where
        open_gaps = {g for g in (gaps | tombstoned) - begun | lost_tombstones
                     if g < bounded.next_id}
        assert open_gaps <= missing, where
        if crash_point == counting.writes:  # the run completed
            assert missing == open_gaps, where
    return counting.writes


@st.composite
def out_of_order_writes(draw):
    """``(ids, ops)``: ids written in shuffled windows, a few gaps left
    open and, for most, tombstoned some writes later."""
    n = draw(st.integers(2 * B, 4 * B))
    gaps = sorted(draw(st.sets(st.integers(0, n - 1), max_size=3)))
    order = [i for i in range(n) if i not in gaps]
    width = draw(st.integers(2, 2 * B))
    # Start a window half a window in front of the first leaf boundary.
    phase = (B - width // 2) % width or width
    rng = draw(st.randoms(use_true_random=False))
    bounds = [0, *range(phase, len(order), width), len(order)]
    ops = []
    for lo, hi in zip(bounds, bounds[1:]):
        window = order[lo:hi]
        rng.shuffle(window)
        ops += [("write", i) for i in window]
    for gap in gaps:
        passed = next(
            (k + 1 for k, (_, i) in enumerate(ops) if i > gap), len(ops)
        )
        at = draw(st.one_of(st.none(), st.integers(passed, len(ops))))
        if at is not None:
            ops.insert(at, ("tombstone", gap))
    for at in sorted(draw(st.lists(st.integers(0, len(ops)), max_size=2)),
                     reverse=True):
        ops.insert(at, ("flush", None))
    return n, ops


@settings(max_examples=20, deadline=None)
@given(out_of_order_writes(), st.sampled_from([0, "half"]))
def test_bounded_rescan_recovers_what_a_full_rescan_does(workload, torn):
    n, ops = workload
    order = [block_id for op, block_id in ops if op == "write"]
    assume(any(a // B != b // B and a > b for a, b in zip(order, order[1:])))
    assert _check_every_crash(n, ops, torn) > 0


def test_a_flush_of_several_leaves_cut_short_loses_no_block():
    """Ids ``B .. 3B-1`` arrive before ``B-1``: two full leaves wait in
    the flank, and the three go out back to back once ``B-1`` lands.  A
    crash after the first of them leaves C-blocks in front of the last
    TLB leaf that no leaf on disk maps; the rescan must reach them."""
    n = 3 * B + 5
    ids = [*range(B - 1), *range(B, 3 * B), B - 1, *range(3 * B, n)]
    ops = [("write", i) for i in ids]
    plan = FaultPlan(record_trace=True)
    _write(n, ops, plan)
    leaf_writes = [
        index for index, (_, offset, nbytes) in enumerate(plan.trace)
        if nbytes == LBLOCK and offset >= SUPERBLOCK_SIZE
    ]
    # The three leaves land back to back.
    assert len(leaf_writes) >= 3
    assert leaf_writes[1] == leaf_writes[0] + 1
    for torn in (0, "half"):
        disk, _, _ = _write(
            n, ops, FaultPlan(crash_at_write=leaf_writes[1], torn_bytes=torn)
        )
        tlb_recovery._truncate_torn_tail(disk, LBLOCK)
        _, last = tlb_recovery._find_last_tlb_block(disk, LBLOCK)
        assert (last.level, last.number) == (0, 0)  # one leaf survived
        recovered, _ = _recover(disk.read(0, disk.size), full=False)
        # The first leaf's write closed the macro block holding them all.
        for block_id in range(3 * B):
            assert recovered.read_block(block_id) == block_bytes(block_id)
    _check_every_crash(n, ops, 0)


def test_deferred_leaves_keep_the_lookups():
    """While a mapping waits, full leaves stay in the flank and every
    lookup, update and ``is_flushed`` addresses them there."""
    disk = SimulatedDisk()
    layout = ChronicleLayout.create(
        disk, lblock_size=LBLOCK, macro_size=MACRO, compressor=ZlibCompressor()
    )
    for _ in range(3 * B):
        layout.allocate_id()
    for block_id in range(1, 2 * B + 3):
        layout.write_block(block_id, block_bytes(block_id))
    tlb = layout.tlb
    assert tlb.levels[0].number == 0 and tlb.next_slot == 0
    layout.write_block(0, block_bytes(0))
    # 2B + 3 entries: not whole leaves, so they wait.
    assert tlb.levels[0].number == 0 and len(tlb.levels[0].flank) == 2 * B + 3
    assert not tlb.is_flushed(B + 1)
    noise = random.Random(-1).randbytes(LBLOCK)
    assert layout.update_block(B + 1, noise)  # relocated: a new mapping
    expected = {i: block_bytes(i) for i in range(3 * B)}
    expected[B + 1] = noise
    for block_id in range(2 * B + 3):
        assert layout.read_block(block_id) == expected[block_id]
    for block_id in range(2 * B + 3, 3 * B):
        layout.write_block(block_id, block_bytes(block_id))
    assert tlb.levels[0].number == 3 and tlb.levels[0].flank == []
    assert tlb.is_flushed(3 * B - 1)
    for block_id in range(3 * B):
        assert layout.read_block(block_id) == expected[block_id]


# ------------------------------------------------------ count guard


SCHEMA = EventSchema.of("x", "y")


def _crashed_tree_store(tlb_leaves: int, leaves_after: int,
                        cut_at_leaf: bool = False):
    """A TAB+-tree store crashed *leaves_after* tree leaves past its
    *tlb_leaves*-th TLB leaf (*cut_at_leaf*: right behind that leaf):
    ``(device, C-blocks written after the last TLB leaf, C-blocks written
    between the last two)``."""
    device = DeviceProvider().data_device("s", 0)
    layout = ChronicleLayout.create(device, lblock_size=512, macro_size=2048)
    emitted = []
    emit = layout._emit

    def recorded(framed):
        addr = emit(framed)
        emitted.append(decode_addr(addr)[0])
        return addr

    layout._emit = recorded
    tree = TabTree(layout, SCHEMA)
    capacity = tree.leaf_write_capacity
    tlb = layout.tlb
    t = 0

    def one_leaf():
        nonlocal t
        tree.append_run(ColumnarEvents(
            list(range(t, t + capacity)),
            [[float(i % 97) for i in range(capacity)],
             [float(i % 7) for i in range(capacity)]],
        ))
        t += capacity

    while tlb.levels[0].number < tlb_leaves:
        one_leaf()
    for _ in range(leaves_after):
        one_leaf()
    tree.flush()  # the flank stays in memory: the crash loses it
    last = tlb.levels[0].prev_addr
    if cut_at_leaf:
        device.truncate(last + 512)
    previous = tlb._block_offset(0, tlb.levels[0].number - 2)
    on_disk = [offset for offset in emitted if offset + 2048 <= device.size]
    after = sum(1 for offset in on_disk if offset > last)
    between = sum(1 for offset in on_disk if previous < offset < last)
    return device, after, between


def _open_counted(device):
    """Open the store; returns the tail C-blocks rescanned and the bytes
    the rescan read."""
    read = []
    rescan = tlb_recovery._rescan_tail

    def counted(layout, *args):
        before = layout.device.stats.bytes_read
        rescan(layout, *args)
        read.append(layout.device.stats.bytes_read - before)

    obs.reset()
    obs.enable()
    try:
        with mock.patch.object(tlb_recovery, "_rescan_tail", counted):
            ChronicleLayout.open(device)
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()
    return counters.get("recovery.tail_blocks_rescanned", 0), read[0]


def test_tlb_recovery_rescans_only_the_tail():
    rescanned, tail_bytes = [], []
    for tlb_leaves in (3, 12):
        device, after, _ = _crashed_tree_store(tlb_leaves, leaves_after=9)
        assert after > 0
        blocks, read = _open_counted(device)
        assert 0 < blocks <= after
        rescanned.append(blocks)
        tail_bytes.append(read)
    # Four times the TLB leaves, the same tail: the same rescan.
    assert rescanned[0] == rescanned[1]
    assert tail_bytes[0] == tail_bytes[1]


def test_an_empty_tail_rescans_one_flush():
    """Only TLB blocks behind the last leaf: the rescan covers the data
    in front of it, back to the leaf before — one leaf's worth."""
    device, after, between = _crashed_tree_store(6, 0, cut_at_leaf=True)
    assert after == 0
    blocks, _ = _open_counted(device)
    assert 0 < blocks <= between


class _CountedReads:
    def __init__(self, disk):
        self.disk = disk
        self.reads = 0

    @property
    def size(self):
        return self.disk.size

    def read(self, offset, size):
        self.reads += 1
        return self.disk.read(offset, size)


@pytest.mark.parametrize("leaves", [0, 3])
def test_the_last_tlb_block_is_found_in_macro_sized_reads(leaves):
    """The backward search probed every L-block with a read of its own:
    on a file with no TLB leaf, one read per L-block of the file."""
    n = leaves * B + B - 1
    disk, _, _ = _write(n, [("write", i) for i in range(n)], FaultPlan())
    counted = _CountedReads(disk)
    found = tlb_recovery._find_last_tlb_block(counted, LBLOCK, MACRO)
    assert counted.reads <= -(-disk.size // MACRO) + 1
    if not leaves:
        assert found is None
        assert disk.size // LBLOCK > 3 * (-(-disk.size // MACRO) + 1)
    # Probing L-block by L-block finds the same block.
    by_lblock = tlb_recovery._find_last_tlb_block(disk, LBLOCK)
    assert (found is None) == (by_lblock is None)
    if found is not None:
        assert found[0] == by_lblock[0]
        assert found[1].level == 0 and found[1].number == leaves - 1
