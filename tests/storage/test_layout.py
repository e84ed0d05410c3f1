"""Integration tests for the interleaved storage layout."""

import random

import pytest

from repro.compression import NoneCompressor, OracleCompressor, ZlibCompressor
from repro.errors import StorageError
from repro.simdisk import HDD_2017, SimulatedClock, SimulatedDisk
from repro.storage import ChronicleLayout
from repro.storage.prefetch import SequentialBlockReader

LBLOCK = 256
MACRO = 1024


def make_layout(codec=None, macro_spare=0.0, disk=None):
    disk = disk or SimulatedDisk()
    layout = ChronicleLayout.create(
        disk,
        lblock_size=LBLOCK,
        macro_size=MACRO,
        compressor=codec or ZlibCompressor(),
        macro_spare=macro_spare,
    )
    return layout, disk


def block_bytes(seed: int, compressible: bool = True) -> bytes:
    rng = random.Random(seed)
    if compressible:
        pattern = bytes(rng.randrange(256) for _ in range(16))
        return (pattern * (LBLOCK // 16 + 1))[:LBLOCK]
    return bytes(rng.randrange(256) for _ in range(LBLOCK))


def test_append_read_roundtrip():
    layout, _ = make_layout()
    blocks = [block_bytes(i) for i in range(50)]
    ids = [layout.append_block(b) for b in blocks]
    assert ids == list(range(50))
    for i, original in zip(ids, blocks):
        assert layout.read_block(i) == original


def test_rejects_wrong_block_size():
    layout, _ = make_layout()
    with pytest.raises(StorageError):
        layout.append_block(b"small")


def test_incompressible_blocks_split_across_macros():
    layout, _ = make_layout(codec=NoneCompressor())
    blocks = [block_bytes(i, compressible=False) for i in range(20)]
    ids = [layout.append_block(b) for b in blocks]
    for i, original in zip(ids, blocks):
        assert layout.read_block(i) == original


def test_out_of_order_id_writes():
    layout, _ = make_layout()
    ids = [layout.allocate_id() for _ in range(6)]
    blocks = {i: block_bytes(i) for i in ids}
    for i in (1, 0, 3, 2, 5, 4):
        layout.write_block(i, blocks[i])
    for i in ids:
        assert layout.read_block(i) == blocks[i]


def test_write_unallocated_id_rejected():
    layout, _ = make_layout()
    with pytest.raises(StorageError):
        layout.write_block(5, block_bytes(0))


def test_update_block_in_place():
    layout, _ = make_layout(macro_spare=0.3)
    ids = [layout.append_block(block_bytes(i)) for i in range(40)]
    layout.flush()
    target = ids[3]
    new_data = block_bytes(9999)
    relocated = layout.update_block(target, new_data)
    assert layout.read_block(target) == new_data
    assert not relocated  # spare space absorbed the rewrite
    # Neighbours untouched.
    assert layout.read_block(ids[2]) == block_bytes(2)
    assert layout.read_block(ids[4]) == block_bytes(4)


def test_update_block_relocates_when_growing():
    layout, _ = make_layout(codec=ZlibCompressor(), macro_spare=0.0)
    ids = [layout.append_block(block_bytes(i)) for i in range(20)]
    layout.flush()
    # Incompressible replacement cannot fit where a compressed block was.
    new_data = block_bytes(777, compressible=False)
    relocated = layout.update_block(ids[2], new_data)
    assert relocated
    assert layout.read_block(ids[2]) == new_data
    assert layout.read_block(ids[1]) == block_bytes(1)


def test_update_block_twice_follows_reference():
    layout, _ = make_layout(macro_spare=0.0)
    ids = [layout.append_block(block_bytes(i)) for i in range(20)]
    layout.flush()
    first = block_bytes(500, compressible=False)
    second = block_bytes(501, compressible=False)
    layout.update_block(ids[0], first)
    layout.update_block(ids[0], second)
    assert layout.read_block(ids[0]) == second


def test_read_from_open_macro():
    layout, _ = make_layout()
    block_id = layout.append_block(block_bytes(1))
    # Macro not yet flushed; read must hit the in-memory builder.
    assert layout.read_block(block_id) == block_bytes(1)


def test_seal_and_clean_open():
    disk = SimulatedDisk()
    layout, _ = make_layout(disk=disk)
    blocks = [block_bytes(i) for i in range(120)]
    ids = [layout.append_block(b) for b in blocks]
    layout.seal({"root": 7, "height": 2})
    reopened = ChronicleLayout.open(disk)
    assert reopened.sealed_metadata == {"root": 7, "height": 2}
    assert reopened.next_id == 120
    for i, original in zip(ids, blocks):
        assert reopened.read_block(i) == original


def test_reopen_and_continue_appending():
    disk = SimulatedDisk()
    layout, _ = make_layout(disk=disk)
    for i in range(30):
        layout.append_block(block_bytes(i))
    layout.seal()
    reopened = ChronicleLayout.open(disk)
    new_id = reopened.append_block(block_bytes(1000))
    assert new_id == 30
    assert reopened.read_block(new_id) == block_bytes(1000)
    assert reopened.read_block(5) == block_bytes(5)


def test_open_rejects_codec_mismatch():
    disk = SimulatedDisk()
    layout, _ = make_layout(disk=disk)
    layout.append_block(block_bytes(0))
    layout.seal()
    with pytest.raises(StorageError):
        ChronicleLayout.open(disk, compressor=NoneCompressor())


def test_oracle_codec_layout_roundtrip():
    codec = OracleCompressor(rate=0.6)
    layout, _ = make_layout(codec=codec)
    ids = [layout.append_block(block_bytes(i)) for i in range(60)]
    for i in ids:
        assert layout.read_block(i) == block_bytes(i)


def test_sequential_reader_matches_random_reads():
    layout, _ = make_layout()
    blocks = [block_bytes(i) for i in range(150)]
    ids = [layout.append_block(b) for b in blocks]
    layout.flush()
    reader = SequentialBlockReader(layout)
    for i in ids:
        assert reader.get(i) == blocks[i]


def test_sequential_reader_subset_of_ids():
    layout, _ = make_layout()
    blocks = [block_bytes(i) for i in range(100)]
    for b in blocks:
        layout.append_block(b)
    layout.flush()
    reader = SequentialBlockReader(layout)
    for i in range(10, 100, 7):
        assert reader.get(i) == blocks[i]


def test_sequential_reader_is_mostly_sequential():
    clock = SimulatedClock()
    disk = SimulatedDisk(HDD_2017, clock)
    layout, _ = make_layout(disk=disk)
    for i in range(200):
        layout.append_block(block_bytes(i))
    layout.flush()
    before = disk.stats.snapshot()
    reader = SequentialBlockReader(layout)
    for i in range(200):
        reader.get(i)
    random_reads = disk.stats.random_reads - before.random_reads
    seq_reads = disk.stats.seq_reads - before.seq_reads
    assert random_reads <= 3  # initial positioning only
    assert seq_reads > 20


def test_interleaving_keeps_writes_sequential():
    clock = SimulatedClock()
    disk = SimulatedDisk(HDD_2017, clock)
    layout, _ = make_layout(disk=disk)
    for i in range(500):
        layout.append_block(block_bytes(i))
    layout.flush()
    # Every write in the ingest path is an append: zero random writes.
    assert disk.stats.random_writes == 0


def test_tombstone_fills_gap():
    layout, _ = make_layout()
    a = layout.allocate_id()
    gap = layout.allocate_id()
    c = layout.allocate_id()
    layout.write_block(a, block_bytes(a))
    layout.write_block(c, block_bytes(c))
    layout.write_tombstone(gap)
    assert layout.read_block(a) == block_bytes(a)
    assert layout.read_block(c) == block_bytes(c)
    with pytest.raises(StorageError):
        layout.read_block(gap)


def test_each_updated_block_is_compressed_once(monkeypatch):
    """Count guard: an update that follows a REF entry, and a group of
    updates that overflows its macro block and falls back to single
    rewrites, compress each updated L-block exactly once."""
    layout, _ = make_layout(macro_spare=0.0)
    ids = [layout.append_block(block_bytes(i)) for i in range(40)]
    layout.flush()
    original_addr = layout._resolve(ids[0])
    assert layout.update_block(ids[0], block_bytes(500, compressible=False))
    # A TLB that still names the original spot finds the REF entry there.
    layout.tlb.update(ids[0], original_addr)
    calls = []
    compress = ZlibCompressor.compress

    def counted(self, data):
        calls.append(len(data))
        return compress(self, data)

    monkeypatch.setattr(ZlibCompressor, "compress", counted)
    final = block_bytes(501, compressible=False)
    layout.update_block(ids[0], final)
    assert len(calls) == 1
    assert layout._resolve(ids[0]) != original_addr
    # Incompressible rewrites of one macro's blocks no longer fit it.
    updates = {i: block_bytes(600 + i, compressible=False) for i in ids[4:8]}
    assert layout.update_blocks(updates)
    assert len(calls) == 1 + len(updates)
    assert layout.read_block(ids[0]) == final
    for block_id, data in updates.items():
        assert layout.read_block(block_id) == data
