"""Tests for the unit walker and the sequential prefetcher."""

import random

from repro.compression import ZlibCompressor
from repro.simdisk import HDD_2017, SimulatedClock, SimulatedDisk
from repro.storage import ChronicleLayout
from repro.storage.cblock import decode_cblock
from repro.storage.constants import SUPERBLOCK_SIZE
from repro.storage.prefetch import SequentialBlockReader
from repro.storage.walker import iter_cblocks, walk_units

LBLOCK = 256
MACRO = 1024


def block_for(seed: int) -> bytes:
    rng = random.Random(seed)
    pattern = bytes(rng.randrange(256) for _ in range(32))
    return (pattern * (LBLOCK // 32 + 1))[:LBLOCK]


def build(n, seal=False):
    disk = SimulatedDisk()
    layout = ChronicleLayout.create(
        disk, lblock_size=LBLOCK, macro_size=MACRO, compressor=ZlibCompressor()
    )
    blocks = {layout.append_block(block_for(i)): block_for(i) for i in range(n)}
    if seal:
        layout.seal()
    else:
        layout.flush()
    return disk, layout, blocks


def test_walk_units_classifies_stream():
    disk, layout, _ = build(60)
    kinds = [kind for kind, _, _ in
             walk_units(disk, LBLOCK, MACRO, SUPERBLOCK_SIZE)]
    assert "macro" in kinds
    assert "tlb" in kinds
    # Macro blocks dominate; TLB blocks appear every ~27 C-blocks.
    assert kinds.count("macro") > kinds.count("tlb")


def test_walk_units_skips_commit_records():
    disk, layout, blocks = build(40, seal=True)
    kinds = [kind for kind, _, _ in
             walk_units(disk, LBLOCK, MACRO, SUPERBLOCK_SIZE)]
    assert kinds.count("commit") == 1
    # Appending after the commit keeps the stream walkable.
    layout.append_block(block_for(1000))
    layout.flush()
    kinds = [kind for kind, _, _ in
             walk_units(disk, LBLOCK, MACRO, SUPERBLOCK_SIZE)]
    assert kinds[-1] == "macro"


def test_iter_cblocks_yields_every_block_once():
    disk, layout, blocks = build(80)
    seen = {}
    for addr, framed in iter_cblocks(disk, LBLOCK, MACRO, SUPERBLOCK_SIZE):
        block_id, original_len, payload = decode_cblock(framed)
        seen[block_id] = (addr, original_len)
    assert sorted(seen) == sorted(blocks)
    # Addresses must agree with the TLB's view.
    for block_id, (addr, _) in seen.items():
        assert layout.tlb.lookup(block_id) == addr


def test_iter_cblocks_reassembles_fragments():
    disk = SimulatedDisk()
    layout = ChronicleLayout.create(
        disk, lblock_size=LBLOCK, macro_size=MACRO, compressor="none"
    )
    # Incompressible blocks exceed macro capacity and must fragment.
    blocks = {}
    for i in range(12):
        rng = random.Random(i)
        data = bytes(rng.randrange(256) for _ in range(LBLOCK))
        blocks[layout.append_block(data)] = data
    layout.flush()
    count = sum(1 for _ in iter_cblocks(disk, LBLOCK, MACRO, SUPERBLOCK_SIZE))
    assert count == 12


def test_prefetcher_restart_gap_skips_ahead():
    clock = SimulatedClock()
    disk = SimulatedDisk(HDD_2017, clock)
    layout = ChronicleLayout.create(
        disk, lblock_size=LBLOCK, macro_size=MACRO, compressor=ZlibCompressor()
    )
    blocks = {layout.append_block(block_for(i)): block_for(i)
              for i in range(600)}
    layout.flush()
    reader = SequentialBlockReader(layout, restart_gap=16)
    assert reader.get(0) == blocks[0]
    read_before = disk.stats.bytes_read
    # Jumping 500 ids ahead must NOT stream through the gap.
    assert reader.get(500) == blocks[500]
    assert disk.stats.bytes_read - read_before < 60 * LBLOCK


def test_prefetcher_backward_request_falls_back():
    disk, layout, blocks = build(50)
    reader = SequentialBlockReader(layout)
    assert reader.get(30) == blocks[30]
    assert reader.get(10) == blocks[10]  # non-monotone: random fallback
    assert reader.get(40) == blocks[40]


def test_prefetcher_serves_open_macro_blocks():
    disk = SimulatedDisk()
    layout = ChronicleLayout.create(
        disk, lblock_size=LBLOCK, macro_size=MACRO, compressor=ZlibCompressor()
    )
    block_id = layout.append_block(block_for(0))  # still in the open macro
    reader = SequentialBlockReader(layout)
    assert reader.get(block_id) == block_for(0)
