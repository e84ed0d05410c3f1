"""The software translation lookaside buffer (TLB), paper Section 4.2.3.

Logical block ids are consecutive integers; the TLB maps them to physical
C-block addresses.  Mapping entries are grouped into TLB blocks of
L-block size that are written *behind* the C-blocks they refer to
(Section 4.3), and TLB blocks are themselves organized hierarchically:
level 0 holds C-block addresses, level ℓ ≥ 1 holds file offsets of level
ℓ−1 TLB blocks.  Because ids are consecutive, no routing keys are needed
— the child index is computed positionally (Algorithm 1), like the
implicit pointers of the CSB+-tree.

For recovery (Section 6.1, Algorithm 4) every TLB block stores the file
offset of its *predecessor on the same level* and of *its parent's
predecessor*; the right flank (one partially-filled block per level, plus
the root) lives only in memory and is reconstructed from those references
after a crash.

Ids may be written slightly out of order (the TAB+-tree allocates ids for
right-flank nodes eagerly so forward sibling links are stable; see
DESIGN.md).  ``put`` therefore buffers entries in ``pending`` until the id
sequence is contiguous.

The leaf flank is written out only when it holds whole leaves and no
mapping is pending; until then full leaves wait in memory, and the leaf
flank spans as many leaves as it holds.  So whenever a TLB leaf lands on
disk, every C-block written before it has its mapping on disk too, and
crash recovery rescans only what follows the last leaf
(:mod:`repro.recovery.tlb_recovery`).  The TAB+-tree reserves its flank
ids in order, so a tree-written file never defers a leaf: it flushes
each leaf the moment it fills, as the paper's TLB does.
"""

from __future__ import annotations

import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.errors import CorruptBlockError, StorageError
from repro.storage.addressing import NULL_ADDR
from repro.storage.constants import MAGIC_TLB, TLB_HEADER_SIZE

_HEADER = struct.Struct("<IIBBHQQQ")
#: TLB leaf blocks kept in the LRU cache.
_LEAF_CACHE_SIZE = 128


def entries_per_tlb_block(lblock_size: int) -> int:
    """How many 8-byte address entries fit into one TLB block."""
    capacity = (lblock_size - TLB_HEADER_SIZE) // 8
    if capacity < 2:
        raise StorageError(f"L-block size {lblock_size} too small for TLB blocks")
    return capacity


@dataclass
class TlbBlock:
    """A decoded TLB block."""

    level: int
    number: int  # sequence number of this block within its level
    prev: int  # file offset of the previous block on the same level
    prev_parent: int  # file offset of the parent's predecessor
    entries: list[int]


def encode_tlb_block(block: TlbBlock, lblock_size: int) -> bytes:
    """Serialize a TLB block into a padded, CRC-protected L-block unit."""
    out = bytearray(lblock_size)
    _HEADER.pack_into(
        out,
        0,
        MAGIC_TLB,
        0,
        block.level,
        0,
        len(block.entries),
        block.number,
        block.prev,
        block.prev_parent,
    )
    struct.pack_into(
        f"<{len(block.entries)}Q", out, TLB_HEADER_SIZE, *block.entries
    )
    struct.pack_into("<I", out, 4, zlib.crc32(out))
    return bytes(out)


def decode_tlb_block(data: bytes) -> TlbBlock:
    """Parse a TLB block, raising :class:`CorruptBlockError` if invalid."""
    if len(data) < TLB_HEADER_SIZE:
        raise CorruptBlockError("TLB block truncated")
    magic, crc, level, _, count, number, prev, prev_parent = _HEADER.unpack_from(data)
    if magic != MAGIC_TLB:
        raise CorruptBlockError(f"bad TLB magic: {magic:#x}")
    check = bytearray(data)
    struct.pack_into("<I", check, 4, 0)
    if zlib.crc32(check) != crc:
        raise CorruptBlockError("TLB block CRC mismatch")
    entries = list(struct.unpack_from(f"<{count}Q", data, TLB_HEADER_SIZE))
    return TlbBlock(level, number, prev, prev_parent, entries)


@dataclass
class _LevelState:
    """In-memory right flank of one TLB level."""

    number: int = 0  # sequence number of the currently open block
    flank: list[int] = field(default_factory=list)
    prev_addr: int = NULL_ADDR  # offset of the last flushed block on this level


class TlbTree:
    """In-memory manager of the TLB with persistence callbacks.

    Parameters
    ----------
    lblock_size:
        Unit size; TLB blocks are exactly this large.
    write_unit:
        Called with encoded TLB-block bytes; must append them to the
        database file and return the file offset (the layout closes the
        current macro block first, see Section 4.3).
    read_unit:
        Called with a file offset; must return ``lblock_size`` bytes.
    rewrite_unit:
        Called with (offset, bytes) to overwrite a TLB block in place
        (only used when relocated C-blocks update old mappings).
    """

    def __init__(
        self,
        lblock_size: int,
        write_unit: Callable[[bytes], int],
        read_unit: Callable[[int], bytes],
        rewrite_unit: Callable[[int, bytes], None] | None = None,
    ):
        self.lblock_size = lblock_size
        self.b = entries_per_tlb_block(lblock_size)
        self._write_unit = write_unit
        self._read_unit = read_unit
        self._rewrite_unit = rewrite_unit
        self.levels: list[_LevelState] = [_LevelState()]
        self.pending: dict[int, int] = {}
        self.next_slot = 0
        # Index levels (>= 1) are kept in memory entirely; leaf blocks go
        # through a small LRU cache (paper, Section 4.2.3).
        self._index_cache: dict[int, list[int]] = {}
        self._leaf_cache: OrderedDict[int, list[int]] = OrderedDict()

    # ------------------------------------------------------------------ put

    def put(self, block_id: int, addr: int) -> None:
        """Record the physical address of logical block *block_id*."""
        if block_id < self.next_slot or block_id in self.pending:
            raise StorageError(f"block id {block_id} already mapped")
        pending = self.pending
        pending[block_id] = addr
        flank = self.levels[0].flank
        while self.next_slot in pending:
            flank.append(pending.pop(self.next_slot))
            self.next_slot += 1
        if not pending and len(flank) % self.b == 0:
            while flank:
                self._flush_level(0)

    def _flush_level(self, level: int) -> None:
        """Write the first block's worth of *level*'s flank out."""
        state = self.levels[level]
        if level + 1 >= len(self.levels):
            self.levels.append(_LevelState())
        parent = self.levels[level + 1]
        block = TlbBlock(
            level=level,
            number=state.number,
            prev=state.prev_addr,
            prev_parent=parent.prev_addr,
            entries=state.flank[: self.b],
        )
        offset = self._write_unit(encode_tlb_block(block, self.lblock_size))
        if level == 0:
            self._cache_leaf(offset, block.entries)
        else:
            self._index_cache[offset] = block.entries
        state.prev_addr = offset
        state.number += 1
        del state.flank[: self.b]
        parent.flank.append(offset)
        if len(parent.flank) == self.b:
            self._flush_level(level + 1)

    # --------------------------------------------------------------- lookup

    def lookup(self, block_id: int) -> int:
        """Physical address of logical block *block_id* (Algorithm 1)."""
        if block_id in self.pending:
            return self.pending[block_id]
        if not 0 <= block_id < self.next_slot:
            raise StorageError(f"block id {block_id} not mapped")
        leaf = self.levels[0]
        if block_id >= leaf.number * self.b:
            return leaf.flank[block_id - leaf.number * self.b]
        leaf_no, slot = divmod(block_id, self.b)
        return self._leaf_entries(self._block_offset(0, leaf_no))[slot]

    def _block_offset(self, level: int, number: int) -> int:
        """File offset of flushed TLB block *number* at *level*."""
        parent_level = level + 1
        if parent_level >= len(self.levels):
            raise StorageError(f"TLB block {number}@{level} beyond tree height")
        parent_number, slot = divmod(number, self.b)
        parent = self.levels[parent_level]
        if parent_number == parent.number:
            if slot >= len(parent.flank):
                raise StorageError(f"TLB block {number}@{level} not flushed")
            return parent.flank[slot]
        parent_offset = self._block_offset(parent_level, parent_number)
        return self._index_entries(parent_offset)[slot]

    def _index_entries(self, offset: int) -> list[int]:
        entries = self._index_cache.get(offset)
        if entries is None:
            entries = decode_tlb_block(self._read_unit(offset)).entries
            self._index_cache[offset] = entries
        return entries

    def _leaf_entries(self, offset: int) -> list[int]:
        entries = self._leaf_cache.get(offset)
        if entries is None:
            entries = decode_tlb_block(self._read_unit(offset)).entries
            self._cache_leaf(offset, entries)
        else:
            self._leaf_cache.move_to_end(offset)
        return entries

    def _cache_leaf(self, offset: int, entries: list[int]) -> None:
        self._leaf_cache[offset] = entries
        self._leaf_cache.move_to_end(offset)
        while len(self._leaf_cache) > _LEAF_CACHE_SIZE:
            self._leaf_cache.popitem(last=False)

    def leaves(self) -> Iterator[tuple[int, list[int]]]:
        """Yield ``(first id, entries)`` of every leaf, the flank last.

        A leaf outside the cache is read without entering it, so one
        pass over more leaves than the cache holds evicts none it will
        still visit.  Do not mutate a yielded list.
        """
        flushed = self.levels[0].number
        for leaf_no in range(flushed):
            offset = self._block_offset(0, leaf_no)
            entries = self._leaf_cache.get(offset)
            if entries is None:
                entries = decode_tlb_block(self._read_unit(offset)).entries
            yield leaf_no * self.b, entries
        yield flushed * self.b, self.levels[0].flank

    def is_flushed(self, block_id: int) -> bool:
        """Whether *block_id*'s entry lives in a TLB leaf on disk."""
        return 0 <= block_id < self.levels[0].number * self.b

    # --------------------------------------------------------------- update

    def update(self, block_id: int, addr: int) -> None:
        """Re-point *block_id* after its C-block was relocated (Section 5.7)."""
        if block_id in self.pending:
            self.pending[block_id] = addr
            return
        if not 0 <= block_id < self.next_slot:
            raise StorageError(f"block id {block_id} not mapped")
        leaf = self.levels[0]
        if block_id >= leaf.number * self.b:
            leaf.flank[block_id - leaf.number * self.b] = addr
            return
        leaf_no, slot = divmod(block_id, self.b)
        offset = self._block_offset(0, leaf_no)
        block = decode_tlb_block(self._read_unit(offset))
        block.entries[slot] = addr
        if self._rewrite_unit is None:
            raise StorageError("TLB has no rewrite callback; cannot relocate")
        self._rewrite_unit(offset, encode_tlb_block(block, self.lblock_size))
        self._cache_leaf(offset, block.entries)

    # ---------------------------------------------------------- persistence

    def state_dict(self) -> dict:
        """JSON-serializable snapshot for the commit block (clean close)."""
        return {
            "next_slot": self.next_slot,
            "pending": sorted(self.pending.items()),
            "levels": [
                {
                    "number": s.number,
                    "flank": list(s.flank),  # copy: the flank keeps mutating
                    "prev_addr": s.prev_addr,
                }
                for s in self.levels
            ],
        }

    def restore_state(self, state: dict) -> None:
        """Load a snapshot produced by :meth:`state_dict`."""
        self.next_slot = state["next_slot"]
        self.pending = {int(k): v for k, v in state["pending"]}
        self.levels = [
            _LevelState(s["number"], list(s["flank"]), s["prev_addr"])
            for s in state["levels"]
        ]

    @property
    def mapped_count(self) -> int:
        """Number of logical blocks with a durable-or-buffered mapping."""
        return self.next_slot + len(self.pending)
