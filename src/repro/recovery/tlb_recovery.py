"""TLB recovery — Algorithm 4 of the paper.

After a crash, the TLB's root and right flank (one partially-filled block
per level) are gone; everything flushed to disk is intact.  Recovery:

1. Scan *backward* from the end of the file, at L-block granularity, for
   the last successfully written TLB block (self-identifying magic + CRC;
   the scan is bounded because at least one TLB block exists per
   ``entries_per_tlb_block`` data blocks).
2. Rebuild the right flank of every level from the two references each
   TLB block carries: ``prev`` (same level) and ``prev_parent`` (the
   parent's predecessor).  Blocks sharing a ``prev_parent`` belong to the
   same open parent — walking the ``prev`` chain until ``prev_parent``
   changes yields exactly the parent's in-memory entries at crash time.
3. Rescan the macro blocks written after the last flushed TLB leaf and
   re-insert their C-block ids; ids are embedded in every C-block header
   precisely for this purpose.

The rescan starts right behind the last TLB leaf, and that bound is
exact: the TLB writes its leaf flank out only when it holds whole leaves
and no out-of-order mapping waits (:class:`~repro.storage.tlb.TlbTree`),
so every C-block in front of a leaf on disk is mapped by a leaf on disk.
One crash point needs more: a flush of several leaves (leaves held back
while ids arrived out of order) cut short after its first leaves.  The
leaves it lost map C-blocks in front of the ones it wrote, and nothing
but TLB blocks follows the last leaf.  Recovery cannot tell that from a
flush that completed just before the crash, so whenever no data follows
the last leaf the rescan starts behind the flush before it instead: the
data of one flush.  Either way recovery reads the tail, not the
database, the property Figure 10 demonstrates.

For a format-v2 file the pass also collects what tree recovery needs to
rebuild the TAB+-tree's flank without reading every node
(:class:`RecoveredTail`): the header of every block written after the
last TLB leaf (and of the block whose mapping filled it), and every
reserved or unwritten id below the recovered TLB's end.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro import obs
from repro.errors import CorruptBlockError, RecoveryError, StorageError
from repro.obs import OBS
from repro.storage.addressing import (
    NULL_ADDR,
    decode_addr,
    decode_reserved,
    encode_addr,
    is_stored,
)
from repro.storage.cblock import decode_cblock
from repro.storage.constants import MAGIC_TLB, SUPERBLOCK_SIZE, TAIL_PREFIX_SIZE
from repro.storage.macro import MacroBuilder
from repro.storage.tlb import TlbBlock, _LevelState, decode_tlb_block
from repro.storage.walker import iter_cblocks


#: Bytes a compressed C-block may exceed its L-block by: the C-block
#: header plus what a codec adds to incompressible input.
CBLOCK_SLACK = 64
#: C-blocks the tail rescans visited (one increment per rescan).
_M_RESCANNED = OBS.counter("recovery.tail_blocks_rescanned")


@dataclass
class RecoveredTail:
    """What TLB recovery of a v2 file hands to tree recovery.

    ``fresh_from`` is the id whose mapping filled the last flushed TLB
    leaf: every node allocated from then on (the right half of a split
    the crash interrupted included) has an id at or above it, and
    ``headers`` holds it — the leading :data:`TAIL_PREFIX_SIZE` bytes of
    the L-block of that id and of every block written after the last
    TLB leaf (only the copy the TLB maps; tombstones and other sizes
    excluded).
    ``reserved`` maps each reserved id below the TLB's end to its
    ``(level, prev_id)``; ``doubtful`` lists ids the walk cannot trust:
    below the TLB's end with no block and no placeholder (a phantom
    mapping reset after the crash), or a block that does not read back.
    """

    fresh_from: int = 0
    headers: dict[int, bytes] = field(default_factory=dict)
    reserved: dict[int, tuple[int, int]] = field(default_factory=dict)
    doubtful: list[int] = field(default_factory=list)


def recover_tlb(layout) -> None:
    """Rebuild *layout*'s TLB in place after a crash."""
    device = layout.device
    lblock = layout.lblock_size
    tail = RecoveredTail() if layout.format_version >= 2 else None
    with obs.span("recovery.tlb"):
        with obs.span("recovery.tlb.locate"):
            _truncate_torn_tail(device, lblock)
            last = _find_last_tlb_block(device, lblock)
        header_start = scan_start = SUPERBLOCK_SIZE
        if last is not None:
            offset, block = last
            with obs.span("recovery.tlb.rebuild_flanks"):
                _rebuild_flanks(layout, offset, block)
            header_start = layout.tlb.levels[0].prev_addr + lblock
            scan_start = _scan_start_offset(layout)
            if tail is not None:
                tail.fresh_from = layout.tlb.levels[0].number * layout.tlb.b - 1
        with obs.span("recovery.tlb.rescan_tail"):
            _rescan_tail(layout, scan_start, header_start, tail)
        _normalize_flanks(layout)
        _drop_phantom_mappings(layout, tail)
        if tail is not None and last is not None:
            _add_header(layout, tail, tail.fresh_from)
    layout.recovered_tail = tail


def _add_header(layout, tail: RecoveredTail, block_id: int) -> None:
    """Put *block_id*'s header in *tail*, if it is a stored L-block."""
    if block_id in tail.headers or not is_stored(layout.tlb.lookup(block_id)):
        return
    try:
        _, original_len, payload = decode_cblock(layout.read_framed(block_id))
    except (CorruptBlockError, StorageError):
        tail.doubtful.append(block_id)
        return
    if original_len == layout.lblock_size:
        tail.headers[block_id] = layout.codec.decompress_prefix(
            payload, original_len, TAIL_PREFIX_SIZE
        )


def _truncate_torn_tail(device, lblock: int) -> None:
    """Drop a partially written unit at the end of the device."""
    usable = device.size - SUPERBLOCK_SIZE
    if usable < 0:
        raise RecoveryError("device smaller than a superblock")
    aligned = SUPERBLOCK_SIZE + (usable // lblock) * lblock
    if aligned < device.size:
        device.truncate(aligned)


def _find_last_tlb_block(device, lblock: int) -> tuple[int, TlbBlock] | None:
    """Backward scan for the last valid TLB block (step 1 of Algorithm 4).

    Each L-block is probed by its magic alone; only a match is read whole.
    """
    offset = device.size - lblock
    while offset >= SUPERBLOCK_SIZE:
        if _magic(device, offset) == MAGIC_TLB:
            try:
                return offset, decode_tlb_block(device.read(offset, lblock))
            except CorruptBlockError:
                pass  # payload bytes that merely look like a TLB block
        offset -= lblock
    return None


def _magic(device, offset: int) -> int:
    return struct.unpack("<I", device.read(offset, 4))[0]


def _read_tlb(layout, offset: int) -> TlbBlock:
    return decode_tlb_block(layout.device.read(offset, layout.lblock_size))


def _rebuild_flanks(layout, last_offset: int, last: TlbBlock) -> None:
    """Steps 2 of Algorithm 4: reconstruct the in-memory right flank."""
    tlb = layout.tlb
    states: dict[int, _LevelState] = {}

    # Levels at and below the last block's level flushed in the same
    # cascade; their flanks are empty and their predecessors reachable by
    # descending through last entries.
    states[last.level] = _LevelState(
        number=last.number + 1, flank=[], prev_addr=last_offset
    )
    descend = last
    for level in range(last.level - 1, -1, -1):
        child_offset = descend.entries[-1]
        descend = _read_tlb(layout, child_offset)
        if descend.level != level:
            raise RecoveryError(
                f"TLB descent expected level {level}, found {descend.level}"
            )
        states[level] = _LevelState(
            number=descend.number + 1, flank=[], prev_addr=child_offset
        )

    # Climb: at each level, blocks sharing the last block's `prev_parent`
    # form the parent's open flank.  The leaves read on the way are cached
    # for the phantom-mapping pass, which reads every leaf.
    if last.level == 0:
        tlb._cache_leaf(last_offset, last.entries)
    current, current_offset, level = last, last_offset, last.level
    while True:
        group = [current_offset]
        prev = current.prev
        while prev != NULL_ADDR:
            candidate = _read_tlb(layout, prev)
            if level == 0:
                tlb._cache_leaf(prev, candidate.entries)
            if candidate.prev_parent != current.prev_parent:
                break
            group.append(prev)
            prev = candidate.prev
        group.reverse()
        flushed_above = (current.number + 1 - len(group)) // tlb.b
        states[level + 1] = _LevelState(
            number=flushed_above, flank=group, prev_addr=current.prev_parent
        )
        if current.prev_parent == NULL_ADDR:
            break
        current_offset = current.prev_parent
        current = _read_tlb(layout, current_offset)
        level += 1
        if current.level != level:
            raise RecoveryError(
                f"TLB climb expected level {level}, found {current.level}"
            )

    top = max(states)
    tlb.levels = [states[i] for i in range(top + 1)]
    tlb.pending = {}
    tlb.next_slot = states[0].number * tlb.b


def _scan_start_offset(layout) -> int:
    """File offset the tail rescan starts at: right behind the last TLB
    leaf, or behind the flush before it when only TLB blocks follow."""
    device, lblock = layout.device, layout.lblock_size
    offset = layout.tlb.levels[0].prev_addr
    end = device.size
    # Leaves of one flush lie back to back, with only the index blocks of
    # their cascades between them.
    while _only_tlb_blocks(device, lblock, offset + lblock, end):
        end = offset
        offset = _read_tlb(layout, offset).prev
        if offset == NULL_ADDR:
            return SUPERBLOCK_SIZE
    return offset + lblock


def _only_tlb_blocks(device, lblock: int, start: int, end: int) -> bool:
    """Whether every unit from *start* up to *end* is a TLB block."""
    for offset in range(start, end, lblock):
        if _magic(device, offset) != MAGIC_TLB:
            return False
    return True


def _rescan_tail(layout, start_offset: int, header_start: int,
                 tail: RecoveredTail | None) -> None:
    """Step 3: re-map C-blocks of the tail from their embedded ids.

    A tail block's id may fall into three cases: never mapped (regular
    tail data), mapped to a placeholder (a reserved flank slot whose TLB
    leaf flushed before the node was written — the write's TLB update was
    in memory only), or mapped to a real address (a relocated copy whose
    original carries a reference entry) — only the last is skipped.
    Blocks from *header_start* on also leave their header in *tail*.
    """
    tlb = layout.tlb
    max_id = tlb.next_slot - 1
    header_addr = encode_addr(header_start, 0)
    rescanned = 0
    for addr, framed in iter_cblocks(
        layout.device, layout.lblock_size, layout.macro_size, start_offset
    ):
        rescanned += 1
        try:
            block_id, original_len, payload = decode_cblock(framed)
        except CorruptBlockError:
            continue  # stale fragment behind a relocated block
        max_id = max(max_id, block_id)
        if block_id >= tlb.next_slot and block_id not in tlb.pending:
            tlb.put(block_id, addr)
        elif not is_stored(tlb.lookup(block_id)):
            tlb.update(block_id, addr)
        if (
            tail is not None
            and original_len == layout.lblock_size
            and addr >= header_addr
            and tlb.lookup(block_id) == addr
        ):
            tail.headers[block_id] = layout.codec.decompress_prefix(
                payload, original_len, TAIL_PREFIX_SIZE
            )
    if OBS.enabled:
        _M_RESCANNED.inc(rescanned)
    layout._next_id = max(layout._next_id, max_id + 1)
    layout.block_count = tlb.mapped_count


def _normalize_flanks(layout) -> None:
    """Flush any index flank that reached capacity mid-cascade at crash
    time (the leaf flank is the TLB's own to flush)."""
    tlb = layout.tlb
    level = 1
    while level < len(tlb.levels):
        if len(tlb.levels[level].flank) >= tlb.b:
            tlb._flush_level(level)
        level += 1


def _drop_phantom_mappings(layout, tail: RecoveredTail | None) -> None:
    """Reset TLB entries that point past the end of the surviving data.

    A file last written by a layout that re-pointed a reserved slot as
    soon as its block entered the *open* macro (an in-place rewrite of
    an already-flushed TLB leaf, before ``ChronicleLayout._map`` held it
    back) can hold a durable TLB entry whose macro block the crash
    swallowed.  Such addresses lie at or beyond the truncated device end
    (macro blocks are appended, and the crash cuts everything from its
    write on), so they are detectable without reading any data — except
    a C-block whose first fragment survived in the last macro blocks
    while its continuation did not; those few macros are read.  The
    slot reverts to the null placeholder: the id is simply still lost.

    The same pass fills *tail*'s ``reserved`` and ``doubtful`` ids.
    """
    tlb = layout.tlb
    size = layout.device.size
    # Addresses grow with the macro offset: below this one, a C-block is
    # whole (see _cut_by_crash).
    reach = _max_span(layout) * layout.macro_size
    whole_below = encode_addr(max(0, size - reach), 0)
    for first, entries in tlb.leaves():
        for block_id, addr in enumerate(entries, first):
            if addr < whole_below:
                continue  # stored, and whole (placeholders sort above)
            if is_stored(addr):
                if not _cut_by_crash(layout, addr, size):
                    continue
                tlb.update(block_id, NULL_ADDR)
                addr = NULL_ADDR
            if tail is None:
                continue
            reserved = decode_reserved(addr)
            if reserved is None:
                tail.doubtful.append(block_id)
            else:
                tail.reserved[block_id] = reserved


def _max_span(layout) -> int:
    """Most macro blocks one C-block (an L-block plus framing) spans."""
    room = MacroBuilder(layout.macro_size, layout.macro_spare_bytes, True).room()
    return 1 + -(-(layout.lblock_size + CBLOCK_SLACK) // max(1, room))


def _cut_by_crash(layout, addr: int, size: int) -> bool:
    """Whether the C-block at *addr* reaches past the first *size* bytes."""
    offset, index = decode_addr(addr)
    macro = layout.macro_size
    reach = _max_span(layout) * macro
    while offset + reach > size:
        if offset + macro > size:
            return True
        entries, _, _ = layout._read_macro(offset)
        if index >= len(entries) or not entries[index].continues_next:
            return False
        offset, index = offset + macro, 0
    return False


def unmapped_ids(layout) -> list[int]:
    """Allocated ids with no stored block (the tree's in-memory flank).

    The tree-recovery step claims these for the reconstructed right-flank
    nodes; whatever remains unclaimed must be tombstoned so the positional
    TLB can advance.
    """
    tlb = layout.tlb
    return [
        block_id
        for block_id in range(tlb.next_slot, layout.next_id)
        if block_id not in tlb.pending
    ]
