"""Physical addresses of C-blocks.

The paper represents the physical address of a C-block as a tuple
``(mb, p)`` — the position of its macro block and its offset within it
(Section 4.2.3).  We encode the pair into a single u64 so a TLB entry is
exactly 8 bytes: the macro block's file offset in the upper 48 bits and
the C-block's directory *index* within the macro block in the lower 16.
Using the index rather than a byte offset keeps addresses stable when
in-place updates shift the macro block's interior.
"""

from __future__ import annotations

from repro.errors import StorageError

#: Sentinel for "no address" in TLB entries and recovery references.
NULL_ADDR = (1 << 64) - 1

_INDEX_BITS = 16
#: Top byte of a reserved slot (format v2): the id belongs to an open
#: flank node, not written yet.  Real addresses stay below it.
_RESERVED_TAG = 0xFE
_MAX_OFFSET = _RESERVED_TAG << 40
_MAX_INDEX = 1 << _INDEX_BITS


def encode_addr(macro_offset: int, index: int) -> int:
    """Pack a (macro file offset, directory index) pair into a u64."""
    if not 0 <= macro_offset < _MAX_OFFSET:
        raise StorageError(f"macro offset out of range: {macro_offset}")
    if not 0 <= index < _MAX_INDEX:
        raise StorageError(f"C-block index out of range: {index}")
    return (macro_offset << _INDEX_BITS) | index


def decode_addr(addr: int) -> tuple[int, int]:
    """Unpack a u64 address into (macro file offset, directory index)."""
    if addr == NULL_ADDR or addr < 0:
        raise StorageError(f"cannot decode null/invalid address: {addr}")
    return addr >> _INDEX_BITS, addr & (_MAX_INDEX - 1)


def encode_reserved(level: int, prev_id: int) -> int:
    """The TLB entry of a reserved id (format v2): the level of the flank
    node that will be written there and the id of the node it follows
    (``-1``: none)."""
    return (_RESERVED_TAG << 56) | (level << 48) | (prev_id + 1)


def decode_reserved(addr: int) -> tuple[int, int] | None:
    """``(level, prev_id)`` of a reserved entry; ``None`` for anything else."""
    if addr >> 56 != _RESERVED_TAG:
        return None
    return (addr >> 48) & 0xFF, (addr & ((1 << 48) - 1)) - 1


def is_stored(addr: int) -> bool:
    """Whether a TLB entry addresses a written C-block (not the null
    sentinel, not a reserved slot)."""
    return addr >> 56 < _RESERVED_TAG
