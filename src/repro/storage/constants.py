"""Physical format constants shared across the storage layout."""

from __future__ import annotations

from repro.errors import StorageError

#: Default L-block size: the paper's standard setting (Section 7.1).
DEFAULT_LBLOCK_SIZE = 8192
#: Default macro block size: the paper's standard setting (Section 7.1).
DEFAULT_MACRO_SIZE = 32768

#: The superblock is a fixed 4 KiB so it can be read before parameters
#: are known.
SUPERBLOCK_SIZE = 4096

#: Unit magics — every physical unit is self-identifying so backward
#: scans during recovery can classify blocks (DESIGN.md).
MAGIC_SUPER = 0x53424443  # "CDBS"
MAGIC_MACRO = 0x4D424443  # "CDBM"
MAGIC_TLB = 0x54424443  # "CDBT"
MAGIC_COMMIT = 0x43424443  # "CDBC"

#: C-block entry flags, stored in the upper bits of each macro-block
#: directory entry (lower 27 bits carry the fragment size).
ENTRY_SIZE_MASK = (1 << 27) - 1
ENTRY_REF = 1 << 27  # C-block was relocated; payload holds the new address
ENTRY_CONT_NEXT = 1 << 28  # fragment continues in the next macro block
ENTRY_CONT_PREV = 1 << 29  # fragment continues a previous macro block
ENTRY_TOMBSTONE = 1 << 30  # id slot filled by recovery; no data

#: Macro-block flags.
MACRO_FLAG_CONT = 1  # first entry is the continuation of the previous macro

#: Do not bother splitting a C-block if fewer bytes than this remain.
MIN_FRAGMENT = 64

#: Per-C-block header: id (u64) + original length (u32) + payload crc (u32).
CBLOCK_HEADER_SIZE = 16

#: Macro-block header: magic, crc, count, flags, spare (informational).
MACRO_HEADER_SIZE = 16

#: TLB-block header: magic, crc, level, flags, count, number, prev,
#: prev_parent (see :mod:`repro.storage.tlb`).
TLB_HEADER_SIZE = 36

#: On-disk format versions, named by the ``"format"`` string of the
#: superblock and of the store manifest (DESIGN.md, "File format
#: versions").  v1 files predate the check and open forever; v2 TLB
#: slots of reserved flank nodes name the node's level and predecessor;
#: v3 leaf C-blocks are column-aware (:mod:`repro.compression.zlibc`).
FORMATS = {
    "chronicledb-repro-v1": 1,
    "chronicledb-repro-v2": 2,
    "chronicledb-repro-v3": 3,
}
FORMAT_VERSION = 3

#: Leading bytes of each tail L-block that TLB recovery hands to tree
#: recovery: one TAB+-tree node header.
TAIL_PREFIX_SIZE = 40


def format_name(version: int) -> str:
    return f"chronicledb-repro-v{version}"


def parse_format(name) -> int:
    """The version a ``"format"`` string names; unknown ones are refused."""
    version = FORMATS.get(name)
    if version is None:
        raise StorageError(f"unknown file format {name!r}")
    return version
