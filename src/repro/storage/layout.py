"""The overall storage layout (paper, Sections 4.2–4.3).

A database file is a superblock followed by a single append-only stream of
*units*: macro blocks (data) interleaved with TLB blocks (mapping), plus an
optional commit footer written on clean close.  A TLB block always refers
to the C-blocks *preceding* it, so ingestion never buffers data blocks nor
performs random writes — the paper's "second solution" in Section 4.3.

`ChronicleLayout` is the full design; `SeparateLayout`
(:mod:`repro.storage.separate`) is the baseline that stores the mapping in
a separate file and exists to reproduce Figure 9.
"""

from __future__ import annotations

import json
import struct
import zlib
from collections import OrderedDict
from dataclasses import dataclass

from repro.compression import Compressor, get_compressor
from repro.errors import CorruptBlockError, StorageError
from repro.obs import OBS
from repro.storage.addressing import (
    NULL_ADDR,
    decode_addr,
    encode_addr,
    encode_reserved,
    is_stored,
)
from repro.storage.cblock import decode_cblock, encode_cblock
from repro.storage.constants import (
    DEFAULT_LBLOCK_SIZE,
    DEFAULT_MACRO_SIZE,
    ENTRY_CONT_NEXT,
    ENTRY_CONT_PREV,
    ENTRY_REF,
    ENTRY_TOMBSTONE,
    FORMAT_VERSION,
    MAGIC_COMMIT,
    MAGIC_SUPER,
    MIN_FRAGMENT,
    SUPERBLOCK_SIZE,
    format_name,
    parse_format,
)
from repro.storage.macro import MacroBuilder, MacroEntry, decode_macro, encode_macro
from repro.storage.tlb import TlbTree

_SUPER_HEADER = struct.Struct("<III")  # magic, crc, json length
_COMMIT = struct.Struct("<IIII")  # magic, crc of payload, payload length, is_footer


@dataclass
class _OpenMacro:
    offset: int
    builder: MacroBuilder


class _MacroEmitter:
    """Shared machinery for packing C-blocks into macro blocks.

    Subclasses provide the mapping strategy (interleaved TLB vs. separate
    file) by overriding :meth:`_record_mapping` and :meth:`_resolve`.
    """

    def __init__(
        self,
        device,
        lblock_size: int = DEFAULT_LBLOCK_SIZE,
        macro_size: int = DEFAULT_MACRO_SIZE,
        compressor: Compressor | str = "zlib",
        macro_spare: float = 0.0,
    ):
        if macro_size % lblock_size != 0:
            raise StorageError(
                f"macro size {macro_size} is not a multiple of L-block size"
                f" {lblock_size} (required for recovery, Section 4.2.2)"
            )
        if not 0.0 <= macro_spare < 0.9:
            raise StorageError(f"macro spare fraction out of range: {macro_spare}")
        self.device = device
        self.lblock_size = lblock_size
        self.macro_size = macro_size
        self.codec = (
            compressor if isinstance(compressor, Compressor) else get_compressor(compressor)
        )
        self.macro_spare_bytes = int(macro_size * macro_spare)
        self.clock = device.clock
        self._macro: _OpenMacro | None = None
        self._macro_cache: OrderedDict[int, tuple[list[MacroEntry], int, int]] = (
            OrderedDict()
        )
        self._macro_cache_size = 16
        self._next_id = 0
        self.block_count = 0
        # Observability (DESIGN.md, "Observability"): metrics are bound
        # once here; hot paths only pay an `if OBS.enabled:` check.
        self._m_lblock_writes = OBS.counter("storage.lblock_writes")
        self._m_macro_blocks = OBS.counter("storage.macro_blocks")
        self._m_macro_fill = OBS.histogram("storage.macro.fill")
        self._m_compress_ratio = OBS.histogram(
            f"storage.compress.ratio.{self.codec.name}"
        )

    # ----------------------------------------------------------- public API

    def allocate_id(self) -> int:
        """Reserve the next logical block id (used for stable sibling links)."""
        block_id = self._next_id
        self._next_id += 1
        return block_id

    @property
    def next_id(self) -> int:
        return self._next_id

    def append_block(self, data: bytes) -> int:
        """Compress and store an L-block; returns its logical id."""
        block_id = self.allocate_id()
        self.write_block(block_id, data)
        return block_id

    def write_block(self, block_id: int, data: bytes) -> None:
        """Store an L-block under a previously allocated id."""
        if len(data) != self.lblock_size:
            raise StorageError(
                f"L-block must be exactly {self.lblock_size} bytes, got {len(data)}"
            )
        if block_id >= self._next_id:
            raise StorageError(f"id {block_id} was never allocated")
        framed = encode_cblock(block_id, len(data), self._compress(data))
        addr = self._emit(framed)
        self._record_mapping(block_id, addr)
        self.block_count += 1
        if OBS.enabled:
            self._m_lblock_writes.inc()

    def read_block(self, block_id: int) -> bytes:
        """Load and decompress the L-block with logical id *block_id*."""
        framed = self.read_framed(block_id)
        found_id, original_len, payload = decode_cblock(framed)
        if found_id != block_id:
            raise StorageError(
                f"address map corruption: wanted block {block_id}, found {found_id}"
            )
        return self._decompress(payload, original_len)

    def read_framed(self, block_id: int) -> bytes:
        """Load the framed (still compressed) C-block for *block_id*."""
        addr = self._resolve(block_id)
        if not is_stored(addr):
            raise StorageError(f"block id {block_id} is reserved but unwritten")
        framed, is_ref = self._read_at(addr)
        hops = 0
        while is_ref:
            addr = struct.unpack_from("<Q", framed)[0]
            framed, is_ref = self._read_at(addr)
            hops += 1
            if hops > 64:
                raise StorageError(f"reference chain too long for block {block_id}")
        return framed

    def flush(self) -> None:
        """Force the open macro block (if any) to the device, padded."""
        if self._macro is not None:
            self._close_macro()

    # ------------------------------------------------------ mapping strategy

    def _record_mapping(self, block_id: int, addr: int) -> None:
        raise NotImplementedError

    def _resolve(self, block_id: int) -> int:
        raise NotImplementedError

    def _update_mapping(self, block_id: int, addr: int) -> None:
        raise NotImplementedError

    # -------------------------------------------------------------- internals

    def _compress(self, data: bytes) -> bytes:
        self.clock.bytes_compressed += len(data)
        compressed = self.codec.compress(data)
        if OBS.enabled and data:
            self._m_compress_ratio.observe(len(compressed) / len(data))
        return compressed

    def _decompress(self, payload: bytes, original_len: int) -> bytes:
        self.clock.bytes_decompressed += len(payload)
        return self.codec.decompress(payload, original_len)

    def _open_macro(self, cont_first: bool) -> None:
        if self._macro is not None:
            raise StorageError("macro block already open")
        self._macro = _OpenMacro(
            offset=self.device.size,
            builder=MacroBuilder(self.macro_size, self.macro_spare_bytes, cont_first),
        )

    def _close_macro(self) -> None:
        macro = self._macro
        if macro is None:
            return
        self._macro = None
        if OBS.enabled:
            self._m_macro_blocks.inc()
            self._m_macro_fill.observe(
                macro.builder.payload_bytes / self.macro_size
            )
        data = macro.builder.encode()
        offset = self.device.append(data)
        if offset != macro.offset:
            raise StorageError(
                f"macro landed at {offset}, expected {macro.offset}; "
                "interleaving invariant broken"
            )
        self._macro_written()

    def _macro_written(self) -> None:
        """Called once the open macro block is on the device."""

    def _emit(self, framed: bytes) -> int:
        """Pack a framed C-block into macro blocks; returns its address."""
        if self._macro is None:
            self._open_macro(cont_first=False)
        first_addr = None
        remaining = framed
        flags = 0
        while True:
            builder = self._macro.builder
            room = builder.room()
            if len(remaining) <= room:
                index = builder.add(remaining, flags)
                if first_addr is None:
                    first_addr = encode_addr(self._macro.offset, index)
                return first_addr
            if room >= MIN_FRAGMENT:
                index = builder.add(remaining[:room], flags | ENTRY_CONT_NEXT)
                if first_addr is None:
                    first_addr = encode_addr(self._macro.offset, index)
                remaining = remaining[room:]
                flags = ENTRY_CONT_PREV
            self._close_macro()
            self._open_macro(cont_first=bool(flags & ENTRY_CONT_PREV))

    def _read_macro(self, offset: int) -> tuple[list[MacroEntry], int, int]:
        """Entries of the macro block at *offset* (open macro included)."""
        if self._macro is not None and offset == self._macro.offset:
            return self._macro.builder.entries, 0, self.macro_spare_bytes
        cached = self._macro_cache.get(offset)
        if cached is not None:
            self._macro_cache.move_to_end(offset)
            return cached
        decoded = decode_macro(self.device.read(offset, self.macro_size))
        self._macro_cache[offset] = decoded
        self._macro_cache.move_to_end(offset)
        while len(self._macro_cache) > self._macro_cache_size:
            self._macro_cache.popitem(last=False)
        return decoded

    def _read_at(self, addr: int) -> tuple[bytes, bool]:
        """Framed C-block bytes at *addr*; second element flags a REF entry."""
        offset, index = decode_addr(addr)
        entries, _, _ = self._read_macro(offset)
        if index >= len(entries):
            raise StorageError(f"no C-block at index {index} of macro {offset}")
        entry = entries[index]
        if entry.is_tombstone:
            raise StorageError(f"block at {offset}:{index} is a tombstone")
        if entry.is_ref:
            return entry.payload, True
        parts = [entry.payload]
        while entry.continues_next:
            offset += self.macro_size
            entries, _, _ = self._read_macro(offset)
            entry = entries[0]
            if not entry.continues_prev:
                raise CorruptBlockError(
                    f"macro at {offset} does not continue the previous C-block"
                )
            parts.append(entry.payload)
        return b"".join(parts), False

    def _invalidate_macro(self, offset: int) -> None:
        self._macro_cache.pop(offset, None)


class ChronicleLayout(_MacroEmitter):
    """The interleaved data+TLB storage layout — "the log is the database".

    Use :meth:`create` for a fresh database and :meth:`open` on an existing
    device (clean restarts restore from the commit footer; crashes run
    TLB recovery, Algorithm 4).
    """

    def __init__(self, device, *, _from_factory: bool = False, **kwargs):
        if not _from_factory:
            raise StorageError(
                "use ChronicleLayout.create(...) or ChronicleLayout.open(...)"
            )
        super().__init__(device, **kwargs)
        #: The file's format (DESIGN.md, "File format versions"): new
        #: files get the current one, a reopened file keeps its own.
        self.format_version = FORMAT_VERSION
        self._m_tlb_writes = OBS.counter("storage.tlb.block_writes")
        self.tlb = TlbTree(
            self.lblock_size,
            write_unit=self._write_tlb_unit,
            read_unit=self._read_unit,
            rewrite_unit=self._rewrite_unit,
        )
        self.sealed_metadata: dict | None = None
        #: Mappings whose TLB leaf is on disk, held until the macro block
        #: holding their C-block is (see :meth:`_map`).
        self._deferred: dict[int, int] = {}
        #: What crash recovery of the TLB saw, for tree recovery
        #: (:class:`repro.recovery.tlb_recovery.RecoveredTail`).
        self.recovered_tail = None

    # ---------------------------------------------------------- construction

    @classmethod
    def create(cls, device, **kwargs) -> "ChronicleLayout":
        """Initialize a fresh database on an empty *device*."""
        if device.size != 0:
            raise StorageError("device not empty; use ChronicleLayout.open()")
        layout = cls(device, _from_factory=True, **kwargs)
        layout._write_superblock()
        return layout

    @classmethod
    def open(cls, device, compressor: Compressor | str | None = None) -> "ChronicleLayout":
        """Open an existing database, recovering after a crash if needed.

        Layout parameters come from the superblock; *compressor* may
        override the codec instance (needed for stateful codecs like the
        oracle), but its name must match the superblock.
        """
        params = cls._read_superblock(device)
        codec = compressor if compressor is not None else params["codec"]
        layout = cls(
            device,
            _from_factory=True,
            lblock_size=params["lblock_size"],
            macro_size=params["macro_size"],
            compressor=codec,
            macro_spare=params["macro_spare"],
        )
        layout.format_version = params["format_version"]
        if layout.codec.name != params["codec"]:
            raise StorageError(
                f"codec mismatch: database uses {params['codec']!r},"
                f" got {layout.codec.name!r}"
            )
        commit = layout._try_read_commit()
        if commit is not None:
            layout._restore_from_commit(commit)
        else:
            from repro.recovery.tlb_recovery import recover_tlb

            recover_tlb(layout)
        return layout

    def _write_superblock(self) -> None:
        payload = json.dumps(
            {
                "format": format_name(self.format_version),
                "lblock_size": self.lblock_size,
                "macro_size": self.macro_size,
                "codec": self.codec.name,
                "macro_spare": self.macro_spare_bytes / self.macro_size,
            }
        ).encode()
        block = bytearray(SUPERBLOCK_SIZE)
        _SUPER_HEADER.pack_into(block, 0, MAGIC_SUPER, 0, len(payload))
        block[12 : 12 + len(payload)] = payload
        struct.pack_into("<I", block, 4, zlib.crc32(block))
        offset = self.device.append(bytes(block))
        if offset != 0:
            raise StorageError("superblock must be the first unit")

    @staticmethod
    def _read_superblock(device) -> dict:
        if device.size < SUPERBLOCK_SIZE:
            raise CorruptBlockError("device smaller than a superblock")
        data = device.read(0, SUPERBLOCK_SIZE)
        magic, crc, length = _SUPER_HEADER.unpack_from(data)
        if magic != MAGIC_SUPER:
            raise CorruptBlockError(f"bad superblock magic: {magic:#x}")
        check = bytearray(data)
        struct.pack_into("<I", check, 4, 0)
        if zlib.crc32(check) != crc:
            raise CorruptBlockError("superblock CRC mismatch")
        params = json.loads(data[12 : 12 + length])
        params["format_version"] = parse_format(params.get("format"))
        return params

    # ------------------------------------------------------------ TLB plumbing

    def reserve_block(self, block_id: int, level: int = 0,
                      prev_id: int = -1) -> None:
        """Map an allocated id to a placeholder before its block exists.

        The TAB+-tree opens right-flank nodes long before they are
        written; without a placeholder, their id slots would stall the
        positional TLB (no leaf covering a later slot could flush) and
        recovery's tail scan would grow unbounded.  Reserving the slot
        keeps the TLB strictly sequential; the eventual ``write_block``
        replaces the placeholder (usually still in the TLB's flank, else
        via one in-place TLB-leaf rewrite).

        In a v2 file the placeholder names the flank node's tree *level*
        and the id of the node it follows (*prev_id*, ``-1``: none), so
        crash recovery finds lost flank nodes and their predecessors from
        the TLB; v1 files keep the bare null placeholder.  An id that is
        already mapped but unwritten (crash recovery reclaiming a slot)
        gets its placeholder rewritten only if it changes.
        """
        if block_id >= self._next_id:
            raise StorageError(f"id {block_id} was never allocated")
        placeholder = (
            encode_reserved(level, prev_id) if self.format_version >= 2
            else NULL_ADDR
        )
        tlb = self.tlb
        if block_id >= tlb.next_slot and block_id not in tlb.pending:
            tlb.put(block_id, placeholder)
            return
        current = self._resolve(block_id)
        if is_stored(current):
            raise StorageError(f"block id {block_id} already written")
        if current != placeholder:
            tlb.update(block_id, placeholder)

    def _record_mapping(self, block_id: int, addr: int) -> None:
        tlb = self.tlb
        if block_id < tlb.next_slot or block_id in tlb.pending:
            if is_stored(self._resolve(block_id)):
                raise StorageError(f"block id {block_id} already written")
            self._map(block_id, addr)
        else:
            tlb.put(block_id, addr)

    def _map(self, block_id: int, addr: int) -> None:
        """Re-point a mapped id, no earlier than its C-block is durable.

        Re-pointing an id whose TLB leaf is already on disk rewrites that
        leaf in place.  While the C-block still sits in the open macro
        block, the rewrite waits for the macro's write: a crash in
        between leaves the old entry (a placeholder, which the tail
        rescan fills from the block itself) rather than an address the
        crash swallowed.
        """
        if self._macro is not None and self.tlb.is_flushed(block_id):
            self._deferred[block_id] = addr
        else:
            self.tlb.update(block_id, addr)

    def _macro_written(self) -> None:
        deferred, self._deferred = self._deferred, {}
        for block_id, addr in deferred.items():
            self.tlb.update(block_id, addr)

    def release_block(self, block_id: int) -> None:
        """Return a mapped id slot to the reserved (unwritten) state.

        Used by crash recovery when a right-flank node id referenced by a
        durable sibling link turns out to hold a tombstone from an
        earlier recovery: the slot reverts to a placeholder so the
        rebuilt flank node can be written under its original id.
        """
        self.tlb.update(block_id, NULL_ADDR)

    def _resolve(self, block_id: int) -> int:
        addr = self._deferred.get(block_id)
        return self.tlb.lookup(block_id) if addr is None else addr

    def _update_mapping(self, block_id: int, addr: int) -> None:
        self._map(block_id, addr)

    def _write_tlb_unit(self, data: bytes) -> int:
        # A TLB block refers to preceding data, so the open macro block is
        # closed (padded) first; the TLB block then lands right behind it.
        self._close_macro()
        if OBS.enabled:
            self._m_tlb_writes.inc()
        return self.device.append(data)

    def _read_unit(self, offset: int) -> bytes:
        return self.device.read(offset, self.lblock_size)

    def _rewrite_unit(self, offset: int, data: bytes) -> None:
        self.device.write(offset, data)

    # ------------------------------------------------------------ update path

    def update_block(self, block_id: int, data: bytes) -> bool:
        """Rewrite an existing L-block (out-of-order updates, Section 5.7).

        Tries an in-place rewrite of the containing macro block using its
        spare space; when the re-compressed C-block no longer fits, the
        block is relocated to the end of the database and a reference entry
        replaces it.  Returns ``True`` when the block was relocated.
        """
        if len(data) != self.lblock_size:
            raise StorageError(
                f"L-block must be exactly {self.lblock_size} bytes, got {len(data)}"
            )
        framed = encode_cblock(block_id, len(data), self._compress(data))
        addr = self._resolve(block_id)
        offset, index = decode_addr(addr)
        # Blocks still sitting in the open macro are rewritten in memory.
        if self._macro is not None and offset == self._macro.offset:
            return self._update_in_open_macro(block_id, index, framed)
        entries, flags, spare = self._read_macro(offset)
        entry = entries[index]
        if entry.is_ref:
            # Follow the reference and retry against the relocated copy.
            new_addr = struct.unpack_from("<Q", entry.payload)[0]
            self._update_mapping(block_id, new_addr)
            return self.update_block(block_id, data)
        if not entry.continues_next and not entry.continues_prev:
            new_entries = list(entries)
            new_entries[index] = MacroEntry(0, framed)
            try:
                encoded = encode_macro(new_entries, self.macro_size, flags, spare)
            except StorageError:
                encoded = None
            if encoded is not None:
                self.device.write(offset, encoded)
                self._invalidate_macro(offset)
                self._macro_cache[offset] = (new_entries, flags, spare)
                return False
        # Relocate: append the new version, leave a reference at the old spot.
        # The new copy is forced to disk before the old entry is turned into
        # a reference so a crash in between never leaves a dangling pointer.
        new_addr = self._emit(framed)
        self.flush()
        ref_entries = list(entries)
        ref_entries[index] = MacroEntry(ENTRY_REF, struct.pack("<Q", new_addr))
        self.device.write(
            offset, encode_macro(ref_entries, self.macro_size, flags, spare)
        )
        self._invalidate_macro(offset)
        self._update_mapping(block_id, new_addr)
        return True

    def _update_in_open_macro(self, block_id: int, index: int, framed: bytes) -> bool:
        builder = self._macro.builder
        entry = builder.entries[index]
        if entry.continues_next or entry.continues_prev:
            raise StorageError("cannot update a split block inside the open macro")
        grow = len(framed) - len(entry.payload)
        if grow <= builder.room():
            builder.entries[index] = MacroEntry(0, framed)
            builder._payload_bytes += grow
            return False
        new_addr = self._emit(framed)
        builder.entries[index] = MacroEntry(ENTRY_REF, struct.pack("<Q", new_addr))
        builder._payload_bytes += 8 - len(entry.payload)
        self._update_mapping(block_id, new_addr)
        return True

    def update_blocks(self, updates: dict[int, bytes]) -> bool:
        """Rewrite several existing L-blocks, coalescing by macro block.

        Checkpointing the out-of-order buffer updates many *consecutive*
        leaves (temporal locality, Section 5.7.1); their C-blocks share
        macro blocks, so grouping updates turns N random rewrites into
        one write per macro — and consecutive macros write sequentially.
        Falls back to :meth:`update_block` for anything irregular
        (relocated, split-spanning, or no longer fitting).  Returns True
        if any block had to be relocated.
        """
        groups: dict[int, list[tuple[int, int, bytes]]] = {}
        singles: list[int] = []
        for block_id in sorted(updates):
            addr = self._resolve(block_id)
            offset, index = decode_addr(addr)
            if self._macro is not None and offset == self._macro.offset:
                singles.append(block_id)
            else:
                groups.setdefault(offset, []).append(
                    (block_id, index, updates[block_id])
                )
        relocated = False
        for offset in sorted(groups):
            group = groups[offset]
            entries, flags, spare = self._read_macro(offset)
            new_entries = list(entries)
            simple = True
            for block_id, index, data in group:
                entry = entries[index]
                if entry.is_ref or entry.continues_next or entry.continues_prev:
                    simple = False
                    break
                framed = encode_cblock(block_id, len(data), self._compress(data))
                new_entries[index] = MacroEntry(0, framed)
            if simple:
                try:
                    encoded = encode_macro(new_entries, self.macro_size, flags,
                                           spare)
                except StorageError:
                    simple = False
            if simple:
                self.device.write(offset, encoded)
                self._invalidate_macro(offset)
                self._macro_cache[offset] = (new_entries, flags, spare)
            else:
                singles.extend(block_id for block_id, _, _ in group)
        for block_id in singles:
            relocated |= self.update_block(block_id, updates[block_id])
        return relocated

    def write_tombstone(self, block_id: int) -> None:
        """Fill an allocated-but-lost id slot after recovery (DESIGN.md)."""
        framed = encode_cblock(block_id, 0, b"")
        if self._macro is None:
            self._open_macro(cont_first=False)
        if len(framed) > self._macro.builder.room():
            self._close_macro()
            self._open_macro(cont_first=False)
        index = self._macro.builder.add(framed, ENTRY_TOMBSTONE)
        self._record_mapping(block_id, encode_addr(self._macro.offset, index))

    # --------------------------------------------------------------- sealing

    def seal(self, metadata: dict | None = None) -> None:
        """Clean close: flush data and append a commit footer.

        The footer stores the TLB snapshot plus caller *metadata* (the
        TAB+-tree keeps its right flank and root pointer there), making
        the next open O(1).  After a crash the footer is missing and
        recovery reconstructs the same state from the log itself.
        """
        self.flush()
        payload = json.dumps(
            {
                "next_id": self._next_id,
                "block_count": self.block_count,
                "tlb": self.tlb.state_dict(),
                "meta": metadata or {},
            }
        ).encode()
        crc = zlib.crc32(payload)
        padded_len = -(-len(payload) // self.lblock_size) * self.lblock_size
        header = bytearray(self.lblock_size)
        _COMMIT.pack_into(header, 0, MAGIC_COMMIT, crc, len(payload), 0)
        footer = bytearray(self.lblock_size)
        _COMMIT.pack_into(footer, 0, MAGIC_COMMIT, crc, len(payload), 1)
        self.device.append(
            bytes(header)
            + payload
            + bytes(padded_len - len(payload))
            + bytes(footer)
        )
        self.sealed_metadata = metadata or {}

    def _try_read_commit(self) -> dict | None:
        """Parse the commit record at the end of the file, if intact."""
        size = self.device.size
        if size < SUPERBLOCK_SIZE + 3 * self.lblock_size:
            return None
        tail = size - self.lblock_size
        if (tail - SUPERBLOCK_SIZE) % self.lblock_size != 0:
            return None  # torn tail; recovery path
        footer = self.device.read(tail, self.lblock_size)
        magic, crc, length, is_footer = _COMMIT.unpack_from(footer)
        if magic != MAGIC_COMMIT or not is_footer:
            return None
        padded_len = -(-length // self.lblock_size) * self.lblock_size
        if tail - padded_len - self.lblock_size < SUPERBLOCK_SIZE:
            return None
        payload = self.device.read(tail - padded_len, length)
        if zlib.crc32(payload) != crc:
            return None
        return json.loads(payload)

    def _restore_from_commit(self, commit: dict) -> None:
        self._next_id = commit["next_id"]
        self.block_count = commit["block_count"]
        self.tlb.restore_state(commit["tlb"])
        self.sealed_metadata = commit["meta"]
        # New units are appended after the footer; old footers simply
        # become dead space in the log.
