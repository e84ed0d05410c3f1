"""The *separate layout* baseline (paper, Sections 4.2 and 7.2).

The "straight-forward approach" the paper argues against: C-blocks are
packed into macro blocks exactly as in the real layout, but the logical→
physical mapping is appended to a *separate file on the same disk*.
Every flushed mapping page forces the disk arm away from the data file
and back — the random writes that cost the paper's measurement about 42 %
of sequential disk speed (71.59 vs 123.89 MiB/s, Figure 9).

Use it with a :class:`~repro.simdisk.spindle.Spindle` so both files share
one simulated disk arm.
"""

from __future__ import annotations

import struct

from repro.errors import StorageError
from repro.simdisk.spindle import Spindle
from repro.storage.layout import _MacroEmitter


class SeparateLayout(_MacroEmitter):
    """Macro-block data file plus a separate mapping file.

    Mapping entries (8-byte physical addresses, indexed by logical id)
    are buffered and appended to the mapping file one page at a time —
    the batching a real implementation would get from the OS page cache.
    """

    def __init__(
        self,
        spindle: Spindle,
        mapping_page_bytes: int = 4096,
        **kwargs,
    ):
        data_file = spindle.open_file("data")
        super().__init__(data_file, **kwargs)
        self.spindle = spindle
        self.mapping_file = spindle.open_file("mapping")
        self.mapping_page_bytes = mapping_page_bytes
        self._mapping: list[int] = []
        self._unflushed = bytearray()

    # ------------------------------------------------------- mapping strategy

    def _record_mapping(self, block_id: int, addr: int) -> None:
        if block_id != len(self._mapping):
            raise StorageError(
                "separate layout requires strictly sequential ids "
                f"(got {block_id}, expected {len(self._mapping)})"
            )
        self._mapping.append(addr)
        self._unflushed += struct.pack("<Q", addr)
        if len(self._unflushed) >= self.mapping_page_bytes:
            self._flush_mapping_page()

    def _flush_mapping_page(self) -> None:
        if self._unflushed:
            # This append moves the disk arm to the mapping file; the next
            # data write seeks back — two random I/Os per page.
            self.mapping_file.append(bytes(self._unflushed))
            self._unflushed.clear()

    def _resolve(self, block_id: int) -> int:
        try:
            return self._mapping[block_id]
        except IndexError:
            raise StorageError(f"block id {block_id} not mapped") from None

    def _update_mapping(self, block_id: int, addr: int) -> None:
        self._mapping[block_id] = addr
        # In-place random write of the 8-byte mapping slot.
        self.mapping_file.write(block_id * 8, struct.pack("<Q", addr))

    # ----------------------------------------------------------------- extras

    def flush(self) -> None:
        super().flush()
        self._flush_mapping_page()

    def load_mapping(self) -> None:
        """Re-read the mapping file into memory (reopen path)."""
        size = self.mapping_file.size
        data = self.mapping_file.read(0, size)
        self._mapping = list(struct.unpack(f"<{size // 8}Q", data))
        self._next_id = len(self._mapping)
        self.block_count = len(self._mapping)
