"""Sequential block prefetching — the "sliding read buffer" of Section 4.3.

Because TLB blocks sit *behind* the data they map, a naive reader that
resolves every logical id through the TLB performs random I/O.  For range
scans ChronicleDB instead resolves only the *first* id it is asked for,
then reads the unit stream forward from that macro block; lookups by
increasing id are served from the stream, keeping disk access strictly
sequential.  Passed-over C-blocks are held *compressed* in a bounded
buffer and inflated only when requested, so a scan's work is
proportional to the blocks it returns, not to its position in the store.

A scan's ids are not strictly increasing once a leaf has split: the
right half takes a fresh, high id at the end of the log, so the scan
asks for it and then for the lower ids after it.  The blocks passed on
the way to it wait in the buffer; past the buffer's bound, a request
behind the walk seeks the walk back to it, and the scan streams on
from there.
"""

from __future__ import annotations

from repro.errors import CorruptBlockError, StorageError
from repro.obs import OBS
from repro.storage.addressing import decode_addr
from repro.storage.cblock import decode_cblock
from repro.storage.walker import iter_cblocks

_REQUESTED = OBS.counter("storage.reader.blocks_requested")
_INFLATED = OBS.counter("storage.reader.blocks_inflated")
_PASSED = OBS.counter("storage.reader.blocks_passed")


class SequentialBlockReader:
    """Serves `get(id)` for (mostly) increasing ids sequentially.

    Parameters
    ----------
    layout:
        The :class:`~repro.storage.layout.ChronicleLayout` to read from.
    window_blocks:
        Maximum number of passed-over, still-compressed blocks buffered
        (the paper's sliding buffer of ``k`` L-blocks).
    restart_gap:
        Requesting an id further ahead of the walk than this re-seeks at
        its position instead of streaming through the gap (lets filtered
        scans skip pruned subtrees with one seek).
    """

    def __init__(self, layout, window_blocks: int = 1024,
                 restart_gap: int | None = None):
        self._layout = layout
        self._window = window_blocks
        self._restart_gap = restart_gap if restart_gap is not None else window_blocks
        #: id -> (compressed payload, original length) of passed-over blocks
        self._buffer: dict[int, tuple[bytes, int]] = {}
        self._walker = None
        self._position = -1  # highest id consumed from the walker
        #: Wasted-work accounting: ``inflated == requested`` means no
        #: block was decompressed that the caller did not ask for;
        #: ``passed`` counts C-blocks walked over without being returned.
        self.requested = 0
        self.inflated = 0
        self.passed = 0

    def _seek(self, block_id: int) -> None:
        """Position the walk at the macro block holding *block_id*."""
        offset, _ = decode_addr(self._layout._resolve(block_id))
        self._walker = iter_cblocks(
            self._layout.device,
            self._layout.lblock_size,
            self._layout.macro_size,
            offset,
        )
        self._position = block_id

    def _advance_to(self, block_id: int) -> tuple[bytes, int] | None:
        """Walk forward to *block_id*; ``None`` if the stream lacks it.

        The walk starts afresh at *block_id* when there is none, when the
        id lies further ahead than the restart gap, or when the walk is
        already past it (the block was passed and not buffered)."""
        gap = block_id - self._position
        if self._walker is None or gap > self._restart_gap or gap <= 0:
            try:
                self._seek(block_id)
            except (StorageError, CorruptBlockError):
                return None  # unmapped or unwritten: read_block reports it
        for _, framed in self._walker:
            try:
                found_id, original_len, payload = decode_cblock(framed)
            except CorruptBlockError:
                continue
            if original_len == 0:
                continue  # tombstone
            if found_id > self._position:
                self._position = found_id
            if found_id == block_id:
                return payload, original_len
            self.passed += 1
            # A block behind the request may still be asked for (the
            # request was a split's relocated right half), and one ahead
            # of it (interleaved or relocated) too; it waits compressed,
            # bounded by the window.
            if len(self._buffer) < self._window:
                self._buffer[found_id] = (payload, original_len)
        # Not in the remaining stream (still in the open macro, or
        # relocated backwards): the next request seeks afresh.
        self._walker = None
        return None

    def get(self, block_id: int) -> bytes:
        """Return the decompressed L-block *block_id*.

        A buffered block is served from the buffer; any other is walked
        to (:meth:`_advance_to`).  Only a block the unit stream does not
        hold (still in the open macro block) is a random read through
        the TLB.
        """
        passed = self.passed
        held = self._buffer.pop(block_id, None) or self._advance_to(block_id)
        if held is None:
            data = self._layout.read_block(block_id)
        else:
            data = self._layout._decompress(*held)
        self.requested += 1
        self.inflated += 1
        if OBS.enabled:
            _REQUESTED.inc()
            _INFLATED.inc()
            _PASSED.inc(self.passed - passed)
        return data
