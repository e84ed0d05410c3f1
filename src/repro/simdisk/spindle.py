"""Multiple files sharing one physical disk arm.

The separate-layout baseline of Section 7.2 stores block-address mappings
in a file *next to* the data file on the same disk.  Alternating between
two files on one spindle costs a seek per switch — the effect the paper's
Figure 9 exposes.  :class:`Spindle` models exactly that: every
:class:`SpindleFile` has its own byte space, but a single head position is
shared, so switching files (or jumping within one) charges seek time.
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.simdisk.clock import SimulatedClock
from repro.simdisk.disk import INSTANT, DiskModel, IOStats, _MemoryBackend


class SpindleFile:
    """One logical file living on a shared :class:`Spindle`."""

    def __init__(self, spindle: "Spindle", name: str):
        self._spindle = spindle
        self.name = name
        self._backend = _MemoryBackend()

    @property
    def size(self) -> int:
        return self._backend.size

    def write(self, offset: int, data: bytes) -> None:
        self._spindle._charge(self, offset, len(data), write=True)
        self._backend.write(offset, data)

    def append(self, data: bytes) -> int:
        offset = self._backend.size
        self.write(offset, data)
        return offset

    def read(self, offset: int, size: int) -> bytes:
        if offset + size > self._backend.size:
            raise StorageError(
                f"read past end of {self.name}: {offset}+{size} > {self._backend.size}"
            )
        self._spindle._charge(self, offset, size, write=False)
        return self._backend.read(offset, size)

    def truncate(self, size: int) -> None:
        self._backend.truncate(size)

    @property
    def clock(self) -> SimulatedClock:
        return self._spindle.clock


class Spindle:
    """A disk arm shared by several files."""

    def __init__(self, model: DiskModel = INSTANT, clock: SimulatedClock | None = None):
        self.model = model
        self.clock = clock if clock is not None else SimulatedClock()
        self.stats = IOStats()
        self._active_file: SpindleFile | None = None
        self._head = 0

    def open_file(self, name: str) -> SpindleFile:
        """Create a new file on this spindle."""
        return SpindleFile(self, name)

    def _charge(self, file: SpindleFile, offset: int, nbytes: int, write: bool) -> None:
        same_file = file is self._active_file
        sequential = same_file and offset == self._head
        # Another file lives elsewhere on the platter: full seek.
        distance = abs(offset - self._head) if same_file else 1 << 40
        if write:
            self.stats.bytes_written += nbytes
            if sequential:
                self.stats.seq_writes += 1
            else:
                self.stats.random_writes += 1
            seconds = self.model.write_seconds(nbytes, sequential, distance)
        else:
            self.stats.bytes_read += nbytes
            if sequential:
                self.stats.seq_reads += 1
            else:
                self.stats.random_reads += 1
            seconds = self.model.read_seconds(nbytes, sequential, distance)
        if self.model is not INSTANT:
            self.clock.charge_io(seconds)
        self._active_file = file
        self._head = offset + nbytes
