"""The application-time-sorted out-of-order queue (Algorithm 3)."""

from __future__ import annotations

from bisect import bisect_left, bisect_right

from repro.errors import ConfigError
from repro.events.event import ColumnarEvents

_EMPTY = ColumnarEvents((), ())


class SortedQueue:
    """A bounded queue of late events, read sorted by application time.

    Late events arrive as *segments* — non-decreasing
    :class:`ColumnarEvents` slices — kept in arrival order.  The sorted
    view is one stable sort by ``t`` over that arrival sequence (equal
    timestamps keep arrival order: exactly where inserting each event
    at ``bisect_right`` would put it), and it replaces the segments until
    the next add.  Sorting leverages the temporal locality of late
    arrivals: a flush into the TAB+-tree mostly hits the same leaves in
    a row, which the tree's LRU buffer turns into single block updates
    (Section 5.7.1).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._segments: list[ColumnarEvents] = []
        self._count = 0

    def add_run(self, run: ColumnarEvents) -> None:
        """Queue a non-decreasing segment of late events."""
        if run:
            self._segments.append(run)
            self._count += len(run)

    def _sorted(self) -> ColumnarEvents:
        segments = self._segments
        if len(segments) > 1:
            merged = ColumnarEvents(
                [t for segment in segments for t in segment.timestamps],
                [[v for segment in segments for v in segment.columns[k]]
                 for k in range(len(segments[0].columns))],
            )
            timestamps = merged.timestamps
            order = sorted(range(len(timestamps)), key=timestamps.__getitem__)
            segments[:] = [merged.take(order)]
        return segments[0] if segments else _EMPTY

    @property
    def is_full(self) -> bool:
        return self._count >= self.capacity

    def drain(self) -> ColumnarEvents:
        """Remove and return all events as one batch, oldest first."""
        batch = self._sorted()
        self._segments, self._count = [], 0
        return batch

    def window(self, t_start: int, t_end: int) -> ColumnarEvents:
        """The queued events with ``t_start <= t <= t_end``, oldest first."""
        batch = self._sorted()
        lo = bisect_left(batch.timestamps, t_start)
        return batch[lo : bisect_right(batch.timestamps, t_end, lo)]

    def __len__(self) -> int:
        return self._count

    @property
    def min_t(self) -> int | None:
        return self._sorted().timestamps[0] if self._count else None

    @property
    def max_t(self) -> int | None:
        return self._sorted().timestamps[-1] if self._count else None
