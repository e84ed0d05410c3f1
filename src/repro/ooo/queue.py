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
    at ``bisect_right`` would put it), built once per :meth:`drain`;
    reads sort only the rows in range.  Sorting leverages the temporal
    locality of late arrivals: a flush into the TAB+-tree mostly hits
    the same leaves in a row, which the tree's LRU buffer turns into
    single block updates (Section 5.7.1).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ConfigError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._segments: list[ColumnarEvents] = []
        self._count = 0
        #: Oldest queued timestamp: every read asks it of every split.
        self.min_t: int | None = None

    def add_run(self, run: ColumnarEvents) -> None:
        """Queue a non-decreasing segment of late events."""
        if run:
            self._segments.append(run)
            self._count += len(run)
            first = run.timestamps[0]
            if self.min_t is None or first < self.min_t:
                self.min_t = first

    @property
    def is_full(self) -> bool:
        return self._count >= self.capacity

    def drain(self) -> ColumnarEvents:
        """Remove and return all events as one batch, oldest first."""
        segments = self._segments
        if not segments:
            return _EMPTY
        batch = segments[0] if len(segments) == 1 else _stable_sorted(segments)
        self._segments, self._count, self.min_t = [], 0, None
        return batch

    def window(self, t_start: int, t_end: int) -> ColumnarEvents:
        """The queued events with ``t_start <= t <= t_end``, oldest first.

        Each segment is cut by bisection and only the cut rows are
        sorted — the stable sort of the sorted view, restricted to the
        range — so a read of a few rows does not sort the whole queue.
        """
        parts = []
        for segment in self._segments:
            timestamps = segment.timestamps
            lo = bisect_left(timestamps, t_start)
            hi = bisect_right(timestamps, t_end, lo)
            if lo < hi:
                parts.append(segment[lo:hi])
        if len(parts) > 1:
            return _stable_sorted(parts)
        return parts[0] if parts else _EMPTY

    def __len__(self) -> int:
        return self._count

    @property
    def max_t(self) -> int | None:
        # Each segment is non-decreasing: its last row is its newest.
        if not self._count:
            return None
        return max(segment.timestamps[-1] for segment in self._segments)


def _stable_sorted(segments: list[ColumnarEvents]) -> ColumnarEvents:
    """*segments* concatenated in arrival order, stably sorted by ``t``."""
    merged = ColumnarEvents(
        [t for segment in segments for t in segment.timestamps],
        [[v for segment in segments for v in segment.columns[k]]
         for k in range(len(segments[0].columns))],
    )
    timestamps = merged.timestamps
    return merged.take(sorted(range(len(timestamps)), key=timestamps.__getitem__))
