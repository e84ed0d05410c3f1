"""Algorithm 3: routing of out-of-order events.

The manager sits between ingestion and one TAB+-tree:

* events newer than the last flushed leaf go straight to the tree's
  right flank (a sorted insert into the open leaf at worst);
* older events enter the sorted queue and the mirror log;
* a full queue is bulk-flushed into the tree — WAL-logged first,
  inserted through the LRU node buffer (no-force), the mirror log
  cleared afterwards;
* a checkpoint (every *checkpoint_interval* flushed events) writes the
  dirty pages back and truncates the WAL.

Crash recovery (Section 6.3) replays the WAL with per-leaf LSN checks,
then rebuilds the sorted queue from the mirror log.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from operator import itemgetter

from repro import obs
from repro.errors import ConfigError
from repro.events.event import ColumnarEvents
from repro.events.serializer import PaxCodec
from repro.obs import OBS
from repro.ooo.logfile import EventLog
from repro.ooo.queue import SortedQueue


class OutOfOrderManager:
    """Out-of-order ingestion front-end for one TAB+-tree."""

    def __init__(
        self,
        tree,
        wal_device,
        mirror_device,
        queue_capacity: int = 1024,
        checkpoint_interval: int = 4096,
    ):
        if checkpoint_interval < 1:
            raise ConfigError("checkpoint_interval must be >= 1")
        self.tree = tree
        codec = PaxCodec(tree.schema)
        self.wal = EventLog(wal_device, codec)
        self.mirror = EventLog(mirror_device, codec)
        self.queue = SortedQueue(queue_capacity)
        self.checkpoint_interval = checkpoint_interval
        self._since_checkpoint = 0
        self.flank_inserts = 0
        self.queued_inserts = 0
        self.queue_flushes = 0
        self.checkpoints = 0
        self._m_queue_depth = OBS.gauge("ooo.queue_depth")
        self._m_mirror_bytes = OBS.gauge("ooo.mirror_log_bytes")
        self._m_wal_bytes = OBS.gauge("ooo.wal_bytes")
        self._m_reorder = OBS.histogram("ooo.reorder_distance", smallest=1.0)
        self._m_queued = OBS.counter("ooo.queued_inserts")
        self._m_flushes = OBS.counter("ooo.queue_flushes")
        self._m_checkpoints = OBS.counter("ooo.checkpoints")

    def insert_run(self, run: ColumnarEvents) -> None:
        """Route a chronological run (non-decreasing timestamps) —
        Algorithm 3, one segment at a time.

        The flank boundary is checked once per segment: everything above
        it goes to the tree as one
        :meth:`~repro.index.tab_tree.TabTree.append_run` of a slice of
        *run*, cut only where a leaf flush would leave the next event at
        or below the new boundary; a late segment is queued as column
        slices with one mirror-log write per chunk, flushing at exactly the
        queue-capacity points one event at a time would (so on-disk state
        is the same).
        """
        timestamps = run.timestamps
        tree = self.tree
        i, n = 0, len(run)
        while i < n:
            boundary = tree.flank_boundary_t
            if boundary is None or timestamps[i] > boundary:
                room = tree.leaf_write_capacity - tree.leaf.count
                if room <= 0:
                    # Only a failed flush leaves the open leaf full: retry
                    # it (a dead device raises again), then re-route.
                    tree._flush_leaf()
                    continue
                # Every event up to the next leaf flush is above the
                # boundary (non-decreasing run).  A flush moves it to the
                # flushed leaf's t_max, max(open-leaf tail, row before the
                # cut): cut the segment only where the next row is not
                # above that, since an event *equal* to it must divert to
                # the queue.  The tree writes the rest as one run.
                tail = tree.leaf.timestamps[-1] if tree.leaf.count else timestamps[i]
                end = i + room
                while end < n and timestamps[end] > max(tail, timestamps[end - 1]):
                    end += tree.leaf_write_capacity
                end = min(end, n)
                tree.append_run(run if i == 0 and end == n else run[i:end])
                self.flank_inserts += end - i
                i = end
                continue
            # The late segment [i, split_at) belongs in the queue; the
            # boundary cannot move while we only queue events.
            split_at = bisect_right(timestamps, boundary, i)
            clock = tree.clock
            while i < split_at:
                room = self.queue.capacity - len(self.queue)
                if room == 0:
                    self.flush_queue()
                    break  # the flush may advance the boundary: re-route
                take = min(room, split_at - i)
                # A copy: the queue outlives the caller's batch.
                chunk = run[i : i + take]
                clock.sorted_inserts += take
                self.queue.add_run(chunk)
                self.mirror.append_many(chunk)
                self.queued_inserts += take
                if OBS.enabled:
                    self._m_queued.inc(take)
                    for t in chunk.timestamps:
                        self._m_reorder.observe(boundary - t + 1)
                    self._m_queue_depth.set(len(self.queue))
                    self._m_mirror_bytes.set(self.mirror.size_bytes)
                i += take
                if self.queue.is_full:
                    self.flush_queue()

    #: The per-event name, kept for the frozen tracer table (ROADMAP 10(d)).
    insert = insert_run

    def flush_queue(self) -> None:
        """Bulk-insert the queue into the tree; clears the mirror log.

        The queue drains as one batch, WAL-logged with a single device
        write (byte-identical to per-record appends), then inserted row
        by row.  Any event the (lost) WAL tail would miss after a crash is
        still covered by the mirror log, which is only cleared after
        every insert landed.
        """
        batch = self.queue.drain()
        if not batch:
            return
        self.queue_flushes += 1
        lsns = range(self.tree.lsn + 1, self.tree.lsn + 1 + len(batch))
        self.wal.append_many(batch, lsns)
        insert = self.tree.ooo_insert
        for t, values, lsn in zip(batch.timestamps, zip(*batch.columns), lsns):
            # Roll the tree's LSN cursor in step, as interleaved
            # append/insert would have: leaves flushed mid-loop must
            # record the LSN current *at that point*, not the batch tail.
            self.tree.lsn = lsn
            insert(t, values, lsn)
        self.mirror.clear()
        if OBS.enabled:
            self._m_flushes.inc()
            self._m_queue_depth.set(len(self.queue))
            self._m_mirror_bytes.set(self.mirror.size_bytes)
            self._m_wal_bytes.set(self.wal.size_bytes)
        self._since_checkpoint += len(batch)
        if self._since_checkpoint >= self.checkpoint_interval:
            self.checkpoint()

    def checkpoint(self) -> None:
        """Force dirty pages to storage and truncate the WAL (Figure 7)."""
        self.tree.buffer.flush_dirty()
        self.tree.layout.flush()
        self.wal.clear()
        self._since_checkpoint = 0
        self.checkpoints += 1
        if OBS.enabled:
            self._m_checkpoints.inc()
            self._m_wal_bytes.set(self.wal.size_bytes)

    def close(self) -> None:
        """Drain everything ahead of a clean shutdown."""
        self.flush_queue()
        self.checkpoint()

    def recover(self) -> int:
        """Log recovery (Section 6.3) after tree recovery; returns the
        number of events re-applied from the WAL.

        Both logs are first trimmed past a torn trailing record (a crash
        can cut a group-commit write anywhere).  A crash *during*
        :meth:`flush_queue` — after the WAL group write but before the
        mirror log was cleared — leaves the same events in both logs;
        WAL records win (replay puts them in the tree), and matching
        mirror records are skipped instead of being re-queued, which
        would surface them twice.
        """
        with obs.span("recovery.log_replay"):
            self.wal.trim_torn_tail()
            self.mirror.trim_torn_tail()
            applied = 0
            max_lsn = self.tree.lsn
            wal_seen: Counter = Counter()
            for lsn, t, values in self.wal.replay():
                max_lsn = max(max_lsn, lsn)
                wal_seen[(t, values)] += 1
                if self.tree.ooo_insert_if_newer(t, values, lsn):
                    applied += 1
            self.tree.lsn = max_lsn
            rows = []
            for _, t, values in self.mirror.replay():
                key = (t, values)
                if wal_seen[key] > 0:
                    wal_seen[key] -= 1
                    continue
                rows.append(key)
            # The mirror log is in arrival order: a stable sort by time
            # re-queues the survivors as the queue had sorted them.
            rows.sort(key=itemgetter(0))
            if rows:
                ts, values = zip(*rows)
                self.queue.add_run(ColumnarEvents(list(ts), list(zip(*values))))
            requeued = len(rows)
            if OBS.enabled:
                OBS.counter("recovery.wal_records_replayed").inc(applied)
                OBS.counter("recovery.mirror_records_requeued").inc(requeued)
        return applied

    @property
    def pending(self) -> int:
        """Events in the queue, not yet inserted into the tree."""
        return len(self.queue)
