"""The Temporal Aggregated B+-tree (TAB+-tree), paper Section 5.2.

A B+-tree keyed on event timestamps, bulk-built left-to-right: only the
right flank (the open node of every level) lives in memory, so index
construction costs O(N/b) block writes — "almost for free".  Every index
entry carries per-attribute (min, max, sum) plus count, enabling
lightweight filtering (Algorithm 2) and logarithmic temporal aggregation.
All levels are doubly linked; node ids are allocated *eagerly* when a
flank node opens, so the forward sibling link is known before its
predecessor is written — the "stable IDs" requirement of Section 5.2.2.

Out-of-order insertions (Section 5.7) go through an LRU node buffer with
a no-force policy; spare space in leaves absorbs most inserts, and rare
leaf splits are written through immediately (see DESIGN.md).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, bisect_right

from repro.errors import QueryError, StorageError
from repro.events.event import ColumnarEvents, Event
from repro.events.schema import EventSchema
from repro.index.buffer import NodeBuffer
from repro.obs import OBS
from repro.index.entry import IndexEntry, LeafStatistics, RunStatistics
from repro.index.node import (
    FLAG_SPLIT,
    IndexNode,
    LeafNode,
    NO_NODE,
    NodeCodec,
)
from repro.index.queries import (
    AggregateAccumulator,
    AttributeRange,
    FAST_AGGREGATES,
    SCAN_AGGREGATES,
    add_bucketed,
    fold,
    window_events,
)
from repro.storage.prefetch import SequentialBlockReader


class TabTree:
    """Primary index over one event stream (or one time split of it).

    Parameters
    ----------
    layout:
        The :class:`~repro.storage.layout.ChronicleLayout` the tree
        persists its nodes into.
    schema:
        Event schema of the stream.
    indexed_attributes:
        Attributes whose aggregates are materialized in index entries
        (``None`` = all; the Figure-11 knob).
    lblock_spare:
        Fraction of leaf capacity reserved for out-of-order insertions
        (the paper's "spare", Section 5.7.1; 10 % in the experiments).
    buffer_capacity:
        LRU node-buffer slots for the out-of-order path.
    """

    def __init__(
        self,
        layout,
        schema: EventSchema,
        indexed_attributes: list[str] | None = None,
        lblock_spare: float = 0.1,
        buffer_capacity: int = 1024,
        extended_aggregates: bool = False,
    ):
        self._init_base(layout, schema, indexed_attributes, lblock_spare,
                        buffer_capacity, extended_aggregates)
        self.leaf = self._new_leaf(self._allocate_flank_id(0, NO_NODE), NO_NODE)

    def _init_base(
        self,
        layout,
        schema: EventSchema,
        indexed_attributes: list[str] | None,
        lblock_spare: float,
        buffer_capacity: int,
        extended_aggregates: bool = False,
    ) -> None:
        if not 0.0 <= lblock_spare < 0.9:
            raise StorageError(f"leaf spare fraction out of range: {lblock_spare}")
        self.layout = layout
        #: The shared clock; the tree counts its CPU work there.
        self.clock = layout.clock
        self.schema = schema
        self.codec = NodeCodec(schema, layout.lblock_size, indexed_attributes,
                               extended_aggregates)
        layout.set_leaf_columns(schema.arity)
        #: The PAX typecode of each attribute column.
        self._column_chars = [f.kind.struct_char for f in schema.fields]
        self.lblock_spare = lblock_spare
        self.leaf_write_capacity = max(
            2, int(self.codec.leaf_capacity * (1.0 - lblock_spare))
        )
        self.leaf: LeafNode | None = None
        #: Open index node per level (index 0 = level 1); the last is the root.
        self.flank: list[IndexNode] = []
        self.buffer = NodeBuffer(self, buffer_capacity)
        self.lsn = 0
        self.event_count = 0
        self.min_t: int | None = None
        #: (id, t_max) of the most recently flushed leaf — Algorithm 3's
        #: boundary between flank inserts and true out-of-order events.
        self.last_flushed_leaf: tuple[int, int] | None = None
        self.splits_performed = 0
        #: Called with the LeafNode just written by an in-order flush and
        #: its LeafStatistics; the split feeds its secondary indexes (block
        #: ids of events are only known once their leaf is durable).
        self.leaf_flush_hook = None
        #: Called with the RunStatistics of in-order flushes and how many
        #: of its leaves were written: once per run that fills a leaf, once
        #: per leaf flushed on its own.  The split folds them into its
        #: temporal correlation.
        self.run_flush_hook = None
        #: Called with (t, values, leaf_id) after an out-of-order insert.
        self.ooo_insert_hook = None
        self._m_leaf_flushes = OBS.counter("index.leaf_flushes")
        self._m_flank_flushes = OBS.counter("index.flank_flushes")
        self._m_splits = OBS.counter("index.splits")
        self._m_ooo_inserts = OBS.counter("index.ooo_inserts")

    @classmethod
    def from_state(cls, layout, schema: EventSchema, state: dict,
                   indexed_attributes: list[str] | None = None,
                   lblock_spare: float = 0.1,
                   buffer_capacity: int = 1024,
                   extended_aggregates: bool = False) -> "TabTree":
        """Rebuild a tree from a commit-record snapshot (clean reopen)."""
        tree = cls.__new__(cls)
        tree._init_base(layout, schema, indexed_attributes, lblock_spare,
                        buffer_capacity, extended_aggregates)
        tree.restore_state(state)
        return tree

    # ------------------------------------------------------------- plumbing

    def _new_leaf(self, node_id: int, prev_id: int = NO_NODE) -> LeafNode:
        """An empty open leaf with typed (array) columns."""
        return LeafNode(node_id=node_id, prev_id=prev_id,
                        timestamps=array("q"),
                        columns=[array(char) for char in self._column_chars])

    def _load_node(self, node_id: int):
        node = self.codec.decode(self.layout.read_block(node_id))
        self.clock.node_visits += 1
        return node

    def _store_node(self, node, is_new: bool) -> None:
        data = self.codec.encode(node)
        if is_new:
            self.layout.write_block(node.node_id, data)
        else:
            self.layout.update_block(node.node_id, data)

    def _get_node(self, node_id: int):
        """Resolve a node id against flank, buffer, then storage."""
        if node_id == self.leaf.node_id:
            return self.leaf
        for node in self.flank:
            if node.node_id == node_id:
                return node
        return self.buffer.get(node_id)

    @property
    def root(self):
        """The (virtual) root: the top flank node, or the open leaf."""
        return self.flank[-1] if self.flank else self.leaf

    @property
    def height(self) -> int:
        return len(self.flank) + 1

    @property
    def flank_boundary_t(self) -> int | None:
        """Largest timestamp already flushed to disk (Algorithm 3 boundary)."""
        return self.last_flushed_leaf[1] if self.last_flushed_leaf else None

    # -------------------------------------------------------------- ingestion

    def append_run(self, run: ColumnarEvents) -> None:
        """Insert a chronological run (non-decreasing timestamps) at the flank.

        The run's columns are bulk-extended into the open leaf, split at
        leaf-flush boundaries, with serialized events counted once per
        chunk.  Every leaf the run fills gets its statistics from one
        :class:`RunStatistics` call over the run.  A prefix that sorts
        below the open leaf's tail (the "right flank buffer" of Algorithm
        3) is inserted row by row at its sorted position, column by column.
        """
        n = len(run)
        if n == 0:
            return
        timestamps, columns = run.timestamps, run.columns
        if self.min_t is None or timestamps[0] < self.min_t:
            self.min_t = timestamps[0]
        clock = self.clock
        capacity = self.leaf_write_capacity
        i = 0
        leaf = self.leaf
        while i < n and leaf.timestamps and timestamps[i] < leaf.timestamps[-1]:
            clock.events_serialized += 1
            clock.sorted_inserts += 1
            t = timestamps[i]
            position = bisect_right(leaf.timestamps, t)
            leaf.timestamps.insert(position, t)
            for column, values in zip(leaf.columns, columns):
                column.insert(position, values[i])
            self.event_count += 1
            i += 1
            if leaf.count >= capacity:
                self._flush_leaf()
                leaf = self.leaf
        if leaf.count >= capacity:
            # Only a failed flush leaves the open leaf full: retry it.
            self._flush_leaf()
            leaf = self.leaf
        full = (leaf.count + n - i) // capacity
        if full:
            i = self._extend(i, i + capacity - leaf.count, timestamps, columns)
            stats = RunStatistics.of(
                self.leaf.columns, columns, i, full,
                self.codec.indexed_positions, self.codec.extended_aggregates,
            )
            written = 0
            try:
                for index in range(full):
                    if index:
                        i = self._extend(i, i + capacity, timestamps, columns)
                    self._flush_leaf(stats, index)
                    written += 1
            finally:
                if written and self.run_flush_hook is not None:
                    self.run_flush_hook(stats, written)
        if i < n:
            self._extend(i, n, timestamps, columns)

    def _extend(self, i: int, end: int, timestamps, columns) -> int:
        """Extend the open leaf with the run's rows ``[i, end)``."""
        leaf = self.leaf
        if i == 0 and end == len(timestamps):
            # Whole run fits: extend from the sequences directly
            # instead of slicing out copies.
            leaf.timestamps.extend(timestamps)
            for column, values in zip(leaf.columns, columns):
                column.extend(values)
        else:
            leaf.timestamps.extend(timestamps[i:end])
            for column, values in zip(leaf.columns, columns):
                column.extend(values[i:end])
        self.clock.events_serialized += end - i
        self.event_count += end - i
        return end

    #: The per-event name, kept for the frozen tracer table (ROADMAP 10(d)).
    append = append_run

    def _flush_leaf(self, run: RunStatistics | None = None,
                    index: int = 0) -> None:
        """Write the full open leaf; its statistics are leaf *index* of
        *run*, or one kernel call of its own."""
        leaf = self.leaf
        next_id = self._allocate_flank_id(0, leaf.node_id)
        leaf.next_id = next_id
        leaf.lsn = self.lsn
        self.layout.write_block(leaf.node_id, self.codec.encode_leaf(leaf))
        alone = run is None
        if alone:
            run = RunStatistics.of(leaf.columns, (), 0, 1,
                                   self.codec.indexed_positions,
                                   self.codec.extended_aggregates)
        stats = run.leaf(index, leaf.node_id, leaf.timestamps, leaf.columns)
        self.last_flushed_leaf = (leaf.node_id, leaf.t_max)
        # The flushed leaf stays buffered (clean): late arrivals have
        # temporal locality and usually target this recent region.
        self.buffer.put_clean(leaf)
        self.leaf = self._new_leaf(next_id, leaf.node_id)
        if OBS.enabled:
            self._m_leaf_flushes.inc()
        self._insert_flank_entry(1, stats.entry)
        if self.leaf_flush_hook is not None:
            self.leaf_flush_hook(leaf, stats)
        if alone and self.run_flush_hook is not None:
            self.run_flush_hook(run, 1)

    def leaf_statistics(self, leaf: LeafNode) -> LeafStatistics:
        """One statistics pass over *leaf* (:meth:`LeafStatistics.of`)."""
        return LeafStatistics.of(
            leaf.node_id, leaf.timestamps, leaf.columns,
            self.codec.indexed_positions, self.codec.extended_aggregates,
        )

    def _allocate_flank_id(self, level: int, prev_id: int) -> int:
        """Allocate and *reserve* an id for a newly opened flank node.

        Flank index nodes live in memory for many leaf windows before
        they are written; reserving their TLB slot keeps the positional
        TLB flowing, and tells the layout the node's *level* and the
        node it follows, *prev_id* (see ChronicleLayout.reserve_block).
        """
        node_id = self.layout.allocate_id()
        self.layout.reserve_block(node_id, level, prev_id)
        return node_id

    def _insert_flank_entry(self, level: int, entry: IndexEntry) -> None:
        if level > len(self.flank):
            self.flank.append(
                IndexNode(node_id=self._allocate_flank_id(level, NO_NODE),
                          level=level)
            )
        node = self.flank[level - 1]
        node.entries.append(entry)
        if node.count >= self.codec.index_capacity:
            self._flush_flank_node(level)

    def _flush_flank_node(self, level: int) -> None:
        node = self.flank[level - 1]
        next_id = self._allocate_flank_id(level, node.node_id)
        node.next_id = next_id
        node.lsn = self.lsn
        self.layout.write_block(node.node_id, self.codec.encode_index(node))
        if OBS.enabled:
            self._m_flank_flushes.inc()
        summary = IndexEntry.combine(node.node_id, node.entries)
        self.flank[level - 1] = IndexNode(
            node_id=next_id, level=level, prev_id=node.node_id
        )
        self._insert_flank_entry(level + 1, summary)

    def flush(self) -> None:
        """Write back dirty buffered nodes and force the storage layout."""
        self.buffer.flush_dirty()
        self.layout.flush()

    # --------------------------------------------------------------- queries

    def time_travel(self, t_start: int, t_end: int,
                    ranges: list[AttributeRange] | None = None):
        """Yield events with ``t_start <= t <= t_end`` in time order —
        with *ranges*, only those whose attributes fall in every range:
        the rows of :meth:`leaf_slices`' windows."""
        return window_events(self.leaf_slices(t_start, t_end, ranges),
                             self.schema, ranges, self.clock)

    def _event_at(self, leaf: LeafNode, row: int) -> Event:
        self.clock.events_deserialized += 1
        return Event(
            leaf.timestamps[row],
            tuple(column[row] for column in leaf.columns),
        )

    def _descend_to_leaf(self, t: int, fetch_leaf=None):
        """The leftmost leaf that may contain timestamp *t*.

        Reads stay leftmost (``t_max >= t``) so a scan from *t* starts
        at the first stored row at *t*; inserts descend with
        :meth:`_descend_with_path`, which goes past them.  *fetch_leaf*
        reads a flushed leaf by id (default: through the node buffer).
        """
        node = self.root
        while node.level:
            chosen = None
            for entry in node.entries:
                if entry.t_max >= t:
                    chosen = entry.child_id
                    break
            if chosen is None:
                # All flushed children end before t: descend the open spine.
                node = self._open_child(node)
            elif node.level == 1 and fetch_leaf is not None:
                return fetch_leaf(chosen)
            else:
                node = self._get_node(chosen)
        return node

    def _open_child(self, flank_node: IndexNode):
        """The open (in-memory) child of a flank node."""
        level = flank_node.level
        if level == 1:
            return self.leaf
        return self.flank[level - 2]

    def _is_flank(self, node) -> bool:
        return node is self.leaf or any(node is f for f in self.flank)

    def _children(self, node: IndexNode):
        """(entry | None, child_getter) pairs; None entry = open child."""
        pairs = [(e, e.child_id) for e in node.entries]
        if self._is_flank(node):
            open_child = self._open_child(node)
            pairs.append((None, open_child.node_id))
        return pairs

    # .......................................................... aggregation

    def aggregate(self, t_start: int, t_end: int, attribute: str, function: str):
        """Temporal aggregation (Section 5.6.2).

        ``sum/count/min/max/avg`` run in logarithmic time using stored
        entry statistics when *attribute* is indexed; ``stdev`` (and any
        non-indexed attribute) falls back to scanning qualifying leaves.
        """
        if function not in FAST_AGGREGATES and function not in SCAN_AGGREGATES:
            raise QueryError(f"unknown aggregate function {function!r}")
        position = self.schema.index_of(attribute)
        needs_scan = position not in self.codec.indexed_positions or (
            function in SCAN_AGGREGATES and not self.codec.extended_aggregates
        )
        if needs_scan:
            values: list = []
            for leaf, lo, hi in self.leaf_slices(t_start, t_end):
                values += leaf.column(position)[lo:hi]
            return fold(function, values)
        return self.aggregate_components(t_start, t_end, attribute).result(function)

    def aggregate_components(
        self, t_start: int, t_end: int, attribute: str
    ) -> AggregateAccumulator:
        """Raw (count, sum, min, max) over a range for an indexed attribute.

        Exposed so time splits can combine partial results across split
        boundaries without losing the logarithmic fast path.
        """
        return self.grouped_components(t_start, t_end, attribute).get(
            None, AggregateAccumulator()
        )

    def grouped_components(
        self, t_start: int, t_end: int, attribute: str,
        width: int | None = None, stats: dict | None = None,
    ) -> dict:
        """Per-time-bucket aggregate components in a single descent.

        Buckets align to multiples of *width* (the ``GROUP BY time``
        contract); without *width* there is one bucket, keyed None.  An
        index entry whose span sits inside both the query range and one
        bucket contributes its stored statistics in O(1); only entries
        cut by the range or by a bucket boundary descend.  Returns
        ``{bucket_start: AggregateAccumulator}`` for non-empty buckets
        only.  *stats* (optional dict) counts the leaves read as
        ``leaves_scanned``.
        """
        if t_end < t_start:
            raise QueryError(f"empty time interval [{t_start}, {t_end}]")
        position = self.schema.index_of(attribute)
        if position not in self.codec.indexed_positions:
            raise QueryError(f"attribute {attribute!r} is not indexed")
        agg_index = self.codec.indexed_positions.index(position)
        buckets: dict = {}
        if self.event_count:
            self._grouped_node(self.root, t_start, t_end, position, agg_index,
                               width, buckets, stats)
        return buckets

    def _grouped_node(self, node, t_start, t_end, position, agg_index, width,
                      buckets, stats):
        if node.level == 0:
            if stats is not None:
                stats["leaves_scanned"] = stats.get("leaves_scanned", 0) + 1
            timestamps = node.timestamps
            lo = bisect_left(timestamps, t_start)
            hi = bisect_right(timestamps, t_end)
            if lo < hi:
                add_bucketed(buckets, timestamps, node.column(position),
                             lo, hi, width)
            return
        self.clock.node_visits += 1
        for entry, child_id in self._children(node):
            if entry is None:
                self._grouped_node(self._get_node(child_id), t_start, t_end,
                                   position, agg_index, width, buckets, stats)
                continue
            if entry.t_max < t_start or entry.t_min > t_end:
                continue
            if t_start <= entry.t_min and entry.t_max <= t_end and (
                width is None or entry.t_min // width == entry.t_max // width
            ):
                bucket = None if width is None else entry.t_min // width * width
                acc = buckets.get(bucket)
                if acc is None:
                    acc = buckets[bucket] = AggregateAccumulator()
                acc.add_entry(entry.aggs[agg_index], entry.count)
            else:
                self._grouped_node(self._get_node(child_id), t_start, t_end,
                                   position, agg_index, width, buckets, stats)

    # ................................................ leaf windows (one walk)

    def leaf_slices(self, t_start: int, t_end: int,
                    ranges: list[AttributeRange] | None = None,
                    stats: dict | None = None):
        """Yield ``(leaf, lo, hi)`` windows of qualifying leaves in order.

        The one walk that reaches a leaf.  Without a range on an indexed
        attribute it descends once and follows the forward sibling chain
        (Section 5.6.1); otherwise Algorithm-2 min/max statistics of the
        indexed *ranges* prune subtrees.  Callers select rows.  Flushed
        leaves come through one sequential prefetcher as lazy
        :class:`~repro.index.node.LeafView` objects (timestamps decoded,
        attribute columns on demand); ``[lo, hi)`` is the row window cut
        by the time range.  *stats* (optional dict) collects the
        planner's ``leaves_*`` / ``values_decoded`` / ``blocks_*`` counts.
        """
        if t_end < t_start:
            raise QueryError(f"empty time interval [{t_start}, {t_end}]")
        if self.event_count == 0:
            return
        prunable = []
        for r in ranges or []:
            position = self.schema.index_of(r.name)
            if position in self.codec.indexed_positions:
                prunable.append((self.codec.indexed_positions.index(position), r))
        # Leaves are requested left to right, so the prefetcher streams
        # them and restarts past a pruned gap with a single seek.
        reader = SequentialBlockReader(self.layout, restart_gap=64)
        on_decode = self._decode_counter(stats)

        def fetch(node_id: int):
            return self._fetch_leaf_view(node_id, reader, on_decode)

        if prunable:
            walk = self._leaf_slice_node(self.root, t_start, t_end, prunable,
                                         fetch, stats)
        else:
            walk = self._leaf_chain(t_start, t_end, fetch)
        try:
            for window in walk:
                if stats is not None:
                    stats["leaves_scanned"] = stats.get("leaves_scanned", 0) + 1
                yield window
        finally:
            if stats is not None:
                stats["blocks_requested"] = (
                    stats.get("blocks_requested", 0) + reader.requested
                )
                stats["blocks_inflated"] = (
                    stats.get("blocks_inflated", 0) + reader.inflated
                )

    def _decode_counter(self, stats: dict | None):
        clock = self.clock

        def on_decode(n: int) -> None:
            clock.values_decoded += n
            if stats is not None:
                stats["values_decoded"] = stats.get("values_decoded", 0) + n

        return on_decode

    def _leaf_chain(self, t_start, t_end, fetch):
        """Windows along the sibling chain from the descent to *t_start*."""
        leaf = self._descend_to_leaf(t_start, fetch)
        while True:
            if leaf.count:
                if leaf.t_min > t_end:
                    return
                lo = bisect_left(leaf.timestamps, t_start)
                hi = bisect_right(leaf.timestamps, t_end)
                if lo < hi:
                    yield leaf, lo, hi
                if hi < leaf.count:
                    return  # passed t_end inside this leaf
            if leaf is self.leaf or leaf.next_id == NO_NODE:
                return
            leaf = fetch(leaf.next_id)

    def _leaf_slice_node(self, node, t_start, t_end, prunable, fetch, stats):
        """Algorithm 2: windows under *node*, pruned by entry statistics."""
        if node.level == 0:
            if node.count:
                lo = bisect_left(node.timestamps, t_start)
                hi = bisect_right(node.timestamps, t_end)
                if lo < hi:
                    yield node, lo, hi
            return
        self.clock.node_visits += 1
        for entry, child_id in self._children(node):
            if entry is not None:
                if entry.t_max < t_start:
                    continue
                if entry.t_min > t_end:
                    return  # later entries are even further right
                if any(
                    not r.overlaps(entry.aggs[i][0], entry.aggs[i][1])
                    for i, r in prunable
                ):
                    if stats is not None:
                        if node.level == 1:
                            skipped = 1
                        else:
                            skipped = max(
                                1, entry.count // self.leaf_write_capacity
                            )
                        stats["leaves_skipped"] = (
                            stats.get("leaves_skipped", 0) + skipped
                        )
                    continue
            if node.level == 1:
                child = fetch(child_id)
            else:
                child = self._get_node(child_id)
            yield from self._leaf_slice_node(child, t_start, t_end, prunable,
                                             fetch, stats)

    def _fetch_leaf_view(self, node_id: int, reader, on_decode):
        """A leaf as a lazy view; flank/buffered leaves come back eager."""
        if node_id == self.leaf.node_id:
            return self.leaf
        cached = self.buffer.cached(node_id)
        if cached is not None:
            return cached
        data = reader.get(node_id)
        self.clock.node_visits += 1
        return self.codec.leaf_view(data, on_decode)

    def full_scan(self):
        """Replay the whole stream in time order (Figure 15's read test)."""
        return self.time_travel(-(2**62), 2**62)

    # ------------------------------------------------ out-of-order insertion

    def next_lsn(self) -> int:
        self.lsn += 1
        return self.lsn

    def ooo_insert(self, t: int, values, lsn: int | None = None) -> None:
        """Insert the event ``(t, values)``, older than the flank boundary
        (Section 5.7.1).

        The caller (the out-of-order manager) has already WAL-logged the
        event.  Spare space in the target leaf absorbs the insert; a full
        leaf splits, with the split pages written through immediately.
        """
        if lsn is None:
            lsn = self.next_lsn()
        boundary = self.flank_boundary_t
        if boundary is None or t > boundary:
            self.append_run(ColumnarEvents([t], [[value] for value in values]))
            return
        path, leaf = self._descend_with_path(t)
        if OBS.enabled:
            self._m_ooo_inserts.inc()
        indexed = self.codec.indexed_values(values)
        for node, entry_index in path:
            if entry_index is not None:
                node.entries[entry_index].add_value(t, indexed)
                node.lsn = max(node.lsn, lsn)
                if not self._is_flank(node):
                    self.buffer.mark_dirty(node.node_id)
        self.clock.sorted_inserts += 1
        position = bisect_right(leaf.timestamps, t)
        leaf.timestamps.insert(position, t)
        for column, value in zip(leaf.columns, values):
            column.insert(position, value)
        leaf.lsn = max(leaf.lsn, lsn)
        self.event_count += 1
        if self.min_t is None or t < self.min_t:
            self.min_t = t
        if leaf is self.leaf:
            if leaf.count >= self.leaf_write_capacity:
                self._flush_leaf()
            return
        self.buffer.mark_dirty(leaf.node_id)
        if leaf.count > self.codec.leaf_capacity:
            self._split_leaf(leaf, path)
        elif t == boundary:
            # The next flushed leaf will end after t, and WAL replay will
            # descend to it and skip this LSN there: this row must be on
            # disk in this leaf before that leaf exists.
            self.buffer.write_through(leaf.node_id)
        if self.ooo_insert_hook is not None:
            self.ooo_insert_hook(t, values, leaf.node_id)

    def ooo_insert_if_newer(self, t: int, values, lsn: int) -> bool:
        """WAL redo (Section 6.3): insert unless the target leaf already
        carries this LSN.  Returns whether the event was applied."""
        boundary = self.flank_boundary_t
        if boundary is None or t > boundary:
            target = self.leaf
        else:
            _, target = self._descend_with_path(t)
        if target.lsn >= lsn:
            return False
        self.lsn = max(self.lsn, lsn)
        self.ooo_insert(t, values, lsn)
        return True

    def _descend_with_path(self, t: int):
        """Descend to the leaf for timestamp *t*, recording the path.

        Returns ``(path, leaf)`` where path items are ``(index_node,
        entry_index | None)``; ``None`` marks the open spine (no entry to
        update).  Callers pass ``t <= flank_boundary_t``: the leaf is the
        first flushed one ending after *t* — a late row goes in at
        ``bisect_right``, behind every stored row at its timestamp, so
        storage order among equal timestamps is arrival order — or, at
        ``t == flank_boundary_t``, the last flushed leaf.
        """
        path = []
        node = self.root
        while not isinstance(node, LeafNode):
            chosen_index = None
            for i, entry in enumerate(node.entries):
                if entry.t_max > t:
                    chosen_index = i
                    break
            if chosen_index is None:
                if self._is_flank(node) and any(
                    self.flank[i].entries for i in range(node.level - 1)
                ):
                    # Flushed children below the open spine come later.
                    path.append((node, None))
                    node = self._open_child(node)
                    continue
                chosen_index = node.count - 1  # past every child: the last
            path.append((node, chosen_index))
            node = self._get_node(node.entries[chosen_index].child_id)
        return path, node

    # ................................................................ splits

    def _split_leaf(self, leaf: LeafNode, path) -> None:
        """Split an overfull historical leaf (rare; Section 5.7.1).

        All affected pages are written through immediately so the
        multi-page operation is never left half-applied by the no-force
        buffer (DESIGN.md).
        """
        self.splits_performed += 1
        if OBS.enabled:
            self._m_splits.inc()
        mid = leaf.count // 2
        new_id = self.layout.allocate_id()
        right = LeafNode(
            node_id=new_id,
            prev_id=leaf.node_id,
            next_id=leaf.next_id,
            lsn=leaf.lsn,
            timestamps=leaf.timestamps[mid:],
            columns=[column[mid:] for column in leaf.columns],
        )
        leaf.timestamps = leaf.timestamps[:mid]
        leaf.columns = [column[:mid] for column in leaf.columns]
        leaf.next_id = new_id
        leaf.flags |= FLAG_SPLIT
        # Durability ordering (recovery depends on it): first the new
        # right page, then the truncated left page with its forward link.
        # Until the left page lands, the durable chain still skips the
        # right page — recovery detects that (``prev.next != me``) and
        # rolls the split back, replaying the triggering event from the
        # WAL.  Once the left page is durable the split is committed, and
        # only then may other durable pages (prev links, parent entries)
        # reference the new node.
        self.buffer.put_new(right)
        self.buffer.write_through(new_id)
        self.layout.flush()
        self.buffer.write_through(leaf.node_id)
        self.layout.flush()
        self._fix_prev_link(right.next_id, new_id)
        self._replace_parent_entry(path, self.leaf_statistics(leaf).entry,
                                   self.leaf_statistics(right).entry)

    def _fix_prev_link(self, node_id: int, new_prev: int) -> None:
        if node_id == NO_NODE:
            return
        if node_id == self.leaf.node_id:
            self.leaf.prev_id = new_prev
            return
        node = self.buffer.get(node_id)
        node.prev_id = new_prev
        self.buffer.mark_dirty(node_id)
        self.buffer.write_through(node_id)

    def _replace_parent_entry(self, path, left_entry, right_entry) -> None:
        """Replace the parent's entry for a split child with two entries."""
        parent, entry_index = path[-1]
        if entry_index is None:
            raise StorageError("split below the open spine is impossible")
        parent.entries[entry_index] = left_entry
        parent.entries.insert(entry_index + 1, right_entry)
        parent.lsn = self.lsn
        if self._is_flank(parent):
            if parent.count >= self.codec.index_capacity:
                self._flush_flank_node(parent.level)
            return
        self.buffer.mark_dirty(parent.node_id)
        if parent.count > self.codec.index_capacity:
            self._split_index(parent, path[:-1])
        else:
            self.buffer.write_through(parent.node_id)

    def _split_index(self, node: IndexNode, path_above) -> None:
        self.splits_performed += 1
        if OBS.enabled:
            self._m_splits.inc()
        mid = node.count // 2
        new_id = self.layout.allocate_id()
        right = IndexNode(
            node_id=new_id,
            level=node.level,
            prev_id=node.node_id,
            next_id=node.next_id,
            lsn=node.lsn,
            entries=node.entries[mid:],
        )
        node.entries = node.entries[:mid]
        node.next_id = new_id
        node.flags |= FLAG_SPLIT
        # Same durability ordering as leaf splits: new right page, then
        # the truncated left page, then everything that references them.
        self.buffer.put_new(right)
        self.buffer.write_through(new_id)
        self.layout.flush()
        self.buffer.write_through(node.node_id)
        self.layout.flush()
        self._fix_index_prev_link(right.next_id, node.level, new_id)
        left_entry = IndexEntry.combine(node.node_id, node.entries)
        right_entry = IndexEntry.combine(new_id, right.entries)
        self._replace_parent_entry(path_above, left_entry, right_entry)

    def _fix_index_prev_link(self, node_id: int, level: int, new_prev: int) -> None:
        if node_id == NO_NODE:
            return
        if level - 1 < len(self.flank) and self.flank[level - 1].node_id == node_id:
            self.flank[level - 1].prev_id = new_prev
            return
        node = self.buffer.get(node_id)
        node.prev_id = new_prev
        self.buffer.mark_dirty(node_id)
        self.buffer.write_through(node_id)

    def summary(self, open_leaf: LeafStatistics | None = None) -> IndexEntry | None:
        """One entry summarizing the whole tree (count, time span, aggs).

        Used by time splits: sealed splits keep this summary so whole-split
        aggregation queries run in constant time (Section 5.4).  Pass
        *open_leaf* when the open leaf's statistics are already at hand.
        """
        if self.event_count == 0:
            return None
        parts = [
            entry for node in self.flank for entry in node.entries
        ]
        if self.leaf.count:
            parts.append((open_leaf or self.leaf_statistics(self.leaf)).entry)
        if not parts:
            return None
        return IndexEntry.combine(NO_NODE, parts)

    # ------------------------------------------------------------ persistence

    def state_dict(self) -> dict:
        """Snapshot of the in-memory right flank for the commit record."""
        return {
            "lsn": self.lsn,
            "event_count": self.event_count,
            "min_t": self.min_t,
            "last_flushed_leaf": self.last_flushed_leaf,
            "leaf": {
                "id": self.leaf.node_id,
                "prev": self.leaf.prev_id,
                "lsn": self.leaf.lsn,
                "timestamps": self.leaf.timestamps.tolist(),
                "columns": [column.tolist() for column in self.leaf.columns],
            },
            "flank": [
                {
                    "id": node.node_id,
                    "prev": node.prev_id,
                    "lsn": node.lsn,
                    "entries": [
                        [e.child_id, e.t_min, e.t_max, e.count, e.aggs]
                        for e in node.entries
                    ],
                }
                for node in self.flank
            ],
            "indexed": list(self.codec.indexed_names),
            "lblock_spare": self.lblock_spare,
        }

    def restore_state(self, state: dict) -> None:
        self.lsn = state["lsn"]
        self.event_count = state["event_count"]
        self.min_t = state["min_t"]
        flushed = state["last_flushed_leaf"]
        self.last_flushed_leaf = tuple(flushed) if flushed else None
        leaf_state = state["leaf"]
        timestamps, columns = self.codec.pax.typed(
            leaf_state["timestamps"], leaf_state["columns"]
        )
        self.leaf = LeafNode(
            node_id=leaf_state["id"],
            prev_id=leaf_state["prev"],
            lsn=leaf_state["lsn"],
            timestamps=timestamps,
            columns=columns,
        )
        self.flank = []
        for level, node_state in enumerate(state["flank"], start=1):
            node = IndexNode(
                node_id=node_state["id"],
                level=level,
                prev_id=node_state["prev"],
                lsn=node_state["lsn"],
                entries=[
                    IndexEntry(c, lo, hi, n, [tuple(a) for a in aggs])
                    for c, lo, hi, n, aggs in node_state["entries"]
                ],
            )
            self.flank.append(node)

    def flush_all(self) -> None:
        """Flush buffered dirty nodes and the layout (pre-close/benchmark)."""
        self.buffer.flush_dirty()
        self.layout.flush()

    @classmethod
    def recover(cls, layout, schema: EventSchema, **kwargs) -> "TabTree":
        """Rebuild a tree over a crash-recovered layout (Section 6.2)."""
        from repro.recovery.tree_recovery import recover_tree_flank

        tree = cls.__new__(cls)
        tree._init_base(
            layout,
            schema,
            kwargs.get("indexed_attributes"),
            kwargs.get("lblock_spare", 0.1),
            kwargs.get("buffer_capacity", 1024),
            kwargs.get("extended_aggregates", False),
        )
        recover_tree_flank(tree)
        return tree
