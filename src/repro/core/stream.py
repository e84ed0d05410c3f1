"""Event streams: the per-stream coordinator.

An `EventStream` routes appends into time splits (rolling regular splits
at configured boundaries and irregular splits when the load scheduler
sheds secondary indexing), fans queries out across splits, answers
whole-split aggregations from sealed summaries in constant time, and
implements retention by dropping entire splits (paper, Sections 5.4–5.5).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import itemgetter

import numpy as np

from repro import obs
from repro.core.config import ChronicleConfig
from repro.core.devices import DeviceProvider
from repro.core.scheduler import LoadScheduler, Pressure
from repro.core.split import IRREGULAR, REGULAR, TimeSplit
from repro.errors import QueryError, SchemaError, StorageError
from repro.events.event import ColumnarEvents, Event
from repro.events.schema import EventSchema
from repro.events.serializer import PaxCodec
from repro.index.node import NO_NODE, LeafNode
from repro.index.queries import (
    AggregateAccumulator,
    AttributeRange,
    FAST_AGGREGATES,
    SCAN_AGGREGATES,
    add_bucketed,
    fold,
    window_events,
)
from repro.lifecycle.tiers import StreamTiers
from repro.obs import OBS

_HUGE = 2**62
#: Secondary indexes a reopen loaded from their run records / rebuilt.
_M_LOADED = OBS.counter("recovery.secondaries_loaded")
_M_REBUILT = OBS.counter("recovery.secondaries_rebuilt")


class EventStream:
    """A named, schema-bound sequence of events stored in time splits."""

    def __init__(
        self,
        name: str,
        schema: EventSchema,
        config: ChronicleConfig,
        devices: DeviceProvider,
    ):
        self.name = name
        self.schema = schema
        self._codec = PaxCodec(schema)
        self.config = config
        self.devices = devices
        self.scheduler = LoadScheduler()
        self.scheduler.on_transition = self._on_pressure_change
        self.splits: list[TimeSplit] = []
        #: Warm splits, cold rollups and expired ranges (repro.lifecycle).
        self.tiers = StreamTiers()
        self.appended = 0
        #: Summaries of deleted splits kept for condensed history
        #: ("thinned out ... via aggregation", Section 5.4).
        self.retired_summaries: list[dict] = []
        self._next_split_index = 0
        #: Live subscribers (continuous queries, repro.epc); called with
        #: each appended event after it is routed.
        self.subscribers: list = []

    # ------------------------------------------------------------- ingestion

    @property
    def active(self) -> TimeSplit | None:
        if self.splits and not self.splits[-1].sealed:
            return self.splits[-1]
        return None

    def _reject_tiered(self, ts) -> None:
        """Refuse appends into warm/cold/expired time ranges.

        The raw split for such a range is gone: `_route` would drop the
        event into a split whose bounds exclude it or duplicate history
        that was already rolled up.  While a warm tier exists, any event
        below the frontier is refused: hot splits start at or after it,
        so such a straggler would sort ``splits[0]`` ahead of that warm
        history.
        """
        tiers = self.tiers
        frontier = tiers.frontier
        if frontier is None:
            return
        for t in ts:
            if t < frontier and (tiers.warm or tiers.blocks(t)):
                raise StorageError(
                    f"event at t={t} falls in a tiered (warm/cold/expired) "
                    "range; the hot split for it no longer exists"
                )

    def append(self, event: Event) -> None:
        """Ingest one event: a batch of one."""
        self.append_batch((event,))

    def append_batch(self, events) -> int:
        """Ingest a batch of events, in order or out of order.

        *events* is a :class:`ColumnarEvents` batch or events transposed
        into one (:meth:`ColumnarEvents.of`).  Arity and, with
        ``validate_events``, value types are checked up front, so an
        invalid batch appends nothing.
        """
        batch = ColumnarEvents.of(events, self.schema.arity)
        return self._ingest(batch, self.config.validate_events)

    def append_columns(self, timestamps, columns) -> int:
        """Append a decoded wire batch (:mod:`repro.net.frames`) as one
        :class:`ColumnarEvents`.  Schema *type* validation is skipped —
        the wire decode already yields arrays of the schema's typecodes,
        which reach the leaf as they are."""
        return self._ingest(ColumnarEvents(timestamps, columns), False)

    def _ingest(self, batch: ColumnarEvents, validate: bool) -> int:
        """The one ingest path.  The batch's shape (and, with *validate*,
        its value types) is checked and its columns become arrays of the
        schema's typecodes before any side effect; then each
        *chronological run* — a maximal stretch of non-decreasing
        timestamps that route to the same split — reaches its split as
        one slice of *batch*, with one `_route` call per run.
        Subscribers see every event, in order, after the batch."""
        n = len(batch.timestamps)
        if len(batch.columns) != self.schema.arity:
            raise SchemaError(
                f"expected {self.schema.arity} columns, got {len(batch.columns)}"
            )
        if any(len(column) != n for column in batch.columns):
            raise SchemaError("ragged columns: lengths differ from timestamps")
        if not n:
            return 0
        if validate:
            self.schema.validate_batch(batch)
        # A no-op for wire batches; a value the typecode cannot hold
        # raises SchemaError here, before anything is appended.
        batch = ColumnarEvents(*self._codec.typed(batch.timestamps, batch.columns))
        ts = batch.timestamps
        if self.tiers.tiered_count or self.tiers.expired:
            self._reject_tiered(ts)
        # One vectorized pass finds every descent.  Between two of them
        # the batch is chronological (in the common case: all of it), so
        # a run's end is found by bisection, not a per-event loop.
        ends = []
        if n > 1:
            stamps = np.frombuffer(ts, np.int64)
            ends = ((stamps[1:] < stamps[:-1]).nonzero()[0] + 1).tolist()
        ends.append(n)
        e = 0
        i = 0
        while i < n:
            split = self._route(ts[i])
            while ends[e] <= i:
                e += 1
            j = i + 1
            if split is self.active:
                # Everything from i up to the split's end boundary routes
                # to the active split; the first timestamp at or past
                # t_end seals it and opens the next (exactly `_route`).
                hi = split.t_end
                j = ends[e] if hi is None else bisect_left(ts, hi, j, ends[e])
            else:
                while j < ends[e] and self._route_peek(ts[j]) is split:
                    j += 1
            split.ingest_run(batch if j - i == n else batch[i:j])
            i = j
        self.appended += n
        if self.subscribers:
            for subscriber in self.subscribers:
                for event in batch:
                    subscriber(event)
        return n

    def append_many(self, events) -> int:
        """Alias of :meth:`append_batch` (kept for the original API)."""
        return self.append_batch(events)

    def _route_peek(self, t: int) -> TimeSplit | None:
        """The split :meth:`_route` would return for *t*, without side
        effects; ``None`` when routing would seal or open a split."""
        active = self.active
        if active is None:
            return None
        if active.covers(t):
            return active
        if active.t_end is not None and t >= active.t_end:
            return None
        return self._late_split(t)

    def _route(self, t: int) -> TimeSplit:
        active = self.active
        if active is None:
            return self._open_split(t, kind=REGULAR)
        if active.covers(t):
            return active
        if active.t_end is not None and t >= active.t_end:
            active.seal()
            return self._open_split(t, kind=REGULAR)
        return self._late_split(t)

    def _late_split(self, t: int) -> TimeSplit:
        """The split for a late event at *t*: the newest split covering
        it, else the oldest one starting after it — ``splits[0]`` for a
        straggler older than every split, the split after the gap for
        one between splits.  Either way each split's held data stays
        between its neighbours', the order :meth:`_splits` reads in."""
        later = self.splits[0]
        for split in reversed(self.splits):
            if split.covers(t):
                return split
            if split.t_start is not None and t < split.t_start:
                later = split
        return later

    def _split_bounds(self, t: int) -> tuple[int | None, int | None]:
        interval = self.config.time_split_interval
        if interval is None:
            return None, None
        start = (t // interval) * interval
        return start, start + interval

    def _open_split(self, t: int, kind: str,
                    t_bounds: tuple | None = None) -> TimeSplit:
        t_start, t_end = t_bounds if t_bounds is not None else self._split_bounds(t)
        enabled = self.scheduler.enabled_attributes(
            list(self.config.secondary_indexes), self._latest_tc_scores()
        )
        split = TimeSplit(
            self.name,
            self._next_split_index,
            t_start,
            t_end,
            kind,
            self.schema,
            self.config,
            self.devices,
            secondary_attributes=enabled,
        )
        self._next_split_index += 1
        self.splits.append(split)
        return split

    def _latest_tc_scores(self) -> dict[str, float]:
        for split in reversed(self.splits):
            if split.tc_scores:
                return split.tc_scores
        return {}

    def _on_pressure_change(self, old: Pressure, new: Pressure) -> None:
        """Scheduler transition: shed or restore secondary indexing.

        Escalation to OVERLOAD splits the stream irregularly so the
        boundary between indexed and unindexed data is explicit
        (Section 5.5, Figure 6).  De-escalation only re-activates at the
        next regular split — matching the paper.
        """
        active = self.active
        if active is None:
            return
        if new is Pressure.OVERLOAD and active.secondary_attributes:
            boundary_end = active.t_end
            last_t = (
                active.tree.leaf.timestamps[-1]
                if active.tree.leaf.count
                else active.tree.flank_boundary_t
            )
            active.seal()
            start = None if last_t is None else last_t + 1
            split = self._open_split(
                start if start is not None else 0,
                kind=IRREGULAR,
                t_bounds=(start, boundary_end),
            )
            split.set_secondary_attributes([])
        elif new is Pressure.ELEVATED and active.secondary_attributes:
            enabled = self.scheduler.enabled_attributes(
                active.secondary_attributes, self._latest_tc_scores()
            )
            active.set_secondary_attributes(enabled)

    # --------------------------------------------------------------- queries

    @staticmethod
    def _split_start_key(split) -> int:
        """Where a (hot or warm) split's held data starts: its lower
        bound, or its oldest stored or still-queued event when that is
        older (a straggler routed to ``splits[0]``) or the split has no
        bound (restored post-crash).  :meth:`_splits` sorts by it."""
        start = split.t_start
        for t in (split.tree.min_t, split.manager.queue.min_t):
            if t is not None and (start is None or t < start):
                start = t
        return -_HUGE if start is None else start

    def _splits(self, t_start: int, t_end: int) -> list:
        """The one read view: every warm or hot split whose held data
        can overlap [t_start, t_end], sorted by where that data starts.

        Splits hold disjoint time ranges, so reading them in this order
        keeps the output in time order.  Every reader walks this list,
        each split as its tree plus the part of its late queue in range
        (a warm split queues nothing).
        """
        chosen = []
        for split in [*self.tiers.warm.values(), *self.splits]:
            if split.t_end is None or split.t_end > t_start:
                start = self._split_start_key(split)
                if start <= t_end:
                    chosen.append((start, split))
        chosen.sort(key=itemgetter(0))
        return [split for _, split in chosen]

    def time_travel(self, t_start: int, t_end: int,
                    ranges: list[AttributeRange] | None = None):
        """All raw events in [t_start, t_end], in time order, across tiers
        — with *ranges*, only those whose attributes fall in every range.

        The rows of :meth:`leaf_slices`' windows, each split's queued late
        events spliced in, with the ranges checked per row, so reads
        reflect every acknowledged event.  Warm splits are read like hot
        ones (they hold the same raw events, re-compressed); cold and
        expired ranges no longer have raw events and contribute nothing
        — only :meth:`aggregate` reaches into them.
        """
        return window_events(self.leaf_slices(t_start, t_end, ranges),
                             self.schema, ranges, self.devices.clock)

    def scan(self):
        """Replay the entire stream."""
        return self.time_travel(-_HUGE, _HUGE)

    def time_bounds(self, tiered: bool = False) -> tuple[int, int] | None:
        """(min, max) application time over all stored *raw* events: the
        hot and warm tiers.  With *tiered*, cold rollups and expired
        ranges count too — every tier a query answers from, or must be
        refused over.  Returns None when nothing counted is stored.
        """
        points = []
        for warm in self.tiers.warm.values():
            if warm.summary is not None:
                points += (warm.summary.t_min, warm.summary.t_max)
        for split in self.splits:
            tree, queue = split.tree, split.manager.queue
            points += (tree.min_t, queue.min_t, queue.max_t)
            if tree.leaf is not None and tree.leaf.count:
                points.append(tree.leaf.t_max)
            if tree.last_flushed_leaf is not None:
                points.append(tree.last_flushed_leaf[1])
        if tiered:
            for lo, hi, _ in self.tiers.expired:
                points += (lo, hi - 1)
            for rollup in self.tiers.cold.values():
                points += (rollup.t_start, rollup.t_end - 1)
        points = [t for t in points if t is not None]
        return (min(points), max(points)) if points else None

    def tier_guard(self, t_start: int, t_end: int, raw: bool) -> None:
        """Refuse queries whose range needs data a tier no longer holds.

        Expired ranges hold nothing at all; cold ranges hold only bucket
        aggregates, so *raw* reads (scans feeding value-level fallbacks)
        cannot touch them either.
        """
        for lo, hi, _ in self.tiers.expired:
            if hi - 1 >= t_start and lo <= t_end:
                raise QueryError(
                    f"range [{t_start}, {t_end}] overlaps expired range "
                    f"[{lo}, {hi}); that history was dropped"
                )
        if raw and self.tiers.cold:
            for rollup in self.tiers.cold_overlapping(t_start, t_end):
                raise QueryError(
                    f"range [{t_start}, {t_end}] needs raw events from cold "
                    f"range [{rollup.t_start}, {rollup.t_end}); only bucket "
                    "aggregates remain"
                )

    def index_blocker(self, attribute: str, function: str) -> str | None:
        """Why index statistics cannot answer ``function(attribute)``, or
        None when they can; a blocked aggregate folds scanned values."""
        indexed = self.config.indexed_attributes
        if indexed is not None and attribute not in indexed:
            return f"attribute {attribute!r} is not indexed"
        if function in SCAN_AGGREGATES and not self.config.extended_aggregates:
            return (
                f"{function} needs extended aggregates "
                "(sum of squares is not tracked)"
            )
        return None

    def aggregate(self, t_start: int, t_end: int, attribute: str,
                  function: str) -> float:
        """Temporal aggregation across splits and tiers.

        Answered from index statistics (:meth:`aggregate_accumulator`)
        unless :meth:`index_blocker` names a reason; then the attribute's
        raw values in the range's leaf windows are folded, and a range
        touching a cold or expired range, whose raw values are gone, is
        refused.  The planner runs aggregate queries on its own executor;
        this is the reference the test oracle reads.
        """
        if self.index_blocker(attribute, function):
            self.tier_guard(t_start, t_end, raw=True)
            position = self.schema.index_of(attribute)
            values: list = []
            for leaf, lo, hi in self.leaf_slices(t_start, t_end):
                values += leaf.column(position)[lo:hi]
            return fold(function, values)
        return self.aggregate_accumulator(t_start, t_end, attribute).result(
            function
        )

    def _split_components(self, t_start: int, t_end: int, attribute: str,
                          width: int | None = None,
                          stats: dict | None = None) -> dict:
        """Index statistics of the hot and warm splits, per time bucket.

        Splits fully inside the range — and, when grouping, inside one
        *width*-aligned bucket — answer from their sealed summary in
        O(1); the others descend their TAB+-tree once (Section 5.6.2).
        Each split's queued late events in range add their values on
        top, so statistics count what the scans read.  Without *width*
        there is one bucket, keyed None.  Returns the non-empty
        ``{bucket_start: AggregateAccumulator}``.
        """
        position = self.schema.index_of(attribute)
        buckets: dict = {}
        for split in self._splits(t_start, t_end):
            summary = split.summary
            if (
                split.sealed
                and summary is not None
                and t_start <= summary.t_min
                and summary.t_max <= t_end
                and (width is None
                     or summary.t_min // width == summary.t_max // width)
            ):
                agg = summary.aggs[
                    split.tree.codec.indexed_positions.index(position)
                ]
                part = AggregateAccumulator()
                part.add_entry(agg, summary.count)
                bucket = None if width is None else summary.t_min // width * width
                parts = {bucket: part}
            else:
                parts = split.tree.grouped_components(
                    t_start, t_end, attribute, width, stats
                )
            queued = split.manager.queue.window(t_start, t_end)
            if queued:
                add_bucketed(parts, queued.timestamps,
                             queued.columns[position], 0, len(queued), width)
            for bucket, part in parts.items():
                if part.count:
                    acc = buckets.get(bucket)
                    if acc is None:
                        acc = buckets[bucket] = AggregateAccumulator()
                    acc.add_summary(
                        part.minimum, part.maximum, part.total, part.count,
                        part.sum_squares if part.squares_exact else None,
                    )
        return buckets

    def aggregate_accumulator(self, t_start: int, t_end: int, attribute: str,
                              stats: dict | None = None
                              ) -> AggregateAccumulator:
        """Aggregate *components* of an indexed attribute over
        [t_start, t_end], from statistics alone: split summaries and
        tree descents (:meth:`_split_components`), then cold rollup
        buckets (bucket-aligned ranges only).  Distributed queries merge
        these per shard before finalizing (:mod:`repro.query.partials`).
        """
        self.tier_guard(t_start, t_end, raw=False)
        accumulator = self._split_components(
            t_start, t_end, attribute, stats=stats
        ).get(None, AggregateAccumulator())
        for rollup in self.tiers.cold_overlapping(t_start, t_end):
            rollup.accumulate(accumulator, t_start, t_end, attribute)
        return accumulator

    def condensed_aggregate(self, t_start: int, t_end: int, attribute: str,
                            function: str) -> float:
        """Aggregate over live data *and* retired (deleted) history.

        Section 5.4: outdated events can be "thinned out or condensed via
        aggregation, leveraging the aggregates in the TAB+-tree".  Splits
        dropped by :meth:`delete_before` leave their summary behind; this
        method folds those summaries into :meth:`aggregate_accumulator`'s
        answer for ranges that fully cover them (cold rollups are
        condensed history in exactly the same sense).  A range that cuts
        *through* a retired split cannot be answered (the events are
        gone) and raises :class:`QueryError`.
        """
        if function not in FAST_AGGREGATES:
            raise QueryError(
                f"condensed history supports {FAST_AGGREGATES}, "
                f"not {function!r}"
            )
        indexed = self.config.indexed_attributes
        if indexed is not None and attribute not in indexed:
            raise QueryError(
                f"attribute {attribute!r} is not indexed; its history was "
                "not condensed"
            )
        agg_position = (
            self.schema.index_of(attribute)
            if indexed is None
            else indexed.index(attribute)
        )
        accumulator = self.aggregate_accumulator(t_start, t_end, attribute)
        for retired in self.retired_summaries:
            lo, hi = retired["t_start"], retired["t_end"] - 1
            if hi < t_start or lo > t_end:
                continue
            if not (t_start <= lo and hi <= t_end):
                raise QueryError(
                    f"range [{t_start}, {t_end}] cuts through retired split "
                    f"[{lo}, {hi}]; its events were deleted"
                )
            accumulator.add_entry(retired["aggs"][agg_position],
                                  retired["count"])
        return accumulator.result(function)

    # ------------------------------------------------------- planner surface

    def estimate_rows(self, t_start: int, t_end: int) -> int:
        """Upper-bound event count the range can touch (planner costing)."""
        return sum(
            split.tree.event_count + split.manager.pending
            for split in self._splits(t_start, t_end)
        )

    def plan_segments(self, t_start: int, t_end: int) -> list[dict]:
        """Per-tier segments a plan over the range is stitched from: the
        warm and hot splits it reads, then cold and expired ranges."""
        return [
            {
                "tier": "warm" if split.kind == "warm" else "hot",
                "split": split.index,
                "t_start": split.t_start,
                "t_end": split.t_end,
                "events": split.tree.event_count,
                "ooo_pending": split.manager.pending,
            }
            for split in self._splits(t_start, t_end)
        ] + self.tiers.plan_segments(t_start, t_end)

    def leaf_slices(self, t_start: int, t_end: int,
                    ranges: list[AttributeRange] | None = None,
                    stats: dict | None = None,
                    time_order: bool = True):
        """Qualifying leaf windows across tiers (columnar access path).

        Fans :meth:`TabTree.leaf_slices` over :meth:`_splits`, each
        split's queued late events in range spliced in as one more
        (in-memory) leaf by :func:`_splice_queued`.  Every read of the
        stream is these windows.  *ranges* only prune; callers select
        rows.
        """
        # ``time_order`` selects nothing (every read is in time order);
        # it stays only for the frozen e2e scenario's caller, ROADMAP 10(d).
        for split in self._splits(t_start, t_end):
            yield from self._split_windows(split, t_start, t_end, ranges, stats)

    @staticmethod
    def _split_windows(split, t_start: int, t_end: int, ranges,
                       stats: dict | None = None):
        """One split's part of :meth:`leaf_slices`."""
        windows = split.tree.leaf_slices(t_start, t_end, ranges, stats)
        queued = split.manager.queue.window(t_start, t_end)
        return _splice_queued(windows, queued) if queued else windows

    def grouped_components(self, t_start: int, t_end: int, attribute: str,
                           width: int, stats: dict | None = None):
        """Per-time-bucket components across splits and tiers.

        Split summaries and one descent per boundary split
        (:meth:`_split_components`), rollup rows via
        :meth:`ColdRollup.accumulate_grouped`.  Returns ``(buckets,
        poisoned)``: non-empty bucket accumulators, plus the buckets a
        tier cannot answer at this resolution (cut rollup rows, expired
        history) — the caller drops those rows, as a per-bucket
        :meth:`aggregate` raising :class:`QueryError` would.
        """
        poisoned: set[int] = set()
        for lo, hi, _ in self.tiers.expired:
            if hi - 1 >= t_start and lo <= t_end:
                first = (max(lo, t_start) // width) * width
                for bucket in range(first, min(hi - 1, t_end) + 1, width):
                    poisoned.add(bucket)
        buckets = self._split_components(t_start, t_end, attribute, width,
                                         stats)
        for rollup in self.tiers.cold_overlapping(t_start, t_end):
            rollup.accumulate_grouped(buckets, poisoned, t_start, t_end,
                                      attribute, width)
        return buckets, poisoned

    def search(self, attribute: str, low: float, high: float | None = None,
               t_start: int = -_HUGE, t_end: int = _HUGE):
        """Value search using secondary indexes where available.

        Splits without a secondary index on *attribute* (partial indexing)
        fall back to the TAB+-tree's lightweight min/max pruning — the
        systematic-partial-indexing behaviour of Section 5.4.
        """
        if high is None:
            high = low
        ranges = [AttributeRange(attribute, low, high)]
        results = []
        # Warm splits drop their secondaries on migration; the TAB+-tree's
        # min/max pruning serves them, like any partially-indexed split.
        for split in self._splits(t_start, t_end):
            if attribute in split.secondaries:
                hits = split.search_secondary(attribute, low, high)
                results.extend(e for e in hits if t_start <= e.t <= t_end)
            else:
                results.extend(window_events(
                    self._split_windows(split, t_start, t_end, ranges),
                    self.schema, ranges, self.devices.clock,
                ))
        return results

    # ------------------------------------------------------------ maintenance

    def delete_before(self, t: int, condense: bool = True) -> int:
        """Drop every split that ends at or before *t* (Section 5.4).

        With *condense*, the dropped splits' aggregate summaries are kept
        in :attr:`retired_summaries` so coarse historical statistics
        survive deletion.  Returns the number of splits removed.
        """
        removed = 0
        keep = []
        for split in self.splits:
            if split.t_end is not None and split.t_end <= t:
                split.seal()
                if condense and split.summary is not None:
                    summary = split.summary
                    self.retired_summaries.append(
                        {
                            "t_start": split.t_start,
                            "t_end": split.t_end,
                            "count": summary.count,
                            "aggs": summary.aggs,
                            "tc_scores": split.tc_scores,
                        }
                    )
                self.devices.drop_split(self.name, split.index)
                removed += 1
            else:
                keep.append(split)
        self.splits = keep
        return removed

    def rebuild_secondary(self, attribute: str, split_index: int) -> None:
        """Backfill a secondary index for a split that lacked one
        (re-indexing after an overload period, Section 5.5)."""
        split = next(s for s in self.splits if s.index == split_index)
        if attribute in split.secondaries:
            return
        split._attach_secondary(attribute)
        index = split.secondaries[attribute]
        position = self.schema.index_of(attribute)
        tree = split.tree
        # The scan path: leaves stream past the out-of-order node buffer
        # through the sliding reader, decoding only the one column.
        for leaf, _, _ in tree.leaf_slices(-_HUGE, _HUGE):
            # The open leaf is skipped: its postings arrive when it flushes
            # (and live queries scan it directly).
            if leaf is not tree.leaf:
                index.insert_run(leaf.column(position), leaf.timestamps,
                                 leaf.node_id)
        index.flush()
        if split.sealed:
            split.persist_secondaries()  # the next open loads it

    def subscribe(self, callback) -> None:
        """Register a live tap: *callback(event)* runs on every append.

        Used by the event-processing layer (:mod:`repro.epc`) to feed
        continuous queries, mirroring ChronicleDB's JEPC integration
        (Section 3.3).
        """
        self.subscribers.append(callback)

    def unsubscribe(self, callback) -> None:
        self.subscribers.remove(callback)

    def stats(self) -> dict:
        """Structured snapshot of this stream's ingestion and index state.

        Invariant (between appends, no retention): ``appended`` equals
        ``events_indexed + ooo_pending`` — every acknowledged event is
        either in a tree or still waiting in an out-of-order queue.
        """
        splits = []
        for split in self.splits:
            manager = split.manager
            tree = split.tree
            splits.append(
                {
                    "index": split.index,
                    "kind": split.kind,
                    "sealed": split.sealed,
                    "events_indexed": tree.event_count,
                    "ooo_pending": manager.pending,
                    "flank_inserts": manager.flank_inserts,
                    "queued_inserts": manager.queued_inserts,
                    "queue_flushes": manager.queue_flushes,
                    "checkpoints": manager.checkpoints,
                    "tree_height": tree.height,
                    "tree_splits": tree.splits_performed,
                    "secondary_attributes": list(split.secondary_attributes),
                }
            )
        return {
            "appended": self.appended,
            "events_indexed": sum(s["events_indexed"] for s in splits),
            "ooo_pending": sum(s["ooo_pending"] for s in splits),
            "split_count": len(splits),
            "retired_splits": len(self.retired_summaries),
            "splits": splits,
            "tiers": self.tiers.stats(),
        }

    def flush(self) -> None:
        for split in self.splits:
            split.flush()

    def close(self) -> None:
        for split in self.splits:
            split.close()
        self.tiers.close()

    # ------------------------------------------------------------- manifest

    def manifest_state(self) -> dict:
        return {
            "schema": self.schema.to_dict(),
            "appended": self.appended,
            "splits": [
                {
                    "index": s.index,
                    "t_start": s.t_start,
                    "t_end": s.t_end,
                    "kind": s.kind,
                    "secondary_attributes": s.secondary_attributes,
                }
                for s in self.splits
            ],
            "retired_summaries": self.retired_summaries,
        }

    @classmethod
    def restore(
        cls,
        name: str,
        state: dict,
        config: ChronicleConfig,
        devices: DeviceProvider,
    ) -> "EventStream":
        """Reopen a stream from its manifest (clean or post-crash)."""
        stream = cls(name, EventSchema.from_dict(state["schema"]), config,
                     devices)
        stream.appended = state.get("appended", 0)
        stream.retired_summaries = list(state.get("retired_summaries", []))
        for split_state in state["splits"]:
            if not devices.exists(name, split_state["index"]):
                raise StorageError(
                    f"manifest references missing split {split_state['index']}"
                )
            split = TimeSplit(
                name,
                split_state["index"],
                split_state["t_start"],
                split_state["t_end"],
                split_state["kind"],
                stream.schema,
                config,
                devices,
                secondary_attributes=[],
                _open_existing=True,
            )
            stream.splits.append(split)
            stream._next_split_index = max(
                stream._next_split_index, split.index + 1
            )
        # Crash window of the facade: a split's devices are created (and
        # written) before the manifest naming the split is rewritten, so a
        # crash in between leaves orphan split files behind.  Recover them;
        # a sealed orphan carries its real bounds in the commit footer, a
        # crashed one is opened unbounded.  An *empty* device (crash before
        # the superblock write) holds no events and ends the discovery.
        while devices.exists(name, stream._next_split_index):
            index = stream._next_split_index
            if devices.data_device(name, index).size == 0:
                break
            split = TimeSplit(
                name,
                index,
                None,
                None,
                REGULAR,
                stream.schema,
                config,
                devices,
                secondary_attributes=[],
                _open_existing=True,
            )
            sealed_meta = split.layout.sealed_metadata
            if sealed_meta:
                split.t_start = sealed_meta.get("t_start")
                split.t_end = sealed_meta.get("t_end")
            stream.splits.append(split)
            stream._next_split_index = index + 1
        if stream.splits:
            # The newest split stays appendable after a reopen.
            stream.splits[-1].sealed = False
        # Each index the manifest declares loads its last run record if
        # that still checks out against the device and the replayed tree,
        # else it is rebuilt from the tree.  An orphan split, unknown to
        # the manifest, gets every configured index.
        declared = {
            split_state["index"]: split_state.get("secondary_attributes", [])
            for split_state in state["splits"]
        }
        with obs.span("recovery.secondary_rebuild"):
            for split in stream.splits:
                for attribute in declared.get(
                    split.index, list(config.secondary_indexes)
                ):
                    if split.load_secondary(attribute):
                        if OBS.enabled:
                            _M_LOADED.inc()
                        continue
                    stream.rebuild_secondary(attribute, split.index)
                    if OBS.enabled:
                        _M_REBUILT.inc()
        return stream


def _splice_queued(windows, queued):
    """Merge one split's tree leaf windows with its queued late events.

    The one merge of late events into a read.  *windows* are ``(leaf,
    lo, hi)`` in time order, *queued* the non-empty, time-sorted queue
    content in range as one batch.  It becomes an in-memory
    :class:`LeafNode` whose rows are yielded, as windows of their own,
    between the tree rows they fall between — a tree row before a
    queued row of equal ``t``.
    """
    queue_ts = queued.timestamps
    queue_leaf = LeafNode(NO_NODE, timestamps=queue_ts, columns=queued.columns)
    at = 0
    for leaf, lo, hi in windows:
        timestamps = leaf.timestamps
        while lo < hi and at < len(queue_ts):
            cut = bisect_right(timestamps, queue_ts[at], lo, hi)
            if cut > lo:
                yield leaf, lo, cut
                lo = cut
            if lo < hi:
                upto = bisect_left(queue_ts, timestamps[lo], at)
                yield queue_leaf, at, upto
                at = upto
        if lo < hi:
            yield leaf, lo, hi
    if at < len(queue_ts):
        yield queue_leaf, at, len(queue_ts)
