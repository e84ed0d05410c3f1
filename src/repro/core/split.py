"""Time splits (paper, Section 5.4).

A split is a self-contained slice of a stream: its own TAB+-tree in its
own file, its own secondary indexes, its own out-of-order state.  Splits
make retention trivial (drop whole files), enable constant-time
aggregation over predefined time ranges via a per-split summary, and give
partial indexing a natural granularity — a split records which secondary
indexes were maintained and the temporal correlation of every attribute.

A split's statistics come from one kernel call per run that fills a leaf
(:class:`repro.index.entry.RunStatistics`): each written leaf's index
entry, and the run's part of every attribute's tc, folded in flush order
and frozen at seal with the open leaf's.  Ingestion itself computes no
statistic.
"""

from __future__ import annotations

from repro.core.config import ChronicleConfig
from repro.core.devices import DeviceProvider
from repro.errors import StorageError
from repro.events.event import ColumnarEvents, Event, pick
from repro.events.schema import EventSchema
from repro.index.cola import ColaIndex
from repro.index.correlation import SplitCorrelation
from repro.index.lsm import LsmIndex
from repro.index.secondary import resolve_refs
from repro.index.tab_tree import TabTree
from repro.ooo.manager import OutOfOrderManager
from repro.storage.layout import ChronicleLayout

REGULAR = "regular"
IRREGULAR = "irregular"


class TimeSplit:
    """One time slice of a stream: tree + secondaries + ooo manager."""

    def __init__(
        self,
        stream_name: str,
        index: int,
        t_start: int | None,
        t_end: int | None,
        kind: str,
        schema: EventSchema,
        config: ChronicleConfig,
        devices: DeviceProvider,
        secondary_attributes: list[str],
        _open_existing: bool = False,
    ):
        self.stream_name = stream_name
        self.index = index
        self.t_start = t_start  # inclusive; None = unbounded
        self.t_end = t_end  # exclusive; None = open-ended
        self.kind = kind
        self.schema = schema
        self.config = config
        self.devices = devices
        self.sealed = False
        self._summary = None
        self.tc_scores: dict[str, float] = {}
        self._correlation = SplitCorrelation(schema.arity)

        device = devices.data_device(stream_name, index)
        layout_kwargs = dict(
            lblock_size=config.lblock_size,
            macro_size=config.macro_size,
            compressor=config.codec,
            macro_spare=config.macro_spare,
        )
        if _open_existing:
            self.layout = ChronicleLayout.open(device)
            self.tree = self._restore_tree()
        else:
            self.layout = ChronicleLayout.create(device, **layout_kwargs)
            self.tree = TabTree(
                self.layout,
                schema,
                indexed_attributes=config.indexed_attributes,
                lblock_spare=config.lblock_spare,
                buffer_capacity=config.buffer_capacity,
                extended_aggregates=config.extended_aggregates,
            )
        self.manager = OutOfOrderManager(
            self.tree,
            wal_device=devices.wal_device(stream_name, index),
            mirror_device=devices.mirror_device(stream_name, index),
            queue_capacity=config.queue_capacity,
            checkpoint_interval=config.checkpoint_interval,
        )
        if _open_existing:
            # Crash recovery path: replay the logs (Section 6.3).  This
            # runs even when a commit footer restored the tree — a sealed
            # split can still take *late* events (queued + mirror-logged,
            # the footer stays at the device tail while inserts remain
            # buffered), and those live only in the logs.  Replay is
            # LSN-guarded and a no-op when the logs are empty.
            self.manager.recover()
        self.secondaries: dict[str, object] = {}
        self.secondary_attributes: list[str] = []
        for attribute in secondary_attributes:
            self._attach_secondary(attribute)
        self.tree.leaf_flush_hook = self._on_leaf_flush
        self.tree.run_flush_hook = self._on_run_flush
        self.tree.ooo_insert_hook = self._on_ooo_insert

    # ------------------------------------------------------------ secondary

    def _attach_secondary(self, attribute: str) -> None:
        kind = self.config.secondary_indexes.get(attribute)
        if kind is None:
            raise StorageError(f"no secondary index configured for {attribute!r}")
        device = self.devices.secondary_device(self.stream_name, self.index, attribute)
        # Run metadata is memory-only, so a fresh index cannot reach what a
        # previous session left on the device: start it empty instead of
        # appending a rebuilt copy behind dead runs on every open.
        device.truncate(0)
        if kind == "lsm":
            index = LsmIndex(
                device, memtable_capacity=self.config.memtable_capacity
            )
        else:
            index = ColaIndex(device, base_capacity=self.config.memtable_capacity)
        self.secondaries[attribute] = index
        self.secondary_attributes.append(attribute)

    def set_secondary_attributes(self, attributes: list[str]) -> None:
        """Adjust which secondaries this split maintains (partial indexing)."""
        for attribute in attributes:
            if attribute not in self.secondaries:
                self._attach_secondary(attribute)
        self.secondary_attributes = list(dict.fromkeys(attributes))

    def _on_run_flush(self, run, written: int) -> None:
        if self._correlation is not None:
            self._correlation.fold(run.values[:, :written], run.low, run.high)

    def _on_leaf_flush(self, leaf, stats) -> None:
        for attribute in self.secondary_attributes:
            self.secondaries[attribute].insert_run(
                leaf.column(self.schema.index_of(attribute)),
                leaf.timestamps,
                leaf.node_id,
            )

    def _on_ooo_insert(self, t: int, values, leaf_id: int) -> None:
        for attribute in self.secondary_attributes:
            position = self.schema.index_of(attribute)
            self.secondaries[attribute].insert(
                float(values[position]), t, leaf_id
            )
        self._summary = None  # a sealed split's summary must follow

    # ------------------------------------------------------------- ingestion

    def covers(self, t: int) -> bool:
        if self.t_start is not None and t < self.t_start:
            return False
        if self.t_end is not None and t >= self.t_end:
            return False
        return True

    def ingest_run(self, run: ColumnarEvents) -> None:
        """Ingest a chronological run (non-decreasing timestamps).

        The run reaches the tree through
        :meth:`OutOfOrderManager.insert_run`, which slices its columns for
        the leaf extends and the queued late segments.
        """
        self.manager.insert_run(run)
        self._summary = None  # a sealed split's tree may have changed

    @property
    def summary(self):
        """The sealed split's whole-tree :class:`IndexEntry` (None while
        open), recomputed on the first read after a late event."""
        if self._summary is None and self.sealed:
            self._summary = self.tree.summary()
        return self._summary

    #: The per-event name, kept for the frozen tracer table (ROADMAP 10(d)).
    ingest = ingest_run

    # --------------------------------------------------------------- queries

    def search_secondary(self, attribute: str, low: float, high: float):
        """Events with attribute in [low, high], via the secondary index.

        Also scans the open leaf and the out-of-order queue, whose events
        have no durable postings yet.
        """
        index = self.secondaries.get(attribute)
        if index is None:
            raise StorageError(
                f"split {self.index} has no secondary index on {attribute!r}"
            )
        if low == high:
            refs = index.lookup_exact(low)
        else:
            refs = index.lookup_range(low, high)
        events = resolve_refs(self.tree, attribute, refs)
        position = self.schema.index_of(attribute)
        queued = self.manager.queue.window(-(2**62), 2**62)
        for rows in (self.tree.leaf, queued):
            if not rows.timestamps:
                continue
            column = rows.columns[position]
            hits = [row for row, value in enumerate(column)
                    if low <= value <= high]
            events.extend(Event.from_columns(
                pick(rows.timestamps, hits),
                [pick(c, hits) for c in rows.columns],
            ))
        return sorted(events, key=lambda e: e.t)

    # ---------------------------------------------------------------- sealing

    def seal(self) -> None:
        """Finalize the split: drain buffers, persist state, record stats."""
        if self.sealed:
            return
        self.manager.close()
        for index in self.secondaries.values():
            index.flush()
        leaf = self.tree.leaf
        open_leaf = self.tree.leaf_statistics(leaf) if leaf.count else None
        if self._correlation is not None:  # tc is taken once, at first seal
            if open_leaf is not None:
                self._correlation.fold(open_leaf.values, open_leaf.low,
                                       open_leaf.high)
            self.tc_scores = self._correlation.scores(self.schema.names)
            self._correlation = None
        self._summary = self.tree.summary(open_leaf)
        self.layout.seal(
            {
                "tree": self.tree.state_dict(),
                "tc_scores": self.tc_scores,
                "kind": self.kind,
                "t_start": self.t_start,
                "t_end": self.t_end,
            }
        )
        self.sealed = True

    def _restore_tree(self):
        meta = self.layout.sealed_metadata
        if meta is not None and "tree" in meta:
            tree = TabTree.from_state(
                self.layout,
                self.schema,
                meta["tree"],
                indexed_attributes=self.config.indexed_attributes,
                lblock_spare=self.config.lblock_spare,
                buffer_capacity=self.config.buffer_capacity,
                extended_aggregates=self.config.extended_aggregates,
            )
            self.tc_scores = meta.get("tc_scores", {})
            self._correlation = None
            self.kind = meta.get("kind", self.kind)
            self.sealed = True
            return tree
        return TabTree.recover(
            self.layout,
            self.schema,
            indexed_attributes=self.config.indexed_attributes,
            lblock_spare=self.config.lblock_spare,
            buffer_capacity=self.config.buffer_capacity,
            extended_aggregates=self.config.extended_aggregates,
        )

    def close(self) -> None:
        if not self.sealed:
            self.seal()
