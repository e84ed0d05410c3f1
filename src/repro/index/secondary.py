"""Common machinery for secondary indexes (paper, Sections 5.3, 5.7.2).

A secondary index maps attribute values to event references.  Following
Section 5.7.2, a reference stores the event's **timestamp** alongside the
leaf block id: the block id is the fast path, and when the referenced
block carries the split/relocated flag the timestamp re-drives a primary
index search — the paper's *lazy* consistency scheme that spares the
secondary indexes from eager updates when blocks split.

Between a flushed leaf and the device a posting is a row of three typed
columns (:data:`POSTING`), never a Python object: :class:`SecondaryIndex`
is the one columnar run core — arrival-order memtable, sorted runs with
fence pointers and a Bloom filter, lookups — and the LSM-tree and COLA
subclasses only decide *when* runs merge.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.index.bloom import BloomFilter
from repro.index.node import FLAG_SPLIT, LeafNode
from repro.obs import OBS

#: On-disk record: attribute value, event timestamp, leaf block id.
ENTRY = struct.Struct("<dqq")
ENTRY_SIZE = ENTRY.size
#: The same record as a packed numpy row: ``array.tobytes()`` of a run is
#: byte for byte the stream of ``ENTRY.pack`` calls it replaces.
POSTING = np.dtype([("value", "<f8"), ("t", "<i8"), ("block_id", "<i8")])
#: Postings between consecutive fence pointers (one disk page's worth).
FENCE_EVERY = 64

_POSTINGS = OBS.counter("index.secondary.postings")
_RUNS_WRITTEN = OBS.counter("index.secondary.runs_written")
_RUN_BYTES = OBS.counter("index.secondary.run_bytes")
_MERGES = OBS.counter("index.secondary.merges")


@dataclass(frozen=True, order=True)
class SecondaryRef:
    """A secondary-index posting, as lookups return it."""

    value: float
    t: int
    block_id: int


@dataclass
class Run:
    """An immutable sorted run on the device plus its in-memory metadata.

    Like real SSTables, a run keeps sparse *fence pointers* (the first
    value of every page) and a Bloom filter in memory, so a lookup does
    its binary search in memory and touches disk for exactly the
    qualifying pages.  All of it is derived from the postings and is not
    persisted — a reopen rebuilds the index from the primary.
    """

    offset: int
    count: int
    min_value: float
    max_value: float
    bloom: BloomFilter
    fences: np.ndarray


def sort_postings(postings: np.ndarray) -> np.ndarray:
    """Postings ordered by ``(value, t, block_id)``, ties in input order.

    NaN values sort last (after ``+inf``) and are never matched by a
    lookup: ``low <= nan <= high`` is false for every range.
    """
    order = np.lexsort((postings["block_id"], postings["t"], postings["value"]))
    return postings[order]


class SecondaryIndex(ABC):
    """Columnar run core shared by the LSM-tree and COLA.

    Postings arrive in batches (:meth:`insert_run`, once per flushed
    leaf) into an arrival-order memtable that is cut at exactly
    *memtable_capacity* postings; each cut is sorted once and handed to
    the subclass's merge schedule (:meth:`_place`).
    """

    def __init__(self, device, memtable_capacity: int, bloom_fpr: float,
                 clock=None, cost=None):
        if memtable_capacity < 2:
            raise ConfigError("memtable capacity must be >= 2")
        self.device = device
        self.memtable_capacity = memtable_capacity
        self.bloom_fpr = bloom_fpr
        self.clock = clock if clock is not None else getattr(device, "clock", None)
        self.cost = cost
        self._memtable = np.empty(memtable_capacity, dtype=POSTING)
        self._fill = 0
        self.posting_count = 0
        self.merges_performed = 0

    # -------------------------------------------------------------- writing

    def insert(self, value: float, t: int, block_id: int) -> None:
        """Add a posting for one event (a run of one)."""
        self.insert_run((value,), (t,), block_id)

    def insert_run(self, values, timestamps, block_id: int) -> None:
        """Add the postings of one leaf: parallel value/timestamp columns
        that share *block_id*."""
        total = len(values)
        if self.cost is not None and self.clock is not None:
            self.clock.charge_cpu(self.cost.sorted_insert * total)
        if OBS.enabled:
            _POSTINGS.inc(total)
        self.posting_count += total
        memtable = self._memtable
        done = 0
        while done < total:
            take = min(total - done, self.memtable_capacity - self._fill)
            rows = memtable[self._fill : self._fill + take]
            rows["value"] = values[done : done + take]
            rows["t"] = timestamps[done : done + take]
            rows["block_id"] = block_id
            self._fill += take
            done += take
            if self._fill == self.memtable_capacity:
                self.flush()

    def flush(self) -> None:
        """Persist buffered postings as one sorted run."""
        if self._fill:
            postings = sort_postings(self._memtable[: self._fill])
            self._fill = 0
            self._place(postings)

    @abstractmethod
    def _place(self, postings: np.ndarray) -> None:
        """Merge schedule: store one sorted memtable's worth of postings."""

    @abstractmethod
    def _runs(self) -> list[Run]:
        """Live runs, in lookup order."""

    def _write_run(self, postings: np.ndarray) -> Run:
        """Append a sorted run to the device with one write."""
        values = postings["value"]
        bloom = BloomFilter(max(8, len(postings)), self.bloom_fpr)
        bloom.add_many(values)
        data = postings.tobytes()
        if OBS.enabled:
            _RUNS_WRITTEN.inc()
            _RUN_BYTES.inc(len(data))
        return Run(
            offset=self.device.append(data),
            count=len(postings),
            min_value=float(values[0]),
            # NaNs sit at the tail; the bound is the largest real value.
            max_value=float(np.fmax.reduce(values)),
            bloom=bloom,
            fences=values[::FENCE_EVERY].copy(),
        )

    def _read(self, run: Run, start: int, count: int) -> np.ndarray:
        data = self.device.read(run.offset + start * ENTRY_SIZE, count * ENTRY_SIZE)
        return np.frombuffer(data, dtype=POSTING)

    def _merge(self, runs: list[Run], carry: np.ndarray | None = None) -> np.ndarray:
        """Read *runs* back (one device read each) and sort them, then
        *carry*, into one run; equal postings keep that order."""
        self.merges_performed += 1
        if OBS.enabled:
            _MERGES.inc()
        parts = [self._read(run, 0, run.count) for run in runs]
        if carry is not None:
            parts.append(carry)
        return sort_postings(np.concatenate(parts))

    # -------------------------------------------------------------- reading

    def lookup_exact(self, value: float) -> list[SecondaryRef]:
        """All postings with exactly this value."""
        return self._lookup(value, value, exact=True)

    def lookup_range(self, low: float, high: float) -> list[SecondaryRef]:
        """All postings with ``low <= value <= high``."""
        return self._lookup(low, high, exact=False)

    def _lookup(self, low: float, high: float, exact: bool) -> list[SecondaryRef]:
        buffered = self._memtable[: self._fill]
        values = buffered["value"]
        hits = [sort_postings(buffered[(values >= low) & (values <= high)])]
        for run in self._runs():
            if not (run.min_value <= high and low <= run.max_value):
                continue  # also every NaN bound: comparisons are false
            if exact and low not in run.bloom:
                continue
            hits.extend(self._scan(run, low, high))
        return [SecondaryRef(*row) for row in np.concatenate(hits).tolist()]

    def _scan(self, run: Run, low: float, high: float):
        """Postings of one run in [low, high], page by page.

        Fence pointers locate the first qualifying page in memory; disk
        reads cover only pages that can contain matches.
        """
        # side="left" handles duplicate runs of `low` spanning pages: the
        # page *before* the first fence equal to `low` may still hold it.
        page = max(0, int(np.searchsorted(run.fences, low, side="left")) - 1)
        index = page * FENCE_EVERY
        while index < run.count:
            chunk = self._read(run, index, min(FENCE_EVERY, run.count - index))
            values = chunk["value"]
            yield chunk[(values >= low) & (values <= high)]
            if (values > high).any():
                return
            index += len(chunk)


def resolve_refs(tree, attribute: str, refs: list[SecondaryRef]):
    """Fetch the events behind secondary-index postings.

    Uses the direct block link when the leaf is unsplit; falls back to a
    timestamp search through the primary index otherwise (Section 5.7.2).
    Returns events in timestamp order.

    Postings are resolved in the order the index delivers them (value
    order) — on attributes with low temporal correlation this is what
    produces the "many random accesses" the paper measures for the LSM
    path (Section 7.3.2).
    """
    position = tree.schema.index_of(attribute)
    # Several postings can share one (value, t) — genuinely duplicate
    # events.  Resolve each distinct key once; the search enumerates every
    # matching event (duplicates included) exactly once.
    by_key: dict[tuple, set] = {}
    for ref in refs:
        by_key.setdefault((ref.value, ref.t), set()).add(ref.block_id)
    events = []
    for (value, t), block_ids in by_key.items():
        node = None
        if len(block_ids) == 1:
            try:
                node = tree._get_node(next(iter(block_ids)))
            except Exception:
                node = None
        direct = (
            isinstance(node, LeafNode)
            and not (node.flags & FLAG_SPLIT)
            and node.count
            and node.t_min <= t <= node.t_max
        )
        if direct:
            candidates = [
                tree._event_at(node, row)
                for row, row_t in enumerate(node.timestamps)
                if row_t == t and node.columns[position][row] == value
            ]
        else:
            # Split/relocated/ambiguous: timestamp search through the
            # primary index (Section 5.7.2's lazy fallback).
            candidates = [
                e
                for e in tree.time_travel(t, t)
                if e.values[position] == value
            ]
        events.extend(candidates)
    events.sort(key=lambda e: e.t)
    return events
