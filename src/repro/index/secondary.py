"""Common machinery for secondary indexes (paper, Sections 5.3, 5.7.2).

A secondary index maps attribute values to event references.  Following
Section 5.7.2, a reference stores the event's **timestamp** alongside the
leaf block id: the block id is the fast path, and when the referenced
block carries the split/relocated flag the timestamp re-drives a primary
index search — the paper's *lazy* consistency scheme that spares the
secondary indexes from eager updates when blocks split.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.index.node import FLAG_SPLIT, LeafNode

#: On-disk record: attribute value, event timestamp, leaf block id.
ENTRY = struct.Struct("<dqq")
ENTRY_SIZE = ENTRY.size


@dataclass(frozen=True, order=True)
class SecondaryRef:
    """A secondary-index posting."""

    value: float
    t: int
    block_id: int


class SecondaryIndex(ABC):
    """Interface shared by the LSM-tree and COLA implementations."""

    @abstractmethod
    def insert(self, value: float, t: int, block_id: int) -> None:
        """Add a posting for one event."""

    @abstractmethod
    def lookup_exact(self, value: float) -> list[SecondaryRef]:
        """All postings with exactly this value."""

    @abstractmethod
    def lookup_range(self, low: float, high: float) -> list[SecondaryRef]:
        """All postings with ``low <= value <= high``."""

    @abstractmethod
    def flush(self) -> None:
        """Persist buffered postings."""


#: Postings between consecutive fence pointers (one disk page's worth).
FENCE_EVERY = 64


class RunStore:
    """Sorted runs of postings on a (simulated) device.

    Shared by the LSM-tree and COLA: both persist immutable sorted
    arrays.  Like real SSTables, every run keeps sparse *fence pointers*
    (one value per page) in memory, so a lookup performs its binary
    search in memory and touches disk for exactly the qualifying pages.
    """

    def __init__(self, device):
        self.device = device

    def write_run(self, entries: list[SecondaryRef]) -> tuple[int, list[float]]:
        """Append a sorted run; returns (offset, fence pointers)."""
        buf = bytearray()
        for ref in entries:
            buf += ENTRY.pack(ref.value, ref.t, ref.block_id)
        offset = self.device.append(bytes(buf))
        fences = [entries[i].value for i in range(0, len(entries), FENCE_EVERY)]
        return offset, fences

    def read_slice(self, offset: int, start: int, count: int) -> list[SecondaryRef]:
        data = self.device.read(offset + start * ENTRY_SIZE, count * ENTRY_SIZE)
        return [
            SecondaryRef(*ENTRY.unpack_from(data, i * ENTRY_SIZE))
            for i in range(count)
        ]

    def scan_range(self, offset: int, count: int, fences: list[float],
                   low: float, high: float):
        """All postings in [low, high] from one run, in value order.

        Fence pointers locate the first qualifying page in memory; disk
        reads cover only pages that can contain matches.
        """
        from bisect import bisect_left

        # bisect_left handles duplicate runs of `low` spanning pages: the
        # page *before* the first fence equal to `low` may still hold it.
        page_index = max(0, bisect_left(fences, low) - 1)
        index = page_index * FENCE_EVERY
        results = []
        while index < count:
            chunk = self.read_slice(
                offset, index, min(FENCE_EVERY, count - index)
            )
            for ref in chunk:
                if ref.value > high:
                    return results
                if ref.value >= low:
                    results.append(ref)
            index += len(chunk)
        return results


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
