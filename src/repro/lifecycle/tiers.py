"""Tier containers attached to an :class:`~repro.core.stream.EventStream`.

:class:`WarmSplit` is the read-only warm-tier twin of
:class:`~repro.core.split.TimeSplit`: same TAB+-tree, same query surface
(time travel, Algorithm-2 filtering, logarithmic aggregation, sealed
summary), but re-compressed into its own layout and with no ingest
machinery — no WAL, no mirror, no out-of-order queue, no secondaries.
:class:`StreamTiers` tracks a stream's warm splits, cold rollups and
expired ranges so the query paths can fan out across tiers.
"""

from __future__ import annotations

from repro.errors import StorageError
from repro.index.tab_tree import TabTree
from repro.lifecycle.rollup import ColdRollup
from repro.ooo.queue import SortedQueue
from repro.storage.layout import ChronicleLayout


class _NoQueue:
    """Stand-in for an :class:`OutOfOrderManager` on a read-only split."""

    pending = 0
    flank_inserts = 0
    queued_inserts = 0
    queue_flushes = 0
    checkpoints = 0

    def __init__(self):
        #: Always empty; ``min_t`` is ``None`` like a drained queue's.
        self.queue = SortedQueue(1)


class WarmSplit:
    """A sealed, re-compressed, read-only time slice in the warm tier."""

    kind = "warm"
    sealed = True

    def __init__(self, stream_name: str, index: int, schema, config, devices):
        self.stream_name = stream_name
        self.index = index
        device = devices.warm_device(stream_name, index)
        self.layout = ChronicleLayout.open(device, cost=config.cost_model)
        meta = self.layout.sealed_metadata
        if not meta or "tree" not in meta:
            raise StorageError(
                f"warm split {index} of {stream_name!r} has no sealed tree"
            )
        self.tree = TabTree.from_state(
            self.layout,
            schema,
            meta["tree"],
            indexed_attributes=config.indexed_attributes,
            lblock_spare=0.0,
            buffer_capacity=config.buffer_capacity,
            extended_aggregates=config.extended_aggregates,
        )
        self.t_start = meta.get("t_start")
        self.t_end = meta.get("t_end")
        self.tc_scores = meta.get("tc_scores", {})
        self.summary = self.tree.summary()
        self.manager = _NoQueue()
        self.secondaries: dict = {}
        self.secondary_attributes: list[str] = []

    def covers(self, t: int) -> bool:
        if self.t_start is not None and t < self.t_start:
            return False
        if self.t_end is not None and t >= self.t_end:
            return False
        return True

    def size_bytes(self) -> int:
        return self.layout.device.size


class StreamTiers:
    """Warm splits, cold rollups and expired ranges of one stream."""

    def __init__(self):
        self.warm: dict[int, WarmSplit] = {}
        self.cold: dict[int, ColdRollup] = {}
        #: ``[(t_start, t_end, count), ...]`` of expired (dropped) rollups.
        self.expired: list[tuple[int, int, int]] = []

    # ------------------------------------------------------------- queries

    def warm_overlapping(self, t_start: int, t_end: int) -> list[WarmSplit]:
        out = []
        for index in sorted(self.warm):
            split = self.warm[index]
            hi = split.t_end - 1 if split.t_end is not None else 2**62
            lo = split.t_start if split.t_start is not None else -(2**62)
            if hi >= t_start and lo <= t_end:
                out.append(split)
        return out

    def cold_overlapping(self, t_start: int, t_end: int) -> list[ColdRollup]:
        return [
            self.cold[index]
            for index in sorted(self.cold)
            if self.cold[index].overlaps(t_start, t_end)
        ]

    def plan_segments(self, t_start: int, t_end: int) -> list[dict]:
        """Tiered plan segments overlapping ``[t_start, t_end]``.

        The query planner's view of this stream's non-hot history: each
        segment names its tier, bounds and event count so plans (and
        their ``explain`` output) can show which tier answers which part
        of the range.  Cold segments carry their bucket width — the
        resolution limit index-only plans must respect.
        """
        segments = []
        for split in self.warm_overlapping(t_start, t_end):
            segments.append({
                "tier": "warm",
                "split": split.index,
                "t_start": split.t_start,
                "t_end": split.t_end,
                "events": split.tree.event_count,
            })
        for rollup in self.cold_overlapping(t_start, t_end):
            segments.append({
                "tier": "cold",
                "split": rollup.split_index,
                "t_start": rollup.t_start,
                "t_end": rollup.t_end,
                "events": rollup.count,
                "bucket_width": rollup.bucket_width,
            })
        for lo, hi, count in self.expired:
            if hi - 1 >= t_start and lo <= t_end:
                segments.append({
                    "tier": "expired",
                    "t_start": lo,
                    "t_end": hi,
                    "events": count,
                })
        return segments

    def blocks(self, t: int) -> bool:
        """Is *t* inside a range whose raw ingest path no longer exists?

        Appends routed here would land in a split that does not cover
        them (invisible to range queries) or duplicate tiered history,
        so the stream rejects them up front.
        """
        for split in self.warm.values():
            if split.covers(t):
                return True
        for rollup in self.cold.values():
            if rollup.covers(t):
                return True
        for lo, hi, _ in self.expired:
            if lo <= t < hi:
                return True
        return False

    @property
    def frontier(self) -> int | None:
        """Exclusive upper bound of all tiered ranges (``None`` if none).

        Only timestamps below the frontier can possibly be blocked, so
        the ingest paths pay one comparison per batch in the common case.
        """
        ends = [s.t_end for s in self.warm.values() if s.t_end is not None]
        ends.extend(r.t_end for r in self.cold.values())
        ends.extend(hi for _, hi, _ in self.expired)
        return max(ends) if ends else None

    @property
    def tiered_count(self) -> int:
        return len(self.warm) + len(self.cold)

    def stats(self) -> dict:
        return {
            "warm_splits": len(self.warm),
            "warm_events": sum(
                s.tree.event_count for s in self.warm.values()
            ),
            "warm_bytes": sum(s.size_bytes() for s in self.warm.values()),
            "cold_rollups": len(self.cold),
            "cold_source_events": sum(r.count for r in self.cold.values()),
            "cold_rows": sum(len(r.rows) for r in self.cold.values()),
            "expired_ranges": len(self.expired),
            "expired_events": sum(count for _, _, count in self.expired),
        }

    def close(self) -> None:
        # Devices are owned by the DeviceProvider; nothing to flush —
        # warm splits and rollups are immutable once committed.
        self.warm.clear()
        self.cold.clear()
