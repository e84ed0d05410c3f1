"""Cold rollups: downsampled aggregate history built from the TAB+-tree.

A rollup replaces a split's raw events with one row per
``rollup_interval`` bucket carrying the same ``(min, max, sum, count[,
sum_sq])`` components the TAB+-tree keeps per index entry — so building
one is *index-only* work (a logarithmic descent per bucket, no leaf
scans away from bucket boundaries) and querying one plugs straight into
the partial-aggregate algebra of :mod:`repro.query.partials`.

Rollups are bucket-resolution data: an aggregate query whose range
covers whole buckets is answered exactly; a range cutting through a
bucket raises :class:`~repro.errors.QueryError` (the sub-bucket events
no longer exist), mirroring the retired-summary contract of
:meth:`EventStream.condensed_aggregate`.
"""

from __future__ import annotations

import json
import zlib

from repro.errors import QueryError, StorageError
from repro.index.queries import AggregateAccumulator

_MAGIC = b"CRU1"  # cold rollup, format 1


class ColdRollup:
    """Bucketed aggregate summary of one former split's time range."""

    def __init__(
        self,
        split_index: int,
        t_start: int,
        t_end: int,
        bucket_width: int,
        indexed: list[str],
        extended: bool,
        rows: list[dict],
    ):
        self.split_index = split_index
        self.t_start = t_start  # inclusive
        self.t_end = t_end  # exclusive
        self.bucket_width = bucket_width
        self.indexed = list(indexed)
        self.extended = extended
        #: One dict per non-empty bucket: ``{"t": start, "count": n,
        #: "aggs": [[min, max, sum(, sum_sq)] per indexed attribute]}``.
        self.rows = rows

    # ------------------------------------------------------------ building

    @classmethod
    def build(cls, split_index: int, tree, t_start: int, t_end: int,
              bucket_width: int) -> "ColdRollup":
        """Downsample *tree* into bucket rows using its stored aggregates.

        Buckets align to multiples of *bucket_width*; empty buckets are
        omitted.  ``[t_start, t_end)`` is the split's time range, so the
        first/last buckets may extend past it — harmless, since no other
        split holds events there.
        """
        indexed = list(tree.codec.indexed_names)
        if not indexed:
            raise StorageError("cold rollups need at least one indexed attribute")
        rows = []
        first = (t_start // bucket_width) * bucket_width
        for bucket in range(first, t_end, bucket_width):
            accs = [
                tree.aggregate_components(bucket, bucket + bucket_width - 1, name)
                for name in indexed
            ]
            if accs[0].count == 0:
                continue
            aggs = []
            for acc in accs:
                agg = [acc.minimum, acc.maximum, acc.total]
                if acc.squares_exact:
                    agg.append(acc.sum_squares)
                aggs.append(agg)
            rows.append({"t": bucket, "count": accs[0].count, "aggs": aggs})
        extended = all(len(row["aggs"][0]) == 4 for row in rows) and bool(rows)
        return cls(split_index, t_start, t_end, bucket_width, indexed,
                   extended, rows)

    # ------------------------------------------------------------- queries

    @property
    def count(self) -> int:
        return sum(row["count"] for row in self.rows)

    def overlaps(self, t_start: int, t_end: int) -> bool:
        """Does ``[t_start, t_end]`` (inclusive) intersect this rollup?"""
        return not (self.t_end - 1 < t_start or self.t_start > t_end)

    def covers(self, t: int) -> bool:
        return self.t_start <= t < self.t_end

    def accumulate(self, accumulator: AggregateAccumulator, t_start: int,
                   t_end: int, attribute: str) -> None:
        """Fold the rollup's contribution to ``[t_start, t_end]`` in.

        Raises :class:`QueryError` when the range cuts through a
        non-empty bucket (rollup resolution cannot answer it) or the
        attribute was not indexed when the rollup was built.
        """
        try:
            agg_index = self.indexed.index(attribute)
        except ValueError:
            raise QueryError(
                f"attribute {attribute!r} is not in the cold rollup for "
                f"[{self.t_start}, {self.t_end}); its history is gone"
            ) from None
        for row in self.rows:
            lo, hi = row["t"], row["t"] + self.bucket_width - 1
            if hi < t_start or lo > t_end:
                continue
            if not (t_start <= lo and hi <= t_end):
                raise QueryError(
                    f"range [{t_start}, {t_end}] cuts through cold rollup "
                    f"bucket [{lo}, {hi}]; align to multiples of "
                    f"{self.bucket_width}"
                )
            accumulator.add_entry(row["aggs"][agg_index], row["count"])

    def accumulate_grouped(self, buckets: dict, poisoned: set, t_start: int,
                           t_end: int, attribute: str, width: int) -> None:
        """Fold rollup rows into per-*width* time buckets.

        The grouped counterpart of :meth:`accumulate`: rows land in
        ``buckets`` (``{bucket_start: AggregateAccumulator}``) when the
        clamped query bucket fully covers them; buckets the rollup's
        resolution cannot answer — a row cut by a bucket boundary, or
        any overlap when *attribute* was never indexed — go into
        *poisoned* instead, mirroring the per-bucket
        :class:`QueryError`-and-drop behaviour of the oracle's grouped
        executor.
        """
        if attribute not in self.indexed:
            first = (max(self.t_start, t_start) // width) * width
            last = min(self.t_end - 1, t_end)
            for bucket in range(first, last + 1, width):
                poisoned.add(bucket)
            return
        agg_index = self.indexed.index(attribute)
        for row in self.rows:
            lo, hi = row["t"], row["t"] + self.bucket_width - 1
            if hi < t_start or lo > t_end:
                continue
            agg = row["aggs"][agg_index]
            first = (max(lo, t_start) // width) * width
            for bucket in range(first, min(hi, t_end) + 1, width):
                bucket_lo = max(bucket, t_start)
                bucket_hi = min(bucket + width - 1, t_end)
                if hi < bucket_lo or lo > bucket_hi:
                    continue
                if bucket_lo <= lo and hi <= bucket_hi:
                    acc = buckets.get(bucket)
                    if acc is None:
                        acc = buckets[bucket] = AggregateAccumulator()
                    acc.add_entry(agg, row["count"])
                else:
                    poisoned.add(bucket)

    # -------------------------------------------------------- persistence

    def to_bytes(self) -> bytes:
        payload = json.dumps(
            {
                "split": self.split_index,
                "t_start": self.t_start,
                "t_end": self.t_end,
                "bucket_width": self.bucket_width,
                "indexed": self.indexed,
                "extended": self.extended,
                "rows": self.rows,
            },
            sort_keys=True,
        ).encode()
        header = _MAGIC + len(payload).to_bytes(4, "little")
        return header + zlib.crc32(payload).to_bytes(4, "little") + payload

    @classmethod
    def from_device(cls, device) -> "ColdRollup":
        """Parse a rollup device; raises :class:`StorageError` if torn."""
        if device.size < 12:
            raise StorageError("rollup device too small")
        header = device.read(0, 12)
        if header[:4] != _MAGIC:
            raise StorageError("bad rollup magic")
        length = int.from_bytes(header[4:8], "little")
        crc = int.from_bytes(header[8:12], "little")
        if device.size < 12 + length:
            raise StorageError("rollup device truncated")
        payload = device.read(12, length)
        if zlib.crc32(payload) != crc:
            raise StorageError("rollup CRC mismatch")
        data = json.loads(payload)
        return cls(
            data["split"], data["t_start"], data["t_end"],
            data["bucket_width"], data["indexed"], data["extended"],
            data["rows"],
        )
