"""Shard placement: which shard owns which (stream, timestamp).

Two policies, both deterministic so every router instance computes the
same placement with no coordination:

* :class:`HashPlacement` pins a whole stream to one shard (hash of the
  stream name).  Queries against the stream touch exactly one shard;
  ingestion of one stream cannot scale past it.
* :class:`TimeWindowPlacement` stripes a stream across all shards in
  fixed application-time windows — shard ``(t // window) % n``.  Batch
  appends fan out, so ingestion scales with shards, and queries
  scatter-gather (:mod:`repro.cluster.client`).

Elasticity layers **range assignments** on top of the computed base
placement: an assignment re-targets a (stream, timestamp-range) slice
of one shard's ownership to another shard.  The base modulus is frozen
at ``base_shards`` (the founding shard count), so adding shards never
perturbs placement of untouched ranges — new capacity takes ownership
only through explicit assignments installed by a live split.  Every
ownership change bumps the map ``version`` (its *epoch*); routers stamp
writes with the epoch they routed under, and nodes holding a newer map
reject them (:class:`~repro.errors.StaleRouteError`).
"""

from __future__ import annotations

import threading
import zlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import islice
from operator import le

from repro.errors import ClusterError
from repro.events.event import ColumnarEvents


@dataclass(frozen=True, order=True)
class Endpoint:
    """A node address."""

    host: str
    port: int

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"

    @classmethod
    def parse(cls, text: str) -> "Endpoint":
        host, _, port = text.rpartition(":")
        return cls(host, int(port))


class PlacementPolicy:
    """Maps (stream, timestamp) to a shard index.

    Windowed policies (anything exposing a ``window`` attribute) must
    keep ``shard_of`` constant within each window
    ``[k*window, (k+1)*window)`` — the sorted-batch fast path cuts the
    batch at window boundaries and asks the policy once per slice.
    """

    #: Whether one stream's events may span every shard (drives the
    #: router's decision to scatter-gather queries).
    spans_shards = False

    def shard_of(self, stream: str, t: int, num_shards: int) -> int:
        raise NotImplementedError


class HashPlacement(PlacementPolicy):
    """Whole stream on one shard, by stable hash of the stream name."""

    spans_shards = False

    def shard_of(self, stream: str, t: int, num_shards: int) -> int:
        return zlib.crc32(stream.encode()) % num_shards


class TimeWindowPlacement(PlacementPolicy):
    """Stripe events round-robin over shards in time windows."""

    spans_shards = True

    def __init__(self, window: int):
        if window < 1:
            raise ClusterError(f"window must be >= 1, got {window}")
        self.window = window

    def shard_of(self, stream: str, t: int, num_shards: int) -> int:
        return (t // self.window) % num_shards


def policy_to_wire(policy: PlacementPolicy) -> dict | None:
    """Wire form of a built-in policy; ``None`` for custom policies
    (their maps cannot be pushed to remote nodes)."""
    if type(policy) is HashPlacement:
        return {"kind": "hash"}
    if type(policy) is TimeWindowPlacement:
        return {"kind": "time_window", "window": policy.window}
    return None


def policy_from_wire(data: dict) -> PlacementPolicy:
    kind = data.get("kind")
    if kind == "hash":
        return HashPlacement()
    if kind == "time_window":
        return TimeWindowPlacement(int(data["window"]))
    raise ClusterError(f"unknown placement policy kind {kind!r}")


@dataclass(frozen=True)
class RangeAssignment:
    """Re-target one slice of a shard's computed ownership.

    Ownership of events the base policy (or an earlier assignment)
    places on ``source`` moves to ``shard_id`` — restricted to one
    stream when ``stream`` is set, and to ``t_lo <= t < t_hi`` when the
    bounds are set (``None`` means unbounded on that side).
    """

    shard_id: int
    source: int
    stream: str | None = None
    t_lo: int | None = None
    t_hi: int | None = None

    def applies_to(self, stream: str) -> bool:
        return self.stream is None or self.stream == stream

    def covers(self, t: int) -> bool:
        if self.t_lo is not None and t < self.t_lo:
            return False
        return self.t_hi is None or t < self.t_hi

    def to_wire(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "source": self.source,
            "stream": self.stream,
            "t_lo": self.t_lo,
            "t_hi": self.t_hi,
        }

    @classmethod
    def from_wire(cls, data: dict) -> "RangeAssignment":
        return cls(
            shard_id=int(data["shard_id"]),
            source=int(data["source"]),
            stream=data.get("stream"),
            t_lo=data.get("t_lo"),
            t_hi=data.get("t_hi"),
        )


@dataclass
class ShardSpec:
    """One shard's replica group: a primary plus its backups."""

    shard_id: int
    primary: Endpoint
    replicas: tuple[Endpoint, ...] = ()

    @property
    def nodes(self) -> tuple[Endpoint, ...]:
        return (self.primary, *self.replicas)

    @property
    def quorum(self) -> int:
        """Majority of the replica group (primary included)."""
        return len(self.nodes) // 2 + 1

    def promote(self, replica: Endpoint) -> None:
        """Make *replica* the primary; the old primary leaves the group."""
        if replica not in self.replicas:
            raise ClusterError(
                f"{replica} is not a replica of shard {self.shard_id}"
            )
        self.replicas = tuple(r for r in self.replicas if r != replica)
        self.primary = replica


@dataclass
class ShardMap:
    """The cluster's routing table: shard specs plus a placement policy.

    Shared by reference between the cluster orchestrator and every
    in-process router, so a failover's promotion is visible to routers
    immediately; ``version`` (the map *epoch*) increments on every
    ownership or membership change.  Remote nodes hold their own copy,
    installed via ``map_update`` and refreshed through the stale-route
    retry loop.

    The base policy modulus is frozen at ``base_shards`` — the shard
    count the map was founded with — so shards added later never shift
    computed placement; they own exactly what ``assignments`` give them.
    """

    shards: list[ShardSpec]
    policy: PlacementPolicy = field(default_factory=HashPlacement)
    version: int = 0
    base_shards: int | None = None
    assignments: tuple[RangeAssignment, ...] = ()
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.base_shards is None:
            self.base_shards = len(self.shards)

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    @property
    def epoch(self) -> int:
        return self.version

    # ------------------------------------------------------------ ownership

    def owner_of(self, stream: str, t: int) -> int:
        """The shard id owning (stream, t): the base policy's choice,
        re-targeted through the assignment chain in install order (a
        later split of an earlier split's target composes)."""
        owner = self.policy.shard_of(stream, t, self.base_shards)
        for assignment in self.assignments:
            if (
                owner == assignment.source
                and assignment.applies_to(stream)
                and assignment.covers(t)
            ):
                owner = assignment.shard_id
        return owner

    def shard_for(self, stream: str, t: int) -> ShardSpec:
        return self.shards[self.owner_of(stream, t)]

    def stream_affected(self, stream: str) -> bool:
        """Does any assignment re-target part of this stream?"""
        return any(a.applies_to(stream) for a in self.assignments)

    def owned_intervals(self, stream: str, shard: int, t_lo: int, t_hi: int):
        """Yield, in time order, the merged ``(lo, hi)`` slices of
        ``[t_lo, t_hi]`` (inclusive) that *shard* owns of *stream*: one
        :meth:`owner_of` per constant-ownership piece, walked lazily so
        a reader that stops early pays only for the pieces it read.  A
        window stripe has one piece per window, so callers clip the
        range to their stored data first.  Every policy with a wire form
        is windowed or owns whole streams, so the pieces are exact."""
        window = getattr(self.policy, "window", None)
        cuts = self._assignment_cuts(stream)
        owned = None
        t = t_lo
        while t <= t_hi:
            end = self._piece_end(t, window, cuts)
            hi = t_hi if end is None else min(end - 1, t_hi)
            if self.owner_of(stream, t) == shard:
                owned = (t if owned is None else owned[0], hi)
            elif owned is not None:
                yield owned
                owned = None
            t = hi + 1
        if owned is not None:
            yield owned

    def shards_for_stream(self, stream: str) -> list[ShardSpec]:
        """Every shard that may hold events of *stream*.

        Shards that *lost* a range to an assignment stay included:
        there is no delete primitive, so a split's source retains dead
        copies of the moved range — readers rely on server-side
        ownership filtering, not on the data being gone.
        """
        if self.policy.spans_shards:
            return list(self.shards)
        owners = {self.policy.shard_of(stream, 0, self.base_shards)}
        changed = True
        while changed:
            changed = False
            for assignment in self.assignments:
                if (
                    assignment.applies_to(stream)
                    and assignment.source in owners
                    and assignment.shard_id not in owners
                ):
                    owners.add(assignment.shard_id)
                    changed = True
        return [self.shards[i] for i in sorted(owners)]

    # ----------------------------------------------------------- partitioning

    def partition_batch(self, stream: str, batch: ColumnarEvents) -> dict:
        """Split a batch by target shard, preserving order within each.

        The order-preserving split keeps each shard's sub-batch sorted
        whenever the input batch was, so the per-shard append keeps the
        PR-1 run-detection fast path.

        Sorted batches skip the per-row loop whenever ownership is
        piecewise-constant in time — a windowed policy (cuts at window
        boundaries), a non-spanning policy (constant, cut only at
        assignment bounds), or both: boundaries are found by bisection,
        so the split costs O(pieces log n) instead of O(n) Python-level
        iterations, and sub-batches come out as slices.  Otherwise row
        indices are bucketed per shard and gathered.  Either way the
        :class:`ColumnarEvents` batch stays columnar — no per-event
        objects are materialized.
        """
        if len(batch) == 0:
            return {}
        cuts = self._assignment_cuts(stream)
        if not self.policy.spans_shards and not cuts:
            return {self.owner_of(stream, 0): batch}
        window = getattr(self.policy, "window", None)
        timestamps = batch.timestamps
        piecewise = window is not None or not self.policy.spans_shards
        if piecewise and all(
            map(le, timestamps, islice(timestamps, 1, None))
        ):
            return self._partition_sorted(stream, batch, window, cuts)
        rows: dict[int, list] = {}
        for row, t in enumerate(timestamps):
            rows.setdefault(self.owner_of(stream, t), []).append(row)
        return {shard: batch.take(picked) for shard, picked in rows.items()}

    def _assignment_cuts(self, stream: str) -> list[int]:
        """Sorted timestamps where an assignment bound can flip the
        owner of *stream* — extra cut points for the sorted fast path."""
        cuts = set()
        for assignment in self.assignments:
            if assignment.applies_to(stream):
                if assignment.t_lo is not None:
                    cuts.add(assignment.t_lo)
                if assignment.t_hi is not None:
                    cuts.add(assignment.t_hi)
        return sorted(cuts)

    def _partition_sorted(
        self, stream: str, batch: ColumnarEvents, window: int | None, cuts
    ) -> dict:
        """Piecewise split of a sorted batch via bisection.

        Walks the batch left to right, one constant-ownership piece per
        step (:meth:`_piece_end`); the owner of each piece comes from
        :meth:`owner_of` — the same delegation as the per-event slow
        path, so subclassed policies route identically on both paths.
        Slices land per shard in time order, so concatenation preserves
        sortedness.
        """
        timestamps = batch.timestamps
        ranges: dict[int, list] = {}
        n = len(timestamps)
        i = 0
        while i < n:
            t = timestamps[i]
            boundary = self._piece_end(t, window, cuts)
            shard = self.owner_of(stream, t)
            j = (
                bisect_left(timestamps, boundary, i, n)
                if boundary is not None
                else n
            )
            ranges.setdefault(shard, []).append((i, j))
            i = j
        out = {}
        for shard, spans in ranges.items():
            if len(spans) == 1:
                i, j = spans[0]
                out[shard] = batch[i:j]
            else:
                ts: list = []
                columns: list[list] = [[] for _ in batch.columns]
                for i, j in spans:
                    ts.extend(timestamps[i:j])
                    for acc, column in zip(columns, batch.columns):
                        acc.extend(column[i:j])
                out[shard] = ColumnarEvents(ts, columns)
        return out

    @staticmethod
    def _piece_end(t: int, window: int | None, cuts) -> int | None:
        """Exclusive end of the constant-ownership piece holding *t*:
        the next window boundary or assignment cut, whichever comes
        first; None when ownership never changes after *t*.  The one
        place that knows where ownership can change."""
        boundary = None if window is None else (t // window + 1) * window
        cut_index = bisect_right(cuts, t)
        if cut_index < len(cuts) and (
            boundary is None or cuts[cut_index] < boundary
        ):
            boundary = cuts[cut_index]
        return boundary

    # ------------------------------------------------------------- mutation

    def promote(self, shard_id: int, replica: Endpoint) -> None:
        with self._lock:
            self.shards[shard_id].promote(replica)
            self.version += 1

    def add_shard(self, spec: ShardSpec) -> None:
        """Register new capacity.  No epoch bump: a shard with no
        assignment owns nothing, so routing is unchanged until a split
        installs one."""
        with self._lock:
            if spec.shard_id != len(self.shards):
                raise ClusterError(
                    f"expected shard id {len(self.shards)}, "
                    f"got {spec.shard_id}"
                )
            self.shards.append(spec)

    def apply_assignment(self, assignment: RangeAssignment) -> int:
        """Install an ownership re-target and bump the epoch; a repeat
        of an already-installed assignment is a no-op (idempotent
        migration resume).  Returns the resulting epoch."""
        with self._lock:
            if assignment not in self.assignments:
                self._validate_assignment(assignment)
                self.assignments = (*self.assignments, assignment)
                self.version += 1
            return self.version

    def _validate_assignment(self, assignment: RangeAssignment) -> None:
        for shard_id in (assignment.shard_id, assignment.source):
            if not 0 <= shard_id < len(self.shards):
                raise ClusterError(f"assignment names unknown shard {shard_id}")
        if (
            assignment.t_lo is not None
            and assignment.t_hi is not None
            and assignment.t_lo >= assignment.t_hi
        ):
            raise ClusterError("assignment range is empty")

    # ----------------------------------------------------------------- wire

    def to_wire(self) -> dict:
        """JSON-serializable form, pushed to nodes via ``map_update``."""
        policy = policy_to_wire(self.policy)
        if policy is None:
            raise ClusterError(
                f"placement policy {type(self.policy).__name__} has no "
                "wire form; maps using it cannot be pushed to nodes"
            )
        with self._lock:
            return self._wire_locked(policy)

    def _wire_locked(self, policy: dict) -> dict:
        return {
            "epoch": self.version,
            "base_shards": self.base_shards,
            "policy": policy,
            "shards": [
                {
                    "shard_id": spec.shard_id,
                    "primary": str(spec.primary),
                    "replicas": [str(r) for r in spec.replicas],
                }
                for spec in self.shards
            ],
            "assignments": [a.to_wire() for a in self.assignments],
        }

    def preview_wire(self, assignment: RangeAssignment) -> dict:
        """The wire map as it will look once *assignment* is applied —
        built without mutating this map, so a migration can install the
        post-split map on the target/source *before* flipping the
        routers' shared copy."""
        policy = policy_to_wire(self.policy)
        if policy is None:
            raise ClusterError(
                f"placement policy {type(self.policy).__name__} has no "
                "wire form; maps using it cannot be pushed to nodes"
            )
        with self._lock:
            wire = self._wire_locked(policy)
            if assignment not in self.assignments:
                self._validate_assignment(assignment)
                wire["assignments"].append(assignment.to_wire())
                wire["epoch"] = self.version + 1
            return wire

    @classmethod
    def from_wire(cls, data: dict) -> "ShardMap":
        shards = [
            ShardSpec(
                shard_id=int(entry["shard_id"]),
                primary=Endpoint.parse(entry["primary"]),
                replicas=tuple(
                    Endpoint.parse(r) for r in entry["replicas"]
                ),
            )
            for entry in data["shards"]
        ]
        return cls(
            shards=shards,
            policy=policy_from_wire(data["policy"]),
            version=int(data["epoch"]),
            base_shards=int(data["base_shards"]),
            assignments=tuple(
                RangeAssignment.from_wire(a) for a in data["assignments"]
            ),
        )

    def install_wire(self, data: dict) -> bool:
        """Adopt a wire map if it is strictly newer than this one;
        returns whether anything changed.  In-place, so in-process
        routers sharing this map by reference all see the update."""
        if data is None:
            return False
        with self._lock:
            if int(data["epoch"]) <= self.version:
                return False
            fresh = ShardMap.from_wire(data)
            self.shards[:] = fresh.shards
            self.policy = fresh.policy
            self.base_shards = fresh.base_shards
            self.assignments = fresh.assignments
            self.version = fresh.version
            return True
