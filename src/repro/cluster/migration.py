"""Live shard split/migration: move a range without pausing ingest.

The LogBase-shaped protocol, per split (one :class:`RangeAssignment`
moving a time range or whole streams from ``source`` to ``target``):

1. **Bulk copy + tail sync** — iterate :func:`missing_in_range` (the
   ``catchup``-replay multiset diff) from source to target until a pass
   ships nothing.  The source keeps serving writes throughout; each
   pass shrinks the delta to whatever arrived during the previous one.
2. **Install forward** — push the post-split map (built with
   :meth:`ShardMap.preview_wire`, so its epoch matches the swap below)
   to the target's replica group first: the new owner must accept
   epoch-stamped writes before any router learns the new route.
3. **Fence** — push the same map to the source primary.  From here the
   source rejects stale-routed writes into the moved range
   (:class:`StaleRouteError`); the epoch check sits inside the stream
   lock, so any write that slipped past it has fully applied and step 5
   will see it.
4. **Swap** — apply the assignment to the orchestrator's shared map;
   in-process routers re-route immediately, remote routers on the next
   stale rejection.
5. **Final tail sync** — one more reconcile pass drains writes that
   landed on the source between the last pass of step 1 and the fence.
6. **Fan out + verify** — push the map to every remaining node, then
   re-diff the moved range; a non-empty diff fails the split.

Every wire write ticks an op counter; ``crash_at_op=k`` aborts the k-th
one (:class:`MigrationCrash`) *before* it executes — the crash-matrix
hook.  All steps are idempotent (multiset diffs, epoch-gated map
installs, no-op assignment re-application), so resuming is simply
re-running the split with the same target (``Cluster.resume_splits``).

Consistency caveats, by design: between steps 3 and 6 a scatter read
may see the moved range on both nodes (servers filter by ownership once
they hold the new map, so the window closes with the fan-out); the
source retains dead copies of the moved range forever (no delete
primitive — ownership filtering hides them); and a time split must sit
above the stream's late-arrival horizon, since events older than the
target's first write cannot be placed there.
"""

from __future__ import annotations

import time

from repro.cluster.placement import RangeAssignment, ShardSpec
from repro.cluster.replication import missing_in_range
from repro.errors import ClusterError, ProtocolError
from repro.net.client import RemoteError
from repro.obs import tally

_HUGE = 2**62

#: Bounds the copy/tail-sync loop: a source ingesting faster than the
#: migrator copies would otherwise never converge.
MAX_SYNC_ROUNDS = 64


class MigrationCrash(ClusterError):
    """Injected crash at a migration wire write (crash-matrix tests)."""


class _WireOps:
    """Counts the migration's wire writes and injects the crash."""

    def __init__(self, crash_at: int | None = None):
        self.count = 0
        self.crash_at = crash_at
        self.log: list[str] = []

    def tick(self, label: str) -> None:
        self.count += 1
        self.log.append(label)
        if self.crash_at is not None and self.count == self.crash_at:
            raise MigrationCrash(
                f"migration crashed at wire write {self.count} ({label})"
            )


def run_split(
    cluster,
    source_id: int,
    *,
    t_split: int | None = None,
    streams=None,
    target_id: int | None = None,
    chunk: int = 2048,
    chunk_delay_s: float = 0.0,
    crash_at_op: int | None = None,
    record: dict | None = None,
) -> dict:
    """Split ``source_id`` live; returns the migration record.

    Exactly one of ``t_split`` (move every stream's ``t >= t_split``
    range — windowed deployments) or ``streams`` (move whole streams —
    hashed deployments) selects what moves.  ``target_id=None``
    provisions a fresh shard via :meth:`Cluster.add_shard`; pass the
    previous target to resume a crashed split.  ``chunk_delay_s``
    throttles copy chunks so foreground ingest keeps its share of the
    node (the benchmark's knob).
    """
    if (t_split is None) == (streams is None):
        raise ClusterError(
            "split_shard needs exactly one of t_split / streams"
        )
    shard_map = cluster.shard_map
    if not 0 <= source_id < len(shard_map.shards):
        raise ClusterError(f"unknown source shard {source_id}")
    source = shard_map.shards[source_id]
    if target_id is None:
        target = cluster.add_shard()
    else:
        if not 0 <= target_id < len(shard_map.shards):
            raise ClusterError(f"unknown target shard {target_id}")
        target = shard_map.shards[target_id]
    if target.shard_id == source_id:
        raise ClusterError("split target must differ from the source")

    if record is None:
        record = {
            "source": source_id,
            "target": target.shard_id,
            "t_split": t_split,
            "streams": list(streams) if streams is not None else None,
            "status": "running",
            "copied_events": 0,
            "rounds": 0,
            "wire_ops": 0,
        }
        cluster.migrations.append(record)
    else:
        record["status"] = "running"

    ops = _WireOps(crash_at_op)
    try:
        _run(cluster, source, target, t_split, streams, chunk,
             chunk_delay_s, ops, record)
        record["status"] = "done"
    except BaseException:
        record["status"] = "failed"
        record["wire_ops"] = ops.count
        raise
    record["wire_ops"] = ops.count
    tally(cluster.counters, "cluster", splits=1,
          migrated_events=record["copied_events"])
    return record


def _run(cluster, source: ShardSpec, target: ShardSpec, t_split, streams,
         chunk, chunk_delay_s, ops: _WireOps, record: dict) -> None:
    if streams is not None:
        affected = sorted(streams)
        assignments = [
            RangeAssignment(target.shard_id, source.shard_id, stream=name)
            for name in affected
        ]
        t_lo, t_hi = -_HUGE, _HUGE
    else:
        affected = cluster.pool.run(
            source.primary, lambda c: c.list_streams()
        )
        assignments = [
            RangeAssignment(
                target.shard_id, source.shard_id, t_lo=t_split
            )
        ]
        t_lo, t_hi = t_split, _HUGE

    for name in affected:
        _ensure_stream(cluster, source, target, name, ops)

    # 1. bulk copy + tail sync until a pass moves nothing
    for _ in range(MAX_SYNC_ROUNDS):
        moved = 0
        for name in affected:
            moved += _copy_range(
                cluster, source, target, name, t_lo, t_hi, chunk,
                chunk_delay_s, ops,
            )
        record["rounds"] += 1
        record["copied_events"] += moved
        if moved == 0:
            break
    else:
        raise ClusterError(
            f"split of shard {source.shard_id} did not converge in "
            f"{MAX_SYNC_ROUNDS} rounds; throttle ingest or raise the cap"
        )

    # 2. + 3. one map for everyone: target group first, then the fence
    wire = cluster.shard_map.preview_wire(assignments[0])
    for assignment in assignments[1:]:
        wire["assignments"].append(assignment.to_wire())
    for endpoint in (*target.nodes, source.primary):
        _push_map(cluster, endpoint, wire, ops, required=True)

    # 4. swap the routers' shared map (no wire write; in-process).  A
    # concurrent stale retry may have already installed the previewed
    # map — apply_assignment is a no-op then.
    for assignment in assignments:
        cluster.shard_map.apply_assignment(assignment)

    # 5. drain the fence delta
    drained = 0
    for name in affected:
        drained += _copy_range(
            cluster, source, target, name, t_lo, t_hi, chunk, 0.0, ops
        )
    record["copied_events"] += drained
    record["final_delta"] = drained

    # 6. fan out to everyone else, then verify the move is exact.  The
    # post-swap map is re-serialized: a multi-stream move applies one
    # assignment per stream, so the authoritative epoch may sit above
    # the preview's.
    final_wire = cluster.shard_map.to_wire()
    # The split bumped the epoch outside push_map: persist the new
    # ownership facts so a full restart re-adopts them.
    cluster.save_route_state(final_wire)
    pushed = {*target.nodes, source.primary}
    for endpoint in sorted(set(cluster.nodes) - pushed):
        _push_map(cluster, endpoint, final_wire, ops, required=False)
    leftovers = 0
    for name in affected:
        leftovers += len(
            missing_in_range(
                cluster.pool, source.primary, target.primary, name,
                t_lo, t_hi,
            )
        )
    if leftovers:
        raise ClusterError(
            f"split verification failed: {leftovers} events of the moved "
            f"range are absent from shard {target.shard_id}"
        )
    record["verified"] = True


def _ensure_stream(cluster, source: ShardSpec, target: ShardSpec,
                   stream: str, ops: _WireOps) -> None:
    """Uniform namespace: the target (incl. replicas, via its
    replicator) must hold the stream before events ship."""
    schema = cluster.pool.run(source.primary, lambda c: c.schema(stream))
    ops.tick(f"create:{stream}")
    try:
        cluster.pool.run(
            target.primary, lambda c: c.create_stream(stream, schema)
        )
    except RemoteError as error:
        if "already exists" not in str(error):
            raise


def _copy_range(cluster, source: ShardSpec, target: ShardSpec, stream: str,
                t_lo: int, t_hi: int, chunk: int, chunk_delay_s: float,
                ops: _WireOps) -> int:
    """One reconcile pass: ship whatever the target is missing, in
    chunks through the target primary's ordinary append path — its
    replicator fans each chunk out, so copied data is quorum-replicated
    exactly like foreground writes."""
    missing = missing_in_range(
        cluster.pool, source.primary, target.primary, stream, t_lo, t_hi
    )
    for start in range(0, len(missing), chunk):
        batch = missing[start : start + chunk]
        ops.tick(f"copy:{stream}:{start}")
        cluster.pool.run(
            target.primary, lambda c: c.append_batch(stream, batch)
        )
        if chunk_delay_s:
            time.sleep(chunk_delay_s)
    return len(missing)


def _push_map(cluster, endpoint, wire: dict, ops: _WireOps,
              required: bool) -> None:
    ops.tick(f"map_update:{endpoint}")
    try:
        cluster.pool.run(endpoint, lambda c: c.map_update(wire))
    except (OSError, ProtocolError, RemoteError) as error:
        if required:
            raise ClusterError(
                f"map install on {endpoint} failed: {error}"
            ) from error
        # A dead node catches up when failover or resume re-pushes.
