"""Deterministic failover: crash the primary at an exact device write.

The acceptance scenario: a three-node shard (one primary, two replicas,
quorum 2) ingests batches while a :class:`FaultPlan` arms a power
failure at the N-th device write on the *primary*.  The batch in flight
when the disk dies is never acknowledged; everything acknowledged before
it reached a majority.  After killing the primary and running one
monitor sweep, the promoted replica must serve the full event log of
every acknowledged batch — byte-identical on the wire to a no-crash run
over the same acknowledged prefix — and then accept new writes.

Crash points are derived from a recording run (same config, fault plan
in trace mode), so the test pins exact write indices without magic
numbers, exactly like the single-node crash matrix in
``repro.testing.crashkit``.
"""

import tempfile

import pytest

from repro import (
    ChronicleConfig,
    ChronicleDB,
    ColumnarEvents,
    Event,
    EventSchema,
)
from repro.cluster import Cluster, ClusterMonitor, reconcile_stream
from repro.errors import ChronicleError
from repro.events.serializer import PaxCodec
from repro.net import frames
from repro.simdisk.faults import FaultPlan

SCHEMA = EventSchema.of("v", "w")
CONFIG = ChronicleConfig(
    lblock_size=512, macro_size=2048, queue_capacity=8,
    checkpoint_interval=32,
)
BATCH = 40
BATCHES = 8


def wire_bytes(events):
    """*events* as the batch payload they cross a socket in."""
    return frames.encode_batch_payload(
        "s", frames.schema_bytes_of(SCHEMA), PaxCodec(SCHEMA),
        ColumnarEvents.of(events, SCHEMA.arity),
    )


def make_batches():
    """Mildly out-of-order batches: in-order appends buffer in the open
    leaf and barely touch the devices, but events arriving behind their
    neighbors exercise the out-of-order WAL/mirror on every batch — so
    crash points land densely across the whole ingest phase."""
    batches = []
    for i in range(BATCHES):
        timestamps = list(range(i * BATCH, (i + 1) * BATCH))
        for j in range(0, BATCH - 1, 4):
            timestamps[j], timestamps[j + 1] = (
                timestamps[j + 1], timestamps[j],
            )
        batches.append(
            [Event.of(t, float(t % 7), float(-t)) for t in timestamps]
        )
    return batches


def run_cluster(base_dir, fault_plan):
    """One ingest run; returns (cluster, client, acked_batches)."""
    cluster = Cluster(
        num_shards=1, replication_factor=2, base_dir=base_dir, config=CONFIG
    )
    cluster._members[0][0].fault_plan = fault_plan
    cluster.start()
    client = cluster.client()
    acked = []
    try:
        client.create_stream("s", SCHEMA)
        for batch in make_batches():
            client.append_batch("s", batch)
            acked.append(batch)
    except ChronicleError:
        pass  # the crash batch — not acknowledged
    return cluster, client, acked


def crash_points():
    """Write indices spread across the ingest phase of a recording run
    (same config and wire path, fault plan in trace-only mode)."""
    recorder = FaultPlan(record_trace=True)
    with tempfile.TemporaryDirectory() as base:
        cluster, client, acked = run_cluster(base, recorder)
        total_writes = recorder.writes
        client.close()
        cluster.stop()
    assert len(acked) == BATCHES
    assert total_writes >= 4, "not enough device writes to crash into"
    return sorted({1, total_writes // 2, total_writes - 1})


@pytest.mark.parametrize("crash_at", crash_points())
def test_failover_loses_no_acknowledged_event(crash_at):
    with tempfile.TemporaryDirectory() as base:
        plan = FaultPlan(crash_at_write=crash_at)
        cluster, client, acked = run_cluster(base, plan)
        try:
            assert plan.tripped, "crash point never reached"
            assert len(acked) < BATCHES, "crash lost no batch?"
            acked_events = [e for batch in acked for e in batch]

            spec = cluster.shard_map.shards[0]
            old_primary = spec.primary
            cluster.node_at(old_primary).kill()
            monitor = ClusterMonitor(cluster)
            promoted = monitor.poll_once()
            assert promoted and promoted[0] != old_primary
            assert spec.primary == promoted[0]

            # Zero acknowledged events lost; nothing unacknowledged
            # leaked in (the crash hit the primary's local apply, before
            # replication fan-out).  Reads come back in time order;
            # acked batches arrived mildly out of order.
            got = client.query("SELECT * FROM s")
            assert sorted((e.t, e.values) for e in got) == sorted(
                (e.t, e.values) for e in acked_events
            )

            # Byte-identical to a no-crash run over the acked prefix.
            with ChronicleDB(config=CONFIG) as oracle:
                oracle.create_stream("s", SCHEMA)
                oracle.get_stream("s").append_batch(acked_events)
                want = oracle.execute("SELECT * FROM s")
            assert wire_bytes(got) == wire_bytes(want)

            # The promoted primary accepts writes (quorum now 2 of 2).
            next_t = acked_events[-1].t + 1 if acked_events else 0
            tail = [Event.of(next_t + i, 1.0, 2.0) for i in range(10)]
            client.append_batch("s", tail)
            assert len(client.query("SELECT * FROM s")) == (
                len(acked_events) + 10
            )
            assert cluster.stats()["counters"]["failovers"] == 1
        finally:
            client.close()
            cluster.stop()


def test_killed_node_recovers_and_catches_up():
    """A killed (never-flushed) replica reopens through crash recovery
    with its durable prefix, then catch-up closes the gap."""
    with tempfile.TemporaryDirectory() as base:
        cluster, client, acked = run_cluster(base, None)
        spec = cluster.shard_map.shards[0]
        replica = spec.replicas[0]
        node = cluster.node_at(replica)
        node.kill()
        client.append_batch(
            "s", [Event.of(BATCHES * BATCH + i, 0.0, 0.0) for i in range(5)]
        )  # quorum 2-of-3 holds while the replica is down
        node.recover()
        try:
            # Crash recovery restores what reached the devices — a
            # time-ordered subset of the acknowledged events.  (Open-leaf
            # events that never hit disk are re-fetched below; the
            # *cluster* guarantee is the quorum, not one node's disk.)
            all_events = {
                (e.t, e.values)
                for batch in make_batches()
                for e in batch
            }
            recovered = list(node.db.get_stream("s").scan())
            assert all((e.t, e.values) in all_events for e in recovered)
            timestamps = [e.t for e in recovered]
            assert timestamps == sorted(timestamps)

            # Catch-up from the current primary makes it whole again.
            missing = reconcile_stream(
                cluster.pool, node.endpoint, [spec.primary], "s"
            )
            assert missing == BATCHES * BATCH + 5 - len(recovered)
            total = sum(1 for _ in node.db.get_stream("s").scan())
            assert total == BATCHES * BATCH + 5
        finally:
            client.close()
            cluster.stop()
