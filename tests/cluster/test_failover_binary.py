"""Failover with columnar client batches, plus zero-copy invariants.

The crash matrix of ``test_failover.py`` with a columnar tail write: the
primary dies at an exact device write mid-ingest, a replica is
promoted, and zero acknowledged events are lost — with the replay
byte-identical on the wire to a no-crash oracle.

The zero-copy test asserts the replication fan-out ships the *exact
payload bytes* the client sent: every ``OP_REPLICATE_BATCH`` payload a
replica receives equals the corresponding ``OP_APPEND_BATCH`` payload
the primary received — for batches and for single appends, which are
one-row batches on the wire.
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
from repro.cluster import Cluster, ClusterMonitor
from repro.errors import ChronicleError
from repro.events.serializer import PaxCodec
from repro.net import BinaryChronicleClient, frames
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
    """Mildly out-of-order batches, as in ``test_failover.py``: every
    batch touches the out-of-order WAL so crash points land densely."""
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
    cluster = Cluster(
        num_shards=1, replication_factor=2, base_dir=base_dir,
        config=CONFIG,
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
def test_binary_failover_loses_no_acknowledged_event(crash_at):
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
            promoted = ClusterMonitor(cluster).poll_once()
            assert promoted and promoted[0] != old_primary
            assert spec.primary == promoted[0]

            got = client.query("SELECT * FROM s")
            assert sorted((e.t, e.values) for e in got) == sorted(
                (e.t, e.values) for e in acked_events
            )

            # Byte-identical on the wire to a no-crash single-node run
            # over the acked prefix.
            with ChronicleDB(config=CONFIG) as oracle:
                oracle.create_stream("s", SCHEMA)
                oracle.get_stream("s").append_batch(acked_events)
                want = oracle.execute("SELECT * FROM s")
            assert wire_bytes(got) == wire_bytes(want)

            # The promoted primary accepts columnar writes.
            next_t = acked_events[-1].t + 1 if acked_events else 0
            tail = ColumnarEvents(
                [next_t + i for i in range(10)],
                [[1.0] * 10, [2.0] * 10],
            )
            client.append_batch("s", tail)
            assert len(client.query("SELECT * FROM s")) == (
                len(acked_events) + 10
            )
            assert cluster.stats()["counters"]["failovers"] == 1
        finally:
            client.close()
            cluster.stop()


def test_replication_forwards_identical_payload_bytes():
    """The zero-copy acceptance check: replica-received bytes == the
    client-sent bytes, frame payload for frame payload."""
    received, shipped = [], []
    with Cluster(num_shards=1, replication_factor=1) as cluster:
        spec = cluster.shard_map.shards[0]
        primary = cluster.node_at(spec.primary)
        replica = cluster.node_at(spec.replicas[0])

        def tap_primary(op, payload):
            if op == frames.OP_APPEND_BATCH:
                received.append(bytes(payload))
            elif op == frames.OP_APPEND_BATCH_EPOCH:
                # The router stamps batches with its map epoch; the
                # batch payload behind the u32 prefix is byte-identical
                # to a plain append — that is what replication forwards.
                _, batch = frames.split_epoch_payload(bytes(payload))
                received.append(batch)

        def tap_replica(op, payload):
            if op == frames.OP_REPLICATE_BATCH:
                shipped.append(bytes(payload))

        primary.server.frame_tap = tap_primary
        replica.server.frame_tap = tap_replica

        client = cluster.client()
        client.create_stream("s", SCHEMA)
        for i in range(5):
            timestamps = list(range(i * 20, (i + 1) * 20))
            client.append_batch(
                "s",
                ColumnarEvents(
                    timestamps,
                    [[float(t % 7) for t in timestamps],
                     [float(-t) for t in timestamps]],
                ),
            )
        # A single append is a one-row batch on the wire: routed
        # (epoch-stamped) or sent straight to the primary (plain
        # OP_APPEND_BATCH), in order or late.
        ops = []

        def tap_primary_ops(op, payload):
            ops.append(op)
            tap_primary(op, payload)

        primary.server.frame_tap = tap_primary_ops
        client.append("s", Event.of(100, 1.0, -100.0))
        with BinaryChronicleClient(
            spec.primary.host, spec.primary.port
        ) as direct:
            direct.append("s", Event.of(7, 0.5, -7.0))
        client.close()
    assert ops == [frames.OP_APPEND_BATCH_EPOCH, frames.OP_APPEND_BATCH]

    assert len(received) == 7
    assert shipped == received, "replication must forward unmodified bytes"
    # And the payloads really are the client's encoding, not a re-encode.
    expected = [list(range(i * 20, (i + 1) * 20)) for i in range(5)]
    expected += [[100], [7]]
    for payload, want in zip(received, expected):
        stream, schema, timestamps, _ = frames.decode_batch_payload(payload)
        assert stream == "s"
        assert schema == SCHEMA
        assert list(timestamps) == want
