"""Primary-backup replication: quorum acks, lag, and catch-up."""

import pytest

from repro import ChronicleConfig, ColumnarEvents, Event, EventSchema
from repro.cluster import Cluster, reconcile_stream
from repro.cluster.pool import ClientPool
from repro.net import BinaryChronicleClient, frames
from repro.net.client import RemoteError

SCHEMA = EventSchema.of("v")
PAIR_SCHEMA = EventSchema.of("v", "w")
CONFIG = ChronicleConfig(lblock_size=512, macro_size=2048)


def events(lo, hi):
    return [Event.of(t, float(t)) for t in range(lo, hi)]


def test_appends_reach_replicas_synchronously():
    with Cluster(num_shards=1, replication_factor=2, config=CONFIG) as cluster:
        client = cluster.client()
        client.create_stream("s", SCHEMA)
        client.append_batch("s", events(0, 200))
        client.append("s", Event.of(200, 200.0))
        spec = cluster.shard_map.shards[0]
        # Quorum is 2 of 3, but with every replica up the fan-out is
        # all-or-error per send — both replicas hold every event.
        for endpoint in spec.nodes:
            node = cluster.node_at(endpoint)
            assert node.db.get_stream("s").appended == 201, endpoint
        replication = cluster.stats()["shards"][0]["replication"]
        assert replication["quorum"] == 2
        assert replication["batches"] == 2
        assert replication["events"] == 201
        assert set(replication["lag"].values()) == {0}
        client.close()


def test_quorum_survives_one_dead_replica_and_tracks_lag():
    with Cluster(num_shards=1, replication_factor=2, config=CONFIG) as cluster:
        client = cluster.client()
        client.create_stream("s", SCHEMA)
        client.append_batch("s", events(0, 100))
        spec = cluster.shard_map.shards[0]
        dead = spec.replicas[0]
        cluster.node_at(dead).kill()
        client.append_batch("s", events(100, 150))  # 2-of-3 still acks
        replication = cluster.stats()["shards"][0]["replication"]
        assert replication["lag"][str(dead)] == 50
        assert replication["lag"][str(spec.replicas[1])] == 0
        live = cluster.node_at(spec.replicas[1])
        assert live.db.get_stream("s").appended == 150
        client.close()


def test_append_fails_without_quorum():
    with Cluster(num_shards=1, replication_factor=2, config=CONFIG) as cluster:
        client = cluster.client()
        client.create_stream("s", SCHEMA)
        client.append_batch("s", events(0, 50))
        spec = cluster.shard_map.shards[0]
        for replica in spec.replicas:
            cluster.node_at(replica).kill()
        with pytest.raises(RemoteError, match="quorum"):
            client.append_batch("s", events(50, 60))
        # The primary applied before the quorum check failed — the
        # documented primary-backup asymmetry; the batch was NOT acked.
        primary = cluster.node_at(spec.primary)
        assert primary.db.get_stream("s").appended == 60
        assert cluster.stats()["shards"][0]["replication"]["failures"] == 1
        client.close()


def test_create_stream_requires_all_replicas():
    with Cluster(num_shards=1, replication_factor=1, config=CONFIG) as cluster:
        client = cluster.client()
        spec = cluster.shard_map.shards[0]
        cluster.node_at(spec.replicas[0]).kill()
        with pytest.raises(RemoteError, match="create_stream"):
            client.create_stream("s", SCHEMA)
        client.close()


def test_reconcile_stream_applies_only_missing_events():
    with Cluster(num_shards=2, replication_factor=0, config=CONFIG) as cluster:
        pool = ClientPool()
        left = cluster.shard_map.shards[0].primary
        right = cluster.shard_map.shards[1].primary
        # Two divergent nodes sharing a 100-event overlap.
        for endpoint, lo, hi in ((left, 0, 300), (right, 200, 450)):
            pool.run(endpoint, lambda c: c.create_stream("s", SCHEMA))
            batch = events(lo, hi)
            pool.run(endpoint, lambda c: c.append_batch("s", batch))
        applied = reconcile_stream(pool, left, [right], "s")
        assert applied == 150  # only [300, 450) — the overlap is deduped
        fetched = pool.run(
            left, lambda c: c.catchup("s", -(2**62), 2**62)
        )
        assert [e.t for e in fetched["events"]] == list(range(450))
        # Idempotent: a second pass finds nothing missing.
        assert reconcile_stream(pool, left, [right], "s") == 0
        pool.close()


def test_reconcile_creates_stream_on_empty_target():
    with Cluster(num_shards=2, replication_factor=0, config=CONFIG) as cluster:
        pool = ClientPool()
        source = cluster.shard_map.shards[0].primary
        target = cluster.shard_map.shards[1].primary
        pool.run(source, lambda c: c.create_stream("s", SCHEMA))
        batch = events(0, 80)
        pool.run(source, lambda c: c.append_batch("s", batch))
        assert reconcile_stream(pool, target, [source], "s") == 80
        assert pool.run(target, lambda c: c.list_streams()) == ["s"]
        pool.close()


def test_replication_forwards_identical_payload_bytes():
    """The zero-copy acceptance check: every ``OP_REPLICATE_BATCH``
    payload a replica receives equals the ``OP_APPEND_BATCH`` payload the
    primary received — for batches and for single appends, which are
    one-row batches on the wire."""
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
        client.create_stream("s", PAIR_SCHEMA)
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
        assert schema == PAIR_SCHEMA
        assert list(timestamps) == want
