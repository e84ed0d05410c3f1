"""Route-state persistence: shard maps survive full restarts.

A live split installs range assignments and bumps the map epoch — all
in memory.  These tests prove both sides come back with that ownership
state after a stop/start: the orchestrator re-adopts assignments +
epoch from ``route_state.bin``, and a restarted node re-arms epoch
fencing before its first request.
"""

import os
import tempfile

import pytest

from repro import ChronicleConfig, ChronicleDB, Event, EventSchema
from repro.cluster import Cluster
from repro.cluster.placement import Endpoint, ShardMap, ShardSpec
from repro.cluster.routestate import (
    load_route_state,
    route_state_path,
    save_route_state,
)
from repro.net import BinaryChronicleClient, ChronicleServer

SCHEMA = EventSchema.of("x", "y")
CONFIG = ChronicleConfig(
    lblock_size=512, macro_size=2048, queue_capacity=8,
    checkpoint_interval=32,
)


@pytest.fixture
def base_dir():
    with tempfile.TemporaryDirectory() as base:
        yield base


def make_events(t_lo, t_hi):
    return [Event.of(t, float(t), float(-t)) for t in range(t_lo, t_hi)]


def test_wire_map_roundtrip(base_dir):
    shards = [
        ShardSpec(0, primary=Endpoint("127.0.0.1", 1000)),
        ShardSpec(1, primary=Endpoint("127.0.0.1", 1001)),
    ]
    wire = ShardMap(shards).to_wire()
    assert load_route_state(base_dir) is None
    save_route_state(base_dir, wire)
    assert load_route_state(base_dir) == wire
    # Corruption degrades to "no state" (founding map), never an error.
    with open(route_state_path(base_dir), "r+b") as fh:
        fh.seek(10)
        fh.write(b"\xff\xff\xff")
    assert load_route_state(base_dir) is None


def test_node_rearms_epoch_fencing_after_restart(base_dir):
    directory = os.path.join(base_dir, "node")
    db = ChronicleDB(directory, config=CONFIG)
    server = ChronicleServer(db)
    server.start()
    shards = [ShardSpec(0, primary=Endpoint(server.host, server.port))]
    shard_map = ShardMap(shards)
    shard_map.version = 7
    with BinaryChronicleClient(server.host, server.port) as cli:
        cli.map_update(shard_map.to_wire())
    assert server.route_epoch == 7
    server.stop()
    db.close()

    # Restart on the same directory: the epoch is enforced again before
    # any map_update reaches the node.
    db = ChronicleDB.open(directory, config=CONFIG)
    server = ChronicleServer(db)
    assert server.route_epoch == 7
    server.stop()
    db.close()


def test_cluster_restart_restores_split_routing(base_dir):
    with Cluster(
        num_shards=2, replication_factor=0, base_dir=base_dir,
        config=CONFIG,
    ) as cluster:
        client = cluster.client()
        client.create_stream("s", SCHEMA)
        client.append_batch("s", make_events(0, 300))
        source = cluster.shard_map.shard_for("s", 0).shard_id
        cluster.split_shard(source, t_split=150)
        target = cluster.shard_map.shard_for("s", 200).shard_id
        assert target != source
        epoch = cluster.shard_map.version
        assert cluster.shard_map.assignments

    # Full restart (the split added a shard: three node groups now).
    with Cluster(
        num_shards=3, replication_factor=0, base_dir=base_dir,
        config=CONFIG,
    ) as restarted:
        assert restarted.shard_map.version >= epoch
        assert restarted.shard_map.assignments
        assert restarted.shard_map.base_shards == 2
        # Ownership still routes the moved range to the split target...
        assert restarted.shard_map.shard_for("s", 200).shard_id == target
        assert restarted.shard_map.shard_for("s", 0).shard_id == source
        # ...and reads span both sides of the cut, exactly once.
        client = restarted.client()
        events = client.query("SELECT * FROM s")
        assert [e.t for e in events] == list(range(300))
        client.append_batch("s", make_events(300, 320))
        events = client.query("SELECT * FROM s")
        assert [e.t for e in events] == list(range(320))


def test_cluster_drops_out_of_range_assignments(base_dir):
    with Cluster(
        num_shards=2, replication_factor=0, base_dir=base_dir,
        config=CONFIG,
    ) as cluster:
        client = cluster.client()
        client.create_stream("s", SCHEMA)
        client.append_batch("s", make_events(0, 100))
        cluster.split_shard(cluster.shard_map.shard_for("s", 0).shard_id,
                            t_split=50)

    # Restarting with fewer shards than the assignments reference: the
    # persisted facts cannot apply, so the founding map stands.
    with Cluster(
        num_shards=2, replication_factor=0, base_dir=base_dir,
        config=CONFIG,
    ) as restarted:
        assert restarted.shard_map.assignments == ()
