"""Elastic cluster: epoch-versioned maps, live splits, rebalancing.

Covers the PR-9 tentpole end to end, in process:

* shard-map wire round-trips and monotone ``install_wire`` adoption;
* ``owner_of`` following chained range assignments;
* a live time split whose cluster-wide query results — events,
  aggregates, grouped rows — stay exactly equal to a single-node oracle
  over everything acknowledged, despite the source retaining dead
  copies of the moved range (servers filter reads by ownership);
* a router holding a stale map: its write is rejected with
  :class:`StaleRouteError` and transparently retried under the map the
  rejection carries;
* whole-stream moves for hashed deployments;
* the skew-driven rebalancer proposing (and applying) splits.
"""

import pytest

from repro import ChronicleConfig, ChronicleDB, Event, EventSchema
from repro.cluster import (
    Cluster,
    ClusterClient,
    Endpoint,
    RangeAssignment,
    ShardMap,
    ShardSpec,
    TimeWindowPlacement,
)
from repro.cluster.pool import ClientPool
from repro.errors import ClusterError

SCHEMA = EventSchema.of("a", "b")
CONFIG = ChronicleConfig(
    lblock_size=512, macro_size=2048, queue_capacity=8,
    checkpoint_interval=32,
)
WINDOW = 100


def make_events(t_lo, t_hi):
    return [Event.of(t, float(t % 7), float(-t)) for t in range(t_lo, t_hi)]


def rows(events):
    return sorted((e.t, tuple(e.values)) for e in events)


def oracle_results(acked, sqls):
    with ChronicleDB(config=CONFIG) as db:
        db.create_stream("s", SCHEMA)
        db.get_stream("s").append_batch(sorted(acked, key=lambda e: e.t))
        return [db.execute(sql) for sql in sqls]


def assert_same_result(got, want):
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert got[key] == pytest.approx(want[key])
    elif want and isinstance(want[0], dict):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g.keys() == w.keys()
            for key in w:
                assert g[key] == pytest.approx(w[key])
    else:
        assert rows(got) == rows(want)


# ----------------------------------------------------------- map plumbing


def make_map(num_shards, policy):
    shards = [
        ShardSpec(i, Endpoint("127.0.0.1", 9000 + i))
        for i in range(num_shards)
    ]
    return ShardMap(shards, policy)


def test_map_wire_round_trip():
    shard_map = make_map(2, TimeWindowPlacement(WINDOW))
    shard_map.apply_assignment(RangeAssignment(1, 0, t_lo=200))
    clone = ShardMap.from_wire(shard_map.to_wire())
    assert clone.version == shard_map.version
    assert clone.base_shards == shard_map.base_shards
    for t in range(0, 500, 25):
        assert clone.owner_of("s", t) == shard_map.owner_of("s", t)


def test_preview_wire_does_not_mutate():
    shard_map = make_map(2, TimeWindowPlacement(WINDOW))
    wire = shard_map.preview_wire(RangeAssignment(1, 0, t_lo=200))
    assert wire["epoch"] == shard_map.version + 1
    assert shard_map.version == 0 and not shard_map.assignments


def test_install_wire_adopts_only_newer_epochs():
    shard_map = make_map(2, TimeWindowPlacement(WINDOW))
    newer = shard_map.preview_wire(RangeAssignment(1, 0, t_lo=200))
    assert shard_map.install_wire(newer)
    assert shard_map.version == newer["epoch"]
    assert shard_map.owner_of("s", 250) == 1
    assert not shard_map.install_wire(newer)  # same epoch: no-op
    assert not shard_map.install_wire(None)
    stale = dict(newer, epoch=0)
    assert not shard_map.install_wire(stale)


def test_owner_of_follows_assignment_chain():
    shard_map = make_map(3, TimeWindowPlacement(WINDOW))
    # Window 0 belongs to shard 0; move its [50, 80) slice to shard 1,
    # then shard 1's re-targeted slice [60, 80) onward to shard 2.
    shard_map.apply_assignment(RangeAssignment(1, 0, t_lo=50, t_hi=80))
    shard_map.apply_assignment(RangeAssignment(2, 1, t_lo=60, t_hi=80))
    assert shard_map.owner_of("s", 40) == 0
    assert shard_map.owner_of("s", 55) == 1
    assert shard_map.owner_of("s", 70) == 2
    assert shard_map.owner_of("s", 80) == 0  # t_hi exclusive
    assert shard_map.version == 2


def test_split_needs_exactly_one_selector():
    with Cluster(num_shards=1, config=CONFIG) as cluster:
        with pytest.raises(ClusterError):
            cluster.split_shard(0)
        with pytest.raises(ClusterError):
            cluster.split_shard(0, t_split=10, streams=["s"])


# ------------------------------------------------------------ live splits

QUERIES = [
    "SELECT * FROM s",
    "SELECT * FROM s WHERE t >= 150 AND t <= 450",
    "SELECT sum(a), count(a), min(a), max(a), avg(a) FROM s",
    "SELECT stdev(b), avg(b) FROM s WHERE t >= 120 AND t <= 520",
    "SELECT sum(a), count(a), min(b) FROM s GROUP BY time(150)",
]


def test_live_time_split_keeps_results_exact():
    with Cluster(
        num_shards=2, policy=TimeWindowPlacement(WINDOW), config=CONFIG
    ) as cluster:
        client = cluster.client()
        try:
            client.create_stream("s", SCHEMA)
            acked = make_events(0, 400)
            client.append_batch("s", acked)

            record = cluster.split_shard(0, t_split=200)
            assert record["status"] == "done" and record["verified"]
            # Windows 2 (t 200..299) had base owner 0 and moved.
            assert record["copied_events"] >= 100
            target = record["target"]
            assert cluster.shard_map.owner_of("s", 250) == target
            assert cluster.shard_map.owner_of("s", 50) == 0
            assert cluster.shard_map.owner_of("s", 150) == 1

            # Ingest continues, including into the moved range and into
            # future windows the assignment now re-targets.
            tail = make_events(400, 600)
            client.append_batch("s", tail)
            acked += tail
            assert cluster.shard_map.owner_of("s", 450) == target

            health = cluster.pool.run(
                cluster.shard_map.shards[target].primary,
                lambda c: c.health(),
            )
            assert health["streams"]["s"]["appended"] >= 100

            for sql, want in zip(QUERIES, oracle_results(acked, QUERIES)):
                assert_same_result(client.query(sql), want)
        finally:
            client.close()


def test_stale_router_is_fenced_and_transparently_retries():
    with Cluster(
        num_shards=2, policy=TimeWindowPlacement(WINDOW), config=CONFIG
    ) as cluster:
        client = cluster.client()
        # A second router with its *own* copy of the pre-split map —
        # the remote-client picture.
        stale_client = ClusterClient(
            ShardMap.from_wire(cluster.shard_map.to_wire()),
            pool=ClientPool(),
        )
        try:
            client.create_stream("s", SCHEMA)
            client.append_batch("s", make_events(0, 400))
            record = cluster.split_shard(0, t_split=200)
            target = record["target"]

            old_epoch = stale_client.shard_map.version
            assert old_epoch < cluster.shard_map.version

            # The stale router sends the moved range to the old owner,
            # gets fenced, adopts the carried map, and lands the write.
            moved = make_events(200, 260)
            assert stale_client.append_batch("s", moved) == len(moved)
            assert stale_client.counters["stale_retries"] >= 1
            assert stale_client.shard_map.version == (
                cluster.shard_map.version
            )
            assert stale_client.shard_map.owner_of("s", 250) == target

            source_node = cluster.node_at(
                cluster.shard_map.shards[0].primary
            )
            assert source_node.server.stale_rejections >= 1

            got = client.query("SELECT * FROM s WHERE t >= 200 AND t <= 299")
            assert rows(got) == rows(make_events(200, 300) + moved)
        finally:
            stale_client.close()
            client.close()


def test_hash_policy_stream_move():
    with Cluster(num_shards=2, config=CONFIG) as cluster:
        client = cluster.client()
        try:
            for name in ("s", "quiet"):
                client.create_stream(name, SCHEMA)
            acked = make_events(0, 300)
            client.append_batch("s", acked)
            client.append_batch("quiet", make_events(0, 20))

            source = cluster.shard_map.owner_of("s", 0)
            record = cluster.split_shard(source, streams=["s"])
            target = record["target"]
            assert record["copied_events"] == 300
            assert cluster.shard_map.owner_of("s", 12345) == target
            # The quiet stream did not move.
            assert cluster.shard_map.owner_of("quiet", 0) == (
                cluster.shard_map.owner_of("quiet", 99)
            )

            tail = make_events(300, 360)
            client.append_batch("s", tail)
            acked += tail
            health = cluster.pool.run(
                cluster.shard_map.shards[target].primary,
                lambda c: c.health(),
            )
            assert health["streams"]["s"]["appended"] == len(acked)

            assert rows(client.query("SELECT * FROM s")) == rows(acked)
            got = client.query("SELECT sum(a), count(a) FROM s")
            assert got["count(a)"] == len(acked)
        finally:
            client.close()


# ------------------------------------------------------------- rebalancer


def test_rebalancer_quiet_when_balanced():
    with Cluster(
        num_shards=2, policy=TimeWindowPlacement(WINDOW), config=CONFIG
    ) as cluster:
        client = cluster.client()
        try:
            client.create_stream("s", SCHEMA)
            client.append_batch("s", make_events(0, 400))  # 200 per shard
            balancer = cluster.rebalancer(min_events=10)
            assert balancer.proposals() == []
        finally:
            client.close()


def test_rebalancer_applies_time_split_at_future_boundary():
    with Cluster(
        num_shards=2, policy=TimeWindowPlacement(WINDOW), config=CONFIG
    ) as cluster:
        client = cluster.client()
        try:
            client.create_stream("s", SCHEMA)
            # Shard 0 owns even windows: load them 4x heavier.
            client.append_batch("s", make_events(0, 100))
            client.append_batch("s", make_events(200, 300))
            client.append_batch("s", make_events(400, 500))
            client.append_batch("s", make_events(100, 175))

            balancer = cluster.rebalancer(min_events=100)
            proposal = balancer.rebalance_once()
            assert proposal is not None
            assert proposal.kind == "time_split"
            assert proposal.source == 0
            assert proposal.t_split == 500  # next boundary above t_max
            assert balancer.history == [proposal]

            record = cluster.migrations[-1]
            assert record["status"] == "done"
            # Nothing historical moved — the split fences the future.
            assert record["copied_events"] == 0
            target = record["target"]
            # Window 6 (t 600..699) had base owner 0; it lands on the
            # new shard now.
            assert cluster.shard_map.owner_of("s", 650) == target
            client.append_batch("s", make_events(600, 650))
            health = cluster.pool.run(
                cluster.shard_map.shards[target].primary,
                lambda c: c.health(),
            )
            assert health["streams"]["s"]["appended"] == 50
            # Re-sampling from the new baseline proposes nothing more.
            balancer.sample()
            assert balancer.proposals() == []
        finally:
            client.close()


def test_rebalancer_proposes_stream_moves_for_hashed_clusters():
    with Cluster(num_shards=2, config=CONFIG) as cluster:
        client = cluster.client()
        try:
            streams = ["h0", "h1", "h2", "h3"]
            for name in streams:
                client.create_stream(name, SCHEMA)
            hot = max(streams, key=lambda n: _load_of(cluster, n))
            client.append_batch(hot, make_events(0, 400))
            for name in streams:
                if name != hot:
                    client.append_batch(name, make_events(0, 10))

            balancer = cluster.rebalancer(min_events=100)
            proposals = balancer.proposals()
            assert len(proposals) == 1
            proposal = proposals[0]
            assert proposal.kind == "move_streams"
            assert proposal.source == cluster.shard_map.owner_of(hot, 0)
            assert hot in proposal.streams
        finally:
            client.close()


def _load_of(cluster, name):
    """Tie-break helper: pick the stream whose shard makes skew obvious
    (any stream works; the max() just needs a deterministic choice)."""
    return (cluster.shard_map.owner_of(name, 0), name)
