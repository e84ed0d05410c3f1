"""Routed subscriptions across failover and live splits, plus
exactly-once continuous queries through the checkpointed runner.

The delivered sequence must always equal the no-fault oracle — the
subscription hops shards (transport recovery, ``ownership_changed``,
``ownership_boundary``) but the consumer sees one totally-ordered,
exactly-once feed.
"""

import os
import tempfile

import pytest

from repro import ChronicleConfig, Event, EventSchema
from repro.cluster import Cluster, ClientPool
from repro.epc.operators import Pipeline, TumblingAggregate
from repro.errors import ClusterError
from repro.sub import CheckpointedQueryRunner, ClusterSubscriber

SCHEMA = EventSchema.of("x", "y")
CONFIG = ChronicleConfig(
    lblock_size=512, macro_size=2048, queue_capacity=8,
    checkpoint_interval=32,
)


def make_events(t_lo, t_hi):
    return [Event.of(t, float(t), float(-t)) for t in range(t_lo, t_hi)]


@pytest.fixture
def base_dir():
    with tempfile.TemporaryDirectory() as base:
        yield base


def test_failover_resumes_from_cursor(base_dir):
    with Cluster(
        num_shards=1, replication_factor=2, base_dir=base_dir,
        config=CONFIG,
    ) as cluster:
        client = cluster.client()
        client.create_stream("s", SCHEMA)
        client.append_batch("s", make_events(0, 200))
        with ClusterSubscriber(
            "s", cluster=cluster, from_t=0, batch=32, credits=1
        ) as sub:
            feed = sub.events(timeout=10)
            got = [next(feed).t for _ in range(60)]
            # The primary vanishes mid-subscription.  The subscriber
            # invalidates the connection, has the orchestrator promote
            # the replica, and resumes from its cursor.
            primary = cluster.shard_map.shards[0].primary
            cluster.nodes[primary].kill()
            got.extend(next(feed).t for _ in range(140))
            assert got == list(range(200))
            assert sub.failovers >= 1
            # The promoted primary serves the live tail too.
            client.append_batch("s", make_events(200, 240))
            got.extend(next(feed).t for _ in range(40))
            assert got == list(range(240))


def test_subscription_follows_a_completed_split(base_dir):
    with Cluster(
        num_shards=2, replication_factor=1, base_dir=base_dir,
        config=CONFIG,
    ) as cluster:
        client = cluster.client()
        client.create_stream("s", SCHEMA)
        client.append_batch("s", make_events(0, 400))
        source = cluster.shard_map.shard_for("s", 0).shard_id
        cluster.split_shard(source, t_split=200)
        # t >= 200 now lives on the new shard.  A from-zero subscription
        # replays the source's range, hits the ownership boundary, and
        # hops — one contiguous feed.
        with ClusterSubscriber(
            "s", cluster=cluster, from_t=0, batch=32
        ) as sub:
            got = [e.t for e in sub.take(400, timeout=10)]
            assert got == list(range(400))
            assert sub.reroutes >= 1
            client.append_batch("s", make_events(400, 430))
            got.extend(e.t for e in sub.take(30, timeout=10))
            assert got == list(range(430))


def test_subscription_survives_live_split_epoch_swap(base_dir):
    with Cluster(
        num_shards=2, replication_factor=1, base_dir=base_dir,
        config=CONFIG,
    ) as cluster:
        client = cluster.client()
        client.create_stream("s", SCHEMA)
        client.append_batch("s", make_events(0, 400))
        source = cluster.shard_map.shard_for("s", 0).shard_id
        # credits=1 and paused consumption stall the push mid-replay,
        # so the epoch swap lands while the subscription is in flight.
        with ClusterSubscriber(
            "s", cluster=cluster, from_t=0, batch=32, credits=1
        ) as sub:
            feed = sub.events(timeout=10)
            got = [next(feed).t for _ in range(40)]
            cluster.split_shard(source, t_split=200)
            got.extend(next(feed).t for _ in range(360))
            assert got == list(range(400))
            assert sub.reroutes >= 1
            client.append_batch("s", make_events(400, 430))
            got.extend(next(feed).t for _ in range(30))
            assert got == list(range(430))


def test_windowed_placement_is_rejected(base_dir):
    from repro.cluster.placement import TimeWindowPlacement

    with Cluster(
        num_shards=2, replication_factor=1, base_dir=base_dir,
        config=CONFIG,
        policy=TimeWindowPlacement(window=100),
    ) as cluster:
        with pytest.raises(ClusterError):
            ClusterSubscriber("s", cluster=cluster)


class IdempotentSink:
    """The sink half of the exactly-once contract: replayed indices must
    re-emit identical outputs and are dropped."""

    def __init__(self):
        self.outputs: dict[int, tuple] = {}
        self.replays = 0

    def __call__(self, index, result):
        packed = (result.t_start, result.t_end, result.value, result.count)
        if index in self.outputs:
            assert self.outputs[index] == packed, "replay diverged"
            self.replays += 1
            return
        self.outputs[index] = packed


def tumbling_oracle(events, width):
    pipeline = Pipeline([TumblingAggregate(width, "x", "avg")])
    pipeline.bind(SCHEMA)
    outputs = []
    for event in events:
        outputs.extend(pipeline.process(event))
    return [(r.t_start, r.t_end, r.value, r.count) for r in outputs]


def test_checkpointed_query_survives_restart_failover_and_split(base_dir):
    total, width = 400, 50
    with Cluster(
        num_shards=2, replication_factor=2, base_dir=base_dir,
        config=CONFIG,
    ) as cluster:
        client = cluster.client()
        client.create_stream("s", SCHEMA)
        events = make_events(0, total)
        client.append_batch("s", events)
        checkpoint = os.path.join(base_dir, "query.ckpt")
        sink = IdempotentSink()

        def make_runner():
            return CheckpointedQueryRunner(
                make_subscriber=lambda cursor: ClusterSubscriber(
                    "s", cluster=cluster, from_t=0, cursor=cursor, batch=32
                ),
                make_pipeline=lambda: Pipeline(
                    [TumblingAggregate(width, "x", "avg")]
                ),
                schema=SCHEMA,
                sink=sink,
                checkpoint_path=checkpoint,
            )

        # First incarnation processes part of the stream, checkpointing
        # cursor + open-window state after every batch, then "crashes"
        # (is simply abandoned).
        runner = make_runner()
        runner.run(max_events=150, timeout=10)
        assert 0 < runner.processed < total

        # While it is down: the primary dies AND the stream's tail is
        # split onto a fresh shard.
        source = cluster.shard_map.shard_for("s", 0).shard_id
        primary = cluster.shard_map.shards[source].primary
        cluster.nodes[primary].kill()
        cluster.ensure_primary(source)
        cluster.split_shard(source, t_split=200)

        # Second incarnation restores cursor + mid-window state from the
        # checkpoint and finishes — across the failover and the split.
        runner = make_runner()
        runner.run(max_events=total, timeout=10)
        assert runner.processed == total

        want = tumbling_oracle(events, width)
        got = [sink.outputs[i] for i in sorted(sink.outputs)]
        assert got == want
        assert len(sink.outputs) == total // width - 1  # last window open


def test_unreachable_shard_exhausts_the_stall_budget(monkeypatch):
    """Without an orchestrator nothing can promote a replica: every hop
    takes the failover step (a short pause), and the subscription gives
    up with a typed error once the stall budget is spent."""
    import repro.sub.cluster as sub_cluster

    monkeypatch.setattr(sub_cluster, "_MAX_STALLS", 3)
    with Cluster(num_shards=1, config=CONFIG) as cluster:
        client = cluster.client()
        client.create_stream("s", SCHEMA)
        client.close()
        cluster.node_at(cluster.shard_map.shards[0].primary).kill()
        sub = ClusterSubscriber("s", shard_map=cluster.shard_map, from_t=0)
        with pytest.raises(ClusterError, match="subscription to 's'"):
            sub.take(1, timeout=5)
        assert sub.failovers == 3
        assert sub.reroutes == 0
        sub.close()


def test_stopping_early_unsubscribes_on_a_shared_pool(base_dir):
    """``take`` closes the batch generator mid-feed; the subscription
    must end on the node, not only when the pool's connection does."""
    with Cluster(num_shards=1, base_dir=base_dir, config=CONFIG) as cluster:
        client = cluster.client()
        client.create_stream("s", SCHEMA)
        client.append_batch("s", make_events(0, 100))
        client.close()
        node = cluster.node_at(cluster.shard_map.shards[0].primary)
        pool = ClientPool()
        try:
            sub = ClusterSubscriber(
                "s", cluster=cluster, pool=pool, from_t=0, batch=8
            )
            assert [e.t for e in sub.take(5, timeout=10)] == list(range(5))
            sub.close()
            assert node.server.hub._subs == {}
        finally:
            pool.close()
