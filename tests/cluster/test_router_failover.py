"""The router's failover path for a pipelined append.

A batch submitted to a primary that has died fails on its cached
connection; the router re-sends it once through the pool and the
failover step, the promotion's epoch bump turns that re-send into one
stale-route rejection, and the next routing round lands the batch on
the new primary exactly once.
"""

from repro import ChronicleConfig, Event, EventSchema
from repro.cluster import Cluster
from repro.core.devices import RetryPolicy

SCHEMA = EventSchema.of("v")
CONFIG = ChronicleConfig(lblock_size=512, macro_size=2048)


def events(t0, t1):
    return [Event.of(t, float(t)) for t in range(t0, t1)]


def test_append_to_a_dead_primary_fails_over_and_lands_once():
    with Cluster(num_shards=1, replication_factor=1, config=CONFIG) as cluster:
        client = cluster.client(
            retry=RetryPolicy(max_attempts=2, backoff_seconds=0.0)
        )
        client.create_stream("s", SCHEMA)
        assert client.append_batch("s", events(0, 10)) == 10
        old = cluster.shard_map.shards[0].primary
        cluster.node_at(old).kill()

        assert client.append_batch("s", events(10, 20)) == 10

        assert cluster.shard_map.shards[0].primary != old
        assert cluster.counters["failovers"] == 1
        assert client.pool.retries == 1  # the dead primary, tried twice
        router = client.stats()["router"]
        assert router["stale_retries"] == 1
        # Each routing round counts what it routed: the first append,
        # then the second batch once per round.
        assert router["forwarded_batches"] == 3
        assert router["forwarded_events"] == 30
        assert client.query("SELECT count(v) FROM s")["count(v)"] == 20
        rows = client.query("SELECT * FROM s")
        assert [e.t for e in rows] == list(range(20))
        client.close()
