"""``SELECT *`` over the binary wire: one columnar ``OP_OK_BATCH`` frame.

The reply reuses the catch-up/subscription batch payload, so what has to
be proven is equivalence: for every result shape the client's ``query``
returns exactly the ``list[Event]`` the embedded ``db.execute`` does —
empty results, ``LIMIT``, results that splice in the out-of-order
queue, warm-tier segments, ownership-filtered streams after a shard
split — and scatter-gather through pooled binary clients still merges
plain events.
"""

import socket
from array import array

import pytest

from repro import ChronicleConfig, ChronicleDB, Event, EventSchema
from repro.cluster import Cluster, TimeWindowPlacement
from repro.lifecycle import LifecyclePolicy
from repro.net import BinaryChronicleClient, ChronicleServer
from repro.net import frames
from repro.query.plan import COLUMNAR

SCHEMA = EventSchema.of("temp", "load")
CONFIG = ChronicleConfig(lblock_size=512, macro_size=2048, queue_capacity=64)


def make_events(t_lo, t_hi):
    return [Event.of(t, 10.0 + t % 7, float(t // 50)) for t in range(t_lo, t_hi)]


def wire_query(host, port, sql):
    with BinaryChronicleClient(host, port) as client:
        return client.query(sql)


@pytest.fixture
def server():
    db = ChronicleDB(config=CONFIG)
    db.create_stream("s", SCHEMA).append_batch(make_events(0, 600))
    with ChronicleServer(db) as srv:
        yield srv


def test_select_reply_frame_is_a_columnar_batch(server):
    request = frames.encode_json_payload(
        {"op": "query", "sql": "SELECT * FROM s WHERE t BETWEEN 100 AND 199"}
    )
    with socket.create_connection((server.host, server.port)) as sock:
        reader = sock.makefile("rb")
        sock.sendall(frames.encode_frame(frames.OP_JSON, 3, request))
        op, corr_id, length = frames.decode_header(
            reader.read(frames.HEADER_SIZE)
        )
        payload = reader.read(length)
    assert (op, corr_id) == (frames.OP_OK_BATCH, 3)
    stream, schema, timestamps, columns = frames.decode_batch_payload(payload)
    assert (stream, schema) == ("s", SCHEMA)
    assert isinstance(timestamps, array) and timestamps.typecode == "q"
    assert all(isinstance(c, array) and c.typecode == "d" for c in columns)
    assert timestamps.tolist() == list(range(100, 200))
    assert columns[1].tolist() == [float(t // 50) for t in range(100, 200)]
    # 8 bytes per value, nothing per row beyond the columns.
    assert length - 100 * 8 * 3 < 120


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT * FROM s",
        "SELECT * FROM s WHERE t BETWEEN 5000 AND 6000",  # empty
        "SELECT * FROM s WHERE t BETWEEN 40 AND 400 LIMIT 7",
        "SELECT * FROM s WHERE load >= 8",
        "SELECT * FROM s WHERE t >= 100 AND temp > 14 LIMIT 20",
    ],
    ids=["all", "empty-window", "window-limit", "load-filter", "time-and-temp-limit"],
)
def test_batch_reply_equals_embedded_execute(server, sql):
    got = wire_query(server.host, server.port, sql)
    assert got == server.db.execute(sql)
    assert all(isinstance(event, Event) for event in got)


def test_batch_reply_reads_the_out_of_order_queue(server):
    stream = server.db.get_stream("s")
    stream.append(Event.of(300, 99.0, 99.0))  # late: parked in the queue
    assert stream.splits[0].manager.pending == 1
    plan = server.db.explain("SELECT * FROM s")
    assert plan["plan"] == COLUMNAR
    assert "queued late events spliced in" in plan["reason"]
    got = wire_query(server.host, server.port, "SELECT * FROM s")
    assert got == server.db.execute("SELECT * FROM s")
    assert len(got) == 601
    assert Event.of(300, 99.0, 99.0) in got


def test_warm_tier_segment_over_the_wire():
    config = ChronicleConfig(
        lblock_size=256, macro_size=512, lblock_spare=0.2,
        time_split_interval=100,
        lifecycle=LifecyclePolicy(hot_to_warm_after=150, warm_macro_factor=4),
    )
    db = ChronicleDB(config=config)
    stream = db.create_stream("s", SCHEMA)
    stream.append_batch(make_events(0, 460))
    assert db.lifecycle_tick("s")["s"]["warm"]
    assert stream.tiers.warm
    with ChronicleServer(db) as srv:
        for sql in (
            "SELECT * FROM s",
            "SELECT * FROM s WHERE t BETWEEN 50 AND 350",
            "SELECT * FROM s WHERE load >= 1 LIMIT 30",
        ):
            assert wire_query(srv.host, srv.port, sql) == db.execute(sql)
        got = wire_query(srv.host, srv.port, "SELECT * FROM s")
        assert [e.t for e in got] == list(range(460))


def test_ownership_filtered_select_after_a_shard_split():
    with Cluster(
        num_shards=2, policy=TimeWindowPlacement(100), config=CONFIG
    ) as cluster:
        client = cluster.client()
        try:
            client.create_stream("s", SCHEMA)
            client.append_batch("s", make_events(0, 400))
            record = cluster.split_shard(0, t_split=200)
            assert record["status"] == "done"
            # The source keeps a dead copy of the moved window; the
            # reply must filter it on the timestamp column.
            source = cluster.shard_map.shards[0].primary
            got = wire_query(source.host, source.port, "SELECT * FROM s")
            assert got == make_events(0, 100)
            limited = wire_query(
                source.host, source.port,
                "SELECT * FROM s WHERE load >= 1 LIMIT 10",
            )
            assert limited == make_events(50, 60)
        finally:
            client.close()


def test_limit_counts_owned_rows_not_scanned_rows(server):
    # A node whose dead copies sort ahead of its owned rows: LIMIT must
    # cut the owned rows, not the scan (which then filtered down to 0).
    server._owned = lambda stream, t_start, t_end: [(50, t_end)]
    got = wire_query(server.host, server.port, "SELECT * FROM s LIMIT 10")
    assert got == make_events(50, 60)


def test_cluster_scatter_gather_select_through_binary_pool():
    with Cluster(
        num_shards=3, policy=TimeWindowPlacement(100), config=CONFIG
    ) as cluster:
        client = cluster.client()
        try:
            client.create_stream("s", SCHEMA)
            acked = make_events(0, 900)
            client.append_batch("s", acked)
            assert client.query("SELECT * FROM s") == acked
            assert client.query(
                "SELECT * FROM s WHERE t BETWEEN 250 AND 649 LIMIT 120"
            ) == acked[250:370]
            filtered = client.query("SELECT * FROM s WHERE load >= 9")
            assert filtered == [e for e in acked if e.values[1] >= 9]
            assert all(isinstance(event, Event) for event in filtered)
        finally:
            client.close()
