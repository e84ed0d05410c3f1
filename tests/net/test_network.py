"""Tests for the network mode: server + client over real sockets."""

import pytest

from repro import ChronicleConfig, ChronicleDB, Event, EventSchema
from repro.net import BinaryChronicleClient, ChronicleServer
from repro.net.client import RemoteError

SCHEMA = EventSchema.of("temp", "load")


@pytest.fixture
def server():
    db = ChronicleDB(config=ChronicleConfig(lblock_size=512, macro_size=2048))
    with ChronicleServer(db) as srv:
        yield srv


@pytest.fixture
def client(server):
    with BinaryChronicleClient(server.host, server.port) as cli:
        yield cli


def test_ping(client):
    assert client.ping()


def test_create_append_query(client):
    client.create_stream("sensors", SCHEMA)
    for i in range(50):
        client.append("sensors", Event.of(i, 20.0 + i, float(i % 2)))
    rows = client.query("SELECT * FROM sensors WHERE t BETWEEN 10 AND 12")
    assert [e.t for e in rows] == [10, 11, 12]
    assert rows[0].values == (30.0, 0.0)


def test_batch_append(client):
    client.create_stream("s", SCHEMA)
    events = [Event.of(i, float(i), 0.0) for i in range(200)]
    assert client.append_batch("s", events) == 200
    out = client.query("SELECT count(temp) FROM s")
    assert out["count(temp)"] == 200


def test_aggregate_over_wire(client):
    client.create_stream("s", SCHEMA)
    client.append_batch("s", [Event.of(i, float(i), 1.0) for i in range(100)])
    out = client.query("SELECT avg(temp), max(temp) FROM s")
    assert out["avg(temp)"] == pytest.approx(49.5)
    assert out["max(temp)"] == 99.0


def test_list_streams(client):
    client.create_stream("a", SCHEMA)
    client.create_stream("b", SCHEMA)
    assert client.list_streams() == ["a", "b"]


def test_server_reports_errors(client):
    with pytest.raises(RemoteError):
        client.query("SELECT * FROM missing")
    with pytest.raises(RemoteError):
        client.query("NOT SQL AT ALL")
    # The connection survives errors.
    assert client.ping()


def test_multiple_clients(server):
    with BinaryChronicleClient(server.host, server.port) as first:
        first.create_stream("s", SCHEMA)
        first.append_batch("s", [Event.of(i, 1.0, 2.0) for i in range(10)])
    with BinaryChronicleClient(server.host, server.port) as second:
        rows = second.query("SELECT * FROM s")
        assert len(rows) == 10


def test_group_by_over_wire(client):
    client.create_stream("g", SCHEMA)
    client.append_batch(
        "g", [Event.of(i, float(i % 5), 1.0) for i in range(400)]
    )
    rows = client.query("SELECT count(temp) FROM g GROUP BY time(100)")
    assert [row["t_start"] for row in rows] == [0, 100, 200, 300]
    assert all(row["count(temp)"] == 100 for row in rows)


def test_stats_round_trip(client):
    client.create_stream("s", SCHEMA)
    client.append_batch("s", [Event.of(i, float(i), 0.0) for i in range(120)])
    stats = client.stats()
    assert set(stats) >= {"streams", "devices", "clock"}
    stream_stats = stats["streams"]["s"]
    assert stream_stats["appended"] == 120
    assert (
        stream_stats["events_indexed"] + stream_stats["ooo_pending"] == 120
    )
    # Device stats cover the simulated disks backing the store.
    assert all("bytes_written" in dev for dev in stats["devices"].values())


def test_stats_for_single_stream(client):
    client.create_stream("a", SCHEMA)
    client.create_stream("b", SCHEMA)
    client.append_batch("a", [Event.of(i, 1.0, 2.0) for i in range(30)])
    stats = client.stats("a")
    assert stats["appended"] == 30
    assert stats["split_count"] >= 1
    with pytest.raises(RemoteError):
        client.stats("missing")


def test_stats_includes_obs_snapshot_when_enabled(client):
    from repro import obs

    obs.reset()
    obs.enable()
    try:
        client.create_stream("s", SCHEMA)
        client.append_batch(
            "s", [Event.of(i, float(i), 0.0) for i in range(400)]
        )
        stats = client.stats()
        counters = stats["obs"]["counters"]
        assert counters["storage.lblock_writes"] > 0
    finally:
        obs.disable()
        obs.reset()
    assert client.stats().get("obs") == {}


def test_batch_append_out_of_order_over_wire(client, server):
    """The append_batch op feeds the server-side vectorized path; late
    events must still land in timestamp order."""
    client.create_stream("ooo", SCHEMA)
    events = [Event.of(t, float(t), 0.0) for t in (5, 1, 9, 3, 9, 0, 7)]
    assert client.append_batch("ooo", events) == len(events)
    stream = server.db.get_stream("ooo")
    assert stream.appended == len(events)
    rows = client.query("SELECT * FROM ooo WHERE t BETWEEN 0 AND 100")
    assert [e.t for e in rows] == sorted(e.t for e in events)
