"""Every way a query reaches a node runs a planner plan.

Count-based (no wall clock): embedded ``execute``, a wire ``partials``
request and a finals request on a split-affected stream are the same
plans, so the ``planner.*`` counters and ``Plan.executed`` say which
access path served each — a shard's filtered components and an
ownership-filtered aggregate fold columns without materializing a row.
"""

import pytest

from repro import ChronicleConfig, ChronicleDB, Event, EventSchema, obs
from repro.cluster import Cluster, TimeWindowPlacement
from repro.net import BinaryChronicleClient, ChronicleServer
from repro.query import planner
from repro.query.parser import parse
from repro.query.partials import finalize_result
from repro.query.plan import COLUMNAR, INDEX_ONLY, ROW

SCHEMA = EventSchema.of("temp", "load")
CONFIG = ChronicleConfig(lblock_size=512, macro_size=2048, queue_capacity=64)


def make_events(t_lo, t_hi):
    return [Event.of(t, 10.0 + t % 7, float(t // 50)) for t in range(t_lo, t_hi)]


@pytest.fixture
def plans(monkeypatch):
    """The plans run (by any thread of this process), in order, with
    the ``planner.*`` counters switched on."""
    seen = []
    run_plan = planner.run_plan

    def recording(stream, plan, *args, **kwargs):
        seen.append(plan)
        return run_plan(stream, plan, *args, **kwargs)

    monkeypatch.setattr(planner, "run_plan", recording)
    obs.reset()
    obs.enable()
    yield seen
    obs.disable()


def counters():
    return obs.snapshot()["counters"]


def test_wire_partials_run_the_plan_finals_would(plans):
    db = ChronicleDB(config=CONFIG)
    db.create_stream("s", SCHEMA).append_batch(make_events(0, 600))
    filtered = "SELECT avg(temp), count(temp) FROM s WHERE load >= 3"
    unfiltered = "SELECT avg(temp), count(temp) FROM s GROUP BY time(100)"
    with ChronicleServer(db) as server:
        with BinaryChronicleClient(server.host, server.port) as client:
            partial = client.call(
                {"op": "query", "sql": filtered, "partials": True}
            )["partials"]
            assert counters()["planner.plans_columnar"] == 1
            assert plans[-1].kind == COLUMNAR
            assert plans[-1].executed["leaves_scanned"] > 0
            assert plans[-1].executed.get("rows_materialized", 0) == 0
            assert finalize_result(partial, parse(filtered)) == db.execute(
                filtered
            )

            partial = client.call(
                {"op": "query", "sql": unfiltered, "partials": True}
            )["partials"]
            assert counters()["planner.plans_index_only"] == 1
            assert plans[-1].kind == INDEX_ONLY
            assert finalize_result(partial, parse(unfiltered)) == db.execute(
                unfiltered
            )
    assert counters().get("planner.rows_materialized", 0) == 0
    assert counters().get("planner.plans_row", 0) == 0


def test_finals_on_a_split_affected_stream_fold_owned_columns(plans):
    with Cluster(
        num_shards=2, policy=TimeWindowPlacement(100), config=CONFIG
    ) as cluster:
        client = cluster.client()
        try:
            client.create_stream("s", SCHEMA)
            client.append_batch("s", make_events(0, 400))
            assert cluster.split_shard(0, t_split=200)["status"] == "done"
            # The source still stores [200, 300): its index statistics
            # count events it no longer owns.
            source = cluster.shard_map.shards[0].primary
            sql = "SELECT sum(temp), count(temp) FROM s"
            obs.reset()
            plans.clear()
            with BinaryChronicleClient(source.host, source.port) as node:
                got = node.query(sql)
            owned = make_events(0, 100)
            assert got == {
                "sum(temp)": sum(e.values[0] for e in owned),
                "count(temp)": 100.0,
            }
            assert counters()["planner.plans_columnar"] == 1
            assert counters().get("planner.rows_materialized", 0) == 0
            (plan,) = plans
            assert plan.kind == COLUMNAR
            assert plan.executed.get("rows_materialized", 0) == 0
            assert "ownership" in plan.explain()["reason"]
        finally:
            client.close()


def test_limit_counts_owned_rows():
    db = ChronicleDB(config=CONFIG)
    stream = db.create_stream("s", SCHEMA)
    stream.append_batch(make_events(0, 600))
    sql = "SELECT * FROM s LIMIT 10"

    def served(t):
        return t >= 50

    assert planner.build_plan(stream, parse(sql), served).kind == COLUMNAR
    assert planner.execute(db, sql, served=served) == make_events(50, 60)
    # Same through the row plan, which merges the out-of-order queue.
    late = Event.of(55, 99.0, 99.0)
    stream.append(late)
    assert planner.build_plan(stream, parse(sql), served).kind == ROW
    want = make_events(50, 56) + [late] + make_events(56, 59)
    assert planner.execute(db, sql, served=served) == want
