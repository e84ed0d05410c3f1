"""Every way a query reaches a node runs a planner plan.

Count-based (no wall clock): embedded ``execute``, a wire ``partials``
request and a finals request on a split-affected stream are the same
plans, so the ``planner.*`` counters and ``Plan.executed`` say which
access path served each — a shard's filtered components and an
ownership-filtered aggregate fold columns without materializing a row,
a queued late event is one more leaf of the columnar ``SELECT *``, and
an aggregate the index cannot answer scans its one column.
"""

import pytest

from repro import ChronicleConfig, ChronicleDB, Event, EventSchema, obs
from repro.cluster import Cluster, TimeWindowPlacement
from repro.net import BinaryChronicleClient, ChronicleServer
from repro.query import planner
from repro.query.parser import parse
from repro.query.partials import finalize_result
from repro.query.plan import COLUMNAR, INDEX_ONLY
from tests.query.test_planner import _cold

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
    # Same with a queued late event spliced in ahead of the LIMIT.
    late = Event.of(55, 99.0, 99.0)
    stream.append(late)
    assert stream.splits[0].manager.pending == 1
    assert planner.build_plan(stream, parse(sql), served).kind == COLUMNAR
    want = make_events(50, 56) + [late] + make_events(56, 59)
    assert planner.execute(db, sql, served=served) == want


def test_queued_late_event_is_a_leaf_of_the_columnar_select(plans):
    db = ChronicleDB(config=CONFIG)
    stream = db.create_stream("s", SCHEMA)
    stream.append_batch(make_events(0, 600))
    late = [Event.of(300, 99.0, 99.0), Event.of(300, 98.0, 98.0),
            Event.of(20, 97.0, 97.0)]
    for event in late:
        stream.append(event)
    assert stream.splits[0].manager.pending == 3
    sql = "SELECT * FROM s WHERE t BETWEEN 10 AND 400"
    got = db.execute(sql)
    assert counters()["planner.plans_columnar"] == 1
    assert counters().get("planner.plans_index_only", 0) == 0
    assert plans[-1].kind == COLUMNAR
    assert got == list(stream.time_travel(10, 400))
    # Tree row first on equal t, queued rows in arrival order.
    assert got[291:295] == make_events(300, 301) + late[:2] + make_events(301, 302)
    assert db.execute(sql + " LIMIT 13") == got[:13]
    assert got[10:12] == make_events(20, 21) + late[2:]

    def served(t):
        return t % 2 == 0

    owned = [e for e in got if served(e.t)]
    assert planner.execute(db, sql, served=served) == owned
    assert planner.execute(db, sql + " LIMIT 8", served=served) == owned[:8]


WIDE = EventSchema.of("a", "b", "c", "d", "e")


@pytest.mark.parametrize("schema", [EventSchema.of("a", "b"), WIDE])
@pytest.mark.parametrize(
    "select", ["avg(b)", "stdev(a)", "sum(a), stdev(a), max(b)"]
)
def test_aggregates_the_index_cannot_answer_scan_one_column(
    plans, schema, select
):
    """The former ``ROW`` corners — an unindexed attribute, ``stdev``
    without extended aggregates — decode the named column and nothing
    else, finals and components, grouped and ungrouped."""
    n = 600
    db = ChronicleDB(
        config=ChronicleConfig(
            lblock_size=512, macro_size=2048, indexed_attributes=["a"]
        )
    )
    stream = db.create_stream("s", schema)
    stream.append_batch(
        [
            Event.of(t, *(float((t * k) % 11) for k in range(1, schema.arity + 1)))
            for t in range(n)
        ]
    )
    stream.flush()
    scanned = {"avg(b)": 1, "stdev(a)": 1}.get(select, 2)
    for sql in (f"SELECT {select} FROM s",
                f"SELECT {select} FROM s GROUP BY time(100)"):
        query = parse(sql)
        for components in (False, True):
            obs.reset()
            _cold(stream)  # cached leaves would decode nothing
            result = planner.execute(db, query, components=components)
            plan = plans[-1]
            assert plan.kind == COLUMNAR
            assert counters()["planner.plans_columnar"] == 1
            assert counters().get("planner.rows_materialized", 0) == 0
            assert plan.executed.get("rows_materialized", 0) == 0
            # Timestamps plus the one column of each scanned attribute,
            # whatever the arity (the open leaf is not decoded at all).
            decoded = plan.executed["values_decoded"]
            assert 0 < decoded <= 2 * n * scanned
            assert counters()["planner.values_decoded"] == decoded
            if components:
                result = finalize_result(result, query)
            if select == "avg(b)":
                rows = result if isinstance(result, list) else [result]
                width = n // len(rows)
                for i, row in enumerate(rows):
                    values = [float((t * 2) % 11)
                              for t in range(i * width, (i + 1) * width)]
                    assert row["avg(b)"] == pytest.approx(
                        sum(values) / len(values), rel=1e-12
                    )
