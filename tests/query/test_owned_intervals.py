"""Ownership is a list of time intervals, and each runs today's plans.

A node that a split left with dead copies answers its owned slices the
way a router answers shards.  Count-based and bit-exact (no wall clock):

* one owned interval is exactly the query cut to it — the same plan as
  ``WHERE t BETWEEN lo AND hi``, bit for bit on random floats;
* an aggregate on a split's source stays on the index: at most two
  leaves per interval edge, where a per-row ownership filter scans
  every leaf;
* owning every time changes nothing, cold rollups included — a
  filtered read would see the raw tiers only;
* a window stripe's intervals are clipped to what the stream stores in
  any tier, cold rollups included, so an unbounded query asks for
  finitely many.
"""

import math
import random

import pytest

from repro import ChronicleConfig, ChronicleDB, Event, EventSchema
from repro.cluster import Cluster, TimeWindowPlacement
from repro.cluster.placement import (
    Endpoint,
    RangeAssignment,
    ShardMap,
    ShardSpec,
)
from repro.errors import QueryError
from repro.lifecycle import TierLog
from repro.net import BinaryChronicleClient, ChronicleServer
from repro.query import planner
from repro.query.plan import INDEX_ONLY
from tests.lifecycle.test_cold_rollups import (
    CONFIG as COLD_CONFIG,
    SCHEMA as COLD_SCHEMA,
    _rollup_first,
    _stream,
)

SCHEMA = EventSchema.of("a", "b")
CONFIG = ChronicleConfig(lblock_size=512, macro_size=2048, queue_capacity=64)
_HUGE = 2**62


class _Db:
    """``execute`` only asks a database for the stream."""

    def __init__(self, stream):
        self._stream = stream

    def get_stream(self, name):
        return self._stream


def _random_events(n, seed=7):
    rng = random.Random(seed)
    return [
        Event.of(t, rng.uniform(-1e3, 1e3), rng.random() * 1e-3)
        for t in range(n)
    ]


@pytest.fixture
def plans(monkeypatch):
    """The plans run, in order."""
    seen = []
    run_plan = planner.run_plan

    def recording(stream, plan, *args, **kwargs):
        seen.append(plan)
        return run_plan(stream, plan, *args, **kwargs)

    monkeypatch.setattr(planner, "run_plan", recording)
    yield seen


@pytest.mark.parametrize("select", [
    "sum(a), count(a), max(b)",
    "avg(a), min(b), stdev(a)",
    "sum(b), avg(a) GROUP_BY",
])
@pytest.mark.parametrize("lo, hi", [(0, 2999), (17, 2222), (1500, 1500)])
def test_one_owned_interval_is_the_query_cut_to_it(select, lo, hi):
    db = ChronicleDB(config=CONFIG)
    stream = db.create_stream("s", SCHEMA)
    stream.append_batch(_random_events(3000))
    stream.append(Event.of(1234, 0.125, 0.5))  # queued late event
    grouped = select.endswith(" GROUP_BY")
    select = select.removesuffix(" GROUP_BY")
    tail = " GROUP BY time(250)" if grouped else ""
    owned = planner.execute(db, f"SELECT {select} FROM s{tail}",
                            owned=[(lo, hi)])
    cut = planner.execute(
        db, f"SELECT {select} FROM s WHERE t BETWEEN {lo} AND {hi}{tail}"
    )
    # ``repr`` round-trips a float exactly: equal text, equal bits.
    assert repr(owned) == repr(cut)


def test_an_aggregate_on_a_split_source_reads_two_leaves_per_edge(plans):
    with Cluster(
        num_shards=2, policy=TimeWindowPlacement(100), config=CONFIG
    ) as cluster:
        client = cluster.client()
        try:
            client.create_stream("s", SCHEMA)
            events = _random_events(2000)
            client.append_batch("s", events)
            source = cluster.shard_map.shards[0].primary
            assert cluster.split_shard(0, t_split=1000)["status"] == "done"
            node = cluster.node_at(source)
            stream = node.db.get_stream("s")
            owned = list(node.server._owned("s", -_HUGE, _HUGE))
            # Shard 0 keeps the even windows below the split; it still
            # stores the moved ones as dead copies.
            assert owned == [(lo, lo + 99) for lo in range(0, 1000, 200)]
            every_leaf = sum(1 for _ in stream.leaf_slices(-_HUGE, _HUGE))
            sql = "SELECT sum(a), count(a) FROM s"
            plans.clear()
            with BinaryChronicleClient(source.host, source.port) as direct:
                local = direct.query(sql)
            assert len(plans) == len(owned)
            assert all(plan.kind == INDEX_ONLY for plan in plans)
            edges = 2 * len(owned)
            scanned = sum(plan.executed["leaves_scanned"] for plan in plans)
            assert scanned <= 2 * edges < every_leaf
            mine = [e.values[0] for e in events if e.t < 1000 and e.t % 200 < 100]
            assert local["count(a)"] == len(mine) == 500
            assert math.isclose(local["sum(a)"], sum(mine), rel_tol=1e-9)
            # The cluster still answers as one node over every event.
            got = client.query(sql)
            assert got["count(a)"] == 2000
            assert math.isclose(got["sum(a)"],
                                sum(e.values[0] for e in events), rel_tol=1e-9)
        finally:
            client.close()


def test_owning_every_time_reads_the_cold_tier_too():
    stream, log = _stream(300)
    _rollup_first(stream, log)
    db = _Db(stream)
    everything = [(-_HUGE, _HUGE)]
    sql = "SELECT sum(x), count(x) FROM s"
    want = {"sum(x)": float(sum(range(300))), "count(x)": 300.0}
    assert planner.execute(db, sql) == want
    assert planner.execute(db, sql, owned=everything) == want
    assert planner.execute(db, sql, owned=everything, components=True) == (
        planner.execute(db, sql, components=True)
    )
    # Two slices that meet on a rollup bucket edge answer the same.
    assert planner.execute(db, sql, owned=[(0, 49), (50, _HUGE)]) == want
    # The raw values of the cold range are gone: refused either way.
    for owned in (None, everything):
        with pytest.raises(QueryError, match="cold"):
            planner.execute(db, "SELECT stdev(x) FROM s", owned=owned)


def test_stripe_intervals_are_clipped_to_every_stored_tier():
    db = ChronicleDB(config=COLD_CONFIG)
    stream = db.create_stream("s", COLD_SCHEMA)
    for i in range(300):
        stream.append(Event.of(i, float(i), float(i % 7)))
    _rollup_first(stream, TierLog(db.devices.tier_log_device("s")))
    assert stream.time_bounds() == (100, 299)
    assert stream.time_bounds(tiered=True) == (0, 299)
    shard_map = ShardMap(
        shards=[ShardSpec(i, Endpoint("localhost", 1 + i)) for i in range(3)],
        policy=TimeWindowPlacement(25),
    )
    shard_map.apply_assignment(
        RangeAssignment(shard_id=2, source=0, stream="s", t_lo=200)
    )
    with ChronicleServer(db) as server:
        server._route_map, server._self_shard = shard_map, 0
        owned = list(server._owned("s", -_HUGE, _HUGE))
        assert owned == [(0, 24), (75, 99), (150, 174)]
        # The cold range [0, 100) answers from its rollup rows.
        got = planner.execute(db, "SELECT count(x) FROM s", owned=owned)
        assert got == {"count(x)": 75.0}
