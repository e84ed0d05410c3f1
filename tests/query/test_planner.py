"""The cost-based planner: plan choice, EXPLAIN, counters, lazy decoding."""

import pytest

from repro import ChronicleConfig, ChronicleDB, Event, EventSchema, obs
from repro.query.parser import parse
from repro.query.plan import COLUMNAR, INDEX_ONLY
from repro.query.planner import build_plan, run_plan

SCHEMA = EventSchema.of("temp", "load")


def make_db(**overrides):
    config = ChronicleConfig(
        lblock_size=512, macro_size=2048, **overrides
    )
    database = ChronicleDB(config=config)
    stream = database.create_stream("sensors", SCHEMA)
    # `load` grows with time, so leaves are prunable on it.
    stream.append_batch(
        [
            Event.of(i, 10.0 + (i % 7), float(i // 100))
            for i in range(1000)
        ]
    )
    return database


@pytest.fixture
def db():
    return make_db()


def _cold(stream):
    for split in stream.splits:
        split.tree.buffer._frames.clear()
        split.layout._macro_cache.clear()
        split.layout.tlb._leaf_cache.clear()


# ------------------------------------------------------------- plan choice


def test_unfiltered_aggregates_plan_index_only(db):
    plan = db.explain("SELECT sum(temp), max(load) FROM sensors")
    assert plan["plan"] == INDEX_ONLY
    assert plan["estimated_rows"] == 1000


def test_grouped_unfiltered_plans_index_only(db):
    plan = db.explain("SELECT avg(temp) FROM sensors GROUP BY time(100)")
    assert plan["plan"] == INDEX_ONLY


def test_filtered_aggregates_plan_columnar(db):
    plan = db.explain("SELECT sum(temp) FROM sensors WHERE load >= 3")
    assert plan["plan"] == COLUMNAR


def test_select_star_plans_columnar_in_time_order(db):
    plan = db.explain("SELECT * FROM sensors")
    assert plan["plan"] == COLUMNAR
    assert "time order" in plan["reason"]


def test_pending_ooo_events_are_spliced_into_the_columnar_scan():
    db = make_db(queue_capacity=64)
    stream = db.get_stream("sensors")
    late = Event.of(500, 99.0, 99.0)
    stream.append(late)  # queued: 500 < high water
    assert stream.splits[0].manager.pending == 1
    plan = db.explain("SELECT * FROM sensors")
    assert plan["plan"] == COLUMNAR
    assert "queued late events spliced in" in plan["reason"]
    got = db.execute("SELECT * FROM sensors WHERE t BETWEEN 499 AND 501")
    assert [e.t for e in got] == [499, 500, 500, 501]
    assert got[2] == late  # tree row first on equal t, as time_travel
    # Index statistics add the queued values, so aggregates over a
    # queued late event stay index-only.
    assert db.explain("SELECT sum(temp) FROM sensors")["plan"] == INDEX_ONLY
    stream.flush()
    assert db.explain("SELECT * FROM sensors")["plan"] == COLUMNAR


def test_unindexed_attribute_blocks_index_only():
    db = make_db(indexed_attributes=["temp"])
    plan = db.explain("SELECT sum(load) FROM sensors")
    assert plan["plan"] == COLUMNAR
    assert "'load' is not indexed" in plan["reason"]
    assert "scanned in time order" in plan["reason"]


def test_stdev_needs_extended_aggregates():
    plan = make_db().explain("SELECT stdev(temp) FROM sensors")
    assert plan["plan"] == COLUMNAR
    assert "stdev needs extended aggregates" in plan["reason"]
    db = make_db(extended_aggregates=True)
    assert db.explain("SELECT stdev(temp) FROM sensors")["plan"] == INDEX_ONLY


def test_explain_lists_tier_segments(db):
    plan = db.explain("SELECT * FROM sensors")
    tiers = {segment["tier"] for segment in plan["segments"]}
    assert tiers == {"hot"}
    assert sum(segment["events"] for segment in plan["segments"]) == 1000


def test_explain_estimates_costs_under_cost_model():
    from repro.simdisk.cost import CpuCostModel

    db = make_db()
    db.devices.clock.cost_model = CpuCostModel()
    plan = db.explain("SELECT * FROM sensors WHERE temp >= 12")
    assert plan["estimated_cost"].keys() == {"columnar"}
    assert plan["estimated_cost"]["columnar"] > 0
    plan = db.explain("SELECT sum(temp) FROM sensors")
    assert plan["estimated_cost"].keys() == {"columnar", "index_only"}
    assert plan["estimated_cost"]["index_only"] < plan["estimated_cost"]["columnar"]


def test_explain_does_not_execute(db):
    obs.reset()
    obs.enable()
    try:
        db.explain("SELECT * FROM sensors")
        counters = obs.snapshot()["counters"]
        assert counters.get("planner.plans_columnar", 0) == 0
    finally:
        obs.disable()


# --------------------------------------------------- execution + counters


def test_planner_counters(db):
    obs.reset()
    obs.enable()
    try:
        db.execute("SELECT sum(temp) FROM sensors")
        db.execute("SELECT * FROM sensors WHERE temp >= 12")
        counters = obs.snapshot()["counters"]
        assert counters["planner.plans_index_only"] == 1
        assert counters["planner.plans_columnar"] == 1
        assert counters["planner.leaves_scanned"] > 0
        assert counters["planner.rows_materialized"] > 0
    finally:
        obs.disable()


def test_columnar_prunes_leaves_via_index_aggregates(db):
    stream = db.get_stream("sensors")
    query = parse("SELECT * FROM sensors WHERE load >= 8")
    plan = build_plan(stream, query)
    assert plan.kind == COLUMNAR
    result = run_plan(stream, plan)
    assert result == [e for e in stream.scan() if e.values[1] >= 8]
    # `load` is time-correlated, so Algorithm-2 pruning skips the early
    # leaves without reading them.
    assert plan.executed["leaves_skipped"] > 0
    assert plan.executed["leaves_scanned"] > 0


def test_lazy_leaf_view_decodes_only_needed_columns(db):
    stream = db.get_stream("sensors")
    _cold(stream)
    query = parse("SELECT sum(load) FROM sensors WHERE load <= 1")
    plan = build_plan(stream, query)
    result = run_plan(stream, plan)
    assert result == {"sum(load)": sum(float(i // 100) for i in range(200))}
    decoded = plan.executed["values_decoded"]
    assert decoded > 0
    # Only the `load` column of the touched leaves is ever decoded; a
    # full decode would have paid for both attributes of every leaf.
    full_decode = 2 * 1000
    assert decoded < full_decode / 2


def test_select_star_limit_stops_early(db):
    stream = db.get_stream("sensors")
    query = parse("SELECT * FROM sensors LIMIT 5")
    plan = build_plan(stream, query)
    result = run_plan(stream, plan)
    assert [e.t for e in result] == [0, 1, 2, 3, 4]
    assert plan.executed["rows_materialized"] == 5
    assert plan.executed["leaves_scanned"] < 1000 / 8  # stopped early
