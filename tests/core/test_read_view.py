"""One read view: every query sees every acknowledged event.

A stream's reads all walk the same splits (`EventStream._splits`): the
warm and hot splits whose *held* data overlaps the range, each read as
its tree plus the part of its late queue in range.  The model here is
the plain list of appended events.  Whatever a workload leaves behind —
late events still queued, a straggler older than every split, a late
event in a gap between splits, an attribute the index statistics do
not cover, a split with or without a secondary index — every read
class must return what the list says, through the planner
(`db.execute`) and through the row-at-a-time oracle (`execute_naive`).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chronicle import ChronicleDB
from repro.core.config import ChronicleConfig
from repro.errors import QueryError, StorageError
from repro.events import Event, EventSchema
from repro.lifecycle import LifecyclePolicy, TierLog, migrate_split_to_warm
from repro.testing.oracle import execute_naive

SCHEMA = EventSchema.of("x", "y")
INTERVAL = 100


def make_db(secondary=False, **overrides):
    config = dict(
        lblock_size=512,
        macro_size=2048,
        queue_capacity=64,
        indexed_attributes=["x"],
        secondary_indexes={"y": "lsm"} if secondary else {},
    )
    config.update(overrides)
    db = ChronicleDB(config=ChronicleConfig(**config))
    return db, db.create_stream("s", SCHEMA)


def both(db, sql):
    """``(planner, oracle)`` results of *sql*; a `QueryError` is a result."""
    out = []
    for run in (db.execute, lambda q: execute_naive(db, q)):
        try:
            out.append(run(sql))
        except QueryError:
            out.append(QueryError)
    return out


def rows(events):
    return [(e.t, e.values) for e in events]


def check_select(db, sql, want, limit):
    """*sql* returns *want* in time order, through both paths alike.

    Among equal timestamps storage order is arrival order, so the rows
    match the model's stable sort exactly; ``LIMIT`` keeps a prefix of
    the unlimited result.
    """
    full = both(db, sql)
    assert full[0] == full[1]
    got = rows(full[0])
    assert got == want
    for limited in both(db, f"{sql} LIMIT {limit}"):
        assert limited == full[0][:limit]


# ------------------------------------------------------------------ model


class Model:
    """The appended events, in time order."""

    def __init__(self, appended):
        self.events = sorted(appended, key=lambda e: e.t)

    def select(self, lo, hi, where=lambda e: True):
        return [(e.t, e.values) for e in self.events
                if lo <= e.t <= hi and where(e)]

    def aggregate(self, function, position, lo, hi, where=lambda e: True):
        values = [e.values[position] for e in self.events
                  if lo <= e.t <= hi and where(e)]
        if not values:
            return QueryError
        return {
            "count": float(len(values)),
            "sum": sum(values),
            "min": min(values),
            "max": max(values),
        }[function]

    def grouped(self, selects, width, lo, hi):
        buckets = {}
        for e in self.events:
            if lo <= e.t <= hi:
                buckets.setdefault(e.t // width * width, []).append(e)
        out = []
        for start in sorted(buckets):
            row = {"t_start": start, "t_end": start + width}
            for function, name in selects:
                values = [e.values[SCHEMA.index_of(name)] for e in buckets[start]]
                row[f"{function}({name})"] = {
                    "count": float(len(values)),
                    "sum": sum(values),
                    "min": min(values),
                    "max": max(values),
                }[function]
            out.append(row)
        return out


# -------------------------------------------------------------- workloads


@st.composite
def workloads(draw):
    """In-order segments with gaps wider than a split, then late events:
    some flushed into trees, the rest left queued, stragglers below the
    first split and late events in the gaps among them."""
    timestamps = []
    t = 1_000
    for gap, length in draw(st.lists(
        st.tuples(st.sampled_from([0, 1, 150, 320]), st.integers(1, 120)),
        min_size=1, max_size=4,
    )):
        t += gap
        for step in draw(st.lists(st.integers(0, 3), min_size=length,
                                  max_size=length)):
            timestamps.append(t)
            t += step
    lo, hi = timestamps[0], timestamps[-1]
    late = draw(st.lists(st.integers(lo - 300, hi), min_size=1, max_size=60))
    late.append(lo - draw(st.integers(1, 400)))  # older than every split
    ys = draw(st.lists(st.integers(0, 6), min_size=len(timestamps) + len(late),
                       max_size=len(timestamps) + len(late)))
    events = [Event.of(t, float(i), float(y))
              for i, (t, y) in enumerate(zip(timestamps + late, ys))]
    return {
        "in_order": events[: len(timestamps)],
        "late": events[len(timestamps):],
        "late_batched": draw(st.booleans()),
        "secondary": draw(st.booleans()),
        "queue_capacity": draw(st.sampled_from([4, 16])),
        "ranges": draw(st.lists(
            st.tuples(st.integers(lo - 450, hi + 10), st.integers(0, 600)),
            min_size=2, max_size=4,
        )),
        "cut": draw(st.integers(0, 6)),
        "limit": draw(st.integers(1, 40)),
        "width": draw(st.sampled_from([50, 100, 250])),
    }


def load(work):
    db, stream = make_db(
        secondary=work["secondary"],
        queue_capacity=work["queue_capacity"],
        time_split_interval=INTERVAL,
    )
    stream.append_batch(work["in_order"])
    if work["late_batched"]:
        stream.append_batch(work["late"])
    else:
        for event in work["late"]:
            stream.append(event)
    return db, stream


def check_range(db, stream, model, lo, hi, cut, limit, width):
    between = f"t BETWEEN {lo} AND {hi}"

    def y_at_least(e):
        return e.values[1] >= cut

    def x_at_most(e):
        return e.values[0] <= cut * 20

    want = model.select(lo, hi)
    check_select(db, f"SELECT * FROM s WHERE {between}", want, limit)
    plan = db.explain(f"SELECT * FROM s WHERE {between}")
    assert plan["estimated_rows"] >= len(want)
    for sql, where in (
        (f"SELECT * FROM s WHERE {between} AND y >= {cut}", y_at_least),
        (f"SELECT * FROM s WHERE {between} AND x <= {cut * 20}", x_at_most),
    ):
        check_select(db, sql, model.select(lo, hi, where), limit)

    for name, position in (("x", 0), ("y", 1)):
        for function in ("count", "sum", "min", "max"):
            label = f"{function}({name})"
            want = model.aggregate(function, position, lo, hi)
            for got in both(db, f"SELECT {label} FROM s WHERE {between}"):
                if want is QueryError:
                    assert got is QueryError
                else:
                    assert got == {label: pytest.approx(want)}
        want = model.aggregate("sum", position, lo, hi, y_at_least)
        sql = f"SELECT sum({name}) FROM s WHERE {between} AND y >= {cut}"
        for got in both(db, sql):
            if want is QueryError:
                assert got is QueryError
            else:
                assert got == {f"sum({name})": pytest.approx(want)}

    selects = [("count", "x"), ("sum", "x"), ("sum", "y"), ("max", "y")]
    labels = ", ".join(f"{f}({n})" for f, n in selects)
    want = model.grouped(selects, width, lo, hi)
    sql = f"SELECT {labels} FROM s WHERE {between} GROUP BY time({width})"
    for got in both(db, sql):
        assert got == [pytest.approx(row) for row in want]

    want = sorted(model.select(lo, hi, lambda e: e.values[1] == cut))
    assert sorted(rows(stream.search("y", float(cut), t_start=lo,
                                     t_end=hi))) == want


@settings(max_examples=100, deadline=None)
@given(workloads())
def test_every_read_sees_every_appended_event(work):
    db, stream = load(work)
    model = Model(work["in_order"] + work["late"])
    everything = model.select(-(2**62), 2**62)
    check_select(db, "SELECT * FROM s", everything, work["limit"])
    assert rows(stream.scan()) == rows(db.execute("SELECT * FROM s"))
    for lo, span in work["ranges"]:
        check_range(db, stream, model, lo, lo + span, work["cut"],
                    work["limit"], work["width"])
    check_range(db, stream, model, -(2**40), 2**40, work["cut"],
                work["limit"], work["width"])
    want = sorted(model.select(-(2**62), 2**62,
                               lambda e: 1 <= e.values[1] <= 3))
    assert sorted(rows(stream.search("y", 1.0, 3.0))) == want
    db.close()


# ---------------------------------------------------- named regressions


def queued_late_event(secondary=False):
    """1 000 in-order events plus one late event at t=101, still queued."""
    db, stream = make_db(secondary=secondary)
    stream.append_batch([Event.of(t, 0.5, 0.5) for t in range(1000)])
    stream.append(Event.of(101, 5.0, 5.0))
    assert stream.splits[0].manager.pending == 1
    return db, stream


def test_count_of_an_indexed_attribute_sees_the_queued_event():
    db, _ = queued_late_event()
    for name in ("x", "y"):
        for got in both(db, f"SELECT count({name}) FROM s"):
            assert got == {f"count({name})": 1001.0}
    assert db.explain("SELECT count(x) FROM s")["plan"] == "index_only"


def test_grouped_sums_agree_across_indexed_and_scanned_attributes():
    db, _ = queued_late_event()
    for name in ("x", "y"):
        sql = f"SELECT sum({name}) FROM s GROUP BY time(1000)"
        for got in both(db, sql):
            assert got == [{"t_start": 0, "t_end": 1000, f"sum({name})": 505.0}]


def test_filtered_select_sees_the_queued_event():
    db, _ = queued_late_event()
    for sql in ("SELECT * FROM s WHERE t BETWEEN 100 AND 102 AND y >= 0",
                "SELECT * FROM s WHERE t BETWEEN 100 AND 102"):
        for got in both(db, sql):
            assert [e.t for e in got] == [100, 101, 101, 102]


@pytest.mark.parametrize("secondary", [False, True], ids=["scan", "lsm"])
def test_search_finds_the_queued_event_with_or_without_a_secondary(secondary):
    _, stream = queued_late_event(secondary)
    assert ("y" in stream.splits[0].secondaries) == secondary
    assert stream.search("y", 5.0) == [Event.of(101, 5.0, 5.0)]


def straggler():
    """Splits [1000, 2000) and [2000, 3000), then t=500 arrives."""
    db, stream = make_db(time_split_interval=1000)
    stream.append_batch([Event.of(t, 1.0, 1.0) for t in range(1000, 2999)])
    stream.append(Event.of(500, 7.0, 7.0))
    assert stream.splits[0].t_start == 1000
    return db, stream


def test_straggler_below_the_first_split_is_read():
    db, _ = straggler()
    for got in both(db, "SELECT * FROM s WHERE t BETWEEN 0 AND 999"):
        assert got == [Event.of(500, 7.0, 7.0)]
    for got in both(db, "SELECT count(x) FROM s WHERE t BETWEEN 0 AND 999"):
        assert got == {"count(x)": 1.0}
    for got in both(db, "SELECT count(x) FROM s GROUP BY time(1000)"):
        assert got[0] == {"t_start": 0, "t_end": 1000, "count(x)": 1.0}


def test_late_event_in_a_gap_between_splits_is_read_in_time_order():
    """A late event no split covers goes to the split after it, so every
    split's held data stays between its neighbours'."""
    db, stream = make_db(time_split_interval=1000)
    stream.append_batch([Event.of(t, 1.0, 1.0) for t in range(1000, 1100)])
    stream.append_batch([Event.of(t, 1.0, 1.0) for t in range(5000, 5100)])
    stream.append_batch([Event.of(t, 1.0, 1.0) for t in range(7000, 7100)])
    stream.append(Event.of(6000, 9.0, 9.0))
    for got in both(db, "SELECT * FROM s WHERE t BETWEEN 5500 AND 6500"):
        assert got == [Event.of(6000, 9.0, 9.0)]
    timestamps = [e.t for e in db.execute("SELECT * FROM s")]
    assert timestamps == sorted(timestamps) and len(timestamps) == 301


def test_straggler_older_than_warm_history_is_refused():
    """With a warm split, a straggler below every hot split would sort
    ``splits[0]`` ahead of the warm history; it is refused like an event
    inside a tiered range, and nothing is appended."""
    db, stream = make_db(time_split_interval=100)
    stream.append_batch([Event.of(t, float(t), 1.0) for t in range(1000, 1260)])
    split = stream.splits[0]
    policy = LifecyclePolicy(hot_to_warm_after=150)
    log = TierLog(stream.devices.tier_log_device("s"))
    stream.tiers.warm[split.index] = migrate_split_to_warm(
        stream, split, log, policy
    )
    stream.splits.remove(split)
    before = rows(stream.scan())
    with pytest.raises(StorageError, match="tiered"):
        stream.append(Event.of(500, 7.0, 7.0))
    assert rows(stream.scan()) == before
    timestamps = [t for t, _ in before]
    assert timestamps == sorted(timestamps)
