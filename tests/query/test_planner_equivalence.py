"""Property suite: every planner-chosen plan matches the naive oracle.

For arbitrary schemas, workloads (including out-of-order arrivals),
configurations and queries, ``run_plan(build_plan(...))`` must return
exactly what the row-at-a-time oracle in :mod:`repro.testing.oracle`
returns — same events in the same order, same aggregate values, same
grouped rows, and a :class:`QueryError` whenever the oracle raises one.

Values are float-encoded integers, so sums (and therefore avg/stdev
inputs) are exact and results compare with ``==`` — except where the
index-only path legitimately re-associates additions across split
summaries, which stays exact on integers anyway.  Tiered streams get
their own scenario below.

The same strategies then pin the planner's two call arguments: a plan
run in *components* mode finalizes to exactly its finals, owning every
time changes nothing, and any other *owned* interval list answers as
the oracle does over the owned events alone.  The cluster
path on top of that is covered by ``tests/cluster``.
"""

import pytest

from hypothesis import given, settings, strategies as st

from repro.core.config import ChronicleConfig
from repro.core.devices import DeviceProvider
from repro.core.stream import EventStream
from repro.errors import QueryError
from repro.events import Event, EventSchema
from repro.index.queries import fold
from repro.lifecycle import LifecycleManager, LifecyclePolicy
from repro.query.ast import SelectStar
from repro.query.parser import parse
from repro.query.partials import finalize_result
from repro.query.plan import COLUMNAR, INDEX_ONLY
from repro.query.planner import build_plan, execute, run_plan
from repro.testing import oracle

ATTRS = ("a", "b", "c")

CONFIGS = [
    {},
    {"extended_aggregates": True},
    {"indexed_attributes": ["a"]},
    {"queue_capacity": 4, "time_split_interval": 64},
    {"extended_aggregates": True, "time_split_interval": 32},
]


def _config(arity: int, overrides: dict) -> ChronicleConfig:
    overrides = dict(overrides)
    if "indexed_attributes" in overrides:
        overrides["indexed_attributes"] = overrides["indexed_attributes"][
            :arity
        ]
    return ChronicleConfig(lblock_size=512, macro_size=2048, **overrides)


workloads = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),    # time step
        st.integers(min_value=0, max_value=12),   # lateness
        st.integers(min_value=-9, max_value=9),   # value seed
    ),
    min_size=20,
    max_size=150,
)


def _build(rows, arity, overrides, flush):
    schema = EventSchema.of(*ATTRS[:arity])
    stream = EventStream(
        "s", schema, _config(arity, overrides), DeviceProvider()
    )
    now = 0
    for position, (step, late, value) in enumerate(rows):
        now += step
        t = max(0, now - late)
        stream.append(
            Event.of(
                t,
                *(
                    float(value + k * position % 11 - 5)
                    for k in range(1, arity + 1)
                ),
            )
        )
    if flush:
        stream.flush()
    return stream


def _run(runner, stream, query):
    try:
        return runner(stream, query)
    except QueryError:
        return "QueryError"


def _check(stream, sql, plans_seen=None):
    query = parse(sql)
    want = _run(oracle.run_naive, stream, query)
    plan = build_plan(stream, query)
    assert plan.kind in (INDEX_ONLY, COLUMNAR)
    if plans_seen is not None:
        plans_seen.add(plan.kind)
    got = _run(lambda s, q: run_plan(s, plan), stream, query)
    assert got == want, (sql, plan.kind, plan.reason)


def _queries(top, attrs, data):
    lo = data.draw(st.integers(0, max(0, top)), label="t_lo")
    hi = data.draw(st.integers(lo, max(0, top)), label="t_hi")
    x = attrs[0]
    y = attrs[-1]
    threshold = data.draw(st.integers(-6, 6), label="threshold")
    width = data.draw(st.sampled_from([7, 16, 50]), label="width")
    time_clause = f"WHERE t BETWEEN {lo} AND {hi}"
    return [
        "SELECT * FROM s",
        f"SELECT * FROM s {time_clause}",
        f"SELECT * FROM s {time_clause} LIMIT 7",
        f"SELECT * FROM s WHERE {x} >= {threshold}",
        f"SELECT * FROM s {time_clause} AND {y} > {threshold}",
        f"SELECT sum({x}), count({x}), min({y}), max({x}), avg({y}) FROM s",
        f"SELECT sum({x}), avg({x}) FROM s {time_clause}",
        f"SELECT stdev({x}) FROM s {time_clause}",
        f"SELECT sum({y}), min({x}) FROM s WHERE {x} <= {threshold}",
        f"SELECT stdev({y}) FROM s {time_clause} AND {y} < {threshold}",
        f"SELECT count({x}), avg({y}) FROM s GROUP BY time({width})",
        f"SELECT sum({x}) FROM s {time_clause} GROUP BY time({width})",
        f"SELECT max({y}) FROM s WHERE {y} >= {threshold} "
        f"GROUP BY time({width})",
        f"SELECT min({x}) FROM s {time_clause} AND {x} > {threshold} "
        f"GROUP BY time({width}) LIMIT 3",
        f"SELECT stdev({x}), stdev({y}), sum({x}) FROM s {time_clause}",
        f"SELECT stdev({x}), avg({x}), max({y}) FROM s {time_clause} "
        f"GROUP BY time({width})",
    ]


@settings(max_examples=25, deadline=None)
@given(
    workloads,
    st.integers(min_value=1, max_value=3),
    st.sampled_from(CONFIGS),
    st.booleans(),
    st.data(),
)
def test_plans_match_naive_oracle(rows, arity, overrides, flush, data):
    stream = _build(rows, arity, overrides, flush)
    try:
        top = max(e.t for e in stream.scan()) if rows else 0
        attrs = ATTRS[:arity]
        plans_seen: set = set()
        for sql in _queries(top, attrs, data):
            _check(stream, sql, plans_seen)
        assert plans_seen  # at least one plan kind exercised
    finally:
        stream.close()


@settings(max_examples=10, deadline=None)
@given(
    workloads,
    st.sampled_from(
        [
            LifecyclePolicy(hot_to_warm_after=120),
            LifecyclePolicy(
                hot_to_warm_after=120,
                warm_to_cold_after=240,
                rollup_interval=30,
            ),
            LifecyclePolicy(
                hot_to_warm_after=120,
                warm_to_cold_after=240,
                retention_horizon=480,
                rollup_interval=60,
                max_jobs_per_tick=2,
            ),
        ]
    ),
    st.data(),
)
def test_plans_match_naive_oracle_on_tiered_streams(rows, policy, data):
    schema = EventSchema.of("x", "y")
    config = ChronicleConfig(
        lblock_size=256,
        macro_size=512,
        lblock_spare=0.2,
        queue_capacity=8,
        time_split_interval=60,
        lifecycle=policy,
    )
    stream = EventStream("s", schema, config, DeviceProvider())
    manager = LifecycleManager(stream, policy)
    now = 0
    for position, (step, late, value) in enumerate(rows):
        now += step
        stream.append(
            Event.of(max(0, now - late), float(value), float(position % 7))
        )
        if position % 25 == 24:
            manager.tick()
    manager.tick()
    stream.flush()
    try:
        top = max(now, 1)
        for sql in _queries(top, ("x", "y"), data):
            _check(stream, sql)
        # Bucket widths aligned to the rollup interval exercise the
        # cold-rollup grouped path without poisoning every bucket.
        width = policy.rollup_interval or 60
        _check(stream, f"SELECT sum(x), count(y) FROM s GROUP BY time({width})")
        _check(
            stream,
            f"SELECT avg(y) FROM s WHERE t BETWEEN 0 AND {top} "
            f"GROUP BY time({width * 2})",
        )
    finally:
        stream.close()


# ------------------------------------------------- oracle independence


def _check_aggregates_by_hand(stream, lo, hi, width):
    """The oracle answers unfiltered aggregates through
    ``stream.aggregate``; this pins that method (and the planner's
    ``GROUP BY`` finals) to the events ``time_travel`` yields, bucketed
    by hand.  Index statistics do not see still-queued late events, so
    those aggregates compare once the queue is empty; scanned ones see
    the queue on both sides."""
    settled = not any(split.manager.pending for split in stream.splits)
    events = list(stream.time_travel(lo, hi))
    for position, attribute in enumerate(stream.schema.names):
        for function in ("sum", "count", "min", "max", "avg", "stdev"):
            if not (settled or stream.index_blocker(attribute, function)):
                continue
            label = f"{function}({attribute})"
            want = _run(
                lambda *_: fold(function, [e.values[position] for e in events]),
                stream, None,
            )
            got = _run(
                lambda *_: stream.aggregate(lo, hi, attribute, function),
                stream, None,
            )
            if "QueryError" in (got, want):
                assert got == want, (label, lo, hi)
            else:
                assert got == pytest.approx(want, rel=1e-9, abs=1e-9), label
            rows = run_plan(stream, build_plan(stream, parse(
                f"SELECT {label} FROM s WHERE t BETWEEN {lo} AND {hi} "
                f"GROUP BY time({width})"
            )))
            buckets: dict = {}
            for event in events:
                buckets.setdefault(event.t // width * width, []).append(
                    event.values[position]
                )
            assert [row["t_start"] for row in rows] == sorted(buckets)
            for row in rows:
                assert row[label] == pytest.approx(
                    fold(function, buckets[row["t_start"]]),
                    rel=1e-9, abs=1e-9,
                ), (label, row["t_start"])


@settings(max_examples=25, deadline=None)
@given(
    workloads,
    st.integers(min_value=1, max_value=3),
    st.sampled_from(CONFIGS),
    st.data(),
)
def test_aggregates_equal_a_fold_over_time_travel(rows, arity, overrides, data):
    stream = _build(rows, arity, overrides, flush=False)
    try:
        top = max(e.t for e in stream.scan())
        lo = data.draw(st.integers(0, top), label="t_lo")
        hi = data.draw(st.integers(lo, top), label="t_hi")
        width = data.draw(st.sampled_from([7, 16, 50]), label="width")
        _check_aggregates_by_hand(stream, lo, hi, width)  # queue as built
        stream.flush()
        _check_aggregates_by_hand(stream, lo, hi, width)
    finally:
        stream.close()


@settings(max_examples=10, deadline=None)
@given(workloads, st.data())
def test_aggregates_equal_a_fold_over_time_travel_on_tiered_streams(rows, data):
    stream, top = _tiered(rows)
    try:
        # Raw events exist above the cold and expired ranges only; stay
        # there, and park late events in the newest split's queue.
        raw_lo = max(
            [stream.time_bounds()[0]]
            + [hi for _, hi, _ in stream.tiers.expired]
            + [rollup.t_end for rollup in stream.tiers.cold.values()]
        )
        for back in range(3):
            if top - back >= raw_lo and not stream.tiers.blocks(top - back):
                stream.append(Event.of(top - back, 5.0, float(back)))
        lo = data.draw(st.integers(min(raw_lo, top), top), label="t_lo")
        hi = data.draw(st.integers(lo, top), label="t_hi")
        width = data.draw(st.sampled_from([7, 30, 60]), label="width")
        _check_aggregates_by_hand(stream, lo, hi, width)
        stream.flush()
        _check_aggregates_by_hand(stream, lo, hi, width)
    finally:
        stream.close()


# ------------------------------------------- components and ownership


class _Db:
    """``execute`` only asks a database for the stream."""

    def __init__(self, stream):
        self._stream = stream

    def get_stream(self, name):
        return self._stream


def _same(got, want):
    """``==``, except ``stdev`` values: components finalize them from a
    sum of squares where the oracle's scans use the two-pass formula."""
    if isinstance(want, dict) and isinstance(got, dict):
        assert got.keys() == want.keys()
        for key, value in want.items():
            if key.startswith("stdev("):
                assert got[key] == pytest.approx(value, rel=1e-9, abs=1e-9)
            else:
                assert got[key] == value, key
    elif isinstance(want, list) and want and isinstance(want[0], dict):
        assert len(got) == len(want)
        for got_row, want_row in zip(got, want):
            _same(got_row, want_row)
    else:
        assert got == want


def _execute(stream, query, **mode):
    """Finals of ``execute(..., **mode)``, or the string "QueryError"."""
    try:
        result = execute(_Db(stream), query, **mode)
        if mode.get("components"):
            result = finalize_result(result, query)
        return result
    except QueryError:
        return "QueryError"


def _check_modes(stream, sql, owned_stream, owned):
    """Components and ownership change the output format and the
    selection, never the answer.

    Owning every time is the query itself, queued late events and cold
    or expired tiers included.  The oracle's settled copy of the owned
    events holds raw events only, so an ownership-filtered *unfiltered
    aggregate*, which index statistics answer from every tier, is
    compared with it on a stream without cold or expired ranges.
    """
    query = parse(sql)
    select_star = isinstance(query.select, SelectStar)
    unfiltered = not (query.ranges or getattr(query, "strict_checks", []))
    raw_only = not (stream.tiers.cold or stream.tiers.expired)
    finals = _execute(stream, query)
    if not select_star:
        _same(_execute(stream, query, components=True), finals)
    _same(_execute(stream, query, owned=[(-(2**62), 2**62)]), finals)
    if raw_only or select_star or not unfiltered:
        want = _run(oracle.run_naive, owned_stream, query)
        _same(_execute(stream, query, owned=owned), want)
        if not select_star:
            _same(
                _execute(stream, query, owned=owned, components=True),
                want,
            )


def _owned_copy(stream, owned):
    """The oracle's input: a settled stream of just the owned events."""
    copy = EventStream(
        "s", stream.schema,
        ChronicleConfig(lblock_size=512, macro_size=2048), DeviceProvider(),
    )
    copy.append_batch([
        e for e in stream.scan() if any(lo <= e.t <= hi for lo, hi in owned)
    ])
    copy.flush()
    return copy


#: Owned interval lists, as functions of the stream's last timestamp:
#: ``t >= 40``, ``t < 25``, even tens (``(t // 10) % 2 == 0``), nothing.
ownerships = st.sampled_from(
    [
        lambda top: [(40, 2**62)],
        lambda top: [(-(2**62), 24)],
        lambda top: [(lo, lo + 9) for lo in range(0, top + 1, 20)],
        lambda top: [],
    ]
)


@settings(max_examples=25, deadline=None)
@given(
    workloads,
    st.integers(min_value=1, max_value=3),
    st.sampled_from(CONFIGS),
    st.booleans(),
    ownerships,
    st.data(),
)
def test_components_and_ownership_match_finals(
    rows, arity, overrides, flush, ownership, data
):
    stream = _build(rows, arity, overrides, flush)
    top = max(e.t for e in stream.scan())
    owned = ownership(top)
    copy = _owned_copy(stream, owned)
    try:
        for sql in _queries(top, ATTRS[:arity], data):
            _check_modes(stream, sql, copy, owned)
    finally:
        stream.close()
        copy.close()


TIERED_POLICY = LifecyclePolicy(
    hot_to_warm_after=120,
    warm_to_cold_after=240,
    retention_horizon=480,
    rollup_interval=60,
    max_jobs_per_tick=2,
)


def _tiered(rows, policy=TIERED_POLICY):
    config = ChronicleConfig(
        lblock_size=256,
        macro_size=512,
        lblock_spare=0.2,
        queue_capacity=8,
        time_split_interval=60,
        lifecycle=policy,
    )
    stream = EventStream("s", EventSchema.of("x", "y"), config, DeviceProvider())
    manager = LifecycleManager(stream, policy)
    now = 0
    for position, (step, late, value) in enumerate(rows):
        now += step
        stream.append(
            Event.of(max(0, now - late), float(value), float(position % 7))
        )
        if position % 25 == 24:
            manager.tick()
    manager.tick()
    stream.flush()
    return stream, max(now, 1)


@settings(max_examples=10, deadline=None)
@given(workloads, ownerships, st.data())
def test_components_and_ownership_match_finals_on_tiered_streams(
    rows, ownership, data
):
    stream, top = _tiered(rows)
    owned = ownership(top)
    copy = _owned_copy(stream, owned)
    try:
        for sql in _queries(top, ("x", "y"), data):
            _check_modes(stream, sql, copy, owned)
        _check_modes(
            stream, "SELECT sum(x), count(y) FROM s GROUP BY time(60)",
            copy, owned,
        )
    finally:
        stream.close()
        copy.close()


def test_grouped_components_drop_the_buckets_finals_drop():
    """A grouped range across expired history and cut cold-rollup rows:
    a shard's components keep exactly the finals' buckets (at the parent
    commit the whole scatter failed with "needs sub-bucket history")."""
    rows = [(600, 0, 1)] + [(3, 0, i % 9) for i in range(300)]
    stream, top = _tiered(rows)
    try:
        # GROUP BY clamps to the raw time bounds, which tiering keeps
        # clear of cold and expired ranges — until a straggler older
        # than all of them stretches the bounds back across both.
        stream.append(Event.of(5, 1.0, 1.0))
        stream.flush()
        t_min, t_max = stream.time_bounds()
        assert any(t_min < hi for _, hi, _ in stream.tiers.expired)
        assert stream.tiers.cold
        # 45 does not divide the 60-wide rollup rows: buckets get cut.
        sql = "SELECT sum(x), count(y) FROM s GROUP BY time(45)"
        query = parse(sql)
        poisoned = stream.grouped_components(t_min, t_max, "x", 45)[1]
        assert poisoned
        plan = build_plan(stream, query)
        assert plan.kind == INDEX_ONLY
        finals = run_plan(stream, plan)
        partial = run_plan(stream, plan, components=True)
        assert finals and not poisoned & {row["t_start"] for row in finals}
        assert [row["t_start"] for row in partial["groups"]] == [
            row["t_start"] for row in finals
        ]
        assert finalize_result(partial, query) == finals
    finally:
        stream.close()


def test_partial_rows_keep_their_wire_shape():
    """What a shard ships for ``GROUP BY time``: one row per non-empty
    bucket, a component set per label — whichever plan produced it."""
    schema = EventSchema.of("x", "y")
    indexed = EventStream(
        "s", schema, ChronicleConfig(lblock_size=256, macro_size=1024),
        DeviceProvider(),
    )
    unindexed = EventStream(
        "s", schema,
        ChronicleConfig(
            lblock_size=256, macro_size=1024, indexed_attributes=[]
        ),
        DeviceProvider(),
    )
    events = [
        Event.of(i, float(i % 13 - 6), float(i % 5))
        for i in range(500)
        if not 80 <= i < 160  # buckets 80 and 120 stay empty
    ]
    indexed.append_batch(events)
    unindexed.append_batch(events)
    indexed.flush()
    unindexed.flush()
    try:
        sql = "SELECT sum(x), count(y), max(x) FROM s GROUP BY time(40)"
        query = parse(sql)
        assert build_plan(indexed, query).kind == INDEX_ONLY
        scan_plan = build_plan(unindexed, query)
        assert scan_plan.kind == COLUMNAR  # answered by one column scan
        assert "not indexed" in scan_plan.reason
        fast = execute(_Db(indexed), sql, components=True)["groups"]
        scanned = execute(_Db(unindexed), sql, components=True)["groups"]
        filtered = execute(
            _Db(indexed), sql.replace("FROM s", "FROM s WHERE y >= 0"),
            components=True,
        )["groups"]
        starts = [t for t in range(0, 500, 40) if t not in (80, 120)]
        assert [row["t_start"] for row in fast] == starts
        for rows in (fast, scanned, filtered):
            for row, start in zip(rows, starts, strict=True):
                assert row.keys() == {
                    "t_start", "t_end", "sum(x)", "count(y)", "max(x)"
                }
                assert (row["t_start"], row["t_end"]) == (start, start + 40)
                assert row["sum(x)"].keys() == {
                    "min", "max", "sum", "count", "sum_squares"
                }
        # One answer three ways; only the scanned and folded values
        # carry exact squares the plain index statistics do not track.
        for row_fast, row_scan, row_filter in zip(fast, scanned, filtered):
            for label in ("sum(x)", "count(y)", "max(x)"):
                for key in ("min", "max", "sum", "count"):
                    assert row_fast[label][key] == row_scan[label][key]
                assert row_scan[label] == row_filter[label]
        assert fast[0]["sum(x)"]["sum_squares"] is None
        assert scanned[0]["sum(x)"]["sum_squares"] is not None
        assert build_plan(indexed, parse(sql + " LIMIT 2")).kind == INDEX_ONLY
        with pytest.raises(QueryError, match="no partial-aggregate form"):
            execute(_Db(indexed), "SELECT * FROM s", components=True)
    finally:
        indexed.close()
        unindexed.close()
