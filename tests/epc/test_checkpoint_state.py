"""Operator state checkpointing: split-run == one-shot, and the
tumbling pipeline agrees with the query planner's GROUP BY oracle.

A continuous query that resumes from a checkpoint must behave as if it
never stopped: ``state_dict()`` → ``load_state()`` into freshly built
operators, with the run split at an arbitrary event boundary, has to
produce exactly the one-shot output stream.  The hypothesis property
also pits the pipeline against an independent implementation of the
same aggregation — ``GROUP BY time(width)`` through the cost-based
planner — so both engines keep each other honest.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro import ChronicleConfig, ChronicleDB, Event, EventSchema
from repro.epc import (
    FilterOperator,
    Pipeline,
    SequencePattern,
    SlidingAggregate,
    ThresholdPattern,
    TumblingAggregate,
)
from repro.errors import QueryError

SCHEMA = EventSchema.of("x", "y")


def make_events(n, step=7, dup_every=5):
    # Monotone timestamps with plateaus (duplicate t) — the shape a
    # resumed subscription actually delivers.
    events, t = [], 0
    for i in range(n):
        if dup_every and i % dup_every:
            t += step if i % 3 else 0
        else:
            t += step
        events.append(Event.of(t, float(i % 11 - 5), float(i % 3)))
    return events


def one_shot(make_pipeline, events):
    pipeline = make_pipeline()
    pipeline.bind(SCHEMA)
    out = []
    for event in events:
        out.extend(pipeline.process(event))
    return out, pipeline


def split_run(make_pipeline, events, cut):
    """Run with a checkpoint/restore at ``cut``: state crosses as the
    serialized dict, never as live objects."""
    first = make_pipeline()
    first.bind(SCHEMA)
    out = []
    for event in events[:cut]:
        out.extend(first.process(event))
    frozen = first.state_dict()
    second = make_pipeline()
    second.bind(SCHEMA)
    second.load_state(frozen)
    for event in events[cut:]:
        out.extend(second.process(event))
    return out, second


PIPELINES = {
    "tumbling": lambda: Pipeline([TumblingAggregate(50, "x", "avg")]),
    "sliding": lambda: Pipeline([SlidingAggregate(60, 20, "x", "sum")]),
    "threshold": lambda: Pipeline([
        ThresholdPattern("hot", lambda e: e.values[0] > 0, 3, 40)
    ]),
    "sequence": lambda: Pipeline([
        SequencePattern(
            "chain",
            [lambda e: e.values[1] == 0.0, lambda e: e.values[1] == 2.0],
            90,
        )
    ]),
    "mixed": lambda: Pipeline([
        FilterOperator(lambda e: e.values[0] != 0.0),
        TumblingAggregate(30, "x", "max"),
    ]),
}


@pytest.mark.parametrize("kind", sorted(PIPELINES))
@pytest.mark.parametrize("cut", [0, 1, 37, 80, 119, 120])
def test_split_run_matches_one_shot(kind, cut):
    events = make_events(120)
    make_pipeline = PIPELINES[kind]
    want, ref = one_shot(make_pipeline, events)
    got, resumed = split_run(make_pipeline, events, cut)
    assert got == want
    # The post-run states agree too: the next event extends the same
    # open windows / partial matches either way.
    assert resumed.state_dict() == ref.state_dict()


def test_state_dict_shape_is_serializable():
    events = make_events(60)
    _, pipeline = one_shot(PIPELINES["threshold"], events)
    import json

    frozen = json.loads(json.dumps(pipeline.state_dict()))
    fresh = PIPELINES["threshold"]()
    fresh.bind(SCHEMA)
    fresh.load_state(frozen)
    assert fresh.state_dict() == pipeline.state_dict()


def test_load_state_validates_operator_count():
    pipeline = PIPELINES["mixed"]()
    pipeline.bind(SCHEMA)
    with pytest.raises(QueryError):
        pipeline.load_state([{}])


# ---------------------------------------------------------------- property

workloads = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),     # time advance
        st.integers(min_value=-8, max_value=8),    # integer value
    ),
    min_size=4,
    max_size=120,
)


@settings(max_examples=40, deadline=None)
@given(
    workload=workloads,
    width=st.integers(min_value=1, max_value=40),
    cut_seed=st.integers(min_value=0, max_value=10**6),
    function=st.sampled_from(["count", "sum", "min", "max", "avg"]),
)
def test_checkpointed_tumbling_matches_planner_oracle(
    workload, width, cut_seed, function
):
    events, t = [], 0
    for advance, value in workload:
        t += advance
        events.append(Event.of(t, float(value), 0.0))
    cut = cut_seed % (len(events) + 1)

    def make_pipeline():
        return Pipeline([TumblingAggregate(width, "x", function)])

    want, ref = one_shot(make_pipeline, events)
    got, resumed = split_run(make_pipeline, events, cut)
    assert got == want
    assert resumed.state_dict() == ref.state_dict()

    # Close the final window the same way the batch oracle does.
    tail = list(resumed.finish())
    closed = got + tail

    db = ChronicleDB(config=ChronicleConfig(lblock_size=512,
                                            macro_size=2048))
    stream = db.create_stream("s", SCHEMA)
    for event in events:
        stream.append(event)
    # Aggregates include queued late events (every read sees them), so
    # the counts match with or without this flush.
    db.flush()
    rows = db.execute(f"SELECT {function}(x) FROM s GROUP BY time({width})")
    db.close()

    assert [(r.t_start, r.t_end) for r in closed] == [
        (row["t_start"], row["t_end"]) for row in rows
    ]
    for result, row in zip(closed, rows):
        assert result.value == pytest.approx(row[f"{function}(x)"])
        if function == "count":
            assert result.value == row["count(x)"]
