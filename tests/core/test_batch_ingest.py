"""The one ingest path against Algorithm 3 walked one event at a time.

The contract of `EventStream.append_batch` (and everything below it —
`OutOfOrderManager.insert_run`, `TabTree.append_run`,
`EventLog.append_many`, the segment queue) is that batching is
*invisible* on disk: the same leaves, the same WAL and mirror-log bytes,
the same queue order, the same sealed metadata as the per-event
reference model (`repro.testing.ingest`).  These tests drive both over
workloads that straddle leaf flushes, time-split boundaries, and
out-of-order queue flushes, and compare raw device bytes.
`EventStream.append` per event is one more chunking: a batch of one.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.chronicle import ChronicleDB
from repro.core.config import ChronicleConfig
from repro.errors import SchemaError
from repro.events import Event, EventSchema
from repro.testing import ingest

SCHEMA = EventSchema.of("a", "b")

# Small blocks and a small queue so a few hundred events cross many leaf
# flushes, several time splits, and multiple queue flushes.
CONFIG = dict(
    lblock_size=512,
    macro_size=2048,
    time_split_interval=500,
    queue_capacity=8,
)


def build(events, chunk, validate=False, seal=True):
    """Ingest *events* through the reference model (chunk=0), through
    `EventStream.append` per event (chunk="append"), or in batches of
    *chunk*."""
    db = ChronicleDB(config=ChronicleConfig(validate_events=validate, **CONFIG))
    stream = db.create_stream("s", SCHEMA)
    if chunk == 0:
        for event in events:
            ingest.append_one(stream, event)
    elif chunk == "append":
        for event in events:
            stream.append(event)
    else:
        for i in range(0, len(events), chunk):
            stream.append_batch(events[i : i + chunk])
    if seal:
        db.close()
    return db, stream


def queued(split):
    """A split's queue content, in the order a flush would insert it."""
    batch = split.manager.queue.window(-(2**60), 2**60)
    return list(zip(batch.timestamps, *batch.columns))


def state_of(db, stream, sealed):
    state = {
        "appended": stream.appended,
        "travel": [
            (e.t, e.values) for e in stream.time_travel(-(2**60), 2**60)
        ],
        "splits": [
            (sp.index, sp.t_start, sp.t_end, sp.kind, sp.tree.state_dict())
            for sp in stream.splits
        ],
        "devices": {
            key: device._backend.read(0, device.size)
            for key, device in db.devices.devices.items()
        },
        "queues": [queued(sp) for sp in stream.splits],
    }
    if sealed:
        state["summaries"] = [sp.summary for sp in stream.splits]
        state["tc"] = [sp.tc_scores for sp in stream.splits]
    return state


def events_from_rows(rows):
    return [Event.of(t, x, y) for t, x, y in rows]


rows_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=2000),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
    min_size=1,
    max_size=300,
)


@st.composite
def equal_t_rows(draw):
    """Long runs of one timestamp with distinct values: where a stable
    merge of queued segments and per-event sorted inserts could part."""
    runs = draw(st.lists(
        st.tuples(st.integers(min_value=0, max_value=2000),
                  st.integers(min_value=1, max_value=40)),
        min_size=1, max_size=20,
    ))
    rows = []
    for t, length in runs:
        rows += [(t, float(len(rows)), float(-len(rows))) for _ in range(length)]
    return rows


chunks = st.integers(min_value=1, max_value=64) | st.just("append")


@settings(max_examples=25, deadline=None)
@given(
    rows=rows_strategy | equal_t_rows(),
    chunk=chunks,
    sort_fraction=st.floats(min_value=0.0, max_value=1.0),
)
def test_batch_equals_per_event_on_disk(rows, chunk, sort_fraction):
    """Arbitrary mixes of in-order and late events, arbitrary chunking:
    tree state, time_travel, summaries, and every device's raw bytes
    must match the per-event reference exactly."""
    # Mostly-sorted streams exercise long chronological runs; raw
    # hypothesis orderings exercise the out-of-order queue.
    cut = int(len(rows) * sort_fraction)
    rows = sorted(rows[:cut]) + rows[cut:]
    events = events_from_rows(rows)
    ref_db, ref_stream = build(events, 0)
    got_db, got_stream = build(events, chunk)
    assert state_of(ref_db, ref_stream, True) == state_of(got_db, got_stream, True)


@settings(max_examples=10, deadline=None)
@given(rows=rows_strategy | equal_t_rows(), chunk=chunks)
def test_batch_equals_per_event_before_seal(rows, chunk):
    """Mid-stream (unsealed) state matches too: open leaves, pending
    out-of-order queues in flush order, WAL and mirror logs."""
    rows = sorted(rows[: len(rows) // 2]) + rows[len(rows) // 2 :]
    events = events_from_rows(rows)
    ref_db, ref_stream = build(events, 0, seal=False)
    got_db, got_stream = build(events, chunk, seal=False)
    assert state_of(ref_db, ref_stream, False) == state_of(got_db, got_stream, False)
    ref_db.close()
    got_db.close()


def test_append_batch_counts_and_accepts_iterables():
    db = ChronicleDB(config=ChronicleConfig(**CONFIG))
    stream = db.create_stream("s", SCHEMA)
    assert stream.append_batch([]) == 0
    assert stream.append_batch(Event.of(t, 1.0, 2.0) for t in range(10)) == 10
    assert stream.appended == 10
    assert stream.append_many([Event.of(10, 0.0, 0.0)]) == 1
    assert stream.appended == 11
    db.close()


def test_append_batch_dispatches_subscribers_in_order():
    db = ChronicleDB(config=ChronicleConfig(**CONFIG))
    stream = db.create_stream("s", SCHEMA)
    seen = []
    stream.subscribe(seen.append)
    events = [Event.of(t, float(t), 0.0) for t in (5, 3, 9, 9, 1)]
    stream.append_batch(events)
    assert seen == events
    db.close()


def test_append_batch_validates_up_front():
    db = ChronicleDB(config=ChronicleConfig(validate_events=True, **CONFIG))
    stream = db.create_stream("s", SCHEMA)
    bad = [Event.of(0, 1.0, 2.0), Event.of(1, "nope", 2.0)]
    with pytest.raises(SchemaError):
        stream.append_batch(bad)
    # Validation precedes ingestion: nothing from the batch landed.
    assert stream.appended == 0
    with pytest.raises(SchemaError):
        stream.append_batch([Event.of(0, 1.0, 2.0), Event.of(1, 2.0)])
    assert stream.appended == 0
    stream.append_batch([Event.of(0, 1.0, 2.0), Event.of(1, 3, 4)])
    assert stream.appended == 2
    db.close()


def test_validated_batch_matches_per_event_bytes():
    events = [Event.of(t, float(t % 7), float(-t)) for t in range(400)]
    ref_db, ref_stream = build(events, 0, validate=True)
    got_db, got_stream = build(events, 32, validate=True)
    assert state_of(ref_db, ref_stream, True) == state_of(got_db, got_stream, True)
