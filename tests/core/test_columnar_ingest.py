"""The columnar ingest lane (`append_columns`) vs the row path.

`EventStream.append_columns` is the binary protocol's server-side entry
point: decoded timestamp/attribute arrays go straight into run routing
without materializing per-event objects.  These tests pin that the lane
is semantically identical to `append_batch` — same stats, same replay,
same out-of-order handling — and that `ColumnarEvents` behaves like the
sequence the rest of the engine expects.
"""

import random

import pytest

from repro import ChronicleConfig, ChronicleDB, ColumnarEvents, Event, EventSchema
from repro.events import Field, FieldKind
from repro.errors import SchemaError

SCHEMA = EventSchema.of("a", "b")
CONFIG = ChronicleConfig(lblock_size=512, macro_size=2048, queue_capacity=16)


def mixed_workload(n=3000, seed=11):
    """In-order runs with out-of-order stragglers and duplicates."""
    rng = random.Random(seed)
    timestamps = []
    t = 0
    for _ in range(n):
        roll = rng.random()
        if roll < 0.08:
            timestamps.append(max(0, t - rng.randrange(1, 50)))  # late
        elif roll < 0.12 and timestamps:
            timestamps.append(timestamps[-1])  # duplicate
        else:
            t += rng.randrange(1, 3)
            timestamps.append(t)
    return timestamps


def ingest(use_columns):
    db = ChronicleDB(config=CONFIG)
    stream = db.create_stream("s", SCHEMA)
    timestamps = mixed_workload()
    columns = [
        [float(t % 13) for t in timestamps],
        [float(-t) for t in timestamps],
    ]
    batch = 256
    for i in range(0, len(timestamps), batch):
        ts = timestamps[i : i + batch]
        cols = [c[i : i + batch] for c in columns]
        if use_columns:
            stream.append_columns(ts, cols)
        else:
            stream.append_batch(
                [Event(t, (a, b)) for t, a, b in zip(ts, *cols)]
            )
    stream.flush()
    scan = [(e.t, e.values) for e in stream.scan()]
    stats = stream.stats()
    db.close()
    return scan, stats


def test_append_columns_identical_to_append_batch():
    columnar_scan, columnar_stats = ingest(use_columns=True)
    row_scan, row_stats = ingest(use_columns=False)
    assert columnar_scan == row_scan
    assert columnar_stats == row_stats


def test_append_columns_arity_checked():
    db = ChronicleDB(config=CONFIG)
    stream = db.create_stream("s", SCHEMA)
    with pytest.raises(SchemaError):
        stream.append_columns([1, 2], [[1.0, 2.0]])
    db.close()


def test_ragged_batch_is_refused_before_any_side_effect():
    """A column shorter or longer than the timestamps used to be acked and
    then wedge the stream: the open leaf held columns of unequal length,
    ``SELECT *`` raised ``IndexError`` and the next leaf flush a
    ``SchemaError``."""
    db = ChronicleDB(config=CONFIG)
    stream = db.create_stream("s", SCHEMA)
    ragged = ([1, 2, 3], [[1.0], [2.0, 3.0, 4.0]])
    with pytest.raises(SchemaError, match="ragged"):
        stream.append_columns(*ragged)
    with pytest.raises(SchemaError, match="ragged"):
        stream.append_batch(ColumnarEvents(*ragged))
    with pytest.raises(SchemaError, match="columns"):
        stream.append_batch(ColumnarEvents([1], [[1.0]]))
    assert stream.appended == 0
    assert stream.splits == []
    rows = [(t, float(t), -float(t)) for t in range(1, 400)]
    stream.append_columns([r[0] for r in rows], [[r[1] for r in rows], [r[2] for r in rows]])
    assert [(e.t, *e.values) for e in db.execute("SELECT * FROM s")] == rows
    db.close()


@pytest.mark.parametrize(
    "bad_column",
    [(0, [1.0, "x"]), (1, [1, 2.5]), (1, [1, 2**63])],
    ids=["str-in-f64", "float-in-i64", "overflow-in-i64"],
)
def test_unholdable_value_is_refused_before_any_side_effect(bad_column):
    """Without ``validate_events`` a value its column's type cannot hold
    used to be acked, and then every leaf flush raised ``struct.error``
    for the rest of the stream's life."""
    db = ChronicleDB(config=CONFIG)
    stream = db.create_stream("s", EventSchema([Field("x"), Field("n", FieldKind.I64)]))
    columns = [[1.0, 2.0], [1, 2]]
    position, column = bad_column
    columns[position] = column
    with pytest.raises(SchemaError):
        stream.append_batch(ColumnarEvents([1, 2], columns))
    assert stream.appended == 0
    rows = [(t, t / 4, t * 3) for t in range(1, 401)]
    for row in rows:
        stream.append(Event(row[0], row[1:]))
    assert [(e.t, *e.values) for e in db.execute("SELECT * FROM s")] == rows
    db.close()


def test_columnar_events_sequence_semantics():
    batch = ColumnarEvents([1, 2, 3], [[1.0, 2.0, 3.0], [9.0, 8.0, 7.0]])
    assert len(batch) == 3
    with pytest.raises(TypeError):
        batch[1]  # a batch is sliced, never indexed by row
    assert list(batch) == [
        Event(1, (1.0, 9.0)), Event(2, (2.0, 8.0)), Event(3, (3.0, 7.0)),
    ]
    tail = batch[1:]
    assert isinstance(tail, ColumnarEvents)
    assert tail.timestamps == [2, 3]
    assert tail.columns == [[2.0, 3.0], [8.0, 7.0]]
