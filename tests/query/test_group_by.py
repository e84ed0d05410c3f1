"""Tests for GROUP BY time(<width>) — temporal bucketed aggregation."""

import pytest

from repro import ChronicleConfig, ChronicleDB, Event, EventSchema
from repro.errors import QueryError

SCHEMA = EventSchema.of("temp", "load")


@pytest.fixture
def db():
    database = ChronicleDB(
        config=ChronicleConfig(lblock_size=512, macro_size=2048)
    )
    stream = database.create_stream("sensors", SCHEMA)
    for i in range(1000):
        stream.append(Event.of(i, 10.0 + (i % 7), float(i % 3)))
    return database


def test_grouped_counts(db):
    rows = db.execute("SELECT count(temp) FROM sensors GROUP BY time(100)")
    assert len(rows) == 10
    assert all(row["count(temp)"] == 100 for row in rows)
    assert [row["t_start"] for row in rows] == list(range(0, 1000, 100))
    assert rows[0]["t_end"] == 100


def test_grouped_avg_matches_naive(db):
    rows = db.execute("SELECT avg(temp) FROM sensors GROUP BY time(250)")
    for row in rows:
        values = [
            10.0 + (i % 7)
            for i in range(row["t_start"], min(row["t_end"], 1000))
        ]
        assert row["avg(temp)"] == pytest.approx(sum(values) / len(values))


def test_grouped_with_time_predicate(db):
    rows = db.execute(
        "SELECT count(temp) FROM sensors WHERE t BETWEEN 150 AND 449 "
        "GROUP BY time(100)"
    )
    # Buckets align to multiples of the width; boundary buckets shrink.
    assert [row["t_start"] for row in rows] == [100, 200, 300, 400]
    assert [row["count(temp)"] for row in rows] == [50, 100, 100, 50]


def test_grouped_with_attribute_filter(db):
    rows = db.execute(
        "SELECT count(load) FROM sensors WHERE load = 1 GROUP BY time(300)"
    )
    for row in rows:
        expected = sum(
            1
            for i in range(row["t_start"], min(row["t_end"], 1000))
            if i % 3 == 1
        )
        assert row["count(load)"] == expected


def test_grouped_multiple_aggregates(db):
    rows = db.execute(
        "SELECT min(temp), max(temp) FROM sensors GROUP BY time(500)"
    )
    assert len(rows) == 2
    for row in rows:
        assert row["min(temp)"] == 10.0
        assert row["max(temp)"] == 16.0


def test_grouped_limit(db):
    rows = db.execute(
        "SELECT count(temp) FROM sensors GROUP BY time(100) LIMIT 3"
    )
    assert len(rows) == 3


def test_empty_buckets_omitted():
    database = ChronicleDB(
        config=ChronicleConfig(lblock_size=512, macro_size=2048)
    )
    stream = database.create_stream("s", SCHEMA)
    for t in (10, 20, 1000, 1010):  # a gap covering several buckets
        stream.append(Event.of(t, 1.0, 2.0))
    rows = database.execute("SELECT count(temp) FROM s GROUP BY time(100)")
    assert [row["t_start"] for row in rows] == [0, 1000]


def test_group_by_rejects_select_star(db):
    with pytest.raises(QueryError):
        db.execute("SELECT * FROM sensors GROUP BY time(100)")


def test_group_by_rejects_bad_width(db):
    with pytest.raises(QueryError):
        db.execute("SELECT count(temp) FROM sensors GROUP BY time(0)")


def test_group_by_rejects_non_time(db):
    with pytest.raises(QueryError):
        db.execute("SELECT count(temp) FROM sensors GROUP BY load(100)")


def test_fine_buckets_clamped_to_data_range(db):
    # Width 1 over an unbounded range: buckets clamp to the data's span.
    rows = db.execute(
        "SELECT count(temp) FROM sensors WHERE t <= 10 GROUP BY time(1)"
    )
    assert len(rows) == 11


def test_bucket_explosion_guard():
    from repro.query.columnar import MAX_BUCKETS

    database = ChronicleDB(
        config=ChronicleConfig(lblock_size=512, macro_size=2048)
    )
    stream = database.create_stream("s", SCHEMA)
    stream.append(Event.of(0, 1.0, 1.0))
    stream.append(Event.of(10 * MAX_BUCKETS, 1.0, 1.0))
    with pytest.raises(QueryError):
        database.execute("SELECT count(temp) FROM s GROUP BY time(1)")


def test_empty_stream_returns_no_rows():
    database = ChronicleDB(
        config=ChronicleConfig(lblock_size=512, macro_size=2048)
    )
    database.create_stream("s", SCHEMA)
    assert database.execute("SELECT count(temp) FROM s GROUP BY time(10)") == []
