import struct
import zlib

from repro.events import ColumnarEvents, Event, EventSchema, PaxCodec
from repro.ooo import EventLog
from repro.simdisk import SimulatedDisk

SCHEMA = EventSchema.of("a", "b")
CODEC = PaxCodec(SCHEMA)


def make_log():
    return EventLog(SimulatedDisk(), CODEC)


def rows(*events):
    return ColumnarEvents.of(events, SCHEMA.arity)


def test_append_replay_roundtrip():
    log = make_log()
    events = [Event.of(i, float(i), float(-i)) for i in range(20)]
    for i, e in enumerate(events):
        log.append_many(rows(e), [i + 1])
    replayed = list(log.replay())
    assert [lsn for lsn, _, _ in replayed] == list(range(1, 21))
    assert [Event(t, values) for _, t, values in replayed] == events


def test_clear_discards_all():
    log = make_log()
    log.append_many(rows(Event.of(1, 1.0, 1.0)))
    log.clear()
    assert list(log.replay()) == []
    log.append_many(rows(Event.of(2, 2.0, 2.0)), [5])
    assert [lsn for lsn, _, _ in log.replay()] == [5]


def test_replay_stops_at_torn_record():
    log = make_log()
    log.append_many(rows(Event.of(1, 1.0, 1.0), Event.of(2, 2.0, 2.0)), [1, 2])
    log.device.truncate(log.device.size - 3)  # tear the last record
    replayed = list(log.replay())
    assert [lsn for lsn, _, _ in replayed] == [1]


def test_replay_stops_at_corruption():
    log = make_log()
    log.append_many(rows(Event.of(1, 1.0, 1.0), Event.of(2, 2.0, 2.0)), [1, 2])
    # Flip a byte inside the second record's payload.
    log.device.write(log.device.size - 1, b"\xff")
    assert len(list(log.replay())) == 1


def test_empty_log_replays_nothing():
    assert list(make_log().replay()) == []


def test_append_many_bytes_identical_to_appends():
    """Group commit must be invisible: one append_many produces the very
    bytes per-record appends would — each record ``(payload length, lsn,
    crc32)`` then the event packed as one ``(t, *values)`` row — so
    replay cannot tell the difference."""
    events = [Event.of(i, float(i), float(i * i)) for i in range(50)]
    lsns = [i * 3 + 1 for i in range(50)]
    grouped = make_log()
    grouped.append_many(rows(*events), lsns)
    expected = b""
    for event, lsn in zip(events, lsns):
        payload = CODEC.row.pack(event.t, *event.values)
        expected += struct.pack("<IQI", len(payload), lsn, zlib.crc32(payload))
        expected += payload
    assert grouped.device.read(0, grouped.device.size) == expected
    assert [(lsn, Event(t, v)) for lsn, t, v in grouped.replay()] == list(
        zip(lsns, events)
    )


def test_append_many_without_lsns_matches_default_appends():
    events = [Event.of(i, 1.0, 2.0) for i in range(10)]
    one_by_one = make_log()
    for event in events:
        one_by_one.append_many(rows(event))
    grouped = make_log()
    grouped.append_many(rows(*events))
    n = one_by_one.device.size
    assert grouped.device.read(0, grouped.device.size) == one_by_one.device.read(0, n)
    assert {lsn for lsn, _, _ in grouped.replay()} == {0}


def test_append_many_empty_is_noop():
    log = make_log()
    log.append_many(ColumnarEvents.empty(SCHEMA.arity))
    assert log.device.size == 0
    assert list(log.replay()) == []


def test_append_many_is_one_device_write():
    log = make_log()
    stats = log.device.stats
    writes_before = stats.seq_writes + stats.random_writes
    log.append_many(rows(*[Event.of(i, 1.0, 2.0) for i in range(32)]))
    assert stats.seq_writes + stats.random_writes == writes_before + 1


def test_size_bytes():
    log = make_log()
    assert log.size_bytes == 0
    log.append_many(rows(Event.of(1, 1.0, 2.0)))
    assert log.size_bytes == log.device.size > 0
    # The PR-1 record_count_bytes alias is gone for good.
    assert not hasattr(log, "record_count_bytes")
