"""Torn-tail behavior of the WAL/mirror event log, at every byte offset.

A power failure can cut the last log write at any byte.  Replay must
stop cleanly at the torn frame, and :meth:`EventLog.trim_torn_tail`
must restore append-consistency so post-recovery records are reachable.
"""

from repro.events import ColumnarEvents, Event, EventSchema
from repro.events.serializer import PaxCodec
from repro.ooo.logfile import EventLog
from repro.simdisk import INSTANT, SimulatedDisk

SCHEMA = EventSchema.of("x", "y")
CODEC = PaxCodec(SCHEMA)


def _event(i):
    return Event.of(i * 10, float(i), float(i) / 2)


def _rows(*events):
    return ColumnarEvents.of(events, SCHEMA.arity)


def _full_log_bytes(n, via_batch=False):
    disk = SimulatedDisk(INSTANT)
    log = EventLog(disk, CODEC)
    events = [_event(i) for i in range(n)]
    if via_batch:
        log.append_many(_rows(*events), lsns=list(range(1, n + 1)))
    else:
        for i, event in enumerate(events):
            log.append_many(_rows(event), lsns=[i + 1])
    return disk.read(0, disk.size)


def _torn_log(data, cut):
    disk = SimulatedDisk(INSTANT)
    disk.write(0, data[: len(data) - cut])
    return disk, EventLog(disk, CODEC)


def test_append_many_bytes_equal_single_appends():
    assert _full_log_bytes(7) == _full_log_bytes(7, via_batch=True)


def test_every_cut_of_the_last_frame_single_append():
    n = 6
    data = _full_log_bytes(n)
    frame = len(data) // n  # fixed-size schema => equal frames
    for cut in range(1, frame + 1):
        disk, log = _torn_log(data, cut)
        replayed = list(log.replay())
        assert len(replayed) == n - 1, f"cut={cut}"
        assert [lsn for lsn, _, _ in replayed] == list(range(1, n))
        discarded = log.trim_torn_tail()
        assert discarded == frame - cut
        assert disk.size == (n - 1) * frame
        # The log is append-consistent again: a new record is reachable.
        log.append_many(_rows(_event(99)), lsns=[50])
        replayed = list(log.replay())
        assert len(replayed) == n
        lsn, t, values = replayed[-1]
        assert (lsn, Event(t, values)) == (50, _event(99))


def test_every_cut_of_a_group_commit():
    """One group-committed batch torn at every byte offset: replay yields
    exactly the fully intact prefix of frames."""
    n = 5
    data = _full_log_bytes(n, via_batch=True)
    frame = len(data) // n
    for cut in range(0, len(data) + 1):
        _, log = _torn_log(data, cut)
        survivors = (len(data) - cut) // frame
        replayed = list(log.replay())
        assert len(replayed) == survivors, f"cut={cut}"
        assert [lsn for lsn, _, _ in replayed] == list(range(1, survivors + 1))


def test_trim_on_intact_log_is_a_noop():
    data = _full_log_bytes(4)
    disk, log = _torn_log(data, 0)
    assert log.trim_torn_tail() == 0
    assert disk.size == len(data)
    assert len(list(log.replay())) == 4


def test_append_after_trim_without_replay():
    """Trimming resets the internal tail even if replay was never called."""
    data = _full_log_bytes(3)
    disk, log = _torn_log(data, 5)
    log.trim_torn_tail()
    log.append_many(_rows(_event(7)), lsns=[9])
    assert [lsn for lsn, _, _ in log.replay()] == [1, 2, 9]
