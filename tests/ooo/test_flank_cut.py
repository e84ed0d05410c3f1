"""Where a chronological run is cut between the tree and the queue.

`OutOfOrderManager.insert_run` hands the tree a whole flank segment and
cuts it only where a leaf flush would leave the next event at or below
the new flank boundary: the flushed leaf's ``t_max``, which is
``max(open-leaf tail, row before the cut)``.  The per-event walk
(`repro.testing.ingest.append_one`) re-reads the boundary before every
event; each case below puts a cut where checking only for a tie with
the row before it would send events to the tree that the walk queues.
"""

import pytest

from repro.core.chronicle import ChronicleDB
from repro.core.config import ChronicleConfig
from repro.events import Event, EventSchema
from repro.testing import ingest

SCHEMA = EventSchema.of("a", "b")
CONFIG = ChronicleConfig(lblock_size=512, macro_size=2048, queue_capacity=8)


def capacity():
    db = ChronicleDB(config=CONFIG)
    return db.create_stream("s", SCHEMA)._route(0).tree.leaf_write_capacity


def drive(batches, per_event):
    db = ChronicleDB(config=CONFIG)
    stream = db.create_stream("s", SCHEMA)
    for timestamps in batches:
        columns = [[t / 4 for t in timestamps],
                   [float(k) for k in range(len(timestamps))]]
        if per_event:
            for row in zip(timestamps, *columns):
                ingest.append_one(stream, Event(row[0], row[1:]))
        else:
            stream.append_columns(timestamps, columns)
    inserts = [(split.manager.flank_inserts, split.manager.queued_inserts)
               for split in stream.splits]
    db.close()
    devices = {key: device._backend.read(0, device.size)
               for key, device in db.devices.devices.items()}
    return devices, inserts, repr([split.tc_scores for split in stream.splits])


def head_below_tail(c):
    """A flushed leaf, then an open leaf of ``c - 3`` rows ending at T; the
    run's first three rows sort below T and fill it, so the boundary
    becomes T and the next rows (below T, then equal to it) are late."""
    load = [10 * k for k in range(1, 2 * c - 2)]
    tail = load[-1]
    run = [tail - 5, tail - 4, tail - 3, tail - 2, tail - 1, tail, tail]
    return [load, run + list(range(tail + 1, tail + 1 + 3 * c))]


def ties_across_a_cut(c):
    """Equal timestamps on both sides of every leaf cut of one run."""
    load = list(range(1, c - 1))
    run = []
    t = c
    while len(run) < 4 * c:
        run += [t] * 5
        t += 1
    return [load, run]


def first_row_after_the_cut_is_the_tail(c):
    """The row after the first cut equals the flushed leaf's ``t_max``,
    the open leaf's tail, while the row before it is smaller."""
    load = [10 * k for k in range(1, c - 1)]
    tail = load[-1]
    return [load, [tail - 2, tail - 1, tail] + list(range(tail + 1, tail + 3 * c))]


@pytest.mark.parametrize("case", [head_below_tail, ties_across_a_cut,
                                  first_row_after_the_cut_is_the_tail])
def test_run_cut_matches_the_per_event_walk(case):
    batches = case(capacity())
    reference = drive(batches, per_event=True)
    got = drive(batches, per_event=False)
    assert sum(queued for _, queued in got[1]) > 0  # the cut was reached
    assert got == reference
