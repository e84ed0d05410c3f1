"""Count guard: the engine's CPU work, counted on the simulated clock.

The layers bump plain integer counters on the engine's one shared
:class:`~repro.simdisk.clock.SimulatedClock`; a clock built with a
:class:`~repro.simdisk.cost.CpuCostModel` prices them as CPU seconds when
read.  A tiny workload with 512-byte L-blocks is counted by hand below:
an in-order run over three leaves, four late events through one queue
flush, an LSM secondary on ``b``, an indexed aggregate, a ``SELECT *``
and the row-at-a-time oracle over the same range.

Geometry: an event is 24 bytes (t, a, b) behind a 40-byte node header,
so a leaf holds (512 - 40) // 24 = 19 events and is written at 90 % of
that, 17.  Codec ``none`` keeps every block 512 bytes on both sides of
the (de)compressor, so byte counts are block counts times 512.
"""

import pytest

from repro import ChronicleConfig, ChronicleDB, CpuCostModel, Event, EventSchema
from repro.query.parser import parse
from repro.simdisk.clock import WORK_UNITS, SimulatedClock
from repro.testing.oracle import run_naive

LBLOCK = 512
W = 17  # events per written leaf
N = 2 * W + 5  # two flushed leaves and five events in the open third
LATE = (15, 25, 10 * W + 5, 10 * W + 15)  # two late events per flushed leaf

CONFIG = ChronicleConfig(
    lblock_size=LBLOCK,
    macro_size=4 * LBLOCK,
    codec="none",
    queue_capacity=len(LATE),
    secondary_indexes={"b": "lsm"},
    data_disk="hdd",
    log_disk="ssd",
)

ZERO = dict.fromkeys(WORK_UNITS, 0)

#: Work per phase, counted by hand.
EXPECTED = {
    # Every event is serialized into the open leaf once; the two full
    # leaves are compressed as they flush, and each flush hands its W
    # postings to the LSM memtable (one sorted insert apiece).
    "in_order": dict(
        ZERO, events_serialized=N, sorted_inserts=2 * W,
        bytes_compressed=2 * LBLOCK,
    ),
    # Each late event is a sorted insert three times: into the queue,
    # into its buffered leaf when the full queue flushes, and into the
    # LSM memtable through the split's ooo hook.  Nothing is read.
    "late": dict(ZERO, sorted_inserts=3 * len(LATE)),
    # The two leaves the late events dirtied are written back.
    "flush": dict(ZERO, bytes_compressed=2 * LBLOCK),
    # Index-only: the in-memory level-1 root covers both flushed leaves
    # with stored statistics; the open leaf is in memory.
    "aggregate": dict(ZERO, node_visits=1),
    # Columnar: the first cold leaf by descent and the second by the
    # sibling chain are two node visits (the in-memory root is not
    # counted on this path), both as lazy views; each view decodes
    # timestamps, a and b of its W + 2 rows; every row of the result is
    # materialized once.
    "select_star": dict(
        ZERO, node_visits=2, values_decoded=2 * (W + 2) * 3,
        events_deserialized=N + len(LATE), bytes_decompressed=2 * LBLOCK,
    ),
    # Oracle: the same leaf windows, every row deserialized into an
    # Event.
    "oracle": dict(
        ZERO, node_visits=2, values_decoded=2 * (W + 2) * 3,
        events_deserialized=N + len(LATE), bytes_decompressed=2 * LBLOCK,
    ),
}


def _cold(stream):
    for split in stream.splits:
        split.tree.buffer._frames.clear()
        split.layout._macro_cache.clear()
        split.layout.tlb._leaf_cache.clear()


def _run(clock):
    """Drive the workload; return each phase's counts and the results."""
    db = ChronicleDB(config=CONFIG, clock=clock)
    stream = db.create_stream("s", EventSchema.of("a", "b"))
    phases = {}
    before = clock.work()

    def phase(name):
        nonlocal before
        after = clock.work()
        phases[name] = {k: after[k] - before[k] for k in WORK_UNITS}
        before = after

    stream.append_batch(
        [Event.of(10 * i, float(i), float(i % 3)) for i in range(N)]
    )
    assert stream.splits[0].tree.leaf_write_capacity == W
    phase("in_order")
    stream.append_batch([Event.of(t, -1.0, 9.0) for t in LATE])
    assert stream.splits[0].manager.pending == 0  # the queue flushed
    phase("late")
    stream.flush()
    phase("flush")
    _cold(stream)
    total = db.execute("SELECT sum(a) FROM s")
    phase("aggregate")
    _cold(stream)
    rows = db.execute("SELECT * FROM s")
    phase("select_star")
    _cold(stream)
    naive = run_naive(stream, parse("SELECT * FROM s"))
    phase("oracle")
    assert naive == rows and len(rows) == N + len(LATE)
    assert total["sum(a)"] == sum(e.values[0] for e in naive)
    return phases, db


def _priced(work, model):
    return sum(work[k] * getattr(model, unit) for k, unit in WORK_UNITS.items())


def test_counters_match_the_hand_count():
    phases, _ = _run(SimulatedClock())
    assert phases == EXPECTED


def test_cost_model_prices_the_counts():
    model = CpuCostModel()
    clock = SimulatedClock(model)
    phases, db = _run(clock)
    assert phases == EXPECTED
    work = clock.work()
    assert work == {
        k: sum(counts[k] for counts in EXPECTED.values()) for k in WORK_UNITS
    }
    assert clock.io_seconds > 0
    assert clock.cpu_seconds == pytest.approx(_priced(work, model), rel=1e-12)
    assert clock.cpu_seconds > 0
    assert clock.now == clock.io_seconds + clock.cpu_seconds
    assert db.stats()["clock"]["work"] == work


def test_no_model_counts_the_same_and_charges_nothing():
    priced, plain = SimulatedClock(CpuCostModel()), SimulatedClock()
    _run(priced)
    _run(plain)
    assert plain.work() == priced.work()
    assert plain.io_seconds == priced.io_seconds
    assert plain.cpu_seconds == 0
    assert plain.now == plain.io_seconds


def test_reset_zeroes_time_and_work():
    clock = SimulatedClock(CpuCostModel())
    _run(clock)
    clock.charge_cpu(0.5)
    clock.reset()
    assert clock.work() == ZERO
    assert (clock.now, clock.io_seconds, clock.cpu_seconds) == (0, 0, 0)
