"""Crash matrix for secondary indexes: a crash at every device write.

A `late_small`-shaped load (small batches, late events withheld in
bulks, some of them into splits that have sealed) maintains an LSM and
a COLA secondary; one run counts its device writes, then the load is
re-run with a power failure at each write.  Every crash point reopens
the surviving bytes twice: as a reopen would (an index loads its last
run record when that checks out, else is rebuilt) and with every run
record removed (every index rebuilt).  Both must hold the same
postings and answer exact lookups alike, ``search`` must answer what
the recovered events say, and invariants I1–I4 of
:mod:`repro.testing.crashkit` hold.  ``CRASH_MATRIX_STRIDE=k``
subsamples every k-th point.
"""

import os

import numpy as np

from repro import obs
from repro.core.config import ChronicleConfig
from repro.core.devices import DeviceProvider
from repro.core.stream import EventStream
from repro.errors import DiskCrashed
from repro.events import EventSchema
from repro.simdisk import FaultPlan
from repro.testing import crashkit

SCHEMA = EventSchema.of("x", "y")
ATTRIBUTES = ("x", "y")
N_EVENTS = 1_200
#: Tiny blocks and memtables: deep trees, checkpoints, queue flushes and
#: LSM/COLA merges within a few hundred device writes.
CONFIG = ChronicleConfig(
    lblock_size=256,
    macro_size=512,
    lblock_spare=0.2,
    queue_capacity=8,
    checkpoint_interval=48,
    memtable_capacity=16,
    secondary_indexes={"x": "lsm", "y": "cola"},
    time_split_interval=10 * 300,
)
#: ``checkpoint_interval`` late events in one batch.
LATE_BULK = 48
STRIDE = max(1, int(os.environ.get("CRASH_MATRIX_STRIDE", "1")))
PROBES = ((0.0, 0.0), (2.0, 2.0), (1.0, 3.0))


def workload():
    """Batches of (timestamps, columns) in arrival order: 8 % of every 70
    events withheld to the window's end, so windows that straddle a
    split boundary send late events into a sealed split; then one bulk
    of late events into the oldest split."""
    rng = np.random.default_rng(50)
    t = np.arange(1, N_EVENTS + 1, dtype=np.int64) * 10
    x = np.floor(rng.random(N_EVENTS) * 5)
    y = np.floor(rng.random(N_EVENTS) * 7)
    order = []
    for start in range(0, N_EVENTS, 70):
        window = np.arange(start, min(N_EVENTS, start + 70))
        late = rng.random(len(window)) < 0.08
        order += window[~late].tolist() + window[late].tolist()
    batches = [
        (t[order[i : i + 16]].tolist(),
         [x[order[i : i + 16]].tolist(), y[order[i : i + 16]].tolist()])
        for i in range(0, N_EVENTS, 16)
    ]
    # One batch of LATE_BULK late events into sealed split 0, which has
    # had none since its seal: its queue flushes reach a checkpoint,
    # which clears the WAL inside the call.
    late = np.arange(LATE_BULK) * 60 + 5
    batches.append((late.tolist(), [np.floor(rng.random(LATE_BULK) * 5).tolist(),
                                    np.floor(rng.random(LATE_BULK) * 7).tolist()]))
    return batches


BATCHES = workload()
INGESTED = {
    (t, (x, y))
    for ts, (xs, ys) in BATCHES for t, x, y in zip(ts, xs, ys)
}


def run(plan: FaultPlan) -> DeviceProvider:
    devices = DeviceProvider(fault_plan=plan)
    stream = EventStream(crashkit.STREAM, SCHEMA, CONFIG, devices)
    try:
        for i, (ts, columns) in enumerate(BATCHES):
            stream.append_columns(ts, columns)
            if i == len(BATCHES) // 2:
                stream.flush()
    except DiskCrashed:
        pass
    plan.disarm()
    return devices


def indexes(stream) -> list:
    return [
        (split.index, attribute,
         sorted((r.value, r.t) for r in
                split.secondaries[attribute].lookup_range(-np.inf, np.inf)),
         [sorted((r.value, r.t) for r in
                 split.secondaries[attribute].lookup_exact(v))
          for v in (0.0, 2.0, 4.0)])
        for split in stream.splits
        for attribute in ATTRIBUTES
    ]


def searches(stream) -> list:
    return [
        sorted((e.t, e.values) for e in stream.search(attribute, low, high))
        for attribute in ATTRIBUTES for low, high in PROBES
    ]


def model(stream) -> list:
    events = [(e.t, e.values) for e in stream.time_travel(-2**62, 2**62)]
    return [
        sorted(e for e in events
               if low <= e[1][SCHEMA.index_of(attribute)] <= high)
        for attribute in ATTRIBUTES for low, high in PROBES
    ]


def recover(devices) -> tuple[list, list, list, tuple]:
    """Restore *devices*; returns (I1–I4 violations, index snapshot,
    searches, search model, (loaded, rebuilt))."""
    seen = {}

    def capture(stream):
        seen["indexes"] = indexes(stream)
        seen["searches"] = searches(stream)
        seen["model"] = model(stream)

    obs.reset()
    obs.enable()
    try:
        violations, _ = crashkit.check_recovery(
            devices, SCHEMA, CONFIG, INGESTED, on_restored=capture,
            secondary_attributes=ATTRIBUTES,
        )
        counters = obs.snapshot()["counters"]
    finally:
        obs.disable()
        obs.reset()
    counts = (counters.get("recovery.secondaries_loaded", 0),
              counters.get("recovery.secondaries_rebuilt", 0))
    return violations, seen, counts


def without_records(devices) -> DeviceProvider:
    twin = crashkit._copy_devices(devices)
    for key, device in twin.devices.items():
        if key.endswith(".runs"):
            device.truncate(0)
    return twin


def test_secondary_crash_matrix():
    total = FaultPlan(record_trace=True)
    run(total)
    assert total.writes > 300
    failures, loaded, rebuilt = [], 0, 0
    for point in range(0, total.writes, STRIDE):
        torn = "half" if point % 2 else 0
        devices = run(FaultPlan(crash_at_write=point, torn_bytes=torn))
        twin = without_records(devices)
        violations, seen, counts = recover(devices)
        forced, forced_seen, forced_counts = recover(twin)
        assert forced_counts[0] == 0
        loaded += counts[0]
        rebuilt += counts[1]
        problems = violations + [f"forced: {v}" for v in forced]
        if seen and seen["indexes"] != forced_seen["indexes"]:
            problems.append("loaded indexes differ from a rebuild")
        if seen and seen["searches"] != seen["model"]:
            problems.append("search differs from the recovered events")
        failures += [f"crash@{point}: {p}" for p in problems]
    assert not failures, "\n".join(failures[:20])
    # The matrix exercises both paths.
    assert loaded > 0 and rebuilt > 0
