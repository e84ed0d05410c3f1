"""Exhaustive crash-point matrices (Section 6: recovery from any point).

Three canonical workloads — strictly in-order, ~10% out-of-order, and
batched ingestion — each run once to count device writes, then re-run
with a simulated power failure at *every* write index.  After each crash
the stream is reopened from the surviving bytes and the durable-prefix
invariants I1–I4 (see :mod:`repro.testing.crashkit`) are checked.

Together the matrices cover well over 300 distinct crash points in a few
seconds at this tiny block configuration.  ``CRASH_MATRIX_STRIDE=k``
subsamples every k-th point for CI smoke runs.
"""

import os
import random

from repro.core.config import ChronicleConfig
from repro.events import Event, EventSchema
from repro.testing import crashkit

SCHEMA = EventSchema.of("x", "y")
#: Tiny blocks so a small workload exercises deep trees, TLB cascades,
#: checkpoints and queue flushes within a few hundred device writes.
CONFIG = ChronicleConfig(
    lblock_size=256,
    macro_size=512,
    lblock_spare=0.2,
    queue_capacity=8,
    checkpoint_interval=48,
)

STRIDE = max(1, int(os.environ.get("CRASH_MATRIX_STRIDE", "1")))


def in_order_workload(n=900):
    return [Event.of(i * 3, float(i), float(i % 5)) for i in range(n)]


def ooo_workload(n=700, fraction=0.12, seed=0xC0FFEE):
    rng = random.Random(seed)
    events = []
    for i in range(n):
        t = i * 7
        if i > 20 and rng.random() < fraction:
            t -= rng.randrange(1, 40) * 7
        events.append(Event.of(max(0, t), float(i), float(i % 5)))
    return events


def _run(name, events, batch_size=None, torn_bytes=0):
    total, _ = crashkit.count_device_writes(
        SCHEMA, CONFIG, events, batch_size=batch_size
    )
    report = crashkit.run_crash_matrix(
        SCHEMA,
        CONFIG,
        events,
        batch_size=batch_size,
        torn_bytes=torn_bytes,
        crash_points=range(0, total, STRIDE),
    )
    assert report.total_writes == total
    report.assert_clean()
    # Every enumerated point below the write count must actually crash.
    assert all(o.crashed for o in report.outcomes)
    # assert_clean includes "the walk and the scan recover the same trees".
    crashkit.record_paths(name, report)
    return report


def test_in_order_matrix():
    _run("in-order", in_order_workload())


def test_out_of_order_matrix():
    _run("out-of-order", ooo_workload())


def test_batch_matrix():
    _run("batch", in_order_workload(), batch_size=33)


def test_torn_write_matrix():
    """Every crash additionally tears the failing append mid-write."""
    _run("torn", ooo_workload(400), torn_bytes="half")


def test_matrix_covers_300_plus_crash_points():
    """The acceptance floor: the canonical matrices enumerate >= 300
    distinct crash points (independent of CI subsampling)."""
    totals = [
        crashkit.count_device_writes(SCHEMA, CONFIG, in_order_workload())[0],
        crashkit.count_device_writes(SCHEMA, CONFIG, ooo_workload())[0],
        crashkit.count_device_writes(
            SCHEMA, CONFIG, in_order_workload(), batch_size=33
        )[0],
    ]
    assert sum(totals) >= 300


def test_crash_point_is_deterministic():
    """Same plan parameters => byte-identical surviving state and an
    identical recovered event set."""
    from repro.core.devices import DeviceProvider
    from repro.core.stream import EventStream
    from repro.errors import DiskCrashed
    from repro.simdisk import FaultPlan

    events = ooo_workload(300)
    crash_point = 40

    def crashed_state():
        plan = FaultPlan(crash_at_write=crash_point, torn_bytes="half")
        devices = DeviceProvider(fault_plan=plan)
        stream = EventStream(crashkit.STREAM, SCHEMA, CONFIG, devices)
        try:
            crashkit.ingest_workload(stream, events)
        except DiskCrashed:
            pass
        plan.disarm()
        return devices

    first, second = crashed_state(), crashed_state()
    assert crashkit.device_bytes(first) == crashkit.device_bytes(second)

    ingested = {(e.t, e.values) for e in events}
    violations1, seen1 = crashkit.check_recovery(first, SCHEMA, CONFIG, ingested)
    violations2, seen2 = crashkit.check_recovery(second, SCHEMA, CONFIG, ingested)
    assert violations1 == violations2 == []
    assert seen1 == seen2
