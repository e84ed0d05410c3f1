"""Crash-point matrices for lifecycle (tiering) workloads.

The tier ladder moves data between devices while ingest is running, so
the original I1–I4 matrix is extended with crash points *inside* the
warm compaction, cold rollup and retention jobs: ingest runs with a
lifecycle tick every ``TICK_EVERY`` appends, and the workload is crashed
at every device write — WAL appends, leaf flushes, warm copies, rollup
writes, tier-log records, everything.  :func:`check_lifecycle_recovery`
then reopens the stream (tier log first) and checks I1–I5, including
that every committed tier holds exactly the ingested events of its range
and that in-flight migrations rolled back or forward without losing or
duplicating a single event.

``CRASH_MATRIX_STRIDE=k`` subsamples every k-th point for CI smoke runs.
"""

import os
import random

from repro.core.config import ChronicleConfig
from repro.events import Event, EventSchema
from repro.lifecycle import LifecyclePolicy
from repro.testing import crashkit

SCHEMA = EventSchema.of("x", "y")
#: Tiny blocks so a small workload spans many splits and tier moves.
CONFIG = ChronicleConfig(
    lblock_size=256,
    macro_size=512,
    lblock_spare=0.2,
    queue_capacity=8,
    checkpoint_interval=48,
    time_split_interval=60,
    lifecycle=LifecyclePolicy(
        hot_to_warm_after=120,
        warm_to_cold_after=240,
        retention_horizon=480,
        rollup_interval=30,
        warm_macro_factor=2,
        max_jobs_per_tick=2,
    ),
)
POLICY = CONFIG.lifecycle
TICK_EVERY = 100

STRIDE = max(1, int(os.environ.get("CRASH_MATRIX_STRIDE", "1")))


def in_order_workload(n=700):
    return [Event.of(i, float(i), float(i % 5)) for i in range(n)]


def ooo_workload(n=700, fraction=0.1, seed=0x51EE9):
    """~10% late events, never later than the hot-to-warm age.

    Lateness is bounded below ``hot_to_warm_after`` so no event can ever
    target a range that has already migrated out of the hot tier — the
    contract the append guard enforces.
    """
    rng = random.Random(seed)
    events = []
    for i in range(n):
        t = i
        if i > 30 and rng.random() < fraction:
            t -= rng.randrange(1, POLICY.hot_to_warm_after // 2)
        events.append(Event.of(max(0, t), float(i), float(i % 5)))
    return events


def _run(name, events, torn_bytes=0, stride=STRIDE):
    total = crashkit.count_lifecycle_writes(
        SCHEMA, CONFIG, events, POLICY, TICK_EVERY
    )
    report = crashkit.run_lifecycle_crash_matrix(
        SCHEMA,
        CONFIG,
        events,
        POLICY,
        TICK_EVERY,
        torn_bytes=torn_bytes,
        crash_points=range(0, total, stride),
    )
    assert report.total_writes == total
    report.assert_clean()
    assert all(o.crashed for o in report.outcomes)
    # assert_clean includes "the walk and the scan recover the same trees".
    crashkit.record_paths(name, report)
    return report


def test_lifecycle_workload_tiers_without_crashing():
    """Sanity: the matrix workload really exercises every tier rung."""
    from repro.core.devices import DeviceProvider
    from repro.core.stream import EventStream
    from repro.lifecycle.manager import LifecycleManager

    devices = DeviceProvider()
    stream = EventStream(crashkit.STREAM, SCHEMA, CONFIG, devices)
    manager = LifecycleManager(stream, POLICY)
    events = in_order_workload()
    moved = {"warm": 0, "cold": 0, "expired": 0}
    for start in range(0, len(events), TICK_EVERY):
        for event in events[start : start + TICK_EVERY]:
            stream.append(event)
        result = manager.tick()
        for rung in moved:
            moved[rung] += len(result[rung])
    result = manager.tick()
    for rung in moved:
        moved[rung] += len(result[rung])
    assert moved["warm"] > 0
    assert moved["cold"] > 0
    assert moved["expired"] > 0
    stats = stream.tiers.stats()
    total = (
        sum(1 for _ in stream.scan())
        + stats["cold_source_events"]
        + stats["expired_events"]
    )
    assert total == len(events)


def test_lifecycle_in_order_matrix():
    _run("lifecycle in-order", in_order_workload())


def test_lifecycle_out_of_order_matrix():
    _run("lifecycle out-of-order", ooo_workload())


def test_lifecycle_torn_write_matrix():
    _run("lifecycle torn", in_order_workload(), torn_bytes="half",
         stride=max(2, STRIDE))
