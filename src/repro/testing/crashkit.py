"""Crash-consistency kit: enumerate crash points, recover, check invariants.

The paper's Section 6 claims instant recovery from a crash at *any* point
of ingestion.  This module turns that claim into a checkable property:

1. run a workload once under a counting :class:`~repro.simdisk.faults.FaultPlan`
   to learn how many device writes it performs (and, optionally, the full
   write trace);
2. for every write index, run the workload again with a plan that crashes
   there, reopen the stream from the surviving bytes, and check the
   durable-prefix invariants;
3. report violations instead of asserting, so one matrix run surfaces
   every broken crash point at once.

The invariant checker (:func:`check_recovery`) is shared with the
randomized crash-fuzz test — one checker, exhaustively enumerated *and*
fuzzed.

Invariants checked after recovery:

I1 no fabrication: every recovered event was ingested, exactly once;
I2 time order: a full scan yields non-decreasing timestamps;
I3 durable floor: every event in the (trimmed) WAL or mirror log is
   recovered — either already in the tree or rebuilt into the queue;
I4 liveness: the recovered stream accepts a new event and serves it back.

Every crash point of a matrix is recovered twice, from two copies of the
surviving bytes: once as a reopen would (the TLB rescan from behind the
last TLB leaf, the flank walk where the file format allows it) and once
with the TLB rescan started at the superblock and the walk refused, so
tree recovery scans.  Both must recover the same TLB (every id's mapping,
the next id, what TLB recovery hands tree recovery), rebuild the same
trees and leave the same data-device bytes; the outcome records how many
trees took each path.

Lifecycle workloads (tier migrations interleaved with ingest; see
:mod:`repro.lifecycle`) run through :func:`run_lifecycle_crash_matrix`
and are checked by :func:`check_lifecycle_recovery`, which keeps I1–I4
(with the durable floor excused only inside cold/expired ranges, where
raw events are *meant* to be gone) and adds

I5 tier coherence: every warm split holds exactly the ingested events of
   its range; every cold rollup's per-bucket counts and aggregates match
   the ingested events of its range; expired ranges account for exactly
   the events they dropped; no raw event survives inside a cold or
   expired range; appends into tiered ranges are rejected.
"""

from __future__ import annotations

import copy
import os
from dataclasses import dataclass, field
from unittest import mock

from repro import obs
from repro.core.config import ChronicleConfig
from repro.core.devices import DeviceProvider
from repro.core.stream import EventStream
from repro.errors import ChronicleError, DiskCrashed, StorageError
from repro.events.event import Event
from repro.events.schema import EventSchema
from repro.events.serializer import PaxCodec
from repro.ooo.logfile import EventLog
from repro.recovery import tlb_recovery, tree_recovery
from repro.simdisk.faults import FaultPlan
from repro.storage.constants import SUPERBLOCK_SIZE

_HUGE = 2**62
#: Application time of the post-recovery liveness probe; far above any
#: workload timestamp so it never collides with ingested events.
PROBE_T = 2**40

STREAM = "s"


@dataclass
class CrashOutcome:
    """Result of one crash-point run."""

    crash_point: int
    crashed: bool  #: whether the fault actually fired (point < total writes)
    recovered: int  #: events visible after recovery (excluding the probe)
    violations: list[str] = field(default_factory=list)
    walks: int = 0  #: trees recovered by the flank walk
    fallbacks: int = 0  #: trees recovered by the scan (v1 or fallback)


@dataclass
class MatrixReport:
    """Results of a full crash-point enumeration."""

    total_writes: int
    outcomes: list[CrashOutcome] = field(default_factory=list)

    @property
    def violations(self) -> list[str]:
        return [
            f"crash@{outcome.crash_point}: {violation}"
            for outcome in self.outcomes
            for violation in outcome.violations
        ]

    def fallback_share(self) -> str:
        """``"k/n tree recoveries fell back to the scan"``."""
        fallbacks = sum(outcome.fallbacks for outcome in self.outcomes)
        total = fallbacks + sum(outcome.walks for outcome in self.outcomes)
        return f"{fallbacks}/{total} tree recoveries fell back to the scan"

    def assert_clean(self) -> None:
        violations = self.violations
        assert not violations, (
            f"{len(violations)} invariant violation(s) over "
            f"{len(self.outcomes)} crash points:\n" + "\n".join(violations[:20])
        )


# --------------------------------------------------------------- workloads


def ingest_workload(
    stream: EventStream,
    events: list[Event],
    batch_size: int | None = None,
    flush: bool = False,
) -> None:
    """Drive *events* into *stream* per-event or through the batch path."""
    if batch_size is None:
        for event in events:
            stream.append(event)
    else:
        for start in range(0, len(events), batch_size):
            stream.append_batch(events[start : start + batch_size])
    if flush:
        stream.flush()


def count_device_writes(
    schema: EventSchema,
    config: ChronicleConfig,
    events: list[Event],
    batch_size: int | None = None,
    flush: bool = False,
) -> tuple[int, list[tuple[str | None, int, int]]]:
    """Total device writes of a workload, plus the full write trace."""
    plan = FaultPlan(record_trace=True)
    devices = DeviceProvider(fault_plan=plan)
    stream = EventStream(STREAM, schema, config, devices)
    ingest_workload(stream, events, batch_size, flush)
    return plan.writes, plan.trace


# ---------------------------------------------------------------- recovery


def _split_indices(devices: DeviceProvider, stream_name: str) -> list[int]:
    prefix = f"{stream_name}/split-"
    suffix = ".cdb"
    indices = set()
    for key, device in devices.devices.items():
        if key.startswith(prefix) and key.endswith(suffix):
            # A device below superblock size was cut down mid-birth; it
            # holds no events and cannot even identify itself.
            if device.size >= SUPERBLOCK_SIZE:
                indices.add(int(key[len(prefix) : -len(suffix)]))
    return sorted(indices)


def durable_floor(
    devices: DeviceProvider, schema: EventSchema, stream_name: str = STREAM
) -> set[tuple]:
    """Events the WAL and mirror logs durably cover, straight off the devices.

    Replay stops at a torn trailing record, so the floor is exactly what
    recovery is obliged to bring back.
    """
    codec = PaxCodec(schema)
    floor: set[tuple] = set()
    for index in _split_indices(devices, stream_name):
        for log_device in (
            devices.wal_device(stream_name, index),
            devices.mirror_device(stream_name, index),
        ):
            for _, t, values in EventLog(log_device, codec).replay():
                floor.add((t, values))
    return floor


def check_recovery(
    devices: DeviceProvider,
    schema: EventSchema,
    config: ChronicleConfig,
    ingested: set[tuple],
    stream_name: str = STREAM,
    on_restored=None,
) -> tuple[list[str], set[tuple]]:
    """Reopen the stream from *devices* and check invariants I1–I4.

    Returns ``(violations, recovered event keys)``; an empty violation
    list means the crash point recovered cleanly.  *on_restored* sees the
    stream as recovery left it, before any check touches it.
    """
    violations: list[str] = []
    floor = durable_floor(devices, schema, stream_name)
    indices = _split_indices(devices, stream_name)
    for key, device in list(devices.devices.items()):
        # Clear devices of splits that crashed before their superblock
        # write completed: the split was never born, and a fresh split
        # must be able to reuse the slot.
        if key.startswith(f"{stream_name}/split-") and key.endswith(".cdb"):
            if 0 < device.size < SUPERBLOCK_SIZE:
                device.truncate(0)
    manifest = {
        "schema": schema.to_dict(),
        "appended": len(ingested),
        "splits": [
            {
                "index": index,
                "t_start": None,
                "t_end": None,
                "kind": "regular",
                "secondary_attributes": [],
            }
            for index in indices
        ],
    }
    try:
        recovered = EventStream.restore(stream_name, manifest, config, devices)
    except ChronicleError as exc:
        return [f"recovery raised {type(exc).__name__}: {exc}"], set()
    if on_restored is not None:
        on_restored(recovered)

    seen = [(e.t, e.values) for e in recovered.time_travel(-_HUGE, _HUGE)]
    seen_set = set(seen)
    # I1: nothing fabricated, nothing duplicated.
    if len(seen) != len(seen_set):
        violations.append(f"{len(seen) - len(seen_set)} duplicated event(s)")
    fabricated = seen_set - ingested
    if fabricated:
        violations.append(f"fabricated events: {sorted(fabricated)[:3]}")
    # I2: application-time order.
    timestamps = [t for t, _ in seen]
    if timestamps != sorted(timestamps):
        violations.append("recovered events out of time order")
    # I3: the durable floor survived.
    missing = floor - seen_set
    if missing:
        violations.append(
            f"{len(missing)} durable event(s) lost: {sorted(missing)[:3]}"
        )
    # I4: the stream still works.
    try:
        probe = Event.of(PROBE_T, -1.0, -1.0)
        recovered.append(probe)
        tail = list(recovered.time_travel(PROBE_T, PROBE_T))
        if tail != [probe]:
            violations.append(f"probe append not readable: {tail}")
    except ChronicleError as exc:
        violations.append(f"probe append raised {type(exc).__name__}: {exc}")
    return violations, seen_set


# ------------------------------------------------------------ crash matrix


def run_crash_point(
    schema: EventSchema,
    config: ChronicleConfig,
    events: list[Event],
    crash_point: int,
    batch_size: int | None = None,
    flush: bool = False,
    torn_bytes: int | str = 0,
) -> CrashOutcome:
    """Crash the workload at device write *crash_point*, recover, check."""
    plan = FaultPlan(crash_at_write=crash_point, torn_bytes=torn_bytes)
    devices = DeviceProvider(fault_plan=plan)
    stream = EventStream(STREAM, schema, config, devices)
    crashed = False
    try:
        ingest_workload(stream, events, batch_size, flush)
    except DiskCrashed:
        crashed = True
    plan.disarm()
    ingested = {(e.t, e.values) for e in events}
    return _check_both_paths(
        crash_point, crashed, devices,
        lambda target, on_restored: check_recovery(
            target, schema, config, ingested, on_restored=on_restored
        ),
    )


def _copy_devices(devices: DeviceProvider) -> DeviceProvider:
    twin = DeviceProvider()
    for key, data in device_bytes(devices).items():
        twin._device(key, twin.data_model).append(data)
    return twin


def _recovered_trees(stream, devices: DeviceProvider) -> tuple:
    """Every split's recovered tree, and the data devices' bytes."""
    trees = [
        (
            split.index,
            split.tree.leaf.node_id,
            split.tree.leaf.prev_id,
            split.tree.last_flushed_leaf,
            [(n.node_id, n.level, n.prev_id, n.entries) for n in split.tree.flank],
            split.tree.lsn,
            split.tree.event_count,
            split.tree.min_t,
            split.layout.next_id,
        )
        for split in stream.splits
    ]
    data = {
        key: data for key, data in device_bytes(devices).items()
        if key.endswith(".cdb")
    }
    return trees, data


def _refuse_walk(tree, tail):
    raise tree_recovery._Inconsistent("the scan is forced")


def _from_superblock(layout) -> int:
    return SUPERBLOCK_SIZE


def recovered_tlb(layout) -> tuple:
    """What TLB recovery left: every id's mapping (``None``: unmapped),
    the next id and the :class:`~repro.recovery.tlb_recovery.RecoveredTail`."""
    lookups = []
    for block_id in range(layout.next_id):
        try:
            lookups.append(layout.tlb.lookup(block_id))
        except StorageError:
            lookups.append(None)
    return lookups, layout.next_id, copy.deepcopy(layout.recovered_tail)


def _recording_tlbs(into: list):
    """Patch TLB recovery to append :func:`recovered_tlb` of each layout."""
    recover = tlb_recovery.recover_tlb

    def recorded(layout):
        recover(layout)
        into.append(recovered_tlb(layout))

    return mock.patch.object(tlb_recovery, "recover_tlb", recorded)


def _check_both_paths(crash_point, crashed, devices, check) -> CrashOutcome:
    """Run *check* on *devices* as a reopen would, then on a copy of the
    surviving bytes with the TLB rescan started at the superblock and the
    flank walk refused; the two must agree."""
    twin = _copy_devices(devices)
    states = []
    tlbs: tuple[list, list] = ([], [])

    def capture(target):
        return lambda stream: states.append(_recovered_trees(stream, target))

    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        with _recording_tlbs(tlbs[0]):
            violations, seen = check(devices, capture(devices))
        counters = obs.snapshot()["counters"]
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()
    with mock.patch.object(tree_recovery, "_walk_plan", _refuse_walk), \
            mock.patch.object(tlb_recovery, "_scan_start_offset",
                              _from_superblock), \
            _recording_tlbs(tlbs[1]):
        scan_violations, _ = check(twin, capture(twin))
    violations += [f"scan path: {v}" for v in scan_violations]
    if tlbs[0] != tlbs[1]:
        violations.append(
            "the tail rescan and a rescan from the superblock recovered"
            " different TLBs"
        )
    if len(states) == 2 and states[0] != states[1]:
        violations.append("flank walk and scan recovered different trees")
    return CrashOutcome(
        crash_point, crashed, len(seen), violations,
        walks=counters.get("recovery.flank_walk", 0),
        fallbacks=counters.get("recovery.flank_scan_fallback", 0),
    )


def run_crash_matrix(
    schema: EventSchema,
    config: ChronicleConfig,
    events: list[Event],
    batch_size: int | None = None,
    flush: bool = False,
    torn_bytes: int | str = 0,
    crash_points=None,
) -> MatrixReport:
    """Enumerate every device-write crash point of a workload.

    ``crash_points`` restricts the enumeration (e.g. a CI smoke subset);
    by default every write index of the counting run is covered.
    """
    total, _ = count_device_writes(schema, config, events, batch_size, flush)
    if crash_points is None:
        crash_points = range(total)
    report = MatrixReport(total_writes=total)
    for crash_point in crash_points:
        report.outcomes.append(
            run_crash_point(
                schema, config, events, crash_point,
                batch_size=batch_size, flush=flush, torn_bytes=torn_bytes,
            )
        )
    return report


def record_paths(name: str, report: MatrixReport) -> None:
    """Append *report*'s fallback share to the file named by the
    ``CRASH_MATRIX_SUMMARY`` environment variable, if it is set (CI points
    it at the job's step summary)."""
    path = os.environ.get("CRASH_MATRIX_SUMMARY")
    if path:
        with open(path, "a") as fh:
            fh.write(f"- `{name}`: {report.fallback_share()}\n")


def device_bytes(devices: DeviceProvider) -> dict[str, bytes]:
    """Raw contents of every device — for byte-level state comparison."""
    contents = {}
    for key, device in devices.devices.items():
        contents[key] = device.read(0, device.size) if device.size else b""
    return contents


# ------------------------------------------------- lifecycle crash matrix


def lifecycle_workload(
    stream: EventStream, events: list[Event], policy, tick_every: int
) -> None:
    """Ingest *events* with a lifecycle tick every *tick_every* appends.

    Ticks run inline (synchronously), so tier-migration device writes
    interleave with ingest writes at deterministic points — exactly what
    the crash matrix needs to enumerate crash points *inside* compaction,
    rollup and retention jobs.
    """
    from repro.lifecycle.manager import LifecycleManager

    manager = LifecycleManager(stream, policy)
    for start in range(0, len(events), tick_every):
        for event in events[start : start + tick_every]:
            stream.append(event)
        manager.tick()
    manager.tick()


def count_lifecycle_writes(
    schema: EventSchema, config: ChronicleConfig, events: list[Event],
    policy, tick_every: int,
) -> int:
    """Total device writes of a lifecycle workload."""
    plan = FaultPlan(record_trace=True)
    devices = DeviceProvider(fault_plan=plan)
    stream = EventStream(STREAM, schema, config, devices)
    lifecycle_workload(stream, events, policy, tick_every)
    return plan.writes


def check_lifecycle_recovery(
    devices: DeviceProvider,
    schema: EventSchema,
    config: ChronicleConfig,
    ingested: set[tuple],
    stream_name: str = STREAM,
    on_restored=None,
) -> tuple[list[str], set[tuple]]:
    """Recover a tiered stream and check invariants I1–I5.

    Returns ``(violations, recovered raw event keys)``; *on_restored* as
    for :func:`check_recovery`.
    """
    from repro.index.queries import AggregateAccumulator
    from repro.recovery.tier_recovery import recover_stream_tiers

    violations: list[str] = []
    # The durable floor is read off the pristine surviving bytes, before
    # tier resolution mutates any device.
    floor = durable_floor(devices, schema, stream_name)
    for key, device in list(devices.devices.items()):
        if key.startswith(f"{stream_name}/split-") and key.endswith(".cdb"):
            if 0 < device.size < SUPERBLOCK_SIZE:
                device.truncate(0)
    manifest = {
        "schema": schema.to_dict(),
        "appended": len(ingested),
        "splits": [
            {
                "index": index,
                "t_start": None,
                "t_end": None,
                "kind": "regular",
                "secondary_attributes": [],
            }
            for index in _split_indices(devices, stream_name)
        ],
    }
    try:
        manifest, tiers, index_floor = recover_stream_tiers(
            stream_name, manifest, config, devices
        )
        stream = EventStream.restore(stream_name, manifest, config, devices)
        stream.tiers = tiers
        stream._next_split_index = max(stream._next_split_index, index_floor)
    except ChronicleError as exc:
        return [f"recovery raised {type(exc).__name__}: {exc}"], set()
    if on_restored is not None:
        on_restored(stream)
    # The synthetic manifest carries no time bounds; restore them from
    # sealed commit footers so cross-tier scans order correctly.
    for split in stream.splits:
        meta = split.layout.sealed_metadata
        if meta and split.t_start is None:
            split.t_start = meta.get("t_start")
            split.t_end = meta.get("t_end")

    seen = [(e.t, e.values) for e in stream.time_travel(-_HUGE, _HUGE)]
    seen_set = set(seen)
    # I1: nothing fabricated, nothing duplicated.
    if len(seen) != len(seen_set):
        violations.append(f"{len(seen) - len(seen_set)} duplicated event(s)")
    fabricated = seen_set - ingested
    if fabricated:
        violations.append(f"fabricated events: {sorted(fabricated)[:3]}")
    # I2: application-time order across tiers.
    timestamps = [t for t, _ in seen]
    if timestamps != sorted(timestamps):
        violations.append("recovered events out of time order")
    def cold_or_expired(t: int) -> bool:
        # Warm ranges hold raw events and don't count: only cold rollups
        # and expiry legitimately replace raw data.
        return any(r.covers(t) for r in tiers.cold.values()) or any(
            lo <= t < hi for lo, hi, _ in tiers.expired
        )

    # I3: the durable floor survived — raw events may only be gone where
    # a cold rollup or expiry legitimately replaced them.
    lost = {
        key for key in floor - seen_set if not cold_or_expired(key[0])
    }
    if lost:
        violations.append(
            f"{len(lost)} durable event(s) lost: {sorted(lost)[:3]}"
        )
    # I5: tier coherence.
    inside_tiered = [key for key in seen_set if cold_or_expired(key[0])]
    if inside_tiered:
        violations.append(
            f"raw event(s) inside cold/expired ranges: "
            f"{sorted(inside_tiered)[:3]}"
        )
    for index, warm in sorted(tiers.warm.items()):
        got = {(e.t, e.values) for e in warm.tree.time_travel(-_HUGE, _HUGE)}
        want = {
            key for key in ingested if warm.t_start <= key[0] < warm.t_end
        }
        if got != want:
            violations.append(
                f"warm split {index} diverges from ingested range "
                f"[{warm.t_start}, {warm.t_end}): {len(got)} != {len(want)}"
            )
    for index, rollup in sorted(tiers.cold.items()):
        want = [
            key for key in ingested
            if rollup.t_start <= key[0] < rollup.t_end
        ]
        if rollup.count != len(want):
            violations.append(
                f"cold rollup {index} counts {rollup.count} events, "
                f"ingested range holds {len(want)}"
            )
            continue
        width = rollup.bucket_width
        want_buckets: dict[int, int] = {}
        for t, _ in want:
            bucket = (t // width) * width
            want_buckets[bucket] = want_buckets.get(bucket, 0) + 1
        got_buckets = {row["t"]: row["count"] for row in rollup.rows}
        if got_buckets != want_buckets:
            violations.append(f"cold rollup {index} bucket counts diverge")
        if rollup.rows and rollup.indexed:
            attribute = rollup.indexed[0]
            position = schema.index_of(attribute)
            accumulator = AggregateAccumulator()
            rollup.accumulate(
                accumulator,
                rollup.rows[0]["t"],
                rollup.rows[-1]["t"] + width - 1,
                attribute,
            )
            oracle = sum(values[position] for _, values in want)
            if abs(accumulator.total - oracle) > 1e-6 * max(1.0, abs(oracle)):
                violations.append(
                    f"cold rollup {index} sum {accumulator.total} != "
                    f"oracle {oracle}"
                )
    for lo, hi, count in tiers.expired:
        want = sum(1 for key in ingested if lo <= key[0] < hi)
        if count != want:
            violations.append(
                f"expired range [{lo}, {hi}) recorded {count} events, "
                f"ingested holds {want}"
            )
    # I4: the stream still works — and still rejects tiered appends.
    try:
        probe = Event(PROBE_T, tuple(-1.0 for _ in schema.names))
        stream.append(probe)
        tail = list(stream.time_travel(PROBE_T, PROBE_T))
        if tail != [probe]:
            violations.append(f"probe append not readable: {tail}")
    except ChronicleError as exc:
        violations.append(f"probe append raised {type(exc).__name__}: {exc}")
    blocked_t = None
    if tiers.cold:
        rollup = tiers.cold[min(tiers.cold)]
        blocked_t = rollup.t_start
    elif tiers.expired:
        blocked_t = tiers.expired[0][0]
    if blocked_t is not None:
        try:
            stream.append(Event(blocked_t, tuple(0.0 for _ in schema.names)))
            violations.append(
                f"append at t={blocked_t} into a tiered range was accepted"
            )
        except StorageError:
            pass
    return violations, seen_set


def run_lifecycle_crash_point(
    schema: EventSchema,
    config: ChronicleConfig,
    events: list[Event],
    policy,
    tick_every: int,
    crash_point: int,
    torn_bytes: int | str = 0,
) -> CrashOutcome:
    """Crash a lifecycle workload at device write *crash_point* and check."""
    plan = FaultPlan(crash_at_write=crash_point, torn_bytes=torn_bytes)
    devices = DeviceProvider(fault_plan=plan)
    stream = EventStream(STREAM, schema, config, devices)
    crashed = False
    try:
        lifecycle_workload(stream, events, policy, tick_every)
    except DiskCrashed:
        crashed = True
    plan.disarm()
    ingested = {(e.t, e.values) for e in events}
    return _check_both_paths(
        crash_point, crashed, devices,
        lambda target, on_restored: check_lifecycle_recovery(
            target, schema, config, ingested, on_restored=on_restored
        ),
    )


def run_lifecycle_crash_matrix(
    schema: EventSchema,
    config: ChronicleConfig,
    events: list[Event],
    policy,
    tick_every: int,
    torn_bytes: int | str = 0,
    crash_points=None,
) -> MatrixReport:
    """Enumerate crash points of an ingest-plus-tiering workload."""
    total = count_lifecycle_writes(schema, config, events, policy, tick_every)
    if crash_points is None:
        crash_points = range(total)
    report = MatrixReport(total_writes=total)
    for crash_point in crash_points:
        report.outcomes.append(
            run_lifecycle_crash_point(
                schema, config, events, policy, tick_every, crash_point,
                torn_bytes=torn_bytes,
            )
        )
    return report
