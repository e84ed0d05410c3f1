"""Storage lifecycle: footprint reduction and per-tier query latency.

Not a paper figure — ChronicleDB's Section 5.4 only sketches retention;
this measures the repo's tier ladder (``repro.lifecycle``) on an
aged-data workload.  Two identically-configured streams ingest the same
events; one runs lifecycle ticks (hot → warm → cold rollups), the other
never tiers.  Reported quantities:

* **footprint reduction** — total device bytes of the untiered stream
  over the tiered one.  Most of the workload's history ages past the
  cold horizon, so the bulk of the raw data is replaced by
  bucket-resolution rollups and the ratio is dominated by how little a
  rollup weighs.  This is the gated headline (the acceptance floor is
  2x; the measured value is far above it).
* **per-tier query latency** (simulated clock) — a time-travel scan over
  a hot range, the same scan over a warm (re-compressed) range, and a
  bucket-aligned aggregate over a cold range.  Hot and warm scans read
  raw events, so warm's heavier codec costs decompression CPU; the cold
  aggregate reads no leaf data at all and should be orders of magnitude
  cheaper.

Everything runs on the simulated HDD/SSD cost model, so all metrics are
bit-identical across machines and safe to gate tightly.
"""

from benchmarks.common import report_rows
from repro import ChronicleConfig, ChronicleDB, CpuCostModel, SimulatedClock
from repro.events import Event, EventSchema
from repro.lifecycle import LifecyclePolicy

EVENTS = 60_000
#: Lifecycle ticks run after every chunk of this many appends.
TICK_EVERY = 5_000
SCHEMA = EventSchema.of("value", "sensor")
SPLIT_INTERVAL = 4_000
#: Block sizes proportionate to one split's payload (~35 KiB): macro
#: blocks are padded on device, so oversized macros would bury the
#: codec's gains (and the warm tier's 4x macros) under padding.
LBLOCK_SIZE = 2_048
MACRO_SIZE = 4_096
POLICY = LifecyclePolicy(
    hot_to_warm_after=8_000,
    warm_to_cold_after=16_000,
    rollup_interval=1_000,
    warm_macro_factor=4,
    max_jobs_per_tick=8,
)
#: Acceptance floor for the footprint ratio (ISSUE: >= 2x).
MIN_REDUCTION = 2.0


def _events(n):
    # Mildly compressible telemetry: a drifting value plus a small
    # sensor id, one event per time unit.
    return [
        Event.of(i, float(i % 257) + (i % 13) * 0.5, float(i % 16))
        for i in range(n)
    ]


def _build(config, clock, tick):
    db = ChronicleDB(config=config, clock=clock)
    stream = db.create_stream("bench", SCHEMA)
    events = _events(EVENTS)
    for start in range(0, EVENTS, TICK_EVERY):
        stream.append_batch(events[start : start + TICK_EVERY])
        if tick:
            db.lifecycle_tick()
    if tick:
        db.lifecycle_tick()
    stream.flush()
    return db, stream


def _stream_bytes(db):
    return sum(
        device.size
        for key, device in db.devices.devices.items()
        if key.startswith("bench/")
    )


def _sim_seconds(clock, fn):
    clock.reset()
    fn()
    return clock.now


def run_lifecycle():
    base_settings = dict(
        data_disk="hdd",
        log_disk="ssd",
        time_split_interval=SPLIT_INTERVAL,
        lblock_size=LBLOCK_SIZE,
        macro_size=MACRO_SIZE,
    )
    flat_clock = SimulatedClock(CpuCostModel())
    flat_db, flat_stream = _build(
        ChronicleConfig(**base_settings), flat_clock, tick=False
    )
    tier_clock = SimulatedClock(CpuCostModel())
    tier_db, tier_stream = _build(
        ChronicleConfig(**base_settings, lifecycle=POLICY), tier_clock,
        tick=True,
    )

    tiers = tier_stream.tiers
    stats = tiers.stats()
    assert stats["warm_splits"] > 0, "workload never reached the warm tier"
    assert stats["cold_rollups"] > 0, "workload never reached the cold tier"

    flat_bytes = _stream_bytes(flat_db)
    tier_bytes = _stream_bytes(tier_db)
    reduction = flat_bytes / tier_bytes
    assert reduction >= MIN_REDUCTION, (
        f"footprint reduction {reduction:.2f}x below the {MIN_REDUCTION}x floor"
    )

    # Per-tier query latencies, simulated seconds.  The warm range is
    # read from both streams: same raw events, different layouts.
    warm_split = tiers.warm[min(tiers.warm)]
    warm_range = (warm_split.t_start, warm_split.t_end - 1)
    hot_range = (EVENTS - SPLIT_INTERVAL, EVENTS - 1)
    cold_rollup = tiers.cold[min(tiers.cold)]
    cold_range = (cold_rollup.t_start, cold_rollup.t_end - 1)

    hot_scan = _sim_seconds(
        tier_clock, lambda: sum(1 for _ in tier_stream.time_travel(*hot_range))
    )
    warm_scan = _sim_seconds(
        tier_clock,
        lambda: sum(1 for _ in tier_stream.time_travel(*warm_range)),
    )
    flat_warm_scan = _sim_seconds(
        flat_clock,
        lambda: sum(1 for _ in flat_stream.time_travel(*warm_range)),
    )
    cold_aggregate = _sim_seconds(
        tier_clock,
        lambda: tier_stream.aggregate(*cold_range, "value", "sum"),
    )
    flat_cold_aggregate = _sim_seconds(
        flat_clock,
        lambda: flat_stream.aggregate(*cold_range, "value", "sum"),
    )
    # The rollup must agree with the raw data it replaced.
    assert tier_stream.aggregate(*cold_range, "value", "sum") == \
        flat_stream.aggregate(*cold_range, "value", "sum")

    rows = [
        ["untiered bytes", flat_bytes, ""],
        ["tiered bytes", tier_bytes, ""],
        ["footprint reduction", reduction, "x"],
        ["hot scan", hot_scan, "sim s"],
        ["warm scan", warm_scan, "sim s"],
        ["warm scan (untiered)", flat_warm_scan, "sim s"],
        ["cold aggregate", cold_aggregate, "sim s"],
        ["cold aggregate (untiered)", flat_cold_aggregate, "sim s"],
        ["warm splits", stats["warm_splits"], ""],
        ["cold rollups", stats["cold_rollups"], ""],
    ]
    report_rows(
        "lifecycle",
        f"Storage lifecycle ({EVENTS} events, split {SPLIT_INTERVAL})",
        ["quantity", "value", "unit"],
        rows,
        notes=(
            "Aged ranges re-compress to warm, then collapse into "
            f"{POLICY.rollup_interval}-unit cold rollups; the footprint "
            "ratio counts every device byte of each stream."
        ),
    )
    result = {
        "events": EVENTS,
        "flat_bytes": flat_bytes,
        "tier_bytes": tier_bytes,
        "reduction": reduction,
        "hot_scan_sim_s": hot_scan,
        "warm_scan_sim_s": warm_scan,
        "flat_warm_scan_sim_s": flat_warm_scan,
        "cold_aggregate_sim_s": cold_aggregate,
        "flat_cold_aggregate_sim_s": flat_cold_aggregate,
        "tiers": stats,
    }
    flat_db.close()
    tier_db.close()
    return result


if __name__ == "__main__":
    run_lifecycle()
