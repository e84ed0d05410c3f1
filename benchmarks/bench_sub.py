"""Subscription pipeline benchmarks: delivery lag and multi-tenant
eviction.

Two measurements, both beyond the paper (the live-subscription layer):

* **Delivery lag** — a live subscriber follows a stream over the binary
  wire protocol while batches are appended; the hub's
  ``sub.delivery_lag_seconds`` histogram yields the p99.  It measures
  from the first ``hub.notify`` ring a scan has not yet answered to the
  moment that scan's encoded frame is handed to the socket write — the
  write itself is not included.  Wall-clock, so CI gates it against a
  deliberately slack committed baseline; the throughput rides along
  ungated.

* **Multi-tenant ingest retention** — ``NUM_STREAMS`` (≥10k) streams
  behind ``max_active_streams=MAX_ACTIVE`` take Zipf-distributed batch
  appends, so the StreamTable constantly parks cold tenants (flush +
  seal) and reactivates them on demand (per-stream recovery).  The
  headline is the throughput as a percentage of the same event volume
  appended densely to one unbounded stream — the eviction machinery's
  overhead.  A ratio divides machine speed out, so the retention gate
  is robust on shared runners; the bench itself asserts the 70% floor.
"""

import bisect
import random
import threading
import time

from repro import ChronicleConfig, ChronicleDB, Event, EventSchema
from repro.net import BinaryChronicleClient, ChronicleServer
from repro.obs import OBS

SCHEMA = EventSchema.of("a", "b")

# --- delivery lag -----------------------------------------------------
LAG_EVENTS = 30_000
LAG_BATCH = 500

# --- multi-tenant eviction --------------------------------------------
#: Tenant streams — the point is "far more streams than fit".
NUM_STREAMS = 10_000
#: Resident bound: ~0.6% of the tenants hold live state at once.
MAX_ACTIVE = 64
TOTAL_EVENTS = 80_000
BATCH = 400
#: Zipf exponent for tenant popularity (hot head, long cold tail).
ZIPF_S = 1.1
SEED = 7
#: Asserted by the bench itself (CI gates the committed baseline).
MIN_RETENTION_PCT = 70.0

CONFIG_KW = dict(lblock_size=512, macro_size=2048)


def run_sub_latency():
    """Live push delivery: p99 append→push lag + delivered events/s."""
    was_enabled = OBS.enabled
    OBS.enable()
    hist = OBS.histogram("sub.delivery_lag_seconds")
    hist.reset()
    db = ChronicleDB(config=ChronicleConfig(**CONFIG_KW))
    received = []
    done = threading.Event()
    with ChronicleServer(db) as server:
        with BinaryChronicleClient(server.host, server.port) as client:
            client.create_stream("hot", SCHEMA)
            # Tail subscription: at the tail from the first append, so
            # every delivery is a rung cursor scan (and feeds the lag
            # histogram).
            handle = client.subscribe("hot", batch=LAG_BATCH, credits=8)

            def consume():
                for events in handle.batches(timeout=30):
                    received.append(len(events))
                    if sum(received) >= LAG_EVENTS:
                        done.set()
                        return

            consumer = threading.Thread(target=consume, daemon=True)
            consumer.start()
            started = time.perf_counter()
            for lo in range(0, LAG_EVENTS, LAG_BATCH):
                client.append_batch(
                    "hot",
                    [Event.of(t, float(t % 7), float(-t))
                     for t in range(lo, lo + LAG_BATCH)],
                )
            if not done.wait(timeout=60):
                raise RuntimeError("subscriber never caught up")
            wall = time.perf_counter() - started
            handle.close()
            consumer.join(timeout=5)
    if not was_enabled:
        OBS.disable()
    return {
        "events": LAG_EVENTS,
        "delivery_eps": LAG_EVENTS / wall,
        "lag_p99_ms": hist.percentile(99.0) * 1_000.0,
        "lag_p50_ms": hist.percentile(50.0) * 1_000.0,
    }


def _zipf_picker(rng):
    weights, total = [], 0.0
    for rank in range(1, NUM_STREAMS + 1):
        total += 1.0 / rank**ZIPF_S
        weights.append(total)

    def pick():
        return bisect.bisect_left(weights, rng.random() * total)

    return pick


def _ingest(db, names, pick, clocks):
    """Append TOTAL_EVENTS in BATCH-sized per-tenant batches; eps."""
    started = time.perf_counter()
    for _ in range(TOTAL_EVENTS // BATCH):
        name = names[pick()]
        t0 = clocks[name]
        clocks[name] = t0 + BATCH
        db.get_stream(name).append_batch(
            [Event.of(t, float(t % 7), 1.0) for t in range(t0, t0 + BATCH)]
        )
    return TOTAL_EVENTS / (time.perf_counter() - started)


def run_multitenant():
    """Zipf ingest across NUM_STREAMS bounded tenants vs dense ingest."""
    rng = random.Random(SEED)
    pick = _zipf_picker(rng)

    bounded = ChronicleDB(
        config=ChronicleConfig(max_active_streams=MAX_ACTIVE, **CONFIG_KW)
    )
    names = [f"t{i:05d}" for i in range(NUM_STREAMS)]
    for name in names:
        bounded.create_stream(name, SCHEMA)
    clocks = {name: 0 for name in names}
    zipf_eps = _ingest(bounded, names, pick, clocks)
    table = bounded.stats()["stream_table"]
    bounded.close()

    dense = ChronicleDB(config=ChronicleConfig(**CONFIG_KW))
    dense.create_stream("dense", SCHEMA)
    dense_eps = _ingest(
        dense, ["dense"], lambda: 0, {"dense": 0}
    )
    dense.close()

    retention = 100.0 * zipf_eps / dense_eps
    assert table["active"] <= MAX_ACTIVE
    assert retention >= MIN_RETENTION_PCT, (
        f"multi-tenant ingest retained only {retention:.1f}% "
        f"of dense throughput (floor {MIN_RETENTION_PCT}%)"
    )
    return {
        "streams": NUM_STREAMS,
        "max_active": MAX_ACTIVE,
        "events": TOTAL_EVENTS,
        "zipf_eps": zipf_eps,
        "dense_eps": dense_eps,
        "retention_pct": retention,
        "active_at_end": table["active"],
    }


def run_sub():
    return {
        "latency": run_sub_latency(),
        "multitenant": run_multitenant(),
    }


def main():
    result = run_sub()
    lat, mt = result["latency"], result["multitenant"]
    print(f"delivery: {lat['delivery_eps']:,.0f} events/s pushed, "
          f"lag p50 {lat['lag_p50_ms']:.2f} ms, "
          f"p99 {lat['lag_p99_ms']:.2f} ms")
    print(f"multi-tenant: {mt['streams']:,} streams "
          f"(max_active={mt['max_active']}): {mt['zipf_eps']:,.0f} events/s "
          f"zipfian vs {mt['dense_eps']:,.0f} dense "
          f"= {mt['retention_pct']:.1f}% retention")


if __name__ == "__main__":
    main()
