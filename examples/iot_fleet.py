"""IoT fleet ingestion: out-of-order batches and load-adaptive indexing.

Several vehicle streams on one embedded store, each fed its telemetry in
batches that arrive partly out of order (Section 5.7), and the load
scheduler shedding secondary indexing under a burst (Section 5.5).  The
queue/worker topology of Figure 2 is the server's (see
``examples/network_mode.py``); here the batches go straight to
``stream.append_batch``.

Run:  python examples/iot_fleet.py
"""

import itertools
import random

from repro import (
    ChronicleConfig,
    ChronicleDB,
    Event,
    EventSchema,
    Pressure,
)
from repro.datasets import make_out_of_order

#: Events per ``append_batch`` call (one sensor upload).
BATCH = 500


def vehicle_events(seed: int, n: int):
    """One vehicle's telemetry with 5 % late arrivals (async clocks)."""
    rng = random.Random(seed)
    speed, battery = 0.0, 100.0
    chronological = []
    for i in range(n):
        speed = max(0.0, min(130.0, speed + rng.gauss(0, 4)))
        battery = max(0.0, battery - 0.002 - speed * 1e-5)
        chronological.append(
            Event.of(i * 100, speed, battery, float(rng.randrange(4)))
        )
    return make_out_of_order(iter(chronological), 0.05, "exponential",
                             bulk_every=2000, seed=seed)


def main() -> None:
    schema = EventSchema.of("speed", "battery", "gear")
    config = ChronicleConfig(
        secondary_indexes={"gear": "cola"},
        queue_capacity=256,
        time_split_interval=200_000,
        memtable_capacity=512,
    )
    with ChronicleDB(config=config) as db:
        fleet = [f"vehicle_{i}" for i in range(4)]
        per_vehicle = 10_000
        for seed, name in enumerate(fleet):
            stream = db.create_stream(name, schema)
            telemetry = vehicle_events(seed, per_vehicle)
            while batch := list(itertools.islice(telemetry, BATCH)):
                stream.append_batch(batch)

        for name in fleet:
            stream = db.get_stream(name)
            ooo = sum(s.manager.queued_inserts for s in stream.splits)
            print(f"{name}: {stream.appended} events "
                  f"({ooo} handled out of order), "
                  f"{len(stream.splits)} time splits")
            scanned = [e.t for e in stream.scan()]
            assert len(scanned) == per_vehicle, "events lost!"
            assert scanned == sorted(scanned), "time order violated!"

        # Fleet-wide question: which vehicle drove fastest?
        fastest = max(
            fleet,
            key=lambda n: db.get_stream(n).aggregate(
                0, 10**9, "speed", "max"
            ),
        )
        print(f"fastest vehicle: {fastest} "
              f"({db.get_stream(fastest).aggregate(0, 10**9, 'speed', 'max'):.1f} km/h)")

        # Simulate an ingestion burst: a backlog reported to the
        # scheduler sheds the secondary index, creating an irregular
        # split; queries still work.
        burst_target = db.get_stream(fleet[0])
        burst_target.scheduler.report_queue_depth(100_000)
        assert burst_target.scheduler.pressure is Pressure.OVERLOAD
        for i in range(5_000):
            burst_target.append(
                Event.of(per_vehicle * 100 + i * 10, 30.0, 50.0, 2.0)
            )
        burst_target.scheduler.report_queue_depth(0)  # burst over
        kinds = [s.kind for s in burst_target.splits]
        print(f"{fleet[0]} split kinds after burst: {kinds}")
        assert "irregular" in kinds
        in_second_gear = burst_target.search("gear", 2.0)
        print(f"{fleet[0]} events in gear 2 (secondary + lightweight "
              f"fallback across splits): {len(in_second_gear)}")


if __name__ == "__main__":
    main()
