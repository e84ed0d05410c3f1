"""Live push subscriptions: follow a stream from a cursor through its
history into the live tail, survive a reconnect exactly-once, then run
a checkpointed continuous query on top.

A subscription is a cursor over the log: the server reads every pushed
batch from storage, history and tail alike, under the same per-stream
lock the writers hold, and an append only rings a doorbell — no event
is lost or duplicated.  Credits (one per acked batch) are the
backpressure; the cursor `(t, k)` is the resume token.

Run:  python examples/subscribe.py
"""

import os
import tempfile

from repro import ChronicleConfig, ChronicleDB, Event, EventSchema
from repro.epc import Pipeline, TumblingAggregate
from repro.net import BinaryChronicleClient, ChronicleServer
from repro.sub import CheckpointedQueryRunner

SCHEMA = EventSchema.of("cpu", "mem")


def main() -> None:
    db = ChronicleDB(config=ChronicleConfig())
    with ChronicleServer(db) as server:
        print(f"server listening on {server.host}:{server.port}")
        with BinaryChronicleClient(server.host, server.port) as client:
            client.create_stream("metrics", SCHEMA)
            client.append_batch(
                "metrics",
                [Event.of(t, 50.0 + t % 20, 4096.0) for t in range(5_000)],
            )

            # --- replay → live ------------------------------------------
            with client.subscribe("metrics", from_t=0, batch=512) as sub:
                replayed = sub.take(5_000, timeout=10)
                print(f"replayed {len(replayed)} historical events")
                # Events appended while subscribed arrive pushed.
                client.append_batch(
                    "metrics",
                    [Event.of(5_000 + t, 60.0, 4096.0) for t in range(500)],
                )
                live = sub.take(500, timeout=10)
                print(f"pushed {len(live)} live events")
                cursor = sub.cursor
            print(f"closed at cursor {cursor}")

            # --- exactly-once resume ------------------------------------
            client.append_batch(
                "metrics",
                [Event.of(5_500 + t, 70.0, 4096.0) for t in range(250)],
            )
            with client.subscribe("metrics", cursor=cursor) as sub:
                resumed = sub.take(250, timeout=10)
            assert [e.t for e in resumed] == list(range(5_500, 5_750))
            print(f"resumed exactly-once: {len(resumed)} new events, "
                  "no gaps, no duplicates")

            # --- checkpointed continuous query --------------------------
            # One-minute tumbling averages with cursor + window state
            # checkpointed atomically after every batch: a crashed query
            # restarts mid-window on the first unprocessed event.
            checkpoint = os.path.join(tempfile.mkdtemp(), "avg.ckpt")
            results = []
            runner = CheckpointedQueryRunner(
                make_subscriber=lambda cur: client.subscribe(
                    "metrics", from_t=0, cursor=cur, batch=512
                ),
                make_pipeline=lambda: Pipeline(
                    [TumblingAggregate(1_000, "cpu", "avg")]
                ),
                schema=SCHEMA,
                sink=lambda index, window: results.append(
                    (index, window.t_start, round(window.value, 2))
                ),
                checkpoint_path=checkpoint,
            )
            runner.run(max_events=5_750, timeout=10)
            print(f"continuous query emitted {len(results)} windows, "
                  f"e.g. {results[:3]}")

            # A second runner restores from the checkpoint and continues
            # where the first stopped — nothing is aggregated twice.
            client.append_batch(
                "metrics",
                [Event.of(5_750 + t, 80.0, 4096.0) for t in range(500)],
            )
            before = len(results)
            resumed_runner = CheckpointedQueryRunner(
                make_subscriber=lambda cur: client.subscribe(
                    "metrics", from_t=0, cursor=cur, batch=512
                ),
                make_pipeline=lambda: Pipeline(
                    [TumblingAggregate(1_000, "cpu", "avg")]
                ),
                schema=SCHEMA,
                sink=lambda index, window: results.append(
                    (index, window.t_start, round(window.value, 2))
                ),
                checkpoint_path=checkpoint,
            )
            resumed_runner.run(max_events=6_250, timeout=10)
            print(f"restored runner emitted {len(results) - before} more "
                  "windows from the checkpointed cursor")


if __name__ == "__main__":
    main()
