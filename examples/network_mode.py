"""Standalone-server mode: ChronicleDB over TCP (paper, Figure 1).

Starts a server around an in-memory ChronicleDB, then drives it over
the binary frame protocol: columnar batches, pipelined appends, queries
and control ops on one connection.

Run:  python examples/network_mode.py
"""

from repro import ChronicleConfig, ChronicleDB, ColumnarEvents, Event, EventSchema
from repro.net import BinaryChronicleClient, ChronicleServer


def main() -> None:
    db = ChronicleDB(config=ChronicleConfig())
    with ChronicleServer(db) as server:
        print(f"server listening on {server.host}:{server.port}")

        # The hot path: columnar batches ride PAX-encoded frames, many
        # in flight at once (correlation ids).
        with BinaryChronicleClient(server.host, server.port) as client:
            assert client.ping()
            client.create_stream("metrics", EventSchema.of("cpu", "mem"))

            timestamps = [i * 1000 for i in range(10_000)]
            batch = ColumnarEvents(
                timestamps,
                [
                    [50.0 + (t // 1000) % 20 for t in timestamps],
                    [4096.0 + t // 1000 for t in timestamps],
                ],
            )
            sent = client.append_batch("metrics", batch)
            print(f"appended {sent} events as one columnar batch")

            pending = [
                client.append_batch_async(
                    "metrics",
                    [Event.of(10_000_000 + i * 1000 + j, 42.0, 1.0)
                     for j in range(100)],
                )
                for i in range(20)
            ]
            print(f"pipelined {sum(f.result(10) for f in pending)} more "
                  "events across 20 in-flight frames")

            rows = client.query(
                "SELECT * FROM metrics WHERE t BETWEEN 5000000 AND 5005000"
            )
            print(f"time travel over TCP returned {len(rows)} events")

            stats = client.query(
                "SELECT avg(cpu), max(cpu), count(cpu) FROM metrics"
            )
            print(f"aggregates: {stats}")
            print(f"streams on the server: {client.list_streams()}")
    db.close()


if __name__ == "__main__":
    main()
