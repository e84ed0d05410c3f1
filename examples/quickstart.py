"""Quickstart: the embedded ("serverless library") mode of ChronicleDB.

Creates an in-memory event store, ingests a small sensor stream, and runs
the three query classes of the paper: time travel, temporal aggregation,
and filtered (lightweight-indexed) scans — plus the SQL-like dialect.

Run:  python examples/quickstart.py
"""

from repro import (
    AttributeRange,
    ChronicleConfig,
    ChronicleDB,
    Event,
    EventSchema,
)


def main() -> None:
    schema = EventSchema.of("temperature", "humidity")
    config = ChronicleConfig(codec="zlib", lblock_spare=0.1)

    with ChronicleDB(config=config) as db:
        sensors = db.create_stream("sensors", schema)

        # Ingest one reading per second for an hour (timestamps in ms).
        for second in range(3600):
            sensors.append(
                Event.of(
                    second * 1000,
                    18.0 + 6.0 * ((second % 600) / 600.0),  # slow daily swing
                    55.0 + (second % 7),
                )
            )
        print(f"ingested {sensors.appended} events")

        # Time travel: everything between minute 10 and minute 11.
        window = list(sensors.time_travel(600_000, 660_000))
        print(f"minute 10..11 holds {len(window)} events, "
              f"first={window[0]}, last={window[-1]}")

        # Temporal aggregation in logarithmic time from TAB+-tree stats.
        avg = sensors.aggregate(0, 3_599_000, "temperature", "avg")
        hottest = sensors.aggregate(0, 3_599_000, "temperature", "max")
        print(f"avg temperature {avg:.2f} °C, max {hottest:.2f} °C")

        # Filtered scan (Algorithm 2): prune subtrees via min/max stats.
        warm = list(
            sensors.time_travel(0, 3_599_000, [AttributeRange("temperature", 23.5, 24.0)])
        )
        print(f"{len(warm)} readings between 23.5 and 24.0 °C")

        # The same, in SQL.
        rows = db.execute(
            "SELECT * FROM sensors WHERE t BETWEEN 0 AND 3599000 "
            "AND temperature >= 23.5 AND temperature <= 24.0"
        )
        assert len(rows) == len(warm)
        stats = db.execute("SELECT avg(humidity), stdev(humidity) FROM sensors")
        print(f"humidity: avg={stats['avg(humidity)']:.2f} "
              f"stdev={stats['stdev(humidity)']:.2f}")


if __name__ == "__main__":
    main()
