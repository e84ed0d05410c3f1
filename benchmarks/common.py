"""Shared helpers for the benchmark harness.

Every benchmark reproduces one table or figure of the paper (see
DESIGN.md's experiment index).  Experiments run on the simulated clock
(`DESIGN.md`, substitution table): throughput numbers are events per
*simulated* second, so the paper's relative results — who wins, by what
factor, where curves cross — are the quantities to compare.  Each bench
prints its table and also writes it to ``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os

from repro import ChronicleConfig, ChronicleDB, CpuCostModel, SimulatedClock

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Version of the per-bench JSON result files in ``benchmarks/results/``.
RESULT_SCHEMA = "chronicledb-bench-result-v1"


def make_chronicle(schema, clock: SimulatedClock | None = None, **overrides):
    """A ChronicleDB + stream wired to the simulated HDD/SSD cost model."""
    clock = clock if clock is not None else SimulatedClock(CpuCostModel())
    settings = dict(data_disk="hdd", log_disk="ssd")
    settings.update(overrides)
    config = ChronicleConfig(**settings)
    db = ChronicleDB(config=config, clock=clock)
    stream = db.create_stream("bench", schema)
    return db, stream, clock


def ingest_rate(stream, events, clock: SimulatedClock,
                batch_size: int | None = None) -> float:
    """Append all *events*; returns events per simulated second.

    Ingestion goes through the vectorized ``append_batch`` fast path —
    as one batch by default, or chunked when *batch_size* is given (to
    model a fixed client batch size).  On-disk state is identical to
    per-event appends either way.
    """
    clock.reset()
    if batch_size is None:
        count = stream.append_batch(list(events))
    else:
        count = 0
        batch = []
        for event in events:
            batch.append(event)
            if len(batch) >= batch_size:
                count += stream.append_batch(batch)
                batch = []
        if batch:
            count += stream.append_batch(batch)
    stream.flush()
    return count / clock.now if clock.now else float("inf")


def scan_rate(stream, clock: SimulatedClock) -> float:
    """Full scan; returns events per simulated second."""
    clock.reset()
    count = sum(1 for _ in stream.scan())
    return count / clock.now if clock.now else float("inf")


def cold_caches(stream) -> None:
    """Drop every in-memory cache of a stream (cold-start measurements).

    Queries in a bench sweep would otherwise benefit from buffers warmed
    by earlier rows, mixing cold and warm numbers.
    """
    for split in stream.splits:
        split.tree.buffer._frames.clear()
        split.layout._macro_cache.clear()
        split.layout.tlb._leaf_cache.clear()


def format_table(title: str, headers: list[str], rows: list[list]) -> str:
    """Render an aligned text table."""
    def fmt(cell):
        if isinstance(cell, float):
            if cell == 0:
                return "0"
            if abs(cell) >= 1000:
                return f"{cell:,.0f}"
            if abs(cell) >= 1:
                return f"{cell:.2f}"
            return f"{cell:.4g}"
        return str(cell)

    table = [[fmt(c) for c in row] for row in rows]
    widths = [
        max(len(headers[i]), *(len(row[i]) for row in table)) if table
        else len(headers[i])
        for i in range(len(headers))
    ]
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in table:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def report(name: str, text: str) -> None:
    """Print a bench table and persist it under benchmarks/results/."""
    print("\n" + text + "\n")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    with open(os.path.join(RESULTS_DIR, f"{name}.txt"), "w") as fh:
        fh.write(text + "\n")


def report_rows(
    name: str,
    title: str,
    headers: list[str],
    rows: list[list],
    notes: str | None = None,
    meta: dict | None = None,
) -> dict:
    """Report one bench result as text *and* machine-readable JSON.

    Writes ``benchmarks/results/{name}.txt`` (the aligned table, as
    before) and ``benchmarks/results/{name}.json`` with the raw rows, so
    the unified runner and CI regression gate never parse tables.
    Returns the JSON document.
    """
    text = format_table(title, headers, rows)
    if notes:
        text = text + "\n" + notes
    report(name, text)
    document = {
        "schema": RESULT_SCHEMA,
        "name": name,
        "title": title,
        "headers": list(headers),
        "rows": [list(row) for row in rows],
        "notes": notes,
        "meta": meta or {},
    }
    with open(os.path.join(RESULTS_DIR, f"{name}.json"), "w") as fh:
        json.dump(document, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return document
