"""Figure 10: TLB recovery time after ingesting various numbers of events.

The paper crashes ChronicleDB after 1..24 M DEBS events and measures the
time to recover the storage layout's TLB: a few *milliseconds*,
independent of database size, because Algorithm 4 only touches the right
flank and the unmapped tail.  We reproduce the shape at 1/100 scale and
measure both simulated I/O time and wall-clock time.
"""

import time

from benchmarks.common import make_chronicle, report_rows
from repro.datasets import DebsDataset
from repro.storage import ChronicleLayout

SCALES = [25_000, 50_000, 100_000, 200_000]

#: The paper ingests 1..24 M events against 8 KiB TLB blocks (~1019
#: mapping entries each).  At 1/100 of the event count we shrink the
#: block geometry so the TLB reaches the same depth and the tail behind
#: its last leaf, all that TLB recovery rescans, is as small a *fraction*
#: of the database as in the original.
LBLOCK = 1024
MACRO = 4096


def run_figure10():
    rows = []
    recovery_io = {}
    for n in SCALES:
        dataset = DebsDataset(seed=0)
        db, stream, clock = make_chronicle(
            dataset.schema, lblock_size=LBLOCK, macro_size=MACRO
        )
        stream.append_many(dataset.events(n))
        stream.flush()  # crash: no commit record
        device = db.devices.data_device("bench", 0)
        clock.reset()
        read_before = device.stats.bytes_read
        started = time.perf_counter()
        ChronicleLayout.open(device)  # triggers recover_tlb
        wall_ms = (time.perf_counter() - started) * 1000
        simulated_ms = clock.now * 1000
        tail_bytes = device.stats.bytes_read - read_before
        rows.append([n, f"{simulated_ms:.2f}", f"{wall_ms:.2f}",
                     f"{tail_bytes / 1024:.0f} KiB"])
        recovery_io[n] = tail_bytes
    return rows, recovery_io


def test_fig10_tlb_recovery_is_instant(benchmark):
    rows, recovery_io = benchmark.pedantic(run_figure10, rounds=1, iterations=1)
    report_rows(
        "fig10_tlb_recovery",
        "Figure 10 — TLB recovery time vs. ingested events (DEBS-like)",
        ["Events", "Simulated ms", "Wall ms", "Bytes scanned"],
        rows,
    )
    # The key property: recovery cost does not grow with database size
    # (the paper's curve is flat with a fill-degree sawtooth).
    smallest, largest = recovery_io[SCALES[0]], recovery_io[SCALES[-1]]
    assert largest < smallest * 3, "recovery must touch only the tail"
    # And it is 'instant' relative to a full scan: the 200 K-event
    # database alone takes ~100 simulated *seconds* to rescan.
    for row in rows:
        assert float(row[1]) < 250.0
