"""Figure 9: throughput as a function of the compression rate.

The paper writes blocks with a *hypothetical* constant compression rate
through (a) ChronicleDB's interleaved layout and (b) the separate-mapping
layout, and reports MiB/s of logical data against the ~124 MiB/s
sequential disk speed.  Expected shape:

* ChronicleDB read/write scale ≈ linearly with the compression rate,
  reaching ≈4× disk speed at 75 %;
* without compression ChronicleDB writes at disk speed while the
  separate layout drops to ~58 % of it (71.59 vs 123.89 MiB/s);
* the separate layout's seek overhead keeps it below the interleaved
  layout at every rate.
"""

from benchmarks.common import report_rows
from repro.compression import OracleCompressor
from repro.simdisk import HDD_2017, SimulatedClock, SimulatedDisk
from repro.simdisk.disk import MIB
from repro.simdisk.spindle import Spindle
from repro.storage import ChronicleLayout, SeparateLayout
from repro.storage.prefetch import SequentialBlockReader

LBLOCK = 8192
MACRO = 32768
BLOCKS = 2500  # ~20 MiB of logical data per configuration
RATES = [0.0, 0.25, 0.50, 0.75]
DISK_SPEED_MIB = HDD_2017.seq_write_bps / MIB


def _block(i: int) -> bytes:
    return bytes([i % 251]) * LBLOCK  # content irrelevant to the oracle


def run_chronicle(rate: float) -> tuple[float, float]:
    clock = SimulatedClock()
    disk = SimulatedDisk(HDD_2017, clock)
    layout = ChronicleLayout.create(
        disk,
        lblock_size=LBLOCK,
        macro_size=MACRO,
        compressor=OracleCompressor(rate=rate),
    )
    clock.reset()
    for i in range(BLOCKS):
        layout.append_block(_block(i))
    layout.flush()
    write_rate = BLOCKS * LBLOCK / MIB / clock.now
    clock.reset()
    reader = SequentialBlockReader(layout)
    for i in range(BLOCKS):
        reader.get(i)
    read_rate = BLOCKS * LBLOCK / MIB / clock.now
    return write_rate, read_rate


def run_separate(rate: float) -> tuple[float, float]:
    clock = SimulatedClock()
    spindle = Spindle(HDD_2017, clock)
    layout = SeparateLayout(
        spindle,
        lblock_size=LBLOCK,
        macro_size=MACRO,
        compressor=OracleCompressor(rate=rate),
    )
    clock.reset()
    for i in range(BLOCKS):
        layout.append_block(_block(i))
    layout.flush()
    write_rate = BLOCKS * LBLOCK / MIB / clock.now
    clock.reset()
    for i in range(BLOCKS):
        layout.read_block(i)
    read_rate = BLOCKS * LBLOCK / MIB / clock.now
    return write_rate, read_rate


def run_figure9():
    rows = []
    results = {}
    for rate in RATES:
        cw, cr = run_chronicle(rate)
        sw, sr = run_separate(rate)
        rows.append([f"{rate:.0%}", cw, cr, sw, sr])
        results[rate] = (cw, cr, sw, sr)
    return rows, results


def test_fig09_storage_layout_throughput(benchmark):
    rows, results = benchmark.pedantic(run_figure9, rounds=1, iterations=1)
    rows.append(["disk speed", DISK_SPEED_MIB, DISK_SPEED_MIB, "-", "-"])
    report_rows(
        "fig09_storage_layout",
        "Figure 9 — logical MiB/s vs. hypothetical compression rate",
        ["Rate", "ChronicleDB write", "ChronicleDB read",
         "Separate write", "Separate read"],
        rows,
    )

    cw0, _, sw0, _ = results[0.0]
    # Uncompressed: interleaved layout ≈ sequential disk speed.
    assert cw0 > 0.93 * DISK_SPEED_MIB
    # The separate layout pays for mapping seeks (paper: 58 % of disk speed).
    assert sw0 < 0.85 * cw0
    # Near-linear scaling with the compression rate.
    cw75, cr75, _, _ = results[0.75]
    assert cw75 > 3.0 * cw0
    assert cr75 > 2.5 * results[0.0][1]
    # The interleaved layout wins at every rate.
    for rate in RATES:
        cw, cr, sw, sr = results[rate]
        assert cw > sw
