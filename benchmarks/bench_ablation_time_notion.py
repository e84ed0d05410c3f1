"""Ablation: application-time vs. system-time ordering (Section 5.7).

The paper's two out-of-order designs head-to-head.  System-time ordering
makes every arrival a pure append (no queue, no spare space, no WAL) —
ingest stays at the in-order rate regardless of the out-of-order
fraction.  The price is query processing: application-time ranges and
aggregates degrade from logarithmic index descents to pruning scans over
the ``app_time`` lightweight index.  ChronicleDB picks the second
solution; this ablation shows the trade-off it weighs.
"""

from benchmarks.common import cold_caches, make_chronicle, report_rows
from repro.core.config import ChronicleConfig
from repro.core.devices import DeviceProvider
from repro.core.system_time import SystemTimeStream
from repro.datasets import CdsDataset, make_out_of_order
from repro.simdisk import CpuCostModel, SimulatedClock

EVENTS = 30_000
FRACTIONS = [0.0, 0.05, 0.10]


def run_application_time(fraction):
    dataset = CdsDataset(seed=0)
    db, stream, clock = make_chronicle(dataset.schema, lblock_spare=0.10)
    workload = make_out_of_order(
        dataset.events(EVENTS), fraction, "uniform", bulk_every=10_000, seed=1
    )
    clock.reset()
    stream.append_many(workload)
    stream.flush()
    ingest = EVENTS / clock.now
    cold_caches(stream)
    clock.reset()
    t_hi = EVENTS * dataset.time_step
    stream.aggregate(0, t_hi, "cpu_user", "avg")
    return ingest, clock.now


def run_system_time(fraction):
    dataset = CdsDataset(seed=0)
    clock = SimulatedClock(CpuCostModel())
    config = ChronicleConfig(data_disk="hdd", log_disk="ssd")
    devices = DeviceProvider(data_model="hdd", log_model="ssd", clock=clock)
    stream = SystemTimeStream("bench", dataset.schema, config, devices)
    workload = make_out_of_order(
        dataset.events(EVENTS), fraction, "uniform", bulk_every=10_000, seed=1
    )
    clock.reset()
    stream.append_many(workload)
    stream.flush()
    ingest = EVENTS / clock.now
    cold_caches(stream.stream)
    clock.reset()
    t_hi = EVENTS * dataset.time_step
    stream.aggregate(0, t_hi, "cpu_user", "avg")
    return ingest, clock.now


def run_ablation():
    rows = []
    results = {}
    for fraction in FRACTIONS:
        app_ingest, app_query = run_application_time(fraction)
        sys_ingest, sys_query = run_system_time(fraction)
        results[fraction] = (app_ingest, app_query, sys_ingest, sys_query)
        rows.append([
            f"{fraction:.0%}",
            f"{app_ingest / 1e3:.0f}K",
            f"{app_query * 1e6:.0f} us",
            f"{sys_ingest / 1e3:.0f}K",
            f"{sys_query * 1e6:.0f} us",
        ])
    return rows, results


def test_ablation_time_notion(benchmark):
    rows, results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)
    report_rows(
        "ablation_time_notion",
        "Ablation — app-time vs. system-time ordering (CDS, full-range agg)",
        ["ooo", "app ingest", "app agg query", "sys ingest", "sys agg query"],
        rows,
    )

    # System-time ingest is insensitive to the out-of-order fraction...
    assert results[0.10][2] > 0.8 * results[0.0][2]
    # ...while application-time ingest degrades with it.
    assert results[0.10][0] < 0.5 * results[0.0][0]
    # The price: aggregate queries are far cheaper with app-time ordering
    # (logarithmic entry statistics vs. a pruning scan).
    assert results[0.0][1] < results[0.0][3] / 10
    # At zero ooo, both ingest at comparable (high) rates.
    assert results[0.0][2] > 0.5 * results[0.0][0]
