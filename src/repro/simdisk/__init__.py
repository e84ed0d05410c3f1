"""Simulated storage substrate.

The paper evaluates on a desktop HDD (~124 MiB/s sequential, milliseconds
per seek) plus an SSD for the out-of-order logs.  A laptop-scale Python
reproduction cannot honestly reproduce those wall-clock numbers, so this
package provides a byte-accurate storage backend combined with a
*calibrated cost model*: every read/write charges simulated time for
sequential transfer and for seeks, and higher layers count the work
(events serialized, bytes compressed...) that the clock prices as CPU
time.  Benchmarks report throughput in simulated time, which preserves
the shape of every experiment (see DESIGN.md).
"""

from repro.simdisk.clock import SimulatedClock
from repro.simdisk.cost import CpuCostModel
from repro.simdisk.disk import (
    DiskModel,
    HDD_2017,
    INSTANT,
    IOStats,
    SSD_2017,
    SimulatedDisk,
)
from repro.simdisk.faults import FaultPlan

__all__ = [
    "CpuCostModel",
    "DiskModel",
    "FaultPlan",
    "HDD_2017",
    "INSTANT",
    "IOStats",
    "SSD_2017",
    "SimulatedClock",
    "SimulatedDisk",
]
