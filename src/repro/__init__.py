"""ChronicleDB reproduction — a high-performance event store.

A full Python implementation of "ChronicleDB: A High-Performance Event
Store" (Seidemann & Seeger, EDBT 2017): the interleaved compressed
storage layout with a software TLB, the TAB+-tree with lightweight
aggregate indexing, LSM/COLA secondary indexes, time splits and partial
indexing, out-of-order ingestion with instant recovery, plus the
simulated-hardware substrate and competitor baselines used to reproduce
the paper's evaluation (see DESIGN.md and EXPERIMENTS.md).

Quickstart::

    from repro import ChronicleDB, ChronicleConfig, Event, EventSchema

    db = ChronicleDB()
    stream = db.create_stream("sensors", EventSchema.of("temp", "load"))
    stream.append(Event.of(1_000, 21.5, 0.3))
    events = list(stream.time_travel(0, 2_000))
    average = stream.aggregate(0, 2_000, "temp", "avg")
"""

from repro.core.chronicle import ChronicleDB
from repro.core.config import ChronicleConfig
from repro.core.scheduler import LoadScheduler, Pressure
from repro.core.stream import EventStream
from repro.core.system_time import SystemTimeStream
from repro.errors import ChronicleError
from repro.events.event import ColumnarEvents, Event
from repro.events.schema import EventSchema, Field, FieldKind
from repro.index.queries import AttributeRange
from repro.simdisk import CpuCostModel, SimulatedClock

__version__ = "1.0.0"

__all__ = [
    "AttributeRange",
    "ChronicleConfig",
    "ChronicleDB",
    "ChronicleError",
    "ColumnarEvents",
    "CpuCostModel",
    "Event",
    "EventSchema",
    "EventStream",
    "Field",
    "FieldKind",
    "LoadScheduler",
    "Pressure",
    "SimulatedClock",
    "SystemTimeStream",
    "__version__",
]
