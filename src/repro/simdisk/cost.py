"""CPU cost model.

The paper's ingestion is CPU-bound at high compression throughput
("the system is CPU-bound due to overheads for compression and
serialization", Section 7.5).  This model prices the work the engine's
layers count on the :class:`~repro.simdisk.clock.SimulatedClock`, per
event and per byte; a clock built with a model reports the priced sum
as its CPU time.  Defaults are calibrated so that single-worker
ChronicleDB ingestion of the CDS-like data set lands near the paper's
~1.2 M events/s (Figures 11 and 14).
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CpuCostModel:
    """Per-unit simulated CPU costs, in seconds: one field per work
    counter of the clock (:data:`repro.simdisk.clock.WORK_UNITS`).

    The defaults model the paper's 3.4 GHz quad-core desktop running a
    single ingestion worker.
    """

    #: Serializing one event into the PAX buffer of the open leaf.
    serialize_event: float = 5.0e-7
    #: Compressing one byte of an L-block (LZ4-class fast codec).
    compress_byte: float = 6.0e-10
    #: Decompressing one byte.
    decompress_byte: float = 3.0e-10
    #: Deserializing one event out of a leaf during scans.
    deserialize_event: float = 1.5e-7
    #: Fixed cost of a tree-node visit during queries (binary search etc.).
    node_visit: float = 2.0e-6
    #: Inserting one event into an in-memory sorted structure (ooo queue,
    #: memtable, right-flank sorted insert).
    sorted_insert: float = 8.0e-7
    #: Slicing one value out of a PAX column during a columnar batch
    #: decode.  Far below :attr:`deserialize_event`: a column unpacks as
    #: one bulk operation instead of one object construction per row.
    decode_value: float = 1.0e-8
