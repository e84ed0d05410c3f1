"""ChronicleDB's engine layer: configuration, streams, splits, scheduling.

`ChronicleDB` is the facade (serverless-library mode, Section 1); an
`EventStream` manages time splits (Section 5.4), each pairing a TAB+-tree
with optional secondary indexes and an out-of-order manager; the
`LoadScheduler` implements partial indexing under overload (Section 5.5).
The queue/worker topology of Figure 2 lives in the server
(`repro.net.server`): per-connection reader and worker threads in front
of per-stream locks.
"""

from repro.core.chronicle import ChronicleDB
from repro.core.config import ChronicleConfig
from repro.core.scheduler import LoadScheduler
from repro.core.stream import EventStream

__all__ = [
    "ChronicleConfig",
    "ChronicleDB",
    "EventStream",
    "LoadScheduler",
]
