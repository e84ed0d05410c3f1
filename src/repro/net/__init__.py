"""Network API (paper, Figure 1: "Network API").

ChronicleDB "supports an embedded as well as a network mode"
(Section 3.3).  This package provides the standalone-server mode: a
thread-per-connection server (:mod:`repro.net.aio`) wrapping a
:class:`~repro.core.chronicle.ChronicleDB` and speaking one protocol —
pipelined binary frames (:mod:`repro.net.frames`,
:class:`BinaryChronicleClient`) in which events always travel as
columnar batch payloads and control ops as JSON payloads.
"""

from repro.net.client import BinaryChronicleClient
from repro.net.server import ChronicleServer

__all__ = ["BinaryChronicleClient", "ChronicleServer"]
