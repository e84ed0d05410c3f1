"""Reference tooling no serving node imports: the crash-consistency kit
(``crashkit``), the row-at-a-time query oracle (``oracle``) and the
event-at-a-time ingest model (``ingest``)."""

from repro.testing.crashkit import (
    CrashOutcome,
    MatrixReport,
    check_recovery,
    count_device_writes,
    durable_floor,
    run_crash_matrix,
    run_crash_point,
)

__all__ = [
    "CrashOutcome",
    "MatrixReport",
    "check_recovery",
    "count_device_writes",
    "durable_floor",
    "run_crash_matrix",
    "run_crash_point",
]
