"""Host-speed calibration: a fixed stdlib-only loop sampled inside the run.

On a shared two-core box identical code drifts by 9–16 % from run to
run, a whole run being uniformly slow when a neighbour is busy.  The
loop below does the three things the program under test spends its
time on — zlib, ``struct`` unpacking and interpreter bytecode — on a
fixed input, so its duration tracks how fast this host is *right now*.
It is sampled between measurement windows and around every phase; a
phase's ``cal`` is the median of its samples, and every time-derived
end-to-end metric is reported as if the host ran the loop in exactly
``params.CAL_REF_MS``:

    duration_normalised = duration_raw * (CAL_REF_MS / cal) ** cpu_share
    rate_normalised     = rate_raw     * (cal / CAL_REF_MS) ** cpu_share

where ``cpu_share`` (``params.END_TO_END``) is the share of the metric's
time that is CPU work: 1 for everything but the paced round trips, which
are half thread hand-offs the loop cannot see (0.5).

The un-normalised value is always reported beside it (``client.raw.*``).
"""

from __future__ import annotations

import statistics
import struct
import zlib
from time import perf_counter_ns



def _block() -> bytes:
    """32 KiB of LCG bytes, two thirds of them six-bit: compressible,
    but not trivially so — zlib has real work to do."""
    x = 12345
    out = bytearray()
    for i in range(32 * 1024):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        out.append((x >> 16) & (0x3F if i % 3 else 0xFF))
    return bytes(out)


_BLOCK = _block()
_UNPACK = struct.Struct(f"<{len(_BLOCK) // 8}q").unpack


def _loop() -> int:
    started = perf_counter_ns()
    zlib.compress(_BLOCK, 1)
    _UNPACK(_BLOCK)
    total = 0
    for i in range(20_000):
        total += i & 7
    return perf_counter_ns() - started


def sample() -> float:
    """One calibration sample in ms: the fastest of three back-to-back
    loops (interference only ever adds time)."""
    return min(_loop(), _loop(), _loop()) / 1e6


class PhaseCal:
    """Collects the calibration samples of one phase.

    Samples are taken on the generator's core while the server's core
    is idle.  (Sampling both cores at once was tried and made things
    worse: the two vCPUs of the reference box slow each other down by
    ~40 % when both are busy, so two concurrent loops mostly measure
    each other.)
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def take(self, count: int = 1) -> None:
        for _ in range(count):
            self.samples.append(sample())

    @property
    def cal_ms(self) -> float:
        return statistics.median(self.samples)


if __name__ == "__main__":
    cal = PhaseCal()
    cal.take(200)
    ordered = sorted(cal.samples)
    print(f"calibration loop: median {cal.cal_ms:.4f} ms, "
          f"p10 {ordered[20]:.4f} ms, p90 {ordered[180]:.4f} ms")
