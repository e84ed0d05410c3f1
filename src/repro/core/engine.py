"""The storage engine topology: event queues, workers, disks (Figure 2).

Event queues decouple ingestion from persistence and absorb bursts; each
worker thread drains its assigned queues and appends to the streams bound
to them.  The load scheduler watches queue depths to decide when to shed
secondary indexing (Section 5.5).

Two modes:

* **synchronous** (``workers=0``): ``ingest`` appends inline — fully
  deterministic, used by benchmarks with the simulated clock;
* **threaded** (``workers>=1``): real worker threads, demonstrating the
  paper's architecture and providing backpressure semantics.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass

from repro.core.stream import EventStream
from repro.errors import ChronicleError, ConfigError, IngestError
from repro.events.event import Event

_STOP = object()


@dataclass
class IngestFailure:
    """One failed asynchronous append, kept for :meth:`StorageEngine.check`."""

    stream: str
    error: ChronicleError


class StorageEngine:
    """Queues + workers in front of a set of event streams."""

    def __init__(self, workers: int = 0, queue_size: int = 100_000):
        if workers < 0:
            raise ConfigError("workers must be >= 0")
        self.worker_count = workers
        self.queue_size = queue_size
        self._streams: dict[str, EventStream] = {}
        self._queues: dict[str, queue.Queue] = {}
        self._assignment: dict[str, int] = {}
        self._workers: list[threading.Thread] = []
        self._locks: dict[str, threading.Lock] = {}
        self._started = False
        #: Typed failure surface: synchronous mode raises in the caller;
        #: worker threads record failures here instead of dying silently.
        self.failures: list[IngestFailure] = []

    def register_stream(self, stream: EventStream) -> None:
        """Attach a stream; it gets its own event queue (Figure 2)."""
        if stream.name in self._streams:
            raise ConfigError(f"stream {stream.name!r} already registered")
        self._streams[stream.name] = stream
        self._queues[stream.name] = queue.Queue(self.queue_size)
        self._locks[stream.name] = threading.Lock()
        if self.worker_count:
            self._assignment[stream.name] = (
                len(self._assignment) % self.worker_count
            )

    def start(self) -> None:
        """Launch the worker threads (no-op in synchronous mode)."""
        if self._started or not self.worker_count:
            return
        self._started = True
        for worker_id in range(self.worker_count):
            names = [n for n, w in self._assignment.items() if w == worker_id]
            thread = threading.Thread(
                target=self._worker_loop, args=(names,), daemon=True,
                name=f"chronicle-worker-{worker_id}",
            )
            thread.start()
            self._workers.append(thread)

    def ingest(self, stream_name: str, event: Event) -> None:
        """Enqueue (threaded) or directly append (synchronous) one event."""
        stream = self._streams[stream_name]
        if not self.worker_count:
            stream.append(event)
            return
        q = self._queues[stream_name]
        q.put(event)
        stream.scheduler.report_queue_depth(q.qsize())

    def ingest_batch(self, stream_name: str, events) -> int:
        """Ingest a batch as one unit; returns the number of events.

        Synchronous mode appends through the stream's vectorized fast
        path.  Threaded mode enqueues the *list* as a single queue item,
        so the worker pays the lock/queue overhead once per batch and
        drains it with one ``append_batch`` call.  (A batch counts as one
        item in :meth:`queue_depth`.)
        """
        stream = self._streams[stream_name]
        if not isinstance(events, list):
            events = list(events)
        if not self.worker_count:
            return stream.append_batch(events)
        if events:
            q = self._queues[stream_name]
            q.put(events)
            stream.scheduler.report_queue_depth(q.qsize())
        return len(events)

    def queue_depth(self, stream_name: str) -> int:
        return self._queues[stream_name].qsize()

    def _worker_loop(self, names: list[str]) -> None:
        # A worker round-robins over its queues as long as they are
        # non-empty (Section 3.2).
        queues = [(name, self._queues[name]) for name in names]
        stopped = set()
        while len(stopped) < len(queues):
            progressed = False
            for name, q in queues:
                if name in stopped:
                    continue
                try:
                    item = q.get(timeout=0.01)
                except queue.Empty:
                    continue
                if item is _STOP:
                    stopped.add(name)
                    continue
                try:
                    with self._locks[name]:
                        # A single event is a batch of one.
                        batch = item if isinstance(item, list) else (item,)
                        self._streams[name].append_batch(batch)
                except ChronicleError as error:
                    # Keep draining: a crashed device keeps raising, so
                    # every lost item leaves a typed record behind.
                    self.failures.append(IngestFailure(name, error))
                progressed = True
            if not progressed:
                continue

    def drain(self) -> None:
        """Block until every queue is empty (threaded mode)."""
        for q in self._queues.values():
            while not q.empty():
                time.sleep(0.005)

    def check(self) -> None:
        """Raise :class:`IngestError` if any asynchronous append failed.

        Call after :meth:`drain`/:meth:`stop`; :attr:`failures` keeps the
        full per-item record for callers that want more than the first.
        """
        if self.failures:
            failure = self.failures[0]
            raise IngestError(
                f"{len(self.failures)} append(s) failed; first on stream "
                f"{failure.stream!r}: {failure.error}"
            ) from failure.error

    def stats(self) -> dict:
        """Engine-wide snapshot: per-stream state plus queue depths.

        Each stream is snapshotted under its ingest lock, so in threaded
        mode the per-stream numbers are internally consistent (never read
        mid-append); queue depths are sampled alongside, making
        ``appended + queued`` a faithful lower bound of accepted events.
        """
        streams = {}
        depths = {}
        for name, stream in self._streams.items():
            with self._locks[name]:
                streams[name] = stream.stats()
            depths[name] = self._queues[name].qsize()
        return {
            "workers": self.worker_count,
            "failures": len(self.failures),
            "queue_depths": depths,
            "streams": streams,
        }

    def stop(self) -> None:
        """Stop workers after draining outstanding events."""
        if not self._started:
            return
        for name in self._assignment:
            self._queues[name].put(_STOP)
        for thread in self._workers:
            thread.join(timeout=30)
        self._workers.clear()
        self._started = False

    @property
    def streams(self) -> dict[str, EventStream]:
        return dict(self._streams)
