"""The one scenario every workload runs: six phases over the binary wire.

    setup -> load -> (checkpoint) -> paced | probe | delivery -> crash

One generator process (this one) drives one ``ChronicleServer``
subprocess (``serve.py``).  Work is fixed, never time: every count comes
from ``inputs.scaled``.  Calibration samples (``calibrate.py``) are taken
between measurement windows and around each phase.  The host's speed
drifts on a scale of seconds, so the paced, probe and delivery phases
(and the spare set-ups) are cut into ROUNDS slices and run round-robin:
every metric's samples are spread over the same ~15 s instead of each
phase sitting in its own 2–4 s of host weather.  Every operation is
checked — acks, query answers against numpy references, subscription
sequences, the recovered store — and counted as attempted/failed.

See README.md for the phase diagram and the metric definitions.
"""

from __future__ import annotations

import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import deque
from time import perf_counter, perf_counter_ns

import numpy as np

from repro import ChronicleConfig, ChronicleDB, ColumnarEvents, EventSchema
from repro.net.client import BinaryChronicleClient

from . import inputs as gen
from . import params as P
from .calibrate import PhaseCal

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(HERE, ".work")
SRC = os.path.normpath(os.path.join(HERE, "..", "..", "src"))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))

_HUGE = 2**62
_LISTEN_TIMEOUT_S = 60.0
_OP_TIMEOUT_S = 60.0


class BenchmarkError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


def pinning() -> tuple[int | None, int | None]:
    """(generator core, server core): first and last allowed core when
    there are at least two, otherwise no pinning."""
    allowed = sorted(os.sched_getaffinity(0))
    if len(allowed) >= 2:
        return allowed[0], allowed[-1]
    return None, None


def percentile(values, q: float) -> float:
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = q * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail(values, q: float) -> float:
    """The *q* percentile when at least ten samples lie beyond it, else
    the highest percentile that has ten beyond (the median at worst)."""
    n = len(values)
    if n < 20:
        return percentile(values, 0.5)
    return percentile(values, min(q, 1.0 - 10.0 / n))


# ---------------------------------------------------------------- server


class Server:
    """One ``serve.py`` subprocess on a fresh directory."""

    def __init__(self, directory: str, config: dict, cpu, trace: bool):
        self.directory = directory
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [SRC, ROOT] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        # One malloc arena: with glibc's default arena-per-thread, which
        # of the server's ten threads happens to serve a large request
        # decides how fragmented the heap ends up, and peak RSS swings
        # by 15 % between identical runs.
        env.setdefault("MALLOC_ARENA_MAX", "1")
        command = [sys.executable, "-m", "benchmarks.e2e.serve", directory,
                   "--config", json.dumps(config)]
        if cpu is not None:
            command += ["--cpu", str(cpu)]
        if trace:
            command.append("--trace")
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=ROOT, env=env, text=True,
        )
        try:
            words = self._read_line(_LISTEN_TIMEOUT_S).split()
            if len(words) != 3 or words[0] != "LISTENING":
                raise BenchmarkError(f"server said {words!r}, not LISTENING")
        except BaseException:
            self.kill()
            raise
        self.host, self.port = words[1], int(words[2])

    def _read_line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.process.stdout], [], [], timeout)
        if not ready:
            raise BenchmarkError(
                f"server did not answer within {timeout:.0f}s"
            )
        line = self.process.stdout.readline()
        if not line:
            raise BenchmarkError("server exited before answering")
        return line

    @property
    def pid(self) -> int:
        return self.process.pid

    def peak_rss_mib(self) -> float:
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchmarkError("no VmHWM in /proc status")

    def dump_trace(self, path: str) -> None:
        self.process.stdin.write(f"dump {path}\n")
        self.process.stdin.flush()
        if self._read_line(_OP_TIMEOUT_S).strip() != "DUMPED":
            raise BenchmarkError("server did not dump its trace")

    def kill(self) -> None:
        """SIGKILL: no close, no manifest rewrite."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGKILL)
        self.process.wait()
        for pipe in (self.process.stdin, self.process.stdout):
            try:
                pipe.close()
            except OSError:
                pass


# ------------------------------------------------------------ subscriber


class Subscriber:
    """Consumer thread of one subscription: records every received
    timestamp and the receipt time of every pushed batch."""

    def __init__(self, handle, target: int | None = None):
        self.handle = handle
        #: Stop consuming after this many events (None: until finish()).
        self.target = target
        self.ts: list[int] = []
        self.batch_end: list[int] = []  # cumulative event count
        self.batch_ns: list[int] = []  # receipt time of that batch
        self.error: Exception | None = None
        self.max_t = -_HUGE
        self._cond = threading.Condition()
        self._stop = False
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="e2e-subscriber"
        )
        self._thread.start()

    def _run(self) -> None:
        ts = self.ts
        while not self._stop:
            try:
                # A short timeout only so finish() is noticed promptly:
                # a closed handle does not wake its own consumer.
                for batch in self.handle.batches(timeout=0.1):
                    now = perf_counter_ns()
                    stamps = [event.t for event in batch]
                    ts.extend(stamps)
                    self.max_t = max(self.max_t, max(stamps))
                    with self._cond:
                        self.batch_end.append(len(ts))
                        self.batch_ns.append(now)
                        self._cond.notify_all()
                    if self.target is not None and len(ts) >= self.target:
                        return
                return
            except TimeoutError:
                continue
            except Exception as error:  # surfaced by wait()
                if not self._stop:
                    self.error = error
                with self._cond:
                    self._cond.notify_all()
                return

    @property
    def count(self) -> int:
        return self.batch_end[-1] if self.batch_end else 0

    def wait(self, target: int, timeout: float = _OP_TIMEOUT_S) -> bool:
        with self._cond:
            return self._cond.wait_for(
                lambda: self.count >= target or self.error is not None,
                timeout=timeout,
            ) and self.error is None

    def finish(self) -> None:
        self._stop = True
        self.handle.close()
        self._thread.join(timeout=5)

    def time_of_event(self, index) -> np.ndarray:
        """Receipt time (ns) of the event(s) at 0-based *index* in the
        received sequence."""
        ends = np.asarray(self.batch_end)
        times = np.asarray(self.batch_ns)
        return times[np.searchsorted(ends, np.asarray(index), side="right")]


# --------------------------------------------------------------- the run


class Scenario:
    """One pass of the six phases for one workload."""

    def __init__(self, data: gen.Inputs, traced: bool = False,
                 setup_repeats: int = P.SETUP_REPEATS,
                 tap_price: bool = False, log=None):
        self.data = data
        self.wp = data.wp
        self.traced = traced
        self.setup_repeats = setup_repeats
        self.tap_price = tap_price
        self.log = log or (lambda message: None)
        self.schema = EventSchema.of(*P.FIELDS)
        self.config = dict(
            secondary_indexes=self.wp["secondary"],
            time_split_interval=self.wp["time_split_interval"],
        )
        _, self.server_cpu = pinning()
        self.server: Server | None = None
        self.client: BinaryChronicleClient | None = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        #: name -> value of everything measured (raw and normalised).
        self.out: dict[str, float] = {}
        #: phase name -> (start_ns, end_ns), for the trace analysis.
        self.phases: dict[str, tuple[int, int]] = {}
        self.cal: dict[str, PhaseCal] = {}
        #: every query in the order it was sent (trace matching).
        self.query_log: list[gen.Query] = []
        self.acked_events = 0
        self._dirs: list[str] = []
        self._subscribers: list[Subscriber] = []
        self._spare: list = []  # (server, client) of a spare set-up
        #: sub_id of the paced phase's live tail (trace analysis).
        self.live_sub_id: int | None = None
        self.server_trace_path: str | None = None
        self.server_stats: dict = {}
        self._spills = 0
        self._setup_times: list[float] = []
        self._warm: tuple = ()
        self._live_tail: Subscriber | None = None

    # ------------------------------------------------------------ helpers

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(what)

    def _fresh_dir(self, tag: str) -> str:
        os.makedirs(WORK, exist_ok=True)
        path = os.path.join(
            WORK, f"{os.getpid()}-{len(self._dirs)}-{tag}"
        )
        shutil.rmtree(path, ignore_errors=True)
        self._dirs.append(path)
        return path

    def cleanup(self) -> None:
        """Every exit path: subscriber stopped, client closed, server
        killed, temp directories removed."""
        for subscriber in self._subscribers:
            try:
                subscriber.finish()
            except Exception:
                pass
        self._subscribers.clear()
        for server, client in self._spare + [(self.server, self.client)]:
            if client is not None:
                try:
                    client.close()
                except Exception:
                    pass
            if server is not None:
                server.kill()
        self._spare.clear()
        self.server = self.client = None
        for path in self._dirs:
            shutil.rmtree(path, ignore_errors=True)
        self._dirs.clear()

    def _phase_cal(self, name: str) -> PhaseCal:
        return self.cal.setdefault(name, PhaseCal())

    def _events(self, pairs) -> list:
        return [ColumnarEvents(ts, cols) for ts, cols in pairs]

    def _normalise(self, name: str, raw: float, phase: str,
                   rate: bool = False) -> None:
        """Report *raw* as the reference host would have measured it:
        scaled by the phase's calibration to the power of the metric's
        CPU share (see ``params.END_TO_END``)."""
        slowdown = (self.cal[phase].cal_ms / P.CAL_REF_MS) ** P.CPU_SHARE[name]
        self.out[name] = raw * slowdown if rate else raw / slowdown
        self.out[f"client.raw.{name}"] = raw

    def _append_pipelined(self, stream: str, events: list) -> None:
        """Closed loop, one connection, PIPELINE_DEPTH frames in flight."""
        client = self.client
        pending: deque = deque()
        depth = P.PIPELINE_DEPTH
        for batch in events:
            if len(pending) >= depth:
                self._collect(pending.popleft())
            pending.append(
                (client.append_batch_async(stream, batch), len(batch))
            )
        while pending:
            self._collect(pending.popleft())

    def _collect(self, entry) -> None:
        future, size = entry
        self.attempted += 1
        try:
            if future.result(timeout=_OP_TIMEOUT_S) != size:
                self.fail("ack count differs from batch size")
        except Exception as error:
            self.fail(f"append failed: {error}")

    # ------------------------------------------------------------ phase 1

    def _warm_inputs(self):
        """Seed-independent warm-up batches and one query per template,
        for the scratch stream."""
        size = self.wp["batch"]
        n_warm = P.WARM_BATCHES * size
        warm_t, warm_cols = gen.columns(n_warm, np.random.default_rng(0))
        sizes = gen.window_sizes(dict(self.wp, total_events=n_warm))
        queries = [
            gen.make_query(kind, warm_t, warm_cols, 0,
                           min(sizes[kind], n_warm // 2), P.SCRATCH)
            for kind in ("agg", "filter", "select", "group")
        ]
        return gen.to_batches(warm_t, warm_cols, size), queries

    def _setup_once(self, warm_pairs, warm_queries) -> float:
        """Spawn, connect, create streams, warm up; leaves the new pair
        in ``self.server`` / ``self.client`` and returns the seconds."""
        started = perf_counter()
        directory = self._fresh_dir("db")
        self.server = Server(directory, self.config, self.server_cpu,
                             self.traced)
        self.client = BinaryChronicleClient(
            self.server.host, self.server.port, timeout=_OP_TIMEOUT_S
        )
        self.client.create_stream(P.STREAM, self.schema)
        self.client.create_stream(P.SCRATCH, self.schema)
        # Warm-up on the scratch stream: imports, codecs, plan caches.
        self._append_pipelined(P.SCRATCH, self._events(warm_pairs))
        for _ in range(P.WARM_QUERY_REPEATS):
            for query in warm_queries:
                self._run_query(self.client, query, None)
                self.check_answer(query)
        size = len(warm_pairs[0][0])
        handle = self.client.subscribe(
            P.SCRATCH, from_t=0, batch=size, credits=P.SUB_CREDITS
        )
        self.attempted += 1
        try:
            got = handle.take(P.WARM_REPLAY_BATCHES * size,
                              timeout=_OP_TIMEOUT_S)
            if len(got) != P.WARM_REPLAY_BATCHES * size:
                self.fail("warm-up replay came up short")
        except Exception as error:
            self.fail(f"warm-up replay failed: {error}")
        finally:
            handle.close()
        return perf_counter() - started

    def setup(self) -> None:
        """The set-up whose server the rest of the run measures."""
        cal = self._phase_cal("setup")
        self._warm = self._warm_inputs()
        start_ns = perf_counter_ns()
        cal.take(6)
        self._setup_times.append(self._setup_once(*self._warm))
        cal.take(6)
        self.phases["setup"] = (start_ns, perf_counter_ns())

    def spare_setups(self):
        """The remaining set-ups, each on a throw-away server beside the
        (idle) measured one; one per slice, spread over the rounds."""
        cal = self._phase_cal("setup")
        spare = self.setup_repeats - 1
        for _ in range(spare):
            for _ in range(max(1, P.ROUNDS // (spare + 1)) - 1):
                yield
            keep = self.server, self.client
            self.server = self.client = None
            cal.take(4)
            try:
                self._setup_times.append(self._setup_once(*self._warm))
            finally:
                # cleanup() must find the spare pair whatever happened.
                self._spare.append((self.server, self.client))
                self.server, self.client = keep
            cal.take(4)
            server, client = self._spare.pop()
            client.close()
            server.kill()
            shutil.rmtree(server.directory, ignore_errors=True)
            yield

    # ------------------------------------------------------------ phase 2

    def _subscribe(self, stream: str, from_t, batch: int,
                   target: int | None = None) -> Subscriber:
        self.attempted += 1
        handle = self.client.subscribe(
            stream, from_t=from_t, batch=batch, credits=P.SUB_CREDITS,
            queue_max=64 * batch,
        )
        subscriber = Subscriber(handle, target)
        self._subscribers.append(subscriber)
        return subscriber

    def _unsubscribe(self, subscriber: Subscriber) -> None:
        subscriber.finish()
        self._subscribers.remove(subscriber)

    def load(self, stream: str, live: bool, data: gen.Inputs,
             rows: tuple[int, int], phase: str):
        """Closed-loop pipelined ingest in LOAD_WINDOWS equal windows;
        returns the window rates, the live subscriber's window rates
        and the subscriber itself (when live), and the whole-phase mean."""
        lo, hi = rows
        batch = self.wp["batch"]
        events = self._events(gen.batches(data, lo, hi, batch))
        per_window = len(events) // P.LOAD_WINDOWS
        cal = self._phase_cal(phase)
        subscriber = None
        if live:
            subscriber = self._subscribe(stream, None, batch)
        rates, sub_rates = [], []
        window_events = per_window * batch
        start_ns = perf_counter_ns()
        busy = 0.0
        base = subscriber.count if subscriber else 0
        for window in range(P.LOAD_WINDOWS):
            cal.take(1)
            chunk = events[window * per_window : (window + 1) * per_window]
            started = perf_counter()
            self._append_pipelined(stream, chunk)
            acked = perf_counter()
            rates.append(window_events / (acked - started))
            busy += acked - started
            if subscriber is not None:
                self.attempted += 1
                if subscriber.wait(base + (window + 1) * window_events):
                    sub_rates.append(
                        window_events / (perf_counter() - started)
                    )
                else:
                    self.fail(
                        f"live subscriber stalled: {subscriber.error}"
                    )
        cal.take(P.CAL_SAMPLES_PER_PHASE - P.LOAD_WINDOWS)
        self.phases[phase] = (start_ns, perf_counter_ns())
        return rates, sub_rates, subscriber, len(events) * batch / busy

    def load_phase(self) -> None:
        rates, sub_rates, subscriber, mean = self.load(
            P.STREAM, self.wp["live"], self.data, (0, self.data.n_load), "load"
        )
        self.acked_events += self.data.n_load
        self._normalise("ingest_eps", percentile(rates, 0.75), "load",
                        rate=True)
        self.out["client.ingest_mean_eps"] = mean
        self._live_tail = subscriber
        if self.wp["live"]:
            self._check_live_sequence(subscriber, 0)
            # The live tail is this workload's delivery phase.
            self.cal["delivery"] = self.cal["load"]
            self._normalise("delivery_eps", percentile(sub_rates, 0.75),
                            "delivery", rate=True)

    def checkpoint(self) -> None:
        """The ``flush`` wire op between load and paced: drains the
        out-of-order queues and rewrites the manifest, so the store has
        one clean checkpoint naming its splits before the crash."""
        started = perf_counter()
        self.attempted += 1
        try:
            self.client.flush()
        except Exception as error:
            self.fail(f"flush failed: {error}")
        self.out["client.checkpoint_ms"] = (perf_counter() - started) * 1e3

    # ------------------------------------------------------------ phase 3

    def paced(self):
        """Open-loop paced appends in PACE_SEGMENTS segments; a
        generator that yields after every segment (see :meth:`run`)."""
        wp = self.wp
        data = self.data
        size = wp["paced_batch"]
        count = wp["paced_batches"]
        lo = data.n_load
        pairs = gen.batches(data, lo, lo + count * size, size)
        events = self._events(pairs)
        # Marker of batch j: its newest timestamp, when that advances the
        # stream's frontier (a live tail never skips such an event).
        frontier = int(data.t[:lo].max())
        markers = []
        for ts, _ in pairs:
            top = max(ts)
            markers.append(top if top > frontier else None)
            frontier = max(frontier, top)
        subscriber = self._live_tail
        if subscriber is None:
            subscriber = self._subscribe(P.STREAM, None, size)
        self.live_sub_id = subscriber.handle.sub_id
        first_received = subscriber.count
        prober = None
        if wp["live"]:
            prober = LiveProber(self)
        cal = self._phase_cal("paced")
        client = self.client
        interval = wp["pace_ms"] / 1e3
        per_segment = count // P.PACE_SEGMENTS
        due_ns = np.zeros(count, dtype=np.int64)
        ack_ms, late_ms = [], []
        start_ns = perf_counter_ns()
        if prober is not None:
            prober.start()
        for segment in range(P.PACE_SEGMENTS):
            cal.take(P.CAL_SAMPLES_PER_PHASE // P.PACE_SEGMENTS)
            base = perf_counter() + interval
            for k in range(per_segment):
                j = segment * per_segment + k
                due = base + k * interval
                wait = due - perf_counter()
                if wait > 0:
                    time.sleep(wait)
                sent = perf_counter()
                due_ns[j] = int(due * 1e9)
                self.attempted += 1
                try:
                    if client.append_batch(P.STREAM, events[j]) != size:
                        self.fail("paced ack count differs")
                except Exception as error:
                    self.fail(f"paced append failed: {error}")
                ack_ms.append((perf_counter() - due) * 1e3)
                late_ms.append(max(0.0, sent - due) * 1e3)
                self.acked_events += size
            if prober is None and segment < P.PACE_SEGMENTS - 1:
                yield
        if prober is not None:
            prober.stop()
        sent_total = count * size
        self.attempted += 1
        # Late events behind the live cursor are skipped by design, so
        # wait for the newest in-order event rather than for a count.
        last_marker = next(m for m in reversed(markers) if m is not None)
        deadline = time.monotonic() + _OP_TIMEOUT_S
        while subscriber.max_t < last_marker:
            if subscriber.error is not None or time.monotonic() > deadline:
                self.fail(f"live tail stalled: {subscriber.error}")
                break
            subscriber.wait(subscriber.count + 1, timeout=0.5)
        self.phases["paced"] = (start_ns, perf_counter_ns())
        self._hub_snapshot()
        self._unsubscribe(subscriber)
        all_ts = np.asarray(subscriber.ts, dtype=np.int64)
        self._check_paced_sequence(all_ts[first_received:], lo, sent_total)
        # Delivery lag: batch due -> subscriber holds its newest event.
        position = {int(t): i for i, t in enumerate(
            all_ts[first_received:].tolist(), first_received)}
        lag_ms = []
        for j, marker in enumerate(markers):
            index = position.get(marker)
            if index is not None:
                got = int(subscriber.time_of_event(index))
                lag_ms.append((got - due_ns[j]) / 1e6)
        self._normalise("append_ack_p50_ms", percentile(ack_ms, 0.5), "paced")
        self._normalise("delivery_lag_p50_ms", percentile(lag_ms, 0.5),
                        "paced")
        self.out["client.append_ack_p99_ms"] = tail(ack_ms, 0.99)
        self.out["client.delivery_lag_p99_ms"] = tail(lag_ms, 0.99)
        self.out["client.generator_late_p99_ms"] = tail(late_ms, 0.99)
        if prober is not None:
            self.cal["probe"] = self.cal["paced"]
            prober.verify()
            self._probe_metrics(prober.latencies)

    def _check_live_sequence(self, subscriber: Subscriber, start: int) -> None:
        """In-order live tail: exactly the sent timestamps, in order."""
        self.attempted += 1
        got = np.asarray(subscriber.ts, dtype=np.int64)
        want = self.data.t[start : start + len(got)]
        if len(got) != self.data.n_load or not np.array_equal(got, want):
            self.fail("live tail differs from the appended sequence")

    def _check_paced_sequence(self, received, lo, sent_total):
        """(t, k) gap/duplicate check of the paced live tail: no
        timestamp twice, every one of them sent, and everything missing
        was a late arrival (which a live cursor skips by design)."""
        self.attempted += 1
        sent = self.data.t[lo : lo + sent_total]
        late = self.data.late[lo : lo + sent_total]
        if len(np.unique(received)) != len(received):
            self.fail("paced live tail delivered an event twice")
            return
        if not np.isin(received, sent).all():
            self.fail("paced live tail delivered an event never sent")
            return
        missing = ~np.isin(sent, received)
        if (missing & ~late).any():
            self.fail(
                f"paced live tail lost {int((missing & ~late).sum())} "
                "in-order events"
            )

    def _hub_snapshot(self) -> None:
        """Read the hub's per-subscription counters while the
        subscription still exists (they vanish with it)."""
        subs = self.client.stats().get("subscriptions", {}).get("subs", [])
        self._spills += sum(sub["spills"] for sub in subs)

    # ------------------------------------------------------------ phase 4

    def _run_query(self, client, query: gen.Query, latencies) -> None:
        """Time one query; the answer is checked after the phase.  Only
        one thread issues queries at any time (the main thread, or the
        live prober while the main thread only appends), so the log and
        the query's own fields need no lock."""
        self.query_log.append(query)
        started = perf_counter()
        try:
            query.result = client.query(query.sql)
        except Exception as error:
            query.result = error
            return
        if latencies is not None:
            latencies[query.kind].append((perf_counter() - started) * 1e3)

    def check_answer(self, query: gen.Query) -> None:
        """Compare with the numpy reference: aggregates to rel 1e-9,
        selects exactly."""
        self.attempted += 1
        result = query.result
        expected = query.expected
        if result is None or isinstance(result, Exception):
            self.fail(f"{query.kind} query failed: {result}")
            return
        if query.kind == "select":
            got = [(e.t, tuple(e.values)) for e in result]
            if got != expected:
                self.fail(f"select mismatch: {query.sql}")
            return
        rows = result if query.kind == "group" else [result]
        want = expected if query.kind == "group" else [expected]
        ok = len(rows) == len(want)
        for row, ref in zip(rows, want):
            for key, value in ref.items():
                ok = ok and key in row and math.isclose(
                    row[key], value, rel_tol=1e-9, abs_tol=1e-12
                )
        if not ok:
            self.fail(f"{query.kind} mismatch: {query.sql}")

    def probe(self):
        """Closed-loop probe queries in ROUNDS slices; a generator that
        yields after every slice (see :meth:`run`)."""
        queries = self.data.queries
        early = [q for q in queries if not q.recent]
        per_slice = -(-len(early) // P.ROUNDS)
        slices = [early[i : i + per_slice]
                  for i in range(0, len(early), per_slice)]
        # Windows over the newest events wait for the last paced batch,
        # which the last of exactly ROUNDS slices follows.
        slices[-1:-1] = [[]] * (P.ROUNDS - len(slices))
        slices[-1] = slices[-1] + [q for q in queries if q.recent]
        cal = self._phase_cal("probe")
        latencies = {kind: [] for kind in ("agg", "filter", "select", "group")}
        per_cal = max(1, len(queries) // P.CAL_SAMPLES_PER_PHASE)
        start_ns = perf_counter_ns()
        for number, chunk in enumerate(slices):
            if number:
                yield
            for i, query in enumerate(chunk):
                if i % per_cal == 0:
                    cal.take(1)
                self._run_query(self.client, query, latencies)
            cal.take(1)
            self.phases["probe"] = (start_ns, perf_counter_ns())
        for query in queries:
            self.check_answer(query)
        self._probe_metrics(latencies)
        examined = sum(q.hi - q.lo for q in queries
                       if q.kind in ("filter", "select"))
        returned = sum(
            q.expected["count(a)"] if q.kind == "filter" else q.hi - q.lo
            for q in queries if q.kind in ("filter", "select")
        )
        self.out["query.rows_examined_per_row_returned"] = (
            examined / returned if returned else 0.0
        )

    def _probe_metrics(self, latencies: dict) -> None:
        for kind in ("agg", "filter", "select"):
            self._normalise(f"q_{kind}_p50_ms",
                            percentile(latencies[kind], 0.5), "probe")
        self.out["client.q_agg_p99_ms"] = tail(latencies["agg"], 0.99)
        self.out["client.q_filter_p95_ms"] = tail(latencies["filter"], 0.95)
        self.out["client.q_select_p95_ms"] = tail(latencies["select"], 0.95)
        self.out["client.q_group_p50_ms"] = percentile(
            latencies.get("group", []), 0.5
        )
        self.out["client.probe_samples_min"] = min(
            len(latencies[kind]) for kind in ("agg", "filter", "select")
        )

    # ------------------------------------------------------------ phase 5

    def delivery(self):
        """Replay of ``delivery_events`` events in DELIVERY_WINDOWS equal
        windows, each its own subscription starting where the previous
        one stopped (wrapping around the loaded range), with calibration
        samples between windows.  A window's rate is measured at the
        subscriber, from its first pushed batch to its last, so the
        subscribe round trip is in no window.  A generator that yields
        after every DELIVERY_WINDOWS / ROUNDS windows (see :meth:`run`)."""
        wp = self.wp
        batch = wp["batch"]
        per_window = wp["delivery_events"] // P.DELIVERY_WINDOWS
        per_round = max(1, P.DELIVERY_WINDOWS // P.ROUNDS)
        cal = self._phase_cal("delivery")
        rt = self.data.rt
        rates = []
        start_ns = perf_counter_ns()
        usable = self.data.n_load // per_window * per_window
        for window in range(P.DELIVERY_WINDOWS):
            cal.take(2)
            first = window * per_window % usable
            subscriber = self._subscribe(P.STREAM, int(rt[first]), batch,
                                         target=per_window)
            ok = subscriber.wait(per_window)
            if window == P.DELIVERY_WINDOWS - 1:
                self._hub_snapshot()
            self._unsubscribe(subscriber)
            self.attempted += 1
            got = np.asarray(subscriber.ts[:per_window], dtype=np.int64)
            if not ok or not np.array_equal(
                got, rt[first : first + per_window]
            ):
                self.fail(f"replay window {window} differs from the stored "
                          f"sequence: {subscriber.error}")
                continue
            edges = np.asarray([batch - 1, per_window - 1])
            t0, t1 = subscriber.time_of_event(edges)
            rates.append((per_window - batch) / ((t1 - t0) / 1e9))
            self.phases["delivery"] = (start_ns, perf_counter_ns())
            if (window + 1) % per_round == 0 and window + 1 < P.DELIVERY_WINDOWS:
                yield
        self._normalise("delivery_eps", percentile(rates, 0.75),
                        "delivery", rate=True)

    # ------------------------------------------------------------ phase 6

    def crash(self) -> None:
        wp = self.wp
        cal = self._phase_cal("crash")
        self.attempted += 1
        stats = self.client.stats()
        self.server_stats = stats
        devices = {
            key: value for key, value in stats["devices"].items()
            if key.startswith(P.STREAM + "/")
        }
        user_bytes = self.acked_events * P.USER_BYTES_PER_EVENT
        stored = sum(d["size_bytes"] for d in devices.values())
        self.out["stored_bytes_per_user_byte"] = stored / user_bytes
        self.out["server_peak_rss_mb"] = self.server.peak_rss_mib()
        written = sum(d["bytes_written"] for d in devices.values())
        logs = sum(d["bytes_written"] for key, d in devices.items()
                   if key.endswith((".wal", ".mirror")))
        self.out["simdisk.bytes_written_per_user_byte"] = written / user_bytes
        self.out["ooo.log_bytes_per_user_byte"] = logs / user_bytes
        stream_stats = stats["streams"][P.STREAM]
        splits = stream_stats["splits"]
        self.out["ooo.queue_flushes"] = sum(s["queue_flushes"] for s in splits)
        self.out["ooo.late_share"] = (
            sum(s["queued_inserts"] for s in splits) / self.acked_events
        )
        self.out["core.split.seals"] = sum(1 for s in splits if s["sealed"])
        subs = stats.get("subscriptions", {}).get("subs", [])
        self.out["sub.hub.spills"] = self._spills + sum(
            sub["spills"] for sub in subs
        )
        if self.traced:
            self.server_trace_path = os.path.join(
                WORK, f"server-spans-{os.getpid()}.json"
            )
            self.server.dump_trace(self.server_trace_path)
        directory = self.server.directory
        self.client.close()
        self.client = None
        self.server.kill()
        config = ChronicleConfig(**self.config)
        times = []
        start_ns = perf_counter_ns()
        for k in range(wp["recovery_copies"]):
            copy = self._fresh_dir(f"copy{k}")
            shutil.copytree(directory, copy)
            cal.take(5)
            started = perf_counter()
            db = ChronicleDB.open(copy, config)
            stream = db.get_stream(P.STREAM)
            recovered = stream.stats()["appended"]
            times.append(perf_counter() - started)
            if k == 0:
                self.out["recovery.bytes_read"] = sum(
                    d["bytes_read"] for d in db.devices.stats().values()
                )
                self._check_recovered(db, stream)
            del recovered
            db.devices.close()
            shutil.rmtree(copy, ignore_errors=True)
        cal.take(5)
        self.phases["crash"] = (start_ns, perf_counter_ns())
        self._normalise("recovery_s", statistics.median(times), "crash")

    def _check_recovered(self, db, stream) -> None:
        """The recovered events are exactly the acknowledged ones minus
        the newest few: a time-order prefix, values intact, and fewer
        than one leaf's worth missing (the open leaf is memory-only)."""
        self.attempted += 1
        try:
            db.flush()  # drain re-queued late events into the trees
            ts, bs = [], []
            for leaf, lo, hi in stream.leaf_slices(-_HUGE, _HUGE,
                                                   time_order=True):
                ts.extend(leaf.timestamps[lo:hi])
                bs.extend(leaf.column(1)[lo:hi])
        except Exception as error:
            self.fail(f"recovered store unreadable: {error}")
            return
        got_t = np.asarray(ts, dtype=np.int64)
        got_b = np.asarray(bs, dtype=np.float64)
        order = np.argsort(got_t, kind="stable")
        got_t, got_b = got_t[order], got_b[order]
        want_t, want_b = self.data.rt, self.data.rcols[1]
        self.out["recovery.events_lost"] = self.acked_events - len(got_t)
        # Per time split: what came back are acknowledged events, each
        # once, values intact, and the few that are gone are among the
        # split's newest.  A crash may take the open leaf and whatever
        # sits in the open macro block (memory-only until the macro
        # fills) — allowed here: two leaves plus what a macro block
        # holds at 3:1 compression — while late events of the same
        # time range survive in the
        # mirror log, so the survivors need not be a strict prefix.
        if len(np.unique(got_t)) != len(got_t):
            self.fail("recovery returned an event twice")
            return
        interval = self.wp["time_split_interval"] or (int(want_t[-1]) + 1)
        tree = stream.splits[-1].tree
        layout = tree.layout
        allowed = tree.leaf_write_capacity * (
            2 + 3 * layout.macro_size // layout.lblock_size
        )
        queue_capacity = stream.config.queue_capacity
        for index in range(int(want_t[-1]) // interval + 1):
            lo, hi = index * interval, (index + 1) * interval
            w0, w1 = np.searchsorted(want_t, [lo, hi])
            g0, g1 = np.searchsorted(got_t, [lo, hi])
            kept = np.isin(want_t[w0:w1], got_t[g0:g1])
            lost = np.flatnonzero(~kept)
            if int(kept.sum()) != g1 - g0 or not np.array_equal(
                want_b[w0:w1][kept], got_b[g0:g1]
            ):
                self.fail(f"recovered split {index} holds events that "
                          "were never acknowledged")
            elif len(lost) >= allowed:
                self.fail(f"recovery lost {len(lost)} events of split "
                          f"{index} (allowed: fewer than {allowed})")
            elif len(lost) and lost[0] < (w1 - w0) - allowed - queue_capacity:
                self.fail(f"recovery lost an old event of split {index}")

    # ---------------------------------------------------------- tap price

    def tap_price_phase(self) -> None:
        """Same batches, same depth, on a third stream: first without,
        then with a live-tail subscriber.  The ratio of the two p75
        window rates is what the hub tap costs the writer."""
        self.client.create_stream("tap", self.schema)
        n = self.data.n_load
        half = (n // 2 // (P.LOAD_WINDOWS * self.wp["batch"])) * (
            P.LOAD_WINDOWS * self.wp["batch"]
        )
        if half == 0:
            self.out["sub.ingest_slowdown_x"] = 0.0
            return
        # In-order rows only, so both halves do the same kind of work.
        order = np.argsort(self.data.t[:n], kind="stable")
        in_order = gen.Inputs(
            self.data.workload, self.data.seed, self.wp,
            t=self.data.t[:n][order],
            cols=[col[:n][order] for col in self.data.cols],
        )
        plain, _, _, _ = self.load("tap", False, in_order, (0, half),
                                   "tap_plain")
        tapped, _, subscriber, _ = self.load(
            "tap", True, in_order, (half, 2 * half), "tap_live"
        )
        self._hub_snapshot()
        self._unsubscribe(subscriber)
        self.out["sub.ingest_slowdown_x"] = (
            percentile(plain, 0.75) / percentile(tapped, 0.75)
        )

    # ------------------------------------------------------------ driver

    def run(self) -> None:
        started = perf_counter()

        def done(phase: str) -> None:
            self.log(f"{phase} done at {perf_counter() - started:.1f}s")

        try:
            self.setup()
            done("setup")
            if self.tap_price:
                self.tap_price_phase()
                done("tap price")
            self.load_phase()
            done("load")
            self.checkpoint()
            if self.wp["live"]:
                # The prober must not overlap a spare set-up.
                for _ in self.spare_setups():
                    pass
                slices = [self.paced()]
            else:
                slices = [self.paced(), self.probe(), self.delivery(),
                          self.spare_setups()]
            # Round-robin over the phases' slices until all are done.
            while slices:
                for phase in list(slices):
                    if next(phase, self) is self:
                        slices.remove(phase)
            self._normalise("setup_s", statistics.median(self._setup_times),
                            "setup")
            done("paced, probe, delivery")
            self.crash()
            done("crash")
            self.out["client.cal_ms"] = statistics.median(
                sample for cal in self.cal.values() for sample in cal.samples
            )
            for phase, cal in self.cal.items():
                self.out[f"client.cal.{phase}_ms"] = cal.cal_ms
        finally:
            self.cleanup()


class LiveProber:
    """``live_rw``: the probe templates cycling on a second connection
    for exactly as long as the paced writer runs.  Windows are drawn
    over the most recent acknowledged events at send time, so every
    answer has an exact reference (appends are in order)."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.client = BinaryChronicleClient(
            scenario.server.host, scenario.server.port, timeout=_OP_TIMEOUT_S
        )
        self.latencies = {kind: [] for kind in ("agg", "filter", "select",
                                                "group")}
        self.done: list[gen.Query] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, daemon=True, name="e2e-prober"
        )

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        scenario = self.scenario
        data = scenario.data
        recent = scenario.wp["recent_events"]
        sizes = gen.window_sizes(scenario.wp)
        sizes["agg"] = recent // 3
        draws = data.live_draws
        i = 0
        kinds = ("agg", "filter", "select")
        while not self._stop.is_set():
            kind = kinds[i % 3]
            size = sizes[kind]
            frontier = scenario.acked_events
            lo = frontier - recent + int(
                draws[i % len(draws)] * (recent - size)
            )
            query = gen.make_query(kind, data.rt, data.rcols, lo, lo + size,
                                   P.STREAM, with_expected=False)
            scenario._run_query(self.client, query, self.latencies)
            self.done.append(query)
            i += 1

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=_OP_TIMEOUT_S)
        self.client.close()

    def verify(self) -> None:
        data = self.scenario.data
        for query in self.done:
            if query.kind == "agg":
                query.expected = gen.agg_expected(data.rcols, query.lo,
                                                  query.hi)
            elif query.kind == "filter":
                query.expected = gen.filter_expected(
                    data.rcols, query.lo, query.hi, query.theta
                )
            else:
                query.expected = gen.select_expected(
                    data.rt, data.rcols, query.lo, query.hi
                )
            self.scenario.check_answer(query)
