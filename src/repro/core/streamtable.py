"""Multi-tenant stream-state management: LRU activation and eviction.

A deployment hosting tens of thousands of tenant streams cannot keep
every stream's write path (active block, OOO queues, tree flank,
tier state) resident — but at any moment only a small working set is
hot.  :class:`StreamTable` is a drop-in replacement for the plain
``ChronicleDB.streams`` dict that keeps at most ``max_active`` streams
*activated* and parks the rest as **passive state**: the stream is
flushed, its manifest state captured, and its Python object graph
dropped.  Devices are owned by the :class:`~repro.core.devices.
DeviceProvider`, not by the stream, so passivation releases memory
without closing (or sealing) anything; reactivation runs the same
per-stream recovery path ``ChronicleDB.open`` uses, against the very
same devices.

Mapping semantics are chosen so existing callers keep working and
nothing activates by accident:

* ``table[name]`` / ``get_stream`` — activates on demand (the miss
  path) and touches the LRU;
* ``name in table``, ``iter(table)``, ``len(table)`` — see *all*
  streams, active and passive, without activating any;
* ``table.items()`` / ``table.values()`` — the **active** streams only
  (a full-activation sweep hidden inside a stats call would defeat the
  table; callers that want parked state use :meth:`passive_states`).

With ``max_active=None`` (the default) nothing is ever passivated and
the table behaves exactly like the dict it replaces.

Eviction is a *soft* bound: a victim whose per-stream server lock is
held (``lock_for``) is skipped rather than flushed mid-append, so the
active set can transiently overshoot under contention.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from collections.abc import MutableMapping

from repro.errors import ConfigError
from repro.obs import OBS

_M_ACTIVATIONS = OBS.counter("streamtable.activations")
_M_EVICTIONS = OBS.counter("streamtable.evictions")
_M_ACTIVE = OBS.gauge("streamtable.active")
_M_ACT_SECONDS = OBS.histogram("streamtable.activation_seconds")


class StreamTable(MutableMapping):
    """LRU table of activated streams over a passive-state backing dict.

    ``activate(name, state)`` rebuilds an :class:`EventStream` from a
    passive manifest state; ``deactivate(name, stream)`` flushes the
    stream and returns the state to park (both provided by
    :class:`~repro.core.chronicle.ChronicleDB`).
    """

    def __init__(
        self,
        activate,
        deactivate,
        max_active: int | None = None,
        lock_for=None,
    ):
        if max_active is not None and max_active < 1:
            raise ConfigError(
                f"max_active_streams must be >= 1, got {max_active}"
            )
        self._activate = activate
        self._deactivate = deactivate
        self.max_active = max_active
        #: Optional ``name -> threading.Lock`` provider; eviction takes
        #: the victim's lock non-blocking and skips it when contended.
        self.lock_for = lock_for
        self._active: OrderedDict[str, object] = OrderedDict()
        self._passive: dict[str, dict] = {}
        self._lock = threading.RLock()
        self._callbacks: list = []

    # ------------------------------------------------------------- callbacks

    def on_activated(self, callback) -> None:
        """Register ``callback(name, stream)``, fired whenever a parked
        stream is re-activated (the database re-attaches the stream's
        lifecycle manager through this)."""
        self._callbacks.append(callback)

    # ------------------------------------------------------ mapping protocol

    def __getitem__(self, name: str):
        with self._lock:
            stream = self._active.get(name)
            if stream is not None:
                self._active.move_to_end(name)
                return stream
            if name not in self._passive:
                raise KeyError(name)
            state = self._passive.pop(name)
            started = time.perf_counter()
            stream = self._activate(name, state)
            self._active[name] = stream
            if OBS.enabled:
                _M_ACTIVATIONS.inc()
                _M_ACT_SECONDS.observe(time.perf_counter() - started)
                _M_ACTIVE.set(len(self._active))
            for callback in self._callbacks:
                callback(name, stream)
            self._evict_over_limit(keep=name)
            return stream

    def __setitem__(self, name: str, stream) -> None:
        with self._lock:
            self._passive.pop(name, None)
            self._active[name] = stream
            self._active.move_to_end(name)
            if OBS.enabled:
                _M_ACTIVE.set(len(self._active))
            self._evict_over_limit(keep=name)

    def __delitem__(self, name: str) -> None:
        with self._lock:
            if self._active.pop(name, None) is None:
                del self._passive[name]  # raises KeyError when absent
            if OBS.enabled:
                _M_ACTIVE.set(len(self._active))

    def __contains__(self, name) -> bool:
        with self._lock:
            return name in self._active or name in self._passive

    def __iter__(self):
        with self._lock:
            return iter([*self._active, *self._passive])

    def __len__(self) -> int:
        with self._lock:
            return len(self._active) + len(self._passive)

    # Active-only views: stats/flush/close sweeps must not activate the
    # whole tenant population (MutableMapping's mixins would).

    def items(self):
        with self._lock:
            return list(self._active.items())

    def values(self):
        with self._lock:
            return list(self._active.values())

    # --------------------------------------------------------- surface extras

    def active_get(self, name: str):
        """The activated stream, or ``None`` — never activates, never
        touches the LRU (safe under any lock)."""
        with self._lock:
            return self._active.get(name)

    def active_count(self) -> int:
        with self._lock:
            return len(self._active)

    def passive_states(self) -> dict:
        """Parked manifest states (merged into the manifest on write)."""
        with self._lock:
            return dict(self._passive)

    def park(self, name: str, state: dict) -> None:
        """Register *name* as passive without activating it (the
        ``ChronicleDB.open`` path: recover lazily, on first touch)."""
        with self._lock:
            if name in self._active:
                raise ConfigError(f"stream {name!r} is already active")
            self._passive[name] = state

    # --------------------------------------------------------------- eviction

    def _evict_over_limit(self, keep: str) -> None:
        """Park LRU victims until the bound holds (soft: locked or
        failing victims are skipped this round)."""
        if self.max_active is None:
            return
        overshoot = len(self._active) - self.max_active
        if overshoot <= 0:
            return
        for name in list(self._active):
            if overshoot <= 0:
                break
            if name == keep:
                continue
            if self._evict_one(name):
                overshoot -= 1
        if OBS.enabled:
            _M_ACTIVE.set(len(self._active))

    def _evict_one(self, name: str) -> bool:
        guard = self.lock_for(name) if self.lock_for is not None else None
        if guard is not None and not guard.acquire(blocking=False):
            return False
        try:
            stream = self._active[name]
            state = self._deactivate(name, stream)
        finally:
            if guard is not None:
                guard.release()
        del self._active[name]
        self._passive[name] = state
        if OBS.enabled:
            _M_EVICTIONS.inc()
        return True
