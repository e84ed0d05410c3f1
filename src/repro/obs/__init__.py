"""``repro.obs`` — the observability layer (metrics + tracing).

One process-global :class:`~repro.obs.metrics.MetricsRegistry` (``OBS``)
and its :class:`~repro.obs.trace.Tracer` (``TRACER``) serve the whole
engine.  Observation is **off by default**; hot paths pre-bind their
metric objects and guard updates with ``if OBS.enabled:`` so the
disabled cost is a single attribute check per block-granularity event.

Usage::

    from repro import obs

    obs.enable()
    ...  # ingest, query, recover
    print(obs.snapshot()["counters"]["index.leaf_flushes"])
    obs.disable()

``snapshot()`` merges metrics and trace totals into one JSON-friendly
dict; ``ChronicleDB.stats()`` and the net protocol's ``stats`` op embed
it next to engine-level state.  See
DESIGN.md, "Observability", for the metric name and span taxonomy.
"""

from __future__ import annotations

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.trace import Span, Tracer

#: The process-global registry every subsystem binds against.
OBS = MetricsRegistry()
#: The process-global tracer, sharing the registry's enabled switch.
TRACER = Tracer(OBS)


def enable() -> None:
    """Turn observation on (metrics updates and span timing)."""
    OBS.enable()


def disable() -> None:
    OBS.disable()


def enabled() -> bool:
    return OBS.enabled


def reset() -> None:
    """Zero all metrics and drop recorded spans; registrations persist."""
    OBS.reset()
    TRACER.reset()


def span(name: str):
    """Open a trace span (no-op context manager when disabled)."""
    return TRACER.span(name)


def snapshot() -> dict:
    """Metrics plus trace aggregates, ready for JSON serialization."""
    merged = OBS.snapshot()
    merged["spans"] = TRACER.snapshot()
    return merged


def tally(counters: dict, prefix: str, **facts: int) -> None:
    """Add each fact to ``counters[name]`` and, when observation is on,
    to its twin counter ``<prefix>.<name>``: one bump for both views."""
    for name, n in facts.items():
        counters[name] += n
        if OBS.enabled:
            OBS.counter(f"{prefix}.{name}").inc(n)


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "OBS",
    "Span",
    "TRACER",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "reset",
    "snapshot",
    "span",
    "tally",
]
