"""Query plans: what the planner decided and why.

A :class:`Plan` is a small, serializable description of how one query
will run — its kind (access path), the reason it was chosen, the tier
segments it stitches together and the planner's cost estimates.  Plans
are what ``EXPLAIN`` renders and what the cluster router reasons about
(ship the plan, not the events).
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Answer purely from TAB+-tree / summary / rollup aggregates; leaves
#: are touched only where a range or bucket boundary cuts an index entry.
INDEX_ONLY = "index_only"
#: Vectorized leaf scan: decode only the columns the query needs, build
#: selection vectors per leaf, materialize events at the API boundary.
COLUMNAR = "columnar"

KINDS = (INDEX_ONLY, COLUMNAR)


@dataclass
class Plan:
    """One query's chosen access path plus the evidence behind it."""

    kind: str
    query: object
    reason: str
    #: Per-tier segments from :meth:`EventStream.plan_segments`.
    segments: list = field(default_factory=list)
    #: Upper bound on raw events the range can touch.
    estimated_rows: int = 0
    #: Estimated simulated CPU seconds per candidate kind (empty when
    #: the stream's clock has no cost model).
    estimated_cost: dict = field(default_factory=dict)
    #: Ownership predicate ``t -> bool`` the plan was built under (a
    #: split's source still stores ranges it handed off), or None when
    #: every stored event is authoritative.
    served: object = None
    #: Execution counters, filled in by the planner after the run.
    executed: dict = field(default_factory=dict)

    def explain(self) -> dict:
        """The ``EXPLAIN`` rendering: plain dicts/lists, JSON-safe."""
        out = {
            "plan": self.kind,
            "reason": self.reason,
            "estimated_rows": self.estimated_rows,
            "segments": [dict(segment) for segment in self.segments],
        }
        if self.estimated_cost:
            out["estimated_cost"] = dict(self.estimated_cost)
        if self.executed:
            out["executed"] = dict(self.executed)
        return out
