"""Query execution entry point: delegates to the cost-based planner.

Until PR 8 this module *was* the executor — one row-at-a-time access
path per query class.  That implementation now lives verbatim in
:mod:`repro.query.naive` (it remains the semantic oracle and the
planner's ``ROW`` fallback); :func:`execute` routes every query through
:mod:`repro.query.planner`, which picks between index-only aggregation,
vectorized columnar scans and the naive row path.

The old private helpers are re-exported because sibling modules (and
tests) import them from here.
"""

from __future__ import annotations

from repro.query.naive import (  # noqa: F401  (re-exported compat names)
    _MAX_BUCKETS,
    _aggregate_with_filter,
    _execute_aggregates,
    _execute_grouped,
    _execute_select_star,
    _fold,
    _passes_strict,
)


def execute(db, query):
    """Run *query*; returns a list of events or a dict of aggregate values."""
    from repro.query.planner import execute as planner_execute

    return planner_execute(db, query)
