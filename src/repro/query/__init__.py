"""SQL-like query language (paper, Section 3.3).

ChronicleDB's query engine "supports an SQL-like query language" next to
the programmatic API.  The dialect covers the paper's query classes:

* time-travel: ``SELECT * FROM s WHERE t BETWEEN 10 AND 20``
* temporal aggregation: ``SELECT avg(load) FROM s WHERE t <= 100``
* lightweight/secondary filters: ``... AND velocity >= 3.5``
* exact-match (Bloom-accelerated): ``... AND source = 17``
"""

from repro.query.ast import Aggregate, Query, SelectStar
from repro.query.parser import parse
from repro.query.plan import Plan
from repro.query.planner import build_plan, execute, explain

__all__ = [
    "Aggregate",
    "Plan",
    "Query",
    "SelectStar",
    "build_plan",
    "execute",
    "explain",
    "parse",
]
