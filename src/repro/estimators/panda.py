"""The PANDA bound [17] — the paper's {1,∞}-bound baseline.

PANDA's bound uses cardinalities (ℓ1) and max degrees (ℓ∞).  In the
paper's framework it is exactly the LP bound restricted to p ∈ {1, ∞}
statistics, which is how we compute it.
"""

from __future__ import annotations

import math

from ..query.query import ConjunctiveQuery
from ..relational import Database
from ..core.catalog import collect_statistics
from ..core.conditionals import StatisticsSet
from ..core.lp_bound import BoundResult, lp_bound

__all__ = ["panda_statistics", "panda_bound"]


def panda_statistics(query: ConjunctiveQuery, db: Database) -> StatisticsSet:
    """Cardinality (ℓ1) and max-degree (ℓ∞) statistics for every atom."""
    return collect_statistics(query, db, ps=(math.inf,))


def panda_bound(
    query: ConjunctiveQuery,
    db: Database,
    statistics: StatisticsSet | None = None,
) -> BoundResult:
    """log2 of the PANDA ({1,∞}) bound as a :class:`BoundResult`.

    When ``statistics`` is supplied it is first restricted to p ∈ {1, ∞},
    so a richer precomputed catalog can be reused.
    """
    if statistics is None:
        statistics = panda_statistics(query, db)
    else:
        statistics = statistics.restrict_ps([1.0, math.inf])
    return lp_bound(statistics, query=query)
