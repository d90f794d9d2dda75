"""The AGM bound [1] — the paper's {1}-bound baseline.

The AGM bound is |Q| ≤ Π_j |R_j|^{x*_j} where x* is a minimum fractional
edge cover weighted by log|R_j|.  The paper shows this is the main LP of
:mod:`repro.core.lp_bound` restricted to the atoms' ℓ1 cardinality
statistics, which is how it is computed here.
"""

from __future__ import annotations

from ..query.query import ConjunctiveQuery
from ..relational import Database
from ..core.catalog import collect_statistics
from ..core.conditionals import StatisticsSet
from ..core.lp_bound import BoundResult, lp_bound

__all__ = ["agm_bound", "agm_bound_lp", "agm_statistics"]


def agm_statistics(query: ConjunctiveQuery, db: Database) -> StatisticsSet:
    """Just the cardinality (ℓ1) statistics of the query's atoms.

    Each atom's statistic is (V | ∅) with V all of the atom's variables,
    i.e. |Π_V(R)| (|R| for the usual atom binding every column of a
    distinct-variable relation; the diagonal's size for ``R(x, x)``).
    """
    return StatisticsSet(
        s
        for s in collect_statistics(query, db, ps=())
        if not s.conditional.u and s.conditional.v == s.guard.variable_set
    )


def agm_bound(query: ConjunctiveQuery, db: Database) -> float:
    """log2 of the AGM bound (−inf when some relation is empty)."""
    return agm_bound_lp(query, db).log2_bound


def agm_bound_lp(query: ConjunctiveQuery, db: Database) -> BoundResult:
    """The AGM bound through the general ℓp machinery ({1}-statistics)."""
    return lp_bound(agm_statistics(query, db), query=query)
