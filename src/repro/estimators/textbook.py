"""The textbook cardinality estimator — our stand-in for DuckDB.

Traditional estimators (System R lineage; Ramakrishnan & Gehrke [26], the
formula (15) the paper quotes) estimate a join by applying

    |R ⋈ S| ≈ |R| · |S| / max(V(R, Y), V(S, Y))            (15)

*repeatedly along a join order*, where V(·, Y) is a distinct count.  Each
newly joined atom contributes one such denominator for its join key; when
an atom closes a cycle (both its variables already bound, as in the
triangle's third atom) the single-key formula under-counts the extra
equality — which is precisely why such estimators **over**-estimate cyclic
queries while the uniformity+independence assumptions make them
**under**-estimate skewed acyclic joins.  The paper observes exactly this
double failure for DuckDB; reproducing it is this module's purpose.
Intermediate distinct counts follow the usual rule V(join, Y) =
min of the joined relations' V's.

This estimator is *not* an upper bound.
"""

from __future__ import annotations

import math

from ..core.conditionals import atom_columns
from ..query.query import Atom, ConjunctiveQuery
from ..relational import Database

__all__ = ["textbook_estimate", "textbook_estimate_log2"]


def _base_ndv(atom: Atom, db: Database) -> dict[str, int]:
    relation = db[atom.relation]
    mapping, _ = atom_columns(atom, relation.attributes)
    return {
        var: relation.distinct_count((column,))
        for var, column in mapping.items()
    }


def _greedy_order(query: ConjunctiveQuery) -> list[Atom]:
    remaining = list(query.atoms)
    ordered = [remaining.pop(0)]
    bound = set(ordered[0].variable_set)
    while remaining:
        pick = next(
            (a for a in remaining if a.variable_set & bound), remaining[0]
        )
        remaining.remove(pick)
        ordered.append(pick)
        bound |= pick.variable_set
    return ordered


def textbook_estimate_log2(query: ConjunctiveQuery, db: Database) -> float:
    """log2 of the textbook estimate of |Q(D)|; −inf for an estimated 0."""
    order = _greedy_order(query)
    first = order[0]
    size = len(db[first.relation])
    if size == 0:
        return -math.inf
    log2_est = math.log2(size)
    current_ndv = dict(_base_ndv(first, db))
    for atom in order[1:]:
        size = len(db[atom.relation])
        if size == 0:
            return -math.inf
        log2_est += math.log2(size)
        base = _base_ndv(atom, db)
        shared = [v for v in base if v in current_ndv]
        if shared:
            # formula (15): one join-key denominator per joined atom; use
            # the most selective single key (largest distinct count).
            denominator = max(
                max(current_ndv[v], base[v]) for v in shared
            )
            if denominator == 0:
                return -math.inf
            log2_est -= math.log2(denominator)
        for var, count in base.items():
            current_ndv[var] = min(current_ndv.get(var, count), count)
    return log2_est


def textbook_estimate(query: ConjunctiveQuery, db: Database) -> float:
    """The textbook estimate in linear space."""
    log2_value = textbook_estimate_log2(query, db)
    if log2_value == -math.inf:
        return 0.0
    return 2.0 ** log2_value
