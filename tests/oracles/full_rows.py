"""The bound LP with one row per statistic: the reference for the row
merge.

The library hands HiGHS one row per distinct linear function
(``repro.core.lp_bound._Rows``).  ``full_row_bound`` builds the LP the
way it was built before the merge — every statistic its own row
h(UV) + (1/p − 1)·h(U) ≤ b, duplicates included, and the step cones'
candidate columns from those rows' pairs — and solves it through
``linprog``, crediting each row's dual to its own statistic.  Nothing
in it goes through the merge, so its optimum is the reference the
merged LP must reach.
"""

import numpy as np

from oracles.scipy_lp import linprog_solve
from repro.core.conditionals import StatisticsSet
from repro.core.lp_bound import (
    _assemble_polymatroid,
    _assemble_step_cone,
    _empty_result,
    _resolve_cone,
    _stat_structure,
    _step_candidates,
    _step_pairs,
    _variable_order,
)


def stat_rows(struct):
    """One ``(mask_u, mask_uv, 1/p − 1)`` row per statistic of a
    per-statistic structure, unmerged (U = ∅ has no h(U) term)."""
    return tuple(
        (mask_u, mask_uv, inv_p - 1.0 if mask_u else 0.0)
        for mask_u, mask_uv, inv_p in struct
    )


def full_row_bound(statistics, query=None, cone="auto", variables=None):
    """The bound LP over one row per statistic, solved by ``linprog``."""
    if not isinstance(statistics, StatisticsSet):
        statistics = StatisticsSet(statistics)
    order = _variable_order(query, statistics, variables)
    cone = _resolve_cone(cone, order, statistics, False)
    struct, b = _stat_structure(order, statistics)
    empty = _empty_result(cone, order, statistics, b)
    if empty is not None:
        return empty
    rows = stat_rows(struct)
    if cone == "polymatroid":
        assembly = _assemble_polymatroid(len(order), rows)
    else:
        candidates = _step_candidates(len(order), cone, _step_pairs(rows))
        assembly = _assemble_step_cone(cone, rows, candidates)
    return linprog_solve(
        assembly, b, np.arange(len(rows)), order, statistics
    )
