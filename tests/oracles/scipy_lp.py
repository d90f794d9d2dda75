"""The bound LP solved through scipy's ``linprog``: the reference for the
library's HiGHS model.

``linprog_solve`` hands an assembled skeleton to
``scipy.optimize.linprog(method="highs")`` and wraps the answer the way
the library does; ``linprog_bound`` is :func:`repro.core.lp_bound` with
that solve in place of the library's, on the same distinct rows.  The
one-shot LP mode must match it bit for bit (objective, primal and
statistic duals), since both hand HiGHS the same matrix under the same
options.
"""

import math

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from repro.core.conditionals import StatisticsSet
from repro.core.lp_bound import (
    BoundResult,
    _assemble_polymatroid,
    _assemble_step_cone,
    _empty_result,
    _lp_rows,
    _optimal_result,
    _resolve_cone,
    _stat_structure,
    _step_candidates,
    _step_pairs,
    _variable_order,
)


def linprog_solve(
    assembly, b_rows, winners, variables, statistics, extra_inequalities=()
):
    """Solve an assembly with ``linprog`` and wrap a BoundResult; row i's
    dual goes to statistic ``winners[i]``."""
    cone = assembly.cone
    a_ub = assembly.a_ub
    b_ub = b_rows if assembly.num_rows else None
    if a_ub is not None and assembly.num_rows < a_ub.shape[0]:
        # polymatroid: Shannon rows (and extra rows) are ≤ 0
        blocks = [a_ub]
        blocks += [
            sparse.csr_matrix(-np.asarray(vec, float).reshape(1, -1))
            for vec in extra_inequalities
        ]
        a_ub = sparse.vstack(blocks, format="csr")
        b_ub = np.concatenate(
            [b_rows, np.zeros(a_ub.shape[0] - assembly.num_rows)]
        )
    bounds = [(0.0, None if high == math.inf else high) for high in assembly.col_upper]
    res = linprog(assembly.c, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if res.status == 3:
        return BoundResult(math.inf, cone, "unbounded", variables, statistics)
    if res.status == 2:
        return BoundResult(-math.inf, cone, "infeasible", variables, statistics)
    if res.status != 0:
        return BoundResult(
            math.nan, cone, f"error: {res.message}", variables, statistics
        )
    if assembly.num_rows:
        duals = -np.asarray(res.ineqlin.marginals[: assembly.num_rows], float)
    else:
        duals = np.zeros(0)
    return _optimal_result(
        assembly, variables, statistics, float(-res.fun), res.x, duals, winners
    )


def linprog_bound(
    statistics, query=None, cone="auto", variables=None, extra_inequalities=()
):
    """:func:`repro.core.lp_bound` solved through ``linprog``."""
    if not isinstance(statistics, StatisticsSet):
        statistics = StatisticsSet(statistics)
    order = _variable_order(query, statistics, variables)
    cone = _resolve_cone(cone, order, statistics, bool(extra_inequalities))
    _, b_stats = _stat_structure(order, statistics)
    empty = _empty_result(cone, order, statistics, b_stats)
    if empty is not None:
        return empty
    rows = _lp_rows(order, statistics)
    if cone == "polymatroid":
        assembly = _assemble_polymatroid(len(order), rows.rows)
    else:
        candidates = _step_candidates(len(order), cone, _step_pairs(rows.rows))
        assembly = _assemble_step_cone(cone, rows.rows, candidates)
    return linprog_solve(
        assembly, rows.b, rows.winners, order, statistics, extra_inequalities
    )
