"""The bound LP solved through scipy's ``linprog``: the reference for the
library's HiGHS model.

``linprog_solve`` hands an assembled skeleton to
``scipy.optimize.linprog(method="highs")`` and wraps the answer the way
the library does; ``linprog_bound`` is :func:`repro.core.lp_bound` with
that solve in place of the library's.  The one-shot LP mode must match
it bit for bit (objective, primal and statistic duals), since both hand
HiGHS the same matrix under the same options.
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
    _optimal_result,
    _resolve_cone,
    _stat_structure,
    _step_candidates,
    _step_pairs,
    _variable_order,
)


def linprog_solve(assembly, b_stats, variables, statistics, extra_inequalities=()):
    """Solve an assembly with ``linprog`` and wrap a BoundResult."""
    cone = assembly.cone
    a_ub = assembly.a_ub
    b_ub = b_stats if assembly.num_stats else None
    if a_ub is not None and assembly.num_stats < a_ub.shape[0]:
        # polymatroid: Shannon rows (and extra rows) are ≤ 0
        blocks = [a_ub]
        blocks += [
            sparse.csr_matrix(-np.asarray(vec, float).reshape(1, -1))
            for vec in extra_inequalities
        ]
        a_ub = sparse.vstack(blocks, format="csr")
        b_ub = np.concatenate(
            [b_stats, np.zeros(a_ub.shape[0] - assembly.num_stats)]
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
    if assembly.num_stats:
        duals = -np.asarray(res.ineqlin.marginals[: assembly.num_stats], float)
    else:
        duals = np.zeros(0)
    return _optimal_result(
        assembly, variables, statistics, float(-res.fun), res.x, duals
    )


def linprog_bound(
    statistics, query=None, cone="auto", variables=None, extra_inequalities=()
):
    """:func:`repro.core.lp_bound` solved through ``linprog``."""
    if not isinstance(statistics, StatisticsSet):
        statistics = StatisticsSet(statistics)
    order = _variable_order(query, statistics, variables)
    cone = _resolve_cone(cone, order, statistics, bool(extra_inequalities))
    struct, b_stats = _stat_structure(order, statistics)
    empty = _empty_result(cone, order, statistics, b_stats)
    if empty is not None:
        return empty
    if cone == "polymatroid":
        assembly = _assemble_polymatroid(len(order), struct)
    else:
        candidates = _step_candidates(len(order), cone, _step_pairs(struct))
        assembly = _assemble_step_cone(cone, struct, candidates)
    return linprog_solve(
        assembly, b_stats, order, statistics, extra_inequalities
    )
