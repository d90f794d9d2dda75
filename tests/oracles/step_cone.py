"""The unpruned normal-cone LP: the reference for level-minimal pruning.

``unpruned_step_candidates`` is the dedup-only candidate routine the
library used before pruning: every non-empty W, one per distinct
intersection pattern with the constraint masks.  ``step_rows`` builds
the statistic rows one Python loop per row.  ``unpruned_lp_bound``
solves the normal-cone LP over those columns and rows through the
library's solve path, so any difference from ``lp_bound`` comes from
the column set alone.
"""

import numpy as np

from repro.core.lp_bound import (
    _Assembly,
    _solve_assembly,
    _stat_structure,
    _variable_order,
)


def unpruned_step_candidates(n, struct):
    """All non-empty W, deduplicated by intersection pattern."""
    all_w = all_step_functions(n)
    relevant = sorted({m for mu, muv, _ in struct for m in (mu, muv) if m})
    if not relevant:
        return all_w[:1]
    patterns = np.stack([(all_w & g) != 0 for g in relevant], axis=1)
    _, keep = np.unique(patterns, axis=0, return_index=True)
    return all_w[np.sort(keep)]


def all_step_functions(n):
    """Every non-empty W: the columns of the full normal-cone LP."""
    return np.arange(1, 1 << n, dtype=np.int64)


def step_rows(struct, candidates):
    """The statistic rows over ``candidates``, one loop pass per row."""
    rows = []
    for mask_u, mask_uv, inv_p in struct:
        hit_uv = ((candidates & mask_uv) != 0).astype(float)
        hit_u = ((candidates & mask_u) != 0).astype(float) if mask_u else 0.0
        rows.append(hit_uv + (inv_p - 1.0) * hit_u)
    return np.array(rows).reshape(len(struct), len(candidates))


def unpruned_lp_bound(statistics, query=None, variables=None):
    """The normal-cone bound over the unpruned candidate columns."""
    order = _variable_order(query, statistics, variables)
    struct, b_stats = _stat_structure(order, statistics)
    candidates = unpruned_step_candidates(len(order), struct)
    m = len(candidates)
    assembly = _Assembly(
        "normal",
        len(struct),
        step_rows(struct, candidates) if struct else None,
        -np.ones(m),
        [(0.0, None)] * m,
        None,
        candidates,
    )
    return _solve_assembly(assembly, b_stats, order, statistics)
