"""The unpruned normal-cone LP: the reference for level-minimal pruning.

``unpruned_step_candidates`` is the dedup-only candidate routine the
library used before pruning: every non-empty W, one per distinct
intersection pattern with the constraint masks.  ``step_rows`` builds
the constraint rows one Python loop per row.  ``unpruned_lp_bound``
solves the normal-cone LP over those columns and the library's distinct
rows through the library's solve path, so any difference from
``lp_bound`` comes from the column set alone.

Rows are ``(mask_u, mask_uv, c)`` triples, the constraint
h(UV) + c·h(U) ≤ b with c = 1/p − 1.
"""

import numpy as np

from repro.core.lp_bound import (
    _Assembly,
    _HighsModel,
    _lp_rows,
    _variable_order,
)


def unpruned_step_candidates(n, rows):
    """All non-empty W, deduplicated by intersection pattern."""
    all_w = all_step_functions(n)
    relevant = sorted({m for mu, muv, _ in rows for m in (mu, muv) if m})
    if not relevant:
        return all_w[:1]
    patterns = np.stack([(all_w & g) != 0 for g in relevant], axis=1)
    _, keep = np.unique(patterns, axis=0, return_index=True)
    return all_w[np.sort(keep)]


def all_step_functions(n):
    """Every non-empty W: the columns of the full normal-cone LP."""
    return np.arange(1, 1 << n, dtype=np.int64)


def step_rows(rows, candidates):
    """The constraint rows over ``candidates``, one loop pass per row."""
    out = []
    for mask_u, mask_uv, coef in rows:
        hit_uv = ((candidates & mask_uv) != 0).astype(float)
        hit_u = ((candidates & mask_u) != 0).astype(float) if mask_u else 0.0
        out.append(hit_uv + coef * hit_u)
    return np.array(out).reshape(len(rows), len(candidates))


def unpruned_lp_bound(statistics, query=None, variables=None):
    """The normal-cone bound over the unpruned candidate columns."""
    order = _variable_order(query, statistics, variables)
    rows = _lp_rows(order, statistics)
    candidates = unpruned_step_candidates(len(order), rows.rows)
    m = len(candidates)
    assembly = _Assembly(
        "normal",
        len(rows.rows),
        step_rows(rows.rows, candidates) if rows.rows else None,
        -np.ones(m),
        np.full(m, np.inf),
        candidates,
    )
    return _HighsModel(assembly, rows.b).solve(
        rows.b, rows.winners, order, statistics
    )
