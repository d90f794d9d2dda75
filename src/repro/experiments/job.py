"""Experiment E3 — Figure 1: 33 JOB-like acyclic queries.

For every query: the ratio of our full-family ℓp bound (p ∈ [30] ∪ {∞}),
the AGM {1}-bound, the PANDA {1,∞}-bound, and the textbook estimate to
the true cardinality — plus the set of norms the optimal bound uses.

Paper's shape to reproduce: ours ≪ PANDA ≪ AGM (orders of magnitude);
the estimator underestimates everywhere; ℓ∞ appears in every optimal
certificate (key–foreign-key joins); a wide variety of intermediate p's
appear across queries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core import BoundSolver, BoundTask, StatisticsCatalog, lp_bound_many
from ..datasets.imdb import imdb_database
from ..datasets.job_queries import JOB_QUERY_IDS, job_query
from ..estimators.textbook import textbook_estimate_log2
from ..evaluation import acyclic_count
from ..relational import Database
from .harness import format_scientific, format_table, ratio_to_true

__all__ = ["JobRow", "run_job_experiment", "main", "JOB_PS"]

JOB_PS: tuple[float, ...] = tuple(float(p) for p in range(1, 31)) + (math.inf,)


@dataclass
class JobRow:
    """One query's results (Figure 1 row)."""

    query_id: int
    num_relations: int
    true_count: int
    ratio_ours: float
    norms_used: list[float]
    ratio_agm: float
    ratio_panda: float
    ratio_estimator: float


def run_job_experiment(
    db: Database | None = None,
    query_ids: tuple[int, ...] | None = None,
    scale: float = 0.3,
    seed: int = 7,
) -> list[JobRow]:
    """Run E3; one row per query id (all 33 by default)."""
    database = db if db is not None else imdb_database(scale=scale, seed=seed)
    ids = query_ids or JOB_QUERY_IDS
    queries = [job_query(qid) for qid in ids]
    # batched pipeline: one catalog pass extracts every degree sequence of
    # the whole workload once (multi-p norm batches per sequence),
    # then all 3 bounds per query fan out through one solver.
    catalog = StatisticsCatalog(database)
    all_stats = catalog.precompute(queries, ps=JOB_PS)
    tasks = []
    for query, stats in zip(queries, all_stats):
        tasks.append(BoundTask(stats, query=query))
        tasks.append(BoundTask(stats, query=query, family=(1.0,)))
        tasks.append(BoundTask(stats, query=query, family=(1.0, math.inf)))
    results = lp_bound_many(tasks, solver=BoundSolver())
    rows = []
    for i, (qid, query) in enumerate(zip(ids, queries)):
        true_count = acyclic_count(query, database)
        ours, agm, panda = results[3 * i: 3 * i + 3]
        rows.append(
            JobRow(
                query_id=qid,
                num_relations=len(query.atoms),
                true_count=true_count,
                ratio_ours=ratio_to_true(ours.log2_bound, true_count),
                norms_used=ours.norms_used(),
                ratio_agm=ratio_to_true(agm.log2_bound, true_count),
                ratio_panda=ratio_to_true(panda.log2_bound, true_count),
                ratio_estimator=ratio_to_true(
                    textbook_estimate_log2(query, database), true_count
                ),
            )
        )
    return rows


def _norms_label(norms: list[float]) -> str:
    parts = [
        "∞" if p == math.inf else format(p, "g") for p in sorted(norms)
    ]
    return "{" + ",".join(parts) + "}"


def main(scale: float = 0.3) -> str:
    """Render the Figure 1 table."""
    rows = run_job_experiment(scale=scale)
    table = format_table(
        ["Q#", "#Rel", "Ours", "Norms", "AGM {1}", "PANDA {1,∞}", "Textbook"],
        [
            (
                r.query_id,
                r.num_relations,
                format_scientific(r.ratio_ours),
                _norms_label(r.norms_used),
                format_scientific(r.ratio_agm),
                format_scientific(r.ratio_panda),
                format_scientific(r.ratio_estimator),
            )
            for r in rows
        ],
    )
    return (
        "E3 (Figure 1): JOB-like queries, ratios bound/true (1.0 = exact)\n"
        + table
    )


if __name__ == "__main__":  # pragma: no cover
    print(main())
