"""Experiment E8 — Sec. 2.2 / Theorem 2.6: evaluation within the bound.

Runs the paper's evaluation algorithm (Lemma 2.5 partitioning + per-part
PANDA stand-in) on graph workloads and compares the *metered* work —
search-tree nodes across all parts — against the Theorem 2.6 budget
c · Π_i B_i^{w_i}.  Also cross-checks that the partitioned evaluation
returns exactly the same output as a direct join.

With ``parallel_workers`` set, each workload additionally runs through
the supervised parallel evaluator
(:func:`repro.evaluation.evaluate_parallel`) — same part combinations
fanned across a process pool with timeout/retry/checkpoint supervision —
and the row verifies its count, part total, and node meter against the
serial run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..core import BoundSolver, StatisticsCatalog
from ..datasets.snap import snap_database
from ..evaluation import (
    count_query,
    evaluate_parallel,
    evaluate_with_partitioning,
    parse_fault_spec,
)
from ..query import parse_query
from ..query.query import ConjunctiveQuery
from ..relational import Database

__all__ = ["RuntimeRow", "run_evaluation_experiment", "main"]

ONE_JOIN = parse_query("onejoin(x,y,z) :- R(x,y), R(y,z)")
TRIANGLE = parse_query("triangle(x,y,z) :- R(x,y), R(y,z), R(z,x)")


@dataclass
class RuntimeRow:
    """One workload's metered run."""

    workload: str
    output_count: int
    direct_count: int
    parts_evaluated: int
    log2_nodes: float
    log2_budget: float
    engine: str = "serial"

    @property
    def output_matches(self) -> bool:
        return self.output_count == self.direct_count

    @property
    def within_budget(self) -> bool:
        """nodes ≤ 2^budget · polylog — we allow a 2^6 polylog factor."""
        return self.log2_nodes <= self.log2_budget + 6.0


def _run_one(
    label: str,
    query: ConjunctiveQuery,
    db: Database,
    ps: list[float],
    catalog: StatisticsCatalog,
    solver: BoundSolver,
    parallel_workers: int | None = None,
    part_timeout: float | None = None,
    max_retries: int = 2,
    injector=None,
    run_dir: str | None = None,
) -> list[RuntimeRow]:
    (stats,) = catalog.precompute([query], ps=ps)
    bound = solver.solve(stats, query=query)
    run = evaluate_with_partitioning(query, db, bound, max_parts=20000)
    direct = count_query(query, db)
    rows = [
        RuntimeRow(
            workload=label,
            output_count=run.count,
            direct_count=direct,
            parts_evaluated=run.parts_evaluated,
            log2_nodes=math.log2(max(1, run.nodes_visited)),
            log2_budget=run.log2_budget,
        )
    ]
    if parallel_workers:
        par = evaluate_parallel(
            query,
            db,
            bound,
            workers=parallel_workers,
            max_parts=20000,
            part_timeout=part_timeout,
            max_retries=max_retries,
            injector=injector,
            run_dir=run_dir,
            resume=run_dir is not None,
        )
        # the parallel merge must reproduce the serial run exactly:
        # same count, same part total, same node meter
        matches = (
            par.count == run.count
            and par.parts_evaluated == run.parts_evaluated
            and par.nodes_visited == run.nodes_visited
        )
        rows.append(
            RuntimeRow(
                workload=label,
                output_count=par.count,
                direct_count=run.count if matches else -1,
                parts_evaluated=par.parts_evaluated,
                log2_nodes=math.log2(max(1, par.nodes_visited)),
                log2_budget=par.log2_budget,
                engine=f"parallel[{parallel_workers}]",
            )
        )
    return rows


def run_evaluation_experiment(
    dataset: str = "ca-GrQc",
    parallel_workers: int | None = None,
    part_timeout: float | None = None,
    max_retries: int = 2,
    injector=None,
    resume_dir: str | None = None,
) -> list[RuntimeRow]:
    """Run E8 on one dataset: the one-join and the triangle.

    ``parallel_workers`` adds one supervised-parallel row per workload
    (verified against the serial run), supervised with ``part_timeout``
    and ``max_retries`` (see :func:`repro.evaluation.evaluate_parallel`);
    ``resume_dir`` roots per-workload checkpoint directories for
    interrupted runs.
    """
    db = snap_database(dataset)
    # both workloads share one catalog (the triangle reuses the one-join's
    # degree sequences) and one solver.
    catalog = StatisticsCatalog(db)
    solver = BoundSolver()
    ps = [1.0, 2.0, math.inf]
    rows: list[RuntimeRow] = []
    for label, query in (
        (f"one-join/{dataset}", ONE_JOIN),
        (f"triangle/{dataset}", TRIANGLE),
    ):
        run_dir = None
        if resume_dir is not None:
            run_dir = f"{resume_dir}/{label.replace('/', '-')}"
        rows.extend(
            _run_one(
                label,
                query,
                db,
                ps,
                catalog,
                solver,
                parallel_workers=parallel_workers,
                part_timeout=part_timeout,
                max_retries=max_retries,
                injector=injector,
                run_dir=run_dir,
            )
        )
    return rows


def main(
    dataset: str = "ca-GrQc",
    parallel_workers: int | None = None,
    part_timeout: float | None = None,
    retries: int = 2,
    inject_faults: str | None = None,
    resume: str | None = None,
) -> str:
    """Render E8 (optionally with supervised-parallel rows).

    ``parallel_workers`` adds one supervised-parallel row per workload;
    ``part_timeout`` (seconds per part attempt) and ``retries`` (extra
    attempts per part before its serial re-run) supervise it,
    ``inject_faults`` threads a deterministic fault plan through the
    workers (see :func:`repro.evaluation.parse_fault_spec`), and
    ``resume`` names a checkpoint directory to continue an interrupted
    run from.
    """
    rows = run_evaluation_experiment(
        dataset,
        parallel_workers=parallel_workers,
        part_timeout=part_timeout,
        max_retries=retries,
        injector=parse_fault_spec(inject_faults) if inject_faults else None,
        resume_dir=resume,
    )
    lines = [f"E8 (Theorem 2.6): partitioned evaluation on {dataset}"]
    for r in rows:
        lines.append(
            f"  {r.workload} [{r.engine}]: |Q|={r.output_count}"
            f" (matches: {r.output_matches});"
            f" {r.parts_evaluated} part combinations;"
            f" work 2^{r.log2_nodes:.2f} vs budget 2^{r.log2_budget:.2f}"
            f" (within budget: {r.within_budget})"
        )
    return "\n".join(lines)


if __name__ == "__main__":  # pragma: no cover
    print(main())
