"""Experiment E14 — blocked frontier and output sinks on star joins.

The worst case for a breadth-first Generic Join is a query whose
intermediate frontier dwarfs both input and output: the closed star
workload (:func:`repro.datasets.star_query` /
:func:`repro.datasets.star_database`) peaks at ``hubs · fan_out²`` live
partial bindings on the way to a ``hubs · fan_out``-row output.  This
driver meters exactly that, across both axes the engine can bound:

* the *frontier* — unblocked vs a fixed ``frontier_block``;
* the *output* — materialized vs a counting sink
  (:class:`~repro.relational.columnar.CountSink`) vs a spill-to-disk
  sink (:class:`~repro.relational.columnar.SpillSink`).

For each fan-out it runs the unblocked materialized reference, then the
blocked engine once per requested sink, recording peak traced
allocations (``tracemalloc``, which sees NumPy buffers) and wall time,
and cross-checks that counts, output rows (where the sink keeps them),
row order, and the ``nodes_visited`` meter are bit-identical — every
configuration is the same search, sliced and re-routed.

Shape to observe: unblocked peak memory grows quadratically with the
fan-out while every blocked configuration stays flat at
O(block × depth) (+ O(output) when materializing, O(chunk) when
spilling, O(1) when counting), without giving up worst-case optimality
(the meter is unchanged).
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass
from pathlib import Path

from ..core import collect_statistics, lp_bound
from ..datasets.generators import star_database, star_query
from ..evaluation import (
    CancellationToken,
    EscalatingSink,
    EvaluationBudget,
    EvaluationGovernor,
    budget_from_spec,
    evaluate_parallel,
    generic_join,
    parse_fault_spec,
)
from ..relational import CountSink, SpillSink
from .harness import format_table, metered

__all__ = ["StarRow", "run_star_experiment", "main"]

#: Fan-outs of the default sweep (frontier widths 64k .. 262k bindings).
DEFAULT_FAN_OUTS = (128, 256, 512)

#: Default block budget: a few hundred KB of live int64 columns.
DEFAULT_FRONTIER_BLOCK = 8192

#: Sink modes the sweep reports, in report order.
SINK_MODES = ("materialize", "count", "spill")


@dataclass
class StarRow:
    """One (fan-out, engine, sink) cell of the star sweep."""

    fan_out: int
    frontier_block: int | None
    sink: str
    output_count: int
    nodes_visited: int
    peak_mb: float
    seconds: float
    matches_unblocked: bool
    workers: int | None = None
    #: Degradation-ladder steps the governor took (empty when ungoverned
    #: or when the budget was never under pressure).
    ladder: tuple[str, ...] = ()

    @property
    def label(self) -> str:
        base = (
            "unblocked"
            if self.frontier_block is None
            else f"block={self.frontier_block}"
        )
        if self.workers:
            return f"parallel[{self.workers}]·{base}"
        return base


def run_star_experiment(
    fan_outs: tuple[int, ...] = DEFAULT_FAN_OUTS,
    arms: int = 2,
    num_hubs: int = 1,
    frontier_block: int = DEFAULT_FRONTIER_BLOCK,
    sinks: tuple[str, ...] = SINK_MODES,
    spill_dir: str | None = None,
    include_unblocked: bool = True,
    parallel_workers: int | None = None,
    part_timeout: float | None = None,
    max_retries: int = 2,
    injector=None,
    resume_dir: str | None = None,
    budget: EvaluationBudget | None = None,
    cancel_token: CancellationToken | None = None,
) -> list[StarRow]:
    """Run E14: a materialized reference plus one blocked row per sink.

    ``spill_dir`` roots the spill segments (one subdirectory per
    fan-out, removed after verification); by default they go to a
    temporary directory.  ``include_unblocked=False`` verifies against
    a *blocked* materialized run instead of the breadth-first engine —
    the escape hatch for fan-outs whose unblocked frontier (or whose
    output, with count/spill sinks) no longer fits in RAM; the
    reference rows themselves are only materialized when a requested
    sink compares rows rather than counts.

    ``parallel_workers`` adds one more row per (fan-out, sink) driving
    the supervised parallel evaluator
    (:func:`repro.evaluation.evaluate_parallel`) over the star's
    Lemma 2.5 part combinations, supervised with ``part_timeout`` and
    ``max_retries`` and (for chaos runs) ``injector``; ``resume_dir``
    roots per-cell checkpoint directories so an interrupted sweep
    resumes completed parts.  The
    parallel rows verify output counts (and row multisets where the
    sink keeps rows) against the reference; the bit-identical
    serial-vs-parallel checks live in the fault-tolerance test suite.

    ``budget`` governs every blocked run (and the parallel rows) with a
    fresh :class:`~repro.evaluation.EvaluationGovernor` — under memory
    pressure the degradation ladder kicks in (each row records the
    steps it took) while the ``identical`` column keeps verifying the
    output against the ungoverned reference.  ``cancel_token`` makes
    every run (including the reference) cooperatively cancellable.
    """
    unknown = [s for s in sinks if s not in SINK_MODES]
    if unknown:
        raise ValueError(f"unknown sink modes {unknown}; pick from {SINK_MODES}")
    query = star_query(arms)
    # count-only sweeps never need the reference rows in a Python list
    needs_rows = any(mode in ("materialize", "spill") for mode in sinks)
    rows: list[StarRow] = []
    governed = budget is not None or cancel_token is not None
    for fan_out in fan_outs:
        db = star_database(fan_out, num_hubs=num_hubs, arms=arms)
        generic_join(query, db, frontier_block=frontier_block)  # warm tries
        reference_block = None if include_unblocked else frontier_block
        # the reference stays *memory*-ungoverned (a budget would cap
        # its unblocked frontier), but honours the cancel token
        reference_governor = (
            EvaluationGovernor(
                token=cancel_token, phase=f"fan-out {fan_out} reference"
            )
            if cancel_token is not None
            else None
        )
        reference, ref_peak, ref_time = metered(
            lambda: generic_join(
                query,
                db,
                frontier_block=reference_block,
                governor=reference_governor,
            )
        )
        reference_rows = list(reference.output) if needs_rows else None
        rows.append(
            StarRow(
                fan_out=fan_out,
                frontier_block=reference_block,
                sink="materialize",
                output_count=reference.count,
                nodes_visited=reference.nodes_visited,
                peak_mb=ref_peak,
                seconds=ref_time,
                matches_unblocked=True,
            )
        )
        for mode in sinks:
            governor = (
                EvaluationGovernor(
                    budget,
                    token=cancel_token,
                    phase=f"fan-out {fan_out} {mode}",
                )
                if governed
                else None
            )
            if mode == "materialize":
                if budget is not None and budget.governs_memory:
                    # a governed materialization routes through an
                    # EscalatingSink so ladder rung 2 (materialize→spill)
                    # is available mid-run
                    if spill_dir is not None:
                        target = Path(spill_dir) / f"fanout-{fan_out}-escalate"
                        context = None
                    else:
                        context = tempfile.TemporaryDirectory()
                        target = Path(context.name) / "escalate"
                    try:
                        with EscalatingSink(target) as sink:
                            run, peak, secs = metered(
                                lambda: generic_join(
                                    query,
                                    db,
                                    frontier_block=frontier_block,
                                    sink=sink,
                                    governor=governor,
                                )
                            )
                            count = sink.n_rows
                            matches = (
                                sink.rows() == reference_rows
                                and run.nodes_visited
                                == reference.nodes_visited
                            )
                    finally:
                        if context is not None:
                            context.cleanup()
                else:
                    run, peak, secs = metered(
                        lambda: generic_join(
                            query,
                            db,
                            frontier_block=frontier_block,
                            governor=governor,
                        )
                    )
                    matches = (
                        list(run.output) == reference_rows
                        and run.nodes_visited == reference.nodes_visited
                    )
                    count = run.count
            elif mode == "count":
                sink = CountSink()
                run, peak, secs = metered(
                    lambda: generic_join(
                        query,
                        db,
                        frontier_block=frontier_block,
                        sink=sink,
                        governor=governor,
                    )
                )
                count = sink.total
                matches = (
                    count == reference.count
                    and run.nodes_visited == reference.nodes_visited
                )
            else:  # spill
                if spill_dir is not None:
                    target = Path(spill_dir) / f"fanout-{fan_out}"
                    context = None
                else:
                    context = tempfile.TemporaryDirectory()
                    target = Path(context.name) / "spill"
                try:
                    with SpillSink(target) as sink:
                        run, peak, secs = metered(
                            lambda: generic_join(
                                query,
                                db,
                                frontier_block=frontier_block,
                                sink=sink,
                                governor=governor,
                            )
                        )
                        count = sink.n_rows
                        matches = (
                            sink.rows() == reference_rows
                            and run.nodes_visited == reference.nodes_visited
                        )
                finally:
                    if context is not None:
                        context.cleanup()
            rows.append(
                StarRow(
                    fan_out=fan_out,
                    frontier_block=frontier_block,
                    sink=mode,
                    output_count=count,
                    nodes_visited=run.nodes_visited,
                    peak_mb=peak,
                    seconds=secs,
                    matches_unblocked=matches,
                    ladder=governor.ladder if governor is not None else (),
                )
            )
        if parallel_workers:
            rows.extend(
                _parallel_rows(
                    query,
                    db,
                    fan_out,
                    frontier_block,
                    sinks,
                    reference,
                    reference_rows,
                    parallel_workers,
                    part_timeout,
                    max_retries,
                    injector,
                    resume_dir,
                    budget,
                    cancel_token,
                )
            )
    return rows


def _parallel_rows(
    query,
    db,
    fan_out: int,
    frontier_block: int,
    sinks: tuple[str, ...],
    reference,
    reference_rows,
    workers: int,
    part_timeout: float | None,
    max_retries: int,
    injector,
    resume_dir: str | None,
    budget: EvaluationBudget | None = None,
    cancel_token: CancellationToken | None = None,
) -> list[StarRow]:
    """One supervised-parallel row per sink mode for one fan-out."""
    stats = collect_statistics(query, db, ps=[1.0, 2.0, math.inf])
    bound = lp_bound(stats, query=query)
    rows: list[StarRow] = []
    for mode in sinks:
        run_dir = (
            str(Path(resume_dir) / f"fanout-{fan_out}-{mode}")
            if resume_dir
            else None
        )
        common = dict(
            workers=workers,
            frontier_block=frontier_block,
            part_timeout=part_timeout,
            max_retries=max_retries,
            injector=injector,
            run_dir=run_dir,
            resume=run_dir is not None,
            budget=budget,
            cancel_token=cancel_token,
        )
        if mode == "materialize":
            run, peak, secs = metered(
                lambda: evaluate_parallel(query, db, bound, **common)
            )
            count = run.count
            matches = count == reference.count and (
                reference_rows is None
                or sorted(run.output) == sorted(reference_rows)
            )
        elif mode == "count":
            sink = CountSink()
            run, peak, secs = metered(
                lambda: evaluate_parallel(
                    query, db, bound, sink=sink, **common
                )
            )
            count = sink.total
            matches = count == reference.count
        else:  # spill
            with tempfile.TemporaryDirectory() as scratch:
                with SpillSink(Path(scratch) / "spill") as sink:
                    run, peak, secs = metered(
                        lambda: evaluate_parallel(
                            query, db, bound, sink=sink, **common
                        )
                    )
                    count = sink.n_rows
                    matches = count == reference.count and (
                        reference_rows is None
                        or sorted(sink.rows()) == sorted(reference_rows)
                    )
        rows.append(
            StarRow(
                fan_out=fan_out,
                frontier_block=frontier_block,
                sink=mode,
                output_count=count,
                nodes_visited=run.nodes_visited,
                peak_mb=peak,
                seconds=secs,
                matches_unblocked=matches,
                workers=workers,
                ladder=tuple(
                    step
                    for outcome in run.outcomes
                    for step in outcome.ladder
                ),
            )
        )
    return rows


def main(
    frontier_block: int = DEFAULT_FRONTIER_BLOCK,
    sink: str | None = None,
    spill_dir: str | None = None,
    parallel_workers: int | None = None,
    part_timeout: float | None = None,
    retries: int = 2,
    inject_faults: str | None = None,
    resume: str | None = None,
    memory_budget: str | None = None,
    deadline: float | None = None,
    cancel_token: CancellationToken | None = None,
) -> str:
    """Render the E14 table (all sink modes, or just the requested one).

    ``parallel_workers`` adds supervised-parallel rows;
    ``part_timeout`` (seconds per part attempt) and ``retries`` (extra
    attempts per part before its serial re-run) supervise them,
    ``inject_faults`` threads a deterministic fault plan through the
    workers (see :func:`repro.evaluation.parse_fault_spec`), and
    ``resume`` names a checkpoint directory to continue an interrupted
    sweep from.

    ``memory_budget`` (``"HARD"`` or ``"SOFT:HARD"``, K/M/G suffixes)
    and ``deadline`` (seconds) govern every blocked and parallel run
    (see :func:`repro.evaluation.budget_from_spec`); the ``ladder``
    column shows the degradation steps each governed run took.
    ``cancel_token`` is flipped by the CLI's signal handlers for a
    graceful Ctrl-C.
    """
    sinks = SINK_MODES if sink is None else (sink,)
    budget = budget_from_spec(memory=memory_budget, deadline=deadline)
    rows = run_star_experiment(
        frontier_block=frontier_block,
        sinks=sinks,
        spill_dir=spill_dir,
        parallel_workers=parallel_workers,
        part_timeout=part_timeout,
        max_retries=retries,
        injector=(
            parse_fault_spec(inject_faults) if inject_faults else None
        ),
        resume_dir=resume,
        budget=budget,
        cancel_token=cancel_token,
    )
    governed = budget is not None
    headers = [
        "fan-out", "engine", "sink", "|Q|", "nodes", "peak MB", "ms",
        "identical",
    ]
    if governed:
        headers.append("ladder")
    table = format_table(
        headers,
        [
            (
                r.fan_out,
                r.label,
                r.sink,
                r.output_count,
                r.nodes_visited,
                f"{r.peak_mb:.2f}",
                f"{r.seconds * 1e3:.1f}",
                "yes" if r.matches_unblocked else "NO",
            )
            + ((" → ".join(r.ladder) if r.ladder else "-",) if governed else ())
            for r in rows
        ],
    )
    return (
        "E14: closed star join — blocked frontier × output sinks "
        "(identical = same count/rows, order, and meter)\n" + table
    )


if __name__ == "__main__":  # pragma: no cover
    print(main())
