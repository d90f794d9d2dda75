"""E14 — blocked frontier and output sinks on the closed star join.

Regenerates: the star-join sweep of ``repro.experiments.star`` at one
fixed fan-out.  The closed star query's intermediate frontier is
``fan_out²`` partial bindings against a ``fan_out``-row output — the
workload the breadth-first Generic Join cannot scale on.  Asserts the
paper-level shape along both bounded axes: the blocked engine returns
bit-identical rows, row order, and meter while holding peak traced
allocation at least an order of magnitude below the unblocked engine's
(locally ~30× at this size), and the counting/spilling sinks keep that
edge while never materializing the output (the fan-out-1024 guard below
requires ≥50× under ``CountSink``).

All engines' timings and peak traced allocations feed the CI
trajectory: ``peak_traced_kb`` lands in ``extra_info`` and
``benchmarks/trajectory.py`` guards the memory series exactly like the
timing series.
"""

import math

from repro.core import collect_statistics, lp_bound
from repro.datasets import star_database, star_query
from repro.evaluation import (
    EscalatingSink,
    EvaluationBudget,
    EvaluationGovernor,
    evaluate_parallel,
    generic_join,
)
import repro.evaluation.governor as governor_module
from repro.relational import CountSink, SpillSink

import pytest

#: fan_out² = 262144 live bindings unblocked; the block caps that at 8192.
FAN_OUT = 512
FRONTIER_BLOCK = 8192

#: A block well under the fan-out: per-slice cost, not per-row cost.
SMALL_BLOCK = 64

#: The acceptance-scale instance for the count-sink memory guard.
FAN_OUT_LARGE = 1024

QUERY = star_query(2)


@pytest.fixture(scope="module")
def star_db():
    db = star_database(FAN_OUT)
    generic_join(QUERY, db)  # warm the per-relation trie caches
    return db


def test_bench_star_unblocked(benchmark, traced_peak, star_db):
    """The breadth-first frontier: peak memory ∝ fan_out²."""
    _, peak = traced_peak(generic_join, QUERY, star_db)
    benchmark.extra_info["peak_traced_kb"] = round(peak / 1024, 1)
    run = benchmark(generic_join, QUERY, star_db)
    assert run.count == FAN_OUT


def test_bench_star_blocked(benchmark, traced_peak, star_db):
    """The streamed frontier: peak memory ∝ block × depth."""
    _, peak = traced_peak(
        generic_join, QUERY, star_db, frontier_block=FRONTIER_BLOCK
    )
    benchmark.extra_info["peak_traced_kb"] = round(peak / 1024, 1)
    run = benchmark(
        generic_join, QUERY, star_db, frontier_block=FRONTIER_BLOCK
    )
    assert run.count == FAN_OUT


def test_bench_star_count_sink(benchmark, traced_peak, star_db):
    """Blocked frontier + counting sink: no output rows held at all."""

    def run_counted():
        return generic_join(
            QUERY, star_db, frontier_block=FRONTIER_BLOCK, sink=CountSink()
        )

    _, peak = traced_peak(run_counted)
    benchmark.extra_info["peak_traced_kb"] = round(peak / 1024, 1)
    run = benchmark(run_counted)
    assert run.count == FAN_OUT


def test_bench_star_count_block64(benchmark, traced_peak, star_db):
    """Blocked frontier at a small block + counting sink: 4096 arm slices
    of 64 candidates, each under one parent, so the per-slice fixed cost
    (parent and seed resolution, the leaf pass counted inside each arm
    slice) dominates the run."""

    def run_counted():
        return generic_join(
            QUERY, star_db, frontier_block=SMALL_BLOCK, sink=CountSink()
        )

    _, peak = traced_peak(run_counted)
    benchmark.extra_info["peak_traced_kb"] = round(peak / 1024, 1)
    run = benchmark(run_counted)
    assert run.count == FAN_OUT
    assert run.nodes_visited == (FAN_OUT + 1) ** 2


def test_bench_star_spill_sink(benchmark, traced_peak, star_db, tmp_path):
    """Blocked frontier + spill sink: output rows live on disk only.

    Each call gets a fresh sink (closing removes its segments, so the
    directory is reusable across benchmark rounds); the verified
    round-trip read happens once, outside the timed runs.
    """

    def run_spilled():
        with SpillSink(tmp_path / "spill", chunk_rows=4096) as sink:
            run = generic_join(
                QUERY, star_db, frontier_block=FRONTIER_BLOCK, sink=sink
            )
            assert sink.n_rows == FAN_OUT
        return run

    _, peak = traced_peak(run_spilled)
    benchmark.extra_info["peak_traced_kb"] = round(peak / 1024, 1)
    with SpillSink(tmp_path / "verify") as sink:
        generic_join(
            QUERY, star_db, frontier_block=FRONTIER_BLOCK, sink=sink
        )
        reference = generic_join(QUERY, star_db)
        assert sink.rows() == list(reference.output)
    run = benchmark(run_spilled)
    assert run.count == FAN_OUT


def test_bench_star_parallel(benchmark, star_db):
    """Blocked frontier + counting sinks under parallel supervision.

    Every round starts a fresh worker pool over the Lemma 2.5 parts and
    merges through a final ``CountSink`` — pool startup is host-load
    noise, so the entry gets extra trajectory tolerance
    (``trajectory.TOLERANCES``).
    """
    stats = collect_statistics(QUERY, star_db, ps=[1.0, 2.0, math.inf])
    bound = lp_bound(stats, query=QUERY)

    def run_parallel():
        return evaluate_parallel(
            QUERY,
            star_db,
            bound,
            workers=2,
            frontier_block=FRONTIER_BLOCK,
            sink=CountSink(),
        )

    run = benchmark(run_parallel)
    assert run.count == FAN_OUT


def test_bench_star_governed(benchmark, traced_peak, star_db):
    """The blocked run under an ample resource budget.

    Tracks what governance itself costs on the star workload: one memory
    probe per frontier slice, no degradation (the watermarks are far
    away).  Wall time and peak feed the same trajectory series as the
    ungoverned blocked entry, so a creeping checkpoint cost shows up as
    a divergence between the two.
    """

    def run_governed():
        governor = EvaluationGovernor(
            EvaluationBudget(
                soft_memory_bytes=1 << 33, hard_memory_bytes=1 << 34
            )
        )
        return generic_join(
            QUERY,
            star_db,
            frontier_block=FRONTIER_BLOCK,
            governor=governor,
        )

    _, peak = traced_peak(run_governed)
    benchmark.extra_info["peak_traced_kb"] = round(peak / 1024, 1)
    run = benchmark(run_governed)
    assert run.count == FAN_OUT


def test_bench_star_governed_ladder(
    benchmark, traced_peak, star_db, tmp_path, monkeypatch
):
    """A governed run that *does* degrade: tight soft watermark, an
    escalating sink, and a hard cap high enough to finish.  Measures the
    full ladder walk (block halvings down to a floor of 1024 +
    mid-run materialize→spill) on every round; the output must stay
    bit-identical to the ungoverned engine's.
    """
    reference = generic_join(QUERY, star_db, frontier_block=FRONTIER_BLOCK)
    # the floor this benchmark's baseline was recorded with
    monkeypatch.setattr(governor_module, "MIN_FRONTIER_BLOCK", 1024)
    budget = EvaluationBudget(
        soft_memory_bytes=128 << 10, hard_memory_bytes=64 << 20
    )

    def run_laddered():
        governor = EvaluationGovernor(budget)
        with EscalatingSink(tmp_path / "esc", chunk_rows=4096) as sink:
            run = generic_join(QUERY, star_db, sink=sink, governor=governor)
            assert sink.n_rows == FAN_OUT
        return run

    governor = EvaluationGovernor(budget)
    with EscalatingSink(tmp_path / "verify", chunk_rows=4096) as sink:
        verified = generic_join(QUERY, star_db, sink=sink, governor=governor)
        assert sink.rows() == list(reference.output)
        assert verified.nodes_visited == reference.nodes_visited
    _, peak = traced_peak(run_laddered)
    benchmark.extra_info["peak_traced_kb"] = round(peak / 1024, 1)
    run = benchmark(run_laddered)
    assert run.nodes_visited == reference.nodes_visited


def test_star_memory_guard(traced_peak, star_db):
    """Acceptance guard (runs even in single-round CI smoke mode).

    The unblocked frontier must need ≥10× the blocked engine's peak
    traced allocation on the star workload, with bit-identical output
    rows, row order, and ``nodes_visited`` — the blocked engine is the
    same search, sliced, not an approximation.
    """
    unblocked, peak_unblocked = traced_peak(generic_join, QUERY, star_db)
    blocked, peak_blocked = traced_peak(
        generic_join, QUERY, star_db, frontier_block=FRONTIER_BLOCK
    )
    assert list(blocked.output) == list(unblocked.output)
    assert blocked.nodes_visited == unblocked.nodes_visited
    assert peak_unblocked >= 10 * peak_blocked, (
        f"blocked frontier lost its memory edge: unblocked "
        f"{peak_unblocked / 1e6:.1f} MB vs blocked "
        f"{peak_blocked / 1e6:.1f} MB"
    )


def test_star_count_sink_memory_guard(traced_peak):
    """Acceptance guard: fan-out 1024 under ``CountSink`` needs ≥50×
    less peak traced allocation than the materialized evaluation, with
    a bit-identical count and meter."""
    db = star_database(FAN_OUT_LARGE)
    generic_join(QUERY, db, frontier_block=FRONTIER_BLOCK)  # warm tries
    materialized, peak_materialized = traced_peak(generic_join, QUERY, db)
    sink = CountSink()
    counted, peak_counted = traced_peak(
        generic_join, QUERY, db, frontier_block=FRONTIER_BLOCK, sink=sink
    )
    assert sink.total == materialized.count == FAN_OUT_LARGE
    assert counted.nodes_visited == materialized.nodes_visited
    assert peak_materialized >= 50 * peak_counted, (
        f"count sink lost its memory edge: materialized "
        f"{peak_materialized / 1e6:.1f} MB vs counted "
        f"{peak_counted / 1e6:.1f} MB"
    )
