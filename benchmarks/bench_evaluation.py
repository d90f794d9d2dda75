"""E8 — Sec. 2.2 / Theorem 2.6: evaluation within the bound (docs/architecture.md).

Regenerates: the metered partitioned evaluation of the one-join and
triangle workloads.  Asserts: the partitioned algorithm's output equals
the direct join's, and the metered work stays within the Theorem 2.6
budget (up to the allowed polylog slack).

Also characterises the columnar WCOJ against its tuple oracle on the
triangle and Loomis–Whitney counting workloads (the acceptance hot paths
of the sorted-codes engine), with a conservative speedup guard that runs
even in single-round CI smoke mode.
"""

import math
import time

import pytest

from oracles.tuple_engine import generic_join_tuples
from repro.core import collect_statistics, lp_bound
from repro.datasets import snap_database
from repro.evaluation import (
    evaluate_parallel,
    evaluate_with_partitioning,
    generic_join,
)
from repro.experiments.evaluation_runtime import run_evaluation_experiment
from repro.query import parse_query

TRIANGLE = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
LOOMIS_WHITNEY = parse_query("lw(x,y,z) :- R(x,y), R(y,z), R(x,z)")

@pytest.fixture(scope="module")
def db():
    return snap_database("ca-GrQc")


def test_bench_evaluation_runtime(once):
    rows = once(run_evaluation_experiment, "ca-GrQc")
    print()
    for r in rows:
        print(f"  {r.workload}: parts={r.parts_evaluated} "
              f"work=2^{r.log2_nodes:.2f} budget=2^{r.log2_budget:.2f}")
        assert r.output_matches
        assert r.within_budget
        assert r.parts_evaluated > 1  # the partitioning actually happened


def test_bench_parallel_triangle(benchmark, db):
    """The triangle through the supervised parallel evaluator.

    Every round starts a fresh worker pool (its processes forked from
    the process-wide forkserver, which the first round starts) plus the
    part fan-out and the deterministic merge — the supervision overhead
    this entry tracks.
    Pool startup is host-load-dependent, so the trajectory grants the
    entry extra tolerance (``trajectory.TOLERANCES``).
    """
    stats = collect_statistics(TRIANGLE, db, ps=[1.0, 2.0, math.inf])
    bound = lp_bound(stats, query=TRIANGLE)
    serial = evaluate_with_partitioning(TRIANGLE, db, bound, max_parts=20000)

    def run_parallel():
        return evaluate_parallel(
            TRIANGLE, db, bound, workers=2, max_parts=20000
        )

    run = benchmark(run_parallel)
    assert run.count == serial.count
    assert run.nodes_visited == serial.nodes_visited
    assert run.parts_evaluated == serial.parts_evaluated


def test_bench_wcoj_triangle_columnar(benchmark, traced_peak, db):
    """Triangle counting through the vectorized sorted-codes engine."""
    _, peak = traced_peak(generic_join, TRIANGLE, db)
    benchmark.extra_info["peak_traced_kb"] = round(peak / 1024, 1)
    run = benchmark(generic_join, TRIANGLE, db)
    assert run.count > 0


def test_bench_wcoj_triangle_tuple_oracle(benchmark, db):
    """The same triangle count through the dict-trie oracle (the before)."""
    run = benchmark(generic_join_tuples, TRIANGLE, db)
    assert run.count > 0


def test_bench_wcoj_loomis_whitney_columnar(benchmark, traced_peak, db):
    """LW(3) counting through the vectorized sorted-codes engine."""
    _, peak = traced_peak(generic_join, LOOMIS_WHITNEY, db)
    benchmark.extra_info["peak_traced_kb"] = round(peak / 1024, 1)
    run = benchmark(generic_join, LOOMIS_WHITNEY, db)
    assert run.count > 0


def test_bench_wcoj_loomis_whitney_tuple_oracle(benchmark, db):
    """The same LW(3) count through the dict-trie oracle."""
    run = benchmark(generic_join_tuples, LOOMIS_WHITNEY, db)
    assert run.count > 0


def test_wcoj_speedup_guard(db):
    """Perf regression guard (runs even in single-round CI smoke mode).

    The columnar WCOJ must stay well ahead of the tuple oracle on both
    counting workloads; thresholds are conservative against the ≥10×
    measured locally so a contended shared CI runner doesn't turn an
    unrelated PR red.  Outputs and meters must agree exactly.
    """

    def best_of(fn, *args, repeats=3):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn(*args)
            times.append(time.perf_counter() - start)
        return min(times)

    for query in (TRIANGLE, LOOMIS_WHITNEY):
        fast_run = generic_join(query, db)  # warm the trie cache
        slow_run = generic_join_tuples(query, db)
        assert set(fast_run.output) == set(slow_run.output)
        assert fast_run.nodes_visited == slow_run.nodes_visited
        fast = best_of(generic_join, query, db)
        slow = best_of(generic_join_tuples, query, db, repeats=2)
        assert slow / fast >= 4.0, (
            f"{query.name} WCOJ speedup collapsed: {slow / fast:.1f}x"
        )


def test_governor_overhead_guard(db):
    """Perf guard: an idle governor costs ≤5% on the triangle workload.

    Governance samples memory once per frontier slice, never per row —
    with watermarks far away the governed run does exactly the
    ungoverned run's work plus one probe and a few comparisons per
    checkpoint.  Measured as interleaved best-of-5 (min-of-N strips
    scheduler noise; interleaving strips thermal drift), with a small
    absolute epsilon so a sub-millisecond blip on a contended runner
    cannot flip the guard.
    """
    from repro.evaluation import EvaluationBudget, EvaluationGovernor

    block = 8192
    budget = EvaluationBudget(
        soft_memory_bytes=1 << 33, hard_memory_bytes=1 << 34
    )

    def governed():
        return generic_join(
            TRIANGLE,
            db,
            frontier_block=block,
            governor=EvaluationGovernor(budget),
        )

    def ungoverned():
        return generic_join(TRIANGLE, db, frontier_block=block)

    reference = ungoverned()  # warm tries
    check = governed()
    assert list(check.output) == list(reference.output)
    assert check.nodes_visited == reference.nodes_visited
    best_governed = math.inf
    best_ungoverned = math.inf
    for _ in range(5):
        start = time.perf_counter()
        ungoverned()
        best_ungoverned = min(best_ungoverned, time.perf_counter() - start)
        start = time.perf_counter()
        governed()
        best_governed = min(best_governed, time.perf_counter() - start)
    assert best_governed <= 1.05 * best_ungoverned + 2e-3, (
        f"governor overhead exceeded 5%: governed {best_governed * 1e3:.2f}ms "
        f"vs ungoverned {best_ungoverned * 1e3:.2f}ms"
    )
