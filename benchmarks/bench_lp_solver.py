"""E10 + the batched bound pipeline's repeated-solve workloads.

``test_bench_lp_scaling`` regenerates the paper-shaped solver-scaling
table (docs/architecture.md).  The ``repeated_solve`` pair benchmarks the
plan-search pattern a production estimator lives in: the same bound
structures are requested over and over (a join-order enumerator re-costs
the same subqueries per candidate plan; a scale sweep re-solves one
structure with new norms).  The cold path pays full assembly + solve per
request; :class:`repro.core.BoundSolver` answers repeats from its
structure cache and result memo.  ``test_lp_solver_speedup_guard``
asserts the ≥5× acceptance bar and bit-identical results.
``test_bench_lp_model_build`` times the HiGHS model build that every
one-shot solve pays: job33's {1..10, ∞} assembly handed to HiGHS as
column-wise arrays.  It has no entry in ``BENCH_baseline.json``, so the
trajectory records it without gating it.
"""

import importlib
import math
import time
from dataclasses import replace

from repro.core import BoundSolver, collect_statistics, lp_bound
from repro.datasets import power_law_graph
from repro.datasets.job_queries import job_query
from repro.experiments.norm_ablation import DEFAULT_FAMILIES
from repro.experiments.lp_scaling import run_lp_scaling
from repro.query import parse_query
from repro.relational import Database

#: Norm families re-requested per round (the E1/E3 table columns).
FAMILIES = ((1.0,), (1.0, math.inf), (1.0, 2.0), (1.0, 2.0, 3.0, math.inf))
ROUNDS = 8


def _workload():
    """A fixed mix of query shapes over one graph, with full statistics."""
    edges = power_law_graph(600, 3000, 0.6, seed=8)
    queries = [
        parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)"),
        parse_query("p(a,b,c,d) :- R(a,b), R(b,c), R(c,d)"),
        parse_query("s(h,a,b,c) :- R(h,a), R(h,b), R(h,c)"),
    ]
    db = Database({"R": edges})
    ps = [1.0, 2.0, 3.0, math.inf]
    return [
        (query, collect_statistics(query, db, ps=ps)) for query in queries
    ]


def _solve_rounds_cold(workload):
    results = []
    for _ in range(ROUNDS):
        for query, stats in workload:
            for family in FAMILIES:
                results.append(
                    lp_bound(stats.restrict_ps(family), query=query)
                )
    return results


def _solve_rounds_solver(workload, solver):
    results = []
    for _ in range(ROUNDS):
        for query, stats in workload:
            for family in FAMILIES:
                results.append(solver.solve_family(stats, family, query=query))
    return results


def test_bench_lp_repeated_solve_cold(benchmark):
    """One-shot lp_bound per request — assembly + HiGHS every time."""
    workload = _workload()
    results = benchmark(_solve_rounds_cold, workload)
    assert all(r.status == "optimal" for r in results)


def test_bench_lp_repeated_solve_solver(benchmark):
    """The same requests through a fresh BoundSolver per round-trip."""
    workload = _workload()

    def run():
        return _solve_rounds_solver(workload, BoundSolver())

    results = benchmark(run)
    assert all(r.status == "optimal" for r in results)


def test_bench_lp_resolve_b_swap(benchmark):
    """The pure b-swap path: one structure, scaled norms every request.

    No request repeats exactly (the memo never hits), so this times
    cached-assembly re-solves alone.
    """
    workload = _workload()
    query, stats = workload[0]
    solver = BoundSolver(memoize_results=False)
    solver.solve(stats, query=query)  # warm the structure cache
    scale = [0.0]

    def run():
        scale[0] += 1e-3
        scaled = [
            replace(s, log2_bound=s.log2_bound + scale[0]) for s in stats
        ]
        return solver.solve(scaled, query=query)

    result = benchmark(run)
    assert result.status == "optimal"


def test_bench_lp_model_build(benchmark, imdb_db):
    """Build one HiGHS model of job33's {1..10, ∞} normal-cone LP."""
    lp_mod = importlib.import_module("repro.core.lp_bound")
    query = job_query(33)
    stats = collect_statistics(query, imdb_db, ps=DEFAULT_FAMILIES[5])
    rows = lp_mod._lp_rows(query.variables, stats)
    candidates = lp_mod._step_candidates(
        len(query.variables), "normal", lp_mod._step_pairs(rows.rows)
    )
    assembly = lp_mod._assemble_step_cone("normal", rows.rows, candidates)
    model = benchmark(lp_mod._HighsModel, assembly, rows.b)
    result = model.solve(rows.b, rows.winners, query.variables, stats)
    assert result.status == "optimal"
    assert result.log2_bound == lp_bound(stats, query=query).log2_bound


def test_lp_solver_speedup_guard():
    """Acceptance: solver ≥5× over cold lp_bound on repeated solves,
    results bit-identical (runs even in single-round CI smoke mode)."""
    import numpy as np

    workload = _workload()

    def best_of(fn, repeats=3):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    cold_results = _solve_rounds_cold(workload)
    solver = BoundSolver()
    warm_results = _solve_rounds_solver(workload, solver)
    assert len(cold_results) == len(warm_results)
    for a, b in zip(cold_results, warm_results):
        assert a.log2_bound == b.log2_bound
        assert np.array_equal(a.dual_weights, b.dual_weights)
    assert solver.result_hits > 0  # the repeats actually hit the memo

    cold = best_of(lambda: _solve_rounds_cold(workload))
    warm = best_of(lambda: _solve_rounds_solver(workload, BoundSolver()))
    assert cold / warm >= 5.0, (
        f"repeated-solve speedup collapsed: {cold / warm:.1f}x"
    )


def test_bench_lp_scaling(once):
    rows = once(run_lp_scaling)
    print()
    for r in rows:
        poly = ("-" if r.seconds_polymatroid is None
                else f"{r.seconds_polymatroid * 1e3:8.1f}ms")
        print(f"  n={r.num_variables:2d} normal={r.seconds_normal * 1e3:8.1f}ms"
              f" polymatroid={poly}")
        assert r.bounds_agree
    largest_with_poly = [r for r in rows if r.seconds_polymatroid is not None][-1]
    assert largest_with_poly.seconds_normal < largest_with_poly.seconds_polymatroid
