"""The batched bound pipeline must be bit-identical to the one-shot path.

``StatisticsCatalog.precompute`` vs the per-atom reference collector of
``tests/oracles/statistics.py`` on the E1–E9 query families, all 33 JOB
queries and the graph-eval workload; ``BoundSolver`` vs ``lp_bound``;
plus cache-hit accounting on the catalog and solver and determinism of
``lp_bound_many``.
"""

import math

import numpy as np
import pytest

from oracles.statistics import (
    collect_statistics as oracle_statistics,
    statistic_tuples,
)
from repro.core import (
    BoundSolver,
    BoundTask,
    BoundTaskError,
    StatisticsCatalog,
    collect_statistics,
    forced_lp_mode,
    lp_bound,
    lp_bound_many,
)
from repro.datasets import power_law_graph, star_database, star_query
from repro.datasets.generators import alpha_beta_relation
from repro.datasets.imdb import imdb_database
from repro.datasets.job_queries import JOB_QUERY_IDS, job_query
from repro.experiments.cycle import cycle_query
from repro.experiments.job import JOB_PS
from repro.query import parse_query
from repro.relational import Database, Relation

PS = (1.0, 2.0, 3.0, math.inf)

#: One representative query per E1–E9 family shape.
E_FAMILY_QUERIES = [
    ("E1 triangle", parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")),
    ("E2 one-join", parse_query("j(x,y,z) :- R(x,y), R(y,z)")),
    ("E4 cycle", cycle_query(4)),
    ("E5 gap", parse_query("g(x,y,z) :- R(x,y), S(y,z)")),
    ("E8 path", parse_query("p(a,b,c,d) :- R(a,b), R(b,c), R(c,d)")),
    ("E12 LW", parse_query("lw(x,y,z) :- R(x,y), R(y,z), R(x,z)")),
]


@pytest.fixture(scope="module")
def pipeline_db():
    edges = power_law_graph(400, 2000, 0.7, seed=5)
    s = alpha_beta_relation(0.0, 2.0 / 3.0, 729).with_name("S")
    return Database(
        {
            "R": edges,
            "S": s,
            **{f"R{i}": edges for i in range(4)},
        }
    )


@pytest.fixture(scope="module")
def job_db():
    return imdb_database(scale=0.05, seed=7)


def assert_catalog_matches_oracle(db, queries, ps):
    """One catalog's batched statistics equal the reference collector's,
    bit for bit and in order, for every query of a workload."""
    batched = StatisticsCatalog(db).precompute(queries, ps=ps)
    for query, stats in zip(queries, batched, strict=True):
        want = oracle_statistics(query, db, ps=ps)
        assert statistic_tuples(stats) == statistic_tuples(want)


def assert_results_identical(a, b):
    assert a.log2_bound == b.log2_bound
    assert a.status == b.status
    assert a.cone == b.cone
    assert a.variables == b.variables
    if a.dual_weights is None:
        assert b.dual_weights is None
    else:
        assert np.array_equal(a.dual_weights, b.dual_weights)
    if a.h_values is None:
        assert b.h_values is None
    else:
        assert np.array_equal(a.h_values, b.h_values)
    assert a.normal_coefficients == b.normal_coefficients
    used_a = [(str(s), w) for s, w in a.used_statistics()]
    used_b = [(str(s), w) for s, w in b.used_statistics()]
    assert used_a == used_b


class TestEquivalence:
    def test_precompute_matches_collect_statistics(self, pipeline_db):
        queries = [q for _, q in E_FAMILY_QUERIES]
        assert_catalog_matches_oracle(pipeline_db, queries, PS)

    def test_job_statistics_match_oracle(self, job_db):
        queries = [job_query(qid) for qid in JOB_QUERY_IDS]
        assert len(queries) == 33
        assert_catalog_matches_oracle(job_db, queries, JOB_PS)

    def test_graph_eval_statistics_match_oracle(self):
        edges = power_law_graph(300, 1500, 0.9, seed=11)
        strings = Relation(("x", "y"), [(f"v{x}", f"v{y}") for x, y in edges])
        triangle = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        lw = parse_query("lw(x,y,z) :- R(x,y), R(y,z), R(x,z)")
        for relation in (edges, strings):
            db = Database({"R": relation})
            assert_catalog_matches_oracle(db, [triangle, lw], PS)
        assert_catalog_matches_oracle(
            star_database(64), [star_query(2)], (1.0, 2.0, math.inf)
        )

    @pytest.mark.parametrize("label,query", E_FAMILY_QUERIES)
    @pytest.mark.parametrize("cone", ["auto", "normal", "polymatroid"])
    def test_solver_matches_lp_bound(self, pipeline_db, label, query, cone):
        catalog = StatisticsCatalog(pipeline_db)
        (stats,) = catalog.precompute([query], ps=PS)
        one_shot = lp_bound(
            collect_statistics(query, pipeline_db, ps=PS), query=query, cone=cone
        )
        solved = BoundSolver().solve(stats, query=query, cone=cone)
        assert_results_identical(one_shot, solved)

    @pytest.mark.parametrize(
        "family", [(1.0,), (1.0, math.inf), (1.0, 2.0), (2.0,), PS]
    )
    @pytest.mark.parametrize("cone", ["auto", "polymatroid", "normal"])
    def test_solve_family_matches_restrict_ps(
        self, pipeline_db, job_db, family, cone
    ):
        triangle = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        for query, db in ((triangle, pipeline_db), (job_query(7), job_db)):
            stats = collect_statistics(query, db, ps=PS)
            one_shot = lp_bound(
                stats.restrict_ps(family), query=query, cone=cone
            )
            solver = BoundSolver()
            solver.solve(stats, query=query, cone=cone)  # warm full family
            sliced = solver.solve_family(
                stats, family, query=query, cone=cone
            )
            assert_results_identical(one_shot, sliced)

    def test_job_queries_match(self, job_db):
        db = job_db
        queries = [job_query(qid) for qid in (1, 7, 19, 33)]
        catalog = StatisticsCatalog(db)
        job_ps = tuple(float(p) for p in range(1, 11)) + (math.inf,)
        batched = catalog.precompute(queries, ps=job_ps)
        solver = BoundSolver()
        for query, stats in zip(queries, batched):
            one_shot = lp_bound(
                collect_statistics(query, db, ps=job_ps), query=query
            )
            assert_results_identical(
                one_shot, solver.solve(stats, query=query)
            )

    def test_memo_hit_rebinds_statistics(self, pipeline_db):
        query = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        solver = BoundSolver()
        stats_a = collect_statistics(query, pipeline_db, ps=PS)
        stats_b = collect_statistics(query, pipeline_db, ps=PS)
        first = solver.solve(stats_a, query=query)
        second = solver.solve(stats_b, query=query)
        assert solver.result_hits == 1
        assert_results_identical(first, second)
        assert second.statistics is stats_b  # callers see their own set


class TestCatalogAccounting:
    def test_one_shot_path_pays_one_sort_per_sequence(self, pipeline_db):
        catalog = StatisticsCatalog(pipeline_db)
        catalog.sequence("R", ["x"], ["y"])
        catalog.sequence("R", ["y"], ["x"])
        assert catalog.cache_stats()["lexsorts"] == 2

    def test_warm_precompute_adds_no_sorts(self, pipeline_db):
        queries = [q for _, q in E_FAMILY_QUERIES]
        catalog = StatisticsCatalog(pipeline_db)
        catalog.precompute(queries, ps=PS)
        stored = catalog.cache_stats()
        assert stored["lexsorts"] == stored["sequences"]
        again = catalog.precompute(queries, ps=PS)
        assert catalog.cache_stats() == stored
        assert len(again) == len(queries)

    def test_fallback_relation_still_served(self):
        # string values encode like ints: the same sequences, the same sorts
        rows = [(i % 7, i % 5) for i in range(40)]
        query = parse_query("q(a,b,c) :- T(a,b), T(b,c)")
        counters = []
        for typed in (rows, [(f"u{x}", f"v{y}") for x, y in rows]):
            db = Database({"T": Relation(("x", "y"), typed)})
            catalog = StatisticsCatalog(db)
            (stats,) = catalog.precompute([query], ps=PS)
            want = oracle_statistics(query, db, ps=PS)
            assert statistic_tuples(stats) == statistic_tuples(want)
            counters.append(catalog.cache_stats())
        ints, strings = counters
        assert strings == ints
        assert strings["lexsorts"] == strings["sequences"]


class TestSolverAccounting:
    def test_structure_cache_hits_across_b_swaps(self, pipeline_db):
        query = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        stats = collect_statistics(query, pipeline_db, ps=PS)
        solver = BoundSolver(memoize_results=False)
        solver.solve(stats, query=query)
        assert solver.assembly_misses == 1
        from dataclasses import replace

        scaled = [replace(s, log2_bound=s.log2_bound + 1.0) for s in stats]
        solver.solve(scaled, query=query)
        assert solver.assembly_hits == 1
        assert solver.solves == 2

    def test_family_slice_counter(self, pipeline_db):
        query = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        stats = collect_statistics(query, pipeline_db, ps=PS)
        solver = BoundSolver()
        solver.solve_family(stats, (1.0, 2.0), query=query, cone="polymatroid")
        assert solver.family_slices == 1

    def test_extra_inequalities_bypass_cache(self, pipeline_db):
        query = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        stats = collect_statistics(query, pipeline_db, ps=PS)
        solver = BoundSolver()
        extra = np.zeros(8)
        extra[3] = 1.0  # a trivially valid inequality h({x,y}) >= 0
        result = solver.solve(
            stats, query=query, cone="polymatroid", extra_inequalities=[extra]
        )
        assert result.status == "optimal"
        assert solver.cached_assemblies() == 0


class TestLpBoundMany:
    def _tasks(self, pipeline_db):
        tasks = []
        for _, query in E_FAMILY_QUERIES:
            stats = collect_statistics(query, pipeline_db, ps=PS)
            tasks.append(BoundTask(stats, query=query))
            tasks.append(BoundTask(stats, query=query, family=(1.0, math.inf)))
        return tasks

    def test_serial_matches_one_shot_in_order(self, pipeline_db):
        # bit-identity to lp_bound is the one-shot mode's guarantee; the
        # persistent mode's warm re-solves agree on the bound, while a
        # degenerate optimum may leave it a different witness h
        tasks = self._tasks(pipeline_db)
        with forced_lp_mode("oneshot"):
            results = lp_bound_many(tasks, executor="serial")
        with forced_lp_mode("persistent"):
            warm = lp_bound_many(tasks, executor="serial")
        for task, result, warm_result in zip(tasks, results, warm):
            stats = task.statistics
            if task.family is not None:
                stats = stats.restrict_ps(task.family)
            direct = lp_bound(stats, query=task.query)
            assert_results_identical(direct, result)
            assert warm_result.log2_bound == pytest.approx(
                direct.log2_bound, abs=1e-9
            )

    def test_thread_pool_matches_serial(self, pipeline_db):
        tasks = self._tasks(pipeline_db)
        serial = lp_bound_many(tasks, executor="serial")
        threaded = lp_bound_many(tasks, executor="thread", max_workers=4)
        for a, b in zip(serial, threaded):
            assert_results_identical(a, b)

    def test_shared_structure_keeps_task_order(self):
        # eight same-structure triangle LPs share one warm model, whose
        # optimal vertex depends on the order of its solves: threads must
        # not reorder them (a scrambled order changed the duals in about
        # half of the runs)
        query = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        tasks = [
            BoundTask(
                collect_statistics(
                    query,
                    Database({"R": power_law_graph(50, 150, 0.8, seed)}),
                    ps=PS,
                ),
                query=query,
            )
            for seed in range(11, 19)
        ]
        for _ in range(5):
            with forced_lp_mode("persistent"):
                serial = lp_bound_many(tasks, BoundSolver(), executor="serial")
                threaded = lp_bound_many(
                    tasks, BoundSolver(), max_workers=4, executor="thread"
                )
            for a, b in zip(serial, threaded):
                assert_results_identical(a, b)

    def test_unknown_executor_rejected(self, pipeline_db):
        with pytest.raises(ValueError, match="unknown executor"):
            lp_bound_many([], executor="gpu")


class TestBoundTaskError:
    """A failing task must be reported with its identity attached."""

    def _tasks(self, pipeline_db):
        query = E_FAMILY_QUERIES[0][1]
        stats = collect_statistics(query, pipeline_db, ps=PS)
        good = BoundTask(stats, query=query)
        # statistics=None blows up inside the solver on every executor —
        # a stand-in for any mid-batch solver failure
        bad = BoundTask(None, query=parse_query("boom(x,y) :- R(x,y)"))
        return [good, bad, good]

    @pytest.mark.parametrize(
        "executor, workers",
        [("serial", None), ("thread", 2)],
    )
    def test_failure_names_task_and_query(
        self, pipeline_db, executor, workers
    ):
        tasks = self._tasks(pipeline_db)
        with pytest.raises(BoundTaskError) as info:
            lp_bound_many(tasks, executor=executor, max_workers=workers)
        err = info.value
        assert err.index == 1
        assert err.task is tasks[1]
        assert "bound task 1" in str(err)
        assert "'boom'" in str(err)
        assert err.__cause__ is not None

    def test_anonymous_task_omits_query_name(self, pipeline_db):
        tasks = [BoundTask(None)]
        with pytest.raises(BoundTaskError) as info:
            lp_bound_many(tasks, executor="serial")
        assert str(info.value).startswith("bound task 0 failed:")
        assert "query" not in str(info.value)
