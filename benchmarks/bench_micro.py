"""Micro-benchmarks for the library's hot paths.

Unlike the experiment benchmarks (one-shot table regeneration), these use
pytest-benchmark's normal multi-round timing to characterise the cost of
the core operations a cardinality-estimation system would run per query:
statistics collection, the bound LP in each cone, degree-sequence
extraction, and the evaluators.
"""

import math

import numpy as np
import pytest

from oracles.tuple_engine import (
    acyclic_count_tuples,
    generic_join_tuples,
    group_sizes_tuples,
    semijoin_reduce_tuples,
)
from repro.core import StatisticsCatalog, collect_statistics, lp_bound
from repro.core.degree import degree_sequence
from repro.datasets import power_law_graph, snap_database
from repro.evaluation import acyclic_count, count_query, generic_join
from repro.query import parse_query

TRIANGLE = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
PATH2 = parse_query("p(x,y,z) :- R(x,y), R(y,z)")
PATH4 = parse_query("p(a,b,c,d,e) :- R(a,b), R(b,c), R(c,d), R(d,e)")


@pytest.fixture(scope="module")
def db():
    return snap_database("ca-GrQc")


@pytest.fixture(scope="module")
def triangle_stats(db):
    return collect_statistics(TRIANGLE, db, ps=[1.0, 2.0, 3.0, math.inf])


def test_bench_degree_sequence(benchmark, db):
    seq = benchmark(degree_sequence, db["R"], ["y"], ["x"])
    assert seq[0] >= seq[-1]


def test_bench_degree_sequence_tuple_oracle(benchmark, db):
    """The pre-columnar degree-sequence path, as a before/after yardstick."""
    relation = db["R"]

    def oracle():
        sizes = group_sizes_tuples(relation, ("x",), ("y",))
        out = np.fromiter(sizes.values(), dtype=np.int64, count=len(sizes))
        out[::-1].sort()
        return out

    seq = benchmark(oracle)
    assert np.array_equal(seq, degree_sequence(relation, ["y"], ["x"]))


def test_bench_collect_statistics(benchmark, db):
    stats = benchmark(
        collect_statistics, TRIANGLE, db, [1.0, 2.0, 3.0, math.inf]
    )
    assert len(stats) > 0


def test_bench_catalog_warm_lookup(benchmark, db):
    catalog = StatisticsCatalog(db)
    catalog.statistics_for(TRIANGLE, ps=[1.0, 2.0, 3.0, math.inf])  # warm

    def warm():
        return catalog.statistics_for(TRIANGLE, ps=[1.0, 2.0, 3.0, math.inf])

    stats = benchmark(warm)
    assert len(stats) > 0


def test_bench_lp_normal_cone(benchmark, triangle_stats):
    result = benchmark(
        lp_bound, triangle_stats, query=TRIANGLE, cone="normal"
    )
    assert result.status == "optimal"


def test_bench_lp_polymatroid_cone(benchmark, triangle_stats):
    result = benchmark(
        lp_bound, triangle_stats, query=TRIANGLE, cone="polymatroid"
    )
    assert result.status == "optimal"


def test_columnar_speedup_guard(db):
    """Perf regression guard (runs even in single-round CI smoke mode).

    The columnar engine must stay well ahead of the tuple oracle on both
    acceptance hot paths: the degree sequence, and the Generic Join on
    the binary join R(x,y) ⋈ R(y,z).  Thresholds are conservative
    against what is measured locally (degree sequence ~50×, the join
    ~120×) so a contended shared CI runner doesn't turn an unrelated PR
    red.
    """
    import time

    relation = db["R"]

    def best_of(fn, repeats=5):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn()
            times.append(time.perf_counter() - start)
        return min(times)

    def oracle_degrees():
        sizes = group_sizes_tuples(relation, ("x",), ("y",))
        out = np.fromiter(sizes.values(), dtype=np.int64, count=len(sizes))
        out[::-1].sort()

    degree_sequence(relation, ["y"], ["x"])  # warm the columnar cache
    fast = best_of(lambda: degree_sequence(relation, ["y"], ["x"]))
    slow = best_of(oracle_degrees)
    assert slow / fast >= 3.0, f"degree-sequence speedup collapsed: {slow / fast:.1f}x"

    generic_join(PATH2, db)  # warm the trie cache
    fast = best_of(lambda: generic_join(PATH2, db))
    slow = best_of(lambda: generic_join_tuples(PATH2, db))
    assert slow / fast >= 2.0, f"join speedup collapsed: {slow / fast:.1f}x"


def test_bench_imdb_setup(benchmark):
    """job-bound-sweep's set-up path: build the IMDB instance (its
    relations encoded over one shared dictionary) and take every twin."""
    from repro.datasets.imdb import imdb_database

    def setup():
        db = imdb_database(scale=0.3, seed=7)
        for relation in db.relations():
            relation.columnar()
        return db

    db = benchmark(setup)
    assert db.total_tuples() > 0


def test_bench_wcoj_triangle(benchmark):
    small = power_law_graph(600, 3000, 0.6, seed=8)
    from repro.relational import Database

    db_small = Database({"R": small})
    count = benchmark(count_query, TRIANGLE, db_small)
    assert count >= 0


def test_bench_acyclic_count_path(benchmark, db):
    count = benchmark(acyclic_count, PATH4, db)
    assert count > 0


def test_bench_acyclic_count_path_tuple_oracle(benchmark, db):
    """The dict-based counting sweep, as a before/after yardstick."""
    count = benchmark(acyclic_count_tuples, PATH4, db)
    assert count == acyclic_count(PATH4, db)


PATH3 = parse_query("p(a,b,c,d) :- R(a,b), R(b,c), R(c,d)")


def test_bench_semijoin_reduce(benchmark, db):
    """Yannakakis two-sweep reduction through the columnar masks."""
    from repro.evaluation import semijoin_reduce

    reduced = benchmark(semijoin_reduce, PATH3, db)
    assert len(reduced["R"]) <= len(db["R"])


def test_bench_semijoin_reduce_tuple_oracle(benchmark, db):
    """The same reduction through the tuple row-set sweeps."""
    reduced = benchmark(semijoin_reduce_tuples, PATH3, db)
    assert len(reduced["R"]) <= len(db["R"])
