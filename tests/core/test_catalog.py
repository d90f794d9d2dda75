"""Unit tests for the precomputed-statistics catalog.

The catalog (and ``collect_statistics``, a fresh catalog) must return
the statistics of the per-atom reference collector in
``tests/oracles/statistics.py`` bit for bit: the same statistics in the
same order, with the same conditional, p, ``log2_bound`` and guard.
"""

import math

import pytest

from oracles.statistics import (
    collect_statistics as oracle_statistics,
    statistic_tuples,
)
from repro.core import StatisticsCatalog, collect_statistics, lp_bound
from repro.datasets import power_law_graph, star_database, star_query
from repro.query import parse_query
from repro.relational import Database, Relation

PS = (1.0, 2.0, 3.0, math.inf)


class TestCaching:
    def test_sequence_cached(self, graph_db):
        catalog = StatisticsCatalog(graph_db)
        first = catalog.sequence("R", ["x"], ["y"])
        second = catalog.sequence("R", ["x"], ["y"])
        assert first is second
        assert catalog.cached_sequences() == 1

    def test_norms_share_one_sequence(self, graph_db):
        catalog = StatisticsCatalog(graph_db)
        for p in (1.0, 2.0, 3.0, 17.0, math.inf):
            catalog.log2_norm("R", ["x"], ["y"], p)
        assert catalog.cached_sequences() == 1
        assert catalog.cached_norms() == 5

    def test_names_of_one_twin_share_sequences(self):
        # star_database registers one relation as R1/R2 and another as
        # T1/T2: ten distinct sequences, each extracted once
        db = star_database(64)
        query = star_query(2)
        catalog = StatisticsCatalog(db)
        (stats,) = catalog.precompute([query])
        assert catalog.cache_stats()["sequences"] == 10
        assert statistic_tuples(stats) == statistic_tuples(
            oracle_statistics(query, db)
        )
        assert catalog.sequence("R2", ["v"], ["h"]) is catalog.sequence(
            "R1", ["v"], ["h"]
        )

    def test_norm_values_match_direct(self, graph_db):
        from repro.core.degree import degree_sequence
        from repro.core.norms import log2_norm

        catalog = StatisticsCatalog(graph_db)
        seq = degree_sequence(graph_db["R"], ["x"], ["y"])
        for p in (1.0, 2.5, math.inf):
            assert catalog.log2_norm("R", ["x"], ["y"], p) == pytest.approx(
                log2_norm(seq, p)
            )


class TestStatisticsFor:
    def test_matches_collect_statistics(self, graph_db, triangle_query):
        catalog = StatisticsCatalog(graph_db)
        from_catalog = catalog.statistics_for(triangle_query, ps=PS)
        direct = collect_statistics(triangle_query, graph_db, ps=PS)
        want = oracle_statistics(triangle_query, graph_db, ps=PS)
        assert statistic_tuples(from_catalog) == statistic_tuples(want)
        assert statistic_tuples(direct) == statistic_tuples(want)

    def test_bounds_agree_across_queries_sharing_cache(self, graph_db):
        catalog = StatisticsCatalog(graph_db)
        q1 = parse_query("Q(x,y,z) :- R(x,y), R(y,z)")
        q2 = parse_query("Q(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        ps = [1.0, 2.0, math.inf]
        b1 = lp_bound(catalog.statistics_for(q1, ps=ps), query=q1)
        sequences_after_first = catalog.cached_sequences()
        b2 = lp_bound(catalog.statistics_for(q2, ps=ps), query=q2)
        # the triangle reuses the one-join's sequences (same conditionals)
        assert catalog.cached_sequences() == sequences_after_first
        assert b1.status == b2.status == "optimal"
        d1 = lp_bound(collect_statistics(q1, graph_db, ps=ps), query=q1)
        d2 = lp_bound(collect_statistics(q2, graph_db, ps=ps), query=q2)
        assert b1.log2_bound == pytest.approx(d1.log2_bound)
        assert b2.log2_bound == pytest.approx(d2.log2_bound)

    def test_repeated_variable_atom_fallback(self, graph_db):
        catalog = StatisticsCatalog(graph_db)
        q = parse_query("Q(x,y) :- R(x,x), R(x,y)")
        stats = catalog.statistics_for(q, ps=[1.0, 2.0])
        assert len(stats) > 0
        assert stats.holds_on(graph_db)


def _oracle_db():
    edges = power_law_graph(60, 240, 0.8, seed=3)
    loops = [(i, i) for i in range(9)] + [(i, (i * 5) % 11) for i in range(30)]
    ternary = [(a, b, (a * b + a) % 5) for a in range(7) for b in range(6)]
    ternary += [(a, a, a % 3) for a in range(10)] + [(a, 2, a) for a in range(4)]
    return Database(
        {
            "R": edges,
            "L": Relation(("s", "t"), loops),
            "T": Relation(("a", "b", "c"), ternary),
            "E": Relation(("a", "b"), []),
            "W": Relation(("a", "b"), [(f"w{x}", f"w{y}") for x, y in edges]),
        }
    )


#: (label, query) cases the catalog must serve exactly as the oracle does
ORACLE_CASES = [
    ("triangle", "t(x,y,z) :- R(x,y), R(y,z), R(z,x)"),
    ("path", "p(a,b,c,d) :- R(a,b), R(b,c), R(c,d)"),
    ("ternary", "q(x,y,z,w) :- T(x,y,z), R(z,w), T(w,y,x)"),
    ("string-keyed", "s(x,y,z) :- W(x,y), W(y,z), W(z,x)"),
    ("empty", "e(x,y,z) :- R(x,y), E(y,z)"),
    ("R(x,x)", "d(x,y) :- L(x,x), L(x,y)"),
    ("R(x,y,x)", "d(x,y,z) :- T(x,y,x), R(y,z), T(z,z,y)"),
    ("R(x,x) alone", "d(x) :- L(x,x)"),
]

#: collection options every case runs under (besides the defaults)
ORACLE_OPTIONS = [
    {},
    {"join_variables_only": False},
    {"max_u_size": 2},
    {"join_variables_only": False, "max_u_size": 2},
]


class TestOracle:
    @pytest.fixture(scope="class")
    def db(self):
        return _oracle_db()

    @pytest.mark.parametrize(
        "options",
        ORACLE_OPTIONS,
        ids=lambda o: ",".join(map(str, o.values())) or "default",
    )
    @pytest.mark.parametrize(
        "label,text", ORACLE_CASES, ids=[c[0] for c in ORACLE_CASES]
    )
    def test_matches_oracle(self, db, label, text, options, monkeypatch):
        query = parse_query(text)
        want = statistic_tuples(oracle_statistics(query, db, ps=PS, **options))
        got = collect_statistics(query, db, ps=PS, **options)
        assert statistic_tuples(got) == want
        for stat in got:
            assert stat.log2_bound == stat.measured_log2(db)
        if options.get("max_u_size", 1) != 1:
            return
        catalog = StatisticsCatalog(db)
        join_only = options.get("join_variables_only", True)
        got = catalog.statistics_for(query, ps=PS, join_variables_only=join_only)
        assert statistic_tuples(got) == want
        # the second call is served from the cache, diagonals included:
        # it extracts no degree sequence at all
        stored = catalog.cache_stats()

        def no_extraction(*args):
            raise AssertionError("a warm lookup extracted a degree sequence")

        monkeypatch.setattr(Relation, "group_size_counts", no_extraction)
        again = catalog.statistics_for(
            query, ps=PS, join_variables_only=join_only
        )
        assert statistic_tuples(again) == want
        assert catalog.cache_stats() == stored

    def test_diagonal_is_its_own_sequence(self, db):
        catalog = StatisticsCatalog(db)
        (stats,) = catalog.precompute([parse_query("d(x) :- L(x,x)")], ps=PS)
        assert [s.log2_bound for s in stats] == [pytest.approx(math.log2(9))]
        plain = catalog.sequence("L", ["s"])
        assert catalog.cached_sequences() == 2
        assert len(plain) == 1 and plain[0] == len({x for x, _ in db["L"]})
