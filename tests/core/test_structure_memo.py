"""What a :class:`StatisticsSet` keeps of itself for the LP layer.

A set never changes after it is built, so ``is_simple`` and the LP's
``(struct, b)`` pair per variable order are computed once per set: a
second solve of a kept set (the service's warm path) does no pass over
its statistics, every set built from it has a memo of its own, and the
shared ``b`` is read-only.  Solving from the memo changes no bit of a
result.
"""

import importlib
import math

import numpy as np
import pytest

from repro import collect_statistics, lp_bound, parse_query
from repro.core import BoundSolver, StatisticsSet, forced_lp_mode
from repro.core import conditionals
from repro.datasets import power_law_graph
from repro.datasets.imdb import imdb_database
from repro.datasets.job_queries import job_query
from repro.experiments.norm_ablation import DEFAULT_FAMILIES
from repro.relational import Database

lp_mod = importlib.import_module("repro.core.lp_bound")

TRIANGLE = parse_query("Q(x,y,z) :- R(x,y), R(y,z), R(z,x)")
PS = (1.0, 2.0, math.inf)


@pytest.fixture
def stats():
    db = Database({"R": power_law_graph(80, 400, 0.8, seed=5)})
    return collect_statistics(TRIANGLE, db, ps=PS)


@pytest.fixture
def builds(monkeypatch):
    """Counts the passes that derive a set's LP structure."""
    calls = []
    build = lp_mod._build_structure

    def counting(variables, statistics):
        calls.append(statistics)
        return build(variables, statistics)

    monkeypatch.setattr(lp_mod, "_build_structure", counting)
    return calls


class TestMemo:
    def test_second_solve_reuses_the_structure(self, stats, builds):
        order = TRIANGLE.variables
        solver = BoundSolver()
        first = solver.solve(stats, query=TRIANGLE)
        struct, b = lp_mod._stat_structure(order, stats)
        second = solver.solve(stats, query=TRIANGLE)
        again = lp_mod._stat_structure(order, stats)
        assert again[0] is struct and again[1] is b
        assert solver.last_solve_cached
        assert second.log2_bound == first.log2_bound
        assert len(builds) == 1  # one pass over the statistics in all

    def test_family_solves_of_a_kept_set_share_one_structure(
        self, stats, builds
    ):
        # the restriction is memoized on the kept set, so its structure
        # memo serves every solve of that family (a service's family
        # request on its cached statistics, say)
        solver = BoundSolver()
        first = solver.solve_family(stats, (1.0, math.inf), query=TRIANGLE)
        second = solver.solve_family(stats, [math.inf, 1.0], query=TRIANGLE)
        assert second.log2_bound == first.log2_bound
        assert solver.last_solve_cached
        assert len(builds) == 1

    def test_b_is_read_only(self, stats):
        _, b = lp_mod._stat_structure(TRIANGLE.variables, stats)
        assert not b.flags.writeable
        with pytest.raises(ValueError):
            b[0] = 0.0
        assert list(b) == [s.log2_bound for s in stats]

    def test_one_structure_per_variable_order(self, stats, builds):
        order = TRIANGLE.variables
        reversed_order = tuple(reversed(order))
        a = lp_mod._stat_structure(order, stats)
        b = lp_mod._stat_structure(reversed_order, stats)
        assert a[0] != b[0]
        assert lp_mod._stat_structure(order, stats) is a
        assert lp_mod._stat_structure(reversed_order, stats) is b
        assert len(builds) == 2

    def test_is_simple_is_computed_once(self, stats, monkeypatch):
        calls = []
        simple = conditionals.ConcreteStatistic.is_simple

        def counting(statistic):
            calls.append(statistic)
            return simple.fget(statistic)

        monkeypatch.setattr(
            conditionals.ConcreteStatistic, "is_simple", property(counting)
        )
        solver = BoundSolver()
        for _ in range(3):
            assert solver.solve(stats, query=TRIANGLE).cone == "normal"
        assert len(calls) == len(stats)

    def test_derived_sets_have_their_own_memo(self, stats, builds):
        order = TRIANGLE.variables
        struct, b = lp_mod._stat_structure(order, stats)
        for derived in (
            stats.restrict_ps({1.0}),
            stats.restrict_ps(PS),
            stats.deduplicated(),
            stats.add(stats[0]),
            stats.merged(StatisticsSet([])),
        ):
            sub_struct, sub_b = lp_mod._stat_structure(order, derived)
            assert sub_b is not b
            assert len(sub_b) == len(derived)
            assert sub_struct == lp_mod._build_structure(order, derived)[0]
        # restricting to every norm keeps every statistic, in order
        assert lp_mod._stat_structure(order, stats.restrict_ps(PS))[0] == struct

    def test_bad_order_raises_and_is_not_memoized(self, stats):
        with pytest.raises(KeyError):
            lp_mod._stat_structure(("x", "y"), stats)
        with pytest.raises(KeyError):
            lp_mod._stat_structure(("x", "y"), stats)


class TestBitIdentity:
    """Under ``oneshot``, solving a set whose memo is warm equals solving
    a fresh copy of it, bit for bit, on JOB × the E9 families."""

    @staticmethod
    def _key(result):
        return (
            result.status,
            result.log2_bound,
            None if result.h_values is None else np.asarray(result.h_values).tobytes(),
            None if result.dual_weights is None
            else np.asarray(result.dual_weights).tobytes(),
        )

    def test_memo_warm_equals_fresh(self):
        db = imdb_database(scale=0.05, seed=7)
        with forced_lp_mode("oneshot"):
            for qid in (1, 7, 19, 33):
                query = job_query(qid)
                full = collect_statistics(query, db, ps=sorted(
                    set().union(*DEFAULT_FAMILIES[:6])))
                for family in DEFAULT_FAMILIES[:6]:
                    warm = full.restrict_ps(family)
                    first = BoundSolver().solve(warm, query=query)
                    again = BoundSolver().solve(warm, query=query)
                    fresh = lp_bound(StatisticsSet(list(warm)), query=query)
                    assert self._key(first) == self._key(again)
                    assert self._key(again) == self._key(fresh)
