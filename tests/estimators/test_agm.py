"""Unit tests for the AGM bound: the library's ℓ1 bound LP must agree
with the fractional edge cover LP of ``tests/oracles/edge_cover.py``."""

import math

import pytest

from oracles.edge_cover import agm_log2
from repro.estimators import agm_bound, agm_bound_lp, agm_statistics
from repro.query import parse_query
from repro.relational import Database, Relation


@pytest.fixture
def product_db():
    rows = [(i, j) for i in range(8) for j in range(8)]
    r = Relation(("a", "b"), rows)
    return Database({"R": r, "S": r, "T": r})


class TestAgm:
    def test_triangle_on_product(self, product_db):
        q = parse_query("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)")
        # |R| = 64 → AGM = 64^{3/2} = 2^9
        assert agm_bound(q, product_db) == pytest.approx(9.0)

    def test_lp_route_agrees(self, product_db):
        q = parse_query("Q(x,y,z) :- R(x,y), S(y,z), T(z,x)")
        assert agm_bound(q, product_db) == agm_bound_lp(q, product_db).log2_bound
        assert agm_bound(q, product_db) == pytest.approx(agm_log2(q, product_db))

    def test_lp_route_agrees_on_skewed_data(self, graph_db, triangle_query):
        oracle = agm_log2(triangle_query, graph_db)
        assert agm_bound(triangle_query, graph_db) == pytest.approx(
            oracle, abs=1e-6
        )

    def test_statistics_are_the_atom_cardinalities(self, graph_db, triangle_query):
        stats = agm_statistics(triangle_query, graph_db)
        assert [s.guard for s in stats] == list(triangle_query.atoms)
        for s in stats:
            assert s.p == 1.0
            assert not s.conditional.u
            assert s.conditional.v == s.guard.variable_set
            assert s.log2_bound == math.log2(len(graph_db["R"]))

    def test_single_join_is_product(self, two_table_db, one_join_query):
        expected = math.log2(len(two_table_db["R"])) + math.log2(
            len(two_table_db["S"])
        )
        assert agm_bound(one_join_query, two_table_db) == pytest.approx(expected)

    def test_empty_relation_gives_zero(self):
        db = Database(
            {"R": Relation(("a", "b"), []), "S": Relation(("a", "b"), [(1, 2)])}
        )
        q = parse_query("Q(x,y,z) :- R(x,y), S(y,z)")
        assert agm_bound(q, db) == -math.inf
        assert agm_log2(q, db) == -math.inf

    def test_agm_dominates_truth(self, graph_db, triangle_query):
        from repro.evaluation import count_query

        true_count = count_query(triangle_query, graph_db)
        assert 2 ** agm_bound(triangle_query, graph_db) >= true_count

    def test_repeated_variable_atom(self):
        # R(x, x) projects to the diagonal; AGM uses its distinct count
        db = Database({"R": Relation(("a", "b"), [(1, 1), (2, 2), (1, 2)])})
        q = parse_query("Q(x) :- R(x,x)")
        assert agm_bound(q, db) == pytest.approx(1.0)  # 2 diagonal rows
        assert agm_log2(q, db) == pytest.approx(1.0)
