"""Unit tests for the Yannakakis semijoin reduction."""

import pytest

from repro.evaluation import acyclic_count, count_query
from repro.evaluation.yannakakis import semijoin_reduce
from repro.query import parse_query
from repro.relational import Database, Relation


class TestSemijoinReduce:
    def test_removes_dangling_tuples(self):
        r = Relation(("a", "b"), [(1, 2), (5, 9)])  # (5,9) dangles
        s = Relation(("b", "c"), [(2, 3), (7, 7)])  # (7,7) dangles
        db = Database({"R": r, "S": s})
        q = parse_query("Q(x,y,z) :- R(x,y), S(y,z)")
        reduced = semijoin_reduce(q, db)
        assert set(reduced["R"]) == {(1, 2)}
        assert set(reduced["S"]) == {(2, 3)}

    def test_preserves_output(self, two_table_db, one_join_query):
        reduced = semijoin_reduce(one_join_query, two_table_db)
        assert acyclic_count(one_join_query, reduced) == acyclic_count(
            one_join_query, two_table_db
        )

    def test_every_surviving_tuple_participates(self, two_table_db, one_join_query):
        from oracles.tuple_engine import generic_join_tuples

        reduced = semijoin_reduce(one_join_query, two_table_db)
        output = generic_join_tuples(one_join_query, two_table_db).output
        r_used = {(x, y) for x, y, _ in output}
        s_used = {(y, z) for _, y, z in output}
        assert set(reduced["R"]) == r_used
        assert set(reduced["S"]) == s_used

    def test_empty_join_empties_everything(self):
        r = Relation(("a", "b"), [(1, 2)])
        s = Relation(("b", "c"), [(9, 9)])
        db = Database({"R": r, "S": s})
        q = parse_query("Q(x,y,z) :- R(x,y), S(y,z)")
        reduced = semijoin_reduce(q, db)
        assert len(reduced["R"]) == 0
        assert len(reduced["S"]) == 0

    def test_path_three_hops(self, graph_db):
        q = parse_query("Q(a,b,c,d) :- R(a,b), R(b,c), R(c,d)")
        reduced = semijoin_reduce(q, graph_db)
        assert count_query(q, reduced) == count_query(q, graph_db)
        assert len(reduced["R"]) <= len(graph_db["R"])

    def test_star_reduction(self):
        center = Relation(("m",), [(0,), (1,), (2,)])
        fan = Relation(("m", "v"), [(0, 1), (0, 2), (9, 9)])
        db = Database({"C": center, "F": fan})
        q = parse_query("Q(m,a,b) :- C(m), F(m,a), F(m,b)")
        reduced = semijoin_reduce(q, db)
        assert set(reduced["C"]) == {(0,)}
        assert set(reduced["F"]) == {(0, 1), (0, 2)}

    def test_disjoint_atoms_no_cross_product(self):
        """Semijoin against a source sharing no variables keeps the target
        exactly when the source is non-empty — no cross product is formed.

        Regression test for the columnar path: the tuple oracle's semijoin
        returns `target_rows` whenever `source_rows` is non-empty, and the
        code-space engine must reproduce that semantics bit for bit.
        """
        from oracles.tuple_engine import semijoin_reduce_tuples

        r = Relation(("a", "b"), [(1, 2), (3, 4)])
        s = Relation(("c", "d"), [(7, 8)])
        db = Database({"R": r, "S": s})
        q = parse_query("Q(x,y,u,v) :- R(x,y), S(u,v)")
        reduced = semijoin_reduce(q, db)
        oracle = semijoin_reduce_tuples(q, db)
        # non-empty disjoint source: everything survives, nothing is joined
        assert set(reduced["R"]) == set(oracle["R"]) == {(1, 2), (3, 4)}
        assert set(reduced["S"]) == set(oracle["S"]) == {(7, 8)}
        # empty disjoint source: the whole output is empty, so is the target
        empty_db = Database({"R": r, "S": Relation(("c", "d"), [])})
        reduced = semijoin_reduce(q, empty_db)
        oracle = semijoin_reduce_tuples(q, empty_db)
        assert len(reduced["R"]) == len(oracle["R"]) == 0
        assert len(reduced["S"]) == len(oracle["S"]) == 0

    def test_cyclic_rejected(self, graph_db, triangle_query):
        with pytest.raises(ValueError):
            semijoin_reduce(triangle_query, graph_db)

    def test_untouched_relations_pass_through(self, two_table_db, one_join_query):
        extra = two_table_db.with_relation(
            "Z", Relation(("q",), [(1,)])
        )
        reduced = semijoin_reduce(one_join_query, extra)
        assert set(reduced["Z"]) == {(1,)}

    def test_bounds_shrink_after_reduction(self, two_table_db, one_join_query):
        # reduction can only tighten measured statistics
        import math

        from repro.core import collect_statistics, lp_bound

        before = lp_bound(
            collect_statistics(one_join_query, two_table_db, ps=[1.0, 2.0]),
            query=one_join_query,
        )
        reduced = semijoin_reduce(one_join_query, two_table_db)
        after = lp_bound(
            collect_statistics(one_join_query, reduced, ps=[1.0, 2.0]),
            query=one_join_query,
        )
        assert after.log2_bound <= before.log2_bound + 1e-9
        truth = acyclic_count(one_join_query, two_table_db)
        assert after.log2_bound >= math.log2(max(1, truth)) - 1e-9
