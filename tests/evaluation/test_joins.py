"""Unit tests for hash joins and left-deep evaluation."""

import pytest

from repro.evaluation.joins import evaluate_left_deep, hash_join
from repro.query import parse_query
from repro.relational import Database, Relation


class TestHashJoin:
    def test_basic_join(self):
        out_vars, rows = hash_join(
            ("x", "y"), [(1, 2), (3, 4)], ("y", "z"), [(2, 7), (2, 8)]
        )
        assert out_vars == ("x", "y", "z")
        assert sorted(rows) == [(1, 2, 7), (1, 2, 8)]

    def test_no_shared_is_cartesian(self):
        _, rows = hash_join(("x",), [(1,), (2,)], ("y",), [(7,), (8,)])
        assert len(rows) == 4

    def test_multi_shared(self):
        _, rows = hash_join(
            ("x", "y"), [(1, 2), (1, 3)], ("x", "y"), [(1, 2)]
        )
        assert rows == [(1, 2)]

    def test_empty_side(self):
        _, rows = hash_join(("x",), [], ("x",), [(1,)])
        assert rows == []

    def test_repeated_variable_is_rejected(self):
        with pytest.raises(ValueError, match="duplicate variables"):
            hash_join(("x", "x"), [(1, 1)], ("x",), [(1,)])


class TestEvaluateLeftDeep:
    def test_one_join(self, two_table_db, one_join_query):
        out = evaluate_left_deep(one_join_query, two_table_db)
        assert out.attributes == ("x", "y", "z")
        for x, y, z in out:
            assert (x, y) in two_table_db["R"]
            assert (y, z) in two_table_db["S"]

    def test_triangle(self, graph_db, triangle_query):
        out = evaluate_left_deep(triangle_query, graph_db)
        edge_set = set(graph_db["R"])
        for x, y, z in out:
            assert (x, y) in edge_set
            assert (y, z) in edge_set
            assert (z, x) in edge_set

    def test_explicit_order_same_result(self, graph_db, triangle_query):
        default = evaluate_left_deep(triangle_query, graph_db)
        reordered = evaluate_left_deep(triangle_query, graph_db, order=[2, 0, 1])
        assert default == reordered

    def test_repeated_variable_atom(self):
        db = Database({"R": Relation(("a", "b"), [(1, 1), (1, 2), (3, 3)])})
        q = parse_query("Q(x,y) :- R(x,x), R(x,y)")
        out = evaluate_left_deep(q, db)
        assert set(out) == {(1, 1), (1, 2), (3, 3)}

    def test_disconnected_query_is_product(self):
        db = Database(
            {
                "R": Relation(("a",), [(1,), (2,)]),
                "S": Relation(("a",), [(7,), (8,)]),
            }
        )
        q = parse_query("Q(x,y) :- R(x), S(y)")
        assert len(evaluate_left_deep(q, db)) == 4
