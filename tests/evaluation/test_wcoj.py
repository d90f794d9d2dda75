"""Unit tests for the worst-case-optimal join."""


import pytest

from oracles.tuple_engine import hash_join_chain_tuples
from repro.evaluation import count_query, generic_join
from repro.query import parse_query
from repro.relational import Database, Relation


class TestCorrectness:
    def test_matches_hash_join_on_one_join(self, two_table_db, one_join_query):
        wcoj = generic_join(one_join_query, two_table_db).output
        reference = hash_join_chain_tuples(one_join_query, two_table_db)
        assert wcoj == reference

    def test_matches_hash_join_on_triangle(self, graph_db, triangle_query):
        wcoj = generic_join(triangle_query, graph_db).output
        reference = hash_join_chain_tuples(triangle_query, graph_db)
        assert wcoj == reference

    def test_all_orders_agree(self, graph_db, triangle_query):
        import itertools

        counts = set()
        for order in itertools.permutations(("x", "y", "z")):
            counts.add(count_query(triangle_query, graph_db, order=order))
        assert len(counts) == 1

    def test_rejects_bad_order(self, graph_db, triangle_query):
        with pytest.raises(ValueError, match="permutation"):
            generic_join(triangle_query, graph_db, order=("x", "y"))

    def test_empty_relation_empty_output(self, triangle_query):
        db = Database({"R": Relation(("x", "y"), [])})
        assert count_query(triangle_query, db) == 0

    def test_repeated_variable_atom(self):
        db = Database({"R": Relation(("a", "b"), [(1, 1), (1, 2), (2, 2)])})
        q = parse_query("Q(x) :- R(x,x)")
        assert set(generic_join(q, db).output) == {(1,), (2,)}

    def test_output_attribute_order_is_query_order(self, graph_db):
        q = parse_query("Q(z,x,y) :- R(x,y), R(y,z)")
        out = generic_join(q, graph_db).output
        assert out.attributes == ("x", "y", "z")  # first-appearance order

    def test_unary_atoms_filter(self):
        db = Database(
            {
                "R": Relation(("a", "b"), [(1, 2), (3, 4)]),
                "S": Relation(("a",), [(1,)]),
            }
        )
        q = parse_query("Q(x,y) :- R(x,y), S(x)")
        assert set(generic_join(q, db).output) == {(1, 2)}


class TestMetering:
    def test_nodes_visited_bounded_by_agm(self, graph_db, triangle_query):
        from repro.estimators import agm_bound

        run = generic_join(triangle_query, graph_db)
        agm = agm_bound(triangle_query, graph_db)
        # WCOJ search tree ≤ #vars · AGM (loose but meaningful)
        assert run.nodes_visited <= 3 * 2 ** agm

    def test_nodes_at_least_output(self, graph_db, triangle_query):
        run = generic_join(triangle_query, graph_db)
        assert run.nodes_visited >= run.count

    def test_count_property(self, two_table_db, one_join_query):
        run = generic_join(one_join_query, two_table_db)
        assert run.count == len(run.output)


class TestCountQuery:
    def test_path_count(self):
        r = Relation(("a", "b"), [(1, 2), (2, 3), (2, 4)])
        db = Database({"R": r})
        q = parse_query("Q(x,y,z) :- R(x,y), R(y,z)")
        assert count_query(q, db) == 2  # 1→2→3, 1→2→4

    def test_four_cycle(self):
        rows = [(0, 1), (1, 0)]
        db = Database({"R": Relation(("a", "b"), rows)})
        q = parse_query("Q(a,b,c,d) :- R(a,b), R(b,c), R(c,d), R(d,a)")
        assert count_query(q, db) == 2  # 0101 and 1010
