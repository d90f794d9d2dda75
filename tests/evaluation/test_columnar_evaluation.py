"""Property-based equivalence: columnar evaluators vs the tuple oracles.

The vectorized Generic Join, Yannakakis reduction, and counting sweep
must match their tuple-at-a-time oracles (``tests/oracles/tuple_engine.py``)
bit for bit: same output row sets (of Python ints, not np.int64, on
integer data), same attribute order, and — for the WCOJ — the *same
metered search-tree size*, because ``experiments.evaluation_runtime``
compares that meter against the Theorem 2.6 budget.  Randomized
databases cover empty relations, self-joins, repeated-variable
(diagonal) atoms, disjoint atoms, and values outside ``int64`` (object
dictionaries).
"""

import pytest
from hypothesis import given, settings, strategies as st

from oracles.strategies import fallback_value
from oracles.tuple_engine import (
    acyclic_count_tuples,
    generic_join_tuples,
    semijoin_reduce_tuples,
)
from repro.evaluation import (
    acyclic_count,
    count_query,
    generic_join,
    semijoin_reduce,
)
from repro.query import parse_query
from repro.relational import Database, Relation, columnar

SETTINGS = settings(max_examples=40, deadline=None)

values = st.integers(0, 5)
pairs = st.lists(st.tuples(values, values), max_size=18)
units = st.lists(st.tuples(values), max_size=6)

CYCLIC_QUERIES = [
    parse_query("triangle(x,y,z) :- R(x,y), R(y,z), R(z,x)"),
    parse_query("lw(x,y,z) :- R(x,y), S(y,z), T(x,z)"),
    parse_query("cycle4(a,b,c,d) :- R(a,b), S(b,c), R(c,d), S(d,a)"),
]

ACYCLIC_QUERIES = [
    parse_query("onejoin(x,y,z) :- R(x,y), S(y,z)"),
    parse_query("path3(a,b,c,d) :- R(a,b), R(b,c), S(c,d)"),
    parse_query("star(m,a,b) :- U(m), R(m,a), R(m,b)"),
    parse_query("diag(x,w) :- R(x,x), S(x,w)"),
    parse_query("disjoint(x,y,u,v) :- R(x,y), S(u,v)"),
    parse_query("filtered(x,y) :- R(x,y), U(x)"),
]


fallback_pairs = st.lists(st.tuples(fallback_value, fallback_value), max_size=18)
fallback_units = st.lists(st.tuples(fallback_value), max_size=6)


@st.composite
def databases(draw, pairs=pairs, units=units):
    return Database(
        {
            "R": Relation(("a", "b"), draw(pairs)),
            "S": Relation(("a", "b"), draw(pairs)),
            "T": Relation(("a", "b"), draw(pairs)),
            "U": Relation(("u",), draw(units)),
        }
    )


any_databases = databases() | databases(fallback_pairs, fallback_units)


def assert_join_matches_oracle(query, db):
    fast = generic_join(query, db)
    slow = generic_join_tuples(query, db)
    assert fast.output.attributes == slow.output.attributes
    assert set(fast.output) == set(slow.output)
    assert fast.nodes_visited == slow.nodes_visited
    if all(rel.columnar().dictionary(a).dtype != object
           for rel in db.relations() for a in rel.attributes):
        assert all(type(v) is int for row in fast.output for v in row)


class TestGenericJoinEquivalence:
    @SETTINGS
    @given(any_databases)
    def test_cyclic_queries(self, db):
        for query in CYCLIC_QUERIES:
            assert_join_matches_oracle(query, db)

    @SETTINGS
    @given(any_databases)
    def test_acyclic_queries(self, db):
        for query in ACYCLIC_QUERIES:
            assert_join_matches_oracle(query, db)

    @SETTINGS
    @given(pairs)
    def test_explicit_orders_agree(self, rows):
        db = Database({"R": Relation(("a", "b"), rows)})
        query = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        for order in [("x", "y", "z"), ("z", "x", "y"), ("y", "z", "x")]:
            fast = generic_join(query, db, order=order)
            slow = generic_join_tuples(query, db, order=order)
            assert set(fast.output) == set(slow.output)
            assert fast.nodes_visited == slow.nodes_visited


class TestYannakakisEquivalence:
    @SETTINGS
    @given(any_databases)
    def test_reduction_matches_oracle(self, db):
        for query in ACYCLIC_QUERIES:
            fast = semijoin_reduce(query, db)
            slow = semijoin_reduce_tuples(query, db)
            for name in db:
                assert fast[name].attributes == slow[name].attributes
                assert set(fast[name]) == set(slow[name]), (query.name, name)

    @SETTINGS
    @given(any_databases)
    def test_count_matches_oracle_and_join(self, db):
        for query in ACYCLIC_QUERIES:
            fast = acyclic_count(query, db)
            slow = acyclic_count_tuples(query, db)
            assert fast == slow
            assert type(fast) is int
            assert fast == count_query(query, db)


class TestFallbackPath:
    """Values outside ``int64`` run through the same columnar engines."""

    @SETTINGS
    @given(pairs, pairs)
    def test_string_values_fall_back(self, r_rows, s_rows):
        db = Database(
            {
                "R": Relation(
                    ("a", "b"), [(f"n{a}", f"n{b}") for a, b in r_rows]
                ),
                "S": Relation(
                    ("a", "b"), [(f"n{a}", f"n{b}") for a, b in s_rows]
                ),
            }
        )
        query = parse_query("q(x,y,z) :- R(x,y), S(y,z)")
        run = generic_join(query, db)
        oracle = generic_join_tuples(query, db)
        assert set(run.output) == set(oracle.output)
        assert run.nodes_visited == oracle.nodes_visited
        reduced = semijoin_reduce(query, db)
        reduced_oracle = semijoin_reduce_tuples(query, db)
        for name in db:
            assert set(reduced[name]) == set(reduced_oracle[name])
        assert acyclic_count(query, db) == acyclic_count_tuples(query, db)

    @SETTINGS
    @given(pairs, pairs)
    def test_mixed_database_falls_back_whole(self, r_rows, s_rows):
        # an int64-dictionary relation next to an object-dictionary one
        db = Database(
            {
                "R": Relation(("a", "b"), r_rows),
                "S": Relation(
                    ("a", "b"), [(f"{a}", f"{b}") for a, b in s_rows]
                ),
            }
        )
        query = parse_query("q(x,y,u,v) :- R(x,y), S(u,v)")
        run = generic_join(query, db)
        oracle = generic_join_tuples(query, db)
        assert set(run.output) == set(oracle.output)
        assert run.nodes_visited == oracle.nodes_visited


class TestEdgeCases:
    def test_empty_relation_everywhere(self):
        db = Database(
            {
                "R": Relation(("a", "b"), []),
                "S": Relation(("a", "b"), [(1, 2)]),
            }
        )
        query = parse_query("q(x,y,z) :- R(x,y), S(y,z)")
        run = generic_join(query, db)
        assert run.count == 0 and run.nodes_visited == 0
        reduced = semijoin_reduce(query, db)
        assert len(reduced["R"]) == 0 and len(reduced["S"]) == 0
        assert acyclic_count(query, db) == 0

    def test_empty_mid_search_meters_match(self):
        # R has rows but S kills every branch at the second level
        db = Database(
            {
                "R": Relation(("a", "b"), [(1, 2), (3, 4)]),
                "S": Relation(("a", "b"), [(9, 9)]),
            }
        )
        query = parse_query("q(x,y,z) :- R(x,y), S(y,z)")
        order = ("x", "y", "z")  # bind x first so the search visits nodes
        fast = generic_join(query, db, order=order)
        slow = generic_join_tuples(query, db, order=order)
        assert fast.count == slow.count == 0
        assert fast.nodes_visited == slow.nodes_visited > 0

    def test_count_beyond_int64_stays_exact(self):
        # 64^12 distinct star extensions: far beyond int64, and the
        # columnar sweep must promote to exact Python integers.
        fan = Relation(("m", "v"), [(0, i) for i in range(64)])
        center = Relation(("m",), [(0,)])
        head = ",".join(f"v{i}" for i in range(12))
        body = ", ".join(f"F(m,v{i})" for i in range(12))
        query = parse_query(f"huge(m,{head}) :- C(m), {body}")
        db = Database({"C": center, "F": fan})
        count = acyclic_count(query, db)
        assert count == acyclic_count_tuples(query, db) == 64**12

    def test_triangle_meter_on_generated_graph(self):
        from repro.datasets import power_law_graph

        db = Database({"R": power_law_graph(300, 1200, 0.5, seed=5)})
        query = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        assert_join_matches_oracle(query, db)


class TestRadixOverflow:
    """Three-column separators whose radix product reaches the cap take
    the joint re-factorization of both sides' key columns."""

    QUERY = parse_query("q(a,b,c,d,e) :- R(a,b,c,d), S(a,b,c,e)")

    @pytest.fixture
    def db(self, monkeypatch):
        # one shared domain of 53 values (a: 0..4, b: 10..14, c, d:
        # 0..23, e: −29..0): any two key columns (53² = 2809) reach the
        # cap, but b follows a, so a re-factorized (a, b) prefix holds
        # ≤ 5 keys and 5 × 53 = 265 stays under it; S holds an a-value
        # R lacks, so the semijoin drops rows on one side
        monkeypatch.setattr(columnar, "_MAX_RADIX", 1024)
        r_rows = [(i % 4, 10 + i % 4, (i // 4) % 4, i) for i in range(24)]
        s_rows = [(i % 5, 10 + i % 5, (i // 3) % 4, -i) for i in range(30)]
        db = Database(
            {
                "R": Relation(("a", "b", "c", "d"), r_rows),
                "S": Relation(("a", "b", "c", "e"), s_rows),
            }
        )
        card = len(db["R"].columnar().dictionary("a"))
        assert card == 53
        assert card**3 >= columnar._MAX_RADIX
        return db

    @pytest.fixture
    def refactorized(self, monkeypatch):
        """The row counts of the key builds that stack both relations'
        key columns: one per joint re-factorization."""
        rows = []
        composite_codes = columnar.composite_codes

        def spy(code_arrays, cardinalities, n_rows):
            rows.append(n_rows)
            return composite_codes(code_arrays, cardinalities, n_rows)

        monkeypatch.setattr(columnar, "composite_codes", spy)
        return rows

    @staticmethod
    def assert_joint(db, rows):
        # the first step keys every row of R against every row of S:
        # only the joint path builds over n_R + n_S rows at once
        assert len(db["R"]) + len(db["S"]) in rows

    def test_semijoin_matches_oracle(self, db, refactorized):
        reduced = semijoin_reduce(self.QUERY, db)
        self.assert_joint(db, refactorized)
        oracle = semijoin_reduce_tuples(self.QUERY, db)
        for name in db:
            assert set(reduced[name]) == set(oracle[name])
        assert 0 < len(reduced["S"]) < len(db["S"])

    def test_counting_fold_matches_oracle(self, db, refactorized):
        count = acyclic_count(self.QUERY, db)
        self.assert_joint(db, refactorized)
        assert count == acyclic_count_tuples(self.QUERY, db) > 0
