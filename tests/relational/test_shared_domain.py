"""One code space per database.

Every relation of a :class:`~repro.relational.Database` is encoded over
one shared dictionary (:func:`~repro.relational.columnar.unify_domain`),
so the evaluators compare codes across atoms without translating them.
This suite pins the invariant, the no-work paths (databases rebuilt from
Lemma 2.5 parts, Yannakakis survivors and shared relations re-encode
nothing), exactness against the tuple oracle on mixed value kinds, and
that no dictionary translation runs while evaluating.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from oracles.strategies import column_kinds
from oracles.tuple_engine import (
    acyclic_count_tuples,
    generic_join_tuples,
    semijoin_reduce_tuples,
)
from repro.core import collect_statistics, lp_bound
from repro.datasets import power_law_graph, star_database, star_query
from repro.evaluation import (
    acyclic_count,
    evaluate_with_partitioning,
    generic_join,
    plan_partitioned_evaluation,
)
from repro.evaluation.yannakakis import semijoin_reduce
from repro.query import parse_query
from repro.relational import CountSink, Database, Relation, SpillSink
from repro.relational import columnar

SETTINGS = settings(max_examples=40, deadline=None)

TRIANGLE = parse_query("tri(x,y,z) :- R(x,y), S(y,z), T(z,x)")
PATH = parse_query("path(x,y,z,w) :- R(x,y), S(y,z), T(z,w)")
STAR = parse_query("star(m,a,b) :- U(m), R(m,a), S(m,b)")
DIAGONAL = parse_query("diag(x,w) :- R(x,x), S(x,w)")
CYCLIC = (TRIANGLE, DIAGONAL)
ACYCLIC = (PATH, STAR)


def dictionaries(db):
    """The distinct dictionary objects over every column of ``db``."""
    return {
        id(rel.columnar().dictionary(a)): rel.columnar().dictionary(a)
        for rel in db.relations()
        for a in rel.attributes
    }


@st.composite
def rows_of(draw, arity, max_size=12):
    kinds = [draw(column_kinds) for _ in range(arity)]
    return draw(st.lists(st.tuples(*kinds), max_size=max_size))


@st.composite
def mixed_databases(draw):
    """R, S, T binary and U unary, each column of its own value kind."""
    relations = {
        name: Relation(("a", "b"), draw(rows_of(2))) for name in "RST"
    }
    relations["U"] = Relation(("u",), draw(rows_of(1, max_size=5)))
    return Database(relations)


def graph_db():
    return Database({"R": power_law_graph(120, 600, 0.5, seed=3)})


# ----------------------------------------------------------------------
# (a) one dictionary object per database
# ----------------------------------------------------------------------
class TestOneDictionary:
    @SETTINGS
    @given(mixed_databases())
    def test_every_column_holds_one_dictionary(self, db):
        assert len(dictionaries(db)) == 1

    def test_int_columns_share_a_sorted_int64_domain(self):
        db = Database(
            {
                "R": Relation(("a", "b"), [(5, 1), (3, 9)]),
                "S": Relation(("b",), [(7,), (1,)]),
            }
        )
        (domain,) = dictionaries(db).values()
        assert domain.dtype.kind == "i"
        assert domain.tolist() == [1, 3, 5, 7, 9]
        assert list(db["R"]) == [(5, 1), (3, 9)]

    def test_mixed_columns_share_one_object_domain(self):
        db = Database(
            {
                "R": Relation(("a",), [(1,), (2**63,)]),
                "S": Relation(("a",), [("x",), (1.0,)]),
            }
        )
        (domain,) = dictionaries(db).values()
        assert domain.dtype == object
        # not mutually orderable: first occurrence, in database order
        assert domain.tolist() == [1, 2**63, "x"]
        assert db.active_domain_size() == 3
        assert db["S"].columnar().codes("a").tolist() == [2, 0]

    def test_a_relation_outside_keeps_its_own_twin(self):
        r = Relation(("a", "b"), [(1, 2), (2, 3)])
        twin = r.columnar()
        db = Database({"R": r, "S": Relation(("a",), [(9,)])})
        assert r.columnar() is twin
        assert db["R"].columnar() is not twin
        assert list(db["R"]) == list(r)


# ----------------------------------------------------------------------
# (b) databases rebuilt from shared pieces re-encode nothing
# ----------------------------------------------------------------------
def assert_reused(rebuilt, source):
    """Every relation of ``rebuilt`` kept ``source``'s twin, code arrays
    and cached tries (the very objects)."""
    for name, rel in source.items():
        twin = rel.columnar()
        again = rebuilt[name].columnar()
        assert again is twin, name
        for attr in rel.attributes:
            assert again.codes(attr) is twin.codes(attr)
        order = tuple(rel.attributes)
        assert again.trie(order) is twin.trie(order)


class TestNoWorkPaths:
    def test_lemma_parts_reuse_codes_and_tries(self):
        db = graph_db()
        query = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        stats = collect_statistics(query, db, ps=[1.0, 2.0, math.inf])
        plan = plan_partitioned_evaluation(query, db, lp_bound(stats, query=query))
        assert plan.n_combinations > 1
        for _, relations in plan.combinations():
            assert_reused(Database(relations), relations)

    def test_yannakakis_survivors_reuse_codes_and_tries(self):
        db = Database(
            {
                "R": Relation(("a", "b"), [(i, i % 7) for i in range(30)]),
                "S": Relation(("a", "b"), [(i % 5, -i) for i in range(20)]),
                "T": Relation(("a", "b"), [(-i, i) for i in range(4)]),
            }
        )
        reduced = semijoin_reduce(PATH, db)
        survivors = {name: reduced[name] for name in reduced}
        assert_reused(Database(survivors), survivors)

    def test_star_arms_share_one_recoded_twin(self):
        db = star_database(16)
        assert db["R1"].columnar() is db["R2"].columnar()
        assert db["T1"].columnar() is db["T2"].columnar()
        assert len(dictionaries(db)) == 1
        generic_join(star_query(2), db)  # builds the arms' trie once
        relations = {name: db[name] for name in db}
        assert_reused(Database(relations), relations)

    def test_equal_dictionary_keeps_codes_and_tries(self):
        r = Relation(("a", "b"), [(1, 2), (2, 1)])
        twin = r.columnar()
        trie = twin.trie(("a", "b"))
        s = Relation(("a", "b"), [(2, 2), (1, 1)])
        db = Database({"R": r, "S": s})
        again = db["R"].columnar()
        assert again.codes("a") is twin.codes("a")
        assert again.trie(("a", "b")) is trie


# ----------------------------------------------------------------------
# (c) exact against the tuple oracle on mixed value kinds
# ----------------------------------------------------------------------
class TestMatchesTupleOracle:
    @SETTINGS
    @given(mixed_databases())
    def test_generic_join_blocks_and_sinks(self, tmp_path_factory, db):
        directory = tmp_path_factory.mktemp("spill")
        for query in CYCLIC + ACYCLIC:
            oracle = generic_join_tuples(query, db)
            expected = set(oracle.output)
            for block in (1, 7, None):
                count = CountSink()
                run = generic_join(query, db, frontier_block=block, sink=count)
                assert count.total == len(expected), (query.name, block)
                assert run.nodes_visited == oracle.nodes_visited
                with SpillSink(directory, chunk_rows=5) as spill:
                    run = generic_join(
                        query, db, frontier_block=block, sink=spill
                    )
                    rows = spill.rows()
                assert len(rows) == len(expected)
                assert set(rows) == expected, (query.name, block)
                assert run.nodes_visited == oracle.nodes_visited

    @SETTINGS
    @given(mixed_databases())
    def test_semijoin_reduce_and_acyclic_count(self, db):
        for query in ACYCLIC:
            reduced = semijoin_reduce(query, db)
            oracle = semijoin_reduce_tuples(query, db)
            for name in db:
                assert set(reduced[name]) == set(oracle[name]), name
            assert acyclic_count(query, db) == acyclic_count_tuples(query, db)


# ----------------------------------------------------------------------
# (d) no dictionary translation while evaluating
# ----------------------------------------------------------------------
@pytest.fixture
def translations(monkeypatch):
    """Every :func:`dict_mapping` call made from now on."""
    calls = []
    dict_mapping = columnar.dict_mapping

    def spy(*args):
        calls.append(args)
        return dict_mapping(*args)

    monkeypatch.setattr(columnar, "dict_mapping", spy)
    return calls


def test_evaluating_against_a_database_translates_nothing(translations):
    rows = [(i, (i * 7) % 23) for i in range(60)]
    strings = [(f"v{a}", f"v{b}") for a, b in rows]
    graph = graph_db()
    mixed = Database(
        {
            "R": Relation(("a", "b"), rows),
            "S": Relation(("a", "b"), strings + [(1.0, "v7")]),
            "T": Relation(("a", "b"), [(b, a) for a, b in rows]),
            "U": Relation(("u",), [(0,), ("v3",)]),
        }
    )
    assert translations  # building the mixed database unified it
    translations.clear()
    for query in CYCLIC + ACYCLIC:
        generic_join(query, mixed, frontier_block=7, sink=CountSink())
    for query in ACYCLIC:
        semijoin_reduce(query, mixed)
        acyclic_count(query, mixed)
    triangle = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
    stats = collect_statistics(triangle, graph, ps=[1.0, 2.0, math.inf])
    run = evaluate_with_partitioning(
        triangle, graph, lp_bound(stats, query=triangle), sink=CountSink()
    )
    assert run.count == generic_join(triangle, graph, sink=CountSink()).count
    assert translations == []
