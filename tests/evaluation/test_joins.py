"""The atom view (``repro.evaluation.joins``) and repeated-variable atoms.

Every evaluator reads an atom through one rule: ``atom_columns`` names
the column each variable reads and ``diagonal_rows`` the rows a repeated
variable keeps.  Atoms such as ``R(x,x)`` and ``T(x,y,x)`` must evaluate
exactly as the tuple oracle does, for integer, string, mixed int/str
and ≥ 2^63 columns, and on empty relations.
"""

import pytest

from oracles.strategies import VALUE_KINDS
from oracles.tuple_engine import (
    acyclic_count_tuples,
    atom_rows,
    generic_join_tuples,
    semijoin_reduce_tuples,
)
from repro.evaluation import acyclic_count, generic_join, semijoin_reduce
from repro.evaluation.joins import _atom_table_indexed
from repro.query import parse_query
from repro.query.query import Atom
from repro.relational import Database, Relation

ACYCLIC = [
    parse_query("s(x) :- R(x,x)"),
    parse_query("d(x,y) :- R(x,x), R(x,y)"),
    parse_query("t(x,y,z) :- T(x,y,x), R(y,z), T(z,z,y)"),
]
CYCLIC = [parse_query("c(x,y,z) :- T(x,y,x), R(y,z), R(z,x)")]


def _database(value, empty=False):
    pairs = [(i, i) for i in range(5)] + [(i, (3 * i + 1) % 7) for i in range(12)]
    triples = [
        (a, b, a if (a + b) % 2 else b)
        for a in range(6)
        for b in range(5)
    ]
    if empty:
        pairs, triples = [], []
    return Database(
        {
            "R": Relation(("a", "b"), [tuple(map(value, p)) for p in pairs]),
            "T": Relation(("a", "b", "c"), [tuple(map(value, t)) for t in triples]),
        }
    )


@pytest.fixture(params=[*VALUE_KINDS, "empty"])
def db(request):
    if request.param == "empty":
        return _database(VALUE_KINDS["int"], empty=True)
    return _database(VALUE_KINDS[request.param])


class TestRepeatedVariableAtoms:
    def test_generic_join_matches_oracle(self, db):
        for query in ACYCLIC + CYCLIC:
            run = generic_join(query, db)
            oracle = generic_join_tuples(query, db)
            assert run.output == oracle.output, query.name
            assert run.nodes_visited == oracle.nodes_visited, query.name

    def test_acyclic_count_matches_oracle(self, db):
        for query in ACYCLIC:
            assert acyclic_count(query, db) == acyclic_count_tuples(query, db)

    def test_semijoin_reduce_matches_oracle(self, db):
        for query in ACYCLIC:
            reduced = semijoin_reduce(query, db)
            oracle = semijoin_reduce_tuples(query, db)
            for name in db:
                assert set(reduced[name]) == set(oracle[name]), query.name

    def test_instances_hit_the_diagonal(self):
        # the non-empty instances keep some diagonal rows and drop others
        db = _database(VALUE_KINDS["mixed"])
        for query in ACYCLIC + CYCLIC:
            assert 0 < len(generic_join_tuples(query, db).output), query.name
        kept = len(atom_rows(Atom("T", ("x", "y", "x")), db)[1])
        assert 0 < kept < len(db["T"])


class TestAtomTable:
    def test_diagonal_keeps_row_indices(self, db):
        atom = Atom("T", ("x", "y", "x"))
        table, keep = _atom_table_indexed(atom, db)
        assert table.vars == ("x", "y")
        rows = list(db["T"])
        assert keep.tolist() == [i for i, r in enumerate(rows) if r[0] == r[2]]
        decoded = [
            tuple(table.domain[c[i]] for c in table.codes)
            for i in range(table.n_rows)
        ]
        assert decoded == atom_rows(atom, db)[1]

    def test_atom_without_repeats_keeps_every_row(self, db):
        table, keep = _atom_table_indexed(Atom("T", ("z", "x", "y")), db)
        assert keep is None
        assert table.vars == ("z", "x", "y")
        assert table.n_rows == len(db["T"])
        twin = db["T"].columnar()
        for codes, column in zip(table.codes, ("a", "b", "c")):
            assert codes is twin.codes(column)
