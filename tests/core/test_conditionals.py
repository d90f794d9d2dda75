"""Unit tests for the statistics language and collection."""

import math

import pytest

from repro.core import collect_statistics
from repro.core.conditionals import (
    AbstractStatistic,
    ConcreteStatistic,
    Conditional,
    StatisticsSet,
    atom_columns,
    diagonal_rows,
    select_diagonal,
)
from repro.query.query import Atom, ConjunctiveQuery
from repro.relational import Database, Relation


class TestConditional:
    def test_requires_nonempty_v(self):
        with pytest.raises(ValueError):
            Conditional(frozenset())

    def test_simple_definition(self):
        assert Conditional(frozenset("x")).is_simple
        assert Conditional(frozenset("x"), frozenset("y")).is_simple
        assert not Conditional(frozenset("x"), frozenset({"y", "z"})).is_simple

    def test_variables_union(self):
        c = Conditional(frozenset("x"), frozenset("y"))
        assert c.variables == frozenset({"x", "y"})

    def test_str(self):
        assert str(Conditional(frozenset("x"), frozenset("y"))) == "(x|y)"
        assert str(Conditional(frozenset("x"))) == "(x|∅)"


class TestAbstractStatistic:
    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            AbstractStatistic(Conditional(frozenset("x")), 0.0)

    def test_str_infinity(self):
        s = AbstractStatistic(Conditional(frozenset("x")), math.inf)
        assert "ℓ∞" in str(s)


class TestConcreteStatistic:
    def test_guard_must_cover(self):
        with pytest.raises(ValueError, match="cover"):
            ConcreteStatistic(
                AbstractStatistic(Conditional(frozenset("z")), 1.0),
                1.0,
                Atom("R", ("x", "y")),
            )

    def test_measured_log2(self):
        db = Database({"R": Relation(("a", "b"), [(1, 1), (1, 2), (2, 1)])})
        stat = ConcreteStatistic(
            AbstractStatistic(
                Conditional(frozenset("y"), frozenset("x")), math.inf
            ),
            5.0,
            Atom("R", ("x", "y")),
        )
        assert stat.measured_log2(db) == pytest.approx(1.0)  # max degree 2
        assert stat.holds_on(db)

    def test_measured_with_repeated_variable(self):
        # R(x, x): only the diagonal rows count
        db = Database({"R": Relation(("a", "b"), [(1, 1), (1, 2), (3, 3)])})
        stat = ConcreteStatistic(
            AbstractStatistic(Conditional(frozenset("x")), 1.0),
            5.0,
            Atom("R", ("x", "x")),
        )
        assert stat.measured_log2(db) == pytest.approx(1.0)  # {1, 3}

    def test_bound_linear(self):
        stat = ConcreteStatistic(
            AbstractStatistic(Conditional(frozenset("x")), 1.0),
            3.0,
            Atom("R", ("x",)),
        )
        assert stat.bound == pytest.approx(8.0)


class TestDiagonal:
    def test_atom_columns(self):
        atom = Atom("R", ("x", "y", "x"))
        assert atom_columns(atom, ("a", "b", "c")) == (
            {"x": "a", "y": "b"},
            (("a", "c"),),
        )
        assert atom_columns(Atom("R", ("y", "x")), ("a", "b")) == (
            {"y": "a", "x": "b"},
            (),
        )

    @pytest.mark.parametrize(
        "variables", [("x",), ("x", "y", "z")], ids=["under", "over"]
    )
    def test_atom_arity_must_match_relation(self, variables):
        # an atom over fewer or more variables than its relation has
        # columns is refused, never read over a prefix of the columns
        atom = Atom("R", variables)
        with pytest.raises(ValueError, match="'R' has 2 column"):
            atom_columns(atom, ("a", "b"))
        from repro.evaluation import acyclic_count, generic_join

        query = ConjunctiveQuery([atom])
        db = Database({"R": Relation(("a", "b"), [(1, 2), (3, 4)])})
        for entry_point in (collect_statistics, generic_join, acyclic_count):
            with pytest.raises(ValueError, match="column"):
                entry_point(query, db)

    def test_bare_relation_selects_by_value(self):
        # each column of a bare relation has its own dictionary: 0..4 in
        # a, 2..6 in b, so equal codes ((0, 2), say) hold unequal values
        rows = [(i, i + 2) for i in range(5)] + [(3, 3), (4, 4), (0, 5)]
        r = Relation(("a", "b"), rows)
        twin = r.columnar()
        assert twin.dictionary("a").tolist() == [0, 1, 2, 3, 4]
        assert twin.dictionary("b").tolist() == [2, 3, 4, 5, 6]
        out = select_diagonal(r, (("a", "b"),))
        assert list(out) == [(3, 3), (4, 4)]
        assert diagonal_rows(r, (("a", "b"),)).tolist() == [5, 6]

    def test_bare_relation_mixed_kinds(self):
        # an int column beside an object one: values compare under Python
        # equality, so 2 and 2.0 agree and 1 and "1" do not
        rows = [(1, "1"), (2, 2.0), (3, "x"), (4, 4), (2**63, 2**63)]
        r = Relation(("a", "b"), rows)
        out = select_diagonal(r, (("a", "b"),))
        assert list(out) == [(2, 2.0), (4, 4), (2**63, 2**63)]

    def test_three_columns_and_no_diagonal(self):
        r = Relation(("a", "b", "c"), [(1, 2, 1), (1, 1, 2), (5, 0, 5)])
        assert list(select_diagonal(r, (("a", "c"),))) == [(1, 2, 1), (5, 0, 5)]
        assert select_diagonal(r, ()) is r
        empty = Relation(("a", "b"), [])
        assert len(select_diagonal(empty, (("a", "b"),))) == 0


class TestStatisticsSet:
    def _stat(self, p, b=1.0):
        return ConcreteStatistic(
            AbstractStatistic(Conditional(frozenset("x")), p),
            b,
            Atom("R", ("x",)),
        )

    def test_restrict_ps(self):
        s = StatisticsSet([self._stat(1.0), self._stat(2.0), self._stat(math.inf)])
        assert len(s.restrict_ps([1.0])) == 1
        assert len(s.restrict_ps([1.0, math.inf])) == 2

    def test_restrict_ps_is_memoized(self):
        s = StatisticsSet([self._stat(1.0), self._stat(2.0), self._stat(math.inf)])
        family = s.restrict_ps([1.0, math.inf])
        assert s.restrict_ps({math.inf, 1}) is family
        assert s.restrict_ps([1.0]) is not family
        assert [t.p for t in family] == [1.0, math.inf]

    def test_norms_used(self):
        s = StatisticsSet([self._stat(1.0), self._stat(2.0)])
        assert s.norms_used == {1.0, 2.0}

    def test_deduplicated_keeps_tightest(self):
        s = StatisticsSet([self._stat(1.0, b=3.0), self._stat(1.0, b=2.0)])
        d = s.deduplicated()
        assert len(d) == 1
        assert d[0].log2_bound == 2.0

    def test_add_and_merge(self):
        s = StatisticsSet([self._stat(1.0)])
        assert len(s.add(self._stat(2.0))) == 2
        assert len(s.merged(StatisticsSet([self._stat(3.0)]))) == 2

    def test_is_simple(self):
        s = StatisticsSet([self._stat(1.0)])
        assert s.is_simple
        non_simple = ConcreteStatistic(
            AbstractStatistic(
                Conditional(frozenset("z"), frozenset({"x", "y"})), 1.0
            ),
            1.0,
            Atom("T", ("x", "y", "z")),
        )
        assert not s.add(non_simple).is_simple


class TestCollectStatistics:
    def test_collects_per_atom_and_variable(self, two_table_db, one_join_query):
        stats = collect_statistics(
            one_join_query, two_table_db, ps=[2.0, math.inf]
        )
        # per atom: 1 cardinality + (join var y): 1 distinct count + 2 norms
        assert len(stats) == 2 * (1 + 1 + 2)
        assert stats.is_simple

    def test_join_variables_only(self, two_table_db, one_join_query):
        all_vars = collect_statistics(
            one_join_query, two_table_db, ps=[2.0], join_variables_only=False
        )
        join_only = collect_statistics(
            one_join_query, two_table_db, ps=[2.0], join_variables_only=True
        )
        assert len(all_vars) > len(join_only)

    def test_measured_bounds_hold(self, two_table_db, one_join_query):
        stats = collect_statistics(
            one_join_query, two_table_db, ps=[1.0, 2.0, 3.0, math.inf]
        )
        assert stats.holds_on(two_table_db)
        assert two_table_db.satisfies(stats)

    def test_self_join_uses_both_bindings(self, graph_db, triangle_query):
        stats = collect_statistics(triangle_query, graph_db, ps=[2.0])
        conditionals = {str(s.conditional) for s in stats}
        # all three rotated conditionals appear
        assert "(y|x)" in conditionals or "(x|y)" in conditionals
        assert len(conditionals) >= 6
