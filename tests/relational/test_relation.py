"""Unit tests for the set-semantics Relation."""

import pytest

from repro.relational import Relation


class TestConstruction:
    def test_deduplicates_rows(self):
        r = Relation(("x", "y"), [(1, 2), (1, 2), (1, 3)])
        assert len(r) == 2

    def test_preserves_arity(self):
        r = Relation(("a", "b", "c"), [(1, 2, 3)])
        assert r.arity == 3
        assert r.attributes == ("a", "b", "c")

    def test_rejects_wrong_arity_row(self):
        with pytest.raises(ValueError, match="arity"):
            Relation(("x", "y"), [(1, 2, 3)])

    def test_rejects_duplicate_attributes(self):
        with pytest.raises(ValueError, match="duplicate"):
            Relation(("x", "x"), [])

    def test_empty_relation(self):
        r = Relation(("x",), [])
        assert len(r) == 0
        assert list(r) == []

    def test_accepts_any_hashable_values(self):
        r = Relation(("x", "y"), [(("a", 1), frozenset({2}))])
        assert (("a", 1), frozenset({2})) in r

    def test_from_pairs(self):
        r = Relation.from_pairs([(1, 2), (3, 4)])
        assert r.attributes == ("x", "y")
        assert len(r) == 2

    def test_from_pairs_rejects_non_binary(self):
        with pytest.raises(ValueError):
            Relation.from_pairs([], attributes=("a", "b", "c"))


class TestProtocol:
    def test_contains(self, tiny_relation):
        assert (1, 10) in tiny_relation
        assert (1, 20) not in tiny_relation

    def test_contains_accepts_lists(self, tiny_relation):
        assert [1, 10] in tiny_relation

    def test_iteration_yields_tuples(self, tiny_relation):
        for row in tiny_relation:
            assert isinstance(row, tuple)

    def test_equality_ignores_row_order(self):
        a = Relation(("x",), [(1,), (2,)])
        b = Relation(("x",), [(2,), (1,)])
        assert a == b
        assert hash(a) == hash(b)

    def test_equality_distinguishes_attributes(self):
        a = Relation(("x",), [(1,)])
        b = Relation(("y",), [(1,)])
        assert a != b

    def test_repr_mentions_name_and_size(self):
        r = Relation(("x",), [(1,)], name="edges")
        assert "edges" in repr(r)
        assert "1" in repr(r)


class TestAlgebra:
    def test_project_deduplicates(self, tiny_relation):
        p = tiny_relation.project(("y",))
        assert sorted(p) == [(10,), (20,)]

    def test_project_reorders_columns(self):
        r = Relation(("x", "y"), [(1, 2)])
        assert list(r.project(("y", "x"))) == [(2, 1)]

    def test_project_unknown_attribute(self, tiny_relation):
        with pytest.raises(KeyError):
            tiny_relation.project(("nope",))

    def test_select(self, tiny_relation):
        s = tiny_relation.select(lambda row: row[0] <= 2)
        assert len(s) == 2

    def test_select_eq_uses_values(self, tiny_relation):
        s = tiny_relation.select_eq("y", 10)
        assert len(s) == 3
        assert all(row[1] == 10 for row in s)

    def test_select_eq_missing_value(self, tiny_relation):
        assert len(tiny_relation.select_eq("y", 999)) == 0

    def test_rename(self, tiny_relation):
        renamed = tiny_relation.rename({"x": "a"})
        assert renamed.attributes == ("a", "y")
        assert len(renamed) == len(tiny_relation)

    def test_rename_collision_rejected(self, tiny_relation):
        with pytest.raises(ValueError):
            tiny_relation.rename({"x": "y"})

    def test_restrict_rows(self, tiny_relation):
        r = tiny_relation.restrict_rows([(1, 10)])
        assert len(r) == 1
        assert r.attributes == tiny_relation.attributes

    def test_with_name(self, tiny_relation):
        named = tiny_relation.with_name("other")
        assert named.name == "other"
        assert named == tiny_relation


class TestIndexesAndStats:
    def test_index_on_groups_rows(self, tiny_relation):
        index = tiny_relation.index_on(("y",))
        assert len(index[(10,)]) == 3
        assert len(index[(20,)]) == 1

    def test_index_is_cached(self, tiny_relation):
        first = tiny_relation.index_on(("y",))
        second = tiny_relation.index_on(("y",))
        assert first is second

    def test_group_sizes_counts_distinct(self):
        r = Relation(("x", "y"), [(1, 1), (1, 2), (2, 1)])
        sizes = r.group_sizes(("x",), ("y",))
        assert sizes == {(1,): 2, (2,): 1}

    def test_group_sizes_empty_group_attrs(self, tiny_relation):
        sizes = tiny_relation.group_sizes((), ("y",))
        assert sizes == {(): 2}

    def test_distinct_count(self, tiny_relation):
        assert tiny_relation.distinct_count(("y",)) == 2
        assert tiny_relation.distinct_count(("x", "y")) == 4

    @pytest.mark.parametrize("typed", [int, str], ids=["columnar", "tuples"])
    def test_distinct_count_memo_matches_fresh(self, typed):
        rows = [(typed(a), typed(b)) for a, b in [(1, 10), (2, 10), (3, 10)]]
        r = Relation(("x", "y"), rows + [(typed(4), typed(20))])
        assert (r.columnar() is None) == (typed is str)
        for attrs in [("x",), ("y",), ("x", "y"), ("y", "x"), ()]:
            pos = r.positions(attrs)
            fresh = len({tuple(row[i] for i in pos) for row in r})
            if r.columnar() is not None and attrs:
                assert r.columnar().distinct_count(attrs) == fresh
            assert r.distinct_count(attrs) == fresh
            assert r.distinct_count(list(attrs)) == fresh  # memo hit

    def test_distinct_count_memo_keeps_index_cache(self, tiny_relation):
        index = tiny_relation.index_on(("y",))
        assert tiny_relation.distinct_count(("y",)) == 2
        assert tiny_relation.index_on(("y",)) is index
        assert tiny_relation.distinct_count(("y",)) == 2

    def test_distinct_count_memo_empty_relation(self):
        empty = Relation(("x", "y"), [])
        assert empty.distinct_count(("x",)) == 0
        assert empty.distinct_count(("x",)) == 0

    def test_distinct_count_memo_across_with_name(self, tiny_relation):
        assert tiny_relation.distinct_count(("y",)) == 2
        named = tiny_relation.with_name("other")
        assert named.distinct_count(("y",)) == 2
        assert named.distinct_count(("x",)) == 4
        assert tiny_relation.distinct_count(("x",)) == 4

    def test_distinct_count_memo_not_inherited_by_rename(self, tiny_relation):
        assert tiny_relation.distinct_count(("x",)) == 4
        swapped = tiny_relation.rename({"x": "y", "y": "x"})
        assert swapped.distinct_count(("x",)) == 2
        assert swapped.distinct_count(("y",)) == 4
        with pytest.raises(KeyError):
            tiny_relation.rename({"x": "a"}).distinct_count(("x",))

    def test_active_domain(self, tiny_relation):
        assert tiny_relation.active_domain() == {1, 2, 3, 4, 10, 20}

    def test_column(self, tiny_relation):
        assert sorted(tiny_relation.column("y")) == [10, 10, 10, 20]
