"""Unit tests for the set-semantics Relation."""

import numpy as np
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

    def test_rename(self, tiny_relation):
        renamed = tiny_relation.rename({"x": "a"})
        assert renamed.attributes == ("a", "y")
        assert len(renamed) == len(tiny_relation)

    def test_rename_collision_rejected(self, tiny_relation):
        with pytest.raises(ValueError):
            tiny_relation.rename({"x": "y"})

    def test_with_name(self, tiny_relation):
        named = tiny_relation.with_name("other")
        assert named.name == "other"
        assert named == tiny_relation


class TestIndexesAndStats:
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

    # "tuples": string values, which encode through object dictionaries
    @pytest.mark.parametrize("typed", [int, str], ids=["columnar", "tuples"])
    def test_distinct_count_memo_matches_fresh(self, typed):
        rows = [(typed(a), typed(b)) for a, b in [(1, 10), (2, 10), (3, 10)]]
        r = Relation(("x", "y"), rows + [(typed(4), typed(20))])
        expected_dtype = np.int64 if typed is int else object
        assert r.columnar().dictionary("x").dtype == expected_dtype
        for attrs in [("x",), ("y",), ("x", "y"), ("y", "x"), ()]:
            pos = r.positions(attrs)
            fresh = len({tuple(row[i] for i in pos) for row in r})
            if attrs:
                assert r.columnar().distinct_count(attrs) == fresh
            assert r.distinct_count(attrs) == fresh
            assert r.distinct_count(list(attrs)) == fresh  # memo hit

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

