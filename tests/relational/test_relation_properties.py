"""Property-based tests for the relational substrate."""


from hypothesis import given, settings, strategies as st

from repro.core.degree import degree_sequence
from repro.relational import Relation

SETTINGS = settings(max_examples=50, deadline=None)

rows3 = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
    max_size=30,
)


class TestAlgebraProperties:
    @SETTINGS
    @given(rows3)
    def test_projection_shrinks(self, rows):
        r = Relation(("a", "b", "c"), rows)
        for attrs in (("a",), ("a", "b"), ("c", "a")):
            assert len(r.project(attrs)) <= len(r)

    @SETTINGS
    @given(rows3)
    def test_projection_idempotent(self, rows):
        r = Relation(("a", "b", "c"), rows)
        once = r.project(("a", "b"))
        assert once.project(("a", "b")) == once

    @SETTINGS
    @given(rows3)
    def test_rename_roundtrip(self, rows):
        r = Relation(("a", "b", "c"), rows)
        there = r.rename({"a": "x"})
        back = there.rename({"x": "a"})
        assert back == r

    @SETTINGS
    @given(rows3)
    def test_group_sizes_sum_to_projection(self, rows):
        r = Relation(("a", "b", "c"), rows)
        sizes = r.group_sizes(("a",), ("b", "c"))
        # Σ distinct (b,c) per a = |Π_{a,b,c}| = |r| (rows are distinct)
        assert sum(sizes.values()) == len(r)
        assert len(sizes) == r.distinct_count(("a",))


class TestDegreeProperties:
    @SETTINGS
    @given(rows3)
    def test_degree_sum_is_projection_size(self, rows):
        r = Relation(("a", "b", "c"), rows)
        seq = degree_sequence(r, ["b"], ["a"])
        assert seq.sum() == r.project(("a", "b")).__len__()

    @SETTINGS
    @given(rows3)
    def test_degree_sequence_sorted(self, rows):
        r = Relation(("a", "b", "c"), rows)
        seq = degree_sequence(r, ["b", "c"], ["a"])
        assert all(x >= y for x, y in zip(seq, seq[1:]))

    @SETTINGS
    @given(rows3)
    def test_max_degree_bounded_by_v_domain(self, rows):
        r = Relation(("a", "b", "c"), rows)
        if len(r) == 0:
            return
        seq = degree_sequence(r, ["b"], ["a"])
        assert seq[0] <= r.distinct_count(("b",))

    @SETTINGS
    @given(rows3)
    def test_conditioning_on_more_never_raises_degrees(self, rows):
        r = Relation(("a", "b", "c"), rows)
        if len(r) == 0:
            return
        coarse = degree_sequence(r, ["c"], ["a"])
        fine = degree_sequence(r, ["c"], ["a", "b"])
        # max degree can only drop when the conditioning side grows
        assert fine[0] <= coarse[0]
