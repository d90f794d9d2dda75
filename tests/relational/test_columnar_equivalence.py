"""Property-based equivalence: columnar backend vs the tuple oracle.

Every vectorized kernel must match the original tuple-at-a-time
implementation bit-for-bit — same values (Python ints, not np.int64),
same dict contents, same relations.  Randomized relations cover empty
relations, ``U = ∅`` / ``V = ∅`` conditionals, repeated/overlapping
attribute sets, and values outside ``int64`` (strings, tuples, floats,
ints ≥ 2^63), which encode through ``object`` dictionaries.  The oracle is
``tests/oracles/tuple_engine.py``.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.strategies import fallback_value
from oracles.tuple_engine import (
    group_sizes_tuples,
    partition_by_degree_tuples,
    project_tuples,
)
from repro.core.degree import degree_sequence
from repro.core.norms import log2_norm, log2_norms, lp_norm, norms_of_sequence
from repro.evaluation import generic_join
from repro.evaluation.partitioning import partition_by_degree
from repro.query import parse_query
from repro.relational import Database, Relation
from repro.relational.columnar import dict_mapping, encode_column

SETTINGS = settings(max_examples=60, deadline=None)

values = st.integers(-3, 6)
rows3 = st.lists(st.tuples(values, values, values), max_size=40)

# mixed-type rows exercise the object dictionaries
fallback_rows = st.lists(st.tuples(fallback_value, fallback_value), max_size=20)
fallback_rows3 = st.lists(
    st.tuples(fallback_value, fallback_value, fallback_value), max_size=30
)

ATTR_CHOICES = [
    ((), ()),
    ((), ("a",)),
    ((), ("b", "c")),
    (("a",), ()),
    (("a",), ("b",)),
    (("a",), ("b", "c")),
    (("a", "b"), ("c",)),
    (("c", "a"), ("b",)),
    (("a", "b", "c"), ("a",)),  # overlapping U and V
]


oracle_group_sizes = group_sizes_tuples


def all_int(rows):
    return all(type(v) is int and v < 2**63 for row in rows for v in row)


class TestGroupingEquivalence:
    @SETTINGS
    @given(rows3 | fallback_rows3)
    def test_group_sizes_matches_oracle(self, rows):
        r = Relation(("a", "b", "c"), rows)
        for group_attrs, value_attrs in ATTR_CHOICES:
            got = r.group_sizes(group_attrs, value_attrs)
            expected = oracle_group_sizes(r, group_attrs, value_attrs)
            assert got == expected
            for key, count in got.items():
                if all_int(rows):
                    assert all(type(v) is int for v in key)
                assert type(count) is int

    @SETTINGS
    @given(rows3 | fallback_rows3)
    def test_partition_by_degree_matches_oracle(self, rows):
        r = Relation(("a", "b", "c"), rows)
        for u_attrs, v_attrs in ATTR_CHOICES:
            parts = partition_by_degree(r, v_attrs, u_attrs)
            assert [set(part) for part in parts] == (
                partition_by_degree_tuples(r, v_attrs, u_attrs)
            )

    @SETTINGS
    @given(rows3 | fallback_rows3)
    def test_degree_sequence_matches_oracle(self, rows):
        r = Relation(("a", "b", "c"), rows)
        for u_attrs, v_attrs in ATTR_CHOICES:
            sizes = oracle_group_sizes(r, u_attrs, v_attrs)
            expected = np.sort(
                np.fromiter(sizes.values(), dtype=np.int64, count=len(sizes))
            )[::-1]
            got = degree_sequence(r, v_attrs, u_attrs)
            assert got.dtype == np.int64
            assert np.array_equal(got, expected)

    @SETTINGS
    @given(rows3 | fallback_rows3)
    def test_project_and_distinct_count_match_oracle(self, rows):
        r = Relation(("a", "b", "c"), rows)
        for attrs in [("a",), ("b", "a"), ("a", "b", "c"), ("c", "b")]:
            expected = project_tuples(r, attrs)
            got = r.project(attrs)
            assert got == expected
            if all_int(rows):
                assert set(map(type, (v for row in got for v in row))) <= {int}
            assert r.distinct_count(attrs) == len(expected)

    @SETTINGS
    @given(rows3 | fallback_rows3)
    def test_active_domain_matches_oracle(self, rows):
        r = Relation(("a", "b", "c"), rows)
        assert r.active_domain() == {v for row in rows for v in row}


class TestFallbackPath:
    """Values outside ``int64`` — the domain a tuple-at-a-time fallback
    used to serve — encode through ``object`` dictionaries."""

    @SETTINGS
    @given(fallback_rows)
    def test_mixed_values_fall_back_and_agree(self, rows):
        r = Relation(("x", "y"), rows)
        assert r.group_sizes(("x",), ("y",)) == oracle_group_sizes(
            r, ("x",), ("y",)
        )
        assert r.project(("y",)) == project_tuples(r, ("y",))
        assert r.distinct_count(("y", "x")) == len(set(r))

    def test_tuple_values_are_not_encodable(self):
        r = Relation(("x", "y"), [((0, 1), 2), ((0, 2), 3)])
        dictionary = r.columnar().dictionary("x")
        assert dictionary.dtype == object and dictionary.shape == (2,)
        assert dictionary.tolist() == [(0, 1), (0, 2)]
        assert r.columnar().dictionary("y").dtype == np.int64
        assert r.group_sizes(("x",), ("y",)) == {((0, 1),): 1, ((0, 2),): 1}

    def test_floats_strings_bools_not_encodable(self):
        for value in [1.5, "s", True]:
            codes, dictionary = encode_column([value, value])
            assert codes.dtype == np.int64 and codes.tolist() == [0, 0]
            assert dictionary.dtype == object
            assert dictionary.tolist() == [value]
            assert type(dictionary[0]) is type(value)

    def test_huge_ints_fall_back(self):
        r = Relation(("x",), [(2 ** 70,), (5,)])
        assert r.columnar().dictionary("x").tolist() == [5, 2 ** 70]
        assert r.distinct_count(("x",)) == 2
        assert list(r.project(("x",))) == [(2 ** 70,), (5,)]

    def test_int64_encoding_is_np_unique(self):
        values = [7, -3, 7, 2**62, 0]
        codes, dictionary = encode_column(values)
        expected_dict, expected_codes = np.unique(
            np.asarray(values), return_inverse=True
        )
        assert dictionary.dtype == np.int64
        assert dictionary.tobytes() == expected_dict.tobytes()
        assert codes.tobytes() == expected_codes.astype(np.int64).tobytes()

    def test_orderable_values_get_a_sorted_dictionary(self):
        codes, dictionary = encode_column(["b", "a", "c", "a"])
        assert dictionary.tolist() == ["a", "b", "c"]
        assert codes.tolist() == [1, 0, 2, 0]
        _, dictionary = encode_column([2**64, 1.5, 3])
        assert dictionary.tolist() == [1.5, 3, 2**64]

    def test_unorderable_values_keep_first_occurrence_order(self):
        codes, dictionary = encode_column([2, "a", (1,), 2, 1])
        assert dictionary.tolist() == [2, "a", (1,), 1]
        assert codes.tolist() == [0, 1, 2, 0, 3]

    def test_equal_values_share_one_code(self):
        codes, dictionary = encode_column([1, 1.0, np.int64(1), "1"])
        assert codes.tolist() == [0, 0, 0, 1]
        assert dictionary.tolist() == [1, "1"]

    def test_object_dictionaries_align_by_python_equality(self):
        ints = np.array([0, 1, 2], dtype=np.int64)
        _, objects = encode_column([2.0, "x", 1])
        assert dict_mapping(ints, objects).tolist() == [-1, 2, 0]
        assert dict_mapping(objects, ints).tolist() == [2, -1, 1]


class TestEdgeCases:
    def test_empty_relation(self):
        r = Relation(("x", "y"), [])
        assert r.columnar() is not None
        assert r.group_sizes(("x",), ("y",)) == {}
        assert degree_sequence(r, ["y"], ["x"]).size == 0
        assert r.distinct_count(("x",)) == 0
        assert len(r.project(("y",))) == 0
        assert r.active_domain() == set()

    def test_u_empty_is_distinct_count(self):
        r = Relation(("x", "y"), [(1, 2), (1, 3), (4, 3)])
        seq = degree_sequence(r, ["y"], [])
        assert seq.tolist() == [2]
        assert r.group_sizes((), ("y",)) == {(): 2}

    def test_v_empty_is_all_ones(self):
        r = Relation(("x", "y"), [(1, 2), (1, 3), (4, 3)])
        seq = degree_sequence(r, [], ["x"])
        assert seq.tolist() == [1, 1]
        assert r.group_sizes(("x",), ()) == {(1,): 1, (4,): 1}


join_rows = st.lists(
    st.tuples(st.integers(0, 4), st.integers(0, 4)), max_size=25
)
JOIN = parse_query("j(x,y,z) :- R(x,y), S(y,z)")


class TestJoinEquivalence:
    @SETTINGS
    @given(join_rows)
    def test_joined_relation_statistics_match(self, rows):
        """A lazily-backed join result must behave like a plain Relation."""
        db = Database(
            {"R": Relation(("x", "y"), rows), "S": Relation(("y", "z"), rows)}
        )
        out = generic_join(JOIN, db).output
        plain = Relation(out.attributes, list(out))
        assert out == plain
        assert out.group_sizes(("x",), ("z",)) == oracle_group_sizes(
            plain, ("x",), ("z",)
        )
        assert out.active_domain() == plain.active_domain()
        assert out.distinct_count(("y",)) == plain.distinct_count(("y",))


class TestNormBatching:
    @SETTINGS
    @given(st.lists(st.integers(1, 10 ** 6), min_size=0, max_size=200))
    def test_log2_norms_matches_per_p(self, degrees):
        ps = [0.5, 1.0, 2.0, 3.0, 7.5, 30.0, math.inf]
        batched = log2_norms(degrees, ps)
        assert set(batched) == set(ps)
        for p in ps:
            assert batched[p] == log2_norm(degrees, p)

    @SETTINGS
    @given(st.lists(st.integers(1, 10 ** 4), min_size=1, max_size=50))
    def test_norms_of_sequence_matches_lp_norm(self, degrees):
        ps = [1.0, 2.0, 4.0, math.inf]
        assert norms_of_sequence(degrees, ps) == {
            p: lp_norm(degrees, p) for p in ps
        }

    def test_invalid_p_raises(self):
        with pytest.raises(ValueError):
            log2_norms([1.0, 2.0], [0.0])
