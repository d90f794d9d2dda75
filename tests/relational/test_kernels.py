"""The code-space primitives of :mod:`repro.relational.columnar` against
hand-rolled oracles.

Coverage:

* :class:`CodeTrie`'s probes — ``find_children``, ``children_ranges``
  and ``children_at`` — on hypothesis-generated trie shapes, empty
  levels included;
* :func:`sorted_lookup`, the one sorted-membership probe, empty keys
  included;
* :func:`align_composite_keys` — lexicographic row order, the 2^62
  radix boundary (at or above it both sides re-factorize jointly) and
  cardinalities 0 and 1;
* ``kernels.active_mode``, the name perfbench's environment stamp
  records.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import columnar, kernels
from repro.relational.columnar import (
    CodeTrie,
    align_composite_keys,
    dict_mapping,
    sorted_lookup,
)

SETTINGS = settings(max_examples=25, deadline=None)


@pytest.mark.parametrize("raw", ["auto", "NUMBA", " python ", "", None])
def test_active_mode_is_python_whatever_the_environment(monkeypatch, raw):
    # perfbench's environment stamp records this; REPRO_KERNELS is ignored
    if raw is None:
        monkeypatch.delenv("REPRO_KERNELS", raising=False)
    else:
        monkeypatch.setenv("REPRO_KERNELS", raw)
    assert kernels.active_mode() == "python"


# ----------------------------------------------------------------------
# sorted_lookup and the trie probes against hand NumPy oracles
# ----------------------------------------------------------------------
def _trie_of(keys, card):
    """A one-level :class:`CodeTrie` whose level 0 is ``keys`` verbatim
    (the probes read only ``level_keys`` and ``cards``)."""
    trie = CodeTrie([], [])
    trie.level_keys, trie.cards = [keys], [card]
    return trie


@st.composite
def trie_levels(draw):
    """A synthetic trie level: sorted composite keys plus query points."""
    card = draw(st.integers(1, 9))
    n_nodes = draw(st.integers(1, 6))
    keyset = draw(
        st.sets(st.integers(0, n_nodes * card - 1), min_size=1, max_size=24)
    )
    keys = np.array(sorted(keyset), dtype=np.int64)
    m = draw(st.integers(1, 16))
    nodes = np.array(
        draw(st.lists(st.integers(0, n_nodes - 1), min_size=m, max_size=m)),
        dtype=np.int64,
    )
    codes = np.array(
        draw(st.lists(st.integers(0, card - 1), min_size=m, max_size=m)),
        dtype=np.int64,
    )
    return keys, nodes, codes, card


@SETTINGS
@given(level=trie_levels())
def test_find_children_matches_oracle(level):
    keys, nodes, codes, card = level
    target = nodes * card + codes
    positions = np.minimum(
        np.searchsorted(keys, target, side="left"), len(keys) - 1
    )
    expect_found = keys[positions] == target
    found, got = _trie_of(keys, card).find_children(0, nodes, codes)
    np.testing.assert_array_equal(found, expect_found)
    np.testing.assert_array_equal(got, positions)


def test_find_children_empty_level():
    nodes = np.array([0, 1], dtype=np.int64)
    codes = np.array([0, 0], dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    found, positions = _trie_of(empty, 3).find_children(0, nodes, codes)
    assert not found.any()
    np.testing.assert_array_equal(positions, [0, 0])
    first, counts = _trie_of(empty, 3).children_ranges(0, nodes)
    np.testing.assert_array_equal(first, [0, 0])
    np.testing.assert_array_equal(counts, [0, 0])


def test_find_children_on_an_empty_trie():
    trie = CodeTrie([np.zeros(0, dtype=np.int64)] * 2, [4, 4])
    nodes = np.array([0], dtype=np.int64)
    found, _ = trie.find_children(1, nodes, np.array([2], dtype=np.int64))
    assert not found.any()
    assert trie.children_ranges(0, nodes)[1].tolist() == [0]


@SETTINGS
@given(
    keyset=st.sets(st.integers(-20, 20), max_size=12),
    values=st.lists(st.integers(-25, 25), max_size=16),
)
def test_sorted_lookup_matches_oracle(keyset, values):
    keys = np.array(sorted(keyset), dtype=np.int64)
    values = np.array(values, dtype=np.int64)
    found, positions = sorted_lookup(keys, values)
    assert found.dtype == bool and positions.dtype == np.int64
    assert len(found) == len(positions) == len(values)
    np.testing.assert_array_equal(found, np.isin(values, keys))
    assert ((positions >= 0) & (positions < max(1, len(keys)))).all()
    np.testing.assert_array_equal(keys[positions[found]], values[found])


def test_sorted_lookup_empty_keys():
    values = np.array([3, -1, 7], dtype=np.int64)
    found, positions = sorted_lookup(np.zeros(0, dtype=np.int64), values)
    assert not found.any()
    np.testing.assert_array_equal(positions, [0, 0, 0])
    found, positions = sorted_lookup(
        np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    )
    assert len(found) == len(positions) == 0


@SETTINGS
@given(data=st.data())
def test_children_at_and_children_ranges_match_oracle(data):
    # build a well-formed trie from rows, then check each level against
    # the CodeTrie layout: keys are node*card + code in node-major order
    card = data.draw(st.integers(1, 7))
    rows = sorted(
        data.draw(
            st.sets(
                st.tuples(st.integers(0, card - 1), st.integers(0, card - 1)),
                min_size=1,
                max_size=20,
            )
        )
    )
    columns = [np.array(col, dtype=np.int64) for col in zip(*rows)]
    trie = CodeTrie(columns, [card, card])
    parents = sorted({row[0] for row in rows})
    child_sets = [
        sorted(row[1] for row in rows if row[0] == p) for p in parents
    ]
    np.testing.assert_array_equal(trie.level_keys[0], parents)
    counts = np.array([len(s) for s in child_sets], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    keys = np.array(
        [node * card + code for node, codes in enumerate(child_sets)
         for code in codes],
        dtype=np.int64,
    )
    np.testing.assert_array_equal(trie.level_keys[1], keys)

    m = data.draw(st.integers(1, 12))
    nodes = np.array(
        data.draw(
            st.lists(
                st.integers(0, len(parents) - 1), min_size=m, max_size=m
            )
        ),
        dtype=np.int64,
    )
    first, got_counts = trie.children_ranges(1, nodes)
    np.testing.assert_array_equal(first, starts[nodes])
    np.testing.assert_array_equal(got_counts, counts[nodes])

    offsets = np.array(
        [data.draw(st.integers(0, int(c) - 1)) for c in got_counts],
        dtype=np.int64,
    )
    positions, codes = trie.children_at(1, nodes, first, offsets)
    np.testing.assert_array_equal(positions, first + offsets)
    np.testing.assert_array_equal(codes, keys[first + offsets] - nodes * card)
    np.testing.assert_array_equal(
        codes, [child_sets[n][o] for n, o in zip(nodes, offsets)]
    )


# ----------------------------------------------------------------------
# cross-relation composite keys
# ----------------------------------------------------------------------
@pytest.fixture
def joint_builds(monkeypatch):
    """The row counts of every ``composite_codes`` build."""
    rows = []
    composite_codes = columnar.composite_codes

    def spy(code_arrays, cardinalities, n_rows):
        rows.append(n_rows)
        return composite_codes(code_arrays, cardinalities, n_rows)

    monkeypatch.setattr(columnar, "composite_codes", spy)
    return rows


@SETTINGS
@given(data=st.data())
def test_composite_keys_order_rows_lexicographically(data):
    n_cols = data.draw(st.integers(1, 4))
    domain = data.draw(st.integers(1, 50))

    def side():
        n_rows = data.draw(st.integers(0, 12))
        return [
            np.array(
                data.draw(
                    st.lists(
                        st.integers(0, domain - 1),
                        min_size=n_rows,
                        max_size=n_rows,
                    )
                ),
                dtype=np.int64,
            )
            for _ in range(n_cols)
        ]

    target, source = side(), side()
    t_keys, s_keys = align_composite_keys(target, source, domain)
    keys = np.concatenate([t_keys, s_keys])
    rows = list(
        zip(*(np.concatenate(pair).tolist() for pair in zip(target, source)))
    )
    # equal keys ⟺ equal rows, and key order is row order, across sides
    for i, row in enumerate(rows):
        for j, other in enumerate(rows):
            assert (keys[i] < keys[j]) == (row < other)
            assert (keys[i] == keys[j]) == (row == other)


def test_pack_plan_overflow_boundary(joint_builds):
    """The per-side key plan holds strictly below ``_MAX_RADIX`` = 2^62."""
    target = [np.array([0, 1, 1], dtype=np.int64)] * 2
    source = [np.array([1, 0], dtype=np.int64)] * 2
    # (2^31 − 1)^2 < 2^62: each side builds on its own, to the plain
    # mixed-radix keys
    radix = (1 << 31) - 1
    t_keys, s_keys = align_composite_keys(target, source, radix)
    assert joint_builds == [3, 2]
    assert t_keys.tolist() == [0, radix + 1, radix + 1]
    assert s_keys.tolist() == [radix + 1, 0]
    # (2^31)^2 = 2^62 reaches the cap: one joint build over both sides
    joint_builds.clear()
    t_keys, s_keys = align_composite_keys(target, source, 1 << 31)
    assert joint_builds == [5]
    assert t_keys[1] == t_keys[2] != t_keys[0]
    assert s_keys[0] == t_keys[1] and s_keys[1] == t_keys[0]
    # one column: the cap applies to the domain itself
    joint_builds.clear()
    align_composite_keys(target[:1], source[:1], (1 << 62) - 1)
    align_composite_keys(target[:1], source[:1], 1 << 62)
    assert joint_builds == [3, 2, 5]
    assert columnar._MAX_RADIX == 1 << 62


def test_composite_keys_overflow_returns_none_in_every_mode(joint_builds):
    """Far past the cap, (2^40)^2, no per-side key exists: no side is
    keyed on its own, and one joint build keys both, in row order."""
    target = [np.array([0, 1], dtype=np.int64)] * 2
    source = [np.array([1, 0], dtype=np.int64)] * 2
    t_keys, s_keys = align_composite_keys(target, source, 1 << 40)
    assert joint_builds == [4]
    assert t_keys[0] < t_keys[1]
    assert s_keys.tolist() == t_keys[::-1].tolist()


def test_composite_keys_trivial_cards(joint_builds):
    # a cardinality-1 (or degenerate 0, all sides empty) domain carries
    # no information: radix 1, every row keys to 0, each side on its own
    for domain, n_target, n_source in [(0, 0, 0), (1, 3, 2)]:
        joint_builds.clear()
        target = [np.zeros(n_target, dtype=np.int64)] * 3
        source = [np.zeros(n_source, dtype=np.int64)] * 3
        t_keys, s_keys = align_composite_keys(target, source, domain)
        assert joint_builds == [n_target, n_source]
        assert t_keys.tolist() == [0] * n_target
        assert s_keys.tolist() == [0] * n_source


def test_dict_mapping_translation_semantics():
    source = np.array([2, 5, 7, 11], dtype=np.int64)
    target = np.array([5, 7, 13], dtype=np.int64)
    np.testing.assert_array_equal(
        dict_mapping(source, target), [-1, 0, 1, -1]
    )
    empty = np.zeros(0, dtype=np.int64)
    np.testing.assert_array_equal(dict_mapping(source, empty), [-1] * 4)
