"""The NumPy trie primitives against hand-rolled oracles.

Coverage:

* per-primitive checks — ``children_at``, ``gather_ranges``,
  ``find_children``, ``slice_parents``, ``composite_keys`` against
  hand-rolled NumPy oracles on hypothesis-generated trie shapes;
* ``pack_plan`` radix edge cases — the 2^62 overflow boundary (where it
  returns ``None`` and callers re-factorize) and trivial cardinalities.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import kernels
from repro.relational.columnar import dict_mapping

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
# per-primitive differentials against hand NumPy oracles
# ----------------------------------------------------------------------
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
    found, got = kernels.find_children(keys, nodes, codes, card)
    np.testing.assert_array_equal(found, expect_found)
    np.testing.assert_array_equal(got, positions)


def test_find_children_empty_level():
    nodes = np.array([0, 1], dtype=np.int64)
    codes = np.array([0, 0], dtype=np.int64)
    empty = np.zeros(0, dtype=np.int64)
    found, positions = kernels.find_children(empty, nodes, codes, 3)
    assert not found.any()
    np.testing.assert_array_equal(positions, [0, 0])


@SETTINGS
@given(data=st.data())
def test_children_at_and_gather_ranges_match_oracle(data):
    # build a well-formed level: each node holds a sorted set of child
    # codes (≤ card of them), keys are node*card + code in node-major
    # order — exactly the CodeTrie layout
    card = data.draw(st.integers(1, 7))
    n_nodes = data.draw(st.integers(1, 8))
    child_sets = [
        sorted(
            data.draw(st.sets(st.integers(0, card - 1), max_size=card))
        )
        for _ in range(n_nodes)
    ]
    counts = np.array([len(s) for s in child_sets], dtype=np.int64)
    starts = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
    keys = np.array(
        [
            node * card + code
            for node, codes in enumerate(child_sets)
            for code in codes
        ],
        dtype=np.int64,
    )
    nonempty = np.nonzero(counts)[0]
    if len(nonempty) == 0:
        return
    m = data.draw(st.integers(1, 12))
    nodes = np.array(
        data.draw(
            st.lists(
                st.sampled_from(list(nonempty)), min_size=m, max_size=m
            )
        ),
        dtype=np.int64,
    )
    first, got_counts = kernels.gather_ranges(starts, nodes)
    np.testing.assert_array_equal(first, starts[nodes])
    np.testing.assert_array_equal(got_counts, starts[nodes + 1] - starts[nodes])

    offsets = np.array(
        [data.draw(st.integers(0, int(c) - 1)) for c in got_counts],
        dtype=np.int64,
    )
    positions, codes = kernels.children_at(keys, nodes, first, offsets, card)
    np.testing.assert_array_equal(positions, first + offsets)
    np.testing.assert_array_equal(codes, keys[first + offsets] - nodes * card)


@SETTINGS
@given(data=st.data())
def test_slice_parents_matches_oracle(data):
    counts = np.array(
        data.draw(st.lists(st.integers(0, 6), min_size=1, max_size=10)),
        dtype=np.int64,
    )
    total = int(counts.sum())
    if total == 0:
        return
    ends = np.cumsum(counts)
    flat_starts = ends - counts
    lo = data.draw(st.integers(0, total - 1))
    hi = data.draw(st.integers(lo + 1, total))
    flat = np.arange(lo, hi)
    expect_parents = np.searchsorted(ends, flat, side="right")
    parents, offsets = kernels.slice_parents(ends, flat_starts, lo, hi)
    np.testing.assert_array_equal(parents, expect_parents)
    np.testing.assert_array_equal(offsets, flat - flat_starts[expect_parents])


# ----------------------------------------------------------------------
# composite keys and the packing plan
# ----------------------------------------------------------------------
def test_pack_plan_overflow_boundary():
    # product exactly 2^62 → overflow: callers must re-factorize
    assert kernels.pack_plan([1 << 31, 1 << 31]) is None
    # one card just below keeps the product at 2^61
    assert kernels.pack_plan([1 << 31, 1 << 30]) == [1 << 31, 1 << 30]
    assert kernels.pack_plan([1 << 40, 1 << 40]) is None


def test_pack_plan_trivial_cards():
    assert kernels.pack_plan([]) == []
    # a cardinality-1 (or degenerate 0) column carries no information
    # and takes radix 1
    assert kernels.pack_plan([1, 1]) == [1, 1]
    assert kernels.pack_plan([0, 5]) == [1, 5]


@SETTINGS
@given(data=st.data())
def test_composite_keys_order_rows_lexicographically(data):
    n_cols = data.draw(st.integers(1, 4))
    cards = [data.draw(st.integers(1, 50)) for _ in range(n_cols)]
    n_rows = data.draw(st.integers(0, 20))
    code_arrays = [
        np.array(
            data.draw(
                st.lists(
                    st.integers(0, max(0, card - 1)),
                    min_size=n_rows,
                    max_size=n_rows,
                )
            ),
            dtype=np.int64,
        )
        for card in cards
    ]
    keys = kernels.composite_keys(code_arrays, cards)
    rows = list(zip(*(codes.tolist() for codes in code_arrays)))
    # equal keys ⟺ equal rows, and key order is row order
    for i, row in enumerate(rows):
        for j, other in enumerate(rows):
            assert (keys[i] < keys[j]) == (row < other)
            assert (keys[i] == keys[j]) == (row == other)


def test_composite_keys_overflow_returns_none_in_every_mode():
    cols = [np.array([0, 1], dtype=np.int64)] * 2
    assert kernels.composite_keys(cols, [1 << 40, 1 << 40]) is None


def test_dict_mapping_translation_semantics():
    source = np.array([2, 5, 7, 11], dtype=np.int64)
    target = np.array([5, 7, 13], dtype=np.int64)
    np.testing.assert_array_equal(
        dict_mapping(source, target), [-1, 0, 1, -1]
    )
    empty = np.zeros(0, dtype=np.int64)
    np.testing.assert_array_equal(dict_mapping(source, empty), [-1] * 4)
