"""Differential suite for the compiled trie kernels (PR 7).

``REPRO_KERNELS=python`` is byte-for-byte the pre-kernel NumPy code, so
it *is* the oracle: every test here pins the compiled path (when Numba
is importable — the CI numba leg) or the dispatch plumbing (everywhere)
against it.  Coverage:

* mode plumbing — env parsing, strict ``numba`` mode without Numba,
  ``set_mode`` validation ordering, ``forced`` save/restore;
* per-primitive differentials — ``children_at``, ``gather_ranges``,
  ``find_children``,
  ``slice_parents``, ``composite_keys`` against hand-rolled NumPy
  oracles on hypothesis-generated trie shapes;
* ``pack_plan`` radix edge cases — the 2^62 overflow boundary (where
  both modes must return ``None``), the ≤62-bit packed window, and the
  packable-product/unpackable-bits gap that falls back to arithmetic
  keys;
* end-to-end parity — ``generic_join`` rows, row order, and
  ``nodes_visited`` across kernel mode × sink × ``frontier_block`` ×
  ``evaluate_parallel`` worker count on the blocked-frontier query zoo.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import collect_statistics, lp_bound
from repro.evaluation import evaluate_parallel, generic_join
from repro.query import parse_query
from repro.relational import CountSink, Database, Relation, kernels
from repro.relational.columnar import dict_mapping

SETTINGS = settings(max_examples=25, deadline=None)

needs_numba = pytest.mark.skipif(
    not kernels.numba_available(),
    reason="numba not installed (pip install 'repro[kernels]')",
)

no_numba = pytest.mark.skipif(
    kernels.numba_available(), reason="numba is installed"
)


# ----------------------------------------------------------------------
# mode plumbing
# ----------------------------------------------------------------------
def test_configured_mode_default(monkeypatch):
    monkeypatch.delenv("REPRO_KERNELS", raising=False)
    assert kernels.configured_mode() == "auto"


@pytest.mark.parametrize("raw", ["auto", "NUMBA", " python ", ""])
def test_configured_mode_parses_env(monkeypatch, raw):
    monkeypatch.setenv("REPRO_KERNELS", raw)
    expected = raw.strip().lower() or "auto"
    assert kernels.configured_mode() == expected


def test_configured_mode_rejects_unknown(monkeypatch):
    monkeypatch.setenv("REPRO_KERNELS", "turbo")
    with pytest.raises(ValueError, match="turbo"):
        kernels.configured_mode()


def test_set_mode_rejects_unknown_without_switching():
    prior = kernels.active_mode()
    with pytest.raises(ValueError, match="turbo"):
        kernels.set_mode("turbo")
    assert kernels.active_mode() == prior


def test_forced_restores_prior_mode():
    prior = kernels.active_mode()
    with kernels.forced("python") as mode:
        assert mode == "python"
        assert kernels.active_mode() == "python"
    assert kernels.active_mode() == prior


def test_auto_resolves_to_an_available_path():
    with kernels.forced("auto") as mode:
        expected = "numba" if kernels.numba_available() else "python"
        assert mode == expected


@no_numba
def test_numba_mode_unavailable_raises_and_keeps_prior():
    prior = kernels.active_mode()
    with pytest.raises(kernels.KernelUnavailableError, match="repro\\[kernels\\]"):
        kernels.set_mode("numba")
    assert kernels.active_mode() == prior


@needs_numba
def test_numba_mode_activates():
    with kernels.forced("numba") as mode:
        assert mode == "numba"


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
    # product exactly 2^62 → overflow, both modes must refuse
    assert kernels.pack_plan([1 << 31, 1 << 31]) is None
    # one card just below keeps the product at 2^61 → packed (31+30 bits)
    assert kernels.pack_plan([1 << 31, 1 << 30]) == ("packed", [31, 30])
    assert kernels.pack_plan([1 << 40, 1 << 40]) is None


def test_pack_plan_bitwidth_gap_falls_back_to_arithmetic():
    # bit_length over-counts non-power-of-two cards: three (2^20 + 1)
    # columns cost 63 packed bits but only ~2^60 of radix product, so
    # the arithmetic layout applies and no mode may bit-pack
    cards = [(1 << 20) + 1] * 3
    assert kernels.pack_plan(cards) == ("arithmetic", None)


def test_pack_plan_trivial_cards():
    assert kernels.pack_plan([]) == ("packed", [])
    # a cardinality-1 (or degenerate 0) column carries no information
    # and packs into a zero-bit field
    assert kernels.pack_plan([1, 1]) == ("packed", [0, 0])
    assert kernels.pack_plan([0, 5]) == ("packed", [0, 3])


def _key_structure(keys):
    """Order/equality fingerprint: what downstream consumers observe."""
    order = np.argsort(keys, kind="stable")
    ranks = np.unique(keys[order], return_inverse=True)[1]
    return order, ranks


@SETTINGS
@given(data=st.data())
def test_composite_keys_structure_is_mode_invariant(data):
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
    with kernels.forced("python"):
        oracle = kernels.composite_keys(code_arrays, cards)
    active = kernels.composite_keys(code_arrays, cards)
    assert (oracle is None) == (active is None)
    if oracle is None or n_rows == 0:
        return
    o_order, o_ranks = _key_structure(oracle)
    a_order, a_ranks = _key_structure(active)
    np.testing.assert_array_equal(o_order, a_order)
    np.testing.assert_array_equal(o_ranks[np.argsort(o_order)],
                                  a_ranks[np.argsort(a_order)])


@needs_numba
def test_composite_keys_packed_structure_with_wide_cards():
    # cards too large to enumerate but packable: 35 + 20 = 55 bits
    cards = [1 << 35, 1 << 20]
    rng_hi = [c - 1 for c in cards]
    cols = [
        np.array([0, rng_hi[0], 7, 7, 123456789], dtype=np.int64),
        np.array([rng_hi[1], 0, 9, 9, 42], dtype=np.int64),
    ]
    with kernels.forced("python"):
        oracle = kernels.composite_keys(cols, cards)
    with kernels.forced("numba"):
        packed = kernels.composite_keys(cols, cards)
    o_order, o_ranks = _key_structure(oracle)
    p_order, p_ranks = _key_structure(packed)
    np.testing.assert_array_equal(o_order, p_order)
    np.testing.assert_array_equal(o_ranks, p_ranks)


def test_composite_keys_overflow_returns_none_in_every_mode():
    cols = [np.array([0, 1], dtype=np.int64)] * 2
    cards = [1 << 40, 1 << 40]
    with kernels.forced("python"):
        assert kernels.composite_keys(cols, cards) is None
    if kernels.numba_available():
        with kernels.forced("numba"):
            assert kernels.composite_keys(cols, cards) is None


def test_dict_mapping_translation_semantics():
    source = np.array([2, 5, 7, 11], dtype=np.int64)
    target = np.array([5, 7, 13], dtype=np.int64)
    np.testing.assert_array_equal(
        dict_mapping(source, target), [-1, 0, 1, -1]
    )
    empty = np.zeros(0, dtype=np.int64)
    np.testing.assert_array_equal(dict_mapping(source, empty), [-1] * 4)


# ----------------------------------------------------------------------
# end-to-end parity: mode × sink × frontier_block × workers
# ----------------------------------------------------------------------
QUERIES = [
    parse_query("triangle(x,y,z) :- R(x,y), R(y,z), R(z,x)"),
    parse_query("lw(x,y,z) :- R(x,y), S(y,z), T(x,z)"),
    parse_query("cycle4(a,b,c,d) :- R(a,b), S(b,c), R(c,d), S(d,a)"),
    parse_query("onejoin(x,y,z) :- R(x,y), S(y,z)"),
    parse_query("star(m,a,b) :- U(m), R(m,a), R(m,b)"),
    parse_query("diag(x,w) :- R(x,x), S(x,w)"),
]

values = st.integers(0, 5)
pairs = st.lists(st.tuples(values, values), max_size=18)
units = st.lists(st.tuples(values), max_size=6)


@st.composite
def databases(draw):
    return Database(
        {
            "R": Relation(("a", "b"), draw(pairs)),
            "S": Relation(("a", "b"), draw(pairs)),
            "T": Relation(("a", "b"), draw(pairs)),
            "U": Relation(("u",), draw(units)),
        }
    )


@needs_numba
@SETTINGS
@given(db=databases(), block=st.sampled_from([None, 1, 7, 64]))
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
def test_generic_join_parity_across_modes(query, db, block):
    with kernels.forced("python"):
        oracle = generic_join(query, db, frontier_block=block)
    with kernels.forced("numba"):
        fast = generic_join(query, db, frontier_block=block)
    assert list(fast.output) == list(oracle.output)
    assert fast.nodes_visited == oracle.nodes_visited


@needs_numba
@SETTINGS
@given(db=databases())
@pytest.mark.parametrize("query", QUERIES, ids=lambda q: q.name)
def test_sink_counts_parity_across_modes(query, db):
    counts = {}
    for mode in ("python", "numba"):
        with kernels.forced(mode):
            sink = CountSink()
            run = generic_join(query, db, sink=sink)
            counts[mode] = (sink.n_rows, run.nodes_visited)
    assert counts["python"] == counts["numba"]


_STUB_DIFFERENTIAL = """
import sys, types

# passthrough numba stand-in: njit returns the function unchanged, so
# the compiled-branch *logic* (fused loops, bit-packing, the membership
# probe, the parent pointer sweep) executes as plain Python
fake = types.ModuleType("numba")
def njit(*a, **k):
    if a and callable(a[0]):
        return a[0]
    return lambda f: f
fake.njit = njit
sys.modules["numba"] = fake

import random
import numpy as np
from repro.evaluation import generic_join
from repro.query import parse_query
from repro.relational import CountSink, Database, Relation, kernels

assert kernels.numba_available()
rng = random.Random(7)
pairs = [(rng.randrange(40), rng.randrange(40)) for _ in range(300)]
db = Database({
    "R": Relation(("a", "b"), pairs),
    "S": Relation(("a", "b"), [(b, a) for a, b in pairs[:200]]),
    "T": Relation(("a", "b"), pairs[50:250]),
    "U": Relation(("u",), [(v,) for v in range(0, 40, 3)]),
})
queries = [
    parse_query("triangle(x,y,z) :- R(x,y), R(y,z), R(z,x)"),
    parse_query("lw(x,y,z) :- R(x,y), S(y,z), T(x,z)"),
    parse_query("cycle4(a,b,c,d) :- R(a,b), S(b,c), R(c,d), S(d,a)"),
    parse_query("star(m,a,b) :- U(m), R(m,a), R(m,b)"),
    parse_query("diag(x,w) :- R(x,x), S(x,w)"),
]
for q in queries:
    for block in (None, 1, 7, 64):
        with kernels.forced("python"):
            oracle = generic_join(q, db, frontier_block=block)
        with kernels.forced("numba"):
            fast = generic_join(q, db, frontier_block=block)
        assert list(fast.output) == list(oracle.output), (q.name, block)
        assert fast.nodes_visited == oracle.nodes_visited, (q.name, block)
    with kernels.forced("numba"):
        sink = CountSink()
        generic_join(q, db, sink=sink)
    assert sink.n_rows == len(oracle.output), q.name

# non-power-of-two cards: the packed layout genuinely diverges in raw
# values (c0<<3|c1 vs c0*5+c1) while order/equality structure agrees
cols = [np.array([0, 2, 1, 1, 2], dtype=np.int64),
        np.array([4, 0, 3, 3, 1], dtype=np.int64)]
with kernels.forced("python"):
    o = kernels.composite_keys(cols, [3, 5])
with kernels.forced("numba"):
    p = kernels.composite_keys(cols, [3, 5])
assert (np.argsort(o, kind="stable") == np.argsort(p, kind="stable")).all()
assert len(np.unique(o)) == len(np.unique(p))
assert not (o == p).all()
print("STUB-DIFFERENTIAL-OK")
"""


def test_compiled_branch_logic_via_stubbed_njit():
    """Differential-run the njit-decorated kernel *logic* everywhere.

    Without Numba the compiled branches would only ever execute on CI's
    numba leg; a passthrough ``njit`` stub in a subprocess makes them
    run as plain Python here, pinning the fused-loop logic itself (not
    the compilation) against the oracle on every environment.
    """
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(kernels.__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, "-c", _STUB_DIFFERENTIAL],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src), "REPRO_KERNELS": "auto"},
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "STUB-DIFFERENTIAL-OK" in proc.stdout


@needs_numba
def test_parallel_workers_inherit_kernel_mode():
    rows = [(i, (i * 7) % 23) for i in range(60)]
    db = Database(
        {"R": Relation(("a", "b"), rows + [(b, a) for a, b in rows])}
    )
    query = QUERIES[0]
    stats = collect_statistics(query, db, ps=[1.0, 2.0, math.inf])
    bound = lp_bound(stats, query=query)
    results = {}
    for mode in ("python", "numba"):
        with kernels.forced(mode):
            run = evaluate_parallel(query, db, bound, workers=2)
            results[mode] = (
                sorted(run.output),
                run.nodes_visited,
                run.parts_evaluated,
            )
    assert results["python"] == results["numba"]
