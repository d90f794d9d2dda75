"""Block-size invariance of the streamed WCOJ frontier.

The blocked engine is the breadth-first engine sliced: candidates are
enumerated in one fixed parent-major order and survival of a candidate
depends only on its own binding, so output rows, their *order*, and the
``nodes_visited`` meter must be bit-identical for every
``frontier_block`` — including ``None`` (one slice per level) and 1 (one
candidate live at a time).  This suite pins that invariant across
cyclic, acyclic, self-join, repeated-variable, and empty queries, checks
the routed paths (``evaluate_with_partitioning``), and holds the blocked
engine to a hard memory cap on the star workload whose unblocked
frontier is quadratically larger than its output.

A slice takes one of three shapes — a single parent, several parents
seeded by one participant, or mixed seeds — and a count-only sink has
its last level counted inside the slices above it; named cases force
each slice shape and each shape of counted leaf, and every sink must
match the materialized run.
"""

import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.strategies import fallback_value
from oracles.tuple_engine import generic_join_tuples
import repro.evaluation.governor as governor_module
from repro.core import BoundSolver, StatisticsCatalog
from repro.datasets import power_law_graph, star_database, star_query
from repro.evaluation import (
    EvaluationBudget,
    EvaluationGovernor,
    evaluate_with_partitioning,
    generic_join,
    wcoj,
)
from repro.query import parse_query
from repro.relational import (
    CountSink,
    Database,
    GroupCountSink,
    Relation,
    SpillSink,
)
from repro.relational.columnar import ChunkedColumns, CodeTrie

SETTINGS = settings(max_examples=25, deadline=None)

BLOCKS = (1, 7, 64)
SINK_BLOCKS = (1, 7, 64, None)

values = st.integers(0, 5)
pairs = st.lists(st.tuples(values, values), max_size=18)
units = st.lists(st.tuples(values), max_size=6)
fallback_pairs = st.lists(st.tuples(fallback_value, fallback_value), max_size=18)
fallback_units = st.lists(st.tuples(fallback_value), max_size=6)

QUERIES = [
    parse_query("triangle(x,y,z) :- R(x,y), R(y,z), R(z,x)"),
    parse_query("lw(x,y,z) :- R(x,y), S(y,z), T(x,z)"),
    parse_query("cycle4(a,b,c,d) :- R(a,b), S(b,c), R(c,d), S(d,a)"),
    parse_query("onejoin(x,y,z) :- R(x,y), S(y,z)"),
    parse_query("star(m,a,b) :- U(m), R(m,a), R(m,b)"),
    parse_query("diag(x,w) :- R(x,x), S(x,w)"),
    parse_query("disjoint(x,y,u,v) :- R(x,y), S(u,v)"),
]


@st.composite
def databases(draw, pairs=pairs, units=units):
    return Database(
        {
            "R": Relation(("a", "b"), draw(pairs)),
            "S": Relation(("a", "b"), draw(pairs)),
            "T": Relation(("a", "b"), draw(pairs)),
            "U": Relation(("u",), draw(units)),
        }
    )


def assert_block_invariant(query, db, blocks=BLOCKS):
    reference = generic_join(query, db)
    oracle = generic_join_tuples(query, db)
    assert set(reference.output) == set(oracle.output)
    assert reference.nodes_visited == oracle.nodes_visited
    for block in blocks:
        run = generic_join(query, db, frontier_block=block)
        assert run.output.attributes == reference.output.attributes
        assert list(run.output) == list(reference.output), (query.name, block)
        assert run.nodes_visited == reference.nodes_visited, (
            query.name,
            block,
        )


def assert_sinks_match(query, db, blocks=SINK_BLOCKS):
    """Every sink at every block equals the unblocked materialized run:
    the count, the rows (grouped, or spilled in order), and the meter."""
    reference = generic_join(query, db)
    rows = list(reference.output)
    group_vars = query.variables[:2]
    positions = [query.variables.index(v) for v in group_vars]
    groups = Counter(tuple(row[p] for p in positions) for row in rows)
    for block in blocks:
        count = CountSink()
        run = generic_join(query, db, frontier_block=block, sink=count)
        assert count.total == len(rows), (query.name, block)
        assert run.nodes_visited == reference.nodes_visited, (query.name, block)

        grouped = GroupCountSink(group_vars)
        run = generic_join(query, db, frontier_block=block, sink=grouped)
        assert grouped.counts() == groups, (query.name, block)
        assert run.nodes_visited == reference.nodes_visited, (query.name, block)

        with tempfile.TemporaryDirectory() as tmp:
            with SpillSink(Path(tmp) / "spill", chunk_rows=8) as spill:
                run = generic_join(query, db, frontier_block=block, sink=spill)
                assert spill.rows() == rows, (query.name, block)
                assert run.nodes_visited == reference.nodes_visited


class _SliceRecorder(EvaluationGovernor):
    """An unbudgeted governor that tallies each slice's seed gathers.

    The engine checkpoints once before every slice, so the
    :meth:`CodeTrie.children_at` calls between two checkpoints belong to
    one slice and name its shape: none for a single parent (its seed's
    children are read as a contiguous run), one for a uniform seed, one
    per seeding participant for mixed seeds.
    """

    def __init__(self):
        super().__init__()
        self.gathers = []

    def checkpoint(self, nodes_visited=None):
        self.gathers.append(0)
        super().checkpoint(nodes_visited)


def slice_shapes(query, db, block, monkeypatch):
    """Run ``query`` and count its slices per shape."""
    recorder = _SliceRecorder()
    children_at = CodeTrie.children_at

    def counted(self, *args):
        recorder.gathers[-1] += 1
        return children_at(self, *args)

    with monkeypatch.context() as patch:
        patch.setattr(CodeTrie, "children_at", counted)
        run = generic_join(query, db, frontier_block=block, governor=recorder)
    # the first checkpoint precedes the search
    shapes = Counter(min(g, 2) for g in recorder.gathers[1:])
    return run, {"single": shapes[0], "uniform": shapes[1], "mixed": shapes[2]}


class TestBlockInvariance:
    @SETTINGS
    @given(databases() | databases(fallback_pairs, fallback_units))
    def test_all_query_shapes(self, db):
        for query in QUERIES:
            assert_block_invariant(query, db)

    @SETTINGS
    @given(pairs)
    def test_explicit_orders(self, rows):
        db = Database({"R": Relation(("a", "b"), rows)})
        query = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        for order in [("x", "y", "z"), ("z", "x", "y")]:
            reference = generic_join(query, db, order=order)
            for block in BLOCKS:
                run = generic_join(
                    query, db, order=order, frontier_block=block
                )
                assert list(run.output) == list(reference.output)
                assert run.nodes_visited == reference.nodes_visited

    def test_empty_relation(self):
        db = Database(
            {
                "R": Relation(("a", "b"), []),
                "S": Relation(("a", "b"), [(1, 2)]),
            }
        )
        query = parse_query("q(x,y,z) :- R(x,y), S(y,z)")
        for block in (None, 1, 64):
            run = generic_join(query, db, frontier_block=block)
            assert run.count == 0 and run.nodes_visited == 0

    def test_dead_branch_meters_match(self):
        # R has rows but S kills every branch at the second level
        db = Database(
            {
                "R": Relation(("a", "b"), [(1, 2), (3, 4)]),
                "S": Relation(("a", "b"), [(9, 9)]),
            }
        )
        query = parse_query("q(x,y,z) :- R(x,y), S(y,z)")
        order = ("x", "y", "z")
        reference = generic_join(query, db, order=order)
        assert reference.count == 0 and reference.nodes_visited > 0
        for block in BLOCKS:
            run = generic_join(query, db, order=order, frontier_block=block)
            assert run.count == 0
            assert run.nodes_visited == reference.nodes_visited

    def test_generated_graph_triangle(self):
        db = Database({"R": power_law_graph(300, 1200, 0.5, seed=5)})
        query = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        assert_block_invariant(query, db, blocks=(1, 7, 64, 4096))

    def test_rejects_non_positive_block(self):
        db = Database({"R": Relation(("a", "b"), [(1, 2)])})
        query = parse_query("q(x,y) :- R(x,y)")
        for bad in (0, -3):
            with pytest.raises(ValueError):
                generic_join(query, db, frontier_block=bad)

    def test_string_values_are_block_invariant(self):
        # string values run the blocked engine: blocked and unblocked
        # runs are bit-identical, and agree with the tuple oracle
        db = Database(
            {
                "R": Relation(
                    ("a", "b"), [("u", "v"), ("v", "w"), ("u", "w"), ("w", "u")]
                ),
                "S": Relation(("a", "b"), [("v", "w"), ("w", "u"), ("w", "v")]),
            }
        )
        query = parse_query("q(x,y,z) :- R(x,y), S(y,z)")
        oracle = generic_join_tuples(query, db)
        reference = generic_join(query, db)
        assert set(reference.output) == set(oracle.output)
        assert reference.nodes_visited == oracle.nodes_visited
        for block in (1, 7):
            run = generic_join(query, db, frontier_block=block)
            assert list(run.output) == list(reference.output)
            assert run.nodes_visited == reference.nodes_visited


class TestRoutedPaths:
    def test_partitioned_evaluation_is_block_invariant(self):
        db = Database({"R": power_law_graph(200, 700, 0.6, seed=9)})
        query = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        (stats,) = StatisticsCatalog(db).precompute(
            [query], ps=[1.0, 2.0, float("inf")]
        )
        bound = BoundSolver().solve(stats, query=query)
        reference = evaluate_with_partitioning(
            query, db, bound, max_parts=20000
        )
        for block in (1, 64):
            run = evaluate_with_partitioning(
                query, db, bound, max_parts=20000, frontier_block=block
            )
            assert set(run.output) == set(reference.output)
            assert run.nodes_visited == reference.nodes_visited
            assert run.parts_evaluated == reference.parts_evaluated


def _halving_governor(monkeypatch):
    """Always past its soft watermark: the block halves at every
    checkpoint, 64 → 1 (the ladder's start and floor lowered for the
    test), so slices and leaf passes change size mid-level."""
    monkeypatch.setattr(governor_module, "INITIAL_FRONTIER_BLOCK", 64)
    monkeypatch.setattr(governor_module, "MIN_FRONTIER_BLOCK", 1)
    growth = iter(range(0, 1 << 40, 1 << 20))
    return EvaluationGovernor(
        EvaluationBudget(soft_memory_bytes=1, hard_memory_bytes=1 << 50),
        memory_probe=lambda: next(growth),
    )


class TestSliceShapes:
    """Each slice shape, forced by a named case, into every sink."""

    @SETTINGS
    @given(databases() | databases(fallback_pairs, fallback_units))
    def test_sinks_match_materialized_run(self, db):
        for query in QUERIES:
            assert_sinks_match(query, db)

    def test_single_parent_slices(self, monkeypatch):
        # fan-out 96 ≥ block 16: every arm slice lies under one parent
        fan_out = 96
        query, db = star_query(2), star_database(fan_out)
        run, shapes = slice_shapes(query, db, 16, monkeypatch)
        assert shapes["single"] > 0 and shapes["mixed"] == 0
        assert run.count == fan_out
        assert run.nodes_visited == (fan_out + 1) ** 2
        assert list(run.output) == list(generic_join(query, db).output)
        assert_sinks_match(query, db, blocks=(16, None))

    def test_mixed_seed_slices(self, monkeypatch):
        db = Database({"R": power_law_graph(300, 1200, 0.5, seed=5)})
        query = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        run, shapes = slice_shapes(query, db, 7, monkeypatch)
        assert shapes["mixed"] > 0 and shapes["uniform"] > 0
        reference = generic_join(query, db)
        assert list(run.output) == list(reference.output)
        assert run.nodes_visited == reference.nodes_visited
        assert_sinks_match(query, db, blocks=(7, None))

    def test_governed_count_is_bit_identical(self, monkeypatch):
        db = Database({"R": power_law_graph(300, 1200, 0.5, seed=5)})
        query = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        reference = generic_join(query, db, sink=CountSink())
        governors = {
            "ample": EvaluationGovernor(
                EvaluationBudget(
                    soft_memory_bytes=1 << 33, hard_memory_bytes=1 << 34
                )
            ),
            "ladder": _halving_governor(monkeypatch),
        }
        for name, governor in governors.items():
            sink = CountSink()
            run = generic_join(query, db, sink=sink, governor=governor)
            assert sink.total == reference.count, name
            assert run.nodes_visited == reference.nodes_visited, name


def _unary(values):
    return Relation(("a",), [(v,) for v in values])


def _pairs(fan):
    """``{x: ys}`` as binary rows."""
    return Relation(("a", "b"), [(x, y) for x, ys in fan.items() for y in ys])


#: Count-only leaves, each named for the shape its last level takes.
#: ``(query, database, order)``; ``None`` is the default order.
LEAF_CASES = {
    # n = 1: the root is the leaf's only binding, 100 > 64 candidates
    "one-variable": (
        parse_query("q(x) :- R(x), S(x)"),
        Database({"R": _unary(range(100)), "S": _unary(range(0, 200, 2))}),
        None,
    ),
    # n = 1, one participant: the leaf count is its child count
    "one-atom": (
        parse_query("q(x) :- R(x)"),
        Database({"R": _unary(range(9))}),
        None,
    ),
    # n = 2: three bindings with 100 candidates each, over every block
    "leaf-over-block": (
        parse_query("q(x,y) :- R(x,y), S(x,y)"),
        Database({
            "R": _pairs({x: range(100) for x in range(3)}),
            "S": _pairs({x: range(0, 200, 2) for x in range(3)}),
        }),
        ("x", "y"),
    ),
    # the seed alternates S, R, S along the bindings
    "mixed-seed": (
        parse_query("q(x,y) :- R(x,y), S(x,y)"),
        Database({
            "R": _pairs({0: range(10), 1: (3, 5), 2: range(10)}),
            "S": _pairs({0: (1, 2, 11), 1: range(10), 2: (4, 9, 12)}),
        }),
        ("x", "y"),
    ),
    # every binding survives its own level and none closes
    "empty-leaf": (
        parse_query("q(x,y) :- R(x,y), S(x,y)"),
        Database({
            "R": _pairs({x: range(0, 20, 2) for x in range(5)}),
            "S": _pairs({x: range(1, 20, 2) for x in range(5)}),
        }),
        ("x", "y"),
    ),
    # every binding has exactly one seed child at the leaf
    "one-child": (star_query(2), star_database(24), None),
}


class TestCountedLeaf:
    """A count-only sink has the last level counted inside the slice
    above it: every shape of that leaf, at every block, ungoverned and
    under a halving ladder, equals the materialized run."""

    @pytest.mark.parametrize("governed", [False, True])
    @pytest.mark.parametrize("block", SINK_BLOCKS)
    @pytest.mark.parametrize("case", sorted(LEAF_CASES))
    def test_count_and_meter_match_materialized_run(
        self, case, block, governed, monkeypatch
    ):
        query, db, order = LEAF_CASES[case]
        reference = generic_join(query, db, order=order)
        oracle = generic_join_tuples(query, db)
        assert reference.count == len(oracle.output)
        assert reference.nodes_visited == oracle.nodes_visited
        for sink in (CountSink(), None):
            governor = _halving_governor(monkeypatch) if governed else None
            run = generic_join(
                query, db, order=order, frontier_block=block, sink=sink,
                governor=governor,
            )
            assert run.count == reference.count, (case, block, sink)
            assert run.nodes_visited == reference.nodes_visited, (
                case, block, sink,
            )
            if sink is None:
                assert list(run.output) == list(reference.output)

    def test_cases_take_their_shapes(self):
        counts = {}
        for case, (query, db, order) in LEAF_CASES.items():
            run = generic_join(query, db, order=order, sink=CountSink())
            counts[case] = (run.count, run.nodes_visited)
        assert counts["one-variable"] == (50, 50)
        assert counts["one-atom"] == (9, 9)
        assert counts["leaf-over-block"] == (150, 153)
        assert counts["mixed-seed"] == (6, 9)
        assert counts["empty-leaf"] == (0, 5)
        assert counts["one-child"] == (24, 25**2)

    def test_mixed_seed_leaf_passes(self, monkeypatch):
        # a pass of 7 candidates spans bindings seeded by S and by R
        query, db, order = LEAF_CASES["mixed-seed"]
        calls = []
        probe_mixed = wcoj._LevelBlock.probe_mixed

        def counted(self, *args):
            calls.append(len(self.participants))
            return probe_mixed(self, *args)

        with monkeypatch.context() as patch:
            patch.setattr(wcoj._LevelBlock, "probe_mixed", counted)
            run = generic_join(
                query, db, order=order, frontier_block=7, sink=CountSink()
            )
        assert calls and run.count == 6

    def test_one_child_needs_every_binding_to_have_one(self):
        # seed counts [0, 2]: the total equals the frontier width, yet
        # the second binding owns both candidates.  No trie built from
        # rows has a childless inner node, so the level arrays are set
        # by hand: node 0 of level 1 has no children, node 1 has two.
        trie = CodeTrie([np.zeros(2, dtype=np.int64)] * 2, [4, 4])
        trie.level_keys = [
            np.array([0, 1], dtype=np.int64),
            np.array([1 * 4 + 0, 1 * 4 + 2], dtype=np.int64),
        ]
        leaf = wcoj._LevelBlock(
            [trie], [(0, 1)], 2, [np.array([0, 1], dtype=np.int64)]
        )
        assert leaf.seed_counts.tolist() == [0, 2]
        assert leaf.total == 2 and not leaf.one_child
        keep, _, codes, parents = leaf.probe_slice(0, 2, ())
        assert keep is None
        assert codes.tolist() == [0, 2]
        assert parents == 1


class TestStarMemoryCap:
    """The acceptance case: quadratic frontier, linear output."""

    FAN_OUT = 256
    BLOCK = 1024

    def _peak(self, fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    def test_blocked_run_stays_under_hard_cap(self):
        query = star_query(2)
        db = star_database(self.FAN_OUT)
        generic_join(query, db)  # warm trie caches outside the measurement
        unblocked, peak_unblocked = self._peak(generic_join, query, db)
        blocked, peak_blocked = self._peak(
            generic_join, query, db, frontier_block=self.BLOCK
        )
        # identical search, sliced
        assert list(blocked.output) == list(unblocked.output)
        assert blocked.nodes_visited == unblocked.nodes_visited
        assert blocked.count == self.FAN_OUT
        # hard cap: O(block × depth) live columns, far under the
        # fan_out²-sized frontier (~20 MB unblocked at this size)
        assert peak_blocked < 2 * 1024 * 1024, (
            f"blocked peak {peak_blocked / 1e6:.2f} MB exceeds the 2 MB cap"
        )
        assert peak_unblocked >= 8 * peak_blocked

    def test_count_sink_caps_memory_at_fan_out_1024(self):
        """The output-sink acceptance case at a scale the blocked
        frontier alone could not touch cheaply: closed star fan-out 1024,
        whose unblocked materialized evaluation allocates over a hundred
        times what ``CountSink`` + ``frontier_block=64`` needs, counted
        within a 2 MB hard cap — the same search (bit-identical meter and
        count), re-routed.
        """
        from repro.relational import CountSink

        fan_out, block = 1024, 64
        query = star_query(2)
        db = star_database(fan_out)
        # warm the trie caches cheaply (blocked, so ~1 MB peak)
        generic_join(query, db, frontier_block=8192)
        unblocked, peak_materialized = self._peak(generic_join, query, db)
        sink = CountSink()
        counted, peak_counted = self._peak(
            generic_join, query, db, frontier_block=block, sink=sink
        )
        assert sink.total == unblocked.count == fan_out
        assert counted.nodes_visited == unblocked.nodes_visited
        assert peak_materialized >= 100 * peak_counted, (
            f"expected the materialized run to need ≥100× the counted "
            f"peak, saw {peak_materialized / 1e6:.1f} MB vs "
            f"{peak_counted / 1e6:.2f} MB"
        )
        assert peak_counted < 2 * 1024 * 1024, (
            f"count-sink peak {peak_counted / 1e6:.2f} MB exceeds the "
            f"2 MB cap"
        )


class TestChunkedColumns:
    def test_accumulates_and_finalizes_once(self):
        import numpy as np

        acc = ChunkedColumns(2)
        acc.append([np.array([1, 2]), np.array([3, 4])])
        acc.append([np.array([5]), np.array([6])])
        assert acc.n_rows == 3 and acc.n_chunks == 2
        a, b = acc.finalize()
        assert a.tolist() == [1, 2, 5] and b.tolist() == [3, 4, 6]

    def test_empty_finalize(self):
        acc = ChunkedColumns(1)
        (column,) = acc.finalize()
        assert column.size == 0 and acc.n_rows == 0

    def test_rejects_ragged_append(self):
        import numpy as np

        acc = ChunkedColumns(2)
        with pytest.raises(ValueError):
            acc.append([np.array([1])])
