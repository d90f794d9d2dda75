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
"""

import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from oracles.strategies import fallback_value
from oracles.tuple_engine import generic_join_tuples
from repro.core import BoundSolver, StatisticsCatalog
from repro.datasets import power_law_graph, star_database, star_query
from repro.evaluation import evaluate_with_partitioning, generic_join
from repro.query import parse_query
from repro.relational import Database, Relation
from repro.relational.columnar import ChunkedColumns

SETTINGS = settings(max_examples=25, deadline=None)

BLOCKS = (1, 7, 64)

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

    def test_fallback_path_ignores_block(self):
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
        """The output-sink acceptance case at the scale PR 4 could not
        touch cheaply: closed star fan-out 1024, whose unblocked
        materialized evaluation allocates beyond 200 MB, counted under
        ``CountSink`` + ``frontier_block=64`` within a 2 MB hard cap —
        the same search (bit-identical meter and count), re-routed.
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
        assert peak_materialized > 200 * 1000 * 1000, (
            f"expected a >200 MB materialized run, saw "
            f"{peak_materialized / 1e6:.1f} MB"
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
