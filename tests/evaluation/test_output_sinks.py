"""Sink invariance of the WCOJ output stream.

Every sink sees the same rows in the same order with the same meter as
the materialized path, for every ``frontier_block`` (including ``None``)
— a sink only decides what happens to each finished batch, never which
batches exist.  This suite pins that invariant across cyclic, acyclic,
self-join, repeated-variable, empty, and non-integer (object-dictionary)
queries, each against the tuple oracle's rows and meter;
checks the routed Theorem 2.6 path (counts add across disjoint part
combinations, spill segments concatenate); exercises the chunk store's
robustness guarantees (atomicity, validation, cleanup, collision-free
concurrent runs); and holds :class:`CountSink` to exact Python-int
arithmetic beyond the ``int64`` range.
"""

import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.strategies import fallback_value
from oracles.tuple_engine import generic_join_tuples
from repro.core import BoundSolver, StatisticsCatalog
from repro.datasets import power_law_graph
from repro.evaluation import (
    acyclic_count,
    evaluate_with_partitioning,
    generic_join,
)
from repro.query import parse_query
from repro.query.query import Atom, ConjunctiveQuery
from repro.relational import (
    CountSink,
    Database,
    GroupCountSink,
    MaterializeSink,
    Relation,
    SpillSink,
)
from repro.relational.chunkstore import ChunkStoreError, SegmentStore

SETTINGS = settings(max_examples=10, deadline=None)

BLOCKS = (1, 7, 64, None)

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


def assert_sink_invariant(query, db, blocks=BLOCKS):
    group_vars = query.variables[:2]
    oracle = generic_join_tuples(query, db)
    first = None
    for block in blocks:
        reference = generic_join(query, db, frontier_block=block)
        rows = list(reference.output)
        assert set(rows) == set(oracle.output), (query.name, block)
        assert reference.nodes_visited == oracle.nodes_visited
        if first is None:
            first = rows
        assert rows == first, (query.name, block)  # order: block-invariant
        dtypes = [
            reference.output.columnar().dictionary(v).dtype
            for v in query.variables
        ]

        materialize = MaterializeSink()
        run = generic_join(query, db, frontier_block=block, sink=materialize)
        assert run.output is None and run.sink is materialize
        materialized = materialize.relation(name=query.name)
        assert materialized.attributes == reference.output.attributes
        assert list(materialized) == rows, (query.name, block)
        assert run.nodes_visited == reference.nodes_visited

        count = CountSink()
        run = generic_join(query, db, frontier_block=block, sink=count)
        assert count.total == len(rows) == run.count
        assert run.nodes_visited == reference.nodes_visited

        positions = [query.variables.index(v) for v in group_vars]
        grouped = GroupCountSink(group_vars)
        run = generic_join(query, db, frontier_block=block, sink=grouped)
        expected = Counter(tuple(row[p] for p in positions) for row in rows)
        assert grouped.counts() == expected, (query.name, block)
        assert grouped.n_rows == len(rows)
        assert run.nodes_visited == reference.nodes_visited

        with tempfile.TemporaryDirectory() as tmp:
            with SpillSink(Path(tmp) / "spill", chunk_rows=8) as spill:
                run = generic_join(
                    query, db, frontier_block=block, sink=spill
                )
                assert spill.rows() == rows, (query.name, block)
                assert spill.n_rows == len(rows)
                assert run.nodes_visited == reference.nodes_visited
                for chunk in spill.iter_chunks():
                    assert [c.dtype for c in chunk] == dtypes


class TestSinkInvariance:
    @SETTINGS
    @given(databases() | databases(fallback_pairs, fallback_units))
    def test_all_query_shapes(self, db):
        for query in QUERIES:
            assert_sink_invariant(query, db)

    def test_fallback_values_round_trip(self):
        # mixed int/str columns run the columnar engine over object
        # dictionaries; every sink must see the same stream through
        # append(columns), and spilled object columns must round-trip
        # unstringified (1 stays int, "1" stays str)
        db = Database(
            {
                "R": Relation(("a", "b"), [("u", 1), (1, "1"), ("1", "u")]),
                "S": Relation(("a", "b"), [(1, "1"), ("u", 1), ("1", "u")]),
            }
        )
        query = parse_query("q(x,y,z) :- R(x,y), S(y,z)")
        for query_ in (query, parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")):
            assert_sink_invariant(query_, db, blocks=(None, 1, 7))

    def test_generated_graph_triangle(self):
        db = Database({"R": power_law_graph(300, 1200, 0.5, seed=5)})
        query = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        assert_sink_invariant(query, db, blocks=(7, 64, None))

    def test_group_count_sink_full_projection_and_validation(self):
        db = Database({"R": Relation(("a", "b"), [(1, 2), (2, 3), (1, 3)])})
        query = parse_query("q(x,y) :- R(x,y)")
        grouped = GroupCountSink(("y",))
        generic_join(query, db, sink=grouped)
        assert grouped.counts() == Counter({(2,): 1, (3,): 2})
        with pytest.raises(ValueError, match="not in output"):
            generic_join(query, db, sink=GroupCountSink(("z",)))

    def test_sink_reopen_must_match_schema(self):
        sink = CountSink()
        db = Database({"R": Relation(("a", "b"), [(1, 2)])})
        generic_join(parse_query("q(x,y) :- R(x,y)"), db, sink=sink)
        with pytest.raises(ValueError, match="already open"):
            generic_join(parse_query("q(x,z) :- R(x,z)"), db, sink=sink)

    def test_unopened_sink_rejects_appends(self):
        sink = CountSink()
        with pytest.raises(RuntimeError, match="not been opened"):
            sink.append([np.array([1])])
        with pytest.raises(RuntimeError, match="not been opened"):
            sink.append_size(1)

    def test_ragged_batch_is_rejected(self):
        for sink in (MaterializeSink(), GroupCountSink(("y",))):
            sink.open(("x", "y"))
            with pytest.raises(ValueError, match="ragged batch"):
                sink.append([np.arange(5), np.arange(3)])
            assert sink.n_rows == 0

    def test_append_size_only_for_size_sinks(self):
        count = CountSink()
        count.open(("x",))
        count.append_size(7)
        assert count.total == 7
        with pytest.raises(ValueError):
            count.append_size(-1)
        grouped = GroupCountSink(("x",))
        grouped.open(("x",))
        with pytest.raises(TypeError, match="consumes row values"):
            grouped.append_size(3)


class TestRoutedPartitioning:
    """Theorem 2.6: one shared sink absorbs every part combination."""

    @pytest.fixture(scope="class")
    def routed(self):
        db = Database({"R": power_law_graph(200, 700, 0.6, seed=9)})
        query = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        (stats,) = StatisticsCatalog(db).precompute(
            [query], ps=[1.0, 2.0, float("inf")]
        )
        bound = BoundSolver().solve(stats, query=query)
        reference = evaluate_with_partitioning(
            query, db, bound, max_parts=20000
        )
        return query, db, bound, reference

    def test_counts_add_across_parts(self, routed):
        query, db, bound, reference = routed
        assert reference.parts_evaluated > 1  # the union is real
        sink = CountSink()
        run = evaluate_with_partitioning(
            query, db, bound, max_parts=20000, sink=sink
        )
        assert run.output is None
        assert sink.total == reference.count == run.count
        assert run.nodes_visited == reference.nodes_visited
        assert run.parts_evaluated == reference.parts_evaluated

    def test_spill_matches_union_rows_and_order(self, routed):
        query, db, bound, reference = routed
        with tempfile.TemporaryDirectory() as tmp:
            with SpillSink(Path(tmp) / "parts", chunk_rows=256) as sink:
                run = evaluate_with_partitioning(
                    query,
                    db,
                    bound,
                    max_parts=20000,
                    frontier_block=64,
                    sink=sink,
                )
                assert sink.rows() == list(reference.output)
                assert run.nodes_visited == reference.nodes_visited

    def test_group_counts_match_union(self, routed):
        query, db, bound, reference = routed
        sink = GroupCountSink(("x",))
        evaluate_with_partitioning(
            query, db, bound, max_parts=20000, sink=sink
        )
        assert sink.counts() == Counter(
            (row[0],) for row in reference.output
        )


class TestCountSinkExactArithmetic:
    """The big-int promotion regression: totals past 2^63 stay exact."""

    def test_int64_batch_sizes_never_wrap(self):
        sink = CountSink()
        sink.open(("x",))
        for _ in range(4):
            sink.add(np.int64(1) << 62)
        # a naive int64 accumulator would have wrapped negative twice
        assert sink.total == 1 << 64
        assert isinstance(sink.total, int)

    def test_weighted_star_count_beyond_int64(self):
        # an open star with 5 arms over a fan-out-8192 hub: the per-hub
        # output count is 8192^5 = 2^65 — computable exactly by the
        # acyclic counting sweep, far beyond anything materializable.
        # CountSink folds those per-hub counts without losing a bit,
        # mirroring acyclic_count's object-dtype promotion.
        fan_out, arms, hubs = 1 << 13, 5, 3
        query = ConjunctiveQuery(
            [Atom(f"R{i}", ("h", f"x{i}")) for i in range(1, arms + 1)],
            name="open_star",
        )
        leaves = np.arange(fan_out, dtype=np.int64)
        fan = Relation.from_columns(
            ("h", "v"), [np.zeros(fan_out, dtype=np.int64), leaves]
        )
        db = Database({f"R{i}": fan for i in range(1, arms + 1)})
        per_hub = acyclic_count(query, db)
        assert per_hub == fan_out**arms == 1 << 65
        sink = CountSink()
        sink.open(query.variables)
        for _ in range(hubs):
            sink.add(per_hub)
        assert sink.total == hubs * fan_out**arms
        assert isinstance(sink.total, int)

    def test_add_rejects_negative_and_fractional(self):
        sink = CountSink()
        with pytest.raises(ValueError):
            sink.add(-1)
        with pytest.raises(TypeError):
            sink.add(2.5)


class TestSpillRobustness:
    def _spill_rows(self, directory, rows):
        sink = SpillSink(directory, chunk_rows=2)
        sink.open(("x", "y"))
        sink.append([np.array(column) for column in zip(*rows)])
        sink.flush()
        return sink

    def test_corrupt_segment_raises_not_garbage(self, tmp_path):
        sink = self._spill_rows(tmp_path / "s", [(1, 2), (3, 4), (5, 6)])
        victim = sink.store.segments()[0]
        victim.write_bytes(b"this is not an npz archive")
        with pytest.raises(ChunkStoreError, match="corrupt or truncated"):
            sink.rows()

    def test_truncated_segment_raises(self, tmp_path):
        sink = self._spill_rows(tmp_path / "s", [(1, 2), (3, 4), (5, 6)])
        victim = sink.store.segments()[0]
        victim.write_bytes(victim.read_bytes()[:20])
        with pytest.raises(ChunkStoreError, match="corrupt or truncated"):
            sink.rows()

    def test_wrong_shape_segment_raises(self, tmp_path):
        store = SegmentStore(tmp_path / "s", 2)
        path = store.write([np.array([1, 2]), np.array([3, 4])])
        np.savez(path, n_rows=np.int64(2), column_0=np.array([1, 2]),
                 column_1=np.array([3]))
        with pytest.raises(ChunkStoreError, match="shape"):
            list(store.iter_chunks())

    def test_no_tmp_files_survive_a_write(self, tmp_path):
        store = SegmentStore(tmp_path / "s", 1)
        store.write([np.arange(10)])
        store.write([np.arange(3)])
        leftovers = list((tmp_path / "s").glob("*.tmp"))
        assert leftovers == []
        assert [len(c[0]) for c in store.iter_chunks()] == [10, 3]

    def test_directory_cleanup_on_success(self, tmp_path):
        target = tmp_path / "spill"
        with SpillSink(target) as sink:
            sink.open(("x",))
            sink.append([np.array([1, 2, 3], dtype=np.int64)])
            assert sink.rows() == [(1,), (2,), (3,)]
            assert target.exists()
        assert not target.exists()

    def test_directory_cleanup_on_exception(self, tmp_path):
        target = tmp_path / "spill"
        with pytest.raises(RuntimeError, match="boom"):
            with SpillSink(target) as sink:
                sink.open(("x",))
                sink.append([np.array([1, 2], dtype=np.int64)])
                sink.flush()
                assert target.exists()
                raise RuntimeError("boom")
        assert not target.exists()

    def test_close_leaves_foreign_files_alone(self, tmp_path):
        target = tmp_path / "spill"
        target.mkdir()
        foreign = target / "keep.txt"
        foreign.write_text("mine")
        with SpillSink(target) as sink:
            sink.open(("x",))
            sink.append([np.array([1], dtype=np.int64)])
            sink.flush()
        assert foreign.exists()  # only the sink's segments were removed
        assert list(target.glob("segment-*.npz")) == []

    def test_concurrent_runs_in_distinct_dirs_do_not_collide(self, tmp_path):
        db = Database({"R": power_law_graph(80, 300, 0.4, seed=3)})
        query = parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        reference = list(generic_join(query, db).output)
        first = SpillSink(tmp_path / "run-a", chunk_rows=16)
        second = SpillSink(tmp_path / "run-b", chunk_rows=16)
        try:
            # both stores live at once, writing identical segment names
            run_a = generic_join(query, db, frontier_block=32, sink=first)
            run_b = generic_join(query, db, frontier_block=7, sink=second)
            assert first.rows() == reference == second.rows()
            assert run_a.nodes_visited == run_b.nodes_visited
            names_a = {p.name for p in first.store.segments()}
            names_b = {p.name for p in second.store.segments()}
            assert names_a and names_b  # same names, different directories
        finally:
            first.close()
            second.close()
        assert not (tmp_path / "run-a").exists()
        assert not (tmp_path / "run-b").exists()

    def test_zero_variable_output_is_rejected(self, tmp_path):
        sink = SpillSink(tmp_path / "s")
        with pytest.raises(ValueError, match="nothing to spill"):
            sink.open(())

    def test_reading_a_closed_sink_raises(self, tmp_path):
        # after close() the segments are gone; answering [] while
        # n_rows still reports the written total would be a silent
        # wrong answer
        with SpillSink(tmp_path / "s") as sink:
            sink.open(("x",))
            sink.append([np.array([1, 2], dtype=np.int64)])
        assert sink.n_rows == 2
        with pytest.raises(RuntimeError, match="closed"):
            sink.rows()
        with pytest.raises(RuntimeError, match="closed"):
            list(sink.iter_chunks())
