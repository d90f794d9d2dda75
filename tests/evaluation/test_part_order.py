"""The per-part variable order of the PANDA stand-in.

:func:`repro.evaluation.evaluate_part` roots each part's Generic Join at
the variable with the fewest distinct values in the part — the Lemma 2.5
partition key of a slice — and continues along connected prefixes of
the default order.  This suite pins the rule (smallest-fan-out root,
connected prefixes, a leaf root on a path), the work it saves on a
SNAP stand-in, and the invariants it must not disturb: partitioned
output equals the direct join, and rows, row order and the meter are
identical across sinks, frontier blocks, and serial/parallel runs.
"""

import math
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import collect_statistics, lp_bound
from repro.datasets import power_law_graph
from repro.datasets.snap import SNAP_SPECS
from repro.evaluation import (
    evaluate_parallel,
    evaluate_part,
    evaluate_with_partitioning,
    generic_join,
    plan_partitioned_evaluation,
)
from repro.evaluation.panda_algorithm import _part_order
from repro.evaluation.wcoj import _default_order
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

TRIANGLE = parse_query("Q(x,y,z) :- R(x,y), R(y,z), R(z,x)")
PATH = parse_query("path(a,b,c,d) :- R(a,b), S(b,c), T(c,d)")
PS = [1.0, 2.0, math.inf]


def _bound(query, db):
    return lp_bound(collect_statistics(query, db, ps=PS), query=query)


def _connected_prefixes(query, order) -> bool:
    """Every variable after the first shares an atom with an earlier one."""
    return all(
        any(
            v in atom.variable_set and atom.variable_set & set(order[:k])
            for atom in query.atoms
        )
        for k, v in enumerate(order)
        if k
    )


@pytest.fixture(scope="module")
def path_setup():
    """A path whose smallest-fan-out variable is the leaf ``d``: every
    ``c`` maps to the single value 0.  The ℓ2 statistics on R and S
    force Lemma 2.5 partitioning."""
    db = Database(
        {
            "R": power_law_graph(60, 200, 0.6, seed=0),
            "S": power_law_graph(60, 200, 0.6, seed=10),
            "T": Relation(("x", "y"), [(c, 0) for c in range(60)]),
        }
    )
    bound = _bound(PATH, db)
    assert plan_partitioned_evaluation(PATH, db, bound).n_combinations > 1
    return db, bound


class TestOrderRule:
    def test_leaf_root_keeps_prefixes_connected(self, path_setup):
        db, _ = path_setup
        # the default order starts at the shared b; the leaf d has one value
        assert _default_order(PATH) == ("b", "c", "a", "d")
        order = _part_order(PATH, db)
        # b is next in the default order but shares no atom with d
        assert order == ("d", "c", "b", "a")
        assert _connected_prefixes(PATH, order)

    def test_every_part_order_is_connected(self, path_setup):
        db, bound = path_setup
        plan = plan_partitioned_evaluation(PATH, db, bound)
        roots = Counter()
        for _, relations in plan.combinations():
            part_db = Database(relations)
            order = _part_order(plan.rewritten, part_db)
            assert sorted(order) == sorted(PATH.variables)
            assert _connected_prefixes(plan.rewritten, order)
            fan_out = {
                v: min(
                    part_db[atom.relation].distinct_count(
                        (part_db[atom.relation].attributes[pos],)
                    )
                    for atom in plan.rewritten.atoms
                    for pos, var in enumerate(atom.variables)
                    if var == v
                )
                for v in order
            }
            assert fan_out[order[0]] == min(fan_out.values())
            roots[order[0]] += 1
        assert roots["d"] > 0

    def test_ties_go_to_the_default_order(self):
        db = Database({"R": Relation(("a", "b"), [(0, 0), (1, 1)])})
        assert _part_order(TRIANGLE, db) == _default_order(TRIANGLE)

    def test_zero_variable_query(self):
        query = ConjunctiveQuery([Atom("U", ())], name="empty")
        db = Database({"U": Relation((), [()])})
        assert _part_order(query, db) == ()
        assert evaluate_part(query, db).count == 1

    def test_partitioned_path_equals_direct(self, path_setup):
        db, bound = path_setup
        run = evaluate_with_partitioning(PATH, db, bound)
        assert set(run.output) == set(generic_join(PATH, db).output)
        assert run.within_budget()

    def test_serial_and_parallel_identical(self, path_setup, tmp_path):
        db, bound = path_setup
        serial = evaluate_with_partitioning(PATH, db, bound)
        parallel = evaluate_parallel(PATH, db, bound, workers=2)
        assert list(parallel.output) == list(serial.output)
        assert parallel.nodes_visited == serial.nodes_visited
        with SpillSink(tmp_path / "serial", chunk_rows=64) as serial_sink:
            evaluate_with_partitioning(PATH, db, bound, sink=serial_sink)
            with SpillSink(tmp_path / "par", chunk_rows=64) as parallel_sink:
                run = evaluate_parallel(
                    PATH, db, bound, workers=2, sink=parallel_sink,
                    frontier_block=7, chunk_rows=32,
                )
                assert parallel_sink.rows() == serial_sink.rows()
        assert run.nodes_visited == serial.nodes_visited


class TestSnapTriangle:
    """The partitioned triangle on a shrunk soc-Epinions stand-in.

    Its certificate is the (y|z), (x|z) ℓ2 witness, so the guarded atoms
    R(y,z) and R(z,x) are sliced on z.  Rooted at x (the query-only
    default) every combination re-intersected all of R(x,·) and the run
    visited over 8× the direct join's nodes."""

    @pytest.fixture(scope="class")
    def snap(self):
        spec = next(s for s in SNAP_SPECS if s.name == "soc-Epinions")
        relation = power_law_graph(
            spec.num_nodes // 20, spec.num_edges // 20, spec.exponent,
            spec.seed,
        )
        db = Database({"R": relation})
        bound = _bound(TRIANGLE, db)
        keys = {
            (str(stat.conditional), stat.p)
            for stat, _ in bound.used_statistics(1e-7)
        }
        assert keys == {("(y|z)", 2.0), ("(x|z)", 2.0)}
        return db, bound

    def test_nodes_within_1_5x_direct(self, snap):
        db, bound = snap
        run = evaluate_with_partitioning(TRIANGLE, db, bound, sink=CountSink())
        direct = generic_join(TRIANGLE, db, sink=CountSink())
        assert run.count == direct.count
        assert run.nodes_visited <= 1.5 * direct.nodes_visited
        assert run.within_budget()

    def test_root_is_the_partition_key(self, snap):
        db, bound = snap
        plan = plan_partitioned_evaluation(TRIANGLE, db, bound)
        roots = Counter(
            _part_order(plan.rewritten, Database(relations))[0]
            for _, relations in plan.combinations()
        )
        # a slice whose other column happens to be narrower roots there
        # instead; the partition key roots the bulk of the combinations
        assert roots.most_common(1)[0][0] == "z"
        assert roots["z"] >= 0.75 * plan.n_combinations


values = st.integers(0, 7)
graphs = st.lists(st.tuples(values, values), min_size=1, max_size=40)
#: sink kind -> (factory, what to compare); "default" materializes
SINKS = {
    "default": (None, None),
    "materialize": (MaterializeSink, lambda sink: list(sink.relation())),
    "count": (CountSink, lambda sink: sink.total),
    "group": (lambda: GroupCountSink(("x",)), lambda sink: sink.counts()),
    "spill": (None, lambda sink: sink.rows()),
}


def _run(query, db, bound, sink_kind, block, tmp_path):
    """(rows in emitted order or a sink summary, nodes, within budget)."""
    factory, read = SINKS[sink_kind]
    if sink_kind == "default":
        run = evaluate_with_partitioning(query, db, bound, frontier_block=block)
        return list(run.output), run.nodes_visited, run.within_budget()
    if sink_kind == "spill":
        with SpillSink(tmp_path / f"spill-{block}", chunk_rows=16) as sink:
            run = evaluate_with_partitioning(
                query, db, bound, frontier_block=block, sink=sink
            )
            return read(sink), run.nodes_visited, run.within_budget()
    sink = factory()
    run = evaluate_with_partitioning(
        query, db, bound, frontier_block=block, sink=sink
    )
    return read(sink), run.nodes_visited, run.within_budget()


@settings(max_examples=15, deadline=None)
@given(graphs)
def test_random_graphs_every_sink_and_block(tmp_path_factory, edges):
    db = Database({"R": Relation(("a", "b"), edges)})
    bound = _bound(TRIANGLE, db)
    expected = set(generic_join(TRIANGLE, db).output)
    tmp_path = tmp_path_factory.mktemp("sinks")
    results, node_counts = {}, set()
    for sink_kind in SINKS:
        outcomes = [
            _run(TRIANGLE, db, bound, sink_kind, block, tmp_path)
            for block in (None, 1, 7)
        ]
        # same rows, row order, meter and budget verdict for every block
        assert all(o == outcomes[0] for o in outcomes[1:])
        results[sink_kind], nodes, within = outcomes[0]
        assert within
        node_counts.add(nodes)
    assert len(node_counts) == 1
    assert set(results["default"]) == expected
    assert results["materialize"] == results["spill"] == results["default"]
    assert results["count"] == len(expected)
    assert sum(results["group"].values()) == len(expected)
