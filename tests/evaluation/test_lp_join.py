"""Unit tests for the Theorem 2.6 evaluation algorithm."""

import itertools
import math

import pytest

from repro.core import collect_statistics, lp_bound
from repro.datasets import power_law_graph
from repro.evaluation import (
    count_query,
    evaluate_parallel,
    evaluate_with_partitioning,
    generic_join,
    theorem26_log2_budget,
)
from repro.evaluation.lp_join import plan_partitioned_evaluation
from repro.evaluation.panda_algorithm import evaluate_part
from repro.query import parse_query
from repro.relational import CountSink, Database, Relation, SpillSink


@pytest.fixture
def join_setup(graph_db):
    q = parse_query("Q(x,y,z) :- R(x,y), R(y,z)")
    stats = collect_statistics(q, graph_db, ps=[1.0, 2.0, math.inf])
    bound = lp_bound(stats, query=q)
    return q, graph_db, bound


class TestEvaluateWithPartitioning:
    def test_output_matches_direct_join(self, join_setup):
        q, db, bound = join_setup
        run = evaluate_with_partitioning(q, db, bound)
        assert run.output == generic_join(q, db).output

    def test_self_join_cross_parts_counted(self, join_setup):
        # the regression that motivated atom-level rewriting: the count
        # must include tuples whose two atoms fall in different parts
        q, db, bound = join_setup
        run = evaluate_with_partitioning(q, db, bound)
        assert run.count == count_query(q, db)

    def test_triangle(self, graph_db, triangle_query):
        stats = collect_statistics(
            triangle_query, graph_db, ps=[1.0, 2.0, math.inf]
        )
        bound = lp_bound(stats, query=triangle_query)
        run = evaluate_with_partitioning(triangle_query, graph_db, bound)
        assert run.count == count_query(triangle_query, graph_db)

    def test_within_budget(self, join_setup):
        q, db, bound = join_setup
        run = evaluate_with_partitioning(q, db, bound)
        assert run.within_budget()
        assert run.log2_budget >= bound.log2_bound  # budget ≥ bound

    def test_max_parts_guard(self, join_setup):
        q, db, bound = join_setup
        with pytest.raises(ValueError, match="max_parts"):
            evaluate_with_partitioning(q, db, bound, max_parts=1)

    def test_no_partitioning_when_only_l1_linf(self, graph_db):
        q = parse_query("Q(x,y,z) :- R(x,y), R(y,z)")
        stats = collect_statistics(q, graph_db, ps=[1.0, math.inf])
        bound = lp_bound(stats, query=q)
        run = evaluate_with_partitioning(q, db=graph_db, bound=bound)
        assert run.parts_evaluated == 1  # PANDA language already
        assert run.count == count_query(q, graph_db)


class TestBudget:
    def test_budget_adds_part_constant(self, join_setup):
        q, db, bound = join_setup
        budget = theorem26_log2_budget(bound)
        used_finite = [
            stat.p
            for stat, w in bound.used_statistics()
            if stat.p not in (1.0, math.inf)
        ]
        expected_c = sum(
            math.log2(math.ceil(2.0 ** p)) for p in used_finite
        )
        assert budget == pytest.approx(bound.log2_bound + expected_c)

    def test_budget_requires_certificate(self):
        from repro.core.conditionals import StatisticsSet
        from repro.core.lp_bound import lp_bound as lb

        unbounded = lb(StatisticsSet([]), variables=("x",), cone="polymatroid")
        with pytest.raises(ValueError):
            theorem26_log2_budget(unbounded)


class TestMixedTypeColumns:
    """An edge table whose columns mix ints and strings (what the CLI's
    CSV loader produces for mixed cells) partitions and evaluates through
    the same engine as an int table."""

    TRIANGLE = parse_query("Q(x,y,z) :- R(x,y), R(y,z), R(z,x)")

    @pytest.fixture(scope="class")
    def mixed(self):
        graph = power_law_graph(80, 400, 0.6, seed=3)

        def label(v):
            return v if v % 2 else f"v{v}"

        db = Database(
            {"R": Relation(("x", "y"), [(label(a), label(b)) for a, b in graph])}
        )
        stats = collect_statistics(self.TRIANGLE, db, ps=[1.0, 2.0, math.inf])
        return db, lp_bound(stats, query=self.TRIANGLE)

    def test_partitioned_count_equals_direct(self, mixed):
        db, bound = mixed
        run = evaluate_with_partitioning(self.TRIANGLE, db, bound)
        direct = generic_join(self.TRIANGLE, db)
        assert run.parts_evaluated > 1
        assert run.count == direct.count > 0
        assert set(run.output) == set(direct.output)

    def test_parallel_sinks_match_serial(self, mixed, tmp_path):
        db, bound = mixed
        serial = evaluate_with_partitioning(self.TRIANGLE, db, bound)
        count = CountSink()
        run = evaluate_parallel(
            self.TRIANGLE, db, bound, workers=2, sink=count
        )
        assert count.total == serial.count
        assert run.nodes_visited == serial.nodes_visited
        with SpillSink(tmp_path / "serial", chunk_rows=64) as serial_sink:
            evaluate_with_partitioning(
                self.TRIANGLE, db, bound, sink=serial_sink
            )
            with SpillSink(tmp_path / "par", chunk_rows=64) as parallel_sink:
                evaluate_parallel(
                    self.TRIANGLE, db, bound, workers=2, sink=parallel_sink,
                    frontier_block=7, chunk_rows=32,
                )
                assert parallel_sink.rows() == serial_sink.rows()
                assert len(serial_sink.rows()) == serial.count


def _union_of_part_outputs(query, db, bound):
    """The materialized Theorem 2.6 output built the long way: every part
    combination of ``itertools.product`` over the part lists evaluated
    on its own into a relation, the rows concatenated in that order."""
    plan = plan_partitioned_evaluation(query, db, bound)
    names = [atom.relation for atom in plan.rewritten.atoms]
    rows = []
    for combo in itertools.product(*plan.part_lists):
        relations = {**plan.base, **dict(zip(names, combo))}
        rows.extend(evaluate_part(plan.rewritten, Database(relations)).output)
    return rows


class TestMaterializedRowOrder:
    """``sink=None`` runs materialize through one sink in combination
    order: the rows, and their order, are those of the per-combination
    union, for every value encoding and for an empty relation."""

    TRIANGLE = parse_query("Q(x,y,z) :- R(x,y), R(y,z), R(z,x)")
    GRAPH = power_law_graph(120, 600, 0.6, seed=9)

    @pytest.fixture(
        scope="class",
        params=["int", "string", "beyond-int64", "empty"],
    )
    def case(self, request):
        relabel = {
            "int": lambda v: v,
            "string": lambda v: f"v{v}",
            "beyond-int64": lambda v: v + 2**63,
        }
        if request.param == "empty":
            relation = Relation(("x", "y"), [])
        else:
            label = relabel[request.param]
            relation = Relation(
                ("x", "y"), [(label(a), label(b)) for a, b in self.GRAPH]
            )
        db = Database({"R": relation})
        stats = collect_statistics(self.TRIANGLE, db, ps=[1.0, 2.0, math.inf])
        return request.param, db, lp_bound(stats, query=self.TRIANGLE)

    def test_serial_rows_and_order(self, case):
        kind, db, bound = case
        run = evaluate_with_partitioning(self.TRIANGLE, db, bound)
        expected = _union_of_part_outputs(self.TRIANGLE, db, bound)
        assert list(run.output) == expected
        assert run.output.attributes == self.TRIANGLE.variables
        assert run.output.name == self.TRIANGLE.name
        assert set(run.output) == set(generic_join(self.TRIANGLE, db).output)
        if kind != "empty":
            assert run.parts_evaluated > 1
            assert expected

    def test_parallel_rows_and_order(self, case):
        _, db, bound = case
        serial = evaluate_with_partitioning(self.TRIANGLE, db, bound)
        run = evaluate_parallel(
            self.TRIANGLE, db, bound, workers=2
        )
        assert list(run.output) == list(serial.output)
        assert run.parts_evaluated == serial.parts_evaluated
        assert run.nodes_visited == serial.nodes_visited

    def test_relation_without_parts_has_no_combinations(self):
        """A certificate measured on another database can guard a
        relation that is empty here: its atom has no Lemma 2.5 parts, so
        no combination exists, serially or in parallel."""
        full = Database({"R": self.GRAPH})
        stats = collect_statistics(
            self.TRIANGLE, full, ps=[1.0, 2.0, math.inf]
        )
        bound = lp_bound(stats, query=self.TRIANGLE)
        empty = Database({"R": Relation(("x", "y"), [])})
        plan = plan_partitioned_evaluation(self.TRIANGLE, empty, bound)
        assert [] in plan.part_lists
        assert plan.n_combinations == 0 == len(list(plan.combinations()))
        serial = evaluate_with_partitioning(self.TRIANGLE, empty, bound)
        run = evaluate_parallel(
            self.TRIANGLE, empty, bound, workers=2
        )
        assert serial.parts_evaluated == run.parts_evaluated == 0
        assert len(serial.output) == len(run.output) == 0
