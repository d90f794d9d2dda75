"""One LP row per distinct constraint, handed to HiGHS as arrays.

The library merges statistics that name the same linear function
h(UV) + (1/p − 1)·h(U) into one row (``_Rows``).  The reference is the
full-row LP of ``tests/oracles/full_rows.py`` — one row per statistic,
solved by ``linprog``, no merge.  These tests pin down:

* exactness: on the E-family shapes × both sound cones and on JOB × the
  six nested E9 norm families, the merged bound is within 1e-12 of the
  full-row one and its certificate verifies;
* the dual rule: a merged row's weight goes to the first statistic with
  the least ``b``, the duplicates get 0;
* the merge is computed once per (statistics set, variable order);
* the binding: what HiGHS holds after the array ``passModel`` is the
  assembly, for a dense step-cone model and for a polymatroid model
  with extra rows;
* ``lp_bound_many``: tasks that differ only in duplicate rows share one
  LP, and the threaded results equal the serial ones.
"""

import importlib
import math

import numpy as np
import pytest
from scipy import sparse

from oracles.full_rows import full_row_bound
from repro import Database, collect_statistics, lp_bound, parse_query
from repro.core import (
    BoundSolver,
    BoundTask,
    StatisticsCatalog,
    forced_lp_mode,
    lp_bound_many,
    verify_certificate,
)
from repro.core.conditionals import StatisticsSet
from repro.datasets import power_law_graph
from repro.datasets.generators import alpha_beta_relation
from repro.datasets.imdb import imdb_database
from repro.datasets.job_queries import JOB_QUERY_IDS, job_query
from repro.entropy.zhang_yeung import zhang_yeung_coefficients
from repro.experiments.cycle import cycle_query
from repro.experiments.nonshannon import (
    theorem_d3_query,
    theorem_d3_statistics,
)
from repro.experiments.norm_ablation import DEFAULT_FAMILIES
from repro.relational import Relation

lp_mod = importlib.import_module("repro.core.lp_bound")

PS = (1.0, 2.0, 3.0, math.inf)
JOB_FAMILIES = DEFAULT_FAMILIES[:6]
JOB_PS = sorted(set().union(*JOB_FAMILIES))

E_FAMILY_QUERIES = [
    parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)"),
    parse_query("j(x,y,z) :- R(x,y), R(y,z)"),
    cycle_query(4),
    parse_query("g(x,y,z) :- R(x,y), S(y,z)"),
    parse_query("p(a,b,c,d) :- R(a,b), R(b,c), R(c,d)"),
    parse_query("lw(x,y,z) :- R(x,y), R(y,z), R(x,z)"),
]

TWIN = parse_query("Q(x,y) :- R(x,y), S(x,y)")


@pytest.fixture(scope="module")
def e_family_db():
    edges = power_law_graph(400, 2000, 0.7, seed=5)
    return Database(
        {
            "R": edges,
            "S": alpha_beta_relation(0.0, 2.0 / 3.0, 729).with_name("S"),
            **{f"R{i}": edges for i in range(4)},
        }
    )


@pytest.fixture(scope="module")
def job_statistics():
    queries = [job_query(qid) for qid in JOB_QUERY_IDS]
    catalog = StatisticsCatalog(imdb_database(scale=0.05, seed=7))
    return list(zip(queries, catalog.precompute(queries, ps=JOB_PS)))


def twin_db(r_rows, s_rows):
    """``R`` and ``S`` over (x, y) with different sizes, so every ℓ1
    statistic of either atom is one row h(xy) ≤ b with two b's."""
    return Database(
        {
            "R": Relation(("x", "y"), r_rows, name="R"),
            "S": Relation(("x", "y"), s_rows, name="S"),
        }
    )


def assert_merge_exact(statistics, query, cone="auto"):
    merged = lp_bound(statistics, query=query, cone=cone)
    reference = full_row_bound(statistics, query=query, cone=cone)
    assert merged.status == reference.status == "optimal"
    assert merged.cone == reference.cone
    assert abs(merged.log2_bound - reference.log2_bound) <= 1e-12
    assert len(merged.dual_weights) == len(statistics)
    assert verify_certificate(merged)
    return merged


class TestMergeExactness:
    @pytest.mark.parametrize("cone", ["normal", "polymatroid"])
    @pytest.mark.parametrize("query", E_FAMILY_QUERIES, ids=lambda q: q.name)
    def test_e_family_matches_full_rows(self, e_family_db, query, cone):
        stats = collect_statistics(query, e_family_db, ps=PS)
        rows = lp_mod._lp_rows(query.variables, stats)
        assert len(rows.rows) < len(stats)
        assert_merge_exact(stats, query, cone)

    def test_job_families_match_full_rows(self, job_statistics):
        for family in JOB_FAMILIES:
            for query, full in job_statistics:
                assert_merge_exact(full.restrict_ps(family), query)

    def test_l1_rows_are_one_per_variable_set(self, job_statistics):
        # an ℓ1 statistic is h(UV) ≤ b whatever its U: one row per UV
        for query, full in job_statistics:
            l1 = full.restrict_ps((1.0,))
            rows = lp_mod._lp_rows(query.variables, l1).rows
            assert all(mask_u == 0 and coef == 0.0 for mask_u, _, coef in rows)
            uv_sets = {stat.conditional.variables for stat in l1}
            assert len(rows) == len(uv_sets) < len(l1)


def l1_xy_statistics(r_rows, s_rows):
    """The ℓ1 statistics of ``TWIN`` and the indices of those whose row
    is h(xy) ≤ b: |R|, |S| and the ℓ1 norms of deg(y|x), deg(x|y)."""
    stats = collect_statistics(TWIN, twin_db(r_rows, s_rows), ps=(1.0,))
    xy = [
        i for i, stat in enumerate(stats)
        if stat.conditional.variables == frozenset("xy")
    ]
    return stats, xy


#: a diagonal (|R| = 6, both projections 6) and a full 6 × 6 relation:
#: the h(xy) row is the only one that binds, so its dual is 1
DIAGONAL = [(i, i) for i in range(6)]
SQUARE = [(i, j) for i in range(6) for j in range(6)]


class TestDualRule:
    @pytest.mark.parametrize("small", ["R", "S"])
    def test_least_b_statistic_takes_the_row_weight(self, small):
        pair = (DIAGONAL, SQUARE) if small == "R" else (SQUARE, DIAGONAL)
        stats, xy = l1_xy_statistics(*pair)
        assert len(xy) == 6
        rows = lp_mod._lp_rows(TWIN.variables, stats)
        # h(xy), h(x), h(y): one row each, whichever atom
        assert len(rows.rows) == 3
        result = assert_merge_exact(stats, TWIN)
        assert result.log2_bound == pytest.approx(math.log2(6), abs=1e-12)
        least = min(stats[i].log2_bound for i in xy)
        first = next(i for i in xy if stats[i].log2_bound == least)
        assert stats[first].guard.relation == small
        assert [stats[i].guard.relation for i in xy].count(small) == 3
        expected = np.zeros(len(stats))
        expected[first] = 1.0
        np.testing.assert_allclose(result.dual_weights, expected, atol=1e-12)
        assert result.norms_used() == [1.0]

    def test_equal_b_credits_the_first(self):
        stats, xy = l1_xy_statistics(DIAGONAL, DIAGONAL)
        assert len({stats[i].log2_bound for i in xy}) == 1
        result = lp_bound(stats, query=TWIN)
        assert np.flatnonzero(result.dual_weights).tolist() == [xy[0]]


class TestMergeMemo:
    def test_merged_once_per_set_and_order(self, e_family_db, monkeypatch):
        calls = []
        build = lp_mod._build_rows

        def counting(variables, statistics):
            calls.append(variables)
            return build(variables, statistics)

        monkeypatch.setattr(lp_mod, "_build_rows", counting)
        query = E_FAMILY_QUERIES[0]
        stats = collect_statistics(query, e_family_db, ps=PS)
        solver = BoundSolver(memoize_results=False)
        with forced_lp_mode("persistent"):
            first = solver.solve(stats, query=query)
            again = solver.solve(stats, query=query)
        lp_bound(stats, query=query)
        assert calls == [query.variables]
        assert again.log2_bound == pytest.approx(first.log2_bound, abs=1e-12)
        reversed_order = tuple(reversed(query.variables))
        lp_bound(stats, variables=reversed_order)
        assert calls == [query.variables, reversed_order]

    def test_b_is_read_only(self, e_family_db):
        query = E_FAMILY_QUERIES[0]
        stats = collect_statistics(query, e_family_db, ps=PS)
        rows = lp_mod._lp_rows(query.variables, stats)
        with pytest.raises(ValueError):
            rows.b[0] = 0.0


def _lp_arrays(model):
    lp = model._solver.getLp()
    return {
        "cost": np.asarray(lp.col_cost_),
        "col_lower": np.asarray(lp.col_lower_),
        "col_upper": np.asarray(lp.col_upper_),
        "row_lower": np.asarray(lp.row_lower_),
        "row_upper": np.asarray(lp.row_upper_),
        "start": np.asarray(lp.a_matrix_.start_),
        "index": np.asarray(lp.a_matrix_.index_),
        "value": np.asarray(lp.a_matrix_.value_),
    }


def assert_model_is(model, assembly, matrix, b_rows):
    """HiGHS holds ``matrix`` (scipy's CSC of it) with the assembly's
    costs and bounds, ``b_rows`` on the statistic rows, 0 elsewhere."""
    held = _lp_arrays(model)
    csc = sparse.csc_array(matrix)
    num_rows = matrix.shape[0]
    row_upper = np.zeros(num_rows)
    row_upper[: assembly.num_rows] = b_rows
    assert held["cost"].tobytes() == np.asarray(assembly.c, float).tobytes()
    assert held["col_lower"].tobytes() == np.zeros(len(assembly.c)).tobytes()
    assert held["col_upper"].tobytes() == assembly.col_upper.tobytes()
    assert np.all(held["row_lower"] == -np.inf)
    assert held["row_upper"].tobytes() == row_upper.tobytes()
    assert held["start"].tolist() == csc.indptr.tolist()
    assert held["index"].tolist() == csc.indices.tolist()
    assert held["value"].tobytes() == csc.data.tobytes()


class TestArrayEntryPoint:
    def test_dense_step_cone_model(self, job_statistics):
        query, full = job_statistics[-1]
        rows = lp_mod._lp_rows(query.variables, full)
        n = len(query.variables)
        candidates = lp_mod._step_candidates(
            n, "normal", lp_mod._step_pairs(rows.rows)
        )
        assembly = lp_mod._assemble_step_cone("normal", rows.rows, candidates)
        assert isinstance(assembly.a_ub, np.ndarray)
        model = lp_mod._HighsModel(assembly, rows.b)
        assert_model_is(model, assembly, assembly.a_ub, rows.b)

    def test_polymatroid_model_with_extra_rows(self):
        query = theorem_d3_query()
        stats = theorem_d3_statistics(1.0)
        zy = zhang_yeung_coefficients(query.variables)
        rows = lp_mod._lp_rows(query.variables, stats)
        assembly = lp_mod._assemble_polymatroid(
            len(query.variables), rows.rows
        )
        model = lp_mod._HighsModel(assembly, rows.b, [zy])
        matrix = sparse.vstack(
            [assembly.a_ub, sparse.csr_matrix(-np.asarray(zy, float))]
        )
        assert matrix.shape[0] == assembly.a_ub.shape[0] + 1
        assert_model_is(model, assembly, matrix, rows.b)

    def test_model_without_rows(self):
        # no statistics: HiGHS gets zero rows and an all-zero start
        query = parse_query("Q(x) :- R(x)")
        rows = lp_mod._lp_rows(query.variables, StatisticsSet([]))
        candidates = lp_mod._step_candidates(1, "normal", ())
        assembly = lp_mod._assemble_step_cone("normal", rows.rows, candidates)
        model = lp_mod._HighsModel(assembly, rows.b)
        held = _lp_arrays(model)
        assert held["start"].tolist() == [0] * (len(candidates) + 1)
        assert len(held["row_upper"]) == 0


class TestLpBoundManyDuplicates:
    def test_threads_match_serial_on_duplicate_rows(self):
        # R ≠ S in size: each set's ℓ1 row keeps the smaller b; sets that
        # differ only in a duplicated statistic share one LP structure
        many = [(i, j) for i in range(7) for j in range(5)]
        sets = []
        for seed in range(4):
            few = [(i, (i * seed) % 5) for i in range(3 + seed)]
            db = twin_db(few, many) if seed % 2 else twin_db(many, few)
            full = collect_statistics(TWIN, db, ps=PS)
            sets.append(full)
            # the same statistics without S's ℓ1 duplicates
            sets.append(
                StatisticsSet(
                    s for s in full
                    if not (s.p == 1.0 and s.guard.relation == "S")
                )
            )
        tasks = [BoundTask(stats, query=TWIN) for stats in sets]
        keys = [lp_mod._structure_key(task, i) for i, task in enumerate(tasks)]
        for full, reduced in zip(sets[::2], sets[1::2]):
            assert (
                lp_mod._stat_structure(TWIN.variables, full)[0]
                != lp_mod._stat_structure(TWIN.variables, reduced)[0]
            )
        # one LP, so one warm model whose tasks run in task order
        assert len(set(keys)) == 1
        for mode in ("persistent", "oneshot"):
            with forced_lp_mode(mode):
                serial = lp_bound_many(tasks, BoundSolver(), executor="serial")
                threaded = lp_bound_many(
                    tasks, BoundSolver(), max_workers=4, executor="thread"
                )
            for a, b in zip(serial, threaded):
                assert a.log2_bound == b.log2_bound
                assert a.dual_weights.tobytes() == b.dual_weights.tobytes()
                assert a.h_values.tobytes() == b.h_values.tobytes()
                assert verify_certificate(a)
