"""Level-minimal pruning of the normal-cone LP is exact.

The reference is the unpruned LP in ``tests/oracles/step_cone.py``: one
column per distinct intersection pattern, rows built one loop pass per
statistic.  Over the E-family shapes and JOB queries 1, 7, 19 and 33
under the six nested E9 norm families (and on random simple statistics
sets), the pruned LP must reach the unpruned optimum, its duals must
certify the bound over *all* 2^n − 1 step functions, and its primal
must be feasible for the unpruned LP.  Shapes with nothing to prune
(triangle, Loomis–Whitney) must hand HiGHS the identical matrix.
"""

import importlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles.full_rows import stat_rows
from oracles.step_cone import (
    all_step_functions,
    step_rows,
    unpruned_lp_bound,
    unpruned_step_candidates,
)
from repro.core import BoundSolver, collect_statistics, forced_lp_mode, lp_bound
from repro.core.conditionals import (
    AbstractStatistic,
    ConcreteStatistic,
    Conditional,
    StatisticsSet,
)
from repro.datasets import power_law_graph
from repro.datasets.generators import alpha_beta_relation
from repro.datasets.imdb import imdb_database
from repro.datasets.job_queries import job_query
from repro.experiments.cycle import cycle_query
from repro.experiments.norm_ablation import DEFAULT_FAMILIES
from repro.query import parse_query
from repro.query.query import Atom
from repro.relational import Database

lp_mod = importlib.import_module("repro.core.lp_bound")

FAMILIES = DEFAULT_FAMILIES[:6]
ALL_PS = tuple(sorted(set().union(*FAMILIES)))

TRIANGLE = "t(x,y,z) :- R(x,y), R(y,z), R(z,x)"
LW = "lw(x,y,z) :- R(x,y), R(y,z), R(x,z)"

E_FAMILY = {
    "E1 triangle": TRIANGLE,
    "E2 one-join": "j(x,y,z) :- R(x,y), R(y,z)",
    "E4 cycle": cycle_query(4),
    "E5 gap": "g(x,y,z) :- R(x,y), S(y,z)",
    "E8 path": "p(a,b,c,d) :- R(a,b), R(b,c), R(c,d)",
    "E12 LW": LW,
}
JOB_IDS = (1, 7, 19, 33)


@pytest.fixture(scope="module")
def graph_db():
    edges = power_law_graph(400, 2000, 0.7, seed=5)
    s = alpha_beta_relation(0.0, 2.0 / 3.0, 729).with_name("S")
    cycle = {f"R{i}": edges for i in range(4)}
    return Database({"R": edges, "S": s, **cycle})


@pytest.fixture(scope="module")
def job_db():
    return imdb_database(scale=0.05, seed=7)


@pytest.fixture(scope="module")
def cases(graph_db, job_db):
    """label → (query, full-family statistics)."""
    out = {}
    for label, query in E_FAMILY.items():
        if isinstance(query, str):
            query = parse_query(query)
        stats = collect_statistics(query, graph_db, ps=ALL_PS)
        out[label] = (query, stats)
    for qid in JOB_IDS:
        query = job_query(qid)
        out[f"job{qid}"] = (
            query, collect_statistics(query, job_db, ps=ALL_PS)
        )
    return out


def assert_pruning_exact(statistics, query=None, variables=None, tol=1e-9):
    pruned = lp_bound(
        statistics, query=query, cone="normal", variables=variables
    )
    reference = unpruned_lp_bound(
        statistics, query=query, variables=variables
    )
    assert pruned.status == reference.status
    if reference.status != "optimal":
        return
    assert pruned.log2_bound == pytest.approx(reference.log2_bound, abs=tol)
    order = pruned.variables
    struct, b = lp_mod._stat_structure(order, statistics)
    rows = stat_rows(struct)
    y = pruned.dual_weights
    # the dual certificate covers every step function, pruned or not
    assert (y >= -1e-12).all()
    a_all = step_rows(rows, all_step_functions(len(order)))
    assert (a_all.T @ y >= 1.0 - 1e-7).all()
    assert float(b @ y) == pytest.approx(pruned.log2_bound, abs=tol)
    # the pruned primal is a feasible point of the unpruned LP
    columns = unpruned_step_candidates(len(order), rows)
    position = {int(w): i for i, w in enumerate(columns)}
    x = np.zeros(len(columns))
    for w, alpha in pruned.normal_coefficients.items():
        x[position[w]] = alpha
    assert (step_rows(rows, columns) @ x <= b + tol).all()
    assert x.sum() == pytest.approx(pruned.log2_bound, abs=tol)


def assert_bits_identical(a, b):
    assert a.log2_bound == b.log2_bound
    assert a.status == b.status
    assert a.dual_weights.tobytes() == b.dual_weights.tobytes()
    assert a.h_values.tobytes() == b.h_values.tobytes()
    assert a.normal_coefficients == b.normal_coefficients


@pytest.mark.parametrize(
    "family", FAMILIES, ids=[f"F{i}" for i in range(len(FAMILIES))]
)
@pytest.mark.parametrize(
    "label", list(E_FAMILY) + [f"job{qid}" for qid in JOB_IDS]
)
def test_pruned_lp_matches_unpruned(cases, label, family):
    query, stats = cases[label]
    assert_pruning_exact(stats.restrict_ps(family), query=query)


def test_pruning_shrinks_job_columns(cases):
    query, stats = cases["job33"]
    rows = lp_mod._lp_rows(query.variables, stats).rows
    n = len(query.variables)
    pairs = lp_mod._step_pairs(rows)
    pruned = lp_mod._step_candidates(n, "normal", pairs)
    unpruned = unpruned_step_candidates(n, rows)
    assert np.isin(pruned, unpruned).all()
    assert len(pruned) * 5 < len(unpruned)


@pytest.mark.parametrize("text", [TRIANGLE, LW])
def test_small_shapes_hand_highs_the_same_lp(graph_db, text):
    # nothing to prune once a p > 1 brings the h(U) terms in: same
    # columns, same row bytes, same results bits — so partition plans
    # built on these bounds cannot move
    query = parse_query(text)
    n = len(query.variables)
    for family in FAMILIES[1:4]:
        stats = collect_statistics(query, graph_db, ps=family)
        rows = lp_mod._lp_rows(query.variables, stats).rows
        candidates = lp_mod._step_candidates(
            n, "normal", lp_mod._step_pairs(rows)
        )
        assert np.array_equal(
            candidates, unpruned_step_candidates(n, rows)
        )
        assembly = lp_mod._assemble_step_cone("normal", rows, candidates)
        assert (
            assembly.a_ub.tobytes()
            == step_rows(rows, candidates).tobytes()
        )
        assert_bits_identical(
            lp_bound(stats, query=query),
            unpruned_lp_bound(stats, query=query),
        )
    # the ℓ1-only rows are h(UV) ≤ log2 |R|: levels 0 and 2 alone, so
    # the singletons sit below every other W and are all that is kept
    stats = collect_statistics(query, graph_db, ps=FAMILIES[0])
    rows = lp_mod._lp_rows(query.variables, stats).rows
    assert lp_mod._step_candidates(
        n, "normal", lp_mod._step_pairs(rows)
    ).tolist() == [1, 2, 4]
    assert_pruning_exact(stats, query=query)


def test_candidates_computed_once_per_query(cases, monkeypatch):
    calls = []
    original = lp_mod._step_candidates

    def counting(n, cone, pairs):
        calls.append(pairs)
        return original(n, cone, pairs)

    monkeypatch.setattr(lp_mod, "_step_candidates", counting)
    query, stats = cases["job19"]
    solver = BoundSolver()
    with forced_lp_mode("oneshot"):
        for family in FAMILIES:
            solver.solve_family(stats, family, query=query)
    # every row of the ℓ1-only family is some h(UV) ≤ b, so its pairs
    # carry no U; the five families with p > 1 share one pair set
    assert len(calls) == len(set(calls)) == 2
    assert solver.assembly_misses == len(FAMILIES)


def test_many_masks_use_packed_keys():
    # 13 variables, 78 pair masks plus 13 singletons: patterns span
    # three 32-bit words, so the rank-compacted key path runs
    variables = tuple(f"v{i}" for i in range(13))
    stats = []
    for i, a in enumerate(variables):
        atom = Atom(f"R{i}", (a,))
        stats.append(
            ConcreteStatistic(
                AbstractStatistic(Conditional(frozenset({a})), 1.0),
                3.0,
                atom,
            )
        )
        for b in variables[i + 1:]:
            atom = Atom(f"S{a}{b}", (a, b))
            stats.append(
                ConcreteStatistic(
                    AbstractStatistic(
                        Conditional(frozenset({b}), frozenset({a})), 2.0
                    ),
                    1.5,
                    atom,
                )
            )
    statistics = StatisticsSet(stats)
    rows = lp_mod._lp_rows(variables, statistics).rows
    n = len(variables)
    masks = sorted({m for mu, muv, _ in rows for m in (mu, muv) if m})
    assert len(masks) > 64
    all_w = np.arange(1, 1 << n, dtype=np.int64)
    first = lp_mod._pattern_firsts(all_w, masks)
    assert np.array_equal(all_w[first], unpruned_step_candidates(n, rows))
    assert_pruning_exact(statistics, variables=variables)


def test_job33_candidates_stay_small_in_memory(cases):
    query, stats = cases["job33"]
    rows = lp_mod._lp_rows(query.variables, stats).rows
    pairs = lp_mod._step_pairs(rows)
    tracemalloc.start()
    try:
        lp_mod._step_candidates(len(query.variables), "normal", pairs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_norms_below_one_keep_hit_u_columns():
    # Q(x,y) :- R(x,y) with R one x joined to d y's: a p < 1 weighs a W
    # hitting U by 1/p > 1, above the 1 of a W hitting V only, so {x,y}
    # must not stand in for {x} and {y} — alone it would bound log2 d / 2
    query = parse_query("Q(x,y) :- R(x,y)")
    atom = query.atoms[0]
    log_d = 6.0

    def statistic(v, u, p, b):
        cond = Conditional(frozenset(v), frozenset(u))
        return ConcreteStatistic(AbstractStatistic(cond, p), b, atom)

    stats = StatisticsSet([
        statistic("y", "x", 0.5, log_d),
        statistic("x", "y", 0.5, 2 * log_d),
        statistic("xy", "", 1.0, log_d),
    ])
    rows = lp_mod._lp_rows(query.variables, stats).rows
    candidates = lp_mod._step_candidates(
        2, "normal", lp_mod._step_pairs(rows)
    )
    assert candidates.tolist() == [1, 2, 3]
    result = lp_bound(stats, query=query, cone="normal")
    assert result.log2_bound == pytest.approx(log_d, abs=1e-9)
    assert_pruning_exact(stats, query=query)


_P = st.sampled_from((0.5, 1.0, 2.0, 3.0, math.inf))


@st.composite
def simple_statistics(draw):
    """A random simple statistics set over n ≤ 6 variables, with norms
    below 1 (which the pruning must not treat like p ≥ 1) among them."""
    n = draw(st.integers(1, 6))
    variables = tuple("abcdef"[:n])
    stats = []
    for index in range(draw(st.integers(1, 8))):
        v = draw(st.sets(st.sampled_from(variables), min_size=1))
        rest = [x for x in variables if x not in v]
        u = draw(st.sampled_from([None, *rest])) if rest else None
        cond = Conditional(frozenset(v), frozenset({u} if u else ()))
        atom = Atom(f"R{index}", tuple(sorted(cond.variables)))
        b = draw(st.floats(0.0, 10.0, allow_nan=False))
        statistic = AbstractStatistic(cond, draw(_P))
        stats.append(ConcreteStatistic(statistic, b, atom))
    return variables, StatisticsSet(stats)


@settings(max_examples=60, deadline=None)
@given(simple_statistics())
def test_pruning_exact_on_random_statistics(drawn):
    # random b may sit closer together than HiGHS's feasibility
    # tolerance (1e-7: b = 1e-8 next to b = 0), so compare to that
    variables, statistics = drawn
    assert_pruning_exact(statistics, variables=variables, tol=1e-7)
