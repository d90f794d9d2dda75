"""The REPRO_LP solve modes and the persistent/one-shot contract.

Both modes run the library's one HiGHS model class; they differ only
in whether a model is kept.  These tests pin down:

* env parsing, ``set_lp_mode`` validation ordering, ``forced_lp_mode``
  save/restore;
* the oracle contract: ``oneshot`` is bit-identical (``log2_bound``,
  ``h_values``, ``dual_weights``) to scipy's ``linprog``
  (``tests/oracles/scipy_lp.py``) on the E-family × {normal,
  polymatroid}, the Appendix D.2 Zhang–Yeung ``extra_inequalities``
  case, and JOB × the six nested E9 norm families;
* the differential contract: the warm-started persistent path agrees
  with the one-shot oracle to 1e-9 on every cone and query shape, and
  on the pruned normal-cone LPs of JOB queries 1, 7, 19 and 33 under
  the six families, re-solved warm on a second database — and its
  certificates verify;
* the warm-model determinism contract: on one kept model, a solve's
  ``log2_bound`` does not depend on the solves before it beyond 1e-12
  and its certificate verifies, whatever the order of the statistics
  sets (``h_values``/``dual_weights`` are *an* optimum, not a
  canonical one, so they are not compared).
"""

import functools
import importlib
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles.scipy_lp import linprog_bound
from repro import Database, collect_statistics, lp_bound, parse_query
from repro.core import (
    LP_MODES,
    BoundSolver,
    StatisticsCatalog,
    active_lp_mode,
    configured_lp_mode,
    forced_lp_mode,
    set_lp_mode,
    verify_certificate,
)
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

# the module, not the identically-named function repro.core re-exports
lp_mod = importlib.import_module("repro.core.lp_bound")

PS = [1.0, 2.0, 3.0, math.inf]
JOB_FAMILIES = DEFAULT_FAMILIES[:6]
JOB_PS = sorted(set().union(*JOB_FAMILIES))

#: One representative query per E-family shape (E1–E12).
E_FAMILY_QUERIES = [
    parse_query("t(x,y,z) :- R(x,y), R(y,z), R(z,x)"),
    parse_query("j(x,y,z) :- R(x,y), R(y,z)"),
    cycle_query(4),
    parse_query("g(x,y,z) :- R(x,y), S(y,z)"),
    parse_query("p(a,b,c,d) :- R(a,b), R(b,c), R(c,d)"),
    parse_query("lw(x,y,z) :- R(x,y), R(y,z), R(x,z)"),
]


@pytest.fixture(scope="module")
def job_dbs():
    return [imdb_database(scale=0.05, seed=seed) for seed in (7, 11)]


@pytest.fixture(scope="module")
def job_statistics(job_dbs):
    """Every JOB query with its statistics over ``JOB_PS``."""
    queries = [job_query(qid) for qid in JOB_QUERY_IDS]
    catalog = StatisticsCatalog(job_dbs[0])
    return list(zip(queries, catalog.precompute(queries, ps=JOB_PS)))


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


@pytest.fixture
def skew_db():
    return Database(
        {
            "R": power_law_graph(80, 400, 0.9, seed=3),
            "S": power_law_graph(80, 300, 0.2, seed=4),
        }
    )


def assert_bits_identical(a, b):
    assert a.status == b.status
    assert a.cone == b.cone
    assert a.log2_bound == b.log2_bound
    assert a.dual_weights.tobytes() == b.dual_weights.tobytes()
    assert a.h_values.tobytes() == b.h_values.tobytes()
    assert a.normal_coefficients == b.normal_coefficients


class TestModeConfiguration:
    def test_default_is_persistent(self, monkeypatch):
        monkeypatch.delenv("REPRO_LP", raising=False)
        assert configured_lp_mode() == "persistent"

    @pytest.mark.parametrize("raw", ["oneshot", "ONESHOT", " persistent ", ""])
    def test_parses_env(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_LP", raw)
        assert configured_lp_mode() in LP_MODES

    def test_rejects_unknown_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LP", "warp")
        with pytest.raises(ValueError, match="REPRO_LP"):
            configured_lp_mode()

    def test_auto_is_no_longer_a_mode(self, monkeypatch):
        monkeypatch.setenv("REPRO_LP", "auto")
        with pytest.raises(ValueError, match="REPRO_LP"):
            configured_lp_mode()
        with pytest.raises(ValueError, match="not one of"):
            set_lp_mode("auto")

    def test_set_mode_rejects_unknown_without_switching(self):
        before = active_lp_mode()
        with pytest.raises(ValueError, match="not one of"):
            set_lp_mode("warp")
        assert active_lp_mode() == before

    def test_active_mode_is_resolved(self, monkeypatch):
        # the active mode is the one the environment names
        assert active_lp_mode() == configured_lp_mode()
        monkeypatch.setenv("REPRO_LP", "oneshot")
        assert set_lp_mode() == "oneshot" == active_lp_mode()
        monkeypatch.setenv("REPRO_LP", "persistent")
        assert set_lp_mode() == "persistent" == active_lp_mode()

    def test_forced_mode_restores(self):
        before = active_lp_mode()
        with forced_lp_mode("oneshot") as mode:
            assert mode == "oneshot"
            assert active_lp_mode() == "oneshot"
        assert active_lp_mode() == before

    def test_solver_follows_the_process_mode(self, skew_db):
        # no per-solver pin: each solve reads the active mode
        query = parse_query("Q(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        stats = collect_statistics(query, skew_db, ps=PS)
        solver = BoundSolver(memoize_results=False)
        with forced_lp_mode("oneshot"):
            solver.solve(stats, query=query)
        assert solver.persistent_resolves == 0
        assert solver.cache_stats()["assemblies"]["models"] == 0
        with forced_lp_mode("persistent"):
            solver.solve(stats, query=query)
        assert solver.persistent_resolves == 1
        assert solver.cache_stats()["assemblies"]["models"] == 1


_WITHOUT_BINDING = """
import importlib.abc, sys
import scipy.optimize._highspy as package

# a scipy below the floor: the binding module does not exist
del sys.modules["scipy.optimize._highspy._core"]
del package._core


class Missing(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path, target=None):
        if name == "scipy.optimize._highspy._core":
            raise ImportError(name)


sys.meta_path.insert(0, Missing())
try:
    import repro.core.lp_bound
except ImportError as exc:
    print(type(exc).__name__, exc)
"""


def test_missing_binding_is_a_typed_import_error():
    src = Path(lp_mod.__file__).resolve().parents[2]
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_BINDING],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("HighsBindingError"), proc.stdout
    assert "scipy>=1.15" in proc.stdout


class TestModeIsolation:
    """A mode cached by one test must not outlive it.

    The first test does what perfbench's smoke run does before ``tests/``
    is collected: it pins ``REPRO_LP`` through ``monkeypatch`` and
    solves, which caches the mode; ``monkeypatch`` restores the variable
    but not the cache.  The second test (pytest runs them in file order)
    must still see the mode its own environment names.
    """

    leaked: list[str] = []

    def test_a_test_pins_and_caches_the_other_mode(self, monkeypatch, skew_db):
        other = "oneshot" if configured_lp_mode() == "persistent" else "persistent"
        monkeypatch.setenv("REPRO_LP", other)
        set_lp_mode()
        query = parse_query("Q(x,y) :- R(x,y)")
        BoundSolver().solve(collect_statistics(query, skew_db, ps=PS), query=query)
        assert active_lp_mode() == other
        self.leaked.append(other)

    def test_the_next_test_resolves_its_own_environment(self):
        assert active_lp_mode() == configured_lp_mode()
        if self.leaked:
            assert active_lp_mode() != self.leaked[-1]


class TestOneshotIsTheOracle:
    def test_bit_identical_to_lp_bound(self, skew_db):
        query = parse_query("Q(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        stats = collect_statistics(query, skew_db, ps=PS)
        direct = lp_bound(stats, query=query)
        with forced_lp_mode("oneshot"):
            served = BoundSolver().solve(stats, query=query)
        assert served.log2_bound == direct.log2_bound
        assert served.cone == direct.cone
        assert served.status == direct.status

    @pytest.mark.parametrize("cone", ["normal", "polymatroid"])
    @pytest.mark.parametrize(
        "query", E_FAMILY_QUERIES, ids=lambda q: q.name
    )
    def test_e_family_matches_linprog(self, e_family_db, query, cone):
        stats = collect_statistics(query, e_family_db, ps=PS)
        oracle = linprog_bound(stats, query=query, cone=cone)
        assert oracle.status == "optimal"
        assert_bits_identical(lp_bound(stats, query=query, cone=cone), oracle)
        with forced_lp_mode("oneshot"):
            served = BoundSolver().solve(stats, query=query, cone=cone)
        assert_bits_identical(served, oracle)

    def test_extra_inequalities_match_linprog(self):
        # Appendix D.2: the Zhang–Yeung row enters the same model
        query = theorem_d3_query()
        stats = theorem_d3_statistics(1.0)
        zy = zhang_yeung_coefficients(query.variables)
        kwargs = dict(query=query, cone="polymatroid", extra_inequalities=[zy])
        oracle = linprog_bound(stats, **kwargs)
        result = lp_bound(stats, **kwargs)
        assert_bits_identical(result, oracle)
        assert result.log2_bound < lp_bound(
            stats, query=query, cone="polymatroid"
        ).log2_bound

    def test_job_families_match_linprog(self, job_statistics):
        for family in JOB_FAMILIES:
            for query, full in job_statistics:
                restricted = full.restrict_ps(family)
                assert_bits_identical(
                    lp_bound(restricted, query=query),
                    linprog_bound(restricted, query=query),
                )


DIFFERENTIAL_QUERIES = [
    "triangle(x,y,z) :- R(x,y), R(y,z), R(z,x)",
    "chain(a,b,c,d) :- R(a,b), S(b,c), R(c,d)",
    "star(a,b,c,d) :- R(a,b), S(a,c), R(a,d)",
    "cycle4(a,b,c,d) :- R(a,b), S(b,c), R(c,d), S(d,a)",
    "selfjoin(x,y) :- R(x,y), S(y,x)",
    "one(x,y) :- R(x,y)",
]


def assert_agrees(warm, oracle):
    assert warm.status == oracle.status
    assert warm.cone == oracle.cone
    if oracle.status == "optimal":
        assert warm.log2_bound == pytest.approx(oracle.log2_bound, abs=1e-9)
        assert verify_certificate(warm)


class TestPersistentDifferential:
    """The warm path must agree with the one-shot oracle to 1e-9."""

    @pytest.mark.parametrize("text", DIFFERENTIAL_QUERIES)
    @pytest.mark.parametrize("cone", ["auto", "polymatroid", "normal"])
    def test_agrees_with_oneshot(self, skew_db, text, cone):
        query = parse_query(text)
        stats = collect_statistics(query, skew_db, ps=PS)
        with forced_lp_mode("oneshot"):
            oracle = BoundSolver().solve(stats, query=query, cone=cone)
        with forced_lp_mode("persistent"):
            warm = BoundSolver().solve(stats, query=query, cone=cone)
        assert_agrees(warm, oracle)

    def test_model_reuse_across_b_swaps(self):
        # same LP structure, different statistics vectors: one model,
        # many warm re-solves
        query = parse_query("triangle(x,y,z) :- R(x,y), R(y,z), R(z,x)")
        solver = BoundSolver(memoize_results=False)
        for seed in (11, 12, 13, 14):
            db = Database({"R": power_law_graph(60, 250, 0.7, seed=seed)})
            stats = collect_statistics(query, db, ps=PS)
            with forced_lp_mode("persistent"):
                warm = solver.solve(stats, query=query)
            assert_agrees(warm, lp_bound(stats, query=query))
        assert solver.cache_stats()["assemblies"]["models"] == 1
        assert solver.persistent_resolves == 4

    @pytest.mark.parametrize("qid", [1, 7, 19, 33])
    def test_job_families_agree_under_warm_resolves(self, job_dbs, qid):
        query = job_query(qid)
        solver = BoundSolver(memoize_results=False)
        structures = set()
        for db in job_dbs:
            stats = collect_statistics(query, db, ps=JOB_PS)
            for family in JOB_FAMILIES:
                structures.add(lp_mod._lp_rows(
                    query.variables, stats.restrict_ps(family)
                ).rows)
                oracle = lp_bound(stats.restrict_ps(family), query=query)
                with forced_lp_mode("persistent"):
                    warm = solver.solve_family(stats, family, query=query)
                assert warm.status == oracle.status == "optimal"
                assert warm.cone == oracle.cone == "normal"
                assert_agrees(warm, oracle)
        # one model per distinct set of rows; every solve goes through one,
        # and a structure seen again (the next database) re-solves warm
        assert solver.cache_stats()["assemblies"]["models"] == len(structures)
        assert solver.persistent_resolves == len(job_dbs) * len(JOB_FAMILIES)
        assert len(structures) < solver.persistent_resolves

    def test_family_solves_use_persistent_path(self, skew_db):
        query = parse_query("Q(x,y,z) :- R(x,y), S(y,z)")
        stats = collect_statistics(query, skew_db, ps=PS)
        solver = BoundSolver()
        with forced_lp_mode("persistent"):
            full = solver.solve(stats, query=query)
            agm = solver.solve_family(stats, (1.0,), query=query)
            polymatroid = solver.solve_family(
                stats, (1.0,), query=query, cone="polymatroid"
            )
        assert agm.log2_bound >= full.log2_bound - 1e-9
        # simple statistics: the normal cone is exact (Theorem 6.1)
        assert abs(polymatroid.log2_bound - agm.log2_bound) <= 1e-9
        assert solver.persistent_resolves == 3


@functools.lru_cache(maxsize=None)
def _triangle_statistics():
    """Same-structure triangle statistics sets of eight power-law graphs
    (the shape on which warm re-solves pick other optimal vertices)."""
    query = parse_query("triangle(x,y,z) :- R(x,y), R(y,z), R(z,x)")
    sets = [
        collect_statistics(
            query, Database({"R": power_law_graph(50, 150, 0.8, seed)}), ps=PS
        )
        for seed in range(11, 19)
    ]
    return query, sets


class TestWarmDeterminismContract:
    @settings(max_examples=15, deadline=None)
    @given(st.permutations(range(8)))
    def test_history_moves_no_bound(self, order):
        query, sets = _triangle_statistics()
        warm_solver = BoundSolver(memoize_results=False)
        fresh_solver = BoundSolver(memoize_results=False)
        for i in order:
            with forced_lp_mode("persistent"):
                warm = warm_solver.solve(sets[i], query=query)
            with forced_lp_mode("oneshot"):
                # a fresh _HighsModel per solve: no history at all
                fresh = fresh_solver.solve(sets[i], query=query)
            assert warm.status == fresh.status == "optimal"
            assert abs(warm.log2_bound - fresh.log2_bound) <= 1e-12
            assert verify_certificate(warm)
        assert warm_solver.cache_stats()["assemblies"]["models"] == 1
        assert warm_solver.persistent_resolves == len(order)
