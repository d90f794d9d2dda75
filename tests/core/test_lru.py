"""The budgeted LRU cache and the solver's bounded memo layers.

The cache is the shared growth bound for every serving-stack memo
(`core/lru.py`): these tests pin its eviction order, budget
enforcement, byte accounting, and the solver-level behaviours built on
it — bounded assembly/result memos that recompute evicted entries
bit-identically, a warm persistent model that leaves with its assembly,
and the thread-local ``last_solve_cached`` flag that replaced the racy
shared-counter comparison.
"""

import math
import threading

import numpy as np
import pytest

from repro import Database, collect_statistics, lp_bound, parse_query
from repro.core import BoundSolver, LruCache, approx_bytes, forced_lp_mode
from repro.datasets import power_law_graph

TRIANGLE = "Q(x,y,z) :- R(x,y), R(y,z), R(z,x)"
PS = (1.0, 2.0, math.inf)


class TestLruCache:
    def test_entry_budget_evicts_least_recent(self):
        cache = LruCache(max_bytes=2, sizer=lambda v: 1)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh a: b is now least recent
        cache.put("c", 3)
        assert "a" in cache and "c" in cache
        assert "b" not in cache
        assert cache.evictions == 1

    def test_peek_does_not_refresh(self):
        cache = LruCache(max_bytes=2, sizer=lambda v: 1)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.peek("a")  # recency-neutral: a stays least recent
        cache.put("c", 3)
        assert "a" not in cache
        assert cache.peek("a") is None
        assert cache.peek("b") == 2

    def test_touch_refreshes_after_peek(self):
        cache = LruCache(max_bytes=2, sizer=lambda v: 1)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.touch("a")
        cache.put("c", 3)
        assert "a" in cache and "b" not in cache

    def test_byte_budget_is_enforced(self):
        cache = LruCache(max_bytes=10_000, sizer=lambda v: 3_000)
        for key in range(5):
            cache.put(key, object())
        assert len(cache) == 3  # 3 × 3000 ≤ 10000 < 4 × 3000
        assert cache.current_bytes == 9_000
        assert cache.evictions == 2
        assert set(cache) == {2, 3, 4}

    def test_oversized_single_entry_is_still_admitted(self):
        cache = LruCache(max_bytes=100, sizer=lambda v: 1_000)
        cache.put("big", "value")
        assert cache.peek("big") == "value"
        assert len(cache) == 1
        cache.put("bigger", "value2")
        assert len(cache) == 1
        assert cache.peek("bigger") == "value2"

    def test_replacement_reprices(self):
        sizes = {"small": 10, "large": 500}
        cache = LruCache(max_bytes=1_000, sizer=lambda v: sizes[v])
        cache.put("k", "small")
        assert cache.current_bytes == 10
        cache.put("k", "large")
        assert cache.current_bytes == 500
        assert len(cache) == 1

    def test_add_keeps_incumbent(self):
        cache = LruCache()
        first = object()
        second = object()
        assert cache.add("k", first) is first
        assert cache.add("k", second) is first

    def test_pop_and_clear_release_bytes(self):
        cache = LruCache(max_bytes=1_000, sizer=lambda v: 100)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.pop("a") == 1
        assert cache.current_bytes == 100
        cache.clear()
        assert cache.current_bytes == 0
        assert len(cache) == 0

    def test_stats_shape(self):
        cache = LruCache(max_bytes=1 << 20)
        cache.put("a", np.zeros(16))
        stats = cache.stats()
        assert set(stats) == {"entries", "bytes", "max_bytes", "evictions"}
        assert stats["entries"] == 1
        assert stats["bytes"] > 0
        assert stats["max_bytes"] == 1 << 20
        assert stats["evictions"] == 0

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            LruCache(max_bytes=0)


class TestApproxBytes:
    def test_numpy_counts_buffer(self):
        arr = np.zeros(1024, dtype=np.int64)
        assert approx_bytes(arr) >= arr.nbytes

    def test_containers_recurse(self):
        small = approx_bytes({"k": [1, 2]})
        big = approx_bytes({"k": [np.zeros(4096)]})
        assert big > small + 4096 * 8 - 1

    def test_cycles_terminate(self):
        a = {}
        a["self"] = a
        assert approx_bytes(a) > 0

    def test_objects_descend_into_dict(self):
        class Holder:
            def __init__(self):
                self.payload = np.zeros(2048)

        assert approx_bytes(Holder()) >= 2048 * 8


@pytest.fixture(scope="module")
def db():
    return Database({"R": power_law_graph(100, 600, 0.7, seed=3)})


@pytest.fixture(scope="module")
def stats(db):
    query = parse_query(TRIANGLE)
    return query, collect_statistics(query, db, ps=PS)


class TestBoundedSolverCaches:
    def test_result_memo_evicts_and_recomputes_identically(self, stats):
        query, statistics = stats
        solver = BoundSolver(result_cache_bytes=1)
        first = solver.solve(statistics, query=query)
        # a different variable order is a different memo entry
        other = solver.solve(
            statistics, query=query, variables=("z", "y", "x")
        )
        assert solver.cached_results() == 1  # the first was evicted
        again = solver.solve(statistics, query=query)
        assert not solver.last_solve_cached  # recomputed, not memo-served
        assert again.log2_bound == first.log2_bound
        assert other.status == "optimal"
        assert solver.cache_stats()["results"]["evictions"] >= 2

    def test_assembly_byte_budget_rebuilds_evicted(self, stats):
        query, statistics = stats
        solver = BoundSolver(assembly_cache_bytes=1)
        solver.solve(statistics, query=query)
        solver.solve(statistics, query=query, variables=("z", "y", "x"))
        # a single (oversized) entry may remain; growth is bounded
        assert solver.cached_assemblies() == 1
        # evicted assemblies are rebuilt: same bound, bit-identical path
        result = solver.solve(statistics, query=query)
        oracle = lp_bound(statistics, query=query)
        assert result.log2_bound == oracle.log2_bound

    def test_warm_model_leaves_with_its_assembly(self, stats):
        # persistent models live in their assembly's entry: the byte
        # budget that evicts an assembly drops its model too, and the
        # entry's price includes the model
        query, statistics = stats
        orders = [("x", "y", "z"), ("z", "y", "x"), ("y", "z", "x")]
        with forced_lp_mode("persistent"):
            roomy = BoundSolver(
                memoize_results=False, assembly_cache_bytes=1 << 30
            )
            roomy.solve(statistics, query=query)
            (entry,) = [
                e for e in roomy._assemblies.values() if hasattr(e, "model")
            ]
            assert entry.model is not None
            entry_bytes = (
                approx_bytes(entry.assembly) + approx_bytes(entry.model)
            )
            assert entry.model.nbytes > 0
            others = sum(
                approx_bytes(e) for e in roomy._assemblies.values()
                if e is not entry
            )
            priced = roomy.cache_stats()["assemblies"]["bytes"]
            assert priced == others + entry_bytes
            budget = 2 * entry_bytes
            solver = BoundSolver(
                memoize_results=False, assembly_cache_bytes=budget
            )
            for order in orders * 2:
                result = solver.solve(statistics, query=query, variables=order)
                assert result.log2_bound == pytest.approx(
                    lp_bound(statistics, query=query).log2_bound, abs=1e-9
                )
            assemblies = solver.cache_stats()["assemblies"]
        assert assemblies["evictions"] > 0
        assert assemblies["models"] <= assemblies["entries"]
        assert assemblies["bytes"] <= budget

    def test_byte_budget_bounds_result_memo(self, stats):
        query, statistics = stats
        solver = BoundSolver(result_cache_bytes=1)
        solver.solve(statistics, query=query)
        solver.solve(statistics, query=query, variables=("z", "y", "x"))
        # a single (oversized) entry may remain; growth is bounded
        assert solver.cached_results() == 1

    def test_last_solve_cached_is_per_thread(self, stats):
        query, statistics = stats
        solver = BoundSolver()
        solver.solve(statistics, query=query)  # prime the memo
        flags = {}
        barrier = threading.Barrier(2)

        def warm():
            barrier.wait()
            solver.solve(statistics, query=query)
            flags["warm"] = solver.last_solve_cached

        def cold():
            barrier.wait()
            solver.solve(
                statistics, query=query, variables=("z", "y", "x")
            )
            flags["cold"] = solver.last_solve_cached

        threads = [threading.Thread(target=warm), threading.Thread(target=cold)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert flags == {"warm": True, "cold": False}

    def test_last_solve_cached_false_without_memo(self, stats):
        query, statistics = stats
        solver = BoundSolver(memoize_results=False)
        solver.solve(statistics, query=query)
        solver.solve(statistics, query=query)
        assert not solver.last_solve_cached
