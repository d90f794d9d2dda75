"""The service under real concurrency: races, budgets, admission.

Four layers of hardening, each with its own stress:

* **no lost counts / consistent answers** — N threads hammer ``/bound``
  with mixed warm and cold templates; every request is accounted and
  every answer matches the one-shot oracle;
* **bounded caches** — a workload with more distinct query texts than
  the byte budget admits stays within the budget (evictions counted)
  while answers remain correct, warm persistent models included;
* **admission control** — ``/evaluate`` beyond the concurrency cap
  queues, beyond the queue (or past the timeout) yields the typed
  ``overloaded`` 429 with the documented payload, and in-flight work
  always completes;
* **percentile rule** — the nearest-rank boundary cases the old
  ``round()`` rank got wrong.
"""

import gc
import importlib
import json
import math
import sys
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import Database, collect_statistics, lp_bound, parse_query
from repro.core import forced_lp_mode
from repro.datasets import power_law_graph
from repro.service import (
    AdmissionController,
    BoundClient,
    BoundRequest,
    BoundService,
    EvaluateRequest,
    ServiceError,
    start_server,
)
from repro.service.service import _percentile

lp_mod = importlib.import_module("repro.core.lp_bound")

TRIANGLE = "Q(x,y,z) :- R(x,y), R(y,z), R(z,x)"
CHAIN = "Q(a,b,c) :- R(a,b), S(b,c)"
PS = (1.0, 2.0, math.inf)


@pytest.fixture(scope="module")
def db():
    return Database(
        {
            "R": power_law_graph(100, 700, 0.8, seed=11),
            "S": power_law_graph(100, 500, 0.4, seed=12),
        }
    )


def _chain_text(i: int) -> str:
    """Distinct-but-equivalent-shape chain templates (distinct cache keys)."""
    return f"Q(u{i},v{i},w{i}) :- R(u{i},v{i}), S(v{i},w{i})"


class TestPercentileRule:
    """Explicit floor/ceil nearest-rank: index ``ceil(q·n) - 1``."""

    def test_even_window_p50_is_lower_middle(self):
        # round(0.5 * 3) = 2 (banker's) reported 3; nearest-rank p50 is 2
        assert _percentile([1.0, 2.0, 3.0, 4.0], 0.50) == 2.0

    def test_even_window_p99_is_max(self):
        samples = sorted(float(i) for i in range(1, 101))
        assert _percentile(samples, 0.99) == 99.0
        assert _percentile(samples, 1.0) == 100.0

    def test_odd_window_p50_is_middle(self):
        assert _percentile([1.0, 2.0, 3.0], 0.50) == 2.0
        assert _percentile([1.0, 2.0, 3.0, 4.0, 5.0], 0.50) == 3.0

    def test_two_samples(self):
        assert _percentile([1.0, 2.0], 0.50) == 1.0
        assert _percentile([1.0, 2.0], 0.99) == 2.0

    def test_single_sample_and_extremes(self):
        assert _percentile([7.0], 0.50) == 7.0
        assert _percentile([7.0], 0.99) == 7.0
        assert _percentile([1.0, 2.0, 3.0], 0.0) == 1.0


class TestConcurrentBound:
    THREADS = 8
    PER_THREAD = 50

    def test_no_lost_requests_and_consistent_answers(self, db):
        service = BoundService(db, ps=PS)
        texts = [TRIANGLE, CHAIN, _chain_text(1), _chain_text(2)]
        oracle = {}
        for text in texts:
            query = parse_query(text)
            oracle[text] = lp_bound(
                collect_statistics(query, db, ps=PS), query=query
            ).log2_bound

        def hammer(seed: int) -> list[tuple[str, float]]:
            out = []
            for i in range(self.PER_THREAD):
                text = texts[(seed + i) % len(texts)]
                response = service.bound(BoundRequest(query=text, ps=PS))
                out.append((text, response.log2_bound))
            return out

        with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
            results = list(pool.map(hammer, range(self.THREADS)))
        total = self.THREADS * self.PER_THREAD
        for batch in results:
            for text, log2_bound in batch:
                assert log2_bound == pytest.approx(oracle[text])
        metrics = service.metrics()
        assert metrics["requests"]["bound"] == total  # nothing lost
        assert metrics["latency"]["bound"]["count"] == total
        solver = metrics["solver"]
        # every request either hit the memo or solved — none vanished
        assert solver["result_hits"] + solver["solves"] >= total

    def test_precompute_races_with_live_requests(self, db):
        """Warming a live server must not lose or clobber entries."""
        service = BoundService(db, ps=PS)
        texts = [_chain_text(i) for i in range(6)]
        stop = threading.Event()
        seen = []

        def live_traffic():
            while not stop.is_set():
                response = service.bound(
                    BoundRequest(query=texts[0], ps=PS)
                )
                seen.append(response.log2_bound)

        thread = threading.Thread(target=live_traffic)
        thread.start()
        try:
            for _ in range(5):
                assert service.precompute(texts) == len(texts)
        finally:
            stop.set()
            thread.join()
        assert len(set(seen)) == 1  # one consistent answer throughout
        # the warmed statistics survived the races
        metrics = service.metrics()
        assert metrics["caches"]["statistics"]["entries"] >= len(texts)


class TestCacheBudgets:
    def test_diverse_traffic_stays_within_byte_budget(self, db):
        budget = 256 * 1024
        service = BoundService(db, ps=PS, cache_bytes=budget)
        texts = [_chain_text(i) for i in range(48)]
        oracle_query = parse_query(texts[0])
        oracle = lp_bound(
            collect_statistics(oracle_query, db, ps=PS), query=oracle_query
        ).log2_bound
        observed_max = 0

        def hammer(seed: int) -> None:
            nonlocal observed_max
            for i in range(30):
                text = texts[(seed * 7 + i) % len(texts)]
                response = service.bound(BoundRequest(query=text, ps=PS))
                # renamed variables: same shape, same bound
                assert response.log2_bound == pytest.approx(oracle)
                observed_max = max(observed_max, service.cache_bytes_used())

        with ThreadPoolExecutor(max_workers=6) as pool:
            list(pool.map(hammer, range(6)))
        metrics = service.metrics()
        caches = metrics["caches"]
        assert caches["budget_bytes"] == budget
        assert caches["total_bytes"] <= budget
        assert observed_max <= budget
        evictions = (
            caches["statistics"]["evictions"]
            + caches["solver_results"]["evictions"]
            + caches["solver_assemblies"]["evictions"]
            + caches["queries"]["evictions"]
        )
        assert evictions > 0  # the budget actually bit

    def test_byte_budget_bounds_each_layer(self, db):
        # each layer's share holds a few chain entries (a parsed chain
        # is ~1.2 kB, its statistics and its result ~9-11 kB each)
        service = BoundService(db, ps=PS, cache_bytes=80 * 1024)
        for i in range(12):
            service.bound(BoundRequest(query=_chain_text(i), ps=PS))
        caches = service.metrics()["caches"]
        assert caches["queries"]["entries"] <= 4
        assert caches["statistics"]["entries"] <= 4
        assert caches["solver_results"]["entries"] <= 4
        assert caches["queries"]["evictions"] >= 8
        for layer in ("queries", "statistics", "solver_results",
                      "solver_assemblies"):
            assert caches[layer]["bytes"] <= caches[layer]["max_bytes"]

    def test_warm_models_stay_inside_the_byte_budget(self, monkeypatch):
        # a warm persistent model lives in its assembly's cache entry:
        # evicting the assembly drops the model, and the models' bytes
        # are part of the budget
        created = []
        build = lp_mod._HighsModel.__init__

        def tracked(model, *args, **kwargs):
            build(model, *args, **kwargs)
            created.append(weakref.ref(model))

        monkeypatch.setattr(lp_mod._HighsModel, "__init__", tracked)
        graph = Database({"R": power_law_graph(200, 1000, 0.9, seed=3)})
        texts = [
            f"Q(x{i},y{i},z{i}) :- R(x{i},y{i}), R(y{i},z{i}), R(z{i},x{i})"
            for i in range(60)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the model builders
        try:
            with forced_lp_mode("persistent"):
                service = BoundService(graph, ps=PS, cache_bytes=200_000)
                with ThreadPoolExecutor(max_workers=4) as pool:
                    responses = list(pool.map(
                        lambda text: service.bound(BoundRequest(query=text)),
                        texts + texts[::-1],
                    ))
        finally:
            sys.setswitchinterval(interval)
        first = responses[0].log2_bound
        assert all(
            r.log2_bound == pytest.approx(first, abs=1e-9) for r in responses
        )
        gc.collect()
        warm = sum(ref() is not None for ref in created)
        caches = service.metrics()["caches"]
        assemblies = caches["solver_assemblies"]
        assert assemblies["evictions"] > 0
        assert 0 < warm <= assemblies["entries"]
        assert caches["total_bytes"] <= caches["budget_bytes"]
        assert assemblies["models"] == warm

    def test_evicted_entries_recompute_correctly(self, db):
        unbounded = BoundService(db, ps=PS)
        # the statistics and result shares hold two chain entries each
        tight = BoundService(db, ps=PS, cache_bytes=64 * 1024)
        texts = [_chain_text(i) for i in range(8)] + [TRIANGLE]
        for text in texts:  # cold pass
            tight.bound(BoundRequest(query=text, ps=PS))
        for text in texts:  # every entry has been evicted by now
            expected = unbounded.bound(BoundRequest(query=text, ps=PS))
            actual = tight.bound(BoundRequest(query=text, ps=PS))
            assert actual.log2_bound == pytest.approx(expected.log2_bound)


class _FakeRun:
    count = 7
    nodes_visited = 13


class TestAdmissionController:
    def test_admits_up_to_cap_without_queueing(self):
        controller = AdmissionController(2, max_queue=0)
        with controller.admit():
            with controller.admit():
                assert controller.active == 2
        assert controller.active == 0
        assert controller.stats()["admitted"] == 2
        assert controller.stats()["completed"] == 2

    def test_queue_full_raises_typed_429(self):
        controller = AdmissionController(1, max_queue=0, queue_timeout_seconds=0.5)
        controller.acquire()
        with pytest.raises(ServiceError) as err:
            controller.acquire()
        assert err.value.code == "overloaded"
        assert err.value.http_status == 429
        detail = err.value.detail
        assert detail["queue_depth"] == 0
        assert detail["max_queue"] == 0
        assert detail["active"] == 1
        assert detail["max_concurrent"] == 1
        assert detail["retry_after_seconds"] >= 0.5
        assert controller.stats()["rejected_queue_full"] == 1
        controller.release()

    def test_waiter_is_admitted_when_slot_frees(self):
        controller = AdmissionController(1, max_queue=1, queue_timeout_seconds=5.0)
        controller.acquire()
        admitted = threading.Event()

        def waiter():
            controller.acquire()
            admitted.set()
            controller.release()

        thread = threading.Thread(target=waiter)
        thread.start()
        time.sleep(0.05)
        assert controller.queued == 1
        assert not admitted.is_set()
        controller.release()
        thread.join(timeout=5.0)
        assert admitted.is_set()
        assert controller.stats()["peak_queue_depth"] == 1

    def test_waiter_times_out_with_typed_429(self):
        controller = AdmissionController(
            1, max_queue=1, queue_timeout_seconds=0.05
        )
        controller.acquire()
        with pytest.raises(ServiceError) as err:
            controller.acquire()
        assert err.value.code == "overloaded"
        assert "timed out" in err.value.message
        assert controller.stats()["rejected_timeout"] == 1
        controller.release()
        # the gate recovers: next acquire admits immediately
        controller.acquire()
        controller.release()

    def test_validation(self):
        with pytest.raises(ValueError):
            AdmissionController(0)
        with pytest.raises(ValueError):
            AdmissionController(1, max_queue=-1)
        with pytest.raises(ValueError):
            AdmissionController(1, queue_timeout_seconds=-1.0)


class TestEvaluateAdmission:
    """Admission end-to-end through BoundService.evaluate.

    The dispatched join is replaced with an event-blocked stand-in so
    in-flight / queued / refused states are reached deterministically.
    """

    @pytest.fixture
    def gated_service(self, db, monkeypatch):
        service = BoundService(
            db,
            ps=PS,
            max_concurrent_evaluations=1,
            max_evaluate_queue=1,
            evaluate_queue_timeout=0.15,
        )
        entered = threading.Event()
        release = threading.Event()

        def blocked_join(query, database, **kwargs):
            entered.set()
            assert release.wait(timeout=10.0)
            return _FakeRun()

        monkeypatch.setattr(
            "repro.service.service.generic_join", blocked_join
        )
        return service, entered, release

    def test_over_cap_queues_then_refuses_in_flight_completes(
        self, gated_service
    ):
        service, entered, release = gated_service
        request = EvaluateRequest(query=TRIANGLE)
        outcomes = {}

        def first():
            outcomes["first"] = service.evaluate(request)

        t_first = threading.Thread(target=first)
        t_first.start()
        assert entered.wait(timeout=5.0)  # in flight, holding the slot

        def queued():
            try:
                outcomes["queued"] = service.evaluate(request)
            except ServiceError as exc:
                outcomes["queued"] = exc

        t_queued = threading.Thread(target=queued)
        t_queued.start()
        deadline = time.monotonic() + 5.0
        while (
            service.admission.queued < 1 and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        assert service.admission.queued == 1

        # queue is now full: a third request is refused immediately
        with pytest.raises(ServiceError) as err:
            service.evaluate(request)
        assert err.value.code == "overloaded"
        assert err.value.detail["queue_depth"] == 1
        assert err.value.detail["max_queue"] == 1
        assert err.value.detail["active"] == 1
        assert err.value.detail["retry_after_seconds"] > 0

        # the queued waiter times out with the typed refusal too
        t_queued.join(timeout=5.0)
        assert isinstance(outcomes["queued"], ServiceError)
        assert outcomes["queued"].code == "overloaded"

        # in-flight work is never killed: it completes once unblocked
        release.set()
        t_first.join(timeout=5.0)
        assert outcomes["first"].count == _FakeRun.count
        metrics = service.metrics()
        assert metrics["errors"]["overloaded"] == 2
        assert metrics["admission"]["rejected_queue_full"] == 1
        assert metrics["admission"]["rejected_timeout"] == 1
        assert metrics["admission"]["completed"] == 1
        assert metrics["admission"]["active"] == 0

    def test_bound_is_never_queued_behind_evaluations(self, gated_service):
        service, entered, release = gated_service
        thread = threading.Thread(
            target=lambda: service.evaluate(EvaluateRequest(query=TRIANGLE))
        )
        thread.start()
        assert entered.wait(timeout=5.0)
        try:
            # the cheap product answers while the slot is saturated
            response = service.bound(BoundRequest(query=TRIANGLE, ps=PS))
            assert response.status == "optimal"
        finally:
            release.set()
            thread.join(timeout=5.0)

    def test_http_429_carries_retry_after_header(self, db, monkeypatch):
        import http.client

        service = BoundService(
            db,
            ps=PS,
            max_concurrent_evaluations=1,
            max_evaluate_queue=0,
            evaluate_queue_timeout=0.1,
        )
        entered = threading.Event()
        release = threading.Event()

        def blocked_join(query, database, **kwargs):
            entered.set()
            assert release.wait(timeout=10.0)
            return _FakeRun()

        monkeypatch.setattr(
            "repro.service.service.generic_join", blocked_join
        )
        server = start_server(service)
        try:
            holder = BoundClient(server.url)
            thread = threading.Thread(
                target=lambda: holder.evaluate(query=TRIANGLE)
            )
            thread.start()
            assert entered.wait(timeout=5.0)

            host, port = server.server_address[:2]
            connection = http.client.HTTPConnection(host, port, timeout=10)
            body = json.dumps({"query": TRIANGLE})
            connection.request(
                "POST", "/evaluate", body,
                {"Content-Type": "application/json"},
            )
            raw = connection.getresponse()
            payload = json.loads(raw.read())
            assert raw.status == 429
            assert int(raw.headers["Retry-After"]) >= 1
            assert payload["error"]["code"] == "overloaded"
            assert payload["error"]["detail"]["retry_after_seconds"] > 0
            connection.close()

            release.set()
            thread.join(timeout=5.0)
            holder.close()
        finally:
            release.set()
            server.shutdown()
            server.server_close()


class TestSustainedMixedWorkload:
    """The acceptance stress: ≥10k requests, more distinct texts than
    the cache budget admits, correct bounds throughout, budget held."""

    THREADS = 8
    PER_THREAD = 1256  # 8 × 1256 = 10_048 ≥ 10k
    DISTINCT = 48

    def test_ten_thousand_requests_mixed_warm_cold(self, db):
        budget = 192 * 1024
        service = BoundService(db, ps=PS, cache_bytes=budget)
        hot = [TRIANGLE, CHAIN]
        cold = [_chain_text(i) for i in range(self.DISTINCT)]
        oracle = {}
        for text in hot + [cold[0]]:
            query = parse_query(text)
            oracle[text] = lp_bound(
                collect_statistics(query, db, ps=PS), query=query
            ).log2_bound
        chain_oracle = oracle[cold[0]]
        over_budget = []
        failures = []

        def hammer(seed: int) -> int:
            served = 0
            for i in range(self.PER_THREAD):
                if i % 10 == 0:  # 10% cold: distinct texts beyond budget
                    text = cold[(seed * 13 + i) % self.DISTINCT]
                    expected = chain_oracle
                else:
                    text = hot[(seed + i) % 2]
                    expected = oracle[text]
                response = service.bound(BoundRequest(query=text, ps=PS))
                if abs(response.log2_bound - expected) > 1e-9:
                    failures.append((text, response.log2_bound, expected))
                served += 1
                if i % 97 == 0:
                    used = service.cache_bytes_used()
                    if used > budget:
                        over_budget.append(used)
            return served

        with ThreadPoolExecutor(max_workers=self.THREADS) as pool:
            served = sum(pool.map(hammer, range(self.THREADS)))
        total = self.THREADS * self.PER_THREAD
        assert served == total
        assert not failures
        assert not over_budget, f"cache bytes exceeded budget: {over_budget}"
        metrics = service.metrics()
        assert metrics["requests"]["bound"] == total  # no lost requests
        caches = metrics["caches"]
        assert caches["total_bytes"] <= budget
        assert caches["statistics"]["evictions"] > 0
        assert json.dumps(metrics)  # /metrics stays JSON-safe throughout
