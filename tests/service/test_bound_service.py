"""The bound-serving service: protocol, caches, budgets, and HTTP.

Three layers, mirroring the package:

* the JSON codec round-trips every message type (∞ included) and
  rejects malformed payloads with typed errors;
* :class:`BoundService` answers exactly what the library answers,
  accounts its caches, and turns budget verdicts into typed 422s
  while staying alive;
* the HTTP front-end serves concurrent keep-alive clients at warm
  sub-5ms p99 latency.
"""

import json
import math
import urllib.request
from concurrent.futures import ThreadPoolExecutor

import pytest

from oracles.tuple_engine import generic_join_tuples
from repro import Database, collect_statistics, lp_bound, parse_query
from repro.core import certificates
from repro.datasets import power_law_graph
from repro.relational import Relation
from repro.service import (
    ERROR_CODES,
    BoundClient,
    BoundRequest,
    BoundResponse,
    BoundService,
    EvaluateRequest,
    EvaluateResponse,
    ServiceError,
    start_server,
)
from repro.service.protocol import decode_float, encode_float

TRIANGLE = "Q(x,y,z) :- R(x,y), R(y,z), R(z,x)"
CHAIN = "Q(a,b,c) :- R(a,b), S(b,c)"
PS = (1.0, 2.0, math.inf)


@pytest.fixture(scope="module")
def db():
    return Database(
        {
            "R": power_law_graph(120, 900, 0.8, seed=5),
            "S": power_law_graph(120, 700, 0.3, seed=6),
        }
    )


@pytest.fixture
def service(db):
    return BoundService(db, ps=PS)


@pytest.fixture(scope="module")
def served(db):
    service = BoundService(db, ps=PS)
    server = start_server(service)
    yield server, service
    server.shutdown()
    server.server_close()


class TestProtocol:
    def test_float_codec_round_trips(self):
        for value in (1.0, -2.5, math.inf, -math.inf, 0.0):
            encoded = encode_float(value)
            assert json.dumps(encoded)  # JSON-safe
            assert decode_float(encoded) == value
        assert math.isnan(decode_float(encode_float(math.nan)))

    def test_decode_float_rejects_junk(self):
        with pytest.raises(ServiceError) as err:
            decode_float("three", context="ps")
        assert err.value.code == "bad-request"
        with pytest.raises(ServiceError):
            decode_float(None)
        with pytest.raises(ServiceError):
            decode_float(True)

    def test_bound_request_round_trip(self):
        request = BoundRequest(
            query=TRIANGLE, ps=(1.0, math.inf), family=(1.0,)
        )
        wire = json.loads(json.dumps(request.to_payload()))
        assert BoundRequest.from_payload(wire) == request

    def test_evaluate_request_round_trip(self):
        request = EvaluateRequest(
            query=TRIANGLE,
            memory_budget="64M:256M",
            deadline_seconds=1.5,
            frontier_block=512,
        )
        wire = json.loads(json.dumps(request.to_payload()))
        assert EvaluateRequest.from_payload(wire) == request

    def test_response_round_trips(self):
        response = BoundResponse(
            log2_bound=12.5,
            bound=2**12.5,
            cone="polymatroid",
            status="optimal",
            norms_used=(2.0, math.inf),
            certificate="||deg||",
            cached=True,
            elapsed_ms=0.2,
        )
        wire = json.loads(json.dumps(response.to_payload()))
        assert BoundResponse.from_payload(wire) == response
        ev = EvaluateResponse(
            count=42, nodes_visited=99, elapsed_ms=1.0,
            degradations=("frontier_block=512",),
        )
        wire = json.loads(json.dumps(ev.to_payload()))
        assert EvaluateResponse.from_payload(wire) == ev

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            {"query": ""},
            {"query": 7},
            {"query": TRIANGLE, "ps": []},
            {"query": TRIANGLE, "ps": [1, "three"]},
            {"query": TRIANGLE, "cone": 3},
            {"query": TRIANGLE, "turbo": True},
        ],
    )
    def test_bound_request_rejects_malformed(self, payload):
        with pytest.raises(ServiceError) as err:
            BoundRequest.from_payload(payload)
        assert err.value.code == "bad-request"

    @pytest.mark.parametrize(
        "payload",
        [
            {"query": TRIANGLE, "memory_budget": 64},
            {"query": TRIANGLE, "frontier_block": 0},
            {"query": TRIANGLE, "frontier_block": True},
            {"query": TRIANGLE, "limit": 5},
        ],
    )
    def test_evaluate_request_rejects_malformed(self, payload):
        with pytest.raises(ServiceError) as err:
            EvaluateRequest.from_payload(payload)
        assert err.value.code == "bad-request"

    def test_error_codes_all_mapped(self):
        for code, status in ERROR_CODES.items():
            error = ServiceError(code, "x")
            assert error.http_status == status
            assert error.to_payload()["error"]["code"] == code
        with pytest.raises(ValueError):
            ServiceError("made-up", "x")


class TestBoundService:
    def test_matches_library_bound(self, service, db):
        query = parse_query(TRIANGLE)
        expected = lp_bound(
            collect_statistics(query, db, ps=PS), query=query
        )
        response = service.bound(BoundRequest(query=TRIANGLE, ps=PS))
        assert response.log2_bound == pytest.approx(expected.log2_bound)
        assert response.cone == expected.cone
        assert response.status == "optimal"
        assert response.certificate.startswith("||")

    def test_family_matches_restrict_ps(self, service, db):
        query = parse_query(CHAIN)
        stats = collect_statistics(query, db, ps=PS)
        expected = lp_bound(stats.restrict_ps([1.0]), query=query)
        response = service.bound(
            BoundRequest(query=CHAIN, family=(1.0,))
        )
        assert response.log2_bound == pytest.approx(expected.log2_bound)

    def test_narrower_ps_is_family_restriction(self, service):
        wide = service.bound(BoundRequest(query=TRIANGLE, ps=PS))
        narrow = service.bound(
            BoundRequest(query=TRIANGLE, ps=(1.0, math.inf))
        )
        assert narrow.log2_bound >= wide.log2_bound - 1e-9

    def test_second_request_is_memo_hit(self, db):
        service = BoundService(db, ps=PS)
        first = service.bound(BoundRequest(query=TRIANGLE, ps=PS))
        second = service.bound(BoundRequest(query=TRIANGLE, ps=PS))
        assert not first.cached
        assert second.cached
        assert second.log2_bound == first.log2_bound
        metrics = service.metrics()
        assert metrics["requests"]["bound"] == 2
        assert metrics["solver"]["result_hits"] >= 1
        assert metrics["statistics_cache"] == {"hits": 1, "misses": 1}

    def test_warm_hits_render_the_certificate_once(self, db, monkeypatch):
        renders = []
        render = certificates.product_form

        def counted(result, *args):
            renders.append(result)
            return render(result, *args)

        monkeypatch.setattr(certificates, "product_form", counted)
        service = BoundService(db, ps=PS)
        for family in (None, (1.0, math.inf)):
            request = BoundRequest(query=TRIANGLE, family=family)
            responses = [service.bound(request) for _ in range(4)]
            assert [r.cached for r in responses] == [False] + [True] * 3
            assert len({(r.certificate, r.norms_used) for r in responses}) == 1
        assert len(renders) == 2  # one per memoized result

    def test_memo_hit_renders_its_own_statistics(self):
        # two relations with the same rows: one LP structure, one memo
        # entry, but each query's certificate names its own relation
        edges = power_law_graph(60, 300, 0.5, seed=3)
        twins = Database({"R": edges, "T": edges.with_name("T")})
        service = BoundService(twins, ps=PS)
        first = service.bound(BoundRequest(query=TRIANGLE))
        second = service.bound(
            BoundRequest(query=TRIANGLE.replace("R(", "T("))
        )
        assert second.cached
        assert second.log2_bound == first.log2_bound
        assert "deg_R" in first.certificate and "deg_T" not in first.certificate
        assert second.certificate == first.certificate.replace("deg_R", "deg_T")

    def test_precompute_warms_every_layer(self, db):
        service = BoundService(db, ps=PS)
        assert service.precompute([TRIANGLE, CHAIN]) == 2
        response = service.bound(BoundRequest(query=TRIANGLE, ps=PS))
        assert response.cached
        assert service.metrics()["statistics_cache"]["hits"] == 1

    def test_parse_error_is_typed(self, service):
        with pytest.raises(ServiceError) as err:
            service.bound(BoundRequest(query="not a query"))
        assert err.value.code == "parse-error"
        assert service.errors["parse-error"] >= 1

    def test_unknown_relation_is_typed(self, service):
        with pytest.raises(ServiceError) as err:
            service.bound(BoundRequest(query="Q(x,y) :- Missing(x,y)"))
        assert err.value.code == "unknown-relation"
        assert "'R'" in err.value.message

    @pytest.mark.parametrize(
        "request_norms",
        [{"ps": (5.0,)}, {"family": (3.0,)}, {"family": (1.0, 3.0)}],
        ids=["ps", "family", "family-superset"],
    )
    def test_unserved_norm_is_bad_request(self, service, request_norms):
        # the statistics hold only the served norms: a request naming
        # another is refused, never answered from a silently dropped norm
        with pytest.raises(ServiceError) as err:
            service.bound(BoundRequest(query=TRIANGLE, **request_norms))
        assert err.value.code == "bad-request"
        assert err.value.http_status == 400
        assert "3.0" in err.value.message or "5.0" in err.value.message
        assert "[1.0, 2.0, inf]" in err.value.message
        assert service.errors["bad-request"] == 1

    @pytest.mark.parametrize(
        "query", ["Q(x) :- R(x)", "Q(x,y,z) :- R(x,y,z)"],
        ids=["under", "over"],
    )
    def test_atom_arity_mismatch_is_bad_request(self, service, query):
        misses = service.statistics_misses
        for call, request in (
            (service.bound, BoundRequest(query=query)),
            (service.evaluate, EvaluateRequest(query=query)),
        ):
            with pytest.raises(ServiceError) as err:
                call(request)
            assert err.value.code == "bad-request"
            assert err.value.http_status == 400
            assert "'R' has 2 column" in err.value.message
        assert service.errors["bad-request"] == 2
        assert service.statistics_misses == misses

    def test_unknown_cone_is_typed(self, service):
        misses = service.statistics_misses
        entries = service.metrics()["caches"]["statistics"]["entries"]
        with pytest.raises(ServiceError) as err:
            service.bound(BoundRequest(query=TRIANGLE, cone="conic"))
        assert err.value.code == "bad-request"
        # refused before its query's statistics are extracted or cached
        assert service.statistics_misses == misses
        assert service.metrics()["caches"]["statistics"]["entries"] == entries

    def test_evaluate_counts_exactly(self, service, db):
        from repro.evaluation import generic_join

        expected = generic_join(parse_query(TRIANGLE), db).count
        response = service.evaluate(EvaluateRequest(query=TRIANGLE))
        assert response.count == expected
        assert response.degradations == ()
        assert response.nodes_visited > 0

    def test_deadline_verdict_is_typed_and_service_survives(self, service):
        with pytest.raises(ServiceError) as err:
            service.evaluate(
                EvaluateRequest(query=TRIANGLE, deadline_seconds=1e-9)
            )
        assert err.value.code == "budget-deadline"
        assert err.value.http_status == 422
        assert err.value.detail["reason"] == "deadline exceeded"
        assert err.value.detail["nodes_visited"] >= 0
        # the process keeps serving: the very next request succeeds
        after = service.bound(BoundRequest(query=TRIANGLE, ps=PS))
        assert after.status == "optimal"
        assert service.errors["budget-deadline"] == 1

    def test_memory_verdict_is_typed(self):
        # tracemalloc makes the governor's probe measure traced growth
        # rather than RSS growth: after earlier tests the allocator
        # holds recycled pages, so RSS alone may never cross the cap
        # even though the run allocates well past it.
        import tracemalloc

        # a join big enough that the frontier outgrows a 4K hard cap
        big = Database({"R": power_law_graph(200, 3000, 0.8, seed=5)})
        service = BoundService(big, ps=PS)
        tracemalloc.start()
        try:
            with pytest.raises(ServiceError) as err:
                service.evaluate(
                    EvaluateRequest(query=TRIANGLE, memory_budget="2K:4K")
                )
        finally:
            tracemalloc.stop()
        assert err.value.code == "budget-memory"
        assert err.value.detail["reason"] == "hard memory cap reached"

    def test_bad_budget_spec_is_bad_request(self, service):
        with pytest.raises(ServiceError) as err:
            service.evaluate(
                EvaluateRequest(query=TRIANGLE, memory_budget="lots")
            )
        assert err.value.code == "bad-request"

    def test_concurrent_requests_agree(self, service):
        queries = [TRIANGLE, CHAIN] * 8

        def ask(text):
            return service.bound(BoundRequest(query=text, ps=PS))

        with ThreadPoolExecutor(max_workers=8) as pool:
            responses = list(pool.map(ask, queries))
        by_query = {}
        for text, response in zip(queries, responses):
            by_query.setdefault(text, set()).add(response.log2_bound)
        assert all(len(values) == 1 for values in by_query.values())
        assert service.metrics()["requests"]["bound"] >= len(queries)

    def test_metrics_shape(self, service):
        service.bound(BoundRequest(query=TRIANGLE, ps=PS))
        metrics = service.metrics()
        assert metrics["lp_mode"] in ("persistent", "oneshot")
        for key in (
            "assembly_hits", "assembly_misses", "result_hits", "solves",
            "persistent_resolves", "cached_assemblies", "cached_results",
        ):
            assert key in metrics["solver"]
        latency = metrics["latency"]["bound"]
        assert latency["count"] >= 1
        assert latency["p50_ms"] <= latency["p99_ms"] <= latency["max_ms"]
        for layer in (
            "queries", "statistics", "solver_results", "solver_assemblies",
        ):
            cache = metrics["caches"][layer]
            assert set(cache) >= {"entries", "bytes", "max_bytes", "evictions"}
            assert cache["entries"] >= 0
            assert cache["evictions"] >= 0
        assemblies = metrics["caches"]["solver_assemblies"]
        assert 0 <= assemblies["models"] <= assemblies["entries"]
        admission = metrics["admission"]
        assert admission["max_concurrent"] >= 1
        assert admission["active"] == 0
        assert admission["queued"] == 0
        assert json.dumps(metrics)  # the whole document is JSON-safe

    def test_uptime_is_monotonic_and_nonnegative(self, service):
        first = service.metrics()["uptime_seconds"]
        second = service.metrics()["uptime_seconds"]
        assert 0 <= first <= second


def _degenerate_databases():
    """``(database, query)`` per degenerate input ``/evaluate`` accepts."""
    big = 2**63
    return {
        "empty-relation": (
            Database({"R": Relation(("a", "b"), [])}),
            "Q(x,y,z) :- R(x,y), R(y,z)",
        ),
        "single-row": (
            Database({"R": Relation(("a", "b"), [(1, 2)])}),
            "Q(x,y) :- R(x,y)",
        ),
        "single-row-path": (
            Database({"R": Relation(("a", "b"), [(1, 2)])}),
            "Q(x,y,z) :- R(x,y), R(y,z)",
        ),
        "beyond-int64": (
            Database({
                "R": Relation(
                    ("a", "b"),
                    [(big, 2**64 - 1), (2**64 - 1, big), (5, big), (big, big)],
                )
            }),
            "Q(x,y,z) :- R(x,y), R(y,z)",
        ),
        "string-columns": (
            Database({
                "R": Relation(
                    ("a", "b"), [("u", "v"), ("v", "w"), ("w", "u"), ("u", "w")]
                )
            }),
            "Q(x,y,z) :- R(x,y), R(y,z), R(z,x)",
        ),
        "repeated-variable": (
            Database({"R": Relation(("a", "b"), [(1, 1), (1, 2), (2, 2), (3, 1)])}),
            "Q(x,y) :- R(x,x), R(x,y)",
        ),
    }


class TestEvaluateDegenerateInputs:
    """``/evaluate`` (a governed count-only run) on degenerate inputs:
    the tuple oracle's count, or a typed :class:`ServiceError`."""

    @pytest.mark.parametrize("memory_budget", [None, "64M"])
    @pytest.mark.parametrize("frontier_block", [None, 1, 7])
    @pytest.mark.parametrize("case", sorted(_degenerate_databases()))
    def test_count_matches_oracle(self, case, frontier_block, memory_budget):
        db, text = _degenerate_databases()[case]
        oracle = generic_join_tuples(parse_query(text), db)
        response = BoundService(db, ps=PS).evaluate(
            EvaluateRequest(
                query=text,
                frontier_block=frontier_block,
                memory_budget=memory_budget,
            )
        )
        assert response.count == len(oracle.output), case
        assert response.nodes_visited == oracle.nodes_visited, case

    def test_zero_variable_query_is_typed(self):
        db, _ = _degenerate_databases()["single-row"]
        service = BoundService(db, ps=PS)
        for text in ("Q() :- R()", "Q :- R(x,y)"):
            with pytest.raises(ServiceError) as err:
                service.evaluate(EvaluateRequest(query=text))
            assert err.value.code == "parse-error"


class TestHttpFrontend:
    def test_healthz_and_metrics(self, served):
        server, _ = served
        with BoundClient(server.url) as client:
            assert client.healthz() == {"status": "ok"}
            metrics = client.metrics()
            assert "uptime_seconds" in metrics

    def test_bound_round_trip(self, served, db):
        server, _ = served
        query = parse_query(TRIANGLE)
        expected = lp_bound(
            collect_statistics(query, db, ps=PS), query=query
        )
        with BoundClient(server.url) as client:
            response = client.bound(query=TRIANGLE, ps=PS)
        assert response.log2_bound == pytest.approx(expected.log2_bound)

    def test_bound_over_empty_relation(self):
        # a valid request over an empty table is bound 0, not a 400
        empty_db = Database(
            {
                "R": Relation(("x", "y"), [], name="R"),
                "S": power_law_graph(40, 100, 0.5, seed=2),
            }
        )
        server = start_server(BoundService(empty_db, ps=PS))
        try:
            with BoundClient(server.url) as client:
                for cone in ("auto", "polymatroid"):
                    response = client.bound(query=CHAIN, ps=PS, cone=cone)
                    assert response.status == "optimal"
                    assert response.log2_bound == -math.inf
                    assert response.bound == 0.0
                    assert response.certificate.startswith("||deg_R(")
                response = client.bound(query=CHAIN, ps=(1.0,))
                assert response.log2_bound == -math.inf
        finally:
            server.shutdown()
            server.server_close()

    def test_evaluate_round_trip(self, served, db):
        server, _ = served
        from repro.evaluation import generic_join

        expected = generic_join(parse_query(CHAIN), db).count
        with BoundClient(server.url) as client:
            response = client.evaluate(query=CHAIN)
        assert response.count == expected

    def test_unknown_endpoint_is_404(self, served):
        server, _ = served
        with BoundClient(server.url) as client:
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/nope")
        assert err.value.code == "not-found"

    def test_malformed_json_is_bad_request(self, served):
        server, _ = served
        request = urllib.request.Request(
            server.url + "/bound",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request)
        assert err.value.code == 400
        payload = json.loads(err.value.read())
        assert payload["error"]["code"] == "bad-request"

    def test_unserved_norm_is_bad_request(self, served):
        server, _ = served
        with BoundClient(server.url) as client:
            for norms in ({"ps": (5.0,)}, {"family": (1.0, 3.0)}):
                with pytest.raises(ServiceError) as err:
                    client.bound(query=TRIANGLE, **norms)
                assert err.value.code == "bad-request"
                assert err.value.http_status == 400
                assert "[1.0, 2.0, inf]" in err.value.message
            # the connection still serves a request inside the family
            assert client.bound(query=TRIANGLE, family=(1.0,)).status == (
                "optimal"
            )

    @pytest.mark.parametrize(
        "query", ["Q(x) :- R(x)", "Q(x,y,z) :- R(x,y,z)"],
        ids=["under", "over"],
    )
    def test_atom_arity_mismatch_is_bad_request(self, served, query):
        server, _ = served
        with BoundClient(server.url) as client:
            for call in (client.bound, client.evaluate):
                with pytest.raises(ServiceError) as err:
                    call(query=query)
                assert err.value.code == "bad-request"
                assert err.value.http_status == 400
            assert client.bound(query=TRIANGLE).status == "optimal"

    def test_budget_verdict_is_422_and_server_survives(self, served):
        server, _ = served
        with BoundClient(server.url) as client:
            with pytest.raises(ServiceError) as err:
                client.evaluate(query=TRIANGLE, deadline_seconds=1e-9)
            assert err.value.code == "budget-deadline"
            assert err.value.http_status == 422
            assert err.value.detail["reason"] == "deadline exceeded"
            # same connection, next request: still serving
            assert client.bound(query=TRIANGLE).status == "optimal"

    def test_concurrent_http_clients(self, served):
        server, _ = served

        def ask(_):
            with BoundClient(server.url) as client:
                return client.bound(query=TRIANGLE, ps=PS).log2_bound

        with ThreadPoolExecutor(max_workers=6) as pool:
            values = set(pool.map(ask, range(12)))
        assert len(values) == 1

    def test_warm_latency_sustains_1k_requests(self, served):
        # the acceptance bar: ≥1k warm requests, p99 under 5 ms
        server, service = served
        with BoundClient(server.url) as client:
            client.bound(query=TRIANGLE, ps=PS)  # warm every cache
            for _ in range(1000):
                response = client.bound(query=TRIANGLE, ps=PS)
                assert response.cached
            metrics = client.metrics()
        latency = metrics["latency"]["bound"]
        assert latency["count"] >= 1000
        assert latency["p99_ms"] < 5.0, latency
